"""Unified shard-aware placement runtime: one engine for every scenario.

This module is the storage layer's single event-loop implementation.
Placement over one global SSD pool (:func:`repro.storage.simulate`) and
placement over ``n_shards`` caching servers
(:func:`repro.storage.simulate_sharded`) are the same computation:
shards are a routing vector over a **multi-lane capacity accountant**,
and the global pool is simply the ``n_shards=1`` special case.

Lane capacities are **heterogeneous**: ``capacity`` may be a scalar
(split evenly, the historical behaviour — bit-identical to the
pre-vector engine) or a length-``n_shards`` vector giving each caching
server its own slice, since real fleets rarely hand every server an
equal one.  Per-job ``decide`` calls observe the job's *own lane's*
capacity and free space in
:class:`~repro.storage.policy.PlacementContext`; ``decide_batch``
receives the chunk's *opening* context (the first job's lane — a chunk
spans many lanes), so shard-aware batch policies take the full per-job
routing and layout from
:meth:`~repro.storage.policy.PlacementPolicy.on_shard_topology`
instead.  The realized layout is recorded on
:attr:`SimResult.lane_capacities`.  Both configurations run through
the same two engines:

- ``legacy``: the reference per-job event loop (one ``decide`` /
  ``observe`` round-trip and heap push per job), now with a lane column
  in the release heap.
- ``chunked``: for policies implementing the batch protocol
  (:class:`~repro.storage.policy.BatchDecision`), the trace is driven
  in decision-interval chunks: one policy round-trip per chunk, and
  one exact loop for every chunk kind over the chunk's SSD candidates
  (a mask chunk's want-SSD rows, or every row of a FirstFit fit-check
  chunk) with the legacy admission arithmetic.

Peak-usage accounting stays global (the fleet-level metric) and is
sampled at admission events exactly as the legacy loop samples it.

The runtime is **source-agnostic**: ``run_placement`` (and therefore
``simulate``/``simulate_sharded``) accepts an in-memory ``Trace``, any
:class:`~repro.workloads.streaming.TraceSource` (blocks of
structure-of-arrays columns drained without materializing per-job
objects — see :mod:`repro.workloads.streaming`), or a ``.csv``/``.npz``
path.  A streamed run is bit-identical to the in-memory run of the
same jobs.

Every capacity ledger holds integer bytes (``int64``), converted once
at the kernel boundary by :func:`ledger_bytes`.  Integer sums do not
depend on their order, so both engines, the online service and the
fleet agree exactly however they group releases; the one ordering left
is that releases due at or before an arrival apply before it.  Only a
TTL-bounded time fraction differs: ``((t + held) - t) / duration`` in
the legacy loop, ``held / duration`` in the chunked engine (see
``tests/test_unified_runtime.py`` and ``tests/test_chunked_simulator.py``).

Incremental kernels
-------------------
Each engine's event-loop arithmetic lives in a stateful *kernel* —
:class:`ScalarKernel` (the per-job reference loop) and
:class:`ChunkKernel` (the decision-interval loop) — that
advances one job / one chunk at a time and does not need the whole
trace up front.  ``run_placement`` drives a kernel over a materialized
trace; the online :class:`~repro.serve.PlacementService` drives the
*same* kernel request-at-a-time (or micro-batch-at-a-time), which is
what makes an online replay of a trace bit-identical to the offline
run: they are the same arithmetic, not two implementations.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ..cost import CostRates, DEFAULT_RATES
from ..workloads.job import TraceBase
from ..workloads.metadata import stable_hash
from ..workloads.streaming import TraceSource, materialize_trace
from .policy import (
    BatchOutcomes,
    PlacementContext,
    PlacementOutcome,
    PlacementPolicy,
)

__all__ = [
    "SimResult",
    "assign_shards",
    "run_placement",
    "ScalarKernel",
    "ChunkKernel",
    "ledger_bytes",
]

#: float64 holds every integer below this: the ledger refuses sizes at
#: or above it and saturates capacities just below it.
_MAX_LEDGER_BYTES = 2**53


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Savings percentages are relative to the all-HDD baseline, exactly as
    the paper reports them.  ``n_shards`` records the lane count of the
    run (1 = one global SSD pool) and ``lane_capacities`` the realized
    per-lane capacity layout (uniform when ``capacity`` was a scalar);
    ``scalar_fallback_jobs`` counts every SSD candidate of a mask chunk
    on a lane where at least one candidate spilled inside that chunk
    (0 when capacity never binds, and always 0 for the legacy engine,
    which has no chunks).

    ``ssd_fraction`` is the per-job effective SSD share (space fraction
    x time fraction) — or ``None`` in **aggregate-only** mode
    (``run_placement(..., aggregate_only=True)``), where the result
    keeps only the constant-size aggregates above and drops every
    per-job array, so holding many results (quota sweeps, long-running
    services) costs O(1) memory per result instead of O(n_jobs).
    """

    policy_name: str
    capacity: float
    n_jobs: int
    baseline_tco: float
    realized_tco: float
    baseline_tcio: float
    realized_hdd_tcio: float
    n_ssd_requested: int
    n_spilled: int
    peak_ssd_used: float
    ssd_fraction: np.ndarray | None = field(default=None, repr=False)
    n_shards: int = 1
    scalar_fallback_jobs: int = 0
    lane_capacities: np.ndarray | None = field(default=None, repr=False)

    @property
    def aggregate_only(self) -> bool:
        """True when per-job arrays were dropped at finalize time."""
        return self.ssd_fraction is None

    @property
    def tco_savings_pct(self) -> float:
        if self.baseline_tco <= 0:
            return 0.0
        return 100.0 * (self.baseline_tco - self.realized_tco) / self.baseline_tco

    @property
    def tcio_savings_pct(self) -> float:
        if self.baseline_tcio <= 0:
            return 0.0
        return 100.0 * (self.baseline_tcio - self.realized_hdd_tcio) / self.baseline_tcio


def assign_shards(trace: TraceBase, n_shards: int, seed: int = 0) -> np.ndarray:
    """Stable pipeline-to-shard routing.

    All jobs of one pipeline land on the same caching server, mirroring
    the locality of a pipeline's intermediate files.  Pipelines repeat
    heavily across a trace, so each distinct pipeline is hashed once and
    every job looks its lane up.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    pipelines = trace.pipelines
    lane = {
        p: stable_hash(p, seed=seed) % n_shards for p in dict.fromkeys(pipelines)
    }
    return np.fromiter(
        map(lane.__getitem__, pipelines), dtype=np.intp, count=len(pipelines)
    )


def ledger_bytes(x, round_up: bool = True):
    """Byte counts as the ledger's integer bytes.

    Sizes round up (``ceil``, so a positive size keeps a byte);
    capacities pass ``round_up=False`` and round down (``floor``, so a
    lane never holds more than it was given).  A Python scalar comes
    back as an ``int``, anything else as an ``int64`` array.  Non-finite
    values and sizes of 2**53 or more raise ``ValueError``; capacities
    that large saturate at 2**53 - 1 (such a lane never binds, and lane
    sums stay far inside ``int64``).
    """
    lim = _MAX_LEDGER_BYTES - 1
    if isinstance(x, (int, float)):
        if -_MAX_LEDGER_BYTES < x < _MAX_LEDGER_BYTES:
            return math.ceil(x) if round_up else math.floor(x)
        if round_up or not -math.inf < x < math.inf:
            raise ValueError(f"byte count {x!r} is not finite or exceeds 2**53")
        return lim if x > 0 else -lim
    a = np.asarray(x, dtype=float)
    ok = np.abs(a) < _MAX_LEDGER_BYTES if round_up else np.isfinite(a)
    if not ok.all():
        raise ValueError(
            f"byte count {a[~ok].flat[0]!r} is not finite or exceeds 2**53"
        )
    out = np.ceil(a) if round_up else np.clip(np.floor(a), -lim, lim)
    out = out.astype(np.int64)
    return int(out) if out.ndim == 0 else out


def _int_ledger(led) -> None:
    """Re-type a ledger unpickled from a float-byte checkpoint, in place.

    Checkpoints written before the integer ledger carry float64 bytes.
    Every one rounds down, as capacities do at construction: integral
    values pass unchanged, and a fractional one never leaves a lane
    holding more than the float ledger did.  The total is re-derived
    from the floored lanes.  Allocation entries, ``cancel`` and the
    service's eviction matching floor by the same rule, so a float
    allocation from an old log still nets against its entry.
    """
    led.lane_capacity = ledger_bytes(led.lane_capacity, round_up=False)
    led.capacity = int(led.lane_capacity.sum())
    led.free = ledger_bytes(led.free, round_up=False)
    led.peak_used = ledger_bytes(led.peak_used, round_up=False)


def _normalize_capacity(
    capacity: float | np.ndarray, n_shards: int
) -> tuple[np.ndarray, float]:
    """Resolve the capacity layout to ``(lane_capacities, total)``.

    A scalar splits evenly (``total`` keeps the caller's exact float so
    the uniform path stays bit-identical to the pre-vector engine); a
    length-``n_shards`` vector gives each lane its own slice.
    """
    arr = np.asarray(capacity, dtype=float)
    if arr.ndim == 0:
        total = float(arr)
        if total < 0:
            raise ValueError("capacity must be >= 0")
        return np.full(n_shards, total / n_shards), total
    if arr.shape != (n_shards,):
        raise ValueError(
            f"capacity vector has {arr.size} entries for {n_shards} shards"
        )
    if (arr < 0).any():
        raise ValueError("capacity must be >= 0")
    return arr.astype(float), float(arr.sum())


def run_placement(
    trace: "TraceBase | TraceSource | str",
    policy: PlacementPolicy,
    capacity: float | np.ndarray,
    n_shards: int = 1,
    rates: CostRates = DEFAULT_RATES,
    engine: str = "auto",
    shard_seed: int = 0,
    aggregate_only: bool = False,
) -> SimResult:
    """Run ``policy`` over ``trace`` with ``capacity`` bytes of SSD
    across ``n_shards`` lanes.

    The single entry point behind :func:`repro.storage.simulate`
    (``n_shards=1``) and :func:`repro.storage.simulate_sharded`.

    Parameters
    ----------
    trace:
        What to simulate — any of:

        - an in-memory :class:`~repro.workloads.job.Trace`;
        - a :class:`~repro.workloads.streaming.TraceSource` (or an
          already-drained
          :class:`~repro.workloads.streaming.StreamedTrace`): the
          blocks are drained into structure-of-arrays columns without
          ever materializing per-job objects, and the run is
          bit-identical to the in-memory path over the same jobs;
        - a path string to a ``.csv`` trace or a ``.npz``/prefix saved
          by :func:`~repro.workloads.traces.save_trace`, opened via
          :func:`~repro.workloads.streaming.open_trace_source`.

        Example::

            run_placement(stream_csv_trace("week2.csv"), policy, cap)
    capacity:
        Either a scalar — split evenly across lanes, the historical
        behaviour — or a length-``n_shards`` vector handing each
        caching server its own (possibly zero) slice.  The realized
        layout is recorded on :attr:`SimResult.lane_capacities`.
    n_shards:
        Lane count; jobs route to lanes by a stable hash of their
        pipeline (:func:`assign_shards`).  1 = one global SSD pool.
    engine:
        Event-loop implementation: ``"auto"`` (chunked fast path when
        the policy implements ``decide_batch``, legacy otherwise),
        ``"chunked"``, or ``"legacy"``.
    shard_seed:
        Seed of the pipeline-to-shard routing hash.
    aggregate_only:
        Drop the per-job arrays from the result and keep only the
        constant-size aggregates (:attr:`SimResult.ssd_fraction` is
        ``None``).  The run itself is unchanged — every aggregate is
        identical to the full-result run.
    """
    # Argument validation precedes the drain: a bad lane count or
    # engine name must not cost a full pass over an out-of-core source.
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if engine not in ("auto", "chunked", "legacy"):
        raise ValueError(f"unknown engine {engine!r}")
    batched = callable(getattr(policy, "decide_batch", None))
    if engine == "chunked" and not batched:
        raise ValueError(f"policy {policy.name!r} does not implement decide_batch")
    lane_caps, total = _normalize_capacity(capacity, n_shards)
    trace = materialize_trace(trace)
    # Refuse non-finite sizes before the policy sees the trace.
    ledger_bytes(trace.sizes)
    shards = assign_shards(trace, n_shards, seed=shard_seed) if n_shards > 1 else None
    policy.on_simulation_start(trace, total, rates)
    policy.on_shard_topology(shards, lane_caps.copy())
    if batched and engine != "legacy":
        return _run_chunked(
            trace, policy, lane_caps, total, rates, shards, n_shards,
            aggregate_only,
        )
    return _run_legacy(
        trace, policy, lane_caps, total, rates, shards, n_shards, aggregate_only
    )


def _finalize(
    trace: TraceBase,
    policy: PlacementPolicy,
    capacity: float,
    lane_caps: np.ndarray,
    n_shards: int,
    rates: CostRates,
    ssd_fraction: np.ndarray,
    n_ssd_requested: int,
    n_spilled: int,
    peak_used: float,
    scalar_fallback_jobs: int = 0,
    aggregate_only: bool = False,
) -> SimResult:
    """Common cost roll-up shared by both engines (and the service)."""
    costs = trace.costs(rates)
    tcio_integral = trace.tcio(rates) * np.maximum(trace.durations, 1.0)
    return SimResult(
        policy_name=policy.name,
        capacity=capacity,
        n_jobs=len(trace),
        baseline_tco=float(costs.c_hdd.sum()),
        realized_tco=float(
            (ssd_fraction * costs.c_ssd + (1.0 - ssd_fraction) * costs.c_hdd).sum()
        ),
        baseline_tcio=float(tcio_integral.sum()),
        realized_hdd_tcio=float(((1.0 - ssd_fraction) * tcio_integral).sum()),
        n_ssd_requested=n_ssd_requested,
        n_spilled=n_spilled,
        peak_ssd_used=float(peak_used),
        ssd_fraction=None if aggregate_only else ssd_fraction,
        n_shards=n_shards,
        scalar_fallback_jobs=scalar_fallback_jobs,
        lane_capacities=lane_caps,
    )


class ScalarKernel:
    """Incremental per-job admission core (the legacy engine's state).

    One instance holds everything the reference event loop carries
    between jobs: per-lane free space, the release heap, the peak
    sample and the admission/spill counters.  ``release_until`` then
    ``admit`` advance it by exactly one job; :func:`_run_legacy` drives
    it over a whole trace, and the online
    :class:`~repro.serve.PlacementService` drives it one ``submit`` at
    a time — the same arithmetic in the same order, which is what makes
    an online replay bit-identical to the offline run.

    Capacity, free space, allocations and peak are integer bytes
    (:func:`ledger_bytes`): lane capacities round down on construction,
    sizes round up on admission.

    ``cancel`` supports the service's early-completion events: it
    returns a job's outstanding allocation to its lane immediately and
    lazily skips the job's scheduled release when it later surfaces on
    the heap (no behaviour change when never called — the offline path
    never calls it).

    ``resize_lane`` / ``drop_lane`` support capacity shocks (lane loss,
    shrink, restore, quota changes): the lane's capacity moves and
    resident allocations that no longer fit are *evicted* —
    latest-scheduled-release first — with each eviction counted as a
    spill (the job's remaining I/O falls back to HDD).  The offline
    path never calls them either.
    """

    __slots__ = (
        "capacity", "lane_capacity", "free", "peak_used", "heap",
        "n_ssd_requested", "n_spilled", "n_evicted", "evicted_bytes",
        "_cancelled",
    )

    #: Lane-subset slots, which only scalar-mode fleet workers used;
    #: single-process checkpoints written while they existed carry
    #: them, and restore without them.
    _RETIRED_SLOTS = frozenset({"lanes", "lane_index", "track_peak"})

    def __init__(self, lane_caps: np.ndarray):
        self.lane_capacity = ledger_bytes(lane_caps, round_up=False)
        self.capacity = int(self.lane_capacity.sum())
        self.free = self.lane_capacity.copy()
        self.peak_used = 0
        #: (release_time, job_index, lane, bytes) min-heap.
        self.heap: list[tuple[float, int, int, int]] = []
        self.n_ssd_requested = 0
        self.n_spilled = 0
        self.n_evicted = 0
        self.evicted_bytes = 0
        self._cancelled: set[int] = set()

    def __setstate__(self, state):
        _, slots = state
        for name, value in slots.items():
            if name not in self._RETIRED_SLOTS:
                setattr(self, name, value)
        if self.free.dtype != np.int64:
            _int_ledger(self)
            self.heap = [
                (r, i, lane, ledger_bytes(a, round_up=False))
                for (r, i, lane, a) in self.heap
            ]
            self.evicted_bytes = ledger_bytes(self.evicted_bytes, round_up=False)

    def counters(self) -> dict:
        """The kernel's monotonic admission counters, uniformly keyed.

        The same schema :meth:`ChunkKernel.counters` returns (and the
        fleet facade aggregates), so the serving metrics layer reads
        one shape regardless of engine or fleet width.
        """
        return {
            "n_ssd_requested": int(self.n_ssd_requested),
            "n_spilled": int(self.n_spilled),
            "n_evicted": int(self.n_evicted),
            "evicted_bytes": int(self.evicted_bytes),
            "scalar_fallback_jobs": 0,
            "peak_used": int(self.peak_used),
        }

    def release_until(self, t: float) -> None:
        """Pop and apply every release due at or before ``t``."""
        heap = self.heap
        while heap and heap[0][0] <= t:
            _, idx, lane, freed = heapq.heappop(heap)
            if idx in self._cancelled:
                self._cancelled.discard(idx)
                continue
            self.free[lane] += freed

    def admit(
        self, i: int, t: float, size: float, duration: float, lane: int,
        want_ssd: bool, ssd_ttl: float | None,
    ) -> tuple[float, float, float | None, int, float]:
        """Apply one decision; returns ``(space_frac, ssd_frac,
        spill_time, alloc, release_time)``.

        The admission arithmetic — partial fit, spill marking, peak
        sampling at admission, TTL-bounded release — is the reference
        loop's, verbatim; ``alloc`` is in integer bytes.
        """
        spill_time: float | None = None
        if not want_ssd:
            return 0.0, 0.0, None, 0, t
        size = ledger_bytes(size)
        free = self.free
        self.n_ssd_requested += 1
        # Pure-Python int arithmetic on the hot serving path: item()
        # round-trips are exact.
        f = free.item(lane)
        alloc = size if size < f else f
        if alloc < size:
            self.n_spilled += 1
            spill_time = t
        f -= alloc
        free[lane] = f
        used = self.capacity - (f if free.size == 1 else int(free.sum()))
        if used > self.peak_used:
            self.peak_used = used
        if ssd_ttl is not None and ssd_ttl < duration:
            release = t + max(ssd_ttl, 0.0)
            time_frac = (release - t) / duration if duration > 0 else 1.0
        else:
            release = t + duration
            time_frac = 1.0
        if alloc > 0:
            if release > t:
                heapq.heappush(self.heap, (release, i, lane, alloc))
            else:
                # Held for no time: back at once, so never resident.
                free[lane] = f + alloc
        space_frac = alloc / size if size > 0 else 1.0
        return space_frac, space_frac * time_frac, spill_time, alloc, release

    def cancel(self, i: int, lane: int, alloc: int) -> None:
        """Return job ``i``'s outstanding allocation to its lane now."""
        self.free[lane] += ledger_bytes(alloc, round_up=False)
        self._cancelled.add(i)

    def resize_lane(
        self, lane: int, new_capacity: float
    ) -> list[tuple[float, int, int]]:
        """Set ``lane``'s capacity, evicting residents that no longer fit.

        Shrinking below the resident footprint evicts jobs
        latest-scheduled-release first (the ones that would hold the
        squeezed lane longest) until free space is non-negative again;
        each eviction counts as a spill and is returned as a
        ``(release_time, job_index, alloc)`` entry so the caller can
        retire its own per-job tracking.  Growth never evicts.  The
        total/free accounting moves by the same delta, so
        ``used == capacity - free.sum()`` is invariant across shocks.
        """
        if not 0 <= lane < len(self.lane_capacity):
            raise ValueError(f"lane {lane} out of range")
        if new_capacity < 0:
            raise ValueError("capacity must be >= 0")
        new_capacity = ledger_bytes(new_capacity, round_up=False)
        delta = new_capacity - int(self.lane_capacity[lane])
        self.lane_capacity[lane] = new_capacity
        self.capacity += delta
        self.free[lane] += delta
        evicted: list[tuple[float, int, int]] = []
        if self.free[lane] < 0:
            resident = sorted(
                (
                    (r, i, a)
                    for (r, i, l, a) in self.heap
                    if l == lane and i not in self._cancelled
                ),
                reverse=True,
            )
            for r, i, a in resident:
                if self.free[lane] >= 0:
                    break
                self.free[lane] += a
                self._cancelled.add(i)
                evicted.append((r, i, a))
            self.n_spilled += len(evicted)
            self.n_evicted += len(evicted)
            self.evicted_bytes += sum(a for _, _, a in evicted)
        return evicted

    def drop_lane(self, lane: int) -> list[tuple[float, int, int]]:
        """Lane loss: capacity to zero, every resident evicted."""
        return self.resize_lane(lane, 0.0)


def _run_legacy(
    trace: TraceBase,
    policy: PlacementPolicy,
    lane_caps: np.ndarray,
    capacity: float,
    rates: CostRates,
    shards: np.ndarray | None,
    n_shards: int,
    aggregate_only: bool = False,
) -> SimResult:
    """Reference per-job event loop (one policy round-trip per job).

    The policy's :class:`PlacementContext` reports the job's lane-local
    free space and its *own lane's* capacity (lanes may be unequal) —
    what a caching server actually knows at admission time.  With
    ``n_shards=1`` this is the global counter.  The loop body is one
    :class:`ScalarKernel` step per job.
    """
    n = len(trace)
    arrivals = trace.arrivals
    durations = trace.durations
    sizes = trace.sizes

    kern = ScalarKernel(lane_caps)
    ssd_fraction = np.zeros(n)

    for i in range(n):
        t = arrivals[i]
        kern.release_until(t)
        s = int(shards[i]) if shards is not None else 0
        ctx = PlacementContext(
            time=t, free_ssd=float(kern.free[s]),
            capacity=float(kern.lane_capacity[s]),
        )
        decision = policy.decide(i, ctx)
        space_frac, frac, spill_time, _, _ = kern.admit(
            i, t, sizes[i], durations[i], s, decision.want_ssd, decision.ssd_ttl
        )
        if decision.want_ssd:
            ssd_fraction[i] = frac

        policy.observe(
            PlacementOutcome(
                job_index=i,
                time=t,
                requested_ssd=decision.want_ssd,
                ssd_space_fraction=space_frac if decision.want_ssd else 0.0,
                spill_time=spill_time,
                shard=s,
            )
        )

    return _finalize(
        trace, policy, capacity, lane_caps, n_shards, rates,
        ssd_fraction, kern.n_ssd_requested, kern.n_spilled, kern.peak_used,
        aggregate_only=aggregate_only,
    )


class _LaneState:
    """Multi-lane capacity/release bookkeeping of a :class:`ChunkKernel`.

    One lane per caching server; ``free`` is the per-lane free-space
    vector and ``lane_capacity`` the per-lane capacity vector (lanes
    may be unequal), both in integer bytes.  Pending releases live in
    one ``(release time, seq, lane, bytes)`` min-heap, the structure
    :class:`ScalarKernel` uses; ``seq`` counts insertions, so entries
    with equal times pop, and are evicted, in the order they were made.

    Lanes are independent in capacity space and a lane's admissions
    depend on its own events alone, so a worker covering a lane subset
    of a fleet admits — and counts the same scalar-fallback jobs — as
    the single-process run it is a slice of; a lane's entries keep the
    same relative order in both.
    """

    __slots__ = (
        "capacity", "lane_capacity", "n_lanes", "free", "peak_used",
        "heap", "seq", "n_scalar", "track_peak",
    )

    #: Slots of older checkpoints: the admission-path selector, and the
    #: time-sorted release arrays with their cursor and merge buffers,
    #: whose entries ``__setstate__`` turns into heap entries.
    _RETIRED_SLOTS = frozenset({
        "path_lanes", "rel_t", "rel_a", "rel_l", "rel_pos",
        "new_t", "new_a", "new_l",
    })

    def __init__(self, lane_caps: np.ndarray, track_peak: bool = True):
        self.capacity = int(lane_caps.sum())
        self.n_lanes = len(lane_caps)
        self.track_peak = track_peak
        self.lane_capacity = lane_caps
        self.free = lane_caps.copy()
        self.peak_used = 0
        self.heap: list[tuple[float, int, int, int]] = []
        self.seq = 0
        self.n_scalar = 0

    def __setstate__(self, state):
        _, slots = state
        for name, value in slots.items():
            if name not in self._RETIRED_SLOTS:
                setattr(self, name, value)
        if "rel_t" in slots:
            # The pending arrays past the cursor, then the buffered
            # entries the next merge would have sorted in after them:
            # in that order they take their ``seq``.  Float bytes
            # floor, as :func:`_int_ledger` floors the lanes.
            pos = slots["rel_pos"]
            amounts = slots["rel_a"][pos:]
            if amounts.dtype != np.int64:
                amounts = ledger_bytes(amounts, round_up=False)
            ts = slots["rel_t"][pos:].tolist() + list(slots.get("new_t", ()))
            lanes = slots["rel_l"][pos:].tolist() + list(slots.get("new_l", ()))
            amounts = amounts.tolist() + [
                ledger_bytes(a, round_up=False) for a in slots.get("new_a", ())
            ]
            self.heap = list(zip(ts, range(len(ts)), lanes, amounts))
            heapq.heapify(self.heap)
            self.seq = len(ts)

    def push_all(self, times: list, lanes: list, amounts: list) -> None:
        """Schedule ``amounts[k]`` bytes back to ``lanes[k]`` at
        ``times[k]``, in order: pushed one by one onto a larger heap,
        else appended and re-heapified in one pass (heapify compares
        every entry, which costs more than the pushes once the heap
        holds more entries than arrive)."""
        heap = self.heap
        seq = self.seq
        k = len(times)
        self.seq = seq + k
        entries = zip(times, range(seq, seq + k), lanes, amounts)
        if k < len(heap):
            push = heapq.heappush
            for e in entries:
                push(heap, e)
        else:
            heap.extend(entries)
            heapq.heapify(heap)

    def release_until(self, t: float) -> list[tuple[float, int, int, int]]:
        """Pop every pending release with time <= ``t`` and apply it to
        its lane; returns the popped entries in ``(time, seq)`` order."""
        heap = self.heap
        done = []
        while heap and heap[0][0] <= t:
            done.append(heapq.heappop(heap))
        if done:
            free = self.free.tolist()
            for _, _, lane, a in done:
                free[lane] += a
            self.free[:] = free
        return done


def _ttl_release(ts: list, durs: list, ttls: list) -> tuple[list, list]:
    """TTL semantics of the legacy loop, over lists.

    Returns ``(release_time, time_fraction)`` per job: a TTL shorter
    than the lifetime (NaN: no TTL) releases at ``t + max(ttl, 0)`` and
    charges only the resident share of the duration.
    """
    releases: list[float] = []
    fracs: list[float] = []
    for t, d, x in zip(ts, durs, ttls):
        if x < d:
            held = x if x > 0.0 else 0.0
            releases.append(t + held)
            fracs.append(held / d if d > 0 else 1.0)
        else:
            releases.append(t + d)
            fracs.append(1.0)
    return releases, fracs


def _ledger_sizes(sizes: list) -> list[int]:
    """:func:`ledger_bytes` over a list of sizes, as Python ints."""
    lim = _MAX_LEDGER_BYTES
    out = [math.ceil(s) for s in sizes if -lim < s < lim]
    if len(out) < len(sizes):
        bad = next(s for s in sizes if not -lim < s < lim)
        raise ValueError(f"byte count {bad!r} is not finite or exceeds 2**53")
    return out


def _chunk_candidates(bd, count: int) -> np.ndarray:
    """The rows of a :class:`~repro.storage.policy.BatchDecision` that
    enter the admission loop, as a fresh chunk-local mask.

    A mask chunk's candidates are its ``want_ssd`` rows; a fit-check
    chunk passes every row in, and the loop turns away the rows that do
    not fit whole (clearing their entries).
    """
    if bd.fit_check:
        return np.ones(count, dtype=bool)
    return np.asarray(bd.want_ssd, dtype=bool)[:count].copy()


class ChunkKernel:
    """Incremental chunk-at-a-time core (the chunked engine's state).

    Holds the :class:`_LaneState` capacity accountant plus the
    admission/spill counters, and advances by one decision-interval
    chunk per call, through one exact loop for every chunk kind
    (:meth:`admit_chunk`, over Python lists).  :meth:`run_chunk` is its
    single-process adapter: :func:`_run_chunked` drives it
    over a whole trace; the online
    :class:`~repro.serve.PlacementService` drives it one queued chunk
    at a time, with chunk boundaries decided by the *policy* in both
    cases — which is what makes a micro-batched online replay
    bit-identical to the offline chunked run.

    The column arrays passed to :meth:`run_chunk` are indexed with
    global job indices; callers may pass views over a growing log as
    long as indices ``[first, stop)`` are populated.  A fleet worker
    calls :meth:`admit_chunk` on its op's columns directly.

    Like :class:`ScalarKernel`, the ledger is integer bytes.  A chunk
    kernel may also cover a **lane subset** of a larger fleet (lane
    arguments and the chunk's lane column are then local indices); it
    admits exactly as the single-process run does (see
    :class:`_LaneState`), and ``track_peak=False`` leaves the global
    peak metric to the fleet router.
    """

    __slots__ = (
        "st", "n_ssd_requested", "n_spilled", "n_evicted", "evicted_bytes",
    )

    #: Slots of older checkpoints: the compiled-path flag and the
    #: global lane ids a lane-subset kernel carried, which nothing read.
    _RETIRED_SLOTS = frozenset({"compiled", "lanes", "lane_index"})

    def __init__(self, lane_caps: np.ndarray, *, track_peak: bool = True):
        self.st = _LaneState(
            ledger_bytes(lane_caps, round_up=False), track_peak=track_peak
        )
        self.n_ssd_requested = 0
        self.n_spilled = 0
        self.n_evicted = 0
        self.evicted_bytes = 0

    def __setstate__(self, state):
        _, slots = state
        for name, value in slots.items():
            if name not in self._RETIRED_SLOTS:
                setattr(self, name, value)
        st = self.st
        if st.free.dtype != np.int64:
            # The pending entries were floored as the ledger unpickled.
            _int_ledger(st)
            self.evicted_bytes = ledger_bytes(self.evicted_bytes, round_up=False)

    @property
    def capacity(self) -> float:
        return self.st.capacity

    @property
    def lane_capacity(self) -> np.ndarray:
        return self.st.lane_capacity

    @property
    def peak_used(self) -> float:
        return self.st.peak_used

    @property
    def scalar_fallback_jobs(self) -> int:
        return self.st.n_scalar

    @property
    def free(self) -> np.ndarray:
        return self.st.free

    def counters(self) -> dict:
        """Monotonic admission counters (see :meth:`ScalarKernel.counters`)."""
        return {
            "n_ssd_requested": int(self.n_ssd_requested),
            "n_spilled": int(self.n_spilled),
            "n_evicted": int(self.n_evicted),
            "evicted_bytes": int(self.evicted_bytes),
            "scalar_fallback_jobs": int(self.st.n_scalar),
            "peak_used": int(self.st.peak_used),
        }

    def open_chunk(self, t0: float, lane: int) -> PlacementContext:
        """Advance releases to ``t0`` and snapshot the opening context.

        Idempotent at a fixed ``t0``: calling it again before the chunk
        runs re-applies no releases and returns the same context, so a
        service may open a chunk to consult the policy and run it only
        once enough jobs are queued.
        """
        st = self.st
        st.release_until(t0)
        return PlacementContext(
            time=t0, free_ssd=float(st.free[lane]),
            capacity=float(st.lane_capacity[lane]),
        )

    def run_chunk(
        self,
        bd,
        first: int,
        stop: int,
        arrivals: np.ndarray,
        durations: np.ndarray,
        sizes: np.ndarray,
        shards: np.ndarray | None,
        ssd_fraction: np.ndarray,
        alloc_out: np.ndarray | None = None,
        release_out: np.ndarray | None = None,
        t_last: float | None = None,
    ) -> BatchOutcomes:
        """Process jobs ``[first, stop)`` under one
        :class:`~repro.storage.policy.BatchDecision`.

        Returns the chunk's :class:`BatchOutcomes` (the caller feeds
        them to ``policy.observe_batch``).  ``alloc_out`` /
        ``release_out`` (length ``stop - first``) optionally receive
        each job's realized allocation and scheduled release time, for
        callers tracking live jobs (the service's ``complete`` events).

        ``t_last`` overrides the chunk-end boundary (default: the last
        arrival).  The boundary decides which releases are consumed
        in-chunk versus buffered for later.

        The adapter over :meth:`admit_chunk`: it picks the candidates
        (:func:`_chunk_candidates`), hands their columns over as lists
        and scatters the results into the chunk-wide outputs.  A
        fit-check row turned away keeps ``requested`` False and writes
        none of ``ssd_fraction``, ``alloc_out`` and ``release_out``.
        """
        count = stop - first
        chunk_t = arrivals[first:stop]
        if t_last is None:
            t_last = float(chunk_t[-1])
        chunk_lanes = shards[first:stop] if shards is not None else None
        space = np.zeros(count)
        spill_col = np.full(count, np.nan)
        requested = _chunk_candidates(bd, count)
        cand = np.flatnonzero(requested)
        if cand.size:
            idx = first + cand
            ts = arrivals[idx].tolist()
            allocs, sp, fracs, releases, spilled, turned = self.admit_chunk(
                -math.inf, t_last, ts, durations[idx].tolist(),
                ledger_bytes(sizes[idx]).tolist(),
                [0] * cand.size if chunk_lanes is None
                else chunk_lanes[cand].tolist(),
                None if bd.ssd_ttl is None
                else np.asarray(bd.ssd_ttl, dtype=float)[cand].tolist(),
                bd.fit_check,
            )
            if spilled:
                spill_col[cand[spilled]] = [ts[q] for q in spilled]
            if turned:
                tq = np.array(turned, dtype=np.intp)
                requested[cand[tq]] = False
                keep = np.ones(cand.size, dtype=bool)
                keep[tq] = False
                cand, idx = cand[keep], idx[keep]
                same = fracs is sp  # no TTL: one list for both
                sp = np.array(sp, dtype=float)[keep]
                fracs = sp if same else np.array(fracs, dtype=float)[keep]
                allocs = np.array(allocs, dtype=np.int64)[keep]
                releases = np.array(releases, dtype=float)[keep]
            space[cand] = sp
            ssd_fraction[idx] = fracs
            if alloc_out is not None:
                alloc_out[cand] = allocs
                release_out[cand] = releases
        return BatchOutcomes(
            first=first,
            times=chunk_t,
            requested_ssd=requested,
            ssd_space_fraction=space,
            spill_time=spill_col,
            shards=chunk_lanes,
        )

    def admit_chunk(
        self,
        t0: float,
        t_last: float,
        ts: list,
        durs: list,
        sizes: list,
        lanes: list,
        ttls: list | None,
        fit_check: bool,
    ) -> tuple[list, list, list, list, list, list]:
        """Admit one chunk's candidates and count them: the admission
        core every chunk runs through.

        The candidates come as parallel lists in arrival order: arrival,
        duration, size in ledger bytes (:func:`ledger_bytes`, as ints),
        local lane and (or ``None``) TTL.  Releases
        pending at or before ``t0`` apply first — the fleet worker's
        chunk open; a caller that opened the chunk itself passes
        ``-inf`` — and ``t_last`` is the chunk-end boundary.  A
        lane-subset worker gets the *fleet-wide* ``t0`` and ``t_last``:
        they must be the same instants on every worker for the fleet
        run to reproduce the single-process event order.

        One exact loop for every chunk kind, with the legacy admission
        arithmetic, ``alloc = min(size, free[L])``.  Before each arrival
        it applies the chunk's window of pending releases and a
        lane-tagged heap of the chunk's own releases due at or before
        it (a zero-hold job's release comes after its own arrival).  A
        running total of free bytes samples the global peak at every
        admission, as the legacy loop samples it.  Every candidate on a
        lane where at least one candidate spilled counts toward
        ``n_scalar``.  Releases maturing after ``t_last`` join the
        pending heap, in candidate order.

        In a fit-check chunk a candidate that does not fit whole is
        turned away instead: no allocation, release or spill.

        Returns per-candidate lists ``(allocs, space, fracs,
        releases)`` — integer bytes, space fraction, SSD fraction
        (space x time fraction) and scheduled release — plus the
        positions that spilled and those turned away, whose
        allocation, space and fraction are 0.  ``fracs`` is ``space``
        itself when no TTL was given.
        """
        st = self.st
        n = len(ts)
        if ttls is None:
            releases = list(map(operator.add, ts, durs))
            time_fracs = None
        else:
            releases, time_fracs = _ttl_release(ts, durs, ttls)

        # Pending releases up to the later boundary pop in (time, seq)
        # order: those at or before t0 apply now, the rest inside the
        # loop and after it.  ``nxt`` is the next one's time, or inf
        # past the boundary.
        hi = t_last if t_last >= t0 else t0
        pending = st.heap
        pop, push = heapq.heappop, heapq.heappush
        inf = math.inf
        free = st.free.tolist()
        nxt = pending[0][0] if pending else inf
        if nxt > hi:
            nxt = inf
        while nxt <= t0:
            _, _, pl, a = pop(pending)
            free[pl] += a
            nxt = pending[0][0] if pending else inf
            if nxt > hi:
                nxt = inf
        heap: list[tuple[float, int, int]] = []  # (time, lane, amount)
        total = sum(free)
        # Lowest free total seen at an admission, i.e. the peak's complement.
        low = st.capacity - st.peak_used
        allocs = [0] * n
        spilled: list[int] = []
        turned: list[int] = []
        # Releases maturing past the chunk, in candidate order.
        later_t: list[float] = []
        later_l: list[int] = []
        later_a: list[int] = []
        for q, (t, size, L, rt) in enumerate(zip(ts, sizes, lanes, releases)):
            while nxt <= t:
                _, _, pl, a = pop(pending)
                free[pl] += a
                total += a
                nxt = pending[0][0] if pending else inf
                if nxt > hi:
                    nxt = inf
            while heap and heap[0][0] <= t:
                _, hl, a = pop(heap)
                free[hl] += a
                total += a
            f = free[L]
            if size <= f:
                alloc = size
            elif fit_check:
                turned.append(q)
                continue
            else:
                alloc = f
                spilled.append(q)
            free[L] = f - alloc
            total -= alloc
            if total < low:
                low = total
            if alloc > 0:
                if rt <= t_last:
                    push(heap, (rt, L, alloc))
                else:
                    later_t.append(rt)
                    later_l.append(L)
                    later_a.append(alloc)
            allocs[q] = alloc
        # Chunk epilogue: apply the remaining in-chunk releases now (the
        # next chunk starts at t >= t_last, so this is indistinguishable
        # from draining them at its first arrival).
        while nxt <= hi:
            _, _, pl, a = pop(pending)
            free[pl] += a
            nxt = pending[0][0] if pending else inf
        for _, hl, a in heap:
            free[hl] += a
        st.free[:] = free
        if st.track_peak:
            st.peak_used = st.capacity - low
        if later_t:
            st.push_all(later_t, later_l, later_a)

        space = [1.0] * n
        if spilled:
            for q in spilled:
                size = sizes[q]
                space[q] = allocs[q] / size if size > 0 else 1.0
            bound = {lanes[q] for q in spilled}
            st.n_scalar += sum(1 for L in lanes if L in bound)
        if time_fracs is None:
            fracs = space
        else:
            fracs = [s * f for s, f in zip(space, time_fracs)]
        for q in turned:
            space[q] = fracs[q] = 0.0
        self.n_ssd_requested += n - len(turned)
        self.n_spilled += len(spilled)
        return allocs, space, fracs, releases, spilled, turned

    def cancel(self, lane: int, alloc: int, release_time: float) -> None:
        """Return an outstanding allocation to its lane now.

        The job's scheduled release is neutralized by a compensating
        negative entry at the same timestamp, pushed after it, so the
        pair nets to zero when the release pass reaches it.
        """
        st = self.st
        alloc = ledger_bytes(alloc, round_up=False)
        st.free[lane] += alloc
        st.push_all([release_time], [lane], [-alloc])

    def resize_lane(self, lane: int, new_capacity: float) -> list[tuple[float, int]]:
        """Set ``lane``'s capacity, evicting residents that no longer fit.

        The chunked counterpart of :meth:`ScalarKernel.resize_lane`:
        live allocations are the lane's pending *positive* release
        entries net of cancel pairs (a ``cancel`` leaves a matching
        negative entry at the same timestamp).  Eviction removes the
        latest-release entries outright — no compensating entry needed,
        the space comes back immediately — until free space is
        non-negative; each eviction counts as a spill.  Returns the
        evicted ``(release_time, alloc)`` entries.
        """
        st = self.st
        if not 0 <= lane < st.n_lanes:
            raise ValueError(f"lane {lane} out of range")
        if new_capacity < 0:
            raise ValueError("capacity must be >= 0")
        new_capacity = ledger_bytes(new_capacity, round_up=False)
        delta = new_capacity - int(st.lane_capacity[lane])
        st.lane_capacity[lane] = new_capacity
        st.capacity += delta
        st.free[lane] += delta
        if st.free[lane] < 0:
            return self._evict_lane(lane)
        return []

    def drop_lane(self, lane: int) -> list[tuple[float, int]]:
        """Lane loss: capacity to zero, every resident evicted."""
        return self.resize_lane(lane, 0.0)

    def _evict_lane(self, lane: int) -> list[tuple[float, int]]:
        """Evict the lane's live entries, latest release first, until
        free space is non-negative again."""
        st = self.st
        entries = sorted(e for e in st.heap if e[2] == lane)
        # Net out cancel pairs: each negative entry neutralizes the
        # earliest positive entry with the same (time, amount) on the lane.
        negs: dict[tuple[float, int], int] = {}
        for t, _, _, a in entries:
            if a < 0:
                negs[t, -a] = negs.get((t, -a), 0) + 1
        live = []
        for e in entries:
            t, _, _, a = e
            if a <= 0:
                continue
            if negs.get((t, a), 0) > 0:
                negs[t, a] -= 1
                continue
            live.append(e)
        evicted: list[tuple[float, int]] = []
        drop: set[int] = set()
        free = int(st.free[lane])
        for t, seq, _, a in reversed(live):
            if free >= 0:
                break
            free += a
            drop.add(seq)
            evicted.append((t, a))
        st.free[lane] = free
        if drop:
            st.heap[:] = [e for e in st.heap if e[1] not in drop]
            heapq.heapify(st.heap)
        self.n_spilled += len(evicted)
        self.n_evicted += len(evicted)
        self.evicted_bytes += sum(a for _, a in evicted)
        return evicted


def _run_chunked(
    trace: TraceBase,
    policy: PlacementPolicy,
    lane_caps: np.ndarray,
    capacity: float,
    rates: CostRates,
    shards: np.ndarray | None,
    n_shards: int,
    aggregate_only: bool = False,
) -> SimResult:
    """Chunked engine: one policy round-trip per decision interval.

    Equivalent to :func:`_run_legacy` for any lane count and capacity
    layout (TTL-bounded time fractions aside, see the module notes).  The loop body is
    one :class:`ChunkKernel` chunk per policy round-trip.
    """
    n = len(trace)
    arrivals = trace.arrivals
    durations = trace.durations
    sizes = trace.sizes

    kern = ChunkKernel(lane_caps)
    ssd_fraction = np.zeros(n)

    i = 0
    while i < n:
        t0 = float(arrivals[i])
        s0 = int(shards[i]) if shards is not None else 0
        ctx = kern.open_chunk(t0, s0)
        bd = policy.decide_batch(i, ctx)
        count = max(1, min(int(bd.count), n - i))
        outcomes = kern.run_chunk(
            bd, i, i + count, arrivals, durations, sizes, shards, ssd_fraction
        )
        policy.observe_batch(outcomes)
        i += count

    return _finalize(
        trace, policy, capacity, lane_caps, n_shards, rates,
        ssd_fraction, kern.n_ssd_requested, kern.n_spilled, kern.peak_used,
        scalar_fallback_jobs=kern.scalar_fallback_jobs,
        aggregate_only=aggregate_only,
    )
