"""Shared serving-layer value types.

The decision/stat/snapshot objects the serving layer passes around,
split out of :mod:`repro.serve.service` so the single-process service
and the fleet layers (:mod:`repro.serve.router`,
:mod:`repro.serve.worker`) share one vocabulary without importing each
other:

- :class:`PlacementDecision` — the per-job verdict every submission
  path returns;
- :class:`_DecisionBatch` / :class:`_DecisionConcat` — lazy decision
  sequences (chunk resolutions materialize per-job tuples only when
  read);
- :class:`ServiceStats` — running operational counters;
- :class:`ShockReport` — what one capacity shock did;
- :class:`ServiceSnapshot` — a deep-copied checkpoint, now carrying a
  schema tag and the library version so a mismatched restore fails
  loudly (:class:`SnapshotMismatch`) instead of unpickling into
  undefined behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SNAPSHOT_SCHEMA",
    "COMPAT_SNAPSHOT_SCHEMAS",
    "WORKER_SNAPSHOT_SCHEMA",
    "SnapshotMismatch",
    "PlacementDecision",
    "ServiceSnapshot",
    "ServiceStats",
    "ShockReport",
]

#: Schema tag written into every :class:`ServiceSnapshot` payload (and
#: pickled checkpoint).  Bump when the snapshot layout changes shape in
#: a way an older/newer library cannot restore.
#: 2: the payload carries the service's metrics registry (so recovered
#: counters continue instead of resetting).
#: 3: the payload carries the alert manager, tracer ring, and logical
#: clock (so recovered alert streams and spans continue).
SNAPSHOT_SCHEMA = 3

#: Older service-snapshot schemas :meth:`PlacementService.restore` can
#: still rebuild by backfilling the missing state with fresh defaults
#: (a pre-metrics payload gets a fresh registry; a pre-alerting payload
#: gets no manager/tracer).  Anything else fails loudly.
COMPAT_SNAPSHOT_SCHEMAS = frozenset({1, 2, SNAPSHOT_SCHEMA})

#: Schema tag of a :class:`~repro.serve.worker.PlacementWorker`
#: checkpoint payload.
WORKER_SNAPSHOT_SCHEMA = 1


class SnapshotMismatch(RuntimeError):
    """A checkpoint/snapshot payload this library version cannot restore."""


class PlacementDecision(NamedTuple):
    """The service's verdict for one submitted job.

    A named tuple rather than a dataclass: the service mints one per
    decided job on the hot path, and tuple construction is several
    times cheaper than dataclass ``__init__``.

    Attributes
    ----------
    index:
        Submission index (position in the service's job log).
    job_id:
        Caller-supplied identity (submission index when omitted); the
        key ``complete`` events use.
    time:
        Arrival time the decision was applied at.
    shard:
        Caching server the job was routed to (0 with one global pool).
    requested_ssd:
        Whether the policy asked for SSD placement.
    ssd_space_fraction:
        Fraction of the footprint that fit on SSD (0.0 when HDD-routed
        or fully spilled).
    spill_time:
        When spillover began, or ``None`` if nothing spilled.
    release_time:
        Scheduled release of the job's SSD allocation (arrival +
        residency), meaningful when some space was allocated.
    """

    index: int
    job_id: object
    time: float
    shard: int
    requested_ssd: bool
    ssd_space_fraction: float
    spill_time: float | None
    release_time: float


class _DecisionBatch(Sequence):
    """One chunk's decisions, materialized lazily.

    Batch submissions resolve whole chunks at once, and many callers
    (replay drivers, throughput benchmarks) never read the per-job
    decision objects.  This sequence holds the chunk's column arrays
    and builds the :class:`PlacementDecision` tuples only when indexed
    or iterated — callers that discard the return pay nothing, and
    callers that read it get one vectorized ``tolist`` conversion
    instead of per-element array scalars.
    """

    __slots__ = ("_outcomes", "_alloc", "_rel", "_job_ids", "_items")

    def __init__(self, outcomes, alloc_buf, rel_buf, job_ids):
        self._outcomes = outcomes
        self._alloc = alloc_buf
        self._rel = rel_buf
        self._job_ids = job_ids
        self._items: list[PlacementDecision] | None = None

    def _materialize(self) -> list[PlacementDecision]:
        if self._items is None:
            o = self._outcomes
            first = o.first
            n = len(o)
            stop = first + n
            spills = o.spill_time.tolist()
            # Tuples built from the columns in C, without a per-field
            # constructor call; NaN-encoded "no spill" (NaN != NaN)
            # reads None.
            self._items = list(map(tuple.__new__, repeat(PlacementDecision), zip(
                range(first, stop), self._job_ids[first:stop],
                o.times.tolist(),
                repeat(0, n) if o.shards is None else o.shards.tolist(),
                o.requested_ssd.tolist(), o.ssd_space_fraction.tolist(),
                [s if s == s else None for s in spills],
                self._rel.tolist(),
            )))
        return self._items

    def __len__(self) -> int:
        return len(self._outcomes)

    def __getitem__(self, k):
        return self._materialize()[k]

    def __iter__(self):
        return iter(self._materialize())

    def __add__(self, other):
        return self._materialize() + list(other)

    def __radd__(self, other):
        return list(other) + self._materialize()


class _DecisionConcat(Sequence):
    """Several chunks' decisions as one lazy sequence."""

    __slots__ = ("_batches", "_items")

    def __init__(self, batches: list[_DecisionBatch]):
        self._batches = batches
        self._items: list[PlacementDecision] | None = None

    def _materialize(self) -> list[PlacementDecision]:
        if self._items is None:
            self._items = [d for b in self._batches for d in b]
        return self._items

    def __len__(self) -> int:
        return sum(len(b) for b in self._batches)

    def __getitem__(self, k):
        return self._materialize()[k]

    def __iter__(self):
        return iter(self._materialize())

    def __add__(self, other):
        return self._materialize() + list(other)

    def __radd__(self, other):
        return list(other) + self._materialize()


@dataclass(frozen=True)
class ServiceSnapshot:
    """A deep-copied checkpoint of a :class:`~repro.serve.PlacementService`.

    Produced by :meth:`PlacementService.snapshot`; consumed by
    :meth:`PlacementService.restore`.  The payload owns copies of all
    mutable state (kernel, policy, log, queue bookkeeping), so the
    original service may keep running and one snapshot may be restored
    any number of times.  Snapshots are picklable whenever the policy
    is, which is what makes on-disk checkpointing possible.

    A snapshot may be taken while an open chunk has pending jobs: the
    admission queue (``n_pending`` jobs and any cached chunk plan) is
    carried inside the payload, so a restore resumes with the exact
    same queue and the eventual chunk boundaries — and therefore every
    later decision — match the uninterrupted run bit for bit.

    ``wal_seq`` anchors the snapshot in its service's write-ahead log:
    :meth:`PlacementService.recover` replays WAL records from this
    sequence number on.  The WAL handle itself is never part of the
    payload (a restored service attaches its own).

    The payload carries a schema tag (``__schema__``) and the writing
    library's version (``__version__``); :meth:`PlacementService.restore`
    refuses payloads whose schema does not match — see
    :class:`SnapshotMismatch`.
    """

    payload: dict = field(repr=False)
    n_submitted: int = 0
    n_decided: int = 0
    n_pending: int = 0
    wal_seq: int = 0


@dataclass
class ServiceStats:
    """Running operational counters of one service instance.

    ``degraded_intervals`` holds closed ``(t_start, t_end)`` arrival
    spans during which the categorizer was down and admission ran on
    the heuristic fallback; an outage that has not ended yet is not in
    the list (see :attr:`PlacementService.degraded_since`).
    """

    n_submitted: int = 0
    n_decided: int = 0
    n_chunks: int = 0
    n_completions: int = 0
    duplicate_completes: int = 0
    stale_completes: int = 0
    forced_chunks: int = 0
    max_pending_seen: int = 0
    n_shocks: int = 0
    n_evicted: int = 0
    evicted_bytes: int = 0
    categorizer_failures: int = 0
    degraded_jobs: int = 0
    degraded_intervals: list = field(default_factory=list)


@dataclass(frozen=True)
class ShockReport:
    """What one :meth:`PlacementService.apply_shock` call did.

    ``decisions`` holds the queued decisions force-closed before the
    shock landed (shocks apply on chunk boundaries — a caller that
    normally collects decisions from ``submit`` returns picks the
    flushed ones up here); ``n_evicted`` / ``evicted_bytes`` count the
    resident allocations squeezed out by the new layout (each also
    counted as a spill).
    """

    time: float
    lane_capacities: np.ndarray
    n_evicted: int
    evicted_bytes: int
    flushed: int
    decisions: tuple = ()
