"""Fleet worker: one lane subset's admission kernel behind an op protocol.

A :class:`PlacementWorker` owns the kernel state for a subset of the
fleet's lanes — the same :class:`~repro.storage.engine.ChunkKernel`
the single-process batch-mode :class:`~repro.serve.PlacementService`
drives, over the owned lanes' capacities.  A lane's
admissions depend on its own events alone, so each one matches the
single-process run.  Fleets serve batch mode only (see
:mod:`repro.serve.router`), so a worker has no per-job ``admit`` op and
no :class:`~repro.storage.engine.ScalarKernel`.
The worker holds no policy, no log, and no queue: those stay at the
:class:`~repro.serve.router.FleetRouter`, which is what keeps the
fleet's decision stream bit-identical to one process.

The protocol is op dicts in, reply dicts out (see :meth:`handle`), the
shape a :class:`~repro.serve.transport.WorkerTransport` carries.  Ops
that ship job columns carry numpy arrays (read-only views decoded from
the fixed chunk layout over a pipe, see
:func:`~repro.serve.transport.decode`; the router's own arrays in
process; rebuilt from a JSON write-ahead log) or lists (carried
cancels); the worker takes either, and its chunk replies are lists.  Lane ids on the
wire are *local* indices — the router translates from global ids when
routing.

Every mutating op is deterministic given the worker's state, which is
what makes crash recovery a replay: the router logs each op to the
worker's WAL before dispatch, checkpoints the worker periodically
(versioned, schema-tagged payloads — see ``WORKER_SNAPSHOT_SCHEMA``),
and rebuilds a crashed worker as checkpoint + WAL suffix.
"""

from __future__ import annotations

import math
import os
import pickle
import tempfile

import numpy as np

from .. import __version__
from ..storage.engine import ChunkKernel, _ledger_sizes
from .metrics import SIZE_BUCKETS_JOBS, MetricsRegistry
from .types import WORKER_SNAPSHOT_SCHEMA, SnapshotMismatch

__all__ = ["PlacementWorker"]


def _arr(x, dtype=float) -> np.ndarray:
    return np.asarray(x, dtype=dtype)


def _col(x, dtype=float) -> list:
    """An op column as a list of Python scalars: a list as it is, an
    array via one ``tolist``."""
    if type(x) is list:
        return x
    return np.asarray(x, dtype=dtype).tolist()


#: The spec keys a worker reads.  Any other key — a retired knob such as
#: ``compiled``, ``path_lanes`` or ``mode`` in an older checkpoint — is
#: dropped, so it never rides into the worker's later checkpoints.
_SPEC_KEYS = ("worker_id", "lane_caps", "lanes", "track_peak")


def _spec(raw: dict) -> dict:
    spec = {k: raw[k] for k in _SPEC_KEYS if k in raw}
    spec["lane_caps"] = _arr(spec["lane_caps"])
    spec["lanes"] = _arr(spec["lanes"], dtype=np.intp)
    return spec


class PlacementWorker:
    """One fleet worker: a lane-subset kernel plus its op dispatcher.

    Built from a *spec* dict (see :meth:`from_spec`) so the identical
    worker can be constructed in-process, in a forked child, or from a
    checkpoint payload during recovery:

    - ``worker_id`` — fleet position, for error attribution;
    - ``lane_caps`` / ``lanes`` — the owned lanes' capacities and
      global ids;
    - ``track_peak`` — only a single-worker fleet tracks the global
      peak locally; with more workers the router samples it.
    """

    def __init__(self, spec: dict):
        spec = self.spec = _spec(spec)
        self.worker_id = int(spec.get("worker_id", 0))
        self.kernel = ChunkKernel(
            spec["lane_caps"], track_peak=bool(spec.get("track_peak", False)),
        )
        self._init_metrics()

    #: Ops recorded in the worker's span ring — the data-plane ops that
    #: advance kernel state.  Control ops (metrics/spans/ping/state...)
    #: are excluded so observing a worker never grows its trace.
    _SPAN_OPS = frozenset({"chunk", "fit", "cancel", "resize"})

    #: Bounded op-span ring length (see ``_op_spans``).
    SPAN_CAPACITY = 1024

    def _init_metrics(self) -> None:
        """Worker-local op metrics, gathered by the fleet router.

        Auxiliary transport telemetry (not part of the bit-exact
        contract): it lives outside the checkpoint payload, so a
        recovered worker's op counts restart at zero while the
        authoritative kernel counters replay to their exact values.
        The op-span ring follows the same rule: it is not checkpointed
        and restarts on recovery.
        """
        self.registry = MetricsRegistry()
        self._m_ops: dict = {}
        self._m_batch_jobs = self.registry.histogram(
            "worker_batch_jobs", buckets=SIZE_BUCKETS_JOBS,
            help="Jobs per admission op handled by a worker",
        )
        self._op_seq = 0  # data-plane ops handled since (re)start
        self._spans: list = []  # bounded ring of op spans
        self._span_head = 0

    def _count_op(self, kind: str) -> None:
        c = self._m_ops.get(kind)
        if c is None:
            c = self.registry.counter(
                "worker_ops_total", labels={"op": kind},
                help="Ops handled, by kind",
            )
            self._m_ops[kind] = c
        c.inc()

    @classmethod
    def from_spec(cls, spec: dict) -> "PlacementWorker":
        return cls(spec)

    # -- op dispatch ----------------------------------------------------

    def handle(self, op: dict) -> dict:
        """Apply one op dict, return its reply dict.

        Every reply carries the worker's running counters (admission /
        spill / eviction totals and its peak sample), so the router's
        per-worker counter cache stays current without extra
        round-trips.  An op may carry queued cancels as four columns
        (``cancel_lane``, ``cancel_alloc``, ``cancel_release``,
        ``cancel_catch``); they apply first, in order.
        """
        kind = op.get("op")
        handler = getattr(self, f"_op_{kind}", None)
        if handler is None:
            raise ValueError(f"unknown worker op {kind!r}")
        lanes = op.get("cancel_lane")
        if lanes is not None:
            # Each exactly as the standalone ``cancel`` op it stands for.
            for cancel in zip(
                _col(lanes, np.intp), _col(op["cancel_alloc"], np.int64),
                _col(op["cancel_release"]), _col(op["cancel_catch"]),
            ):
                self._count_op("cancel")
                self._record_op_span("cancel", {"catch": cancel[3]})
                self._cancel(*cancel)
        self._count_op(str(kind))
        if kind in self._SPAN_OPS:
            self._record_op_span(str(kind), op)
        return handler(op)

    def _record_op_span(self, kind: str, op: dict) -> None:
        """Append one op span to the bounded ring.

        Spans carry the op kind, a per-worker sequence number, the
        logical anchor the op supplied (``t0``/``t``/``catch``) and the
        job count — enough to reconstruct what the worker's kernel did,
        at a few dozen bytes per data-plane op.
        """
        t = op.get("t0", op.get("t", op.get("catch")))
        v = op.get("t")
        n = len(v) if isinstance(v, (list, np.ndarray)) else None
        span = {
            "worker": self.worker_id,
            "op": kind,
            "seq": self._op_seq,
            "t": None if t is None else float(t),
            "n": n,
        }
        self._op_seq += 1
        if len(self._spans) < self.SPAN_CAPACITY:
            self._spans.append(span)
        else:
            self._spans[self._span_head] = span
            self._span_head = (self._span_head + 1) % self.SPAN_CAPACITY

    def _counters(self) -> dict:
        c = self.kernel.counters()
        return {
            "n_ssd_requested": c["n_ssd_requested"],
            "n_spilled": c["n_spilled"],
            "n_evicted": c["n_evicted"],
            "evicted_bytes": c["evicted_bytes"],
            "n_scalar": c["scalar_fallback_jobs"],
            "peak": c["peak_used"],
        }

    def _counter_list(self) -> list[int]:
        """:meth:`_counters`' values, in its order (a chunk reply's
        ``counters``)."""
        k = self.kernel
        st = k.st
        return [
            k.n_ssd_requested, k.n_spilled, k.n_evicted, k.evicted_bytes,
            st.n_scalar, st.peak_used,
        ]

    # -- mutating ops ---------------------------------------------------

    def _op_chunk(self, op: dict) -> dict:
        """One chunk over this worker's rows: mask (``chunk``) or
        fit-check (``fit``).

        A ``chunk`` op carries the mask candidates, a ``fit`` op every
        job the worker's lanes own; fit verdicts depend only on the
        job's own lane, so they stay here and come back as
        ``requested``.  ``t0`` / ``t_last`` are the *fleet-wide* chunk
        boundaries: releases at or before ``t0`` apply first (exactly
        as the single-process ``open_chunk`` would, catching up on any
        chunk this worker sat out) and ``t_last`` decides which releases
        are consumed in-chunk, so the worker's ledger is the
        single-process one restricted to its lanes.

        The op's columns (arrays, or lists) go to
        :meth:`~repro.storage.engine.ChunkKernel.admit_chunk` as lists,
        and the reply holds its result lists as they are.  Both kinds
        reply with only what the router folds: the outcome columns, the
        free vector and the counters as one list (see "Wire format" in
        :mod:`repro.serve.transport` for the dtypes).  Cancels the op
        carries were applied before (see :meth:`handle`).
        """
        kern = self.kernel
        fit = op["op"] == "fit"
        ts = _col(op["t"])
        n = len(ts)
        self._m_batch_jobs.observe(n)
        ttl = op.get("ttl")
        allocs, space, fracs, _, spilled, turned = kern.admit_chunk(
            float(op["t0"]), float(op["t_last"]), ts, _col(op["dur"]),
            _ledger_sizes(_col(op["size"])), _col(op["lane"], np.intp),
            None if ttl is None else _col(ttl), fit,
        )
        reply = {
            "frac": fracs,
            "alloc": allocs,
            "free": kern.free.tolist(),
            "counters": self._counter_list(),
        }
        if fit:
            # The router derives the rest: a fit chunk's space is the
            # verdict as 0/1, and nothing spills.
            requested = [True] * n
            for q in turned:
                requested[q] = False
            reply["requested"] = requested
        else:
            spill = [math.nan] * n
            for q in spilled:
                spill[q] = ts[q]
            reply["space"], reply["spill"] = space, spill
        return reply

    # ``fit`` keeps its op name so logged worker WALs still replay.
    _op_fit = _op_chunk

    def _catch_up(self, catch) -> None:
        """Advance the release cursor to the router's (``catch``).

        Cancel/resize ops apply relative to how far the single-process
        kernel's cursor had advanced — entries at or before it are
        popped (the single-process run popped them at earlier chunk
        opens or chunk windows), entries after it must stay pending.
        """
        if catch is not None:
            self.kernel.st.release_until(float(catch))

    def _cancel(self, lane: int, alloc, release: float, catch) -> None:
        """One cancel after catching up to ``catch``."""
        self._catch_up(catch)
        self.kernel.cancel(lane, alloc, release)

    def _op_cancel(self, op: dict) -> dict:
        lane = int(op["lane"])
        # The kernel floors ``alloc``: logs written before the integer
        # ledger carry float bytes.
        self._cancel(lane, op["alloc"], float(op["release"]), op.get("catch"))
        return {"free": int(self.kernel.free[lane]), **self._counters()}

    def _op_resize(self, op: dict) -> dict:
        kern = self.kernel
        self._catch_up(op.get("catch"))
        lane = int(op["lane"])
        evicted = kern.resize_lane(lane, float(op["cap"]))
        return {
            "evicted": [tuple(e) for e in evicted],
            "free": int(kern.free[lane]),
            "capacity": int(kern.capacity),
            **self._counters(),
        }

    # -- checkpoint / recovery ------------------------------------------

    def payload(self, anchor: int = 0) -> dict:
        """Versioned snapshot payload: spec + kernel + WAL anchor."""
        return {
            "__schema__": WORKER_SNAPSHOT_SCHEMA,
            "__version__": __version__,
            "spec": self.spec,
            "kernel": self.kernel,
            "anchor": int(anchor),
        }

    def _op_state(self, op: dict) -> dict:
        """The live payload, for fleet snapshots.

        Over a pipe this pickles a point-in-time copy; in-process the
        caller receives live references and must deep-copy before
        mutating (the router's snapshot path does).
        """
        return {"payload": self.payload(int(op.get("anchor", 0)))}

    def _op_checkpoint(self, op: dict) -> dict:
        """Atomically pickle the payload to ``op["path"]``."""
        path = op["path"]
        payload = self.payload(int(op.get("anchor", 0)))
        d = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".worker-ckpt-")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return {"ok": 1, "anchor": int(op.get("anchor", 0)), **self._counters()}

    def install(self, payload: dict) -> None:
        """Adopt a checkpoint payload's kernel state (schema-checked).

        A payload whose kernel is not a :class:`ChunkKernel` (a
        scalar-mode fleet worker's ``ScalarKernel``) is refused: no op
        here can advance it.
        """
        schema = payload.get("__schema__") if isinstance(payload, dict) else None
        if schema != WORKER_SNAPSHOT_SCHEMA:
            raise SnapshotMismatch(
                f"worker checkpoint schema {schema!r} does not match this "
                f"library's schema {WORKER_SNAPSHOT_SCHEMA} "
                f"(written by version {payload.get('__version__', '?') if isinstance(payload, dict) else '?'}, "
                f"this is {__version__})"
            )
        kernel = payload["kernel"]
        if not isinstance(kernel, ChunkKernel):
            raise SnapshotMismatch(
                f"worker checkpoint holds a {type(kernel).__name__}, not a "
                "ChunkKernel: it was written by a scalar-mode fleet, and "
                "fleets serve mode='batch' only"
            )
        spec = self.spec = _spec(payload["spec"])
        self.worker_id = int(spec.get("worker_id", 0))
        self.kernel = kernel
        # Op telemetry is not checkpointed; a restored worker starts over.
        self._init_metrics()

    @classmethod
    def from_payload(cls, payload: dict) -> "PlacementWorker":
        if not isinstance(payload, dict) or "__schema__" not in payload:
            raise SnapshotMismatch(
                "not a worker checkpoint payload (no schema tag)"
            )
        worker = cls.__new__(cls)
        worker.install(payload)
        return worker

    def _op_restore(self, op: dict) -> dict:
        self.install(op["payload"])
        return {"ok": 1, **self._counters()}

    # -- control ops ----------------------------------------------------

    def _op_counters(self, op: dict) -> dict:
        return self._counters()

    def _op_metrics(self, op: dict) -> dict:
        """The worker's partial metrics, for the router's fleet gather."""
        return {"state": self.registry.state(), **self._counters()}

    def _op_spans(self, op: dict) -> dict:
        """The worker's op-span ring, oldest first.

        Deliberately non-mutating (never WAL-logged, never replayed):
        gathering spans — like gathering metrics — cannot change what a
        recovery rebuilds.
        """
        h = self._span_head
        return {
            "spans": self._spans[h:] + self._spans[:h],
            "seq": self._op_seq,
            **self._counters(),
        }

    def _op_ping(self, op: dict) -> dict:
        return {"ok": 1, "worker_id": self.worker_id}

    def _op_stop(self, op: dict) -> dict:
        return {"ok": 1}
