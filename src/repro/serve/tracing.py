"""Deterministic per-request tracing for the serving layer.

One :class:`Tracer` per service records the path a sampled request
takes through the stack as a *span*: one record per job with an
ordered list of events —

    submit -> categorize -> admit -> place | spill -> complete

Every timestamp is **logical** (the job's arrival time, the decision
time, the completion event time), never wall clock, and sampling is a
pure hash of the job id — so the set of traced jobs and the contents
of every span are bit-identical across engine mode, worker count,
transport, and WAL recovery (recovery replays the same submissions
through the same paths, regenerating the post-checkpoint spans the
crash lost; the pre-checkpoint spans ride the snapshot).

The span store is a bounded ring: when ``capacity`` spans exist, the
oldest is overwritten (and counted in :attr:`Tracer.n_evicted`), so a
long-running service holds a recent window, not an unbounded log.

Hot-path cost: one integer hash per request on the scalar path; one
vectorized mask per chunk on the batch path (see
:func:`sample_mask`).  A ``None`` tracer costs a single attribute
check.

Fleet workers keep their own tiny op-level ring
(:class:`repro.serve.worker.PlacementWorker`), gathered by the router
through a non-mutating ``{"op": "spans"}`` transport op — worker op
spans are auxiliary telemetry (like ``worker_ops_total``): they are
not checkpointed and restart when a worker recovers.

Export is JSONL: one span per line (:meth:`Tracer.export_jsonl`).
"""

from __future__ import annotations

import json
import zlib

import numpy as np

__all__ = ["Tracer", "sample_hash", "sample_mask", "SAMPLE_MODULUS"]

#: Sampling hash space: job-id hashes are uniform in ``[0, 2**32)``.
SAMPLE_MODULUS = 2 ** 32

#: Knuth's multiplicative-hash constant (2**32 / golden ratio).
_PRIME = 2654435761


def sample_hash(job_id) -> int:
    """Deterministic hash of a job id into ``[0, SAMPLE_MODULUS)``.

    Integer ids take a multiplicative hash (vectorizable — see
    :func:`sample_mask`); anything else hashes its ``repr`` through
    crc32.  Stable across processes and Python runs (never ``hash()``,
    which is salted).
    """
    if type(job_id) is int:
        return (job_id * _PRIME) & 0xFFFFFFFF
    try:
        return (int(job_id) * _PRIME) & 0xFFFFFFFF
    except (TypeError, ValueError):
        return zlib.crc32(repr(job_id).encode())


def sample_mask(ids: np.ndarray, threshold: int) -> np.ndarray:
    """Vectorized :func:`sample_hash` ``< threshold`` over integer ids."""
    h = (ids.astype(np.uint64, copy=False) * _PRIME) & np.uint64(0xFFFFFFFF)
    return h < np.uint64(threshold)


class Tracer:
    """Bounded, deterministic span recorder.

    Parameters
    ----------
    sample:
        Fraction of jobs traced, by job-id hash (1.0 = every job).  The
        same job id always makes the same sampling decision, in every
        process.
    capacity:
        Maximum retained spans; the oldest is overwritten beyond that.

    Plain data throughout — deep-copies and pickles inside service
    snapshots, so WAL recovery continues the ring instead of resetting
    it.
    """

    def __init__(self, sample: float = 1.0, capacity: int = 4096):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample = float(sample)
        self.capacity = int(capacity)
        self.threshold = int(round(self.sample * SAMPLE_MODULUS))
        self.ring: list[dict] = []
        self.head = 0  # next overwrite position once the ring is full
        self.index: dict = {}  # job_id -> open span (still in the ring)
        self.n_spans = 0  # spans ever started
        self.n_evicted = 0  # spans overwritten by the ring bound

    # -- sampling --------------------------------------------------------

    def sampled(self, job_id) -> bool:
        return sample_hash(job_id) < self.threshold

    def sampled_positions(self, ids: list) -> list[int]:
        """The positions in ``ids`` whose job :meth:`sampled` picks: one
        :func:`sample_mask` pass when every id is a plain ``int`` within
        ``int64``, else one :meth:`sampled` call per id."""
        if set(map(type, ids)) == {int}:
            try:
                arr = np.array(ids, dtype=np.int64)
            except OverflowError:
                pass
            else:
                return np.flatnonzero(sample_mask(arr, self.threshold)).tolist()
        return [k for k, job_id in enumerate(ids) if self.sampled(job_id)]

    # -- recording -------------------------------------------------------

    def begin(self, job_id, t: float, **attrs) -> dict:
        """Open a span for ``job_id`` with its ``submit`` event."""
        return self.add({"job_id": job_id, "events": [["submit", float(t), attrs]]})

    def add(self, span: dict) -> dict:
        """Insert a fully built span (the batch recorder's fast path).

        ``span`` must carry ``job_id`` and ``events`` in the
        :meth:`begin` shape; the ring, index, and counters advance
        exactly as if it had been opened event by event.
        """
        ring = self.ring
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            head = self.head
            old = ring[head]
            self.index.pop(old["job_id"], None)
            ring[head] = span
            self.head = (head + 1) % self.capacity
            self.n_evicted += 1
        self.index[span["job_id"]] = span
        self.n_spans += 1
        return span

    def event(self, job_id, name: str, t: float, **attrs) -> None:
        """Append an event to an open span (no-op if it was evicted)."""
        span = self.index.get(job_id)
        if span is not None:
            span["events"].append([name, float(t), attrs])

    # -- export ----------------------------------------------------------

    def spans(self) -> list[dict]:
        """Retained spans, oldest first."""
        return self.ring[self.head:] + self.ring[:self.head]

    def export_jsonl(self, path) -> int:
        """Write one JSON line per retained span; returns the count."""
        out = self.spans()
        with open(path, "w") as fh:
            for span in out:
                fh.write(json.dumps(span, default=_jsonable) + "\n")
        return len(out)


def _jsonable(v):
    """JSON fallback for numpy scalars riding in span attributes."""
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    return float(v)
