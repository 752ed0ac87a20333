"""Append-only columnar job log backing the online placement service.

The offline runtime materializes a whole trace before the event loop
starts; a live service cannot.  :class:`JobLog` is the online stand-in:
a :class:`~repro.workloads.job.TraceBase` whose columns are growable
buffers appended one job (or one micro-batch) at a time.  Everything
the engine kernels and the feedback policies consume — arrivals,
durations, sizes, I/O columns, per-job TCIO rates, lane routing — is a
live view over the buffers, so a policy bound to the log always sees
exactly the jobs submitted so far.

Views returned by the column properties are invalidated by the next
append (the buffer may reallocate); :class:`ColumnView` wraps a column
as a persistent indexable handle for consumers that must hold one
across appends (e.g. a policy's per-job TCIO lookup).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..cost import CostRates, DEFAULT_RATES, tcio_rate, tcio_rate_scalar
from ..storage.engine import ledger_bytes
from ..workloads.job import ShuffleJob, TraceBase
from ..workloads.metadata import stable_hash

__all__ = ["GrowArray", "ColumnView", "JobLog"]


class GrowArray:
    """A float/int buffer with amortized O(1) append and array views.

    ``data`` exposes the backing buffer (over-allocated); ``view()``
    the populated prefix.  Chunk processors may write through ``data``
    at any populated index.
    """

    __slots__ = ("_buf", "n")

    def __init__(self, dtype=float, capacity: int = 1024):
        self._buf = np.zeros(capacity, dtype=dtype)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    @property
    def data(self) -> np.ndarray:
        return self._buf

    def view(self) -> np.ndarray:
        return self._buf[: self.n]

    def ensure(self, capacity: int) -> None:
        if capacity > self._buf.size:
            new = np.zeros(
                max(capacity, 2 * self._buf.size), dtype=self._buf.dtype
            )
            new[: self.n] = self._buf[: self.n]
            self._buf = new

    def append(self, value) -> None:
        n = self.n
        if n >= self._buf.size:
            self.ensure(n + 1)
        self._buf[n] = value
        self.n = n + 1

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self.ensure(self.n + values.size)
        self._buf[self.n : self.n + values.size] = values
        self.n += values.size


class ColumnView:
    """Stable indexable handle over one growing :class:`JobLog` column.

    Resolves the column at every access, so it stays valid across
    appends (unlike a raw numpy view of the buffer).  Supports exactly
    the access patterns the feedback policies use: integer and slice
    indexing plus ``len``.
    """

    __slots__ = ("_log", "_name")

    def __init__(self, log: "JobLog", name: str):
        self._log = log
        self._name = name

    def __getitem__(self, key):
        return getattr(self._log, self._name)[key]

    def __len__(self) -> int:
        return len(self._log)

    def __array__(self, dtype=None, copy=None):
        arr = getattr(self._log, self._name)
        return np.asarray(arr, dtype=dtype)


class JobLog(TraceBase):
    """The service's live trace: submitted jobs as growable columns.

    Implements the full :class:`~repro.workloads.job.TraceBase`
    protocol (costs, TCIO, peak usage), so it can be handed to
    ``policy.on_simulation_start`` and to the engine's cost roll-up in
    place of an offline trace.  Two extra columns are maintained for
    the service: per-job ``tcio_rates`` (appended incrementally with
    the construction rates — bit-identical to a full-trace
    ``trace.tcio(rates)`` because the rate is elementwise) and
    ``lanes`` (the caching-server routing, hashed per pipeline exactly
    as :func:`~repro.storage.engine.assign_shards` hashes it).
    """

    def __init__(
        self,
        rates: CostRates = DEFAULT_RATES,
        n_shards: int = 1,
        shard_seed: int = 0,
        name: str = "service",
    ):
        self.name = name
        self.rates = rates
        self.n_shards = n_shards
        self.shard_seed = shard_seed
        self._arrivals = GrowArray(float)
        self._durations = GrowArray(float)
        self._sizes = GrowArray(float)
        self._read_bytes = GrowArray(float)
        self._write_bytes = GrowArray(float)
        self._read_ops = GrowArray(float)
        self._tcio = GrowArray(float)
        self._lanes = GrowArray(np.intp)
        self._pipelines: list[str] = []
        self._users: list[str] = []
        self._job_ids: list = []
        #: True while every id is the auto-assigned submission index —
        #: lets the tracer sample whole chunks with one arange instead
        #: of converting the id list (see PlacementService._trace_scan).
        self._ids_auto = True
        self._lane_cache: dict[str, int] = {}

    # -- column views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._arrivals)

    def __repr__(self) -> str:
        return f"JobLog({self.name!r}, {len(self)} jobs)"

    @property
    def arrivals(self) -> np.ndarray:
        return self._arrivals.view()

    @property
    def durations(self) -> np.ndarray:
        return self._durations.view()

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes.view()

    @property
    def read_bytes(self) -> np.ndarray:
        return self._read_bytes.view()

    @property
    def write_bytes(self) -> np.ndarray:
        return self._write_bytes.view()

    @property
    def read_ops(self) -> np.ndarray:
        return self._read_ops.view()

    @property
    def tcio_rates(self) -> np.ndarray:
        """Per-job HDD TCIO rate under the log's construction rates."""
        return self._tcio.view()

    @property
    def lanes(self) -> np.ndarray:
        """Per-job caching-server routing (all zeros with one lane)."""
        return self._lanes.view()

    @property
    def pipelines(self) -> list[str]:
        return self._pipelines

    @property
    def users(self) -> list[str]:
        return self._users

    @property
    def job_ids(self) -> list:
        """Caller-supplied job identities (submission index if absent)."""
        return self._job_ids

    # TraceBase caches these; a growing log must not.
    @property
    def ends(self) -> np.ndarray:  # type: ignore[override]
        return self.arrivals + self.durations

    @property
    def total_bytes(self) -> np.ndarray:  # type: ignore[override]
        return self.read_bytes + self.write_bytes

    def column(self, name: str) -> ColumnView:
        """A growth-stable handle for one column (see :class:`ColumnView`)."""
        return ColumnView(self, name)

    def __iter__(self) -> Iterator[ShuffleJob]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> ShuffleJob:
        return ShuffleJob(
            job_id=i,
            cluster="service",
            user=self._users[i],
            pipeline=self._pipelines[i],
            archetype="service",
            arrival=float(self.arrivals[i]),
            duration=float(self.durations[i]),
            size=float(self.sizes[i]),
            read_bytes=float(self.read_bytes[i]),
            write_bytes=float(self.write_bytes[i]),
            read_ops=float(self.read_ops[i]),
        )

    # -- appends --------------------------------------------------------

    def _lane_of(self, pipeline: str) -> int:
        """Stable pipeline-to-lane routing, cached per unique pipeline.

        Identical to :func:`~repro.storage.engine.assign_shards` for
        the same seed: both hash each unique pipeline once.
        """
        lane = self._lane_cache.get(pipeline)
        if lane is None:
            lane = stable_hash(pipeline, seed=self.shard_seed) % self.n_shards
            self._lane_cache[pipeline] = lane
        return lane

    def append_job(
        self,
        arrival: float,
        duration: float,
        size: float,
        read_bytes: float = 0.0,
        write_bytes: float = 0.0,
        read_ops: float = 0.0,
        pipeline: str = "pipeline0",
        user: str = "user0",
        job_id=None,
    ) -> int:
        """Append one job; returns its log index.

        Arrivals must be non-decreasing (the service is an arrival-time
        event loop), sizes/durations/volumes non-negative, no value NaN
        and the size a byte count the ledger can hold
        (:func:`~repro.storage.engine.ledger_bytes`), all checked before
        anything is appended.
        """
        n = len(self)
        if arrival != arrival:
            raise ValueError("job arrival is NaN")
        if n and arrival < self._arrivals.data[n - 1]:
            raise ValueError(
                f"job arrives at t={arrival:g}, before the previous submission "
                f"t={float(self._arrivals.data[n - 1]):g}; submissions must be "
                "arrival-ordered"
            )
        if not (duration >= 0 and size >= 0 and read_bytes >= 0
                and write_bytes >= 0 and read_ops >= 0):
            raise ValueError("negative or NaN duration, size or I/O volume")
        ledger_bytes(size)
        self._arrivals.append(arrival)
        self._durations.append(duration)
        self._sizes.append(size)
        self._read_bytes.append(read_bytes)
        self._write_bytes.append(write_bytes)
        self._read_ops.append(read_ops)
        self._tcio.append(tcio_rate_scalar(read_ops, write_bytes, duration, self.rates))
        self._lanes.append(self._lane_of(pipeline))
        self._pipelines.append(pipeline)
        self._users.append(user)
        if job_id is None:
            self._job_ids.append(n)
        else:
            self._job_ids.append(job_id)
            if not (isinstance(job_id, int) and job_id == n):
                self._ids_auto = False
        return n

    def append_block(
        self,
        arrivals: np.ndarray,
        durations: np.ndarray,
        sizes: np.ndarray,
        read_bytes: np.ndarray,
        write_bytes: np.ndarray,
        read_ops: np.ndarray,
        pipelines: Sequence[str] | None = None,
        users: Sequence[str] | None = None,
        job_ids: Sequence | None = None,
    ) -> tuple[int, int]:
        """Append one micro-batch of columns; returns ``(first, stop)``.

        Validation matches :meth:`append_job` and precedes any append;
        the TCIO column is computed vectorized over the batch
        (elementwise, so identical to the per-job path).
        """
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        durations = np.ascontiguousarray(durations, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        read_bytes = np.ascontiguousarray(read_bytes, dtype=float)
        write_bytes = np.ascontiguousarray(write_bytes, dtype=float)
        read_ops = np.ascontiguousarray(read_ops, dtype=float)
        k = arrivals.size
        for col, label in (
            (durations, "durations"), (sizes, "sizes"),
            (read_bytes, "read_bytes"), (write_bytes, "write_bytes"),
            (read_ops, "read_ops"),
        ):
            if col.size != k:
                raise ValueError(f"batch column {label!r} has {col.size} entries, expected {k}")
            if not (col >= 0).all():
                raise ValueError(f"batch column {label!r} has negative or NaN entries")
        if np.isnan(arrivals).any():
            raise ValueError("batch column 'arrivals' has NaN entries")
        ledger_bytes(sizes)
        first = len(self)
        if k == 0:
            return first, first
        if k > 1 and (np.diff(arrivals) < 0).any():
            raise ValueError("batch arrivals must be non-decreasing")
        if first and arrivals[0] < self._arrivals.data[first - 1]:
            raise ValueError(
                f"batch starts at t={float(arrivals[0]):g}, before the previous "
                f"submission t={float(self._arrivals.data[first - 1]):g}"
            )
        self._arrivals.extend(arrivals)
        self._durations.extend(durations)
        self._sizes.extend(sizes)
        self._read_bytes.extend(read_bytes)
        self._write_bytes.extend(write_bytes)
        self._read_ops.extend(read_ops)
        self._tcio.extend(tcio_rate(read_ops, write_bytes, durations, self.rates))
        if pipelines is None:
            pipelines = ["pipeline0"] * k
        elif len(pipelines) != k:
            raise ValueError(f"batch pipelines has {len(pipelines)} entries, expected {k}")
        lookup = self._lane_cache.__getitem__
        try:
            lanes = np.fromiter(map(lookup, pipelines), dtype=np.intp, count=k)
        except KeyError:
            # New pipelines: hash each one once, then look every job up.
            for p in dict.fromkeys(pipelines):
                self._lane_of(p)
            lanes = np.fromiter(map(lookup, pipelines), dtype=np.intp, count=k)
        self._lanes.extend(lanes)
        self._pipelines.extend(pipelines)
        if users is None:
            self._users.extend(["user0"] * k)
        elif len(users) != k:
            raise ValueError(f"batch users has {len(users)} entries, expected {k}")
        else:
            self._users.extend(users)
        if job_ids is None:
            self._job_ids.extend(range(first, first + k))
        elif len(job_ids) != k:
            raise ValueError(f"batch job_ids has {len(job_ids)} entries, expected {k}")
        else:
            self._job_ids.extend(job_ids)
            self._ids_auto = False
        return first, first + k
