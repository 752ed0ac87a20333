"""Streaming trace ingestion: drive the placement runtime out-of-core.

The ~1M-job profile in ``benchmarks/bench_perf_hotpaths.py`` showed the
chunked engine is trace-bound, not engine-bound: the dominant memory
cost of a large run is materializing one :class:`ShuffleJob` Python
object (plus its metadata/resource dicts) per job — several hundred
bytes each — before the simulator reads a single arrival.  This module
replaces that with a **block-iterator protocol**:

- :class:`TraceBlock` — one chunk of jobs as structure-of-arrays
  columns (arrival-sorted, validated), the unit of ingestion.
- :class:`TraceSource` — anything that yields ``TraceBlock``s in
  arrival order: an in-memory :class:`~repro.workloads.job.Trace`
  (:class:`InMemoryTraceSource`), a ``.npz`` pair saved by
  :func:`~repro.workloads.traces.save_trace`
  (:class:`~repro.workloads.traces.NpzTraceSource`), or a CSV streamed
  line-buffered (:class:`~repro.workloads.external.CsvTraceSource`).
- :class:`StreamedTrace` — the drained form the placement runtime
  consumes: the six numeric columns plus the pipeline identity list,
  and *nothing else*.  No per-job objects are ever built.

Memory model
------------
Draining a source keeps ~56 bytes/job of numeric columns resident
(six float64 columns plus one pointer per identity column into a
deduplicated string pool — the adapters keep one ``str`` per *unique*
pipeline/user, not one per job) — the same arrays an in-memory run
caches on its ``Trace`` — so
peak RSS is set by the columns, not by the trace representation: about
an order of magnitude below the job-object path, and flat with respect
to the on-disk format (the CSV text is never held).  The residue is
irreducible as long as results stay exact: ``SimResult.ssd_fraction``
is defined over the full job index space, and feedback policies (the
adaptive window, per-shard counters) consume per-job arrivals/TCIO.

Bit-identity contract
---------------------
A streamed run is **bit-identical** to the in-memory run of the same
jobs: :class:`StreamedTrace` reproduces exactly the arrays a ``Trace``
would cache, and both run the same engine code
(``tests/test_streaming.py`` asserts ``SimResult`` equality across
engines and shard counts).  The one behavioural difference: sources
must already be arrival-ordered (``Trace`` silently re-sorts; an
out-of-core reader cannot), so out-of-order blocks raise ``ValueError``
instead.

Entry points
------------
:func:`open_trace_source` dispatches a trace/path/source to the right
adapter; :func:`repro.workloads.external.stream_csv_trace` is the CSV
shorthand.  ``simulate``/``simulate_sharded``/``run_placement`` accept
any of them directly::

    from repro.storage import simulate
    from repro.workloads import stream_csv_trace

    res = simulate(stream_csv_trace("week2.csv"), policy, capacity)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .job import ShuffleJob, TraceBase

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "TraceBlock",
    "TraceSource",
    "InMemoryTraceSource",
    "StreamedTrace",
    "open_trace_source",
    "materialize_trace",
    "rechunk_blocks",
]

#: Default jobs per block: large enough to amortize per-block numpy
#: overhead, small enough that a block of CSV text plus its parsed
#: columns stays a few MiB.
DEFAULT_BLOCK_SIZE = 65536

#: The numeric columns every block carries, in canonical order.
BLOCK_COLUMNS = (
    "arrivals",
    "durations",
    "sizes",
    "read_bytes",
    "write_bytes",
    "read_ops",
)

_DEFAULT_PIPELINE = "pipeline0"
_DEFAULT_USER = "user0"


@dataclass(frozen=True)
class TraceBlock:
    """One arrival-ordered chunk of jobs as structure-of-arrays columns.

    The six numeric columns are mandatory, 1-D, equal-length float64;
    ``pipelines``/``users`` (identity strings, used for shard routing
    and hash categories) and ``job_ids`` are optional and default to
    the loader conventions (``"pipeline0"``/``"user0"``/positional
    index) when absent.  Validation extends :class:`ShuffleJob`'s
    constructor: arrivals must be non-decreasing, durations, sizes and
    I/O volumes non-negative, sizes finite, and no column NaN.
    """

    arrivals: np.ndarray
    durations: np.ndarray
    sizes: np.ndarray
    read_bytes: np.ndarray
    write_bytes: np.ndarray
    read_ops: np.ndarray
    pipelines: tuple[str, ...] | None = None
    users: tuple[str, ...] | None = None
    job_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = None
        for col in BLOCK_COLUMNS:
            arr = np.ascontiguousarray(getattr(self, col), dtype=float)
            object.__setattr__(self, col, arr)
            if arr.ndim != 1:
                raise ValueError(f"block column {col!r} must be 1-D")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError(
                    f"block column {col!r} has {arr.size} entries, expected {n}"
                )
        if np.isnan(self.arrivals).any():
            raise ValueError("block column 'arrivals' has NaN entries")
        if self.arrivals.size > 1 and (np.diff(self.arrivals) < 0).any():
            raise ValueError("block arrivals must be non-decreasing")
        for col in ("durations", "sizes", "read_bytes", "write_bytes", "read_ops"):
            if not (getattr(self, col) >= 0).all():
                raise ValueError(f"block column {col!r} has negative or NaN entries")
        if not np.isfinite(self.sizes).all():
            raise ValueError("block column 'sizes' has infinite entries")
        for attr in ("pipelines", "users"):
            ident = getattr(self, attr)
            if ident is not None and len(ident) != n:
                raise ValueError(
                    f"block {attr} has {len(ident)} entries, expected {n}"
                )
        if self.job_ids is not None:
            ids = np.ascontiguousarray(self.job_ids, dtype=np.int64)
            object.__setattr__(self, "job_ids", ids)
            if ids.size != n:
                raise ValueError(f"block job_ids has {ids.size} entries, expected {n}")

    def __len__(self) -> int:
        return self.arrivals.size


class TraceSource:
    """Iterator protocol over :class:`TraceBlock`s in arrival order.

    Subclasses implement :meth:`blocks`; iteration delegates to it, so
    ``for block in source`` and the materializing consumers
    (:meth:`StreamedTrace.from_source`, the placement runtime) all
    share one code path.  A source may be single-shot (a pipe) or
    re-iterable (a file); the adapters shipped here re-open their
    backing store on every :meth:`blocks` call and are re-iterable.
    """

    #: Report label carried onto the drained trace.
    name: str = "stream"

    def blocks(self) -> Iterator[TraceBlock]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[TraceBlock]:
        return self.blocks()


class InMemoryTraceSource(TraceSource):
    """Adapter: slice an already-materialized trace into blocks.

    Mostly useful for tests and as the degenerate case of the protocol
    (everything already in memory); the streamed result is bit-identical
    to simulating ``trace`` directly.
    """

    def __init__(self, trace: TraceBase, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.trace = trace
        self.block_size = block_size
        self.name = trace.name

    def blocks(self) -> Iterator[TraceBlock]:
        trace = self.trace
        n = len(trace)
        pipelines = trace.pipelines
        users = getattr(trace, "users", None)
        for lo in range(0, n, self.block_size):
            hi = min(lo + self.block_size, n)
            yield TraceBlock(
                arrivals=trace.arrivals[lo:hi],
                durations=trace.durations[lo:hi],
                sizes=trace.sizes[lo:hi],
                read_bytes=trace.read_bytes[lo:hi],
                write_bytes=trace.write_bytes[lo:hi],
                read_ops=trace.read_ops[lo:hi],
                pipelines=tuple(pipelines[lo:hi]),
                users=None if users is None else tuple(users[lo:hi]),
            )


class StreamedTrace(TraceBase):
    """A trace materialized as columns only — no per-job objects.

    Produced by :meth:`from_source`; consumed everywhere a
    :class:`~repro.workloads.job.Trace` is (the placement runtime, cost
    accounting, ``peak_ssd_usage``, hash categories, shard routing).
    Individual jobs can still be inspected — ``trace[i]`` synthesizes a
    transient :class:`ShuffleJob` from the columns (empty
    metadata/resources) — but nothing in the runtime does, so memory
    stays at the column residue.
    """

    def __init__(
        self,
        arrivals: np.ndarray,
        durations: np.ndarray,
        sizes: np.ndarray,
        read_bytes: np.ndarray,
        write_bytes: np.ndarray,
        read_ops: np.ndarray,
        pipelines: list[str] | None = None,
        users: list[str] | None = None,
        job_ids: np.ndarray | None = None,
        name: str = "stream",
    ):
        self.arrivals = np.ascontiguousarray(arrivals, dtype=float)
        self.durations = np.ascontiguousarray(durations, dtype=float)
        self.sizes = np.ascontiguousarray(sizes, dtype=float)
        self.read_bytes = np.ascontiguousarray(read_bytes, dtype=float)
        self.write_bytes = np.ascontiguousarray(write_bytes, dtype=float)
        self.read_ops = np.ascontiguousarray(read_ops, dtype=float)
        self._pipelines = pipelines
        self._users = users
        self._job_ids = job_ids
        self.name = name

    def __len__(self) -> int:
        return self.arrivals.size

    def __repr__(self) -> str:
        return f"StreamedTrace({self.name!r}, {len(self)} jobs)"

    @cached_property
    def pipelines(self) -> list[str]:
        if self._pipelines is not None:
            return self._pipelines
        return [_DEFAULT_PIPELINE] * len(self)

    @cached_property
    def users(self) -> list[str]:
        if self._users is not None:
            return self._users
        return [_DEFAULT_USER] * len(self)

    @cached_property
    def job_ids(self) -> np.ndarray:
        if self._job_ids is not None:
            return self._job_ids
        return np.arange(len(self), dtype=np.int64)

    def __getitem__(self, i: int) -> ShuffleJob:
        return ShuffleJob(
            job_id=int(self.job_ids[i]),
            cluster="stream",
            user=self.users[i],
            pipeline=self.pipelines[i],
            archetype="stream",
            arrival=float(self.arrivals[i]),
            duration=float(self.durations[i]),
            size=float(self.sizes[i]),
            read_bytes=float(self.read_bytes[i]),
            write_bytes=float(self.write_bytes[i]),
            read_ops=float(self.read_ops[i]),
        )

    def __iter__(self) -> Iterator[ShuffleJob]:
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_source(cls, source: TraceSource | Iterable[TraceBlock]) -> "StreamedTrace":
        """Drain ``source`` block by block into one columnar trace.

        Cross-block arrival order is enforced (within-block order is the
        block's own invariant); identity columns missing from some
        blocks are filled with the loader defaults.  An exhausted or
        empty source yields a valid zero-job trace.
        """
        cols: dict[str, list[np.ndarray]] = {c: [] for c in BLOCK_COLUMNS}
        pipelines: list[str] = []
        users: list[str] = []
        job_ids: list[np.ndarray] = []
        any_pipelines = any_users = any_ids = False
        last_arrival = -np.inf
        n_blocks = 0
        n_jobs = 0
        for block in source:
            n_blocks += 1
            if len(block) == 0:
                continue
            if float(block.arrivals[0]) < last_arrival:
                raise ValueError(
                    f"block {n_blocks - 1} starts at t={float(block.arrivals[0]):g}, "
                    f"before the previous block's last arrival t={last_arrival:g}; "
                    "trace sources must be arrival-ordered"
                )
            last_arrival = float(block.arrivals[-1])
            for c in BLOCK_COLUMNS:
                cols[c].append(getattr(block, c))
            if block.pipelines is not None:
                any_pipelines = True
                pipelines.extend(block.pipelines)
            else:
                pipelines.extend([_DEFAULT_PIPELINE] * len(block))
            if block.users is not None:
                any_users = True
                users.extend(block.users)
            else:
                users.extend([_DEFAULT_USER] * len(block))
            if block.job_ids is not None:
                any_ids = True
                job_ids.append(block.job_ids)
            else:
                job_ids.append(np.arange(n_jobs, n_jobs + len(block), dtype=np.int64))
            n_jobs += len(block)
        empty = np.empty(0, dtype=float)
        return cls(
            *(np.concatenate(cols[c]) if cols[c] else empty for c in BLOCK_COLUMNS),
            pipelines=pipelines if any_pipelines else None,
            users=users if any_users else None,
            job_ids=np.concatenate(job_ids) if any_ids else None,
            name=getattr(source, "name", "stream"),
        )


def open_trace_source(
    obj: "TraceSource | TraceBase | str | Path",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> TraceSource:
    """Dispatch a trace, source, or path to the right block adapter.

    - a :class:`TraceSource` passes through unchanged;
    - a :class:`~repro.workloads.job.Trace` (or any column-backed
      trace) wraps in :class:`InMemoryTraceSource`;
    - a ``*.csv`` path opens line-buffered via
      :class:`~repro.workloads.external.CsvTraceSource`;
    - a ``*.npz`` path — or a prefix with an ``.npz`` next to it, the
      :func:`~repro.workloads.traces.save_trace` convention — opens via
      :class:`~repro.workloads.traces.NpzTraceSource`.
    """
    if isinstance(obj, TraceSource):
        return obj
    if isinstance(obj, TraceBase):
        return InMemoryTraceSource(obj, block_size=block_size)
    path = Path(obj)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        from .external import CsvTraceSource

        return CsvTraceSource(path, block_size=block_size)
    if suffix == ".npz" or path.with_suffix(".npz").exists():
        from .traces import NpzTraceSource

        return NpzTraceSource(path, block_size=block_size)
    raise ValueError(
        f"cannot infer a trace source from {str(path)!r}: expected a .csv file, "
        "a .npz trace (save_trace output), a Trace, or a TraceSource"
    )


def rechunk_blocks(
    source: "TraceSource | Iterable[TraceBlock]", batch_jobs: int
) -> Iterator[TraceBlock]:
    """Re-slice a block stream into blocks of exactly ``batch_jobs`` jobs.

    A source's natural block size is an ingestion detail (file-reader
    buffering); consumers that need a *submission* granularity — the
    online load generator's micro-batches, a service driving fixed-size
    admission windows — re-chunk through this adapter.  Oversized
    blocks are split, undersized runs are merged across block
    boundaries, and the final partial batch is emitted as-is.  Identity
    columns missing from some blocks are filled with the loader
    defaults, exactly as :meth:`StreamedTrace.from_source` fills them.
    """
    if batch_jobs < 1:
        raise ValueError("batch_jobs must be >= 1")
    cols: dict[str, list[np.ndarray]] = {c: [] for c in BLOCK_COLUMNS}
    pipelines: list[str] = []
    users: list[str] = []
    any_pipelines = any_users = False
    held = 0

    def _emit(take: int) -> TraceBlock:
        nonlocal held, any_pipelines, any_users
        joined = {c: np.concatenate(cols[c]) for c in BLOCK_COLUMNS}
        block = TraceBlock(
            **{c: joined[c][:take] for c in BLOCK_COLUMNS},
            pipelines=tuple(pipelines[:take]) if any_pipelines else None,
            users=tuple(users[:take]) if any_users else None,
        )
        for c in BLOCK_COLUMNS:
            rest = joined[c][take:]
            cols[c].clear()
            if rest.size:
                cols[c].append(rest)
        del pipelines[:take]
        del users[:take]
        held -= take
        if held == 0:
            any_pipelines = any_users = False
        return block

    for block in source:
        if len(block) == 0:
            continue
        for c in BLOCK_COLUMNS:
            cols[c].append(getattr(block, c))
        if block.pipelines is not None:
            any_pipelines = True
            pipelines.extend(block.pipelines)
        else:
            pipelines.extend([_DEFAULT_PIPELINE] * len(block))
        if block.users is not None:
            any_users = True
            users.extend(block.users)
        else:
            users.extend([_DEFAULT_USER] * len(block))
        held += len(block)
        while held >= batch_jobs:
            yield _emit(batch_jobs)
    if held:
        yield _emit(held)


def materialize_trace(
    obj: "TraceSource | TraceBase | str | Path",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> TraceBase:
    """Resolve any trace-like input to a column-backed trace.

    Already-materialized traces (:class:`~repro.workloads.job.Trace`,
    :class:`StreamedTrace`) pass through untouched; sources and paths
    are drained block by block into a :class:`StreamedTrace`.  This is
    the normalization the placement runtime applies to its ``trace``
    argument.
    """
    if isinstance(obj, TraceBase):
        return obj
    return StreamedTrace.from_source(open_trace_source(obj, block_size=block_size))
