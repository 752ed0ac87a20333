"""Feature extraction: Table 2 of the paper.

Turns a :class:`~repro.workloads.job.Trace` into a numeric feature
matrix for the gradient-boosted-trees models.  Features span four
groups, mirroring Figure 9c's analysis:

- **A — historical system metrics** (4 columns): per-pipeline running
  averages of TCIO / size / lifetime / I/O density over previously
  completed executions.
- **B — execution metadata** (hashed token indicators): the five string
  fields are tokenized on non-alphanumeric separators and feature-hashed
  into a fixed number of binary columns per field.
- **C — allocated resources** (8 columns): bucket/shard/worker counts
  and records written, known before execution.
- **T — job timestamp** (3 columns): hour-of-day, second-of-day,
  weekday of the job's start time.

Hashing keeps the encoder stateless: a model trained on one cluster can
score jobs of another cluster (Figure 8) and unseen users/pipelines
(Figure 10) without vocabulary alignment.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..cost import CostRates, DEFAULT_RATES, tcio_rate, tcio_rate_scalar
from ..units import DAY, GIB, HOUR
from .history import HISTORY_FEATURES, compute_history
from .job import Trace
from .metadata import METADATA_FIELDS, stable_hash, tokenize

__all__ = [
    "FEATURE_GROUPS",
    "RESOURCE_FEATURES",
    "TIME_FEATURES",
    "FeatureMatrix",
    "extract_features",
    "OnlineFeatureExtractor",
]

#: Allocated-resource columns (group C), Table 2 order.
RESOURCE_FEATURES = (
    "bucket_sizing_initial_num_stripes",
    "bucket_sizing_num_shards",
    "bucket_sizing_num_worker_threads",
    "bucket_sizing_num_workers",
    "initial_num_buckets",
    "num_buckets",
    "records_written",
    "requested_num_shards",
)

#: Timestamp columns (group T).
TIME_FEATURES = ("open_time_day_hour", "open_time_seconds", "open_time_weekday")

#: Feature-group codes as used in Figure 9c.
FEATURE_GROUPS = ("A", "B", "C", "T")

#: Hash buckets per metadata field (group B width = 5 * this).
DEFAULT_HASH_BUCKETS = 16


@dataclass(frozen=True)
class FeatureMatrix:
    """A dense feature matrix with column names and group labels.

    Attributes
    ----------
    X:
        (n_jobs, n_features) float64 matrix.
    names:
        Column names, length n_features.
    groups:
        Group code per column ("A", "B", "C" or "T").
    """

    X: np.ndarray
    names: tuple[str, ...]
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.X.shape[1] != len(self.names) or len(self.names) != len(self.groups):
            raise ValueError("names/groups must match X's column count")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "FeatureMatrix":
        """Row subset (e.g. train/test split aligned with a trace split)."""
        return FeatureMatrix(X=self.X[idx], names=self.names, groups=self.groups)

    def group_columns(self, group: str) -> np.ndarray:
        """Column indices belonging to a feature group."""
        return np.array([i for i, g in enumerate(self.groups) if g == group], dtype=int)

    def drop_columns(self, cols: np.ndarray) -> "FeatureMatrix":
        """Return a copy with the given columns removed (for importance)."""
        keep = np.setdiff1d(np.arange(self.n_features), cols)
        return FeatureMatrix(
            X=self.X[:, keep],
            names=tuple(self.names[i] for i in keep),
            groups=tuple(self.groups[i] for i in keep),
        )


#: Distinct ``(field, value)`` pairs whose group-B columns stay memoized;
#: served metadata has a few to a few hundred distinct values per field.
_METADATA_MEMO_SIZE = 1 << 16

#: Group C of a job without a resource map.
_NO_RESOURCES = (0.0,) * len(RESOURCE_FEATURES)

#: The numeric job fields the group-A/T core reads, in its argument order.
_NUMERIC = attrgetter("arrival", "duration", "size", "write_bytes", "read_ops")


@functools.lru_cache(maxsize=_METADATA_MEMO_SIZE)
def _metadata_columns(f_idx: int, value: str, n_buckets: int) -> tuple[int, ...]:
    """Group-B columns (offsets into the group) that one metadata value sets.

    The hashing rule: every alphanumeric token of field ``f_idx``'s
    value sets column ``f_idx * n_buckets + stable_hash(token,
    seed=f_idx) % n_buckets``.  A pure function of its arguments, so
    memoized process-wide rather than in any extractor's state.
    """
    base = f_idx * n_buckets
    return tuple(
        sorted({base + stable_hash(t, seed=f_idx) % n_buckets for t in tokenize(value)})
    )


def _hash_metadata(out: np.ndarray, col0: int, metas, n_buckets: int) -> None:
    """Set the group-B ones of ``metas`` (one map or None per row) in the
    zeroed ``out``, whose group B starts at column ``col0``."""
    stride = out.shape[1]
    flat: list[int] = []
    for r, meta in enumerate(metas):
        if meta:
            base = r * stride + col0
            for f_idx, field in enumerate(METADATA_FIELDS):
                for c in _metadata_columns(f_idx, meta.get(field, ""), n_buckets):
                    flat.append(base + c)
    out.put(flat, 1.0)


def _fill_resources(out: np.ndarray, col0: int, resources) -> None:
    """Group C of ``resources`` (one map per row) into ``out[:, col0:]``."""
    if any(resources):
        out[:, col0:col0 + len(RESOURCE_FEATURES)] = [
            list(map(res.get, RESOURCE_FEATURES, _NO_RESOURCES)) if res else _NO_RESOURCES
            for res in resources
        ]


def _metric_rows(read_ops, write_bytes, durations, sizes, rates: CostRates) -> np.ndarray:
    """Group-A contribution of each job once it completes, ``(k, 4)``.

    ``[tcio, size, lifetime, io_density]`` with the elementwise
    arithmetic of :func:`~repro.workloads.history.compute_history`'s
    fold, so incremental sums stay bit-identical to the offline scan.
    """
    sizes = np.asarray(sizes, dtype=float)
    tcio = tcio_rate(read_ops, write_bytes, durations, rates)
    total_ops = tcio * np.maximum(durations, 1.0) * rates.hdd_ops_per_second
    density = total_ops / np.maximum(sizes / GIB, 1e-9)
    return np.column_stack([tcio, sizes, durations, density])


def _fill_times(out: np.ndarray, col0: int, arrivals: np.ndarray) -> None:
    """Group T (hour of day, second of day, weekday) into ``out[:, col0:]``."""
    seconds_of_day = arrivals % DAY
    out[:, col0] = np.floor(seconds_of_day / HOUR)
    out[:, col0 + 1] = seconds_of_day
    out[:, col0 + 2] = np.floor(arrivals / DAY) % 7


class OnlineFeatureExtractor:
    """Incremental Table-2 feature extraction for arriving jobs.

    The offline :func:`extract_features` needs the whole trace up front
    (group A is a causal scan over completed same-pipeline jobs); a
    live placement service sees one arrival at a time.  This extractor
    carries the causal state — per-pipeline pending completions and
    running metric sums — across calls, and :meth:`push` produces, for
    each newly arrived job, exactly the feature row the offline
    extractor would have produced at the same position: fold
    same-pipeline completions with ``end <= arrival``, emit the running
    averages, then schedule the job's own completion.  Rows are
    bit-identical to the offline matrix
    (``tests/test_serve_online.py``).

    :meth:`warm_start` seeds the state from an already-observed trace
    (e.g. the training week) without emitting rows, so a deployment
    week served online sees the same history a combined-trace offline
    extraction would give it.
    """

    def __init__(
        self,
        rates: CostRates = DEFAULT_RATES,
        n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
    ):
        self.rates = rates
        self.n_hash_buckets = n_hash_buckets
        #: per-pipeline min-heap of (end, global_index, metrics[4])
        self._pending: dict[str, list[tuple[float, int, np.ndarray]]] = {}
        self._sums: dict[str, np.ndarray] = {}
        self._counts: dict[str, int] = {}
        self._index = 0
        # Row scratch reused across push_block calls (grown on demand).
        self._rows: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return (
            len(HISTORY_FEATURES)
            + len(METADATA_FIELDS) * self.n_hash_buckets
            + len(RESOURCE_FEATURES)
            + len(TIME_FEATURES)
        )

    def _fold(self, pipeline: str, t: float) -> None:
        """Fold same-pipeline completions with ``end <= t`` into the sums."""
        heap = self._pending.get(pipeline)
        if not heap:
            return
        sums = self._sums.get(pipeline)
        if sums is None:
            sums = self._sums[pipeline] = np.zeros(4)
            self._counts[pipeline] = 0
        while heap and heap[0][0] <= t:
            _, _, metrics = heapq.heappop(heap)
            sums += metrics
            self._counts[pipeline] += 1

    def warm_start(self, trace: Trace) -> "OnlineFeatureExtractor":
        """Seed the causal state from already-observed jobs (no rows).

        Completions pop in ``(end, global index)`` order, and those keys
        are unique, so scheduling the whole trace at once leaves exactly
        the state per-job scheduling would.
        """
        metrics = _metric_rows(
            trace.read_ops, trace.write_bytes, trace.durations, trace.sizes, self.rates
        )
        pending = self._pending
        first = self._index
        for index, pipeline, end, row in zip(
            range(first, first + len(trace)), trace.pipelines, trace.ends.tolist(), metrics
        ):
            heapq.heappush(pending.setdefault(pipeline, []), (end, index, row))
        self._index = first + len(trace)
        return self

    def push(self, jobs) -> np.ndarray:
        """Feature rows for newly arrived jobs, shape ``(len(jobs), p)``.

        Jobs must arrive in non-decreasing arrival order across all
        ``push`` calls (the service's submission order).  Accepts any
        sequence of :class:`~repro.workloads.job.ShuffleJob`-shaped
        objects; jobs synthesized from streamed columns (empty
        metadata/resources) produce zero group-B/C columns, exactly as
        the offline extractor would for the same materialized trace.
        The returned matrix belongs to the caller.
        """
        rows = np.zeros((len(jobs), self.n_features))
        if not len(jobs):
            return rows
        meta_base = len(HISTORY_FEATURES)
        res_base = meta_base + len(METADATA_FIELDS) * self.n_hash_buckets
        _hash_metadata(rows, meta_base, [j.metadata for j in jobs], self.n_hash_buckets)
        _fill_resources(rows, res_base, [j.resources for j in jobs])
        self._push_columns(rows, *zip(*map(_NUMERIC, jobs)), [j.pipeline for j in jobs])
        return rows

    def push_block(
        self,
        arrivals: np.ndarray,
        durations: np.ndarray,
        sizes: np.ndarray,
        read_bytes: np.ndarray,
        write_bytes: np.ndarray,
        read_ops: np.ndarray,
        pipelines,
    ) -> np.ndarray:
        """Feature rows for a micro-batch of column-submitted jobs.

        The fused-admission path: :meth:`push`'s group-A/T core over the
        columns, into one scratch matrix reused across calls (the
        returned view is overwritten by the next ``push_block``).
        Column submissions carry no metadata or resource maps, so groups
        B and C are exactly zero, as :meth:`push` gives for such jobs.
        """
        k = len(arrivals)
        n_feat = self.n_features
        rows = self._rows
        if rows is None or rows.shape[0] < k or rows.shape[1] != n_feat:
            rows = self._rows = np.zeros((max(k, 256), n_feat))
        rows = rows[:k]
        self._push_columns(rows, arrivals, durations, sizes, write_bytes, read_ops, pipelines)
        return rows

    def _push_columns(
        self, rows, arrivals, durations, sizes, write_bytes, read_ops, pipelines
    ) -> None:
        """Groups A and T of arriving jobs (columns: arrays or float
        sequences) into ``rows``, advancing the causal state."""
        k = len(arrivals)
        meta_base = len(HISTORY_FEATURES)
        time_base = rows.shape[1] - len(TIME_FEATURES)
        if k == 1:
            # Request-at-a-time: all arithmetic in python floats (IEEE
            # doubles, identical to the elementwise block path below).
            arrival = float(arrivals[0])
            duration = float(durations[0])
            size = float(sizes[0])
            rates = self.rates
            tcio = tcio_rate_scalar(float(read_ops[0]), float(write_bytes[0]), duration, rates)
            total_ops = tcio * (duration if duration > 1.0 else 1.0) * rates.hdd_ops_per_second
            size_gib = size / GIB
            density = total_ops / (size_gib if size_gib > 1e-9 else 1e-9)
            pipeline = pipelines[0]
            self._fold(pipeline, arrival)
            count = self._counts.get(pipeline, 0)
            if count > 0:
                np.divide(self._sums[pipeline], count, out=rows[0, :meta_base])
            else:
                rows[0, :meta_base] = 0.0
            entry = (arrival + duration, self._index, np.array([tcio, size, duration, density]))
            heapq.heappush(self._pending.setdefault(pipeline, []), entry)
            self._index += 1
            sod = arrival % DAY
            rows[0, time_base] = math.floor(sod / HOUR)
            rows[0, time_base + 1] = sod
            rows[0, time_base + 2] = math.floor(arrival / DAY) % 7
            return
        arrivals = np.asarray(arrivals, dtype=float)
        durations = np.asarray(durations, dtype=float)
        metrics = _metric_rows(read_ops, write_bytes, durations, sizes, self.rates)
        ends = (arrivals + durations).tolist()
        # Group A: fold, then snapshot each observed row's running sums;
        # one division over the block gives the averages.
        seen: list[int] = []
        sums: list[list[float]] = []
        counts: list[int] = []
        for r, (pipeline, arrival) in enumerate(zip(pipelines, arrivals.tolist())):
            self._fold(pipeline, arrival)
            count = self._counts.get(pipeline, 0)
            if count > 0:
                seen.append(r)
                sums.append(self._sums[pipeline].tolist())
                counts.append(count)
            heapq.heappush(
                self._pending.setdefault(pipeline, []),
                (ends[r], self._index + r, metrics[r]),
            )
        self._index += k
        rows[:, :meta_base] = 0.0
        if seen:
            rows[seen, :meta_base] = np.divide(sums, np.array(counts, dtype=float)[:, None])
        _fill_times(rows, time_base, arrivals)


def extract_features(
    trace: Trace,
    rates: CostRates = DEFAULT_RATES,
    n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
) -> FeatureMatrix:
    """Build the Table-2 feature matrix for a trace.

    History (group A) is computed causally within ``trace``; to let test
    jobs see training-week history, extract features on the combined
    trace and :meth:`FeatureMatrix.take` the split indices.
    """
    meta_base = len(HISTORY_FEATURES)
    res_base = meta_base + len(METADATA_FIELDS) * n_hash_buckets
    time_base = res_base + len(RESOURCE_FEATURES)
    X = np.zeros((len(trace), time_base + len(TIME_FEATURES)))
    X[:, :meta_base] = compute_history(trace, rates).as_matrix()  # group A
    _hash_metadata(X, meta_base, [job.metadata for job in trace], n_hash_buckets)
    _fill_resources(X, res_base, [job.resources for job in trace])  # group C
    _fill_times(X, time_base, trace.arrivals)  # group T

    meta_names = [f"{fld}_h{b}" for fld in METADATA_FIELDS for b in range(n_hash_buckets)]
    names = (*HISTORY_FEATURES, *meta_names, *RESOURCE_FEATURES, *TIME_FEATURES)
    groups = tuple(
        "A" * len(HISTORY_FEATURES) + "B" * len(meta_names) + "C" * len(RESOURCE_FEATURES)
        + "T" * len(TIME_FEATURES)
    )
    return FeatureMatrix(X=X, names=names, groups=groups)
