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
from itertools import chain
from dataclasses import dataclass
from operator import attrgetter, itemgetter

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

#: Distinct metadata maps whose group-B row one extractor keeps interned;
#: the table starts over once it holds this many (the serving
#: benchmark's 16,384-job stream has 445).
_METADATA_INTERN_SIZE = 1 << 12

#: Intern key of a job without metadata: every field empty.
_NO_METADATA = ("",) * len(METADATA_FIELDS)

#: Group C of a job without a resource map.
_NO_RESOURCES = (0.0,) * len(RESOURCE_FEATURES)

_METADATA_GETTER = itemgetter(*METADATA_FIELDS)
_RESOURCE_GETTER = itemgetter(*RESOURCE_FEATURES)

#: The job fields :meth:`OnlineFeatureExtractor.push` reads: the numeric
#: ones in the group-A/T core's argument order, then the maps.
_JOB_FIELDS = attrgetter(
    "arrival", "duration", "size", "write_bytes", "read_ops", "pipeline",
    "metadata", "resources",
)

#: Rows of a pending-completion column block ``(8, n)``: end, global
#: index, pipeline code, then what its fold adds to the pipeline's
#: totals — the four group-A metrics and a count of 1.
_END, _IDX, _CODE = 0, 1, 2

#: Due queued completions the one-row path folds one at a time; more
#: than this go through the block fold.
_FOLD_LOOP_MAX = 32

#: Pipeline segments of a block fold shorter than this accumulate
#: together, padded side by side; longer ones one at a time.
_PAD_MAX = 64


def _field_values(maps, getter, fields: tuple, defaults: tuple) -> list[tuple]:
    """``fields`` of each map, ``defaults`` standing in for a missing
    field or a missing map: one ``getter`` call per map when every map
    has every field, else one ``get`` per field."""
    try:
        return list(map(getter, maps))
    except (KeyError, TypeError):
        return [tuple(map(m.get, fields, defaults)) if m else defaults for m in maps]


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
        n_res = len(RESOURCE_FEATURES)
        values = _field_values(resources, _RESOURCE_GETTER, RESOURCE_FEATURES, _NO_RESOURCES)
        out[:, col0:col0 + n_res] = np.fromiter(
            chain.from_iterable(values), float, n_res * len(values)
        ).reshape(-1, n_res)


def _metric_rows(read_ops, write_bytes, durations, sizes, rates: CostRates) -> np.ndarray:
    """Group-A contribution of each job once it completes, ``(4, k)``.

    ``[tcio, size, lifetime, io_density]`` with the elementwise
    arithmetic of :func:`~repro.workloads.history.compute_history`'s
    fold, so incremental sums stay bit-identical to the offline scan.
    """
    sizes = np.asarray(sizes, dtype=float)
    tcio = tcio_rate(read_ops, write_bytes, durations, rates)
    total_ops = tcio * np.maximum(durations, 1.0) * rates.hdd_ops_per_second
    density = total_ops / np.maximum(sizes / GIB, 1e-9)
    return np.vstack([tcio, sizes, durations, density])


def _fill_times(out: np.ndarray, col0: int, arrivals: np.ndarray) -> None:
    """Group T (hour of day, second of day, weekday) into ``out[:, col0:]``."""
    seconds_of_day = arrivals % DAY
    out[:, col0] = np.floor(seconds_of_day / HOUR)
    out[:, col0 + 1] = seconds_of_day
    out[:, col0 + 2] = np.floor(arrivals / DAY) % 7


def _from_heaps(state: dict) -> dict:
    """The columnar state of an extractor pickled with per-pipeline heaps
    (``_pending`` / ``_sums`` / ``_counts`` dicts keyed by pipeline)."""
    pending, sums, counts = state["_pending"], state["_sums"], state["_counts"]
    codes = {p: c for c, p in enumerate(dict.fromkeys([*sums, *pending]))}
    queue = np.array(
        [(end, i, codes[p], *m, 1.0) for p, heap in pending.items() for end, i, m in heap],
        dtype=float,
    ).reshape(-1, 8).T
    totals = np.zeros((len(codes), 5))
    for p, s in sums.items():
        totals[codes[p]] = (*s, counts[p])
    return {
        "rates": state["rates"],
        "n_hash_buckets": state["n_hash_buckets"],
        "_codes": codes,
        "_totals": totals,
        "_queue": queue[:, np.lexsort((queue[_IDX], queue[_END]))],
        "_heaps": [[] for _ in codes],
        "_index": state["_index"],
    }


class OnlineFeatureExtractor:
    """Incremental Table-2 feature extraction for arriving jobs.

    The offline :func:`extract_features` needs the whole trace up front
    (group A is a causal scan over completed same-pipeline jobs); a
    live placement service sees one arrival at a time.  This extractor
    carries the causal state across calls, and :meth:`push` produces,
    for each newly arrived job, exactly the feature row the offline
    extractor would have produced at the same position: the running
    averages over same-pipeline completions that sort before the
    arrival by ``(end, global index)``.  Rows are bit-identical to the
    offline matrix (``tests/test_serve_online.py``).

    The causal state is columnar.  Pipelines are interned to integer
    codes that index one array of totals, the running metric sums and
    the completion count; pending completions are ``(end, index, code,
    4 metrics, 1)`` columns sorted by
    ``(end, index)``, plus per-pipeline min-heaps of the same entries
    for jobs pushed one at a time.  A block of ``k > 1`` jobs folds every
    completion due by its last arrival — this block's own jobs
    included — in one lexsort by ``(code, time, index)`` (an arrival
    before its own completion) and one sequential ``np.add.accumulate``
    per pipeline segment, starting from the stored sum; ``accumulate``
    adds in the ``(end, index)`` order the offline scan folds in, so
    the sums stay bit-identical.  Folding a due completion early is
    safe: a later arrival can never add an entry that sorts before it.
    A single job takes an all-python-float path whose work follows the
    completions actually due, never the pending count: due queue
    entries move to their pipeline's heap, and only the job's own
    pipeline folds, as lazily as the offline scan.

    Group B interns each distinct metadata map once into a row of a
    group-B table; the table is a cache, kept out of pickles and
    snapshots and bounded by ``_METADATA_INTERN_SIZE`` maps.

    :meth:`warm_start` seeds the state from an already-observed trace
    (e.g. the training week) without emitting rows, so a deployment
    week served online sees the same history a combined-trace offline
    extraction would give it.
    """

    #: Derived scratch and caches, never pickled.
    _CACHES = ("_rows", "_meta_codes", "_meta_table", "_next_due")

    def __init__(
        self,
        rates: CostRates = DEFAULT_RATES,
        n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
    ):
        self.rates = rates
        self.n_hash_buckets = n_hash_buckets
        #: pipeline -> code indexing ``_totals`` and ``_heaps``
        self._codes: dict[str, int] = {}
        #: per code: the four metric sums and the completion count
        #: (a float64 integer, exact below 2**53)
        self._totals = np.zeros((0, 5))
        #: pending warm-start and block completions, (8, n) by (end, index)
        self._queue = np.zeros((8, 0))
        #: pending one-row completions per code: min-heaps of
        #: (end, index, code, [4 metrics, 1])
        self._heaps: list[list] = []
        self._index = 0
        self._init_caches()

    def _init_caches(self) -> None:
        #: end of the queue's first entry, as a python float
        self._set_queue(self._queue)
        # Row scratch reused across push_block calls (grown on demand).
        self._rows: np.ndarray | None = None
        #: metadata intern: 5 field values -> row of ``_meta_table``
        self._meta_codes: dict[tuple, int] = {}
        self._meta_table = np.zeros((16, len(METADATA_FIELDS) * self.n_hash_buckets))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        if isinstance(state.get("_pending"), dict):
            state = _from_heaps(state)
        self.__dict__.update((k, v) for k, v in state.items() if k not in self._CACHES)
        self._init_caches()

    def _set_queue(self, queue: np.ndarray) -> None:
        self._queue = queue
        self._next_due = float(queue[_END, 0]) if queue.shape[1] else math.inf

    @property
    def n_features(self) -> int:
        return (
            len(HISTORY_FEATURES)
            + len(METADATA_FIELDS) * self.n_hash_buckets
            + len(RESOURCE_FEATURES)
            + len(TIME_FEATURES)
        )

    def _encode(self, pipelines) -> list[int]:
        """Pipeline codes, interning new pipelines with zeroed totals."""
        codes = self._codes
        out = list(map(codes.get, pipelines))
        if None in out:
            add = codes.setdefault
            out = [add(p, len(codes)) for p in pipelines]
        extra = len(codes) - len(self._heaps)
        if extra:
            self._totals = np.concatenate([self._totals, np.zeros((extra, 5))])
            self._heaps.extend([] for _ in range(extra))
        return out

    def _enqueue(self, block: np.ndarray) -> None:
        """Merge pending completions ``block`` (8, m), in ascending index
        order and all indexed past the queue, into the sorted queue."""
        block = block[:, np.argsort(block[_END], kind="stable")]
        queue = self._queue
        if not queue.shape[1]:
            self._set_queue(block)
            return
        # Ties in end go after the queue's entries: their indexes are lower.
        pos = np.searchsorted(queue[_END], block[_END], side="right")
        pos += np.arange(block.shape[1])
        merged = np.empty((8, queue.shape[1] + block.shape[1]))
        keep = np.ones(merged.shape[1], dtype=bool)
        keep[pos] = False
        merged[:, pos] = block
        merged[:, keep] = queue
        self._set_queue(merged)

    def _take_due(self, t: float) -> np.ndarray:
        """Remove every pending completion with ``end <= t``, as (8, n)."""
        queue = self._queue
        n = int(np.searchsorted(queue[_END], t, side="right"))
        due = queue[:, :n]
        self._set_queue(queue[:, n:])
        popped = []
        for heap in self._heaps:
            while heap and heap[0][0] <= t:
                end, index, code, m = heapq.heappop(heap)
                popped.append((end, index, code, *m))
        if popped:
            due = np.concatenate([due, np.array(popped).T], axis=1)
        return due

    def _fold(self, due: np.ndarray, arrivals=(), codes=(), first: int = 0) -> np.ndarray:
        """Fold completions ``due`` (8, n) into the totals, and return
        group A of the ``arrivals`` (pipeline ``codes``, global indexes
        from ``first``) among them, ``(k, 4)``."""
        n, k = due.shape[1], len(arrivals)
        # Events in (code, time, index) order, an arrival before its own
        # completion: the complex key sorts lexicographically by (time,
        # 2 * index + is-completion), adaptively (the queue's part is in
        # order already), and a stable radix sort then groups the codes.
        key = np.empty(n + k, dtype=complex)
        key.real[:n] = due[_END]
        key.real[n:] = arrivals
        key.imag[:n] = 2.0 * due[_IDX] + 1.0
        key.imag[n:] = 2.0 * np.arange(first, first + k)
        order = np.argsort(key, kind="stable")
        code = np.concatenate([due[_CODE], codes]).astype(
            np.uint16 if len(self._heaps) <= 1 << 16 else np.intp
        )[order]
        by_code = np.argsort(code, kind="stable")
        order, code = order[by_code], code[by_code]
        comp = order < n
        starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        seg = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, n + k]))
        # Completions before each event within its pipeline segment.
        done = np.cumsum(comp) - comp
        before = done - done[starts][seg]
        n_done = np.add.reduceat(comp.astype(np.intp), starts)
        # Per segment: its stored totals, then its completions' rows;
        # the in-place accumulate leaves the running totals after each.
        base = np.cumsum(n_done + 1) - (n_done + 1)
        run = np.empty((5, n + len(starts)))
        run[:, base] = self._totals[code[starts]].T
        run[:, base[seg[comp]] + before[comp] + 1] = np.take(due[3:], order[comp], axis=1)
        last = base + n_done
        short = (n_done > 0) & (n_done < _PAD_MAX)
        if short.any():
            width = np.arange(n_done[short].max() + 1)
            cells = width < (n_done[short] + 1)[:, None]
            at = (base[short][:, None] + width)[cells]
            pad = np.zeros((5,) + cells.shape)
            pad[:, cells] = run[:, at]
            np.add.accumulate(pad, axis=2, out=pad)
            run[:, at] = pad[:, cells]
        for a, b in zip(base[n_done >= _PAD_MAX].tolist(), last[n_done >= _PAD_MAX].tolist()):
            seg_run = run[:, a:b + 1]
            np.add.accumulate(seg_run, axis=1, out=seg_run)
        self._totals[code[starts]] = run[:, last].T
        arr = ~comp
        totals = run[:, base[seg[arr]] + before[arr]]
        seen = totals[4] > 0
        rows = np.zeros((k, 4))
        rows[order[arr][seen] - n] = (totals[:4, seen] / totals[4, seen]).T
        return rows

    def _dequeue_due(self, t: float) -> None:
        """Move queued completions with ``end <= t`` to their pipelines'
        heaps (one-row path); past ``_FOLD_LOOP_MAX`` of them, fold every
        due completion at once instead."""
        queue = self._queue
        n = int(np.searchsorted(queue[_END], t, side="right"))
        if n > _FOLD_LOOP_MAX:
            self._fold(self._take_due(t))
            return
        heaps = self._heaps
        for end, index, code, *m in queue[:, :n].T.tolist():
            code = int(code)
            heapq.heappush(heaps[code], (end, index, code, np.array(m)))
        self._set_queue(queue[:, n:])

    def warm_start(self, trace: Trace) -> "OnlineFeatureExtractor":
        """Seed the causal state from already-observed jobs (no rows).

        A column append: the history joins the pending completions
        sorted by ``(end, global index)``, the order a fold consumes.
        """
        n = len(trace)
        block = np.ones((8, n))
        block[_END] = trace.ends
        block[_IDX] = np.arange(self._index, self._index + n)
        block[_CODE] = self._encode(trace.pipelines)
        block[3:7] = _metric_rows(
            trace.read_ops, trace.write_bytes, trace.durations, trace.sizes, self.rates
        )
        self._index += n
        if n:
            self._enqueue(block)
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
        *numeric, metas, resources = zip(*map(_JOB_FIELDS, jobs))
        meta_base = len(HISTORY_FEATURES)
        res_base = meta_base + len(METADATA_FIELDS) * self.n_hash_buckets
        rows[:, meta_base:res_base] = self._metadata_rows(metas)
        _fill_resources(rows, res_base, resources)
        self._push_columns(rows, *numeric)
        return rows

    def _metadata_rows(self, metas) -> np.ndarray:
        """Group B of one metadata map (or None) per row, gathered from
        the intern table."""
        codes = self._meta_codes
        if len(codes) >= _METADATA_INTERN_SIZE:
            codes.clear()
        keys = _field_values(metas, _METADATA_GETTER, METADATA_FIELDS, _NO_METADATA)
        out = list(map(codes.get, keys))
        if None in out:
            for r, key in enumerate(keys):
                if out[r] is None:
                    code = codes.get(key)
                    out[r] = self._intern(key) if code is None else code
        table = self._meta_table
        return table[out] if len(out) > 1 else table[out[0]]

    def _intern(self, key: tuple) -> int:
        """A new intern code and its group-B row, built by the hashing rule."""
        codes = self._meta_codes
        code = codes[key] = len(codes)
        table = self._meta_table
        if code == len(table):
            table = self._meta_table = np.concatenate([table, np.zeros_like(table)])
        row = table[code]
        row[:] = 0
        nb = self.n_hash_buckets
        row[[c for f_idx, value in enumerate(key) for c in _metadata_columns(f_idx, value, nb)]] = 1
        return code

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
            code = self._codes.get(pipelines[0])
            if code is None:
                code = self._encode(pipelines)[0]
            if self._next_due <= arrival:
                self._dequeue_due(arrival)
            heap = self._heaps[code]
            totals = self._totals[code]
            while heap and heap[0][0] <= arrival:
                totals += heapq.heappop(heap)[3]
            count = totals.item(4)  # a python float divides faster
            if count > 0:
                np.divide(totals[:4], count, out=rows[0, :meta_base])
            else:
                rows[0, :meta_base] = 0.0
            metrics = np.array([tcio, size, duration, density, 1.0])
            entry = (arrival + duration, self._index, code, metrics)
            heapq.heappush(heap, entry)
            self._index += 1
            sod = arrival % DAY
            rows[0, time_base] = math.floor(sod / HOUR)
            rows[0, time_base + 1] = sod
            rows[0, time_base + 2] = math.floor(arrival / DAY) % 7
            return
        arrivals = np.asarray(arrivals, dtype=float)
        durations = np.asarray(durations, dtype=float)
        first = self._index
        self._index += k
        codes = self._encode(pipelines)
        own = np.ones((8, k))
        own[_END] = arrivals + durations
        own[_IDX] = np.arange(first, first + k)
        own[_CODE] = codes
        own[3:7] = _metric_rows(read_ops, write_bytes, durations, sizes, self.rates)
        # Every completion due by the block's last arrival folds now,
        # the block's own included; the rest stay queued.
        t = arrivals[-1]
        late = own[_END] > t
        due = self._take_due(t)
        if late.all():
            self._enqueue(own)
        else:
            due = np.concatenate([due, own[:, ~late]], axis=1)
            if late.any():
                self._enqueue(own[:, late])
        rows[:, :meta_base] = self._fold(due, arrivals, codes, first)
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
