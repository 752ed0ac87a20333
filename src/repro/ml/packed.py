"""Packed-forest inference: every tree of a GBDT evaluated in one pass.

:class:`PackedForest` concatenates the flat heap-indexed arrays of
fitted :class:`~repro.ml.tree.HistogramTree` s and routes **all samples
through all trees per depth level** with a handful of flat gathers.
Every tree is routed as a *complete* heap of depth ``max_depth``: a leaf
above it becomes an always-left node (threshold +inf) whose value sits
at its leftmost depth-``max_depth`` slot.  So each level is three
gathers (split feature, sample value, threshold), one compare and
``node = 2 * node + (1 - tree_base) + goes_right`` over int32 node
indices ``tree_base + heap_index``: no child table, no masking.  Rows
are routed in chunks through reusable scratch buffers.

Two threshold tables share the nodes, and the input dtype picks one.
Integer inputs are bin codes and go left when ``code <= split_bin``, as
in :meth:`HistogramTree.predict`.  Floating inputs are raw feature
values (the forest must carry its binner's edges): NaN maps to +inf
once per batch, and a value goes left when ``x <= edges[split_bin]``,
or always when ``split_bin >= len(edges)``.  A code is
``searchsorted(edges, x, "left")``, the number of edges below ``x``,
and the edges are finite and distinct, so ``code <= cut`` holds exactly
when ``x <= edges[cut]``; NaN (the last bin) goes right of every edge
and left wherever ``cut >= len(edges)``.  Both tables route every input
to the same leaf, so serving never bins.

One sample takes the exit-leaf bitvectors of QuickScorer (Lucchese et
al., SIGIR 2015) instead, because level routing pays ``max_depth``
rounds of numpy dispatch for a single row.  The leaves routing can
reach are numbered left to right within each tree; a split the sample
fails (goes right at) rules out its left subtree's leaves, and the
leftmost leaf left is the one level routing reaches.  A sample fails
the splits on a feature whose thresholds lie below its value, so one
precomputed row per count of the feature's thresholds below a value
holds, per tree, the AND of those splits' leaf masks.  Scoring a row
ANDs one table row per used feature and reads each tree's lowest set
bit (:meth:`PackedForest.decision_scores_one`).

All routing tables are derived state: built on first use, cached on the
forest and left out of pickles and deep copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tree import HistogramTree

__all__ = ["PackedForest"]

#: Rows routed per chunk.  Scoring 16k rows through 150 depth-6 trees
#: took 165 ms in chunks of 1,024 and 273 ms in chunks of 8,192, whose
#: routing buffers no longer fit in cache.
_DEFAULT_CHUNK = 1_024

#: ``_ONES_BELOW[b]`` has bits ``0..b-1`` set, for ``b`` in ``0..64``.
_ONES_BELOW = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)

#: Derived attributes, rebuilt on first use; the last five are the
#: eagerly built routing tables older pickles still carry.
_DERIVED = ("_bufs", "_levels", "_exit_tables",
            "_feat0", "_cut", "_child2", "_value_flat", "_roots")


def _space(x: np.ndarray, codes, values):
    """The table for ``x``: feature values if it is floating, else codes."""
    if x.dtype.kind == "f" and values is None:
        raise ValueError("feature values need a forest packed with bin edges")
    return values if x.dtype.kind == "f" else codes


class _LevelTables:
    """The forest as complete depth-``D`` heaps, flattened for routing:
    tree ``t`` owns the ``n_nodes = 2**(D+1) - 1`` slots from
    ``tree_base = t * n_nodes`` (``roots``; ``step`` is ``1 - roots``).
    ``feature`` is the int32 split feature, ``code_thr``/``value_thr``
    the go-left-iff-``x <= thr`` thresholds for bin codes / feature
    values (+inf at always-left slots; ``value_thr`` is None without
    edges), ``value`` the leaf values at the depth-``D`` slots and
    ``n_in`` the columns an input needs."""

    def __init__(self, forest: "PackedForest"):
        feature, cut, depth = forest.feature, forest.split_bin, forest.max_depth
        n_trees, n_nodes = feature.shape
        split = feature >= 0
        split[:, n_nodes // 2 :] = False
        feat = np.where(split, feature, 0)
        # A leaf above depth D hands its value to its leftmost depth-D
        # slot; deeper levels first, so a leaf overrides the unreached
        # slots below it (a reached leaf's ancestors are all splits).
        value = np.array(forest.value, dtype=float)
        for d in reversed(range(depth)):
            lo, hi = 2**d - 1, 2 ** (d + 1) - 1
            slot = (np.arange(lo, hi) + 1) * 2 ** (depth - d) - 1
            value[:, slot] = np.where(split[:, lo:hi], value[:, slot], value[:, lo:hi])
        self.value = value.ravel()
        self.feature = feat.astype(np.int32).ravel()
        self.code_thr = np.where(split, cut, np.inf).ravel()
        self.value_thr = None
        self.n_in = max(int(feature.max(initial=-1)) + 1, len(forest.edges or ()))
        if forest.edges is not None:
            width = max((e.size for e in forest.edges), default=0) + 1
            pad = np.full((max(len(forest.edges), 1), width), np.inf)
            for c, e in enumerate(forest.edges):
                pad[c, : e.size] = e
            thr = pad[feat, np.minimum(cut, width - 1)]
            self.value_thr = np.where(split, thr, np.inf).ravel()
        self.roots = np.arange(n_trees, dtype=np.int32) * np.int32(n_nodes)
        self.step = 1 - self.roots


class _ExitLeafTables:
    """Leaf-bitmask tables of a packed forest, plus one-row scratch.

    With ``W`` 64-bit words per tree (enough for the leafiest tree),
    ``used`` are the features some split tests and ``masks`` is ``(n_rows,
    W * n_trees)`` uint64, word-major: feature ``used[i]`` owns one row
    per count of its thresholds a value fails, the AND, per tree, of the
    masks of those splits (the first row ANDs none).  ``codes`` and
    ``values`` (None without edges) are, per space, sorted complex keys,
    ``i + 1j * thr`` per threshold of ``used[i]`` and ``i + 0.5`` after
    them; complex order is by feature rank, then threshold, so the keys
    below ``i + 1j * x`` (NaN as +inf) are the earlier blocks plus the
    thresholds ``x`` fails: the row of value ``x``.  ``leaf_value`` holds
    leaf ``j`` of tree ``t`` at ``t * 64 * W + j``, and ``word_slot`` the
    slot of bit 0 of each word.
    """

    def __init__(self, forest: "PackedForest", levels: _LevelTables):
        n_trees, depth = forest.n_trees, forest.max_depth
        n_nodes = 2 ** (depth + 1) - 1
        split = np.isfinite(levels.code_thr).reshape(n_trees, n_nodes)
        # The depth-D slots routing reaches (a right child only below a
        # split) are the leaves; ``leaf_rank`` numbers them left to right.
        reach = np.ones((n_trees, 1), dtype=bool)
        for d in range(depth):
            below = reach & split[:, 2**d - 1 : 2 ** (d + 1) - 1]
            reach = np.stack((reach, below), axis=2).reshape(n_trees, -1)
        leaf_rank = np.zeros((n_trees, 2**depth + 1), dtype=np.int64)
        np.cumsum(reach, axis=1, out=leaf_rank[:, 1:])
        words = (int(leaf_rank[:, -1].max()) + 63) // 64
        if n_trees * 64 * words > np.iinfo(np.uint32).max:
            raise ValueError("packed forest too large for uint32 leaf slots")
        stride = 64 * words
        leaf_tree, leaf_slot = np.nonzero(reach)
        self.leaf_value = np.zeros(n_trees * stride)
        self.leaf_value[leaf_tree * stride + leaf_rank[leaf_tree, leaf_slot]] = (
            levels.value.reshape(n_trees, n_nodes)[:, n_nodes // 2 :][reach]
        )

        # Per split: failing it clears the leaves [lo_rank, hi_rank) of
        # its left subtree.
        flat = np.flatnonzero(split)
        tree, node = np.divmod(flat, n_nodes)
        node_depth = np.frexp(node + 1)[1].astype(np.int64) - 1
        span = np.left_shift(1, depth - node_depth)
        left = (node + 1 - np.left_shift(1, node_depth)) * span
        lo_rank, hi_rank = leaf_rank[tree, left], leaf_rank[tree, left + span // 2]
        bit0 = 64 * np.arange(words)
        cleared = _ONES_BELOW[np.clip(hi_rank[:, None] - bit0, 0, 64)] & ~_ONES_BELOW[
            np.clip(lo_rank[:, None] - bit0, 0, 64)
        ]

        # One row per (feature, distinct cut) after each feature's
        # all-ones first row; a row is the running AND of its block.
        f = levels.feature[flat].astype(np.int64)
        cut = levels.code_thr[flat].astype(np.int64)
        width = int(cut.max(initial=0)) + 1
        pairs, first, pair_of = np.unique(f * width + cut, return_index=True,
                                          return_inverse=True)
        self.used, block0 = np.unique(pairs // width, return_index=True)
        n_used = self.used.size
        rank = np.arange(n_used)
        pair_rank = np.repeat(rank, np.diff(np.append(block0, pairs.size)))
        masks = np.full((pairs.size + n_used, words, n_trees), ~np.uint64(0))
        row = (pair_of + pair_rank[pair_of] + 1)[:, None]
        np.bitwise_and.at(masks, (row, np.arange(words), tree[:, None]), ~cleared)
        for b0, b1 in zip(block0 + rank, np.append(block0[1:] + rank[1:], masks.shape[0])):
            np.bitwise_and.accumulate(masks[b0:b1], axis=0, out=masks[b0:b1])
        self.masks = masks.reshape(masks.shape[0], words * n_trees)
        self.words = words
        self.word_slot = (
            (np.arange(n_trees) * stride)[None, :] + bit0[:, None]
        ).astype(np.uint32).ravel()

        # Per space, complex keys ``rank + 1j * thr`` (sorting by feature
        # rank, then threshold) plus ``rank + 0.5`` closing each block.
        def space(thr):
            keys = np.empty(pairs.size + n_used, dtype=complex)
            keys.real = np.append(pair_rank, rank + 0.5)
            keys.imag = np.append(thr, np.zeros(n_used))
            return np.sort(keys)

        self.codes = space(cut[first].astype(float))
        self.values = None
        if levels.value_thr is not None:
            self.values = space(levels.value_thr[flat][first])

        # One-row scratch; the query's real parts are the feature ranks.
        self.query = np.empty(n_used, dtype=complex)
        self.query.real = rank
        n = words * n_trees
        self.gathered = np.empty((n_used, n), dtype=np.uint64)
        self.acc, self.low = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
        self.mant, self.exp = np.empty(n), np.empty(n, dtype=np.int32)
        self.slot, self.exit = np.empty(n, dtype=np.uint32), np.empty(n_trees, dtype=np.intp)
        self.exit_base = self.word_slot[:n_trees].astype(np.intp) - 1
        # ``leaf_value * learning_rate`` and the ``[base; lr * leaf]``
        # rounds buffer, kept for the last ``(learning_rate, n_classes)``.
        self.scaled_key = None
        self.scaled = self.steps = self.leaf = None

    def scale(self, learning_rate: float, n_classes: int) -> None:
        """Point ``scaled``/``steps``/``leaf`` at ``learning_rate``."""
        if self.scaled_key != (learning_rate, n_classes):
            self.scaled = self.leaf_value * learning_rate
            self.steps = np.empty((len(self.exit) // n_classes + 1, n_classes))
            self.leaf = self.steps.reshape(-1)[n_classes:]
            self.scaled_key = (learning_rate, n_classes)


@dataclass
class PackedForest:
    """A forest of heap-indexed trees packed into contiguous matrices.

    Attributes
    ----------
    feature, split_bin, value:
        ``(n_trees, n_nodes)`` per-node arrays (see
        :class:`HistogramTree` for their meaning); ``feature`` is ``-1``
        at leaves and unreached nodes.
    max_depth:
        Common depth bound of all packed trees.
    edges:
        The binner's per-feature bin edges
        (:attr:`~repro.ml.encoding.QuantileBinner.edges_`), which let the
        forest score raw feature values; None scores bin codes only.
    """

    feature: np.ndarray
    split_bin: np.ndarray
    value: np.ndarray
    max_depth: int
    edges: Sequence[np.ndarray] | None = None

    def __post_init__(self) -> None:
        n_trees, n_nodes = self.feature.shape
        if 2 * n_trees * n_nodes >= np.iinfo(np.int32).max:
            raise ValueError("packed forest too large for int32 node indexing")
        # Derived state (see _DERIVED): scratch keyed by chunk shape, and
        # the routing and one-row tables, built on first use.
        self._bufs, self._levels, self._exit_tables = {}, None, None

    def __getstate__(self) -> dict:
        # Derived tables and scratch stay out of pickles and checkpoints.
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        kept = {k: v for k, v in state.items() if k not in _DERIVED}
        self.__dict__.update({"edges": None, **kept})
        self._bufs, self._levels, self._exit_tables = {}, None, None

    def _chunk_bufs(self, m: int, p: int) -> dict:
        """Preallocated routing buffers for an ``(m, p)`` chunk."""
        bufs = self._bufs.get((m, p))
        if bufs is None:
            shape = (m, self.n_trees)
            if len(self._bufs) > 6:
                self._bufs.clear()
            bufs = self._bufs[(m, p)] = {
                "x": np.empty((m, p)),
                "node": np.empty(shape, dtype=np.int32),
                "f": np.empty(shape, dtype=np.int32),
                "xb": np.empty(shape),
                "leaf": np.empty(shape),
                "goes": np.empty(shape, dtype=bool),
                "row_off": (np.arange(m, dtype=np.int32) * np.int32(p))[:, None],
            }
        return bufs

    @classmethod
    def from_trees(
        cls, trees: Sequence[HistogramTree], edges: Sequence[np.ndarray] | None = None
    ) -> "PackedForest":
        """Pack fitted trees (all grown with the same ``max_depth``);
        ``edges`` are the bin edges of the codes they were fitted on."""
        if not trees:
            raise ValueError("cannot pack an empty forest")
        depths = {t.max_depth for t in trees}
        if len(depths) != 1:
            raise ValueError(f"trees have mixed max_depth values: {sorted(depths)}")
        return cls(
            feature=np.ascontiguousarray([t.feature for t in trees], dtype=np.int32),
            split_bin=np.ascontiguousarray([t.split_bin for t in trees], dtype=np.int32),
            value=np.ascontiguousarray([t.value for t in trees], dtype=float),
            max_depth=depths.pop(),
            edges=edges,
        )

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    def _route_chunk(self, Xc: np.ndarray) -> np.ndarray:
        """Leaf values for one row chunk, shape ``(len(Xc), n_trees)``, in
        a scratch buffer that the next routing call overwrites."""
        lv = self._levels
        if lv is None:
            lv = self._levels = _LevelTables(self)
        m, p = Xc.shape
        if p < lv.n_in:
            raise ValueError(f"X has {p} columns, the forest reads {lv.n_in}")
        thr_table = _space(Xc, lv.code_thr, lv.value_thr)
        bufs = self._chunk_bufs(m, p)
        node, f, xb, row_off = bufs["node"], bufs["f"], bufs["xb"], bufs["row_off"]
        thr, goes = bufs["leaf"], bufs["goes"]
        # Codes widen to float64 (no compare with a cut changes); NaN
        # features route as +inf.
        xflat = np.fmin(Xc, np.inf, out=bufs["x"]).reshape(-1)
        node[:] = lv.roots
        # Every index below is in range by construction; mode="clip"
        # lets take() write into its out buffer without a checked copy.
        for _ in range(self.max_depth):
            np.take(lv.feature, node, out=f, mode="clip")
            f += row_off
            np.take(xflat, f, out=xb, mode="clip")
            np.take(thr_table, node, out=thr, mode="clip")
            np.greater(xb, thr, out=goes)
            np.left_shift(node, 1, out=node)
            node += lv.step
            node += goes
        return np.take(lv.value, node, out=bufs["leaf"], mode="clip")

    def predict(self, X: np.ndarray, chunk_size: int = _DEFAULT_CHUNK) -> np.ndarray:
        """Leaf values of every tree for every sample, shape ``(n, n_trees)``;
        column ``j`` equals ``trees[j].predict(codes)`` exactly (``X``
        holds codes or feature values, see :meth:`decision_scores`)."""
        n = X.shape[0]
        out = np.empty((n, self.n_trees), dtype=float)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            out[start:stop] = self._route_chunk(X[start:stop])
        return out

    def decision_scores(
        self,
        X: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        chunk_size: int = _DEFAULT_CHUNK,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores ``base + lr * sum_r leaf_r``, shape ``(n, k)``.

        ``X`` holds integer bin codes, or floating feature values (NaN
        and ±inf allowed) if the forest carries its binner's edges; both
        score the same bit for bit, and ``X`` is never modified.  Trees
        are packed round-major (the GBT fit order), and each chunk adds
        its rounds in that order, so results are bit-identical to the
        legacy per-tree loop.  ``out`` optionally receives the scores,
        letting a serving loop reuse one buffer across calls.
        """
        n = X.shape[0]
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        base = np.broadcast_to(np.asarray(base_score, dtype=float), (n_classes,))
        if out is None:
            out = np.empty((n, n_classes), dtype=float)
        elif out.shape != (n, n_classes):
            raise ValueError(f"out has shape {out.shape}, expected {(n, n_classes)}")
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            leaf = self._route_chunk(X[start:stop])
            leaf *= learning_rate
            raw = out[start:stop]
            raw[:] = base
            for r in range(0, n_trees, n_classes):
                raw += leaf[:, r : r + n_classes]
        return out

    def decision_scores_one(
        self,
        x: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores for a single sample, shape ``(n_classes,)``.

        The request-at-a-time serving path: exit-leaf tables (see the
        module docstring), a fixed number of numpy calls and no loop
        over trees or levels.  ``x`` holds bin codes or feature values,
        as for :meth:`decision_scores`.  The rounds accumulate in fit
        order by ``np.add.accumulate`` over ``[base; lr * leaf]``, so
        the scores are bit-identical to the sample's batch row.
        """
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError("decision_scores_one routes exactly one sample")
        t = self._exit_tables
        if t is None:
            self._levels = self._levels or _LevelTables(self)
            t = self._exit_tables = _ExitLeafTables(self, self._levels)
        acc, low, slot = t.acc, t.low, t.slot
        # One search counts, per used feature, the keys below ``rank +
        # 1j * x`` (NaN as +inf): that feature's table row.
        np.fmin(x.take(t.used), np.inf, out=t.query.imag)
        rows = np.searchsorted(_space(x, t.codes, t.values), t.query)
        t.masks.take(rows, axis=0, out=t.gathered, mode="clip")
        np.bitwise_and.reduce(t.gathered, axis=0, out=acc)
        # Per word, the lowest set bit is 2**e / 2 (e = 0 for an empty
        # word); each tree exits at the lowest set bit of its first
        # non-empty word.  An empty word's slot wraps to the uint32
        # maximum, so the per-tree minimum over words skips it.
        np.negative(acc, out=low)
        np.bitwise_and(low, acc, out=low)
        np.frexp(low, out=(t.mant, t.exp))
        if t.words == 1:  # an exit bit is never cleared: no word is empty
            np.add(t.exp, t.exit_base, out=t.exit)
        else:
            np.subtract(t.exp, 1, out=slot, casting="unsafe")
            np.bitwise_or(slot, t.word_slot, out=slot)
            np.minimum.reduce(slot.reshape(t.words, n_trees), axis=0, out=t.exit)
        t.scale(learning_rate, n_classes)
        steps = t.steps
        steps[0] = base_score
        t.scaled.take(t.exit, out=t.leaf, mode="clip")
        np.add.accumulate(steps, axis=0, out=steps)
        if out is None:
            out = np.empty(n_classes, dtype=float)
        out[:] = steps[-1]
        return out
