"""Packed-forest inference: every tree of a GBDT evaluated in one pass.

:class:`~repro.ml.tree.HistogramTree` stores each tree as flat
heap-indexed arrays, so a fitted forest is really a ragged pile of
identically-shaped vectors.  :class:`PackedForest` concatenates them
into ``(n_trees, n_nodes)`` matrices and routes **all samples through
all trees per depth level** with a handful of flat gathers, instead of
the per-tree Python loop legacy ``decision_function``/``predict`` used.

Layout tricks that keep the hot loop tight:

- Leaves are *self-looping*: the packed child table sends a sample that
  has reached a leaf back to the same node, so every level is the same
  three gathers — no "still routable" masking or early-exit bookkeeping.
  (A leaf's packed split feature is 0 and its cut is a sentinel above
  any bin code, so the dummy comparison is well-defined.)
- Left/right children are interleaved in one table indexed by
  ``2 * node + goes_left``, replacing two gathers plus a select with a
  single gather.
- All node tables are flattened to 1-D and indexed by
  ``tree_offset + heap_index`` (int32), so each gather reads a small,
  cache-resident table.

Routing is bit-identical to :meth:`HistogramTree.predict`: a
(sample, tree) pair descends while its node is an internal split and
reads the same ``value`` cell a per-tree walk would.  Samples are
processed in row chunks so the working set stays at
``O(chunk x n_trees)`` regardless of batch size.

One sample takes a different route, the exit-leaf bitvectors of
QuickScorer (Lucchese et al., SIGIR 2015), because level routing pays
``max_depth`` rounds of numpy dispatch for a single row.  Each tree's
leaves are numbered left to right; a split that the sample fails
(``code > split_bin``, so it goes right) rules out every leaf of its
left subtree, and the leftmost leaf no failed split rules out is the
leaf level routing reaches.  For every feature the forest splits on,
the failed splits depend only on which interval between the feature's
distinct cuts the code falls in, so one precomputed row per interval
holds, per tree, the AND of those splits' leaf masks.  Scoring a row
ANDs one table row per used feature and reads each tree's lowest set
bit (:meth:`PackedForest.decision_scores_one`).  The tables are derived
state: built on the first one-row call, cached on the forest and left
out of pickles and deep copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tree import HistogramTree

__all__ = ["PackedForest"]

#: Rows routed per chunk, sized so the per-chunk leaf-value matrix stays
#: cache-resident for forests of a few hundred trees.
_DEFAULT_CHUNK = 8_192

#: ``_ONES_BELOW[b]`` has bits ``0..b-1`` set, for ``b`` in ``0..64``.
_ONES_BELOW = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)


class _ExitLeafTables:
    """Leaf-bitmask tables of a packed forest, plus one-row scratch.

    With ``W`` 64-bit words per tree (enough for the leafiest tree):

    - ``used``: the features some reachable split tests, ``(n_used,)``;
    - ``code_row``: ``code_row[i * width + code]`` is the ``masks`` row
      for code ``code`` of feature ``used[i]``;
    - ``masks``: ``(n_rows, W * n_trees)`` uint64, word-major.  Feature
      ``used[i]`` owns one row per interval between its distinct cuts;
      the row ANDs, per tree, the masks of every split on that feature
      a code in the interval fails (the first row ANDs none);
    - ``word_slot``: ``(W * n_trees,)`` uint32, the ``leaf_value``
      slot of bit 0 of each word (``tree * 64 * W + 64 * word``);
    - ``leaf_value``: ``(n_trees * 64 * W,)``, leaf ``j`` of tree ``t``
      at slot ``t * 64 * W + j``.
    """

    def __init__(self, forest: "PackedForest"):
        feature, split_bin = forest.feature, forest.split_bin
        n_trees, n_nodes = feature.shape
        depth = forest.max_depth
        heap = np.arange(n_nodes)
        node_depth = np.frexp(heap + 1)[1].astype(np.int64) - 1
        # Depth-`depth` positions [first, first + span) lie under a node.
        span = np.left_shift(1, depth - node_depth)
        first = (heap - (2**node_depth - 1)) * span
        splits = (feature >= 0) & (node_depth < depth)
        reached = np.zeros_like(splits)
        reached[:, 0] = True
        for d in range(depth):
            lo, hi = 2**d - 1, 2 ** (d + 1) - 1
            parent = reached[:, lo:hi] & splits[:, lo:hi]
            reached[:, 2 * lo + 1 : 2 * hi : 2] = parent
            reached[:, 2 * lo + 2 : 2 * hi + 1 : 2] = parent

        # Leaves, numbered left to right within each tree.
        leaf_tree, leaf_node = np.nonzero(reached & ~splits)
        key = leaf_tree * (1 << depth) + first[leaf_node]
        order = np.argsort(key, kind="stable")
        leaf_tree, leaf_node, key = leaf_tree[order], leaf_node[order], key[order]
        n_leaves = np.bincount(leaf_tree, minlength=n_trees)
        start = np.cumsum(n_leaves) - n_leaves
        words = (int(n_leaves.max()) + 63) // 64
        if n_trees * 64 * words > np.iinfo(np.uint32).max:
            raise ValueError("packed forest too large for uint32 leaf slots")
        stride = 64 * words
        self.leaf_value = np.zeros(n_trees * stride)
        self.leaf_value[leaf_tree * stride + np.arange(key.size) - start[leaf_tree]] = (
            forest.value[leaf_tree, leaf_node]
        )

        # Per split: failing it clears the leaf ranks [lo_rank, hi_rank)
        # of its left subtree.
        tree, node = np.nonzero(reached & splits)
        left = tree * (1 << depth) + first[node]
        lo_rank = np.searchsorted(key, left) - start[tree]
        hi_rank = np.searchsorted(key, left + span[node] // 2) - start[tree]
        bit0 = 64 * np.arange(words)
        cleared = _ONES_BELOW[np.clip(hi_rank[:, None] - bit0, 0, 64)] & ~_ONES_BELOW[
            np.clip(lo_rank[:, None] - bit0, 0, 64)
        ]

        # One row per (feature, distinct cut) after each feature's
        # all-ones first row; a row is the running AND of its block.
        f, cut = feature[tree, node].astype(np.int64), split_bin[tree, node]
        width = max(256, int(cut.max(initial=0)) + 2)
        pairs, pair_of = np.unique(f * width + cut, return_inverse=True)
        self.used, block0 = np.unique(pairs // width, return_index=True)
        n_used = self.used.size
        rank = np.arange(n_used)
        pair_rank = np.repeat(rank, np.diff(np.append(block0, pairs.size)))
        masks = np.full((pairs.size + n_used, words, n_trees), ~np.uint64(0))
        np.bitwise_and.at(
            masks,
            ((pair_of + pair_rank[pair_of] + 1)[:, None], np.arange(words), tree[:, None]),
            ~cleared,
        )
        for b0, b1 in zip(block0 + rank, np.append(block0[1:] + rank[1:], masks.shape[0])):
            np.bitwise_and.accumulate(masks[b0:b1], axis=0, out=masks[b0:b1])
        self.masks = masks.reshape(masks.shape[0], words * n_trees)
        # A code maps to the row after its feature's cuts below it.
        codes = (self.used[:, None] * width + np.arange(width)).ravel()
        self.code_row = np.searchsorted(pairs, codes) + np.repeat(rank, width)
        self.row_base = rank * width
        self.width = width
        self.words = words
        self.word_slot = (
            (np.arange(n_trees) * stride)[None, :] + bit0[:, None]
        ).astype(np.uint32).ravel()

        # One-row scratch.
        self.rows = np.empty(n_used, dtype=np.intp)
        self.gathered = np.empty((n_used, words * n_trees), dtype=np.uint64)
        self.acc = np.empty(words * n_trees, dtype=np.uint64)
        self.low = np.empty(words * n_trees, dtype=np.uint64)
        self.mant = np.empty(words * n_trees)
        self.exp = np.empty(words * n_trees, dtype=np.int32)
        self.slot = np.empty(words * n_trees, dtype=np.uint32)
        self.exit = np.empty(n_trees, dtype=np.uint32)


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
    """

    feature: np.ndarray
    split_bin: np.ndarray
    value: np.ndarray
    max_depth: int
    # Flattened routing tables (derived in __post_init__).
    _feat0: np.ndarray = field(init=False, repr=False)
    _cut: np.ndarray = field(init=False, repr=False)
    _child2: np.ndarray = field(init=False, repr=False)
    _value_flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_trees, n_nodes = self.feature.shape
        if 2 * n_trees * n_nodes >= np.iinfo(np.int32).max:
            raise ValueError("packed forest too large for int32 node indexing")
        flat_feature = self.feature.ravel().astype(np.int32)
        internal = flat_feature >= 0
        # Dummy split (feature 0, cut above any uint8 bin code) at
        # leaves keeps the per-level comparison branch-free.
        self._feat0 = np.where(internal, flat_feature, 0).astype(np.int32)
        self._cut = np.where(
            internal, self.split_bin.ravel(), np.iinfo(np.int16).max
        ).astype(np.int16)
        idx = np.arange(n_trees * n_nodes, dtype=np.int32)
        local = idx % n_nodes
        base = idx - local
        # child2[2*i + goes_left]: interleaved children within the same
        # tree's flat block; leaves loop back to themselves so routing
        # is idempotent past each tree's actual depth.
        child2 = np.empty(2 * n_trees * n_nodes, dtype=np.int32)
        child2[0::2] = np.where(internal, base + 2 * local + 2, idx)
        child2[1::2] = np.where(internal, base + 2 * local + 1, idx)
        self._child2 = child2
        self._value_flat = np.ascontiguousarray(self.value.ravel(), dtype=float)
        #: per-tree root offsets into the flat node tables
        self._roots = np.arange(n_trees, dtype=np.int32) * np.int32(n_nodes)
        # Routing scratch, reused across chunks/calls (keyed by chunk
        # shape); the hot loop then runs entirely in preallocated
        # buffers via gather-with-out and in-place ufuncs.
        self._bufs: dict = {}
        # One-row scoring tables, built by the first decision_scores_one.
        self._exit_tables: _ExitLeafTables | None = None

    def __getstate__(self) -> dict:
        # Scratch and exit-leaf tables are derived from the node arrays:
        # keep them out of pickles, snapshots and checkpoints.
        state = self.__dict__.copy()
        state["_bufs"] = {}
        state["_exit_tables"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickles written before the exit-leaf tables existed.
        self.__dict__.setdefault("_exit_tables", None)

    def _chunk_bufs(self, m: int, p: int, xdtype) -> dict:
        """Preallocated routing buffers for an ``(m, p)`` chunk."""
        key = (m, p, np.dtype(xdtype).char)
        bufs = self._bufs.get(key)
        if bufs is None:
            shape = (m, self.n_trees)
            if len(self._bufs) > 6:
                self._bufs.clear()
            bufs = self._bufs[key] = {
                "node": np.empty(shape, dtype=np.int32),
                "f": np.empty(shape, dtype=np.int32),
                "xb": np.empty(shape, dtype=xdtype),
                "cut": np.empty(shape, dtype=np.int16),
                "goes": np.empty(shape, dtype=bool),
                "leaf": np.empty(shape, dtype=float),
                "row_off": (np.arange(m, dtype=np.int32) * np.int32(p))[:, None],
            }
        return bufs

    @classmethod
    def from_trees(cls, trees: Sequence[HistogramTree]) -> "PackedForest":
        """Pack fitted trees (all grown with the same ``max_depth``)."""
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
        )

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    def _route_chunk(self, Xc: np.ndarray) -> np.ndarray:
        """Leaf values for one row chunk, shape ``(len(Xc), n_trees)``.

        Runs in this forest's reusable scratch buffers: the returned
        array is overwritten by the next routing call, so callers must
        consume (or copy) it before routing again.
        """
        m, p = Xc.shape
        xflat = np.ascontiguousarray(Xc).reshape(-1)
        bufs = self._chunk_bufs(m, p, xflat.dtype)
        node, f, xb = bufs["node"], bufs["f"], bufs["xb"]
        cut, goes, row_off = bufs["cut"], bufs["goes"], bufs["row_off"]
        node[:] = self._roots
        for _ in range(self.max_depth):
            np.take(self._feat0, node, out=f)
            f += row_off
            np.take(xflat, f, out=xb)
            np.take(self._cut, node, out=cut)
            np.less_equal(xb, cut, out=goes)
            np.left_shift(node, 1, out=node)
            np.add(node, goes, out=node)
            np.take(self._child2, node, out=node)
        leaf = bufs["leaf"]
        np.take(self._value_flat, node, out=leaf)
        return leaf

    def predict(
        self, X_binned: np.ndarray, chunk_size: int = _DEFAULT_CHUNK
    ) -> np.ndarray:
        """Leaf values of every tree for every sample, shape ``(n, n_trees)``.

        Column ``j`` equals ``trees[j].predict(X_binned)`` exactly.
        """
        n = X_binned.shape[0]
        out = np.empty((n, self.n_trees), dtype=float)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            out[start:stop] = self._route_chunk(X_binned[start:stop])
        return out

    def decision_scores(
        self,
        X_binned: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        chunk_size: int = _DEFAULT_CHUNK,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores ``base + lr * sum_r leaf_r``, shape ``(n, k)``.

        Trees must be packed round-major (``round0 class0..k-1, round1
        class0..k-1, ...``, the fit order of the GBT estimators).  The
        per-round accumulation runs inside the routing chunk, in fit
        order, so results are bit-identical to the legacy sequential
        per-tree loop while the leaf matrix is still cache-hot.
        ``out`` optionally receives the scores (shape ``(n, k)``),
        letting a serving loop reuse one result buffer across calls.
        """
        n = X_binned.shape[0]
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        n_rounds = n_trees // n_classes
        base = np.broadcast_to(np.asarray(base_score, dtype=float), (n_classes,))
        if out is None:
            out = np.empty((n, n_classes), dtype=float)
        elif out.shape != (n, n_classes):
            raise ValueError(f"out has shape {out.shape}, expected {(n, n_classes)}")
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            leaf = self._route_chunk(X_binned[start:stop])
            raw = out[start:stop]
            raw[:] = base
            for r in range(n_rounds):
                raw += learning_rate * leaf[:, r * n_classes : (r + 1) * n_classes]
        return out

    def decision_scores_one(
        self,
        x_binned: np.ndarray,
        base_score: np.ndarray | float,
        learning_rate: float,
        n_classes: int = 1,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boosted raw scores for a single sample, shape ``(n_classes,)``.

        The request-at-a-time serving path, scored from the exit-leaf
        tables (see the module docstring) with a fixed number of numpy
        calls and no loop over trees or levels.  ``x_binned`` holds
        integer bin codes.  The rounds accumulate in fit order by
        ``np.add.accumulate`` over ``[base; lr * leaf]``, which adds
        sequentially, so the scores are bit-identical to row ``i`` of
        :meth:`decision_scores` on a batch containing the sample.
        """
        n_trees = self.n_trees
        if n_classes < 1 or n_trees % n_classes:
            raise ValueError(
                f"n_trees={n_trees} is not a multiple of n_classes={n_classes}"
            )
        x = np.asarray(x_binned)
        if x.ndim != 1:
            raise ValueError("decision_scores_one routes exactly one sample")
        t = self._exit_tables
        if t is None:
            t = self._exit_tables = _ExitLeafTables(self)
        if x.dtype != np.uint8:
            # Codes past the largest cut all fail the same splits.
            x = np.clip(x, 0, t.width - 1)
        rows, acc, low, slot = t.rows, t.acc, t.low, t.slot
        # Every index below is in range by construction; mode="clip"
        # lets take() write into its out buffer without a checked copy.
        np.add(x.take(t.used), t.row_base, out=rows)
        t.code_row.take(rows, out=rows, mode="clip")
        t.masks.take(rows, axis=0, out=t.gathered, mode="clip")
        np.bitwise_and.reduce(t.gathered, axis=0, out=acc)
        # Per word, the lowest set bit is 2**e / 2 (e = 0 for an empty
        # word); each tree exits at the lowest set bit of its first
        # non-empty word.  An empty word's slot wraps to the uint32
        # maximum, so the per-tree minimum over words skips it.
        np.negative(acc, out=low)
        np.bitwise_and(low, acc, out=low)
        np.frexp(low, out=(t.mant, t.exp))
        np.subtract(t.exp, 1, out=slot, casting="unsafe")
        np.bitwise_or(slot, t.word_slot, out=slot)
        np.minimum.reduce(slot.reshape(t.words, n_trees), axis=0, out=t.exit)
        steps = np.empty((n_trees // n_classes + 1, n_classes))
        steps[0] = base_score
        leaf = steps.reshape(-1)[n_classes:]
        t.leaf_value.take(t.exit, out=leaf, mode="clip")
        np.multiply(leaf, learning_rate, out=leaf)
        np.add.accumulate(steps, axis=0, out=steps)
        if out is None:
            out = np.empty(n_classes, dtype=float)
        out[:] = steps[-1]
        return out
