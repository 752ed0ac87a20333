"""Feature binning for histogram-based tree learning.

Gradient-boosted trees here follow the standard histogram approach
(as in LightGBM/YDF): continuous features are quantized into a small
number of bins once, and split finding scans bin histograms instead of
sorted feature values.  Binning is a training step only: a fitted
model's packed forest carries the bin edges and routes raw feature
values to the same leaves the codes reach (see
:class:`~repro.ml.packed.PackedForest`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuantileBinner"]


class QuantileBinner:
    """Per-feature quantile binning into uint8 codes.

    Bin edges are interior quantiles of the training distribution; a
    value ``v`` maps to ``searchsorted(edges, v, side="left")``, i.e.
    bin ``b`` holds values in ``(edges[b-1], edges[b]]``, and NaN goes to
    the last bin.  Features with
    few distinct values (e.g. binary hashed indicators) get one bin per
    value.
    """

    def __init__(self, n_bins: int = 64):
        if not 2 <= n_bins <= 256:
            raise ValueError("n_bins must be in [2, 256]")
        self.n_bins = n_bins
        self.edges_: list[np.ndarray] | None = None

    def __setstate__(self, state: dict) -> None:
        # Older pickles also carry the retired one-row binning scratch.
        retired = ("_edge_pad", "_n_edges", "_ge", "_cnt")
        self.__dict__.update({k: v for k, v in state.items() if k not in retired})

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        edges: list[np.ndarray] = []
        qs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        for c in range(X.shape[1]):
            col = X[:, c]
            col = col[np.isfinite(col)]
            if col.size == 0:
                edges.append(np.array([]))
                continue
            # inverted_cdf keeps edges on actual data values, so
            # discrete features (e.g. binary indicators) get exactly one
            # bin per observed value.
            e = np.unique(np.quantile(col, qs, method="inverted_cdf"))
            # Drop edges equal to the max so the last bin is non-empty.
            e = e[e < col.max()] if e.size else e
            edges.append(e)
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantize to uint8 bin codes; unseen values clip into end bins.

        ``out`` optionally receives the codes (uint8, same shape as
        ``X``), letting a serving loop reuse one code buffer per batch.
        """
        if self.edges_ is None:
            raise RuntimeError("binner not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                f"binner was fitted with {len(self.edges_)}"
            )
        if out is None:
            out = np.zeros(X.shape, dtype=np.uint8)
        else:
            if out.shape != X.shape or out.dtype != np.uint8:
                raise ValueError("out must be uint8 with X's shape")
            out[:] = 0
        for c, e in enumerate(self.edges_):
            if e.size == 0:
                continue
            out[:, c] = np.searchsorted(e, X[:, c], side="left").astype(np.uint8)
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def max_bins_(self) -> int:
        """Largest bin code + 1 across features (after fitting)."""
        if self.edges_ is None:
            raise RuntimeError("binner not fitted")
        return max((e.size + 1 for e in self.edges_), default=1)
