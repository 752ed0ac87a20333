"""On-the-fly category prediction for the online placement service.

Offline, the BYOM pipeline extracts the whole deployment week's feature
matrix and predicts every category before the first simulated arrival.
A live service cannot: each arriving job's features depend on the
history observed *so far*, and the prediction must happen on the
admission path.  :class:`OnlineCategorizer` fuses the two incremental
pieces — the stateful
:class:`~repro.workloads.features.OnlineFeatureExtractor` (Table-2 rows
per arrival) and the packed-forest inference of the fitted GBT
(:meth:`~repro.ml.packed.PackedForest.decision_scores`, level routing,
for micro-batches; :meth:`~repro.ml.packed.PackedForest.decision_scores_one`,
leaf-bitmask tables built on the first request, for single requests) —
into one callable the :class:`~repro.serve.PlacementService` invokes per
submission.  The forest reads the feature rows as they are: it carries
the binner's edges, so nothing is binned on the admission path.

Predictions are bit-identical to the offline
``model.predict(extract_features(trace))`` path over the same jobs
(``tests/test_serve_online.py``), and one job at a time equals one
batch, non-finite features (e.g. a NaN in a resource map) included.
"""

from __future__ import annotations

import numpy as np

from ..core.category_model import CategoryModel
from ..cost import CostRates, DEFAULT_RATES
from ..ml.gbdt import GBTClassifier
from ..workloads.features import DEFAULT_HASH_BUCKETS, OnlineFeatureExtractor
from ..workloads.job import Trace

__all__ = ["OnlineCategorizer"]


class OnlineCategorizer:
    """``jobs -> categories`` for arriving jobs, model-driven.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.category_model.CategoryModel` (its
        GBT classifier is used) or a fitted
        :class:`~repro.ml.gbdt.GBTClassifier` directly.
    rates:
        Cost model for the history features (group A); must match the
        rates the offline feature extraction used.
    n_hash_buckets:
        Metadata hashing width, as in :func:`extract_features`.
    """

    def __init__(
        self,
        model: CategoryModel | GBTClassifier,
        rates: CostRates = DEFAULT_RATES,
        n_hash_buckets: int = DEFAULT_HASH_BUCKETS,
    ):
        gbt = model.model if isinstance(model, CategoryModel) else model
        if gbt.binner_ is None or gbt.classes_ is None:
            raise ValueError("categorizer needs a fitted model")
        self.gbt = gbt
        self.extractor = OnlineFeatureExtractor(rates, n_hash_buckets)
        # Score buffers, reused across calls (grown on demand).
        self._raw: np.ndarray | None = None
        self._raw_one: np.ndarray | None = None

    def __setstate__(self, state: dict) -> None:
        # Older checkpoints also carry the retired bin-code buffers.
        self.__dict__.update({k: v for k, v in state.items() if k not in ("_xb", "_xb_one")})

    def warm_start(self, trace: Trace) -> "OnlineCategorizer":
        """Seed feature history from already-observed jobs (e.g. the
        training week), without predicting anything."""
        self.extractor.warm_start(trace)
        return self

    def __call__(self, jobs) -> np.ndarray:
        """Predicted importance category per arriving job."""
        X = self.extractor.push(jobs)
        return self._predict_rows(X)

    def predict_block(self, log, first: int, stop: int) -> np.ndarray:
        """Categories for jobs ``[first, stop)`` of a columnar job log.

        The fused serving path: feature extraction
        (:meth:`OnlineFeatureExtractor.push_block`) and packed-forest
        scoring of the feature values run over the log's columns
        directly, through scratch buffers reused across calls — no
        per-job objects and no intermediate matrices crossing this
        boundary.
        Bit-identical to ``self([log[i] for i in range(first, stop)])``
        because column-submitted jobs carry empty metadata/resources.
        """
        X = self.extractor.push_block(
            log.arrivals[first:stop],
            log.durations[first:stop],
            log.sizes[first:stop],
            log.read_bytes[first:stop],
            log.write_bytes[first:stop],
            log.read_ops[first:stop],
            log.pipelines[first:stop],
        )
        return self._predict_rows(X)

    def _predict_rows(self, X: np.ndarray) -> np.ndarray:
        gbt = self.gbt
        n = X.shape[0]
        k = len(gbt.classes_)
        if gbt.packed_ is None:
            # Single-class fit: every prediction is that class.
            return np.full(n, int(gbt.classes_[0]), dtype=int)
        if n == 1:
            # Request-at-a-time: leaf-bitmask scoring of the feature row
            # and a scalar argmax (first maximum, as the batch path's).
            if self._raw_one is None:
                self._raw_one = np.empty(k)
            raw = gbt.packed_.decision_scores_one(
                X[0], gbt.base_score_, gbt.learning_rate, k, out=self._raw_one
            )
            return np.array([gbt.classes_.item(raw.argmax())], dtype=int)
        if self._raw is None or self._raw.shape[0] < n:
            self._raw = np.empty((max(n, 256), k))
        raw = gbt.packed_.decision_scores(
            X, gbt.base_score_, gbt.learning_rate, k, out=self._raw[:n]
        )
        return gbt.classes_[np.argmax(raw, axis=1)].astype(int)
