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
submission.

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
        # Serving scratch, reused across calls (grown on demand).
        self._xb: np.ndarray | None = None
        self._raw: np.ndarray | None = None
        self._xb_one: np.ndarray | None = None
        self._raw_one: np.ndarray | None = None

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
        (:meth:`OnlineFeatureExtractor.push_block`), binning and
        packed-forest scoring all run over the log's columns directly,
        through scratch buffers reused across calls — no per-job
        objects and no intermediate matrices crossing this boundary.
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
            # Request-at-a-time: 1-D binning scratch, leaf-bitmask scoring.
            xb = self._xb_one
            if xb is None or xb.size != X.shape[1]:
                xb = self._xb_one = np.empty(X.shape[1], dtype=np.uint8)
                self._raw_one = np.empty(k)
            gbt.binner_.transform_one(X[0], out=xb)
            raw = gbt.packed_.decision_scores_one(
                xb, gbt.base_score_, gbt.learning_rate, k, out=self._raw_one
            ).reshape(1, -1)
        else:
            xb = self._xb
            if xb is None or xb.shape[0] < n or xb.shape[1] != X.shape[1]:
                xb = self._xb = np.zeros((max(n, 256), X.shape[1]), dtype=np.uint8)
                self._raw = np.empty((xb.shape[0], k))
            gbt.binner_.transform(X, out=xb[:n])
            raw = gbt.packed_.decision_scores(
                xb[:n], gbt.base_score_, gbt.learning_rate, k, out=self._raw[:n]
            )
        return gbt.classes_[np.argmax(raw, axis=1)].astype(int)
