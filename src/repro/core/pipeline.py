"""End-to-end BYOM pipeline: offline training + online deployment.

Ties the cross-layer pieces together the way Figure 3 (right) shows:
analyse the production workload offline, train the category model,
then deploy — each job queries its model at the application layer and
the storage layer runs adaptive category selection over the hints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AdaptiveParams, ModelParams, SimConfig
from ..cost import CostRates, DEFAULT_RATES
from ..storage.sharded import simulate_sharded
from ..storage.simulator import SimResult, simulate
from ..workloads.features import FeatureMatrix, extract_features
from ..workloads.job import Trace
from ..workloads.streaming import TraceSource, materialize_trace
from ..workloads.traces import week_split
from .adaptive import AdaptiveCategoryPolicy
from .category_model import CategoryModel

__all__ = ["ByomPipeline", "PreparedCluster", "prepare_cluster"]


@dataclass(frozen=True)
class PreparedCluster:
    """A two-week cluster trace with aligned features and split indices.

    Features are extracted once over the full trace (so test-week jobs
    see training-week pipeline history, as in production) and sliced.
    """

    full: Trace
    train: Trace
    test: Trace
    features_train: FeatureMatrix
    features_test: FeatureMatrix
    peak_ssd_usage: float


def prepare_cluster(trace: Trace, rates: CostRates = DEFAULT_RATES) -> PreparedCluster:
    """Split a two-week trace into train/test weeks with features."""
    features = extract_features(trace, rates)
    train, train_idx, test, test_idx = week_split(trace)
    return PreparedCluster(
        full=trace,
        train=train,
        test=test,
        features_train=features.take(train_idx),
        features_test=features.take(test_idx),
        peak_ssd_usage=test.peak_ssd_usage(),
    )


class ByomPipeline:
    """Train a category model offline, deploy Adaptive Ranking online."""

    def __init__(
        self,
        model_params: ModelParams | None = None,
        adaptive_params: AdaptiveParams | None = None,
        rates: CostRates = DEFAULT_RATES,
    ):
        self.model_params = model_params or ModelParams()
        self.adaptive_params = adaptive_params or AdaptiveParams()
        self.rates = rates
        self.model = CategoryModel(self.model_params, rates)

    def train(self, train_trace: Trace, features_train: FeatureMatrix) -> "ByomPipeline":
        """Offline phase: fit the per-cluster category model."""
        self.model.fit(train_trace, features_train)
        return self

    def make_policy(
        self,
        test_trace: Trace,
        features_test: FeatureMatrix,
        name: str = "Adaptive Ranking",
        per_shard_act: bool = False,
    ) -> AdaptiveCategoryPolicy:
        """Build the online policy from model predictions for a trace."""
        categories = self.model.predict(features_test)
        return AdaptiveCategoryPolicy(
            categories=categories,
            n_categories=self.model_params.n_categories,
            params=self.adaptive_params,
            name=name,
            per_shard_act=per_shard_act,
        )

    def deploy(
        self,
        test_trace: "Trace | TraceSource | str",
        features_test: FeatureMatrix,
        quota_fraction: float,
        peak_usage: float | None = None,
        engine: str = "auto",
        n_shards: int = 1,
        shard_weights: "np.ndarray | None" = None,
        per_shard_act: bool = False,
    ) -> SimResult:
        """Online phase: simulate placement at an SSD quota fraction.

        Parameters
        ----------
        test_trace:
            The deployment week: an in-memory
            :class:`~repro.workloads.job.Trace`, a streaming
            :class:`~repro.workloads.streaming.TraceSource`, or a
            ``.csv``/``.npz`` path — streamed inputs are drained into
            columns without materializing per-job objects and produce
            bit-identical results.  ``features_test`` must be aligned
            with the trace's job order (for a source, row ``i`` of the
            feature matrix describes the ``i``-th streamed job — e.g.
            features extracted before the trace was serialized)::

                pipe.deploy(stream_csv_trace("week2.csv"),
                            features_week2, quota_fraction=0.05)
        features_test:
            Per-job feature matrix the category model predicts from.
        quota_fraction:
            SSD capacity as a fraction of ``peak_usage``.
        peak_usage:
            Quota denominator (the test week's infinite-SSD peak).
            Computed from the trace when omitted; pass it explicitly to
            avoid a second pass over very large streamed traces.
        engine:
            Simulator event loop: ``"auto"`` (chunked fast path
            whenever the policy implements ``decide_batch``),
            ``"chunked"``, or ``"legacy"``; see
            :func:`repro.storage.simulate`.
        n_shards:
            Deploy across that many caching servers (the production
            fragmentation regime of Section 2.4); 1 keeps the single
            global SSD pool.
        shard_weights:
            Relative per-server capacity slices, e.g. ``(2, 1, 0.5)``
            for a skewed fleet (normalized to the quota capacity);
            ``None`` splits evenly.
        per_shard_act:
            Switch the adaptive policy to one admission threshold per
            caching server (Algorithm 1 applied lane-wise) instead of
            the global ACT.
        """
        test_trace = materialize_trace(test_trace)
        cfg = SimConfig(ssd_quota_fraction=quota_fraction, adaptive=self.adaptive_params)
        peak = peak_usage if peak_usage is not None else test_trace.peak_ssd_usage()
        capacity = cfg.ssd_quota_fraction * peak
        policy = self.make_policy(test_trace, features_test, per_shard_act=per_shard_act)
        if shard_weights is not None:
            w = np.asarray(shard_weights, dtype=float)
            if w.size != n_shards:
                raise ValueError(
                    f"shard_weights has {w.size} entries for {n_shards} shards"
                )
            capacity = capacity * w / w.sum()
        if n_shards > 1:
            return simulate_sharded(
                test_trace, policy, capacity, n_shards, self.rates, engine=engine
            )
        return simulate(test_trace, policy, capacity, self.rates, engine=engine)

    def serve(
        self,
        quota_fraction: float,
        peak_usage: float,
        n_shards: int = 1,
        shard_weights: "np.ndarray | None" = None,
        per_shard_act: bool = False,
        mode: str = "batch",
        history: Trace | None = None,
        max_pending: int | None = None,
        n_workers: int = 1,
        transport: str = "inprocess",
        worker_dir: "str | None" = None,
    ):
        """Online phase, live: an opened
        :class:`~repro.serve.PlacementService` around this trained model.

        Where :meth:`deploy` replays a finished week, ``serve`` stands
        up the paper's production shape — jobs are submitted as they
        arrive, features are extracted and categories predicted on the
        admission path (:class:`~repro.serve.OnlineCategorizer` over
        the fitted GBT), and Algorithm 1 adapts thresholds from live
        feedback (:class:`~repro.serve.OnlineAdaptivePolicy`).

        Parameters mirror :meth:`deploy` where they overlap.
        ``peak_usage`` is required (there is no trace to measure);
        ``history`` optionally warm-starts the feature extractor's
        per-pipeline state from an observed trace, e.g. the training
        week, so early arrivals see the same history an offline
        combined-trace extraction would give them.  Submit with
        ``service.submit(job)`` / ``service.submit_jobs(batch)`` and
        take ``service.result()`` whenever a roll-up is needed.

        ``n_workers > 1`` stands up a :class:`~repro.serve.FleetRouter`
        instead — the same service surface scatter-gathered over a
        worker fleet (``transport`` picks in-process or forked
        children; ``worker_dir`` enables per-worker WAL/checkpoint
        failover).  Decisions are bit-identical for any worker count.
        A fleet serves ``mode="batch"`` only: ``mode="scalar"`` with
        ``n_workers > 1`` raises ``ValueError``.
        """
        from ..serve import (
            FleetRouter,
            OnlineAdaptivePolicy,
            OnlineCategorizer,
            PlacementService,
        )

        policy = OnlineAdaptivePolicy(
            self.model_params.n_categories,
            self.adaptive_params,
            per_shard_act=per_shard_act,
        )
        categorizer = OnlineCategorizer(self.model, self.rates)
        if history is not None:
            categorizer.warm_start(history)
        capacity: "float | np.ndarray" = quota_fraction * peak_usage
        if shard_weights is not None:
            w = np.asarray(shard_weights, dtype=float)
            if w.size != n_shards:
                raise ValueError(
                    f"shard_weights has {w.size} entries for {n_shards} shards"
                )
            capacity = capacity * w / w.sum()
        if n_workers > 1:
            return FleetRouter(
                policy,
                capacity,
                n_shards,
                mode=mode,
                rates=self.rates,
                categorizer=categorizer,
                max_pending=max_pending,
                n_workers=n_workers,
                transport=transport,
                worker_dir=worker_dir,
            ).open()
        return PlacementService(
            policy,
            capacity,
            n_shards,
            mode=mode,
            rates=self.rates,
            categorizer=categorizer,
            max_pending=max_pending,
        ).open()

    def true_category_policy(
        self, test_trace: Trace, name: str = "True category", per_shard_act: bool = False
    ) -> AdaptiveCategoryPolicy:
        """Policy fed ground-truth categories (Figure 11's upper bound)."""
        categories = self.model.labels_for(test_trace)
        return AdaptiveCategoryPolicy(
            categories=categories,
            n_categories=self.model_params.n_categories,
            params=self.adaptive_params,
            name=name,
            per_shard_act=per_shard_act,
        )
