"""Fused admission fast paths: bit-identity across every engine tier.

PR contract for the fused kernel work:

1. **Engine sweep** — ``legacy`` and ``chunked`` produce equivalent
   placements for every batched policy family, at every shard count,
   and the online ``PlacementService`` replay equals the offline
   chunked run bit for bit.
2. **Category decision tables** — the adaptive policy's steady-state
   admission lookup is rebuilt on every ACT move and every
   ``on_shard_topology`` re-fire, never stale, and decision outcomes
   match the non-table arithmetic exactly at the update boundaries.
3. **Scalar-fallback accounting** — ``scalar_fallback_jobs`` is pinned
   across engines and unchanged by capacity shocks mid-stream.
4. **Fused serving layers** — ``tcio_rate_scalar``, the binner's
   ``transform(out=)``, the extractor's ``push_block``, and the packed
   forest's scratch/out= scoring paths each equal their batch
   references bit for bit.
"""

import numpy as np
import pytest

from repro.core import AdaptiveCategoryPolicy
from repro.cost import DEFAULT_RATES, tcio_rate, tcio_rate_scalar
from repro.ml.encoding import QuantileBinner
from repro.serve import PlacementService
from repro.storage import run_placement, simulate
from repro.units import GIB
from repro.workloads.features import OnlineFeatureExtractor, extract_features

from test_serve_service import (
    assert_bit_identical,
    make_policy_builders,
    random_trace,
)


def assert_equivalent(a, b, label=""):
    """Legacy vs vectorized: exact, because the ledger holds integer
    bytes and its sums do not depend on how binding chunks group them."""
    assert np.array_equal(b.ssd_fraction, a.ssd_fraction), label
    assert b.n_ssd_requested == a.n_ssd_requested, label
    assert b.n_spilled == a.n_spilled, label
    assert b.realized_tco == a.realized_tco, label


class TestEngineSweep:
    """legacy ~= chunked offline; online == offline chunked."""

    @pytest.mark.parametrize("n_shards", (1, 4))
    @pytest.mark.parametrize("capacity", (2 * GIB, 40 * GIB))
    def test_offline_engines_agree(self, n_shards, capacity):
        trace = random_trace(21, n=400)
        for name, build in make_policy_builders(trace, 21).items():
            legacy = run_placement(
                trace, build(), capacity, n_shards=n_shards, engine="legacy"
            )
            chunked = run_placement(
                trace, build(), capacity, n_shards=n_shards, engine="chunked"
            )
            assert_equivalent(
                legacy, chunked, f"{name} x chunked x {n_shards} shards"
            )

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_online_replay_matches_offline_per_engine(self, n_shards):
        trace = random_trace(22, n=400)
        cap = 20 * GIB
        for name, build in make_policy_builders(trace, 22).items():
            off = run_placement(
                trace, build(), cap, n_shards=n_shards, engine="chunked"
            )
            svc = PlacementService(build(), cap, n_shards, mode="batch")
            on = svc.replay(trace, batch_jobs=37)
            assert_bit_identical(
                off, on, f"{name} x chunked x {n_shards} shards online"
            )


class TestDecisionTables:
    """The per-category admission table is exact and never stale."""

    def _trace_and_cats(self, seed, n=400):
        trace = random_trace(seed, n=n)
        cats = np.random.default_rng(seed).integers(0, 8, n)
        return trace, cats

    def test_table_matches_threshold_comparison(self):
        trace, cats = self._trace_and_cats(31)
        policy = AdaptiveCategoryPolicy(cats, 8)
        simulate(trace, policy, 4 * GIB, engine="chunked")
        table = policy._admit_table_current()
        cat_range = np.arange(8)
        if table.ndim == 2:
            expect = cat_range[None, :] >= policy.act_lanes[:, None]
        else:
            expect = cat_range >= policy.act
        np.testing.assert_array_equal(table, expect)

    def test_act_movement_rebuilds_table(self):
        """A run in a binding-capacity regime moves the ACT; the table
        must track every move (equality with legacy pins the decision
        boundary at each ThresholdEvent)."""
        trace, cats = self._trace_and_cats(32)
        p_legacy = AdaptiveCategoryPolicy(cats, 8)
        p_chunked = AdaptiveCategoryPolicy(cats, 8)
        ref = simulate(trace, p_legacy, 3 * GIB, engine="legacy")
        res = simulate(trace, p_chunked, 3 * GIB, engine="chunked")
        assert len(p_chunked.trajectory) > 1  # the regime under test
        assert_equivalent(ref, res, "table vs per-job thresholds")
        assert p_chunked._table_act == p_chunked.act

    def test_topology_refire_invalidates_table(self):
        trace, cats = self._trace_and_cats(33)
        policy = AdaptiveCategoryPolicy(cats, 8, per_shard_act=True)
        svc = PlacementService(policy, 12 * GIB, 4, mode="batch")
        svc.open(trace)
        jobs = list(trace)
        for j in jobs[:200]:
            svc.submit(j)
        svc.drain()
        svc.apply_shock(2 * GIB, lane=1)
        table = policy._admit_table_current()
        assert table.shape == (4, 8)
        np.testing.assert_array_equal(
            table, np.arange(8)[None, :] >= policy.act_lanes[:, None]
        )
        for j in jobs[200:]:
            svc.submit(j)
        assert policy._table_lanes is policy.act_lanes

    def test_manual_act_move_is_never_stale(self):
        """Mutating the threshold outside the event flow (the staleness
        backstop, not the normal path) still yields fresh decisions."""
        trace, cats = self._trace_and_cats(34, n=50)
        policy = AdaptiveCategoryPolicy(cats, 8)
        policy.on_simulation_start(trace, 10 * GIB, DEFAULT_RATES)
        before = policy._admit_table_current().copy()
        policy.act = min(policy.act + 1, 7)
        after = policy._admit_table_current()
        assert after[policy.act - 1] != before[policy.act - 1] or policy.act == 7
        np.testing.assert_array_equal(after, np.arange(8) >= policy.act)


class TestScalarFallbackAccounting:
    """scalar_fallback_jobs: engine-invariant, shock-invariant."""

    def _binding_setup(self, seed):
        trace = random_trace(seed, n=500)
        cats = np.random.default_rng(seed).integers(0, 6, len(trace))
        return trace, cats, 2 * GIB

    def test_pinned_across_engines(self):
        trace, cats, cap = self._binding_setup(41)
        ref = simulate(
            trace, AdaptiveCategoryPolicy(cats, 6), cap, engine="chunked"
        )
        assert ref.n_spilled > 0
        res = simulate(trace, AdaptiveCategoryPolicy(cats, 6), cap, engine="auto")
        assert res.scalar_fallback_jobs == ref.scalar_fallback_jobs

    def test_online_offline_fallback_counts_agree(self):
        trace, cats, cap = self._binding_setup(42)
        off = simulate(
            trace, AdaptiveCategoryPolicy(cats, 6), cap, engine="chunked"
        )
        svc = PlacementService(AdaptiveCategoryPolicy(cats, 6), cap, mode="batch")
        on = svc.replay(trace, batch_jobs=31)
        assert on.scalar_fallback_jobs == off.scalar_fallback_jobs
        assert_bit_identical(off, on)

    def test_shock_does_not_inflate_fallback_accounting(self):
        """Regression: a capacity shock mid-stream flushes the queue but
        must not double-count candidates already attributed to the
        vectorized path, at any submission slicing."""
        trace, cats, cap = self._binding_setup(43)
        jobs = list(trace)
        counts = {}
        for batch in (1, 17):
            svc = PlacementService(
                AdaptiveCategoryPolicy(cats, 6), cap, 2, mode="batch"
            )
            svc.open(trace)
            for lo, hi in ((0, 250), (250, len(jobs))):
                for b in range(lo, hi, batch):
                    svc.submit_jobs(jobs[b:min(b + batch, hi)])
                if lo == 0:
                    svc.apply_shock(scale=0.5)
            res = svc.result()
            counts[batch] = res.scalar_fallback_jobs
            assert 0 <= res.scalar_fallback_jobs <= res.n_ssd_requested
        assert len(set(counts.values())) == 1, counts


class TestFusedServingLayers:
    """Each fused layer equals its batch reference bit for bit."""

    def test_tcio_rate_scalar_matches_vectorized(self):
        rng = np.random.default_rng(51)
        n = 2000
        read_ops = rng.uniform(0, 1e6, n)
        write_bytes = rng.uniform(0, 1e12, n)
        durations = rng.uniform(0, 5000, n)
        vec = tcio_rate(read_ops, write_bytes, durations, DEFAULT_RATES)
        for i in range(0, n, 97):
            assert tcio_rate_scalar(
                float(read_ops[i]), float(write_bytes[i]),
                float(durations[i]), DEFAULT_RATES,
            ) == vec[i]

    def test_transform_out_buffer_matches(self):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(200, 6))
        binner = QuantileBinner(n_bins=16).fit(X)
        out = np.empty((200, 6), dtype=np.uint8)
        np.testing.assert_array_equal(
            binner.transform(X, out=out), binner.transform(X)
        )

    def test_push_block_matches_push(self):
        trace = random_trace(54, n=300)
        ex_obj = OnlineFeatureExtractor()
        ex_col = OnlineFeatureExtractor()
        jobs = list(trace)
        ref = np.vstack([ex_obj.push([j]) for j in jobs])
        # Column path at mixed granularities, including per-request.
        splits = (0, 1, 2, 45, 46, 170, 300)
        rows = []
        for lo, hi in zip(splits[:-1], splits[1:]):
            rows.append(
                ex_col.push_block(
                    trace.arrivals[lo:hi], trace.durations[lo:hi],
                    trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                    trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                    [j.pipeline for j in jobs[lo:hi]],
                ).copy()
            )
        col = np.vstack(rows)
        # Object-path jobs carry metadata/resources; columns do not —
        # compare the column-visible feature groups (A and T).
        offline = extract_features(trace)
        a_cols = offline.group_columns("A")
        t_cols = offline.group_columns("T")
        np.testing.assert_array_equal(col[:, a_cols], ref[:, a_cols])
        np.testing.assert_array_equal(col[:, t_cols], ref[:, t_cols])
        b_c = np.setdiff1d(np.arange(col.shape[1]), np.r_[a_cols, t_cols])
        assert not col[:, b_c].any()

    def test_push_block_scratch_is_reused(self):
        trace = random_trace(55, n=64)
        ex = OnlineFeatureExtractor()
        r1 = ex.push_block(
            trace.arrivals[:32], trace.durations[:32], trace.sizes[:32],
            trace.read_bytes[:32], trace.write_bytes[:32],
            trace.read_ops[:32], list(trace.pipelines[:32]),
        )
        r2 = ex.push_block(
            trace.arrivals[32:], trace.durations[32:], trace.sizes[32:],
            trace.read_bytes[32:], trace.write_bytes[32:],
            trace.read_ops[32:], list(trace.pipelines[32:]),
        )
        assert r1.base is r2.base  # same scratch matrix, by design

    def test_decision_scores_out_and_one_match_batch(self):
        from repro.ml.gbdt import GBTClassifier

        rng = np.random.default_rng(56)
        X = rng.normal(size=(400, 8))
        y = rng.integers(0, 3, 400)
        gbt = GBTClassifier(n_rounds=12, max_depth=4).fit(X, y)
        Xb = gbt.binner_.transform(X)
        packed = gbt.packed_
        k = len(gbt.classes_)
        ref = packed.decision_scores(Xb, gbt.base_score_, gbt.learning_rate, k)
        out = np.empty_like(ref)
        got = packed.decision_scores(
            Xb, gbt.base_score_, gbt.learning_rate, k, out=out
        )
        assert got is out
        np.testing.assert_array_equal(got, ref)
        one = np.empty(k)
        for i in range(0, 400, 29):
            got_one = packed.decision_scores_one(
                Xb[i], gbt.base_score_, gbt.learning_rate, k, out=one
            )
            np.testing.assert_array_equal(got_one, ref[i])
