"""Unified shard-aware placement runtime.

Three pillars:

1. ``n_shards=1`` is :func:`repro.storage.simulate` — both engines,
   same results (the legacy lane loop is the exact per-job reference).
2. Sharded chunked == sharded legacy for every batched policy, across
   capacity regimes, including the policy-visible feedback (adaptive
   trajectory and per-shard counters).
3. Binding chunks: every mask chunk runs one exact per-candidate
   loop; each candidate on a lane where capacity binds (a candidate
   spills) inside the chunk counts as a scalar fallback, and the
   candidates of the other lanes do not.
"""

import numpy as np
import pytest

from repro.baselines import (
    CategoryAdmissionPolicy,
    FirstFitPolicy,
    ImitationPolicy,
    LifetimeModel,
    LifetimePolicy,
)
from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy
from repro.cost import DEFAULT_RATES
from repro.serve import FleetRouter, PlacementService
from repro.storage import (
    FixedPolicy,
    assign_shards,
    run_placement,
    simulate,
    simulate_sharded,
)
from repro.units import GIB
from repro.workloads import Trace
from repro.workloads.features import extract_features
from repro.workloads.streaming import TraceSource

from helpers import make_job


def random_trace(seed: int, n: int = 600, span: float = 100_000.0) -> Trace:
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, span, n))
    jobs = [
        make_job(
            i,
            arrival=float(arrivals[i]),
            duration=float(rng.uniform(30.0, span / 8)),
            size=float(rng.uniform(0.05, 25.0) * GIB),
            pipeline=f"pipe{int(rng.integers(0, 10))}",
        )
        for i in range(n)
    ]
    return Trace(jobs, name=f"rand{seed}")


def assert_same_result(a, b, capacity, label=""):
    """Exact: the ledger holds integer bytes.  A TTL-bounded time
    fraction may still differ in the last bit between the engines
    (``test_chunked_simulator``), but not on these traces."""
    assert np.array_equal(b.ssd_fraction, a.ssd_fraction), label
    assert b.n_ssd_requested == a.n_ssd_requested, label
    assert b.n_spilled == a.n_spilled, label
    assert b.realized_tco == a.realized_tco, label
    assert b.realized_hdd_tcio == a.realized_hdd_tcio, label
    assert b.peak_ssd_used == a.peak_ssd_used, label


def make_policy_builders(trace, seed):
    """One builder per batched policy family."""
    rng = np.random.default_rng(seed + 100)
    cats = rng.integers(0, 8, len(trace))
    params = AdaptiveParams(decision_interval=700.0, lookback_window=4000.0)
    train = random_trace(seed + 50)
    feats = extract_features(trace, DEFAULT_RATES)
    lt = LifetimeModel(n_rounds=3).fit(feats, trace.durations)
    decisions = rng.random(len(trace)) < 0.5
    return {
        "adaptive": lambda: AdaptiveCategoryPolicy(cats, 8, params),
        "heuristic": lambda: CategoryAdmissionPolicy(train, refresh_interval=9000.0),
        "firstfit": FirstFitPolicy,
        "fixed": lambda: FixedPolicy(decisions),
        "lifetime": lambda: LifetimePolicy(lt, feats),
    }


class TestSingleShardIsSimulate:
    """``n_shards=1`` must reproduce ``simulate`` on both engines."""

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    def test_bit_equal_placements(self, engine):
        trace = random_trace(0)
        cats = np.random.default_rng(7).integers(0, 6, len(trace))
        cap = 30 * GIB
        r_sim = simulate(
            trace, AdaptiveCategoryPolicy(cats, 6), cap, engine=engine
        )
        r_one = simulate_sharded(
            trace, AdaptiveCategoryPolicy(cats, 6), cap, n_shards=1, engine=engine
        )
        # Same code path by construction: exact equality, not tolerance.
        assert np.array_equal(r_one.ssd_fraction, r_sim.ssd_fraction)
        assert r_one.realized_tco == r_sim.realized_tco
        assert r_one.peak_ssd_used == r_sim.peak_ssd_used
        assert r_one.n_spilled == r_sim.n_spilled
        assert r_one.n_shards == r_sim.n_shards == 1

    def test_run_placement_validates(self, small_trace):
        policy = FirstFitPolicy()
        with pytest.raises(ValueError):
            run_placement(small_trace, policy, -1.0)
        with pytest.raises(ValueError):
            run_placement(small_trace, policy, 1 * GIB, n_shards=0)
        with pytest.raises(ValueError):
            run_placement(small_trace, policy, 1 * GIB, engine="warp")

    def test_validation_precedes_drain(self):
        """Bad arguments are refused before the source is read at all —
        a bad lane count or engine name must not cost a full pass over
        an out-of-core source."""

        class DrainRaises(TraceSource):
            opened = 0

            def blocks(self):
                self.opened += 1
                raise AssertionError("source drained before validation")

        src = DrainRaises()
        for kwargs in (
            {"engine": "compiled"},
            {"n_shards": 0},
            {"capacity": -1.0},
        ):
            args = {"capacity": 1 * GIB, **kwargs}
            with pytest.raises(ValueError):
                run_placement(src, FirstFitPolicy(), **args)
        assert src.opened == 0


CAPACITIES = (0.0, 2 * GIB, 40 * GIB, 400 * GIB, 1e18)


class TestShardedEngineEquivalence:
    """Chunked sharded == legacy sharded for every batched policy."""

    @pytest.mark.parametrize("n_shards", (1, 3, 8))
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_all_policies(self, n_shards, capacity):
        trace = random_trace(1)
        for name, build in make_policy_builders(trace, 1).items():
            r_legacy = simulate_sharded(
                trace, build(), capacity, n_shards, engine="legacy"
            )
            r_chunked = simulate_sharded(
                trace, build(), capacity, n_shards, engine="chunked"
            )
            assert_same_result(
                r_legacy, r_chunked, capacity,
                label=f"{name} n_shards={n_shards} cap={capacity:.3g}",
            )

    def test_imitation_rides_the_fast_path(self):
        """ImitationPolicy's decide_batch: whole-trace replay chunks."""
        trace = random_trace(2, n=200)

        class _StubModel:
            def predict(self, feats):
                return np.arange(len(trace)) % 3 == 0

        policy = ImitationPolicy(_StubModel(), features=None)
        calls = []
        orig = policy.decide_batch
        policy.decide_batch = lambda first, ctx: (
            calls.append(first) or orig(first, ctx)
        )
        cap = 20 * GIB
        r_fast = simulate(trace, policy, cap)
        assert calls, "auto engine must use the batch protocol"
        r_ref = simulate(
            trace, ImitationPolicy(_StubModel(), features=None), cap, engine="legacy"
        )
        assert_same_result(r_ref, r_fast, cap, label="imitation")
        # Sharded, both engines:
        for n_shards in (2, 5):
            a = simulate_sharded(
                trace, ImitationPolicy(_StubModel(), None), cap, n_shards,
                engine="legacy",
            )
            b = simulate_sharded(
                trace, ImitationPolicy(_StubModel(), None), cap, n_shards,
                engine="chunked",
            )
            assert_same_result(a, b, cap, label=f"imitation n_shards={n_shards}")


class TestFeedbackPathUnified:
    """Both engines must feed the policy identical outcomes."""

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_adaptive_trajectory_and_shard_counters(self, n_shards):
        trace = random_trace(3)
        cats = np.random.default_rng(3).integers(0, 8, len(trace))
        params = AdaptiveParams(decision_interval=700.0, lookback_window=4000.0)
        cap = 25 * GIB

        p_legacy = AdaptiveCategoryPolicy(cats, 8, params)
        simulate_sharded(trace, p_legacy, cap, n_shards, engine="legacy")
        p_chunked = AdaptiveCategoryPolicy(cats, 8, params)
        simulate_sharded(trace, p_chunked, cap, n_shards, engine="chunked")

        assert len(p_legacy.trajectory) == len(p_chunked.trajectory)
        for a, b in zip(p_legacy.trajectory, p_chunked.trajectory):
            assert a.time == b.time
            assert a.act == b.act
            assert a.spillover == pytest.approx(b.spillover, abs=1e-12)

        # The per-shard feedback (observe vs observe_batch) is identical.
        assert np.array_equal(p_legacy.shard_spills, p_chunked.shard_spills)
        assert np.array_equal(
            p_legacy.shard_ssd_requested, p_chunked.shard_ssd_requested
        )
        assert p_legacy.shard_spills.size == n_shards
        assert int(p_legacy.shard_ssd_requested.sum()) > 0

    def test_spills_spread_across_shards(self):
        """Under pressure, every loaded shard reports its own spills."""
        trace = random_trace(4)
        cats = np.full(len(trace), 5)
        policy = AdaptiveCategoryPolicy(cats, 8)
        res = simulate_sharded(trace, policy, 4 * GIB, n_shards=4)
        assert res.n_spilled > 0
        assert int(policy.shard_spills.sum()) == res.n_spilled
        assert (policy.shard_spills > 0).sum() >= 2


class TestBindingChunks:
    """Only a binding lane's candidates count as scalar fallbacks."""

    def _binding_setting(self, n=200, monster=100):
        # One chunk (static replay), capacity binds exactly once in the
        # middle: short 1 GiB jobs stream through a 16 GiB pool, and
        # job ``monster`` is an 80 GiB job that binds.
        jobs = []
        for i in range(n):
            size = 80 * GIB if i == monster else 1 * GIB
            jobs.append(
                make_job(i, arrival=10.0 * i, duration=40.0, size=size)
            )
        trace = Trace(jobs)
        return trace, np.ones(len(trace), dtype=bool)

    def test_binding_chunk_partial_scalar(self):
        trace, decisions = self._binding_setting()
        cap = 16 * GIB
        res = simulate(trace, FixedPolicy(decisions), cap, engine="chunked")
        ref = simulate(trace, FixedPolicy(decisions), cap, engine="legacy")
        assert_same_result(ref, res, cap, label="binding chunk")
        assert res.n_spilled == 1
        # Every candidate of the binding lane counts as a fallback.
        assert res.scalar_fallback_jobs == res.n_ssd_requested

    def test_binding_lane_beside_clean_lane(self):
        """Only the binding lane's candidates count as scalar fallbacks,
        in one process and in a fleet with one lane per worker."""
        n, monster = 300, 150
        jobs = [
            make_job(
                i, arrival=10.0 * i, duration=40.0,
                size=80 * GIB if i == monster else 1 * GIB,
                pipeline="binding" if i % 2 == 0 else "clean",
            )
            for i in range(n)
        ]
        trace = Trace(jobs)
        lanes = assign_shards(trace, 2)
        assert np.array_equal(lanes, np.arange(n) % 2)
        n_binding = int(np.count_nonzero(lanes == 0))
        caps = np.array([16 * GIB, 1e18])
        decisions = np.ones(n, dtype=bool)
        res = simulate_sharded(
            trace, FixedPolicy(decisions), caps, 2, engine="chunked"
        )
        ref = simulate_sharded(
            trace, FixedPolicy(decisions), caps, 2, engine="legacy"
        )
        assert_same_result(ref, res, caps.sum(), label="binding + clean")
        assert res.n_spilled == 1
        assert res.scalar_fallback_jobs == n_binding

        def counters(svc):
            svc.open(trace)
            svc.submit_batch(trace.arrivals, trace.durations, trace.sizes,
                             pipelines=trace.pipelines)
            svc.drain()
            return svc.kernel.counters()

        single = counters(
            PlacementService(FixedPolicy(decisions), caps, 2, mode="batch")
        )
        fleet = FleetRouter(
            FixedPolicy(decisions), caps, 2, mode="batch", n_workers=2
        )
        try:
            assert counters(fleet) == single
        finally:
            fleet.close()
        assert single["scalar_fallback_jobs"] == n_binding

    def test_clean_chunk_reports_zero_scalar(self):
        trace, decisions = self._binding_setting()
        res = simulate(trace, FixedPolicy(decisions), 1e18, engine="chunked")
        assert res.scalar_fallback_jobs == 0
        assert res.n_spilled == 0

    def test_zero_capacity_stays_exact(self):
        trace, decisions = self._binding_setting()
        res = simulate(trace, FixedPolicy(decisions), 0.0, engine="chunked")
        ref = simulate(trace, FixedPolicy(decisions), 0.0, engine="legacy")
        assert_same_result(ref, res, 0.0, label="zero capacity")
        assert res.n_spilled == len(trace)

    @pytest.mark.parametrize("seed", (5, 6))
    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_binding_random_traces_sharded(self, seed, n_shards):
        """Tight capacity binds many chunks on every lane; results stay
        exact."""
        trace = random_trace(seed, n=400)
        decisions = np.random.default_rng(seed).random(len(trace)) < 0.7
        cap = 10 * GIB
        a = simulate_sharded(
            trace, FixedPolicy(decisions), cap, n_shards, engine="legacy"
        )
        b = simulate_sharded(
            trace, FixedPolicy(decisions), cap, n_shards, engine="chunked"
        )
        assert_same_result(a, b, cap, label=f"seed={seed} n_shards={n_shards}")
        assert b.n_spilled > 0  # capacity really binds


class TestHeterogeneousCapacity:
    """Per-shard capacity vectors through both engines."""

    SKEWS = ((2.0, 1.0, 0.5), (4.0, 1.0, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("weights", SKEWS)
    def test_engines_agree_on_skewed_layouts(self, weights):
        trace = random_trace(11)
        n_shards = len(weights)
        total = 30 * GIB
        caps = total * np.asarray(weights) / sum(weights)
        for name, build in make_policy_builders(trace, 11).items():
            a = simulate_sharded(trace, build(), caps, n_shards, engine="legacy")
            b = simulate_sharded(trace, build(), caps, n_shards, engine="chunked")
            assert_same_result(a, b, total, label=f"{name} weights={weights}")
            assert np.array_equal(a.lane_capacities, caps)
            assert np.array_equal(b.lane_capacities, caps)
            assert a.capacity == pytest.approx(total)

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    def test_uniform_vector_matches_scalar_split(self, engine):
        """An explicit even vector places exactly like the scalar split."""
        trace = random_trace(12)
        decisions = np.random.default_rng(12).random(len(trace)) < 0.7
        total, n_shards = 20 * GIB, 4
        r_scalar = simulate_sharded(
            trace, FixedPolicy(decisions), total, n_shards, engine=engine
        )
        r_vector = simulate_sharded(
            trace,
            FixedPolicy(decisions),
            np.full(n_shards, total / n_shards),
            n_shards,
            engine=engine,
        )
        assert np.array_equal(r_vector.ssd_fraction, r_scalar.ssd_fraction)
        assert r_vector.n_spilled == r_scalar.n_spilled
        assert r_vector.peak_ssd_used == pytest.approx(r_scalar.peak_ssd_used)
        assert np.array_equal(
            r_scalar.lane_capacities, np.full(n_shards, total / n_shards)
        )

    def test_context_reports_own_lane_capacity(self):
        """Each job's context carries *its* lane's slice, not an average."""
        from repro.storage import assign_shards
        from repro.storage.policy import Decision, PlacementPolicy

        trace = random_trace(13, n=80)
        caps = np.array([6.0, 2.0, 1.0]) * GIB
        shards = assign_shards(trace, 3)
        seen = {}

        class Probe(PlacementPolicy):
            name = "probe"

            def decide(self, job_index, ctx):
                seen[job_index] = ctx.capacity
                return Decision(want_ssd=False)

        simulate_sharded(trace, Probe(), caps, 3, engine="legacy")
        assert len(seen) == len(trace)
        for i, cap in seen.items():
            assert cap == pytest.approx(float(caps[shards[i]]))

    def test_skew_changes_placements_under_pressure(self):
        """A skewed layout really behaves differently from the even split."""
        trace = random_trace(14)
        decisions = np.ones(len(trace), dtype=bool)
        total = 0.05 * trace.peak_ssd_usage()
        even = simulate_sharded(trace, FixedPolicy(decisions), total, 4)
        skew = simulate_sharded(
            trace,
            FixedPolicy(decisions),
            total * np.array([0.7, 0.1, 0.1, 0.1]),
            4,
        )
        assert not np.array_equal(even.ssd_fraction, skew.ssd_fraction)

    def test_capacity_vector_validation(self, small_trace):
        policy = FirstFitPolicy()
        with pytest.raises(ValueError):
            run_placement(small_trace, policy, np.array([1.0, 2.0]), n_shards=3)
        with pytest.raises(ValueError):
            run_placement(small_trace, policy, np.array([1.0, -2.0]), n_shards=2)


class TestEdgeHardening:
    """Empty traces, more shards than jobs, and zero capacity."""

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    @pytest.mark.parametrize("n_shards", (1, 3))
    def test_empty_trace(self, engine, n_shards):
        trace = Trace([], name="empty")
        res = run_placement(
            trace,
            FixedPolicy(np.zeros(0, dtype=bool)),
            4 * GIB,
            n_shards=n_shards,
            engine=engine,
        )
        assert res.n_jobs == 0
        assert res.ssd_fraction.shape == (0,)
        assert res.n_spilled == 0
        assert res.peak_ssd_used == 0.0
        assert res.tco_savings_pct == 0.0

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    def test_empty_trace_adaptive(self, engine):
        trace = Trace([], name="empty")
        policy = AdaptiveCategoryPolicy(np.zeros(0, dtype=int), 5)
        res = run_placement(trace, policy, 1 * GIB, n_shards=2, engine=engine)
        assert res.n_jobs == 0
        assert int(policy.shard_ssd_requested.sum()) == 0

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    def test_more_shards_than_jobs(self, engine):
        trace = random_trace(15, n=5)
        for capacity in (40 * GIB, np.full(8, 5.0 * GIB)):
            a = simulate_sharded(trace, FirstFitPolicy(), capacity, 8, engine=engine)
            assert a.n_shards == 8
            assert a.n_jobs == 5
        r_legacy = simulate_sharded(trace, FirstFitPolicy(), 40 * GIB, 8, engine="legacy")
        r_chunked = simulate_sharded(trace, FirstFitPolicy(), 40 * GIB, 8, engine="chunked")
        assert_same_result(r_legacy, r_chunked, 40 * GIB, label="8 shards, 5 jobs")

    def test_zero_capacity_many_shards(self):
        trace = random_trace(16, n=100)
        for name, build in make_policy_builders(trace, 16).items():
            a = simulate_sharded(trace, build(), 0.0, 4, engine="legacy")
            b = simulate_sharded(trace, build(), 0.0, 4, engine="chunked")
            assert_same_result(a, b, 0.0, label=f"{name} zero capacity")
            assert a.peak_ssd_used == 0.0
            assert (a.ssd_fraction == 0.0).all()

    def test_zero_capacity_lane_spills_locally(self):
        """Jobs routed to a 0-byte lane spill even while peers have room."""
        from repro.storage import assign_shards

        trace = random_trace(17, n=200)
        caps = np.array([40.0, 0.0]) * GIB
        shards = assign_shards(trace, 2)
        res = simulate_sharded(
            trace, FixedPolicy(np.ones(len(trace), dtype=bool)), caps, 2
        )
        starved = shards == 1
        assert starved.any() and (~starved).any()
        assert (res.ssd_fraction[starved] == 0.0).all()
        assert (res.ssd_fraction[~starved] > 0.0).any()


class TestPerShardAct:
    """Per-caching-server adaptive thresholds (lane-wise Algorithm 1)."""

    def _policy(self, trace, seed, per_shard_act=True):
        cats = np.random.default_rng(seed + 1000).integers(0, 8, len(trace))
        params = AdaptiveParams(decision_interval=700.0, lookback_window=4000.0)
        return AdaptiveCategoryPolicy(cats, 8, params, per_shard_act=per_shard_act)

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_engines_agree(self, n_shards):
        trace = random_trace(21)
        cap = 8 * GIB
        p_legacy = self._policy(trace, 21)
        a = simulate_sharded(trace, p_legacy, cap, n_shards, engine="legacy")
        p_chunked = self._policy(trace, 21)
        b = simulate_sharded(trace, p_chunked, cap, n_shards, engine="chunked")
        assert_same_result(a, b, cap, label=f"per-shard ACT n_shards={n_shards}")
        if n_shards == 1:
            # One lane: the flag is inert, the global algorithm runs.
            assert p_legacy.act_lanes is None and p_chunked.act_lanes is None
        else:
            assert np.array_equal(p_legacy.act_lanes, p_chunked.act_lanes)
        assert len(p_legacy.trajectory) == len(p_chunked.trajectory)
        for ea, eb in zip(p_legacy.trajectory, p_chunked.trajectory):
            assert (ea.time, ea.act, ea.shard) == (eb.time, eb.act, eb.shard)
            assert ea.spillover == pytest.approx(eb.spillover, abs=1e-12)

    def test_engines_agree_on_skewed_layout(self):
        trace = random_trace(22)
        caps = 12 * GIB * np.array([2.0, 1.0, 0.5]) / 3.5
        a = simulate_sharded(trace, self._policy(trace, 22), caps, 3, engine="legacy")
        b = simulate_sharded(trace, self._policy(trace, 22), caps, 3, engine="chunked")
        assert_same_result(a, b, 12 * GIB, label="per-shard ACT skewed")

    def test_lane_thresholds_diverge_under_skew(self):
        """A starved lane raises its own ACT; an oversized one relaxes."""
        trace = random_trace(23)
        policy = self._policy(trace, 23)
        caps = np.array([1e18, 0.5 * GIB])
        simulate_sharded(trace, policy, caps, 2)
        assert policy.act_lanes is not None
        assert policy.act_lanes.size == 2
        assert int(policy.act_lanes[1]) > int(policy.act_lanes[0])
        shards_seen = {e.shard for e in policy.trajectory}
        assert shards_seen == {0, 1}

    def test_differs_from_global_threshold(self):
        """The ablation axis is real: per-shard ACT changes placements."""
        trace = random_trace(24)
        cap = 6 * GIB
        r_global = simulate_sharded(
            trace, self._policy(trace, 24, per_shard_act=False), cap, 4
        )
        r_lane = simulate_sharded(trace, self._policy(trace, 24), cap, 4)
        assert not np.array_equal(r_global.ssd_fraction, r_lane.ssd_fraction)

    def test_inert_without_sharding(self):
        """Unsharded runs with the flag set keep the global algorithm."""
        trace = random_trace(26)
        r_flag = simulate(trace, self._policy(trace, 26), 6 * GIB)
        r_plain = simulate(trace, self._policy(trace, 26, per_shard_act=False), 6 * GIB)
        assert np.array_equal(r_flag.ssd_fraction, r_plain.ssd_fraction)
        assert r_flag.n_spilled == r_plain.n_spilled

    def test_global_mode_untouched_by_default(self):
        trace = random_trace(25)
        policy = self._policy(trace, 25, per_shard_act=False)
        simulate_sharded(trace, policy, 10 * GIB, 4)
        assert policy.act_lanes is None
        assert all(e.shard == -1 for e in policy.trajectory)


class TestShardedSemantics:
    """Runtime-level invariants of the lane accountant."""

    def test_lane_capacity_context(self):
        """Policies see the shard-local slice, not the global pool."""
        seen = []

        class Probe(FixedPolicy):
            def decide_batch(self, first, ctx):
                seen.append((ctx.free_ssd, ctx.capacity))
                return super().decide_batch(first, ctx)

        trace = random_trace(8, n=50)
        simulate_sharded(
            trace, Probe(np.ones(len(trace), dtype=bool)), 8 * GIB, n_shards=4
        )
        assert seen and all(c == pytest.approx(2 * GIB) for _, c in seen)

    def test_fragmentation_only_loses(self):
        trace = random_trace(9)
        decisions = np.ones(len(trace), dtype=bool)
        cap = 0.05 * trace.peak_ssd_usage()
        whole = simulate_sharded(trace, FixedPolicy(decisions), cap, 1)
        split = simulate_sharded(trace, FixedPolicy(decisions), cap, 8)
        assert split.tcio_savings_pct <= whole.tcio_savings_pct + 1e-9
        assert split.n_shards == 8


class TestLedgerBytes:
    """The one conversion into the integer byte ledger."""

    def test_rounding_rules(self):
        from repro.storage.engine import ledger_bytes

        assert ledger_bytes(0.2) == 1 and ledger_bytes(0.0) == 0
        assert ledger_bytes(2.5, round_up=False) == 2
        out = ledger_bytes(np.array([0.5, 3.0, 7.25]))
        assert out.dtype == np.int64 and out.tolist() == [1, 3, 8]
        # Capacities too large for float64 to count saturate; sizes raise.
        assert ledger_bytes(1e18, round_up=False) == 2**53 - 1
        assert ledger_bytes(np.array([1e18]), round_up=False)[0] == 2**53 - 1
        for bad in (np.nan, np.inf, 2.0**53):
            with pytest.raises(ValueError, match="byte count"):
                ledger_bytes(bad)
            with pytest.raises(ValueError, match="byte count"):
                ledger_bytes(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="byte count"):
            ledger_bytes(np.inf, round_up=False)

    def test_partial_fit_takes_whole_free_bytes(self):
        """A fractional capacity floors and a fractional size ceils, so
        a job of 2.2 bytes on a 3.9-byte lane holds 3 bytes and spills
        the next one; both engines agree."""
        trace = Trace([make_job(i, arrival=float(i), size=2.2) for i in range(3)])
        for engine in ("legacy", "chunked"):
            res = simulate(
                trace, FixedPolicy(np.ones(3, dtype=bool)), 3.9, engine=engine
            )
            assert res.peak_ssd_used == 3.0, engine
            assert res.ssd_fraction.tolist() == [1.0, 0.0, 0.0], engine
            assert res.n_spilled == 2, engine
