"""Chunked simulator engine: equivalence with the legacy per-job loop.

Every batched policy is driven through both engines on randomized
traces across capacity regimes (abundant, binding, zero) and the full
:class:`SimResult` surface is compared to float tolerance — including
per-job SSD fractions and, for the adaptive policy, the exact ACT
trajectory.  Random mask chunks also drive :class:`ChunkKernel`
directly against a :class:`ScalarKernel` per-job loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import CategoryAdmissionPolicy, FirstFitPolicy, LifetimePolicy
from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy
from repro.storage import BatchDecision, FixedPolicy, simulate
from repro.storage.engine import (
    ChunkKernel, ScalarKernel, _LaneState, ledger_bytes,
)
from repro.units import GIB
from repro.workloads import Trace

from helpers import make_job


def random_trace(seed: int, n: int = 800, span: float = 100_000.0) -> Trace:
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


def assert_equivalent(trace, make_policy, capacity, ttl=False):
    p_legacy = make_policy()
    r_legacy = simulate(trace, p_legacy, capacity, engine="legacy")
    p_chunked = make_policy()
    r_chunked = simulate(trace, p_chunked, capacity, engine="chunked")

    assert r_chunked.n_ssd_requested == r_legacy.n_ssd_requested
    assert r_chunked.n_spilled == r_legacy.n_spilled
    # The integer byte ledger makes admission and peak exact.
    assert r_chunked.peak_ssd_used == r_legacy.peak_ssd_used
    if ttl:
        # A TTL-bounded job's time fraction is ((t + held) - t) / duration
        # in the legacy loop and held / duration in the chunked engine.
        np.testing.assert_allclose(
            r_chunked.ssd_fraction, r_legacy.ssd_fraction, atol=1e-9, rtol=1e-9
        )
        assert r_chunked.realized_tco == pytest.approx(r_legacy.realized_tco, rel=1e-9)
        assert r_chunked.realized_hdd_tcio == pytest.approx(
            r_legacy.realized_hdd_tcio, rel=1e-9
        )
    else:
        assert np.array_equal(r_chunked.ssd_fraction, r_legacy.ssd_fraction)
        assert r_chunked.realized_tco == r_legacy.realized_tco
        assert r_chunked.realized_hdd_tcio == r_legacy.realized_hdd_tcio
    return p_legacy, p_chunked


CAPACITIES = (0.0, 2 * GIB, 40 * GIB, 400 * GIB, 1e18)


class TestAdaptiveEquivalence:
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_placements_and_trajectory(self, seed, capacity):
        trace = random_trace(seed)
        rng = np.random.default_rng(seed + 100)
        cats = rng.integers(0, 8, len(trace))
        params = AdaptiveParams(decision_interval=700.0, lookback_window=4000.0)

        def build():
            return AdaptiveCategoryPolicy(cats, 8, params)

        p_legacy, p_chunked = assert_equivalent(trace, build, capacity)
        assert len(p_legacy.trajectory) == len(p_chunked.trajectory)
        for a, b in zip(p_legacy.trajectory, p_chunked.trajectory):
            assert a.time == b.time
            assert a.act == b.act
            assert a.spillover == pytest.approx(b.spillover, abs=1e-12)

    def test_zero_decision_interval_updates_every_job(self):
        trace = random_trace(3, n=200)
        cats = np.random.default_rng(3).integers(0, 5, len(trace))
        params = AdaptiveParams(decision_interval=0.0, lookback_window=1000.0)
        policy = AdaptiveCategoryPolicy(cats, 5, params)
        simulate(trace, policy, 20 * GIB, engine="chunked")
        assert len(policy.trajectory) == len(trace)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_firstfit(self, capacity):
        trace = random_trace(11)
        assert_equivalent(trace, FirstFitPolicy, capacity)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_heuristic(self, capacity):
        trace = random_trace(12)
        train = random_trace(13)
        assert_equivalent(
            trace, lambda: CategoryAdmissionPolicy(train, refresh_interval=9000.0),
            capacity,
        )

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_fixed_replay(self, capacity):
        trace = random_trace(14)
        decisions = np.random.default_rng(14).random(len(trace)) < 0.5
        assert_equivalent(trace, lambda: FixedPolicy(decisions), capacity)

    @pytest.mark.parametrize("capacity", (2 * GIB, 40 * GIB, 1e18))
    def test_lifetime_ttl_eviction(self, capacity, small_trace):
        """TTL-bounded residency must survive the chunked rewrite."""
        from repro.baselines import LifetimeModel
        from repro.cost import DEFAULT_RATES
        from repro.workloads.features import extract_features

        features = extract_features(small_trace, DEFAULT_RATES)
        model = LifetimeModel(n_rounds=4).fit(features, small_trace.durations)
        assert_equivalent(
            small_trace, lambda: LifetimePolicy(model, features), capacity,
            ttl=True,
        )


class TestEngineDispatch:
    def test_auto_uses_chunked_for_batched_policy(self, small_trace):
        cats = np.ones(len(small_trace), dtype=int)
        policy = AdaptiveCategoryPolicy(cats, 4)
        calls = []
        orig = policy.decide_batch
        policy.decide_batch = lambda first, ctx: calls.append(first) or orig(first, ctx)
        simulate(small_trace, policy, 10 * GIB)
        assert calls  # fast path actually taken

    def test_chunked_engine_rejects_unbatched_policy(self, small_trace):
        from repro.storage import Decision, PlacementPolicy

        class Plain(PlacementPolicy):
            def decide(self, job_index, ctx):
                return Decision(want_ssd=False)

        with pytest.raises(ValueError):
            simulate(small_trace, Plain(), 1 * GIB, engine="chunked")
        # auto falls back to the legacy loop silently
        res = simulate(small_trace, Plain(), 1 * GIB)
        assert res.n_ssd_requested == 0

    def test_unknown_engine_rejected(self, small_trace):
        with pytest.raises(ValueError):
            simulate(small_trace, FirstFitPolicy(), 1 * GIB, engine="warp")


class TestChunkProtocolEdges:
    def test_mask_chunks_with_equal_arrival_ties(self):
        """Jobs sharing one timestamp must split/admit exactly as legacy."""
        jobs = [
            make_job(i, arrival=float(100.0 * (i // 3)), duration=500.0, size=4 * GIB)
            for i in range(30)
        ]
        trace = Trace(jobs)
        cats = np.tile([1, 3, 2], 10)
        params = AdaptiveParams(decision_interval=100.0, lookback_window=900.0)
        assert_equivalent(
            trace, lambda: AdaptiveCategoryPolicy(cats, 4, params), 10 * GIB
        )

    def test_zero_size_jobs(self):
        jobs = [
            make_job(i, arrival=10.0 * i, duration=100.0, size=0.0) for i in range(8)
        ]
        trace = Trace(jobs)
        decisions = np.ones(8, dtype=bool)
        assert_equivalent(trace, lambda: FixedPolicy(decisions), 1 * GIB)

    def test_batch_decision_count_clamped_to_trace(self):
        """A policy over-reporting count must not run off the trace end."""

        class Greedy(FixedPolicy):
            def decide_batch(self, first, ctx):
                return BatchDecision(
                    count=10_000, want_ssd=self.decisions[first:]
                )

        jobs = [make_job(i, arrival=10.0 * i, size=1 * GIB) for i in range(20)]
        trace = Trace(jobs)
        res = simulate(
            trace, Greedy(np.ones(20, dtype=bool)), 1e18, engine="chunked"
        )
        assert res.n_ssd_requested == 20


_release = st.tuples(
    st.sampled_from((0.0, 5.0, 5.0, 10.0, 30.0)),  # few times: ties
    st.integers(0, 2),
    st.sampled_from((1, 7, 250, -7, -250)),  # negatives: cancel entries
)


class TestPendingReleaseHeap:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(st.lists(_release, max_size=8), min_size=1, max_size=5),
        cuts=st.lists(st.sampled_from((-1.0, 0.0, 5.0, 12.0, 40.0)), min_size=5, max_size=5),
    )
    def test_pops_in_time_then_insertion_order(self, batches, cuts):
        """Entries at or before a cut pop in (time, insertion) order and
        apply to their lanes; the rest stay pending."""
        state = _LaneState(np.full(3, 10**6, dtype=np.int64))
        pending = []  # (time, insertion index, lane, bytes)
        made = 0
        for batch, cut in zip(batches, cuts):
            if batch:
                state.push_all(*zip(*batch))
            pending += [(t, made + k, lane, a) for k, (t, lane, a) in enumerate(batch)]
            made += len(batch)
            free = state.free.tolist()
            got = state.release_until(cut)
            due = sorted(e for e in pending if e[0] <= cut)
            pending = [e for e in pending if e[0] > cut]
            assert got == due
            for _, _, lane, a in due:
                free[lane] += a
            assert state.free.tolist() == free
            assert sorted(state.heap) == sorted(pending)
        assert state.seq == made

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from((5.0, 5.0, 10.0, 30.0)), st.integers(0, 1),
                      st.sampled_from((1, 7, 250))),
            max_size=12,
        ),
        cancels=st.lists(st.integers(0, 11), max_size=4),
        cap=st.sampled_from((0.0, 100.0, 300.0)),
    )
    def test_eviction_takes_the_latest_time_then_insertion_first(
        self, entries, cancels, cap
    ):
        """A shrink evicts the lane's live entries (a cancel nets out the
        earliest equal entry) from the latest ``(time, seq)`` down."""
        kern = ChunkKernel(np.full(2, 10**4, dtype=float))
        st_ = kern.st
        if entries:
            st_.push_all(*zip(*entries))
        st_.free -= np.bincount(
            [lane for _, lane, _ in entries],
            weights=[a for _, _, a in entries], minlength=2,
        ).astype(np.int64)
        live = [(t, k, lane, a) for k, (t, lane, a) in enumerate(entries)]
        for k in dict.fromkeys(cancels):
            if k < len(entries):
                t, lane, a = entries[k]
                kern.cancel(lane, a, t)
                # The earliest equal entry on the lane is the one netted.
                live.remove(next(e for e in live if e[0::2] == (t, lane) and e[3] == a))
        free = int(kern.free[0]) + int(cap) - 10**4
        want = []
        for t, _, _, a in sorted((e for e in live if e[2] == 0), reverse=True):
            if free >= 0:
                break
            free += a
            want.append((t, a))
        assert kern.resize_lane(0, cap) == want
        assert int(kern.free[0]) == free
        assert kern.n_evicted == len(want)


@st.composite
def mask_runs(draw):
    n = draw(st.integers(1, 40))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    n_lanes = draw(st.integers(1, 4))
    chunks = []
    while sum(chunks) < n:
        chunks.append(draw(st.integers(1, 9)))
    chunks[-1] -= sum(chunks) - n
    return {
        # A coarse integer grid: ties everywhere, and ``(t + held) - t``
        # equals ``held``, so TTL-bounded fractions compare exactly.
        "arrivals": np.cumsum(column(st.sampled_from((0, 0, 10, 20)))).astype(float),
        "durations": np.array(column(st.sampled_from((0.0, 5.0, 10.0, 30.0, 100.0)))),
        "sizes": np.array(column(st.sampled_from((0.0, 1.0, 2.5, 4.0, 7.3, 12.0)))),
        "lanes": np.array(column(st.integers(0, n_lanes - 1)), dtype=np.intp),
        "want": np.array(column(st.booleans())),
        "ttl": (
            np.array(column(st.sampled_from((np.nan, 0.0, 3.0, 1000.0))))
            if draw(st.booleans()) else None
        ),
        "caps": np.array(
            draw(st.lists(
                st.sampled_from((0.0, 3.0, 8.5, 20.0, 1e18)),
                min_size=n_lanes, max_size=n_lanes,
            ))
        ),
        "chunks": chunks,
        # Per chunk: a fit-check chunk (every row a candidate, admitted
        # only whole) instead of a mask chunk.
        "fit": draw(st.lists(
            st.booleans(), min_size=len(chunks), max_size=len(chunks)
        )),
    }


class TestMaskChunkKernel:
    """Every chunk equals the per-job scalar loop, job by job: a mask
    chunk admits its ``want_ssd`` rows, a fit-check chunk the rows whose
    whole size fits their lane after the releases due at arrival."""

    @settings(max_examples=300, deadline=None)
    @given(run=mask_runs())
    def test_mask_chunks_match_scalar_loop(self, run):
        t, dur, size = run["arrivals"], run["durations"], run["sizes"]
        lanes, want, ttl = run["lanes"], run["want"].copy(), run["ttl"]
        n = t.size
        kern = ChunkKernel(run["caps"])
        ref = ScalarKernel(run["caps"])
        frac = np.zeros(n)
        fallback = 0
        first = 0
        for count, fit in zip(run["chunks"], run["fit"]):
            stop = first + count
            kern.open_chunk(float(t[first]), int(lanes[first]))
            alloc_out = np.zeros(count, dtype=np.int64)
            release_out = np.full(count, np.nan)
            bd = BatchDecision(
                count, None if fit else want[first:stop],
                None if ttl is None else ttl[first:stop], fit_check=fit,
            )
            out = kern.run_chunk(
                bd, first, stop, t, dur, size, lanes, frac,
                alloc_out, release_out,
            )
            spilled_lanes = set()
            for k in range(count):
                i = first + k
                ref.release_until(t[i])
                if fit:
                    lane_free = ref.free[int(lanes[i])]
                    want[i] = ledger_bytes(float(size[i])) <= lane_free
                job_ttl = None if ttl is None or np.isnan(ttl[i]) else ttl[i]
                space, f, spill, alloc, rel = ref.admit(
                    i, t[i], size[i], dur[i], int(lanes[i]), bool(want[i]),
                    job_ttl,
                )
                assert out.requested_ssd[k] == want[i], i
                assert out.ssd_space_fraction[k] == space, i
                assert frac[i] == f, i
                if spill is None:
                    assert np.isnan(out.spill_time[k]), i
                else:
                    assert out.spill_time[k] == spill, i
                    spilled_lanes.add(int(lanes[i]))
                if want[i]:
                    assert alloc_out[k] == alloc, i
                    assert release_out[k] == rel, i
                else:
                    assert alloc_out[k] == 0, i
                    assert np.isnan(release_out[k]), i
            on_spilled = np.isin(lanes[first:stop], list(spilled_lanes))
            fallback += int(np.count_nonzero(want[first:stop] & on_spilled))
            # A chunk without candidates leaves its release window to the
            # next open_chunk; catch both kernels up to the chunk end.
            kern.open_chunk(float(t[stop - 1]), 0)
            ref.release_until(t[stop - 1])
            assert np.array_equal(kern.free, ref.free)
            assert kern.peak_used == ref.peak_used
            assert kern.n_spilled == ref.n_spilled
            assert kern.n_ssd_requested == ref.n_ssd_requested
            assert kern.scalar_fallback_jobs == fallback
            first = stop
