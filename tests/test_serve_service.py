"""Online placement service: replay identity, live events, checkpointing.

Pillars:

1. **Replay bit-identity** — submitting a trace through the service
   (request-at-a-time or any micro-batch slicing) reproduces the
   offline ``simulate``/``simulate_sharded`` run exactly, for every
   batched policy family, both engines, and 1/4/16 shards.  This is
   structural (the service drives the same incremental kernels), and
   these tests pin it bit-for-bit.
2. **Live semantics** — queueing/backpressure, early ``complete``
   events (including duplicate completes), and edge hardening (empty
   stream, zero-capacity lanes, out-of-order submissions).
3. **Checkpointing** — ``snapshot``/``restore`` round-trips mid-replay
   and resumes to the exact uninterrupted result.
"""

import pickle
from functools import partial

import numpy as np
import pytest

from repro.baselines import (
    CategoryAdmissionPolicy,
    FirstFitPolicy,
    LifetimeModel,
    LifetimePolicy,
)
from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy
from repro.cost import DEFAULT_RATES
from repro.serve import PlacementService
from repro.storage import FixedPolicy, simulate, simulate_sharded
from repro.units import GIB
from repro.workloads import Trace
from repro.workloads.features import extract_features
from repro.workloads.streaming import TraceBlock

from helpers import make_job


def random_trace(seed: int, n: int = 500, span: float = 100_000.0) -> Trace:
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


def make_policy_builders(trace, seed):
    """One builder per batched policy family (mirrors the runtime tests)."""
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


def assert_bit_identical(off, on, label=""):
    assert np.array_equal(on.ssd_fraction, off.ssd_fraction), label
    assert on.n_ssd_requested == off.n_ssd_requested, label
    assert on.n_spilled == off.n_spilled, label
    assert on.realized_tco == off.realized_tco, label
    assert on.realized_hdd_tcio == off.realized_hdd_tcio, label
    assert on.peak_ssd_used == off.peak_ssd_used, label
    assert on.baseline_tco == off.baseline_tco, label


class TestReplayIdentity:
    """Online replay == offline run, bit for bit."""

    @pytest.mark.parametrize("n_shards", (1, 4, 16))
    def test_scalar_mode_is_legacy_engine(self, n_shards):
        trace = random_trace(1)
        cap = 40 * GIB
        for name, build in make_policy_builders(trace, 1).items():
            off = (
                simulate(trace, build(), cap, engine="legacy")
                if n_shards == 1
                else simulate_sharded(trace, build(), cap, n_shards, engine="legacy")
            )
            svc = PlacementService(build(), cap, n_shards, mode="scalar")
            on = svc.replay(trace)
            assert_bit_identical(off, on, f"{name} x {n_shards} shards")

    @pytest.mark.parametrize("n_shards", (1, 4, 16))
    @pytest.mark.parametrize("batch_jobs", (1, 17, 100, None))
    def test_batch_mode_is_chunked_engine(self, n_shards, batch_jobs):
        trace = random_trace(2)
        cap = 40 * GIB
        for name, build in make_policy_builders(trace, 2).items():
            off = (
                simulate(trace, build(), cap, engine="chunked")
                if n_shards == 1
                else simulate_sharded(trace, build(), cap, n_shards, engine="chunked")
            )
            svc = PlacementService(build(), cap, n_shards, mode="batch")
            on = svc.replay(trace, batch_jobs=batch_jobs)
            assert_bit_identical(
                off, on, f"{name} x {n_shards} shards x batch {batch_jobs}"
            )

    def test_capacity_binding_replay(self):
        """Tight capacity (spill-heavy, scalar-fallback paths) stays exact."""
        trace = random_trace(3)
        cap = 2 * GIB
        cats = np.random.default_rng(5).integers(0, 6, len(trace))
        off = simulate(trace, AdaptiveCategoryPolicy(cats, 6), cap, engine="chunked")
        assert off.n_spilled > 0  # the regime under test
        svc = PlacementService(AdaptiveCategoryPolicy(cats, 6), cap, mode="batch")
        on = svc.replay(trace, batch_jobs=23)
        assert_bit_identical(off, on)
        assert on.scalar_fallback_jobs == off.scalar_fallback_jobs

    def test_heterogeneous_lane_replay(self):
        trace = random_trace(4)
        caps = np.array([2.0, 1.0, 1.0, 0.5]) * 10 * GIB
        cats = np.random.default_rng(6).integers(0, 6, len(trace))
        off = simulate_sharded(
            trace, AdaptiveCategoryPolicy(cats, 6, per_shard_act=True), caps, 4
        )
        svc = PlacementService(
            AdaptiveCategoryPolicy(cats, 6, per_shard_act=True), caps, 4, mode="batch"
        )
        on = svc.replay(trace, batch_jobs=50)
        assert_bit_identical(off, on)
        np.testing.assert_array_equal(on.lane_capacities, caps)

    def test_streamed_source_replay(self, tmp_path):
        """The replay entry point accepts sources/paths like the engine."""
        from repro.workloads import InMemoryTraceSource

        trace = random_trace(5, n=200)
        cap = 20 * GIB
        off = simulate(trace, FirstFitPolicy(), cap, engine="chunked")
        svc = PlacementService(FirstFitPolicy(), cap, mode="batch")
        on = svc.replay(InMemoryTraceSource(trace, block_size=64), batch_jobs=31)
        assert_bit_identical(off, on)


class TestQueueing:
    """Admission queueing and backpressure in batch mode."""

    def test_decisions_wait_for_policy_chunk(self):
        """A fixed policy declares the whole replay as one chunk, so
        nothing resolves until the chunk's last job arrives — the
        queue holds everything up to that point."""
        trace = random_trace(6, n=100)
        n = len(trace)
        decisions = np.ones(n, dtype=bool)
        svc = PlacementService(FixedPolicy(decisions), 50 * GIB, mode="batch")
        svc.open(trace)
        resolved = []
        for i in range(n - 1):
            resolved += svc.submit(
                arrival=trace.arrivals[i], duration=trace.durations[i],
                size=trace.sizes[i], pipeline=trace.pipelines[i],
            )
        assert resolved == []  # chunk (the whole replay) still incomplete
        assert svc.pending == n - 1
        # The last arrival completes the declared chunk: all resolve now.
        final = svc.submit(
            arrival=trace.arrivals[n - 1], duration=trace.durations[n - 1],
            size=trace.sizes[n - 1], pipeline=trace.pipelines[n - 1],
        )
        assert len(final) == n
        assert svc.pending == 0
        assert svc.drain() == []
        assert [d.index for d in final] == list(range(n))

    def test_max_pending_forces_chunks(self):
        trace = random_trace(7, n=120)
        decisions = np.ones(len(trace), dtype=bool)
        svc = PlacementService(
            FixedPolicy(decisions), 50 * GIB, mode="batch", max_pending=10
        )
        svc.open(trace)
        resolved = []
        for i in range(len(trace)):
            resolved += svc.submit(
                arrival=trace.arrivals[i], duration=trace.durations[i],
                size=trace.sizes[i], pipeline=trace.pipelines[i],
            )
            assert svc.pending <= 10
        assert svc.stats.forced_chunks > 0
        resolved += svc.drain()
        assert len(resolved) == len(trace)

    def test_adaptive_chunks_resolve_incrementally(self):
        """Interval-bounded policies resolve decisions as intervals
        close, without waiting for the whole stream."""
        trace = random_trace(8, n=300)
        cats = np.random.default_rng(1).integers(0, 6, len(trace))
        params = AdaptiveParams(decision_interval=500.0, lookback_window=2000.0)
        svc = PlacementService(
            AdaptiveCategoryPolicy(cats, 6, params), 20 * GIB, mode="batch"
        )
        svc.open(trace)
        resolved = 0
        for i in range(len(trace)):
            resolved += len(
                svc.submit(
                    arrival=trace.arrivals[i], duration=trace.durations[i],
                    size=trace.sizes[i], pipeline=trace.pipelines[i],
                )
            )
        assert resolved > 0  # chunks closed mid-stream
        svc.drain()
        assert svc.n_decided == len(trace)


class TestCompleteEvents:
    """Early completion frees space; duplicates are safe no-ops."""

    def _two_job_service(self, mode):
        return PlacementService(FirstFitPolicy(), 10 * GIB, mode=mode)

    @pytest.mark.parametrize("mode", ("scalar", "batch"))
    def test_complete_frees_space_early(self, mode):
        svc = self._two_job_service(mode)
        # Job 0 fills the pool for a long lifetime.
        d0 = svc.submit(
            arrival=0.0, duration=10_000.0, size=10 * GIB, job_id="a"
        ) + svc.drain()
        assert d0[0].requested_ssd
        assert svc.complete("a", time=10.0) is True
        # With the space back, a second full-pool job fits at t=20.
        d1 = svc.submit(
            arrival=20.0, duration=100.0, size=10 * GIB, job_id="b"
        ) + svc.drain()
        assert d1[0].requested_ssd and d1[0].ssd_space_fraction == 1.0
        assert svc.stats.n_completions == 1

    @pytest.mark.parametrize("mode", ("scalar", "batch"))
    def test_duplicate_complete_is_counted_noop(self, mode):
        svc = self._two_job_service(mode)
        svc.submit(arrival=0.0, duration=10_000.0, size=4 * GIB, job_id="a")
        if mode == "batch":
            svc.drain()
        assert svc.complete("a", time=1.0) is True
        free_after_first = svc.kernel.free.copy()
        assert svc.complete("a", time=2.0) is False  # duplicate: no double-free
        assert svc.complete("a") is False
        np.testing.assert_array_equal(svc.kernel.free, free_after_first)
        assert svc.stats.duplicate_completes == 2
        assert svc.stats.n_completions == 1

    def test_batch_complete_does_not_double_count(self):
        """Regression: the cancelled job's scheduled release must not be
        applied again without its compensation in a later chunk — a
        completed full-pool job frees its space exactly once."""
        svc = self._two_job_service("batch")
        svc.submit(arrival=0.0, duration=100.0, size=10 * GIB, job_id="a")
        svc.drain()
        assert svc.complete("a", time=10.0) is True
        # Job B arrives after A's *scheduled* release (t=100): with
        # correct accounting the pool holds exactly 10 GiB, so a
        # 15 GiB job must spill its unfit remainder.
        d = svc.submit(arrival=150.0, duration=10.0, size=15 * GIB, job_id="b")
        d = d + svc.drain()
        assert d[0].requested_ssd is False or d[0].ssd_space_fraction < 1.0
        res = svc.result()
        assert res.peak_ssd_used <= 10 * GIB + 1e-6

    def test_batch_job_ids_length_validated(self):
        svc = self._two_job_service("batch")
        with pytest.raises(ValueError, match="job_ids"):
            svc.submit_batch(
                np.array([0.0, 1.0]), np.array([10.0, 10.0]),
                np.array([1.0, 1.0]), job_ids=["only-one"],
            )

    def test_complete_unknown_job(self):
        svc = self._two_job_service("scalar")
        assert svc.complete("never-submitted") is False
        assert svc.stats.duplicate_completes == 1

    def test_complete_after_natural_release(self):
        svc = self._two_job_service("scalar")
        svc.submit(arrival=0.0, duration=5.0, size=1 * GIB, job_id="a")
        # Advance past the job's scheduled release.
        svc.submit(arrival=100.0, duration=5.0, size=1 * GIB, job_id="b")
        assert svc.complete("a") is False  # already released by timeout
        free = float(svc.kernel.free.sum())
        svc.complete("a")
        assert float(svc.kernel.free.sum()) == free

    def test_stale_complete_clamps_and_counts(self):
        """A ``complete`` timestamped *earlier* than the service clock is
        clamped to it (time never runs backwards) and counted."""
        svc = self._two_job_service("batch")
        svc.submit(arrival=0.0, duration=10_000.0, size=2 * GIB, job_id="a")
        svc.submit(arrival=500.0, duration=10_000.0, size=2 * GIB, job_id="b")
        svc.drain()  # clock is now at 500.0
        assert svc.complete("a", time=100.0) is True  # stale but freed
        assert svc.stats.stale_completes == 1
        assert svc.stats.n_completions == 1
        # The clock did not move back: a submission at t=200 (< 500)
        # would be out of order and is still rejected.
        with pytest.raises(ValueError, match="order"):
            svc.submit(arrival=200.0, duration=10.0, size=1 * GIB)

    def test_complete_between_now_and_open_chunk_horizon(self):
        """Regression for the horizon guard: batch mode can advance the
        kernel's release cursor past the service clock when a chunk
        opens.  A ``complete`` for a job whose scheduled release falls
        in that gap must be a no-op — the kernel already freed it when
        the cursor swept by — never a second free."""
        svc = self._two_job_service("batch")
        svc.submit(arrival=0.0, duration=100.0, size=10 * GIB, job_id="a")
        svc.drain()  # decided; scheduled release at t=100
        # Queue a job at t=150: opening its chunk sweeps the release
        # cursor (the horizon) past 150, releasing job a on the way.
        svc.submit(arrival=150.0, duration=10.0, size=1 * GIB, job_id="b")
        assert svc.complete("a") is False  # released by the sweep already
        svc.drain()
        assert float(svc.kernel.free.sum()) <= 10 * GIB + 1e-6

    def test_complete_routes_to_correct_lane(self):
        svc = PlacementService(FirstFitPolicy(), 8 * GIB, 4, mode="scalar")
        d = svc.submit(
            arrival=0.0, duration=10_000.0, size=1.5 * GIB,
            pipeline="pipeX", job_id="x",
        )[0]
        lane = d.shard
        before = svc.kernel.free.copy()
        assert svc.complete("x", time=1.0)
        after = svc.kernel.free
        assert after[lane] == pytest.approx(before[lane] + 1.5 * GIB)
        others = [k for k in range(4) if k != lane]
        np.testing.assert_array_equal(after[others], before[others])


class TestReleaseTime:
    """``PlacementDecision.release_time`` is the scheduled release that
    :meth:`~repro.serve.PlacementService.complete` would cancel."""

    @pytest.mark.parametrize("name", ("firstfit", "lifetime"))
    def test_release_time_matches_schedule_in_both_modes(self, name):
        trace = random_trace(61, n=300)
        if name == "lifetime":
            feats = extract_features(trace, DEFAULT_RATES)
            lt = LifetimeModel(n_rounds=3).fit(feats, trace.durations)
            # Admit every job; its predicted-lifetime TTL still bounds
            # the residency of the jobs that outlive the prediction.
            build = partial(LifetimePolicy, lt, feats, ttl=np.inf)
        else:
            build = FirstFitPolicy
        cap = 1e6 * GIB  # never binds: every SSD request fits in full
        jobs = list(trace)
        # The schedule, computed from the trace and the policy's TTLs.
        ttl = build()._bound if name == "lifetime" else np.full(len(trace), np.inf)
        t, dur = trace.arrivals, trace.durations
        expected = np.where(ttl < dur, t + np.maximum(ttl, 0.0), t + dur)
        releases = {}
        for mode in ("scalar", "batch"):
            svc = PlacementService(build(), cap, mode=mode)
            svc.open(trace)
            decisions, n_live = [], 0
            for b in range(0, len(jobs), 23):
                for d in svc.submit_jobs(jobs[b:b + 23]):
                    decisions.append(d)
                    entry = svc._live.get(d.job_id)
                    if entry is not None:
                        assert entry[3] == d.release_time, (mode, d)
                        n_live += 1
            decisions += list(svc.drain())
            assert [d.index for d in decisions] == list(range(len(trace)))
            placed = [d for d in decisions if d.ssd_space_fraction > 0]
            assert placed and n_live > 0
            for d in placed:
                assert d.release_time == expected[d.index], (mode, d)
            releases[mode] = [(d.index, d.release_time) for d in placed]
        assert releases["scalar"] == releases["batch"]
        if name == "lifetime":
            placed_idx = [i for i, _ in releases["batch"]]
            assert (ttl[placed_idx] < dur[placed_idx]).any()  # TTLs bind


class TestDecisionColumns:
    """A chunk's lazily built decisions equal, field by field and type
    by type, ``PlacementDecision`` built one field at a time."""

    @pytest.mark.parametrize("sharded", (False, True))
    def test_materialized_fields_and_types(self, sharded):
        from repro.serve.types import PlacementDecision, _DecisionBatch
        from repro.storage.policy import BatchOutcomes

        rng = np.random.default_rng(4)
        n, first = 9, 5
        spill = rng.uniform(0.0, 10.0, n)
        spill[rng.random(n) < 0.5] = np.nan
        out = BatchOutcomes(
            first=first,
            times=rng.uniform(0.0, 10.0, n),
            requested_ssd=rng.random(n) < 0.6,
            ssd_space_fraction=rng.random(n),
            spill_time=spill,
            shards=rng.integers(0, 4, n).astype(np.intp) if sharded else None,
        )
        rel = rng.uniform(10.0, 20.0, n)
        ids = list(range(first)) + [f"job-{k}" if k % 2 else k for k in range(n)]
        want = [
            PlacementDecision(
                index=first + k,
                job_id=ids[first + k],
                time=float(out.times[k]),
                shard=0 if out.shards is None else int(out.shards[k]),
                requested_ssd=bool(out.requested_ssd[k]),
                ssd_space_fraction=float(out.ssd_space_fraction[k]),
                spill_time=None if np.isnan(spill[k]) else float(spill[k]),
                release_time=float(rel[k]),
            )
            for k in range(n)
        ]
        got = list(_DecisionBatch(out, np.zeros(n, dtype=np.int64), rel, ids))
        assert got == want
        for g, w in zip(got, want):
            assert type(g) is PlacementDecision
            assert [type(v) for v in g] == [type(v) for v in w]
            assert g.job_id is w.job_id


def _submit_nothing(svc, entry):
    """One empty call to ``entry``; ``None`` makes no call (``submit``
    has no empty form: it always carries one job)."""
    none = np.zeros(0)
    if entry == "submit_batch":
        return svc.submit_batch(none, none, none)
    if entry == "submit_jobs":
        return svc.submit_jobs([])
    if entry == "submit_block":
        return svc.submit_block(TraceBlock(none, none, none, none, none, none))
    return []


#: Mode x empty entry point x categorizer x WAL; the plain case keeps
#: the bare mode as its id.
_EMPTY_CASES = [
    pytest.param(mode, entry, cat, wal, id="-".join(
        [mode] + [x for x in (entry, cat and "categorizer", wal and "wal") if x]
    ))
    for mode in ("scalar", "batch")
    for entry in (None, "submit_batch", "submit_jobs", "submit_block")
    for cat in (False, True)
    for wal in (False, True)
]


class TestEdgeHardening:
    @pytest.mark.parametrize("mode, entry, categorized, logged", _EMPTY_CASES)
    def test_empty_stream(self, mode, entry, categorized, logged, tmp_path):
        """An empty submission appends nothing and writes no WAL record."""
        seen = []
        svc = PlacementService(
            FirstFitPolicy(), 10 * GIB, mode=mode,
            categorizer=(lambda jobs: seen.append(jobs) or [0] * len(jobs))
            if categorized else None,
            wal=str(tmp_path / "e.wal") if logged else None,
        )
        assert len(_submit_nothing(svc, entry)) == 0
        assert svc.stats.n_submitted == len(svc.log) == svc.wal_seq == 0
        res = svc.result()
        assert seen == [] and svc.stats.n_submitted == 0
        if logged:
            svc.wal.close()
            assert (tmp_path / "e.wal").read_bytes() == b""
        assert res.n_jobs == 0
        assert res.tco_savings_pct == 0.0
        assert res.n_spilled == 0
        assert len(res.ssd_fraction) == 0

    @pytest.mark.parametrize("mode", ("scalar", "batch"))
    def test_empty_trace_replay(self, mode):
        trace = Trace([], name="empty")
        svc = PlacementService(FirstFitPolicy(), 10 * GIB, mode=mode)
        res = svc.replay(trace)
        off = simulate(
            trace, FirstFitPolicy(), 10 * GIB,
            engine="legacy" if mode == "scalar" else "chunked",
        )
        assert res.n_jobs == off.n_jobs == 0
        assert res.realized_tco == off.realized_tco

    def test_zero_capacity_lane(self):
        """A zero-capacity caching server spills everything routed to it."""
        caps = np.array([10 * GIB, 0.0])
        trace = random_trace(9, n=100)
        off = simulate_sharded(trace, FirstFitPolicy(), caps, 2)
        svc = PlacementService(FirstFitPolicy(), caps, 2, mode="batch")
        on = svc.replay(trace, batch_jobs=13)
        assert_bit_identical(off, on)

    def test_zero_total_capacity(self):
        svc = PlacementService(FirstFitPolicy(), 0.0, mode="scalar")
        d = svc.submit(arrival=0.0, duration=10.0, size=1 * GIB)[0]
        assert not d.requested_ssd  # nothing ever fits
        assert svc.result().peak_ssd_used == 0.0

    def test_out_of_order_submission_rejected(self):
        svc = PlacementService(FirstFitPolicy(), 10 * GIB, mode="scalar")
        svc.submit(arrival=100.0, duration=10.0, size=1 * GIB)
        with pytest.raises(ValueError, match="arrival-ordered"):
            svc.submit(arrival=50.0, duration=10.0, size=1 * GIB)

    def test_negative_job_rejected(self):
        svc = PlacementService(FirstFitPolicy(), 10 * GIB, mode="scalar")
        with pytest.raises(ValueError, match="negative"):
            svc.submit(arrival=0.0, duration=-1.0, size=1 * GIB)

    def test_batch_mode_requires_decide_batch(self):
        class ScalarOnly(FirstFitPolicy):
            decide_batch = None

        with pytest.raises(ValueError, match="decide_batch"):
            PlacementService(ScalarOnly(), 10 * GIB, mode="batch")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PlacementService(FirstFitPolicy(), 10 * GIB, mode="stream")

    def test_result_without_drain_raises(self):
        trace = random_trace(10, n=50)
        svc = PlacementService(
            FixedPolicy(np.ones(len(trace), dtype=bool)), 10 * GIB, mode="batch"
        )
        svc.open(trace)
        svc.submit(
            arrival=trace.arrivals[0], duration=trace.durations[0],
            size=trace.sizes[0], pipeline=trace.pipelines[0],
        )
        with pytest.raises(RuntimeError, match="queued"):
            svc.result(drain=False)
        svc.drain()
        assert svc.result(drain=False).n_jobs == 1

    def test_double_open_rejected(self):
        svc = PlacementService(FirstFitPolicy(), 10 * GIB)
        svc.open()
        with pytest.raises(RuntimeError, match="opened"):
            svc.open()


class TestSnapshotRestore:
    """Checkpointing: snapshot mid-replay, restore, resume, identical."""

    def _setup(self, seed, n_shards=1, mode="batch"):
        trace = random_trace(seed, n=400)
        cats = np.random.default_rng(seed).integers(0, 6, len(trace))
        params = AdaptiveParams(decision_interval=600.0, lookback_window=3000.0)
        cap = 15 * GIB
        build = lambda: AdaptiveCategoryPolicy(cats, 6, params)  # noqa: E731
        off = (
            simulate(trace, build(), cap,
                     engine="chunked" if mode == "batch" else "legacy")
            if n_shards == 1
            else simulate_sharded(
                trace, build(), cap, n_shards,
                engine="chunked" if mode == "batch" else "legacy",
            )
        )
        svc = PlacementService(build(), cap, n_shards, mode=mode)
        svc.open(trace)
        return trace, off, svc

    def _submit_range(self, svc, trace, lo, hi, step=37):
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            svc.submit_batch(
                trace.arrivals[a:b], trace.durations[a:b], trace.sizes[a:b],
                trace.read_bytes[a:b], trace.write_bytes[a:b],
                trace.read_ops[a:b], pipelines=trace.pipelines[a:b],
            )

    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_mid_replay_roundtrip_resume(self, n_shards):
        trace, off, svc = self._setup(11, n_shards)
        half = len(trace) // 2
        self._submit_range(svc, trace, 0, half)
        snap = svc.snapshot()

        # Path A: the original service finishes.
        self._submit_range(svc, trace, half, len(trace))
        res_a = svc.result()
        assert_bit_identical(off, res_a, "original")

        # Path B: a restored service finishes from the checkpoint.
        svc_b = PlacementService.restore(snap)
        self._submit_range(svc_b, trace, half, len(trace))
        res_b = svc_b.result()
        assert_bit_identical(off, res_b, "restored")

    def test_snapshot_is_isolated_from_original(self):
        trace, off, svc = self._setup(12)
        half = len(trace) // 2
        self._submit_range(svc, trace, 0, half)
        snap = svc.snapshot()
        n_at_snap = snap.n_submitted
        # Finishing the original must not disturb the checkpoint ...
        self._submit_range(svc, trace, half, len(trace))
        svc.result()
        assert snap.n_submitted == n_at_snap
        # ... and one snapshot restores more than once, identically.
        for _ in range(2):
            svc_r = PlacementService.restore(snap)
            self._submit_range(svc_r, trace, half, len(trace))
            assert_bit_identical(off, svc_r.result(), "re-restore")

    def test_snapshot_pickles(self):
        """On-disk checkpointing: the snapshot survives pickling."""
        trace, off, svc = self._setup(13)
        half = len(trace) // 2
        self._submit_range(svc, trace, 0, half)
        blob = pickle.dumps(svc.snapshot())
        svc_r = PlacementService.restore(pickle.loads(blob))
        self._submit_range(svc_r, trace, half, len(trace))
        assert_bit_identical(off, svc_r.result(), "pickled")

    @pytest.mark.parametrize("frac", (0.25, 0.5, 0.9))
    def test_snapshot_with_pending_jobs(self, frac):
        """Snapshot semantics with undecided jobs in the queue: pending
        submissions are part of the snapshot (``n_pending`` reports
        them), and a restored service resumes — queue intact — to the
        exact uninterrupted result without resubmitting them."""
        trace, off, svc = self._setup(15)
        # Cut at the first micro-batch boundary past ``frac`` where the
        # service actually holds undecided jobs (chunk boundaries are
        # policy-timed, so a fixed index could land on an empty queue).
        cut = None
        for a in range(0, len(trace), 37):
            b = min(a + 37, len(trace))
            self._submit_range(svc, trace, a, b, step=37)
            if b >= frac * len(trace) and svc.pending > 0:
                cut = b
                break
        assert cut is not None, "no pending-jobs cut point found"
        snap = svc.snapshot()
        assert snap.n_pending == svc.pending
        assert snap.n_pending > 0  # the regime under test
        assert snap.n_submitted == cut
        assert snap.n_decided == cut - snap.n_pending

        svc_r = PlacementService.restore(snap)
        assert svc_r.pending == snap.n_pending
        self._submit_range(svc_r, trace, cut, len(trace), step=37)
        assert_bit_identical(off, svc_r.result(), f"pending cut {cut}")

    def test_scalar_mode_snapshot(self):
        trace, off, svc = self._setup(14, mode="scalar")
        half = len(trace) // 2
        for i in range(half):
            svc.submit(
                arrival=trace.arrivals[i], duration=trace.durations[i],
                size=trace.sizes[i], read_bytes=trace.read_bytes[i],
                write_bytes=trace.write_bytes[i], read_ops=trace.read_ops[i],
                pipeline=trace.pipelines[i],
            )
        snap = svc.snapshot()
        svc_r = PlacementService.restore(snap)
        for i in range(half, len(trace)):
            svc_r.submit(
                arrival=trace.arrivals[i], duration=trace.durations[i],
                size=trace.sizes[i], read_bytes=trace.read_bytes[i],
                write_bytes=trace.write_bytes[i], read_ops=trace.read_ops[i],
                pipeline=trace.pipelines[i],
            )
        assert_bit_identical(off, svc_r.result(), "scalar restore")


class TestAggregateOnly:
    """Constant-memory results: aggregates identical, arrays dropped."""

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    def test_simulate_aggregate_only(self, engine):
        trace = random_trace(15, n=200)
        cats = np.random.default_rng(2).integers(0, 6, len(trace))
        full = simulate(trace, AdaptiveCategoryPolicy(cats, 6), 10 * GIB, engine=engine)
        agg = simulate(
            trace, AdaptiveCategoryPolicy(cats, 6), 10 * GIB, engine=engine,
            aggregate_only=True,
        )
        assert agg.ssd_fraction is None
        assert agg.aggregate_only and not full.aggregate_only
        for f in ("realized_tco", "baseline_tco", "realized_hdd_tcio",
                  "baseline_tcio", "n_ssd_requested", "n_spilled",
                  "peak_ssd_used", "n_jobs"):
            assert getattr(agg, f) == getattr(full, f), f
        assert agg.tco_savings_pct == full.tco_savings_pct

    def test_sharded_aggregate_only(self):
        trace = random_trace(16, n=200)
        full = simulate_sharded(trace, FirstFitPolicy(), 10 * GIB, 4)
        agg = simulate_sharded(
            trace, FirstFitPolicy(), 10 * GIB, 4, aggregate_only=True
        )
        assert agg.ssd_fraction is None
        assert agg.realized_tco == full.realized_tco
        np.testing.assert_array_equal(agg.lane_capacities, full.lane_capacities)

    def test_service_aggregate_only(self):
        trace = random_trace(17, n=200)
        svc = PlacementService(FirstFitPolicy(), 10 * GIB, mode="batch")
        svc.open(trace)
        svc.submit_batch(
            trace.arrivals, trace.durations, trace.sizes,
            trace.read_bytes, trace.write_bytes, trace.read_ops,
            pipelines=trace.pipelines,
        )
        res = svc.result(aggregate_only=True)
        full = simulate(trace, FirstFitPolicy(), 10 * GIB, engine="chunked")
        assert res.ssd_fraction is None
        assert res.realized_tco == full.realized_tco


def _submit_bad_size(svc, t, bad):
    svc.submit(arrival=t, duration=60.0, size=bad)


def _submit_batch_bad_size(svc, t, bad):
    svc.submit_batch(np.array([t, t]), np.ones(2), np.array([GIB, bad]))


def _submit_jobs_bad_size(svc, t, bad):
    svc.submit_jobs([make_job(0, arrival=t), make_job(1, arrival=t, size=bad)])


def _submit_block_bad_size(svc, t, bad):
    from repro.workloads.streaming import TraceBlock

    one = np.ones(1)
    svc.submit_block(TraceBlock(np.array([t]), one, np.array([bad]), one, one, one))


def _submit_batch_nan_column(col):
    def call(svc, t, bad):
        cols = [np.array([t]), np.ones(1), np.array([GIB]), np.ones(1),
                np.ones(1), np.ones(1)]
        cols[col] = np.array([np.nan])
        svc.submit_batch(*cols)
    return call


class TestNonFiniteInputs:
    """A NaN or infinite size, or NaN in any numeric column, is refused
    before any state changes: the service then serves on exactly as if
    the bad submission had never been made."""

    GOOD = 30

    def _service(self, mode):
        svc = PlacementService(FirstFitPolicy(), 6 * GIB, 2, mode=mode)
        svc.open()
        return svc

    def _feed(self, svc, trace, lo, hi):
        svc.submit_batch(
            trace.arrivals[lo:hi], trace.durations[lo:hi], trace.sizes[lo:hi],
            pipelines=trace.pipelines[lo:hi],
        )

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("call", (
        _submit_bad_size, _submit_batch_bad_size, _submit_jobs_bad_size,
        _submit_block_bad_size,
        *(_submit_batch_nan_column(c) for c in range(6)),
    ), ids=(
        "submit", "submit_batch", "submit_jobs", "submit_block",
        *(f"submit_batch_nan_column{c}" for c in range(6)),
    ))
    def test_submission_refused(self, mode, bad, call):
        trace = random_trace(8, n=self.GOOD * 2)
        ref = self._service(mode)
        self._feed(ref, trace, 0, len(trace))
        svc = self._service(mode)
        self._feed(svc, trace, 0, self.GOOD)
        with pytest.raises(ValueError):
            call(svc, float(trace.arrivals[self.GOOD]), bad)
        assert len(svc.log) == self.GOOD
        self._feed(svc, trace, self.GOOD, len(trace))
        assert_bit_identical(ref.result(), svc.result())

    @pytest.mark.parametrize("engine", ("legacy", "chunked"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_offline_run_refuses(self, engine, bad):
        jobs = [make_job(i, arrival=10.0 * i) for i in range(5)]
        jobs[3] = make_job(3, arrival=30.0, size=bad)
        with pytest.raises(ValueError, match="byte count"):
            simulate(Trace(jobs), FirstFitPolicy(), 4 * GIB, engine=engine)
