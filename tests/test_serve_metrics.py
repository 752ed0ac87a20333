"""Live metrics surface: histogram math, registry, scrape endpoint,
and the property that the snapshot equals the roll-up.

The load-bearing claim: every counter the service exposes is *pinned*
to the same authoritative sources the end-of-run
:class:`~repro.storage.engine.SimResult` is computed from, so after
``drain()`` the metrics snapshot is field-for-field consistent with the
roll-up — across policy x engine mode x worker count x transport,
through a mid-run capacity shock, and across WAL recovery.  Histogram
bucket counts are integers, so fleet merge is exact, associative and
commutative regardless of worker reply order.
"""

import os
import pickle
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy
from repro.serve import (
    AlertManager,
    FleetRouter,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    PlacementService,
    SloSpec,
    SnapshotMismatch,
    default_alert_rules,
    merge_states,
)
from repro.serve.metrics import LATENCY_BUCKETS_SECONDS, SIZE_BUCKETS_JOBS

from test_serve_service import (
    assert_bit_identical,
    make_policy_builders,
    random_trace,
)

CAP = 55e9


@pytest.fixture(scope="module")
def trace():
    return random_trace(21, n=240)


@pytest.fixture(scope="module")
def builders(trace):
    return make_policy_builders(trace, 21)


def _hist(buckets=(1.0, 2.0, 5.0)) -> Histogram:
    return Histogram("h", buckets=buckets)


class TestHistogramMath:
    def test_edge_placement_is_le(self):
        """Prometheus le semantics: a value exactly on an edge belongs
        to that edge's bucket."""
        h = _hist()
        for v in (0.5, 1.0):
            h.observe(v)
        assert h.counts == [2, 0, 0, 0]
        h.observe(1.0000001)
        assert h.counts == [2, 1, 0, 0]
        h.observe(2.0)
        h.observe(5.0)
        assert h.counts == [2, 2, 1, 0]
        h.observe(7.5)  # overflow bucket
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.max == 7.5

    def test_cumulative_snapshot_buckets(self):
        h = _hist()
        for v in (0.5, 1.5, 1.5, 3.0, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [
            (1.0, 1), (2.0, 3), (5.0, 4), (float("inf"), 5)
        ]
        assert snap["count"] == 5
        assert snap["max"] == 99.0

    def test_percentiles_return_bucket_edges(self):
        h = _hist()
        for _ in range(99):
            h.observe(0.5)
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 1.0
        h.observe(4.0)  # the 100th observation, rank 100 = p100..p99.5
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 1.0
        assert h.percentile(100) == 5.0

    def test_overflow_percentile_reports_tracked_max(self):
        h = _hist()
        h.observe(123.0)
        assert h.percentile(50) == 123.0
        assert h.percentile(99) == 123.0

    def test_empty_histogram(self):
        h = _hist()
        assert h.percentile(50) == 0.0
        assert h.snapshot()["count"] == 0
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(101)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())

    def test_trailing_inf_bucket_is_implicit(self):
        a = Histogram("h", buckets=(1.0, 2.0, float("inf")))
        b = Histogram("h", buckets=(1.0, 2.0))
        assert a.edges == b.edges
        assert len(a.counts) == 3

    def test_merge_hand_built(self):
        a, b = _hist(), _hist()
        for v in (0.1, 1.5, 9.0):
            a.observe(v)
        for v in (1.5, 4.0):
            b.observe(v)
        a.merge(b)
        assert a.counts == [1, 2, 1, 1]
        assert a.count == 5
        assert a.sum == pytest.approx(0.1 + 1.5 + 9.0 + 1.5 + 4.0)
        assert a.max == 9.0

    def test_merge_rejects_different_edges(self):
        a = _hist((1.0, 2.0))
        b = _hist((1.0, 3.0))
        with pytest.raises(ValueError, match="edges differ"):
            a.merge(b)

    def test_merge_associative_commutative_randomized(self):
        """Any grouping and order of partial merges yields identical
        bucket counts and percentiles (integer arithmetic)."""
        rng = np.random.default_rng(0)
        edges = tuple(sorted(rng.uniform(1e-6, 10.0, 6)))
        for _ in range(20):
            parts = []
            for _ in range(4):
                h = Histogram("h", buckets=edges)
                # Log-uniform values spanning under/over the edge range.
                for v in 10.0 ** rng.uniform(-7, 2, rng.integers(0, 40)):
                    h.observe(float(v))
                parts.append(h)

            def fold(order):
                acc = Histogram("h", buckets=edges)
                for i in order:
                    acc.merge(parts[i])
                return acc

            left = fold([0, 1, 2, 3])
            # ((0+1)+(2+3)) — a different association.
            ab = fold([0, 1])
            cd = fold([2, 3])
            ab.merge(cd)
            shuffled = fold(list(rng.permutation(4)))
            for other in (ab, shuffled):
                assert other.counts == left.counts
                assert other.count == left.count
                assert other.max == left.max
                for q in (0, 25, 50, 90, 99, 100):
                    assert other.percentile(q) == left.percentile(q)


class TestHistogramQuantile:
    """`quantile(q)` interpolates within integer buckets — the alerting
    layer's histogram reader, so it must be exact about which bucket a
    rank lands in and deterministic on merged fleet counts."""

    def test_interpolates_within_the_bucket(self):
        h = _hist((1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.5, 1.5, 4.0):  # counts [1, 3, 1, 0]
            h.observe(v)
        # rank 2.5 of 5 lands mid-bucket (1, 2]: cum 1, 1.5 of 3 in.
        assert h.quantile(0.5) == pytest.approx(1.0 + (2.5 - 1) / 3)
        # rank 1 lands in the first bucket, interpolated from 0.
        assert h.quantile(0.0) == pytest.approx(1.0 * 1 / 1)
        assert h.quantile(1.0) == pytest.approx(5.0)

    def test_overflow_bucket_reports_max(self):
        h = _hist((1.0,))
        h.observe(123.0)
        h.observe(456.0)
        assert h.quantile(0.99) == 456.0

    def test_empty_and_bounds(self):
        h = _hist()
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            h.quantile(1.5)

    def test_randomized_brackets_true_order_statistic(self):
        """The interpolated quantile always lives in the same bucket as
        the true order statistic it estimates, and is monotone in q."""
        rng = np.random.default_rng(7)
        edges = LATENCY_BUCKETS_SECONDS
        for _ in range(20):
            values = 10.0 ** rng.uniform(-7, 1.5, int(rng.integers(1, 200)))
            h = Histogram("h")
            for v in values:
                h.observe(float(v))
            ordered = np.sort(values)
            qs = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
            estimates = [h.quantile(q) for q in qs]
            assert estimates == sorted(estimates)
            for q, est in zip(qs, estimates):
                rank = max(q * len(ordered), 1.0)
                true = float(ordered[int(np.ceil(rank)) - 1])
                if true > edges[-1]:  # overflow bucket: exact max
                    assert est == h.max
                    continue
                # Same le-bucket: one edge at or above both, none between.
                k = np.searchsorted(edges, true)
                lo = 0.0 if k == 0 else edges[k - 1]
                assert lo <= est <= edges[k], (q, true, est)

    def test_merge_preserves_quantiles(self):
        rng = np.random.default_rng(11)
        parts = []
        for _ in range(3):
            h = Histogram("h", buckets=(0.01, 0.1, 1.0))
            for v in rng.uniform(0.0, 2.0, 50):
                h.observe(float(v))
            parts.append(h)
        merged = Histogram("h", buckets=(0.01, 0.1, 1.0))
        whole = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for p in parts:
            merged.merge(p)
        rng2 = np.random.default_rng(11)
        for _ in range(3):
            for v in rng2.uniform(0.0, 2.0, 50):
                whole.observe(float(v))
        for q in (0.1, 0.5, 0.9, 0.99):
            assert merged.quantile(q) == whole.quantile(q)


class TestRegistry:
    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        c.set(9)
        with pytest.raises(ValueError, match="backwards"):
            c.set(8)

    def test_get_or_create_and_kind_conflict(self):
        reg = MetricsRegistry()
        c = reg.counter("x", labels={"lane": 0})
        assert reg.counter("x", labels={"lane": 0}) is c
        assert reg.counter("x", labels={"lane": 1}) is not c
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", labels={"lane": 0})
        assert reg.get("x", labels={"lane": 1}) is not None
        assert reg.get("missing") is None
        assert len(reg) == 2

    def test_render_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", help="requests").inc(3)
        reg.gauge("depth", labels={"lane": 2}).set(1.5)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render()
        assert "# HELP req_total requests\n# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert '# TYPE depth gauge' in text
        assert 'depth{lane="2"} 1.5' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert text.endswith("\n")

    def test_state_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(7)
        reg.gauge("g", labels={"shard": 1}).set(0.25)
        h = reg.histogram("h_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(42.0)
        clone = MetricsRegistry()
        clone.load_state(pickle.loads(pickle.dumps(reg.state())))
        assert clone.render() == reg.render()
        assert clone.snapshot() == reg.snapshot()

    def test_load_state_overwrites_not_adds(self):
        """Repeated installs of the same gather never double count."""
        reg = MetricsRegistry()
        reg.counter("a_total").inc(7)
        state = reg.state()
        target = MetricsRegistry()
        target.load_state(state)
        target.load_state(state)
        assert target.counter("a_total").value == 7

    def test_merge_states_sums_and_merges(self):
        regs = []
        for n in (3, 5):
            r = MetricsRegistry()
            r.counter("ops_total").inc(n)
            r.gauge("depth").set(n)
            h = r.histogram("lat", buckets=(1.0, 2.0))
            for _ in range(n):
                h.observe(1.5)
            regs.append(r)
        merged = MetricsRegistry()
        merged.load_state(merge_states([r.state() for r in regs]))
        assert merged.counter("ops_total").value == 8
        assert merged.gauge("depth").value == 8
        assert merged.get("lat").counts == [0, 8, 0]


def _feed(svc, trace, *, shock=True, complete_every=13, batch=17):
    """Deterministic stream: micro-batches, completes, one mid-run
    shock pair (halve then restore — powers of two, float-exact)."""
    jobs = trace.jobs
    n = len(jobs)
    shock_at = n // 2 if shock else None
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        svc.submit_jobs(list(jobs[lo:hi]))
        if shock_at is not None and lo <= shock_at < hi:
            svc.apply_shock(scale=0.5)
            svc.apply_shock(scale=2.0)
        for k in range(lo, hi):
            if k % complete_every == 0:
                svc.complete(jobs[k].job_id)
    svc.drain()


def assert_snapshot_matches_rollup(svc, trace, label=""):
    """The satellite property: metrics snapshot == end-of-run roll-up,
    field for field, bit for bit."""
    m = svc.metrics()
    res = svc.result()
    st = svc.stats
    expected = {
        "serve_submitted_total": st.n_submitted,
        "serve_decided_total": st.n_decided,
        "serve_chunks_total": st.n_chunks,
        "serve_forced_chunks_total": st.forced_chunks,
        "serve_completions_total": st.n_completions,
        "serve_duplicate_completes_total": st.duplicate_completes,
        "serve_stale_completes_total": st.stale_completes,
        "serve_shocks_total": st.n_shocks,
        "serve_evictions_total": st.n_evicted,
        "serve_evicted_bytes_total": st.evicted_bytes,
        "serve_degraded_jobs_total": st.degraded_jobs,
        "serve_degraded_intervals_total": len(st.degraded_intervals),
        "serve_ssd_requested_total": res.n_ssd_requested,
        "serve_spilled_total": res.n_spilled,
    }
    for key, want in expected.items():
        assert m[key] == want, (label, key, m[key], want)
    assert m["serve_decided_total"] == res.n_jobs == len(trace), label
    # Admissions-by-category counters partition the SSD requests.
    cats = {k: v for k, v in m.items()
            if k.startswith("serve_admitted_by_category_total")}
    if cats:
        assert sum(cats.values()) == res.n_ssd_requested, label
    # Latency histograms observed every submission wrapper call.
    assert m["serve_batch_seconds"]["count"] > 0, label
    return m, res


class TestSnapshotEqualsRollup:
    """policy x engine mode x worker count x transport."""

    @pytest.mark.parametrize("pname", ("adaptive", "firstfit"))
    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_single_process(self, trace, builders, pname, mode):
        svc = PlacementService(builders[pname](), CAP, 4, mode=mode)
        svc.open(trace)
        _feed(svc, trace)
        m, _ = assert_snapshot_matches_rollup(svc, trace, f"{pname}/{mode}")
        assert m["serve_shocks_total"] == 2

    @pytest.mark.parametrize("pname", ("adaptive", "firstfit"))
    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    @pytest.mark.parametrize("workers,transport", [
        (1, "inprocess"), (3, "inprocess"), (3, "subprocess"),
    ])
    def test_fleet(self, trace, builders, pname, mode, workers, transport):
        if mode == "scalar":
            # Fleets serve batch mode only.
            with pytest.raises(ValueError, match="mode='batch'"):
                FleetRouter(
                    builders[pname](), CAP, 4, mode=mode,
                    n_workers=workers, transport=transport,
                )
            return
        svc = FleetRouter(
            builders[pname](), CAP, 4, mode=mode,
            n_workers=workers, transport=transport,
        )
        svc.open(trace)
        _feed(svc, trace)
        label = f"{pname}/{mode}/W{workers}/{transport}"
        m, _ = assert_snapshot_matches_rollup(svc, trace, label)
        # Fleet-only surface: gather coverage and worker op telemetry.
        assert m["serve_workers"] == workers, label
        assert m["serve_workers_alive"] == workers, label
        ops = {k: v for k, v in m.items()
               if k.startswith("worker_ops_total")}
        assert sum(ops.values()) > 0, label
        svc.close()

    @pytest.mark.parametrize("pname", ("adaptive", "firstfit"))
    def test_fleet_matches_single_process_counters(
        self, trace, builders, pname
    ):
        """The aggregated fleet snapshot equals the single-process one
        on every pinned counter — scatter-gather adds nothing, loses
        nothing."""
        one = PlacementService(builders[pname](), CAP, 4, mode="batch")
        one.open(trace)
        _feed(one, trace)
        m1, _ = assert_snapshot_matches_rollup(one, trace, "single")
        fleet = FleetRouter(
            builders[pname](), CAP, 4, mode="batch", n_workers=3
        )
        fleet.open(trace)
        _feed(fleet, trace)
        m3, _ = assert_snapshot_matches_rollup(fleet, trace, "fleet")
        fleet.close()
        for key, want in m1.items():
            if key.startswith(("serve_admitted_by_category", "serve_")) \
                    and key.endswith("_total"):
                assert m3[key] == want, key

    def test_repeated_snapshots_do_not_double_count(self, trace, builders):
        """metrics() is idempotent between submissions, including the
        fleet gather path (load_state overwrites)."""
        svc = FleetRouter(builders["adaptive"](), CAP, 4, mode="batch",
                          n_workers=3)
        svc.open(trace)
        _feed(svc, trace)
        a = svc.metrics()
        b = svc.metrics()
        for key, v in a.items():
            if key.endswith("_total"):
                assert b[key] == v, key
        svc.close()

    def test_wal_recovery_continues_counters(self, trace, builders, tmp_path):
        """Counters resume from checkpoint + WAL replay: no resets, no
        double counting — the recovered snapshot equals the roll-up AND
        the uninterrupted run's counters."""
        ref = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        ref.open(trace)
        _feed(ref, trace)
        m_ref, _ = assert_snapshot_matches_rollup(ref, trace, "ref")

        wal = str(tmp_path / "m.wal")
        ckpt = str(tmp_path / "m.ckpt")
        svc = PlacementService(
            builders["adaptive"](), CAP, 4, mode="batch", wal=wal
        )
        svc.open(trace)
        jobs = trace.jobs
        n = len(jobs)
        # Crash on a batch boundary so the recovered run's micro-batch
        # slicing matches the uninterrupted reference stream exactly.
        crash_at = 17 * (n // (3 * 17))
        shock_at = n // 2
        for lo in range(0, crash_at, 17):
            hi = min(lo + 17, crash_at)
            svc.submit_jobs(list(jobs[lo:hi]))
            for k in range(lo, hi):
                if k % 13 == 0:
                    svc.complete(jobs[k].job_id)
        svc.checkpoint(ckpt)
        pinned_at_ckpt = svc.metrics()["serve_decided_total"]
        svc.wal.close()  # crash

        rec = PlacementService.recover(ckpt, wal)
        assert rec.metrics()["serve_decided_total"] >= 0
        for lo in range(crash_at, n, 17):
            hi = min(lo + 17, n)
            rec.submit_jobs(list(jobs[lo:hi]))
            if lo <= shock_at < hi:
                rec.apply_shock(scale=0.5)
                rec.apply_shock(scale=2.0)
            for k in range(lo, hi):
                if k % 13 == 0:
                    rec.complete(jobs[k].job_id)
        rec.drain()
        m_rec, _ = assert_snapshot_matches_rollup(rec, trace, "recovered")
        assert m_rec["serve_decided_total"] >= pinned_at_ckpt
        for key, want in m_ref.items():
            if key.endswith("_total") and key != "serve_wal_records_total":
                assert m_rec[key] == want, key
        # The WAL itself is metered.
        assert m_rec["serve_wal_records_total"] == rec.wal_seq > 0

    def test_snapshot_schema_carries_registry(self, trace, builders):
        svc = PlacementService(builders["firstfit"](), CAP, 1, mode="batch")
        svc.open(trace)
        svc.submit_jobs(list(trace.jobs[:40]))
        svc.drain()
        clone = PlacementService.restore(
            pickle.loads(pickle.dumps(svc.snapshot()))
        )
        assert (clone.metrics()["serve_decided_total"]
                == svc.metrics()["serve_decided_total"])


class TestGaugesAndText:
    def test_lane_gauges_track_kernel_free(self, trace, builders):
        svc = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc.open(trace)
        _feed(svc, trace, shock=False)
        m = svc.metrics()
        free = np.asarray(svc.kernel.free, dtype=float)
        caps = np.asarray(svc.lane_capacities, dtype=float)
        for lane in range(4):
            assert m[f'serve_lane_free_bytes{{lane="{lane}"}}'] == free[lane]
            assert (m[f'serve_lane_capacity_bytes{{lane="{lane}"}}']
                    == caps[lane])
            occ = m[f'serve_lane_occupancy_ratio{{lane="{lane}"}}']
            assert 0.0 <= occ <= 1.0

    def test_act_position_exposed(self, trace, builders):
        svc = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc.open(trace)
        _feed(svc, trace, shock=False)
        m = svc.metrics()
        assert m["serve_act_position"] == svc.policy.act

    def test_metrics_text_parses_as_exposition(self, trace, builders):
        svc = PlacementService(builders["adaptive"](), CAP, 2, mode="batch")
        svc.open(trace)
        _feed(svc, trace, shock=False)
        text = svc.metrics_text()
        assert "# TYPE serve_request_seconds histogram" in text
        assert "# TYPE serve_decided_total counter" in text
        assert 'serve_lane_free_bytes{lane="1"}' in text
        m = svc.metrics()
        assert f"serve_decided_total {m['serve_decided_total']}" in text


class _Ticking:
    """Service proxy that runs one alert tick after every micro-batch,
    so ``_feed`` drives the per-batch cadence the CLI uses."""

    def __init__(self, svc):
        self._svc = svc

    def __getattr__(self, name):
        return getattr(self._svc, name)

    def submit_jobs(self, jobs):
        out = self._svc.submit_jobs(jobs)
        self._svc.evaluate_alerts()
        return out


#: The scrape surface's family order, as a spec: the three hot-path
#: histograms registered at construction, the category counters the
#: first batch created, then every derived metric in table order.
_SINGLE_FAMILIES = [
    "serve_request_seconds", "serve_batch_seconds", "serve_chunk_jobs",
    "serve_admitted_by_category_total",
    "serve_submitted_total", "serve_decided_total", "serve_chunks_total",
    "serve_forced_chunks_total", "serve_completions_total",
    "serve_duplicate_completes_total", "serve_stale_completes_total",
    "serve_shocks_total", "serve_evictions_total",
    "serve_evicted_bytes_total", "serve_degraded_jobs_total",
    "serve_degraded_intervals_total", "serve_categorizer_failures_total",
    "serve_ssd_requested_total", "serve_spilled_total",
    "serve_kernel_evictions_total", "serve_scalar_fallback_total",
    "serve_wal_records_total",
    "serve_pending_jobs", "serve_max_pending_seen", "serve_capacity_bytes",
    "serve_peak_ssd_used_bytes", "serve_degraded",
    "serve_lane_capacity_bytes", "serve_lane_free_bytes",
    "serve_lane_occupancy_ratio",
    "serve_act_position", "serve_act_lane_position",
    "serve_uptime_seconds", "serve_decisions_per_second",
]

#: What the fleet gather appends: fleet gauges, then the merged worker
#: registries.
_GATHER_FAMILIES = [
    "serve_workers", "serve_workers_alive", "serve_worker_recoveries",
    "worker_batch_jobs", "worker_ops_total",
]

#: Per-lane samples register lane-major: each lane's capacity, free and
#: occupancy gauges together, then the per-shard thresholds.
_LANE_SAMPLES = [
    (name, lane)
    for lane in range(4)
    for name in ("serve_lane_capacity_bytes", "serve_lane_free_bytes",
                 "serve_lane_occupancy_ratio")
] + [("serve_act_lane_position", lane) for lane in range(4)]


class TestRenderOrder:
    """Render order is part of the scrape surface, asserted as a list."""

    @staticmethod
    def _build(cls, trace, **kw):
        cats = np.random.default_rng(5).integers(0, 8, len(trace))
        policy = AdaptiveCategoryPolicy(
            cats, 8,
            AdaptiveParams(decision_interval=700.0, lookback_window=4000.0),
            per_shard_act=True,
        )
        alerts = AlertManager(default_alert_rules(), [SloSpec(
            "spill-rate", "serve_spilled_total",
            denominator="serve_decided_total", budget=0.25,
            fast_window=2000.0, slow_window=8000.0,
        )])
        svc = cls(policy, CAP, 4, mode="batch", alerts=alerts, **kw)
        svc.open(trace)
        _feed(_Ticking(svc), trace)
        return svc

    @staticmethod
    def _order(text):
        families = [ln.split()[2] for ln in text.splitlines()
                    if ln.startswith("# TYPE ")]
        lanes = [(m.group(1), int(m.group(2))) for m in re.finditer(
            r'^(\w+)\{lane="(\d+)"\}', text, re.M)]
        return families, lanes

    def test_single_process(self, trace):
        svc = self._build(PlacementService, trace)
        families, lanes = self._order(svc.metrics_text())
        assert families == _SINGLE_FAMILIES
        assert lanes == _LANE_SAMPLES

    def test_fleet_appends_the_gather_block(self, trace):
        svc = self._build(FleetRouter, trace, n_workers=3)
        try:
            families, lanes = self._order(svc.metrics_text())
        finally:
            svc.close()
        assert families == _SINGLE_FAMILIES + _GATHER_FAMILIES
        assert lanes == _LANE_SAMPLES


class TestAdmissionsByCategory:
    def test_unique_counts_in_registration_order(self, trace, builders):
        """Each decided chunk's admissions count by category, and a
        category's counter registers, in ascending order within its
        first chunk, as a sorted ``np.unique`` walk of the chunk would."""
        svc = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc.open(trace)
        cats = np.asarray(svc.policy.categories)
        rng = np.random.default_rng(3)
        want: dict = {}
        for first in range(0, len(cats) - 20, 20):
            req = rng.random(20) < 0.5
            svc._count_admissions(first, first + 20, req)
            chunk = cats[first:first + 20][req]
            for c, k in zip(*np.unique(chunk, return_counts=True)):
                want[int(c)] = want.get(int(c), 0) + int(k)
        got = [
            (int(dict(m.labels)["category"]), m.value) for m in svc.registry
            if m.name == "serve_admitted_by_category_total"
        ]
        assert got == list(want.items())


def _mask_wall_clock(text):
    """Blank the samples that read the wall clock (uptime, throughput,
    request/batch latency histograms); everything else is exact."""
    return re.sub(
        r"^((?:serve_uptime_seconds|serve_decisions_per_second|"
        r"serve_request_seconds|serve_batch_seconds)\S*) .*$",
        r"\1 <wall-clock>", text, flags=re.M,
    )


class _WithStaleSlots:
    """Pickles as ``obj`` plus extra slot values, the way a checkpoint
    written by an older library carries a since-removed slot
    (``ChunkKernel.compiled``)."""

    def __init__(self, obj, **slots):
        self.obj = obj
        self.slots = slots

    def __reduce__(self):
        cls = type(self.obj)
        _, _, (dict_state, slots) = self.obj.__reduce_ex__(2)[:3]
        return cls.__new__, (cls,), (dict_state, {**slots, **self.slots})


def _float_ledger(kernel, lane_capacities=None):
    """``kernel`` with every ledger byte value cast to float64, the way
    a checkpoint written before the integer ledger carries it (the
    service's ``lane_capacities`` was then the kernel's own array); a
    chunk kernel's pending releases take that library's layout too
    (see :func:`_sorted_array_releases`)."""
    led = getattr(kernel, "st", kernel)
    led.lane_capacity = (
        led.lane_capacity.astype(float) if lane_capacities is None
        else lane_capacities
    )
    led.capacity = float(led.capacity)
    led.free = led.free.astype(float)
    led.peak_used = float(led.peak_used)
    kernel.evicted_bytes = float(kernel.evicted_bytes)
    if led is kernel:
        kernel.heap = [(r, i, lane, float(a)) for (r, i, lane, a) in kernel.heap]
    else:
        kernel.st = _sorted_array_releases(led)
    return kernel


def _sorted_array_releases(led):
    """Lane state ``led`` as checkpoints from before the release heap
    hold it: time-sorted ``rel_t``/``rel_a``/``rel_l`` arrays (bytes in
    ``led.free``'s dtype) behind a ``rel_pos`` cursor, here one already
    consumed entry that must not apply again, and empty merge buffers."""
    from repro.storage.engine import _LaneState

    entries = sorted(led.heap)
    slots = {
        name: getattr(led, name) for name in _LaneState.__slots__
        if name not in ("heap", "seq")
    }
    slots.update(
        rel_t=np.array([-1.0] + [e[0] for e in entries]),
        rel_a=np.array([12345] + [e[3] for e in entries], dtype=led.free.dtype),
        rel_l=np.array([0] + [e[2] for e in entries], dtype=np.intp),
        rel_pos=1, new_t=[], new_a=[], new_l=[],
    )
    return _Pickled(_LaneState, (None, slots))


class _Pickled:
    """Pickles as an instance of ``cls`` carrying ``state``: the form an
    object takes in a checkpoint written by an older library."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return self.cls.__new__, (self.cls,), self.state


def _as_parent_categorizer(cat):
    """``cat`` as a checkpoint from before feature-space scoring holds
    it: the forest carries eagerly built routing tables (``_feat0``,
    ``_cut``, ``_child2``, ``_value_flat``, ``_roots``) and no edges,
    the binner the ``transform_one`` scratch, and the categorizer
    ``_xb``/``_xb_one`` code buffers."""
    from repro.ml import GBTClassifier, PackedForest
    from repro.ml.encoding import QuantileBinner

    gbt = cat.gbt
    forest, edges = gbt.packed_, gbt.binner_.edges_
    n_trees, n_nodes = forest.feature.shape
    flat = forest.feature.ravel()
    internal = flat >= 0
    idx = np.arange(flat.size, dtype=np.int32)
    child = idx - idx % n_nodes + 2 * (idx % n_nodes)
    child2 = np.empty(2 * flat.size, dtype=np.int32)
    child2[0::2] = np.where(internal, child + 2, idx)
    child2[1::2] = np.where(internal, child + 1, idx)
    old_forest = {
        "feature": forest.feature, "split_bin": forest.split_bin,
        "value": forest.value, "max_depth": forest.max_depth,
        "_feat0": np.where(internal, flat, 0).astype(np.int32),
        "_cut": np.where(
            internal, forest.split_bin.ravel(), np.iinfo(np.int16).max
        ).astype(np.int16),
        "_child2": child2, "_value_flat": forest.value.ravel(),
        "_roots": np.arange(n_trees, dtype=np.int32) * np.int32(n_nodes),
        "_bufs": {}, "_exit_tables": None,
    }
    pad = np.full((len(edges), max(e.size for e in edges)), np.nan)
    for c, e in enumerate(edges):
        pad[c, : e.size] = e
    old_binner = {
        **vars(gbt.binner_), "_edge_pad": pad,
        "_n_edges": np.array([e.size for e in edges], dtype=np.intp),
        "_ge": np.empty(pad.shape, dtype=bool),
        "_cnt": np.empty(len(edges), dtype=np.intp),
    }
    old_gbt = {
        **vars(gbt), "_raw_cache": None,
        "binner_": _Pickled(QuantileBinner, old_binner),
        "_packed": _Pickled(PackedForest, old_forest),
    }
    p, k = len(edges), len(gbt.classes_)
    return _Pickled(type(cat), {
        **vars(cat), "gbt": _Pickled(GBTClassifier, old_gbt),
        "_xb": np.zeros((256, p), dtype=np.uint8),
        "_xb_one": np.zeros(p, dtype=np.uint8),
        "_raw": np.empty((256, k)), "_raw_one": np.empty(k),
    })


@pytest.fixture(scope="module")
def category_model(trace):
    """A small GBT over the trace's features, 4 size-quartile classes."""
    from repro.ml import GBTClassifier
    from repro.workloads import extract_features

    y = np.searchsorted(np.quantile(trace.sizes, [0.25, 0.5, 0.75]), trace.sizes)
    return GBTClassifier(n_rounds=4, max_depth=5, min_samples_leaf=5).fit(
        extract_features(trace).X, y
    )


class TestOldCheckpoints:
    def test_stale_metric_caches_are_dropped(self, trace, builders):
        """Checkpoints written before the derived-metric table carry its
        predecessors' caches (``_pinned``, ``_alert_sync``) under the
        same schema, and checkpoints from before the serving knobs were
        removed carry ``engine``, ``track_jobs`` and a kernel pickled
        with a ``compiled`` slot.  Restore drops them all, and the
        restored service scrapes and alerts exactly like the
        uninterrupted run."""
        from dataclasses import replace

        def build():
            svc = PlacementService(
                builders["adaptive"](), CAP, 4, mode="batch",
                alerts=AlertManager(default_alert_rules()),
            )
            svc.open(trace)
            return svc

        def feed(svc, lo, hi):
            jobs = trace.jobs
            for b in range(lo, hi, 17):
                svc.submit_jobs(list(jobs[b:min(b + 17, hi)]))
                if b <= len(jobs) // 2 < b + 17:
                    svc.apply_shock(scale=0.5)
                svc.evaluate_alerts()

        n, mid = len(trace), 17 * 5
        ref, svc = build(), build()
        for s in (ref, svc):
            feed(s, 0, mid)
            s.metrics_text()
        feed(ref, mid, n)
        snap = svc.snapshot()
        payload = dict(snap.payload)
        reg = payload["registry"]
        payload["_pinned"] = tuple(reg)
        payload["_alert_sync"] = (
            payload["alerts"], False,
            [(reg.get("serve_capacity_bytes"), "serve_capacity_bytes")],
        )
        payload["engine"] = "auto"
        payload["track_jobs"] = True
        payload["kernel"] = _WithStaleSlots(payload["kernel"], compiled=False)
        old = pickle.loads(pickle.dumps(replace(snap, payload=payload)))
        rec = PlacementService.restore(old)
        for stale in ("_pinned", "_alert_sync", "engine", "track_jobs"):
            assert stale not in vars(rec)
        feed(rec, mid, n)
        assert (_mask_wall_clock(rec.metrics_text())
                == _mask_wall_clock(ref.metrics_text()))
        assert rec.alerts.events == ref.alerts.events
        assert "capacity-shock" in rec.alerts.fired()
        assert_bit_identical(ref.result(), rec.result())

    def test_stale_help_text_is_replaced(self, trace, builders):
        """A checkpoint written by an older library carries that
        library's HELP text in its registry; the restored service serves
        the current text for derived, hot-path and per-category
        instruments alike, with their values intact."""
        def build():
            svc = PlacementService(
                builders["adaptive"](), CAP, 4, mode="batch",
                alerts=AlertManager(default_alert_rules()),
            )
            svc.open(trace)
            return svc

        ref, svc = build(), build()
        jobs = trace.jobs
        for s in (ref, svc):
            for b in range(0, 17 * 5, 17):
                s.submit_jobs(list(jobs[b:b + 17]))
            s.evaluate_alerts()
            s.metrics_text()
        old = pickle.loads(pickle.dumps(svc.snapshot()))
        stale = [m for m in old.payload["registry"] if m.help]
        names = {m.name for m in stale}
        assert {"serve_scalar_fallback_total", "serve_batch_seconds",
                "serve_admitted_by_category_total"} <= names
        for m in stale:
            m.help = "help text of an older library"
        rec = PlacementService.restore(old)
        got, want = rec.metrics_text(), ref.metrics_text()
        assert "older library" not in got

        def helps(text):
            return [ln for ln in text.splitlines() if ln.startswith("# HELP")]

        assert helps(got) == helps(want)
        assert _mask_wall_clock(got) == _mask_wall_clock(want)

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_float_byte_ledger_restores(self, trace, builders, mode):
        """A service checkpoint whose ledger holds float bytes (written
        before the integer ledger) restores to integer bytes and
        continues bit-identically to the uninterrupted run."""
        from dataclasses import replace

        def build():
            svc = PlacementService(builders["adaptive"](), CAP, 4, mode=mode)
            svc.open(trace)
            return svc

        def feed(svc, lo, hi):
            jobs = trace.jobs
            for b in range(lo, hi, 17):
                svc.submit_jobs(list(jobs[b:min(b + 17, hi)]))
                svc.complete(max(b - 20, 0))
                if b <= len(jobs) // 2 < b + 17:
                    svc.apply_shock(scale=0.5)

        n, mid = len(trace), 17 * 5
        ref, svc = build(), build()
        for s in (ref, svc):
            feed(s, 0, mid)
        feed(ref, mid, n)
        snap = svc.snapshot()
        payload = dict(snap.payload)
        payload["kernel"] = _float_ledger(
            payload["kernel"], payload["lane_capacities"]
        )
        payload["_live"] = {
            j: (i, lane, float(a), r)
            for j, (i, lane, a, r) in payload["_live"].items()
        }
        old = pickle.loads(pickle.dumps(replace(snap, payload=payload)))
        rec = PlacementService.restore(old)
        assert rec.kernel.free.dtype == np.int64
        feed(rec, mid, n)
        assert_bit_identical(ref.result(), rec.result())
        assert rec.kernel.counters() == ref.kernel.counters()

    def test_scalar_kernel_lane_subset_slots_are_dropped(self, trace, builders):
        """A scalar service checkpoint whose kernel still carries the
        lane-subset slots (``lanes``, ``lane_index``, ``track_peak``)
        restores without them and continues bit-identically."""
        from dataclasses import replace

        from repro.storage.engine import ScalarKernel

        def build():
            svc = PlacementService(
                builders["adaptive"](), CAP, 4, mode="scalar"
            )
            svc.open(trace)
            return svc

        jobs = list(trace.jobs)
        mid = len(jobs) // 2
        ref, svc = build(), build()
        for s in (ref, svc):
            s.submit_jobs(jobs[:mid])
            s.complete(jobs[3].job_id)
        snap = svc.snapshot()
        kernel = snap.payload["kernel"]
        slots = {name: getattr(kernel, name) for name in ScalarKernel.__slots__}
        slots.update(
            lanes=np.arange(4, dtype=np.intp),
            lane_index={g: g for g in range(4)}, track_peak=True,
        )
        payload = {**snap.payload, "kernel": _Pickled(ScalarKernel, (None, slots))}
        old = pickle.loads(pickle.dumps(replace(snap, payload=payload)))
        rec = PlacementService.restore(old)
        assert not hasattr(rec.kernel, "lanes")
        for s in (ref, rec):
            s.submit_jobs(jobs[mid:])
        assert_bit_identical(ref.result(), rec.result())
        assert rec.kernel.counters() == ref.kernel.counters()

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_worker_float_byte_ledger_restores(self, trace, builders, mode):
        """The same for worker checkpoints, and for the float ``alloc``
        that worker-log ``cancel`` records written then carry.  A
        scalar-mode fleet worker's checkpoint holds a ``ScalarKernel``,
        which workers no longer run: it is refused."""
        from repro.serve.transport import InProcessTransport
        from repro.serve.worker import PlacementWorker
        from repro.storage.engine import ScalarKernel

        if mode == "scalar":
            svc = FleetRouter(builders["adaptive"](), CAP, 4, n_workers=2)
            payload = dict(svc.pool.request(0, {"op": "state"})["payload"])
            svc.close()
            kernel = ScalarKernel(payload["spec"]["lane_caps"])
            payload["kernel"] = _float_ledger(kernel)
            payload["spec"] = {**payload["spec"], "mode": "scalar"}
            with pytest.raises(SnapshotMismatch, match="ScalarKernel"):
                PlacementWorker.from_payload(
                    pickle.loads(pickle.dumps(payload))
                )
            return

        def build():
            svc = FleetRouter(builders["adaptive"](), CAP, 4, n_workers=2)
            svc.open(trace)
            return svc

        jobs = list(trace.jobs)
        n, mid = len(jobs), 17 * 7
        ref, svc = build(), build()
        for s in (ref, svc):
            for b in range(0, mid, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(max(b - 20, 0))
        pool = svc.pool
        for w in range(pool.n_workers):
            payload = dict(pool.request(w, {"op": "state"})["payload"])
            payload["kernel"] = _float_ledger(payload["kernel"])
            worker = PlacementWorker.from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            assert worker.kernel.free.dtype == np.int64
            pool.transports[w] = InProcessTransport(w, worker)
        for s in (ref, svc):
            s.complete(mid - 25)
        for s in (ref, svc):
            for b in range(mid, n, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(b - 20)
        got, want = svc.result(), ref.result()
        svc.close()
        ref.close()
        assert_bit_identical(want, got)

    def test_old_worker_log_replays(self, trace, builders, tmp_path):
        """A worker log written before the integer ledger — float
        ``alloc`` bytes in ``cancel`` records, and the release catch-up
        ops that library also logged — rebuilds a killed worker that
        continues bit-identically."""
        from repro.serve.wal import WriteAheadLog

        base = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=2,
            worker_dir=str(tmp_path), worker_checkpoint_every=None,
        )
        jobs = list(trace.jobs)
        n, mid = len(jobs), 17 * 7
        for s in (base, svc):
            s.open(trace)
            for b in range(0, mid, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(max(b - 20, 0))
        pool = svc.pool
        n_cancels = 0
        for w in range(pool.n_workers):
            path = pool.wals[w].path
            pool.wals[w].close()
            records = [rec for _, rec in WriteAheadLog.read(path, 0)]
            os.remove(path)
            wal = WriteAheadLog(path)
            for rec in records:
                if rec["op"] == "cancel":
                    rec["alloc"] = float(rec["alloc"])
                    n_cancels += 1
                elif rec["op"] == "chunk":
                    wal.append({"op": "open", "t0": rec["t0"]})
                wal.append(rec)
            pool.wals[w] = wal
            svc.kill_worker(w)
        assert n_cancels
        for s in (base, svc):
            for b in range(mid, n, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(b - 20)
        got = svc.result()
        assert pool.n_recoveries == pool.n_workers
        svc.close()
        assert_bit_identical(base.result(), got)

    def test_worker_payload_with_compiled_slot_restores(self, trace, builders):
        """A worker checkpoint from before the ``compiled`` slot and
        spec key were removed rebuilds through
        ``PlacementWorker.from_payload`` and continues bit-identically
        to the uninterrupted fleet."""
        from repro.serve.transport import InProcessTransport
        from repro.serve.worker import PlacementWorker

        def build():
            svc = FleetRouter(
                builders["adaptive"](), CAP, 4, mode="batch", n_workers=2
            )
            svc.open(trace)
            return svc

        jobs = list(trace.jobs)
        n, mid = len(jobs), 17 * 7
        ref, svc = build(), build()
        for s in (ref, svc):
            for b in range(0, mid, 17):
                s.submit_jobs(jobs[b:b + 17])
        pool = svc.pool
        for w in range(pool.n_workers):
            payload = dict(pool.request(w, {"op": "state"})["payload"])
            payload["spec"] = {**payload["spec"], "compiled": False}
            payload["kernel"] = _WithStaleSlots(
                payload["kernel"], compiled=False
            )
            worker = PlacementWorker.from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            pool.transports[w] = InProcessTransport(w, worker)
        for s in (ref, svc):
            for b in range(mid, n, 17):
                s.submit_jobs(jobs[b:b + 17])
        got, want = svc.result(), ref.result()
        svc.close()
        ref.close()
        assert_bit_identical(want, got)

    def test_worker_payload_with_global_lane_slots_restores(
        self, trace, builders
    ):
        """A worker checkpoint whose kernel carries the global lane ids
        it no longer keeps (``lanes``, ``lane_index``) and whose lane
        state holds the sorted release arrays restores without the
        slots and continues bit-identically, with the same kernel
        counters, as the uninterrupted fleet."""
        import copy

        from repro.serve.transport import InProcessTransport
        from repro.serve.worker import PlacementWorker

        def build():
            svc = FleetRouter(
                builders["adaptive"](), CAP, 4, mode="batch", n_workers=2
            )
            svc.open(trace)
            return svc

        jobs = list(trace.jobs)
        n, mid = len(jobs), 17 * 7
        ref, svc = build(), build()
        for s in (ref, svc):
            for b in range(0, mid, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(max(b - 20, 0))
        pool = svc.pool
        for w in range(pool.n_workers):
            payload = dict(pool.request(w, {"op": "state"})["payload"])
            kernel = copy.copy(payload["kernel"])
            assert kernel.st.heap  # releases are pending across the restore
            kernel.st = _sorted_array_releases(kernel.st)
            lanes = payload["spec"]["lanes"]
            payload["kernel"] = _WithStaleSlots(
                kernel, lanes=lanes,
                lane_index={int(g): k for k, g in enumerate(lanes)},
            )
            worker = PlacementWorker.from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            assert not hasattr(worker.kernel, "lanes")
            assert not hasattr(worker.kernel, "lane_index")
            pool.transports[w] = InProcessTransport(w, worker)
        for s in (ref, svc):
            for b in range(mid, n, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(b - 20)
        got, want = svc.result(), ref.result()
        assert svc.kernel.counters() == ref.kernel.counters()
        svc.close()
        ref.close()
        assert_bit_identical(want, got)

    def test_worker_payload_with_path_lanes_restores(self, trace, builders):
        """A worker checkpoint from before the ``path_lanes`` knob was
        removed — the key in its spec, the slot in its kernel's lane
        state — rebuilds and continues bit-identically, with the same
        kernel counters, as the uninterrupted fleet."""
        import copy

        from repro.serve.transport import InProcessTransport
        from repro.serve.worker import PlacementWorker

        def build():
            svc = FleetRouter(
                builders["adaptive"](), CAP, 4, mode="batch", n_workers=2
            )
            svc.open(trace)
            return svc

        jobs = list(trace.jobs)
        n, mid = len(jobs), 17 * 7
        ref, svc = build(), build()
        for s in (ref, svc):
            for b in range(0, mid, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(max(b - 20, 0))
        pool = svc.pool
        for w in range(pool.n_workers):
            payload = dict(pool.request(w, {"op": "state"})["payload"])
            payload["spec"] = {**payload["spec"], "path_lanes": 4}
            kernel = copy.copy(payload["kernel"])
            kernel.st = _WithStaleSlots(kernel.st, path_lanes=4)
            payload["kernel"] = kernel
            worker = PlacementWorker.from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            assert not hasattr(worker.kernel.st, "path_lanes")
            assert "path_lanes" not in worker.spec
            assert "path_lanes" not in worker.payload()["spec"]
            pool.transports[w] = InProcessTransport(w, worker)
        for s in (ref, svc):
            for b in range(mid, n, 17):
                s.submit_jobs(jobs[b:b + 17])
                s.complete(b - 20)
        got, want = svc.result(), ref.result()
        assert svc.kernel.counters() == ref.kernel.counters()
        svc.close()
        ref.close()
        assert_bit_identical(want, got)

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_byom_checkpoint_from_before_feature_scoring_restores(
        self, trace, category_model, mode
    ):
        """A byom service checkpoint taken mid-stream, whose forest
        carries the old eager routing tables and whose binner carries
        the one-row binning scratch, restores to a forest that scores
        feature values and continues with identical placements and
        categories.  Scalar mode submits one job at a time, so the
        one-row path scores every arrival."""
        from dataclasses import replace

        from repro.serve import OnlineAdaptivePolicy, OnlineCategorizer

        def build():
            svc = PlacementService(
                OnlineAdaptivePolicy(4, AdaptiveParams(
                    decision_interval=700.0, lookback_window=4000.0,
                )),
                CAP, 4, mode=mode,
                categorizer=OnlineCategorizer(pickle.loads(pickle.dumps(category_model))),
            )
            svc.open()
            return svc

        def feed(svc, lo, hi):
            jobs = trace.jobs
            for b in range(lo, hi, 17):
                if mode == "scalar":
                    for j in jobs[b:min(b + 17, hi)]:
                        svc.submit(j)
                else:
                    svc.submit_jobs(list(jobs[b:min(b + 17, hi)]))

        n, mid = len(trace), 17 * 5
        ref, svc = build(), build()
        for s in (ref, svc):
            feed(s, 0, mid)
        feed(ref, mid, n)
        snap = svc.snapshot()
        payload = dict(snap.payload)
        payload["categorizer"] = _as_parent_categorizer(payload["categorizer"])
        old = pickle.loads(pickle.dumps(replace(snap, payload=payload)))
        rec = PlacementService.restore(old)
        gbt = rec.categorizer.gbt
        assert gbt._packed is None
        for stale in ("_xb", "_xb_one"):
            assert stale not in vars(rec.categorizer)
        assert "_edge_pad" not in vars(gbt.binner_)
        feed(rec, mid, n)
        forest = gbt.packed_
        assert forest.edges is gbt.binner_.edges_
        for stale in ("_feat0", "_cut", "_child2", "_value_flat", "_roots"):
            assert stale not in vars(forest)
        assert (forest._exit_tables is not None) == (mode == "scalar")
        got, want = rec.result(), ref.result()
        assert_bit_identical(want, got)
        assert np.array_equal(rec.policy.categories, ref.policy.categories)
        assert len(np.unique(ref.policy.categories)) > 1

    def test_classifier_pickle_is_unchanged_by_scoring(self, trace, category_model):
        """Scoring builds only derived state: a classifier's pickle bytes
        are the same before and after batch and one-row scoring, through
        the estimator, the forest and the online categorizer."""
        from repro.serve import OnlineCategorizer
        from repro.workloads import extract_features

        gbt = pickle.loads(pickle.dumps(category_model))
        X = extract_features(trace).X
        k = len(gbt.classes_)
        before = pickle.dumps(gbt)
        gbt.predict(X)
        gbt.packed_.decision_scores(X[:40], gbt.base_score_, gbt.learning_rate, k)
        gbt.packed_.decision_scores_one(X[3], gbt.base_score_, gbt.learning_rate, k)
        cat = OnlineCategorizer(gbt)
        cat(list(trace.jobs[:17]))
        cat([trace.jobs[17]])
        assert gbt.packed_._exit_tables is not None
        assert pickle.dumps(gbt) == before


class TestScrapeEndpoint:
    def test_scrape_round_trip(self, trace, builders):
        svc = PlacementService(builders["firstfit"](), CAP, 1, mode="batch")
        svc.open(trace)
        svc.submit_jobs(list(trace.jobs[:60]))
        svc.drain()
        cache = [svc.metrics_text()]
        with MetricsServer(lambda: cache[0], port=0) as server:
            assert server.url.endswith(f":{server.port}/metrics")
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                assert resp.status == 200
                ctype = resp.headers["Content-Type"]
                body = resp.read().decode()
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert body == cache[0]
        assert "serve_decided_total 60" in body

    def test_unknown_path_is_404(self):
        with MetricsServer(lambda: "ok 1\n", port=0) as server:
            base = f"http://{server.host}:{server.port}"
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{base}/healthz", timeout=10)
            assert exc_info.value.code == 404
            # Bare root and /metrics?query still scrape.
            for path in ("/", "/metrics?x=1"):
                with urllib.request.urlopen(base + path, timeout=10) as r:
                    assert r.status == 200
                    assert r.read() == b"ok 1\n"

    def test_concurrent_scrapes(self):
        """The threading server answers overlapping scrapes; every
        response is complete and identical."""
        import threading

        text = "serve_decided_total 42\n" * 200
        with MetricsServer(lambda: text, port=0) as server:
            bodies = [None] * 8
            errors = []

            def scrape(k):
                try:
                    with urllib.request.urlopen(server.url, timeout=10) as r:
                        bodies[k] = r.read().decode()
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=scrape, args=(k,)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert all(b == text for b in bodies)

    def test_scrape_failure_is_500_not_fatal(self):
        def boom():
            raise RuntimeError("no cache")

        with MetricsServer(boom, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(server.url, timeout=10)
            assert exc_info.value.code == 500
            # The server survives a failed scrape.
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url, timeout=10)

    def test_default_buckets_are_sane(self):
        assert LATENCY_BUCKETS_SECONDS[0] == 1e-6
        assert LATENCY_BUCKETS_SECONDS[-1] == 10.0
        assert list(LATENCY_BUCKETS_SECONDS) == sorted(LATENCY_BUCKETS_SECONDS)
        assert list(SIZE_BUCKETS_JOBS) == sorted(SIZE_BUCKETS_JOBS)
