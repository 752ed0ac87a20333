"""Deterministic alerting and SLO burn-rate accounting.

Unit layer: the rule/SLO condition math and the ok -> pending ->
firing -> resolved state machine, driven tick by tick against a raw
registry.  Property layer: an alert manager attached to a live service
produces a **bit-identical event stream** across policy x engine mode
x worker count x transport (evaluation reads only pinned,
mode-invariant metrics on the logical clock), and the stream continues
exactly across WAL checkpoint recovery — no reset, no double-fire.
The chaos layer asserts each named scenario fires exactly its expected
alert set and that clean runs emit zero events.
"""

import json
from bisect import bisect_left

import pytest

from repro.serve import (
    AlertManager,
    AlertRule,
    FleetRouter,
    MetricsRegistry,
    PlacementService,
    SloSpec,
    default_alert_rules,
    expected_alerts,
    load_alert_config,
)
from repro.serve.scenarios import get_scenario, run_scenario

from test_serve_service import make_policy_builders, random_trace

CAP = 55e9


@pytest.fixture(scope="module")
def trace():
    return random_trace(21, n=240)


@pytest.fixture(scope="module")
def builders(trace):
    return make_policy_builders(trace, 21)


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown alert op"):
            AlertRule("r", "m", op="~")
        with pytest.raises(ValueError, match="unknown alert kind"):
            AlertRule("r", "m", kind="derivative")
        with pytest.raises(ValueError, match="durations"):
            AlertRule("r", "m", for_duration=-1.0)
        with pytest.raises(ValueError, match="quantile"):
            AlertRule("r", "m", quantile=1.5)

    def test_value_from_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(7)
        reg.gauge("depth").set(2.5)
        assert AlertRule("a", "jobs_total").value_from(reg) == 7
        assert AlertRule("b", "depth").value_from(reg) == 2.5
        assert AlertRule("c", "missing").value_from(reg) is None

    def test_value_from_labeled_metric(self):
        reg = MetricsRegistry()
        reg.gauge("occ", labels={"lane": 2}).set(0.75)
        rule = AlertRule("r", 'occ{lane="2"}')
        assert rule.value_from(reg) == 0.75
        assert AlertRule("r", 'occ{lane="0"}').value_from(reg) is None

    def test_value_from_histogram_count_or_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 0.5, 1.5, 9.0):
            h.observe(v)
        assert AlertRule("n", "lat").value_from(reg) == 4
        q = AlertRule("q", "lat", quantile=0.5).value_from(reg)
        assert q == h.quantile(0.5)

    def test_dict_round_trip(self):
        rule = AlertRule(
            "cap", 'serve_lane_free_bytes{lane="1"}', op="<=",
            threshold=5e9, kind="rate", for_duration=30.0,
            clear_duration=60.0, quantile=None, description="low free",
        )
        clone = AlertRule.from_dict(rule.to_dict())
        for attr in ("name", "metric", "op", "threshold", "kind",
                     "for_duration", "clear_duration", "quantile",
                     "description"):
            assert getattr(clone, attr) == getattr(rule, attr), attr


def _tick(am, reg, clock):
    return am.evaluate(reg, clock=clock)


class TestStateMachine:
    def _setup(self, **rule_kw):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        am = AlertManager([AlertRule("deep", "depth", op=">",
                                     threshold=5.0, **rule_kw)])
        return reg, g, am

    def test_immediate_fire_and_resolve(self):
        reg, g, am = self._setup()
        g.set(1.0)
        assert _tick(am, reg, 0.0) == []
        g.set(10.0)
        new = _tick(am, reg, 1.0)
        assert [ev["event"] for ev in new] == ["pending", "firing"]
        assert am.firing() == ["deep"]
        g.set(1.0)
        new = _tick(am, reg, 2.0)
        assert [ev["event"] for ev in new] == ["resolved"]
        assert am.firing() == []
        assert am.fired() == ["deep"]
        # Events carry the value and threshold that tripped them.
        fire = [ev for ev in am.events if ev["event"] == "firing"][0]
        assert fire["value"] == 10.0 and fire["threshold"] == 5.0
        assert fire["rule"] == "deep"

    def test_for_duration_hysteresis(self):
        reg, g, am = self._setup(for_duration=10.0)
        g.set(10.0)
        assert [ev["event"] for ev in _tick(am, reg, 0.0)] == ["pending"]
        assert _tick(am, reg, 5.0) == []
        assert am.firing() == []
        assert [ev["event"] for ev in _tick(am, reg, 10.0)] == ["firing"]

    def test_pending_clears_silently(self):
        reg, g, am = self._setup(for_duration=10.0)
        g.set(10.0)
        _tick(am, reg, 0.0)
        g.set(1.0)
        assert _tick(am, reg, 1.0) == []
        assert am.fired() == []
        # The next breach starts a fresh pending window.
        g.set(10.0)
        assert [ev["event"] for ev in _tick(am, reg, 2.0)] == ["pending"]
        assert _tick(am, reg, 11.0) == []  # 9s < for_duration
        assert [ev["event"] for ev in _tick(am, reg, 12.0)] == ["firing"]

    def test_clear_duration_holds_the_alert(self):
        reg, g, am = self._setup(clear_duration=10.0)
        g.set(10.0)
        _tick(am, reg, 0.0)
        assert am.firing() == ["deep"]
        g.set(1.0)
        assert _tick(am, reg, 1.0) == []  # clear window opens
        g.set(10.0)
        assert _tick(am, reg, 5.0) == []  # re-breach cancels the clear
        g.set(1.0)
        assert _tick(am, reg, 6.0) == []  # clear window reopens at 6
        assert _tick(am, reg, 15.0) == []  # 9s < clear_duration
        assert [ev["event"] for ev in _tick(am, reg, 16.0)] == ["resolved"]
        assert am.firing() == []

    def test_rate_rule_prime_delta_and_zero_dt(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        am = AlertManager([AlertRule("hot", "ops_total", kind="rate",
                                     op=">", threshold=1.5)])
        # First evaluation primes the previous sample; cannot breach.
        assert _tick(am, reg, 0.0) == []
        c.inc(10)
        new = _tick(am, reg, 5.0)  # rate = 10/5 = 2.0 > 1.5
        assert [ev["event"] for ev in new] == ["pending", "firing"]
        assert new[-1]["value"] == 2.0
        # Re-evaluating at the same clock: dt <= 0 reads as rate 0,
        # which here resolves (clear_duration = 0) — deterministic, not
        # an error.
        new = _tick(am, reg, 5.0)
        assert [ev["event"] for ev in new] == ["resolved"]

    def test_missing_metric_never_transitions(self):
        reg = MetricsRegistry()
        am = AlertManager([AlertRule("ghost", "absent_total")])
        for t in (0.0, 1.0, 2.0):
            assert _tick(am, reg, t) == []
        assert am.events == [] and am.firing() == []


class TestSlo:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SloSpec("s", "m", kind="windowed")
        with pytest.raises(ValueError, match="target= and objective="):
            SloSpec("s", "m", kind="quantile")
        with pytest.raises(ValueError, match="denominator= and budget="):
            SloSpec("s", "m", kind="ratio")
        with pytest.raises(ValueError, match="objective"):
            SloSpec("s", "m", kind="quantile", target=1.0, objective=1.0)

    def test_quantile_sample_counts_tail_exactly(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05,) * 8 + (0.5, 5.0):
            h.observe(v)
        slo = SloSpec("lat", "lat", kind="quantile",
                      target=0.1, objective=0.9)
        assert slo.budget == pytest.approx(0.1)
        assert slo.sample(reg) == (2, 10)
        assert SloSpec("w", "lat", kind="quantile", target=1.0,
                       objective=0.9).sample(reg) == (1, 10)

    def test_quantile_slo_rejects_non_histogram(self):
        reg = MetricsRegistry()
        reg.counter("lat").inc()
        slo = SloSpec("s", "lat", kind="quantile", target=0.1,
                      objective=0.9)
        with pytest.raises(ValueError, match="not a histogram"):
            slo.sample(reg)

    def _ratio(self, **kw):
        reg = MetricsRegistry()
        bad = reg.counter("bad_total")
        total = reg.counter("all_total")
        slo = SloSpec("err", "bad_total", kind="ratio",
                      denominator="all_total", budget=0.1, **kw)
        return reg, bad, total, AlertManager(slos=[slo])

    def test_ratio_burn_math_on_known_deltas(self):
        reg, bad, total, am = self._ratio(fast_window=10.0,
                                          slow_window=100.0)
        _tick(am, reg, 0.0)  # (0, 0): no traffic, burn 0
        st = am.slo_status()["err"]
        assert st["fast_burn"] == 0.0 and st["slow_burn"] == 0.0
        bad.inc(5)
        total.inc(50)
        new = _tick(am, reg, 5.0)
        st = am.slo_status()["err"]
        # (5/50)/0.1 = 1.0 on both windows (history shorter than both).
        assert st["fast_burn"] == 1.0 and st["slow_burn"] == 1.0
        assert [ev["event"] for ev in new] == ["pending", "firing"]
        assert new[-1]["slo"] == "err"
        assert new[-1]["bad"] == 5 and new[-1]["total"] == 50
        # Traffic turns clean: the burn drops below 1, the alert resolves.
        total.inc(10)
        new = _tick(am, reg, 6.0)
        st = am.slo_status()["err"]
        assert st["fast_burn"] == pytest.approx((5 / 60) / 0.1)
        assert [ev["event"] for ev in new] == ["resolved"]

    def test_fast_window_anchors_past_old_samples(self):
        reg, bad, total, am = self._ratio(fast_window=10.0,
                                          slow_window=100.0)
        _tick(am, reg, 0.0)  # clean start: (0, 0)
        bad.inc(5)
        total.inc(50)
        _tick(am, reg, 1.0)  # early bad burst: (5, 50)
        total.inc(50)
        _tick(am, reg, 50.0)  # clean since: (5, 100)
        st = am.slo_status()["err"]
        # Fast window [40, 50] anchors on the t=1 sample (the newest at
        # or before the horizon): its delta holds only the clean tail,
        # so the burst has aged out — burn 0.  The slow window still
        # anchors at t=0 and remembers it: (5/100)/0.1 = 0.5.
        assert st["fast_burn"] == 0.0
        assert st["slow_burn"] == pytest.approx(0.5)

    def test_multi_window_gate_suppresses_blips(self):
        reg, bad, total, am = self._ratio(fast_window=5.0,
                                          slow_window=200.0)
        _tick(am, reg, 0.0)
        total.inc(1000)
        _tick(am, reg, 95.0)  # long clean stretch
        bad.inc(10)
        total.inc(10)
        _tick(am, reg, 101.0)  # brief all-bad burst
        st = am.slo_status()["err"]
        assert st["fast_burn"] == pytest.approx(10.0)  # (10/10)/0.1
        assert st["slow_burn"] == pytest.approx((10 / 1010) / 0.1)
        # Fast screams, slow shrugs: no alert.
        assert am.events == [] and am.firing() == []

    def test_history_trims_to_the_slow_window(self):
        reg, bad, total, am = self._ratio(fast_window=5.0,
                                          slow_window=20.0)
        for t in range(100):
            total.inc(1)
            _tick(am, reg, float(t))
        hist = am._slo_state["err"]["history"]
        # Samples inside the window plus one boundary anchor.
        assert len(hist) <= 22
        assert hist[-1][0] == 99.0
        assert hist[0][0] <= 79.0

    def test_slo_status_none_before_first_sample(self):
        am = AlertManager(slos=[SloSpec(
            "err", "bad_total", kind="ratio", denominator="all_total",
            budget=0.1,
        )])
        assert am.slo_status() == {"err": None}
        _tick(am, MetricsRegistry(), 0.0)  # metric absent: still None
        assert am.slo_status() == {"err": None}

    def test_slo_dict_round_trip(self):
        for slo in (
            SloSpec("lat", "serve_batch_seconds", kind="quantile",
                    target=0.01, objective=0.99, fast_window=60.0,
                    slow_window=600.0, burn_threshold=2.0,
                    for_duration=5.0, description="p99 bound"),
            SloSpec("spill", "serve_spilled_total", kind="ratio",
                    denominator="serve_decided_total", budget=0.05),
        ):
            clone = SloSpec.from_dict(slo.to_dict())
            for attr in ("name", "metric", "kind", "target", "objective",
                         "denominator", "budget", "fast_window",
                         "slow_window", "burn_threshold", "for_duration",
                         "clear_duration", "description"):
                assert getattr(clone, attr) == getattr(slo, attr), attr


class TestConfigAndLog:
    def test_json_config_round_trip(self, tmp_path):
        path = tmp_path / "alerts.json"
        doc = {
            "rules": [r.to_dict() for r in default_alert_rules()],
            "slos": [SloSpec(
                "spill", "serve_spilled_total", kind="ratio",
                denominator="serve_decided_total", budget=0.05,
            ).to_dict()],
        }
        path.write_text(json.dumps(doc))
        rules, slos = load_alert_config(path)
        assert [r.name for r in rules] == [
            "capacity-shock", "degraded-mode", "fleet-liveness"
        ]
        assert [s.name for s in slos] == ["spill"]
        am = AlertManager.from_json(path)
        assert [r.name for r in am.rules] == [r.name for r in rules]

    def test_bare_list_config_is_rules(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(
            [AlertRule("a", "m").to_dict(), AlertRule("b", "m").to_dict()]
        ))
        rules, slos = load_alert_config(path)
        assert [r.name for r in rules] == ["a", "b"] and slos == []

    def test_jsonl_event_log_mirrors_events(self, tmp_path):
        log = tmp_path / "alerts.jsonl"
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        am = AlertManager(
            [AlertRule("deep", "depth", op=">", threshold=5.0)],
            log_path=log,
        )
        for t, v in ((0.0, 1.0), (1.0, 10.0), (2.0, 1.0), (3.0, 10.0)):
            g.set(v)
            _tick(am, reg, t)
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert lines == am.events
        assert [ev["event"] for ev in lines] == [
            "pending", "firing", "resolved", "pending", "firing"
        ]


# -- service integration: the determinism property ----------------------

def _manager():
    """Rules + one SLO over pinned, mode-invariant metrics only."""
    return AlertManager(
        rules=[
            AlertRule("capacity-shock", "serve_capacity_bytes",
                      kind="rate", op="<", threshold=0.0),
            AlertRule("deep-stream", "serve_decided_total", op=">",
                      threshold=120.0, clear_duration=1e12),
        ],
        slos=[SloSpec(
            "spill-rate", "serve_spilled_total", kind="ratio",
            denominator="serve_decided_total", budget=0.01,
            fast_window=15_000.0, slow_window=60_000.0,
        )],
    )


def _feed_alerts(svc, trace, *, batch=17, crash_at=None):
    """Deterministic stream with one alert tick per batch.

    Draining before each tick makes ``serve_decided_total`` (and every
    other pinned counter) mode-invariant at the evaluation points, so
    the event stream can be compared bit for bit across engines.  The
    capacity halves mid-run and restores later (powers of two,
    float-exact), with evaluations in between so the rate rule sees
    both moves.  Stops *before* the ``crash_at`` batch boundary when
    given (the recovery test resumes from there).
    """
    jobs = trace.jobs
    n = len(jobs)
    down_at, up_at = n // 2, (3 * n) // 4
    for lo in range(0, n, batch):
        if crash_at is not None and lo >= crash_at:
            return
        hi = min(lo + batch, n)
        # Shocks land on the batch boundary (before the submission), so
        # scalar mode (decides at submit) and batch mode (decides at
        # drain) both decide every job against the same capacity.
        if lo <= down_at < hi:
            svc.apply_shock(scale=0.5)
        if lo <= up_at < hi:
            svc.apply_shock(scale=2.0)
        svc.submit_jobs(list(jobs[lo:hi]))
        for k in range(lo, hi):
            if k % 13 == 0:
                svc.complete(jobs[k].job_id)
        svc.drain()
        svc.evaluate_alerts()


class TestEventStreamDeterminism:
    def _run(self, trace, builders, pname, mode, fleet=None):
        am = _manager()
        if fleet is None:
            svc = PlacementService(
                builders[pname](), CAP, 4, mode=mode, alerts=am
            )
        else:
            workers, transport = fleet
            svc = FleetRouter(
                builders[pname](), CAP, 4, mode=mode,
                n_workers=workers, transport=transport, alerts=am,
            )
        svc.open(trace)
        _feed_alerts(svc, trace)
        events = [dict(ev) for ev in am.events]
        status = am.slo_status()
        fired = am.fired()
        if fleet is not None:
            svc.close()
        return events, status, fired

    @pytest.mark.parametrize("pname", ("adaptive", "firstfit"))
    def test_bit_identical_across_modes_and_fleet(
        self, trace, builders, pname
    ):
        ref_events, ref_status, ref_fired = self._run(
            trace, builders, pname, "batch"
        )
        # The stream is not vacuous: the capacity drop fires the rate
        # rule (then resolves on the next tick — a one-shot transient),
        # and the threshold rule latches via its huge clear_duration.
        assert "capacity-shock" in ref_fired
        assert "deep-stream" in ref_fired
        kinds = [ev["event"] for ev in ref_events
                 if ev.get("rule") == "capacity-shock"]
        assert kinds == ["pending", "firing", "resolved"]
        for mode, fleet in (
            ("scalar", None),
            ("batch", (1, "inprocess")),
            ("batch", (3, "inprocess")),
            ("batch", (3, "subprocess")),
        ):
            events, status, fired = self._run(
                trace, builders, pname, mode, fleet
            )
            label = f"{pname}/{mode}/{fleet}"
            assert events == ref_events, label
            assert status == ref_status, label
            assert fired == ref_fired, label

    def test_quiet_stream_emits_zero_events(self, trace, builders):
        """No faults, default rules: not a single false positive."""
        am = AlertManager(rules=default_alert_rules())
        svc = PlacementService(
            builders["adaptive"](), CAP, 4, mode="batch", alerts=am
        )
        svc.open(trace)
        jobs = trace.jobs
        for lo in range(0, len(jobs), 17):
            svc.submit_jobs(list(jobs[lo:lo + 17]))
            svc.evaluate_alerts()
        svc.drain()
        svc.evaluate_alerts()
        assert am.events == []
        assert am.fired() == [] and am.firing() == []

    def test_wal_recovery_continues_the_stream(
        self, trace, builders, tmp_path
    ):
        """The recovered service's event stream equals the
        uninterrupted run's — the manager rides the checkpoint and
        replay never evaluates, so nothing resets or double-fires."""
        ref_events, ref_status, _ = self._run(
            trace, builders, "adaptive", "batch"
        )

        n = len(trace.jobs)
        # A batch boundary between the capacity drop (n//2) and the
        # restore (3n//4): the crash lands while capacity-shock has
        # already fired and resolved once.
        crash_at = 17 * ((n // 2 + 17) // 17 + 1)
        assert n // 2 < crash_at < (3 * n) // 4

        wal = str(tmp_path / "a.wal")
        ckpt = str(tmp_path / "a.ckpt")
        svc = PlacementService(
            builders["adaptive"](), CAP, 4, mode="batch",
            alerts=_manager(), wal=wal,
        )
        svc.open(trace)
        _feed_alerts(svc, trace, crash_at=crash_at)
        pre_crash = [dict(ev) for ev in svc.alerts.events]
        assert pre_crash, "crash point must land after events exist"
        svc.checkpoint(ckpt)
        svc.wal.close()  # crash

        rec = PlacementService.recover(ckpt, wal)
        assert rec.alerts is not None
        assert [dict(ev) for ev in rec.alerts.events] == pre_crash
        jobs = trace.jobs
        up_at = (3 * n) // 4
        for lo in range(crash_at, n, 17):
            hi = min(lo + 17, n)
            if lo <= up_at < hi:
                rec.apply_shock(scale=2.0)
            rec.submit_jobs(list(jobs[lo:hi]))
            for k in range(lo, hi):
                if k % 13 == 0:
                    rec.complete(jobs[k].job_id)
            rec.drain()
            rec.evaluate_alerts()
        assert [dict(ev) for ev in rec.alerts.events] == ref_events
        assert rec.alerts.slo_status() == ref_status

    def test_manager_survives_snapshot_restore(self, trace, builders):
        svc = PlacementService(
            builders["firstfit"](), CAP, 4, mode="batch", alerts=_manager()
        )
        svc.open(trace)
        _feed_alerts(svc, trace)
        clone = PlacementService.restore(svc.snapshot())
        assert clone.alerts is not None
        assert clone.alerts.events == svc.alerts.events
        assert clone.alerts.seq == svc.alerts.seq
        # The clone's manager is independent state, not a shared ref.
        clone.evaluate_alerts()
        assert clone.alerts.seq == svc.alerts.seq + 1


# -- chaos scenarios fire exactly their expected alerts -----------------

class TestScenarioAlerts:
    @pytest.fixture(scope="class")
    def chaos_trace(self):
        return random_trace(7, n=200)

    @pytest.mark.parametrize(
        "name", ("nofault", "lane_loss", "cat_outage", "worker_kill")
    )
    def test_expected_alert_sets(self, chaos_trace, name):
        rows = run_scenario(
            get_scenario(name), chaos_trace, capacity=CAP,
            batch_jobs=32, alerts=True,
        )
        assert {r.policy for r in rows} == {"adaptive", "baseline"}
        for r in rows:
            want = expected_alerts(
                name, categorizer=(r.policy == "adaptive")
            )
            assert set(r.alerts_fired) == want, (name, r.policy)
            if not want:
                assert r.alert_events == 0, (name, r.policy)

    def test_default_rules_are_fresh_objects(self):
        a, b = default_alert_rules(), default_alert_rules()
        assert [r.name for r in a] == [r.name for r in b]
        assert all(x is not y for x, y in zip(a, b))


# -- snapshot schema compatibility (pre-alerting checkpoints) -----------

def _downgrade(snap, schema, strip):
    from dataclasses import replace

    payload = {k: v for k, v in snap.payload.items() if k not in strip}
    payload["__schema__"] = schema
    return replace(snap, payload=payload)


class TestSnapshotCompat:
    _PRE_ALERTS = ("alerts", "tracer", "_clock")
    _PRE_METRICS = _PRE_ALERTS + (
        "registry", "_m_cat", "_m_request", "_m_batch", "_m_chunk_jobs",
    )

    def _service(self, trace, builders):
        svc = PlacementService(builders["firstfit"](), CAP, 4, mode="batch")
        svc.open(trace)
        svc.submit_jobs(list(trace.jobs[:60]))
        svc.drain()
        return svc

    @pytest.mark.parametrize("schema,strip", [
        (1, _PRE_METRICS), (2, _PRE_ALERTS),
    ])
    def test_older_schema_restores_with_defaults(
        self, trace, builders, schema, strip
    ):
        svc = self._service(trace, builders)
        old = _downgrade(svc.snapshot(), schema, strip)
        rec = PlacementService.restore(old)
        assert rec.alerts is None and rec.tracer is None
        # The restored service keeps serving: decisions continue and
        # the (possibly fresh) metrics surface works.
        rec.submit_jobs(list(trace.jobs[60:80]))
        rec.drain()
        assert rec.n_decided == 80
        # A schema-1 payload gets a *fresh* registry; the pinned
        # counters re-sync from the authoritative stats either way.
        assert rec.metrics()["serve_decided_total"] == 80
        assert rec.evaluate_alerts() == []

    def test_unknown_schema_still_refuses(self, trace, builders):
        from repro.serve import SnapshotMismatch

        svc = self._service(trace, builders)
        bad = _downgrade(svc.snapshot(), 99, ())
        with pytest.raises(SnapshotMismatch, match="schema"):
            PlacementService.restore(bad)
