"""Named chaos scenarios and the adaptive-vs-baseline runner.

One :class:`ChaosScenario` is a reproducible fault script scaled to the
trace: its builder receives ``(n_jobs, n_shards)`` and returns the
:class:`~repro.serve.faults.FaultPlan` to fire.  The runner drives the
same trace, the same micro-batch slicing, the same deterministic
completion stream, and the same plan through each competing policy, so
the per-scenario rows isolate exactly one variable — how the placement
policy copes with the faults.

Used by the ``chaos`` CLI subcommand and
``benchmarks/bench_chaos_scenarios.py`` (fixed seeds; the committed
baseline lives in ``benchmarks/results/chaos_scenarios.txt``).
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass

import numpy as np

from ..workloads.metadata import stable_hash
from .alerts import AlertManager, AlertRule
from .faults import FaultEvent, FaultInjector, FaultPlan, TransientSubmitError

__all__ = [
    "ChaosScenario",
    "ScenarioRow",
    "SCENARIOS",
    "EXPECTED_ALERTS",
    "expected_alerts",
    "default_alert_rules",
    "default_policies",
    "run_scenario",
    "run_suite",
    "format_rows",
]


@dataclass(frozen=True)
class ChaosScenario:
    """A named, trace-scaled fault script.

    ``min_workers > 1`` marks a scenario that only makes sense against
    a worker fleet (``worker_kill``): the runner raises its effective
    worker count to at least this, standing up a
    :class:`~repro.serve.FleetRouter` where a plain service would do.
    """

    name: str
    description: str
    builder: object  # (n_jobs, n_shards) -> FaultPlan
    min_workers: int = 1

    def plan(self, n_jobs: int, n_shards: int) -> FaultPlan:
        return self.builder(n_jobs, n_shards)


def _lane(n_shards: int) -> int:
    return min(1, n_shards - 1)


def _nofault(n, s):
    return FaultPlan()


def _lane_loss(n, s):
    return FaultPlan((
        FaultEvent(at=int(0.3 * n), kind="lane_loss", lane=_lane(s)),
        FaultEvent(at=int(0.7 * n), kind="lane_restore", lane=_lane(s)),
    ))


def _lane_shrink(n, s):
    return FaultPlan((
        FaultEvent(at=int(0.25 * n), kind="lane_shrink", lane=0, scale=0.25),
        FaultEvent(at=int(0.25 * n), kind="lane_shrink", lane=_lane(s), scale=0.25),
        FaultEvent(at=int(0.75 * n), kind="lane_restore", lane=0),
        FaultEvent(at=int(0.75 * n), kind="lane_restore", lane=_lane(s)),
    ))


def _quota_cut(n, s):
    # 0.5 then 2.0 are powers of two: the restore is float-exact.
    return FaultPlan((
        FaultEvent(at=int(0.4 * n), kind="quota", scale=0.5),
        FaultEvent(at=int(0.8 * n), kind="quota", scale=2.0),
    ))


def _cat_outage(n, s):
    return FaultPlan((
        FaultEvent(at=int(0.2 * n), kind="cat_fail"),
        FaultEvent(at=int(0.6 * n), kind="cat_recover"),
    ))


def _complete_chaos(n, s):
    return FaultPlan((
        FaultEvent(at=int(0.3 * n), kind="drop_complete", count=40),
        FaultEvent(at=int(0.5 * n), kind="dup_complete", count=40),
        FaultEvent(at=int(0.6 * n), kind="submit_error", count=2),
    ))


def _worker_kill(n, s):
    # Two kills of the same worker exercise repeated WAL/checkpoint
    # recovery; failover is bit-exact, so this row must match nofault.
    return FaultPlan((
        FaultEvent(at=int(0.35 * n), kind="worker_kill", lane=1),
        FaultEvent(at=int(0.65 * n), kind="worker_kill", lane=1),
    ))


SCENARIOS = (
    ChaosScenario("nofault", "clean run (reference row)", _nofault),
    ChaosScenario("lane_loss", "one caching server dies, later returns", _lane_loss),
    ChaosScenario("lane_shrink", "two lanes shrink to 25%, later restore", _lane_shrink),
    ChaosScenario("quota_cut", "fleet quota halved, later restored", _quota_cut),
    ChaosScenario("cat_outage", "categorizer down for 40% of the stream", _cat_outage),
    ChaosScenario(
        "complete_chaos",
        "lost + duplicated completions, transient submit failures",
        _complete_chaos,
    ),
    ChaosScenario(
        "worker_kill",
        "a fleet worker dies twice, failover replays it back",
        _worker_kill,
        min_workers=3,
    ),
)


def default_alert_rules() -> list[AlertRule]:
    """The standard chaos alert set, fresh rule objects per call.

    Every input is a mode-invariant metric read from its source, so the
    alert event stream these rules produce is part of the determinism
    contract:

    - ``capacity-shock`` — the fleet quota moved down between two
      evaluations (rate-of-change of ``serve_capacity_bytes``); fires
      for lane loss, lane shrink, and quota cuts, resolves when
      capacity is restored.
    - ``degraded-mode`` — admission is running on the heuristic
      fallback (``serve_degraded`` gauge); fires for categorizer
      outages.
    - ``fleet-liveness`` — a worker was rebuilt from checkpoint + WAL
      (``serve_worker_recoveries``); fires for worker kills.  The
      metric only exists on a :class:`~repro.serve.FleetRouter`, so the
      rule is inert on a single-process service.
    """
    return [
        AlertRule(
            "capacity-shock", "serve_capacity_bytes", kind="rate",
            op="<", threshold=0.0,
            description="fleet SSD capacity dropped between evaluations",
        ),
        AlertRule(
            "degraded-mode", "serve_degraded", op=">", threshold=0.0,
            description="categorizer down; admission on heuristic fallback",
        ),
        AlertRule(
            "fleet-liveness", "serve_worker_recoveries", op=">",
            threshold=0.0,
            description="a fleet worker was rebuilt from checkpoint + WAL",
        ),
    ]


#: The alert names each scenario must fire under
#: :func:`default_alert_rules` — and, for ``nofault``, the assertion
#: that the clean run emits *zero* alert events (no false positives).
#: ``complete_chaos`` perturbs only the completion stream, which no
#: default rule watches, so it is a zero-alert scenario too.
EXPECTED_ALERTS = {
    "nofault": frozenset(),
    "lane_loss": frozenset({"capacity-shock"}),
    "lane_shrink": frozenset({"capacity-shock"}),
    "quota_cut": frozenset({"capacity-shock"}),
    "cat_outage": frozenset({"degraded-mode"}),
    "complete_chaos": frozenset(),
    "worker_kill": frozenset({"fleet-liveness"}),
}


def expected_alerts(scenario: str, *, categorizer: bool = True) -> frozenset:
    """The alert set one contender must fire under a scenario.

    A contender with no categorizer (the first-fit baseline) cannot
    enter degraded mode, so ``cat_outage`` fires nothing for it — pass
    ``categorizer=False`` to drop that expectation.
    """
    exp = EXPECTED_ALERTS[scenario]
    if not categorizer:
        exp = exp - frozenset({"degraded-mode"})
    return exp


def get_scenario(name: str) -> ChaosScenario:
    for sc in SCENARIOS:
        if sc.name == name:
            return sc
    raise KeyError(
        f"unknown scenario {name!r}; pick from "
        f"{', '.join(sc.name for sc in SCENARIOS)}"
    )


@dataclass(frozen=True)
class ScenarioRow:
    """One (scenario, policy) outcome.

    ``degraded_intervals`` is read from the service's live metrics
    surface (``serve_degraded_intervals_total``) rather than the stats
    object — the bench asserts the two agree, so the scrape endpoint
    can never drift from the roll-up.

    ``alerts_fired`` holds the names that reached ``firing`` during the
    run (sorted) when the runner attached an alert manager, and
    ``alert_events`` the total transition-event count — zero on a clean
    run is the no-false-positives assertion.
    """

    scenario: str
    policy: str
    tco_savings_pct: float
    n_spilled: int
    n_evicted: int
    n_shocks: int
    degraded_jobs: int
    dropped_completes: int
    duplicate_completes: int
    n_retries: int
    degraded_intervals: int = 0
    alerts_fired: tuple = ()
    alert_events: int = 0


def default_policies(n_categories: int = 15):
    """The standard adaptive-vs-baseline contenders.

    ``adaptive`` is the serve-native Algorithm-1 policy fed by a
    seeded-hash categorizer (a different seed than the degraded-mode
    fallback, so categorizer outages visibly change admission);
    ``baseline`` is first-fit with no categorizer.  Each builder
    returns ``(policy, categorizer)``.
    """

    def build_adaptive():
        from .policy import OnlineAdaptivePolicy

        def categorizer(jobs):
            return np.array(
                [1 + stable_hash(j.pipeline, seed=1) % (n_categories - 1)
                 for j in jobs],
                dtype=np.int64,
            )

        return (
            OnlineAdaptivePolicy(n_categories, per_shard_act=True),
            categorizer,
        )

    def build_baseline():
        from ..baselines import FirstFitPolicy

        return FirstFitPolicy(), None

    return {"adaptive": build_adaptive, "baseline": build_baseline}


def _drive_contender(
    svc, scenario, trace, *, scenario_name, pname, batch_jobs,
    complete_fraction, seed, max_retries, n_shards, metrics_hook=None,
) -> ScenarioRow:
    """Stream the trace through one contender under the scenario's plan."""
    n = len(trace)
    inj = FaultInjector(svc, scenario.plan(n, n_shards))
    rng = np.random.default_rng(seed)
    n_retries = 0
    for lo in range(0, n, batch_jobs):
        hi = min(lo + batch_jobs, n)
        for attempt in range(max_retries + 1):
            try:
                decisions = inj.submit_batch(
                    trace.arrivals[lo:hi], trace.durations[lo:hi],
                    trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                    trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                    pipelines=trace.pipelines[lo:hi],
                )
                break
            except TransientSubmitError:
                n_retries += 1
                if attempt == max_retries:
                    raise
        # The completion lottery draws per *submitted batch*, not per
        # decision, so every contender consumes the same randomness.
        lottery = rng.random(hi - lo)
        for k, d in enumerate(decisions[: hi - lo]):
            if lottery[k] < complete_fraction:
                inj.complete(d.job_id)
        # One alert tick per submitted batch — the same deterministic
        # cadence for every contender, before any scrape-endpoint
        # refresh the hook may add.
        if svc.alerts is not None:
            svc.evaluate_alerts()
        if metrics_hook is not None:
            metrics_hook(svc)
    inj.drain()
    metrics = svc.metrics()
    res = svc.result()
    st = svc.stats
    am = svc.alerts
    return ScenarioRow(
        scenario=scenario_name,
        policy=pname,
        tco_savings_pct=float(res.tco_savings_pct),
        n_spilled=int(res.n_spilled),
        n_evicted=int(st.n_evicted),
        n_shocks=int(st.n_shocks),
        degraded_jobs=int(st.degraded_jobs),
        dropped_completes=int(inj.n_dropped_completes),
        duplicate_completes=int(st.duplicate_completes),
        n_retries=n_retries,
        degraded_intervals=int(metrics["serve_degraded_intervals_total"]),
        alerts_fired=() if am is None else tuple(am.fired()),
        alert_events=0 if am is None else len(am.events),
    )


def run_scenario(
    scenario: ChaosScenario,
    trace,
    *,
    capacity,
    n_shards: int = 4,
    batch_jobs: int = 64,
    policies=None,
    complete_fraction: float = 0.25,
    seed: int = 0,
    max_retries: int = 5,
    n_workers: int = 1,
    transport: str = "inprocess",
    worker_dir: "str | None" = None,
    metrics_hook=None,
    alerts=False,
    tracer=None,
) -> list[ScenarioRow]:
    """Run one scenario through every contender; returns one row each.

    ``metrics_hook`` (optional) is called with the live service after
    every submitted batch — the ``chaos`` CLI hangs its scrape-endpoint
    refresh on it.

    ``alerts`` attaches an alert manager to each contender and ticks it
    once per submitted batch: ``True`` uses :func:`default_alert_rules`,
    a callable is invoked per contender and must return a fresh
    :class:`~repro.serve.alerts.AlertManager` (managers hold per-run
    state and cannot be shared).  The row then reports
    ``alerts_fired`` / ``alert_events`` — compare against
    :data:`EXPECTED_ALERTS`.

    ``tracer`` (optional) is a zero-argument callable returning a fresh
    :class:`~repro.serve.tracing.Tracer` per contender — the caller
    keeps its own references to read the spans back (the ``chaos`` CLI
    does exactly that for ``--trace-out``).

    Every contender sees the identical stream: the same micro-batch
    slicing, the same fault plan, and the same deterministic completion
    lottery (each decided job completes early with probability
    ``complete_fraction``, drawn from ``seed`` independently of the
    policy's decisions).  Injected transient submit errors are retried
    up to ``max_retries`` times, mirroring the load generator.

    The effective fleet size is ``max(n_workers, scenario.min_workers)``;
    above 1 the contender is a :class:`~repro.serve.FleetRouter` with
    per-worker durability under ``worker_dir`` (a temporary directory
    when not given), so ``worker_kill`` events recover transparently.
    Fleet decisions are bit-identical to single-process, so the only
    thing a fleet row can change is surviving the kills.
    """
    policies = default_policies() if policies is None else policies
    eff_workers = max(int(n_workers), scenario.min_workers)

    def make_alerts():
        if not alerts:
            return None
        if callable(alerts):
            return alerts()
        return AlertManager(rules=default_alert_rules())

    def make_tracer():
        return None if tracer is None else tracer()

    rows = []
    for pname, build in policies.items():
        policy, categorizer = build()
        if eff_workers > 1:
            from .router import FleetRouter

            ctx = (
                tempfile.TemporaryDirectory()
                if worker_dir is None
                else contextlib.nullcontext(worker_dir)
            )
            with ctx as wdir:
                svc = FleetRouter(
                    policy, capacity, n_shards, mode="batch",
                    categorizer=categorizer, n_workers=eff_workers,
                    transport=transport, worker_dir=wdir,
                    alerts=make_alerts(), tracer=make_tracer(),
                )
                if categorizer is None:
                    svc.open(trace)
                try:
                    row = _drive_contender(
                        svc, scenario, trace, scenario_name=scenario.name,
                        pname=pname, batch_jobs=batch_jobs,
                        complete_fraction=complete_fraction, seed=seed,
                        max_retries=max_retries, n_shards=n_shards,
                        metrics_hook=metrics_hook,
                    )
                finally:
                    svc.close()
        else:
            from .service import PlacementService

            svc = PlacementService(
                policy, capacity, n_shards, mode="batch",
                categorizer=categorizer, alerts=make_alerts(),
                tracer=make_tracer(),
            )
            if categorizer is None:
                svc.open(trace)
            row = _drive_contender(
                svc, scenario, trace, scenario_name=scenario.name,
                pname=pname, batch_jobs=batch_jobs,
                complete_fraction=complete_fraction, seed=seed,
                max_retries=max_retries, n_shards=n_shards,
                metrics_hook=metrics_hook,
            )
        rows.append(row)
    return rows


def run_suite(trace, *, capacity, n_shards: int = 4, batch_jobs: int = 64,
              scenarios=SCENARIOS, policies=None, seed: int = 0,
              n_workers: int = 1, transport: str = "inprocess",
              worker_dir: "str | None" = None,
              metrics_hook=None, alerts=False,
              tracer=None) -> list[ScenarioRow]:
    """Run every scenario; returns all rows in suite order."""
    rows = []
    for sc in scenarios:
        rows.extend(run_scenario(
            sc, trace, capacity=capacity, n_shards=n_shards,
            batch_jobs=batch_jobs, policies=policies, seed=seed,
            n_workers=n_workers, transport=transport, worker_dir=worker_dir,
            metrics_hook=metrics_hook, alerts=alerts, tracer=tracer,
        ))
    return rows


def format_rows(rows) -> str:
    """Render scenario rows as the fixed-width table the bench commits."""
    head = (
        f"{'scenario':<16} {'policy':<10} {'tco_sav%':>9} {'spilled':>8} "
        f"{'evicted':>8} {'shocks':>7} {'degraded':>9} {'d_ivals':>8} "
        f"{'dropped':>8} {'dup':>5} {'retries':>8} alerts"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        alerts = ",".join(r.alerts_fired) if r.alerts_fired else "-"
        lines.append(
            f"{r.scenario:<16} {r.policy:<10} {r.tco_savings_pct:>9.2f} "
            f"{r.n_spilled:>8} {r.n_evicted:>8} {r.n_shocks:>7} "
            f"{r.degraded_jobs:>9} {r.degraded_intervals:>8} "
            f"{r.dropped_completes:>8} {r.duplicate_completes:>5} "
            f"{r.n_retries:>8} {alerts}"
        )
    return "\n".join(lines)
