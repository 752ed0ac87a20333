"""Command-line interface for the reproduction.

Subcommands:

- ``generate``  — synthesize a cluster trace and save it to disk
- ``stats``     — structural statistics of a saved or generated trace
- ``sweep``     — quota sweep of all methods on one cluster (Figure 7)
- ``headroom``  — oracle-vs-heuristic headroom analysis (Section 3.1)
- ``deploy``    — train BYOM on week 1, deploy on week 2, report savings
- ``replay``    — stream a CSV/npz trace through the simulator without
  materializing per-job objects (see ``repro.workloads.streaming``)
- ``serve``     — replay a trace request-at-a-time (or in micro-batches)
  through the online ``PlacementService`` (see ``repro.serve``); with
  ``--wal``/``--checkpoint`` the run is durable, with ``--fault-plan``
  a scripted fault plan fires mid-stream, and ``--recover`` resumes a
  crashed run from its checkpoint + WAL to the exact pre-crash state
- ``loadgen``   — timed load generation against the service: open loop
  (fixed rate and burst shape) or closed loop (latency-aware pacing
  with a bounded in-flight window and a warmup/measure split)
- ``chaos``     — the named chaos scenario suite: adaptive vs baseline
  under lane loss/shrink, quota cuts, categorizer outages, completion
  chaos (see ``repro.serve.scenarios``)

``serve``, ``loadgen``, and ``chaos`` accept ``--metrics-port N`` to
expose a Prometheus-format scrape endpoint while running (0 picks a
free port; see ``docs/observability.md``).

``serve`` and ``loadgen`` handle Ctrl-C gracefully: queued jobs are
drained, the partial roll-up is printed, and the process exits 130.
An injected ``crash`` fault point exits hard with status 137 (the WAL
and the last checkpoint survive; ``--recover`` picks them up).

Examples::

    python -m repro.cli generate --cluster 0 --out /tmp/c0
    python -m repro.cli stats --trace /tmp/c0
    python -m repro.cli sweep --cluster 0 --quotas 0.01 0.1 0.5
    python -m repro.cli headroom --cluster 0 --quota 0.01
    python -m repro.cli deploy --cluster 0 --quota 0.01
    python -m repro.cli replay --trace /tmp/trace.csv --quota 0.05 --shards 4
    python -m repro.cli serve --trace /tmp/trace.csv --quota 0.05 --batch 512
    python -m repro.cli serve --trace /tmp/c0 --wal /tmp/c0.wal \\
        --checkpoint /tmp/c0.ckpt --fault-plan /tmp/faults.json
    python -m repro.cli serve --trace /tmp/c0 --wal /tmp/c0.wal \\
        --checkpoint /tmp/c0.ckpt --recover
    python -m repro.cli loadgen --trace /tmp/trace.csv --rate 20000 --burst poisson
    python -m repro.cli chaos --jobs 3000 --scenario lane_loss
"""

from __future__ import annotations

import argparse
import sys

from .units import WEEK, fmt_bytes, fmt_duration

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BYOM storage placement reproduction (MLSys 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a cluster trace")
    gen.add_argument("--cluster", type=int, default=0, help="default-cluster index (0-9)")
    gen.add_argument("--weeks", type=float, default=2.0, help="trace span in weeks")
    gen.add_argument("--seed", type=int, default=None, help="override the cluster seed")
    gen.add_argument("--out", required=True, help="output path prefix (.npz/.json)")

    stats = sub.add_parser("stats", help="trace statistics")
    group = stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--trace", help="path prefix of a saved trace")
    group.add_argument("--cluster", type=int, help="default-cluster index")

    sweep = sub.add_parser("sweep", help="method x quota sweep (Figure 7)")
    sweep.add_argument("--cluster", type=int, default=0)
    sweep.add_argument(
        "--quotas", type=float, nargs="+", default=[0.01, 0.05, 0.2, 1.0]
    )

    head = sub.add_parser("headroom", help="oracle vs heuristic (Section 3.1)")
    head.add_argument("--cluster", type=int, default=0)
    head.add_argument("--quota", type=float, default=0.01)

    deploy = sub.add_parser("deploy", help="train + deploy BYOM on one cluster")
    deploy.add_argument("--cluster", type=int, default=0)
    deploy.add_argument("--quota", type=float, default=0.01)
    deploy.add_argument("--categories", type=int, default=15)

    replay = sub.add_parser(
        "replay", help="stream a trace file through the placement simulator"
    )
    replay.add_argument(
        "--trace", required=True,
        help="trace to stream: a .csv file or a .npz/prefix saved by generate",
    )
    replay.add_argument("--quota", type=float, default=0.05,
                        help="SSD capacity as a fraction of the trace's peak usage")
    replay.add_argument("--shards", type=int, default=1,
                        help="number of caching servers (1 = one global pool)")
    replay.add_argument("--categories", type=int, default=15,
                        help="category count for the hash-category adaptive policy")
    replay.add_argument("--block-size", type=int, default=None,
                        help="jobs per streamed block (default 65536)")
    replay.add_argument("--engine", choices=("auto", "chunked", "legacy"),
                        default="auto", help="simulator event loop")
    replay.add_argument("--aggregate", action="store_true",
                        help="constant-memory results: keep aggregates only, "
                             "drop the per-job SSD-fraction array")

    serve = sub.add_parser(
        "serve",
        help="replay a trace through the online placement service",
    )
    serve.add_argument(
        "--trace", required=True,
        help="trace to serve: a .csv file or a .npz/prefix saved by generate",
    )
    serve.add_argument("--quota", type=float, default=0.05,
                       help="SSD capacity as a fraction of the trace's peak usage")
    serve.add_argument("--shards", type=int, default=1,
                       help="number of caching servers (1 = one global pool)")
    serve.add_argument("--categories", type=int, default=15,
                       help="category count for the hash-category adaptive policy")
    serve.add_argument("--mode", choices=("batch", "scalar"), default="batch",
                       help="micro-batch (chunked-engine) or request-at-a-time "
                            "(legacy-engine) submission; a fleet "
                            "(--workers > 1) serves batch mode only")
    serve.add_argument("--batch", type=int, default=512,
                       help="jobs per submitted micro-batch (batch mode)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="backpressure bound on the admission queue")
    serve.add_argument("--aggregate", action="store_true",
                       help="keep aggregates only in the final roll-up")
    serve.add_argument("--wal", default=None,
                       help="write-ahead log path: every mutating call is "
                            "logged before it applies")
    serve.add_argument("--checkpoint", default=None,
                       help="checkpoint path: a snapshot is pickled here at "
                            "start and every --checkpoint-every batches")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="micro-batches between periodic checkpoints "
                            "(0 = only the initial one)")
    serve.add_argument("--fault-plan", default=None,
                       help="JSON fault plan fired at submission boundaries "
                            "(see repro.serve.faults); an injected crash "
                            "exits hard with status 137")
    serve.add_argument("--recover", action="store_true",
                       help="resume from --checkpoint + --wal instead of "
                            "starting fresh, then serve the remaining trace")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker fleet size (>1 serves through the "
                            "scatter-gather FleetRouter; decisions stay "
                            "bit-identical to one process)")
    serve.add_argument("--transport", choices=("inprocess", "subprocess"),
                       default="inprocess",
                       help="fleet transport: in-process workers or forked "
                            "child processes")
    serve.add_argument("--worker-dir", default=None,
                       help="directory for per-worker WAL/checkpoint files; "
                            "enables transparent worker failover")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve Prometheus-format metrics on this local "
                            "port while running (0 = pick a free port)")
    _add_observability_args(serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="open- or closed-loop timed load generation against the "
             "placement service",
    )
    loadgen.add_argument(
        "--trace", required=True,
        help="trace to stream: a .csv file or a .npz/prefix saved by generate",
    )
    loadgen.add_argument("--quota", type=float, default=0.05,
                         help="SSD capacity as a fraction of the trace's peak usage")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="number of caching servers")
    loadgen.add_argument("--categories", type=int, default=15,
                         help="category count for the hash-category adaptive policy")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="offered load in jobs/second (default: as fast "
                              "as possible, no pacing)")
    loadgen.add_argument("--burst", choices=("trace", "uniform", "poisson"),
                         default="trace", help="arrival burst shape")
    loadgen.add_argument("--batch", type=int, default=256,
                         help="jobs per released micro-batch")
    loadgen.add_argument("--limit", type=int, default=None,
                         help="stop after this many jobs")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="seed of the poisson gap sampler")
    loadgen.add_argument("--workers", type=int, default=1,
                         help="worker fleet size (>1 uses the FleetRouter)")
    loadgen.add_argument("--transport", choices=("inprocess", "subprocess"),
                         default="inprocess",
                         help="fleet transport: in-process workers or forked "
                              "child processes")
    loadgen.add_argument("--mode", choices=("open", "closed"), default="open",
                         help="open loop (send on schedule regardless of "
                              "service speed) or closed loop (latency-aware "
                              "pacing with a warmup/measure split)")
    loadgen.add_argument("--max-in-flight", type=int, default=None,
                         help="closed-loop bound on undecided jobs; exceeding "
                              "it forces a drain charged to that batch")
    loadgen.add_argument("--warmup", type=int, default=0,
                         help="jobs excluded from the closed-loop measured "
                              "window")
    loadgen.add_argument("--metrics-port", type=int, default=None,
                         help="serve Prometheus-format metrics on this local "
                              "port while running (0 = pick a free port)")
    _add_observability_args(loadgen)

    chaos = sub.add_parser(
        "chaos",
        help="chaos scenario suite: adaptive vs baseline under faults",
    )
    chaos.add_argument("--trace", default=None,
                       help="trace to serve (default: generate a cluster "
                            "trace and take the first --jobs jobs)")
    chaos.add_argument("--cluster", type=int, default=0,
                       help="default-cluster index for the generated trace")
    chaos.add_argument("--jobs", type=int, default=3000,
                       help="job count of the generated trace")
    chaos.add_argument("--seed", type=int, default=0,
                       help="trace-generation and completion-lottery seed")
    chaos.add_argument("--quota", type=float, default=0.05,
                       help="SSD capacity as a fraction of the trace's peak usage")
    chaos.add_argument("--shards", type=int, default=4,
                       help="number of caching servers")
    chaos.add_argument("--batch", type=int, default=64,
                       help="jobs per submitted micro-batch")
    chaos.add_argument("--scenario", default="all",
                       help="one scenario name, or 'all' for the full suite")
    chaos.add_argument("--workers", type=int, default=1,
                       help="worker fleet size (>1 runs scenarios through "
                            "the FleetRouter; worker_kill faults need >1)")
    chaos.add_argument("--transport", choices=("inprocess", "subprocess"),
                       default="inprocess",
                       help="fleet transport: in-process workers or forked "
                            "child processes")
    chaos.add_argument("--metrics-port", type=int, default=None,
                       help="serve Prometheus-format metrics on this local "
                            "port while running (0 = pick a free port)")
    _add_observability_args(chaos)
    chaos.add_argument("--no-alerts", action="store_true",
                       help="disable the default chaos alert rules")
    return parser


def _add_observability_args(p) -> None:
    """The alerting/SLO/tracing flags shared by serve, loadgen, chaos."""
    p.add_argument("--alert-rules", default=None,
                   help="JSON alert config: {\"rules\": [...], \"slos\": "
                        "[...]} or a bare rule list (see repro.serve.alerts)")
    p.add_argument("--slo", default=None,
                   help="JSON SLO config, same format as --alert-rules "
                        "(both files may carry rules and SLOs; they merge)")
    p.add_argument("--alert-log", default=None,
                   help="append one JSON line per alert transition to this "
                        "file")
    p.add_argument("--trace-out", default=None,
                   help="export sampled request spans as JSONL to this file "
                        "at the end of the run (enables tracing)")
    p.add_argument("--trace-sample", type=float, default=1.0,
                   help="fraction of jobs traced, by deterministic job-id "
                        "hash (default 1.0)")


def _cmd_generate(args) -> int:
    from .workloads import default_cluster_specs, generate_cluster_trace, save_trace

    spec = default_cluster_specs(10)[args.cluster]
    trace = generate_cluster_trace(spec, duration=args.weeks * WEEK, seed=args.seed)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} jobs ({trace.name}) to {args.out}.npz/.json")
    return 0


def _cmd_stats(args) -> int:
    from .workloads import load_trace
    from .workloads.validation import trace_statistics

    if args.trace:
        trace = load_trace(args.trace)
    else:
        from .workloads import default_cluster_specs, generate_cluster_trace

        spec = default_cluster_specs(10)[args.cluster]
        trace = generate_cluster_trace(spec, duration=2 * WEEK)
    s = trace_statistics(trace)
    print(f"trace {trace.name}: {s.n_jobs} jobs / {s.n_pipelines} pipelines / "
          f"{s.n_users} users over {fmt_duration(s.span)}")
    print(f"  size p50/p99:       {fmt_bytes(s.size_p50)} / {fmt_bytes(s.size_p99)}")
    print(f"  lifetime p50/p99:   {fmt_duration(s.lifetime_p50)} / {fmt_duration(s.lifetime_p99)}")
    print(f"  positive savings:   {s.positive_savings_fraction:.1%} of jobs")
    print(f"  density range:      {s.density_dynamic_range:.1f} orders of magnitude")
    print(f"  pipeline churn:     {s.churn_fraction:.1%}")
    print(f"  peak SSD usage:     {fmt_bytes(s.peak_ssd_usage)}")
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import FIG7_METHODS, render_series, run_method_suite, standard_cluster

    cluster = standard_cluster(args.cluster)
    quotas = tuple(args.quotas)
    results = run_method_suite(
        cluster, FIG7_METHODS, quotas, oracle_kw={"time_limit": 30.0}
    )
    series = {
        m: [results[m][q].tco_savings_pct for q in quotas] for m in FIG7_METHODS
    }
    print(render_series(
        [f"{q:.0%}" for q in quotas], series, x_name="quota",
        title=f"TCO savings (%) vs SSD quota, cluster C{args.cluster}",
    ))
    return 0


def _cmd_headroom(args) -> int:
    from .analysis import standard_cluster
    from .oracle import headroom_analysis

    cluster = standard_cluster(args.cluster)
    result = headroom_analysis(cluster.train, cluster.test, args.quota)
    print(f"capacity: {fmt_bytes(result.capacity)} ({args.quota:.1%} of peak)")
    print(f"oracle:    {result.oracle.tco_savings_pct:.2f}% TCO savings")
    print(f"heuristic: {result.heuristic.tco_savings_pct:.2f}% TCO savings")
    print(f"headroom:  {result.savings_ratio:.2f}x (paper: 5.06x)")
    return 0


def _cmd_deploy(args) -> int:
    from .analysis import standard_cluster
    from .config import ModelParams
    from .core import ByomPipeline

    cluster = standard_cluster(args.cluster)
    pipe = ByomPipeline(ModelParams(n_categories=args.categories, n_rounds=10))
    pipe.train(cluster.train, cluster.features_train)
    acc = pipe.model.top1_accuracy(cluster.test, cluster.features_test)
    res = pipe.deploy(
        cluster.test, cluster.features_test, args.quota, cluster.peak_ssd_usage
    )
    print(f"cluster C{args.cluster}: trained on {len(cluster.train)} jobs, "
          f"deployed on {len(cluster.test)}")
    print(f"  top-1 accuracy: {acc:.2f} ({args.categories} categories)")
    print(f"  TCO savings:    {res.tco_savings_pct:.2f}%")
    print(f"  TCIO savings:   {res.tcio_savings_pct:.2f}%")
    return 0


def _cmd_replay(args) -> int:
    from .core import AdaptiveCategoryPolicy, hash_categories
    from .storage import simulate, simulate_sharded
    from .workloads.streaming import (
        DEFAULT_BLOCK_SIZE,
        materialize_trace,
        open_trace_source,
    )

    block_size = DEFAULT_BLOCK_SIZE if args.block_size is None else args.block_size
    if block_size < 1:
        print(f"replay: --block-size must be >= 1, got {block_size}", file=sys.stderr)
        return 2
    source = open_trace_source(args.trace, block_size=block_size)
    trace = materialize_trace(source)
    if len(trace) == 0:
        print(f"trace {trace.name}: 0 jobs, nothing to replay")
        return 0
    peak = trace.peak_ssd_usage()
    capacity = args.quota * peak
    policy = AdaptiveCategoryPolicy(
        hash_categories(trace, args.categories), args.categories,
        name="Adaptive Hash",
    )
    if args.shards > 1:
        res = simulate_sharded(
            trace, policy, capacity, args.shards, engine=args.engine,
            aggregate_only=args.aggregate,
        )
    else:
        res = simulate(
            trace, policy, capacity, engine=args.engine,
            aggregate_only=args.aggregate,
        )
    print(f"streamed {len(trace)} jobs from {args.trace} "
          f"({type(source).__name__}, blocks of {block_size})")
    print(f"  capacity:     {fmt_bytes(capacity)} "
          f"({args.quota:.1%} of {fmt_bytes(peak)} peak)"
          + (f" across {args.shards} caching servers" if args.shards > 1 else ""))
    print(f"  policy:       {res.policy_name} ({args.categories} categories)")
    print(f"  TCO savings:  {res.tco_savings_pct:.2f}%")
    print(f"  TCIO savings: {res.tcio_savings_pct:.2f}%")
    print(f"  spilled:      {res.n_spilled} of {res.n_ssd_requested} SSD requests")
    if args.aggregate:
        print("  results:      aggregate-only (per-job arrays dropped)")
    return 0


def _service_summary(res, stats, interrupted: bool = False) -> None:
    tag = "partial roll-up (interrupted)" if interrupted else "final roll-up"
    print(f"  {tag}: {res.n_jobs} jobs decided, "
          f"TCO savings {res.tco_savings_pct:.2f}%, "
          f"{res.n_spilled} of {res.n_ssd_requested} SSD requests spilled")
    print(f"  chunks: {stats.n_chunks}, peak queue: {stats.max_pending_seen}, "
          f"completions: {stats.n_completions}")


def _metrics_line(service) -> None:
    """Deterministic counters from the metrics surface (no latency)."""
    m = service.metrics()
    print(f"  metrics: {m['serve_decided_total']} decided, "
          f"{m['serve_chunks_total']} chunks, "
          f"{m['serve_spilled_total']} spilled, "
          f"{m['serve_evictions_total']} evicted "
          f"(scrape with --metrics-port)")


def _metrics_endpoint(port):
    """Stand up the scrape endpoint; returns ``(refresh, close)``.

    The endpoint serves text cached by the main loop — fleet transports
    are not thread-safe, so the scrape thread must never touch the
    service itself.  ``refresh(service)`` re-renders the cache; call it
    from the submission loop.  Returns ``(None, None)`` when ``port``
    is None (endpoint disabled).
    """
    if port is None:
        return None, lambda: None
    from .serve import MetricsServer

    cache = [""]
    server = MetricsServer(lambda: cache[0], port=port)

    def refresh(service) -> None:
        cache[0] = service.metrics_text()

    print(f"metrics endpoint: {server.url}", file=sys.stderr)
    return refresh, server.close


def _build_observability(args):
    """``(AlertManager | None, Tracer | None)`` from the shared flags."""
    from .serve import AlertManager, Tracer, load_alert_config

    rules, slos = [], []
    for path in (args.alert_rules, args.slo):
        if path:
            r, s = load_alert_config(path)
            rules.extend(r)
            slos.extend(s)
    alerts = None
    if rules or slos:
        alerts = AlertManager(rules, slos, log_path=args.alert_log)
    tracer = (
        Tracer(sample=args.trace_sample) if args.trace_out is not None
        else None
    )
    return alerts, tracer


def _alert_summary(alerts) -> None:
    if alerts is None:
        return
    fired = alerts.fired()
    firing = alerts.firing()
    print(f"  alerts: {len(alerts.events)} events, "
          f"fired: {', '.join(fired) if fired else 'none'}, "
          f"firing now: {', '.join(firing) if firing else 'none'}")
    for name, s in alerts.slo_status().items():
        if s is None:
            print(f"  slo {name}: no samples")
        else:
            print(f"  slo {name}: {s['bad']}/{s['total']} bad "
                  f"(budget {s['budget']:.4g}), burn fast "
                  f"{s['fast_burn']:.2f}x / slow {s['slow_burn']:.2f}x "
                  f"({s['state']})")


def _export_trace(service, path) -> None:
    """Write the service's spans (plus fleet worker op spans) as JSONL."""
    import json

    n = service.export_trace(path)
    n_ops = 0
    if hasattr(service, "worker_op_spans"):
        ops = service.worker_op_spans()
        with open(path, "a") as fh:
            for span in ops:
                fh.write(json.dumps(span) + "\n")
        n_ops = len(ops)
    extra = f" + {n_ops} worker op spans" if n_ops else ""
    print(f"  trace: {n} request spans{extra} -> {path}")


def _hard_exit() -> None:
    """Injected-crash hook: die like a killed process (WAL survives)."""
    import os

    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(137)


def _cmd_serve(args) -> int:
    import time

    import numpy as np

    from .core import AdaptiveCategoryPolicy, hash_categories
    from .serve import FaultInjector, FaultPlan, FleetRouter, PlacementService
    from .workloads.streaming import materialize_trace

    trace = materialize_trace(args.trace)
    if len(trace) == 0:
        print(f"trace {trace.name}: 0 jobs, nothing to serve")
        return 0
    fleet = args.workers > 1
    alerts, tracer = _build_observability(args)
    if args.recover:
        if not (args.checkpoint and args.wal):
            print("serve: --recover needs --checkpoint and --wal",
                  file=sys.stderr)
            return 2
        cls = FleetRouter if fleet else PlacementService
        service = cls.recover(args.checkpoint, args.wal)
        start = service.stats.n_submitted
        print(f"recovered from {args.checkpoint} + {args.wal}: "
              f"{start} submissions replayed to WAL seq {service.wal_seq}")
        # A schema-3 checkpoint carries its own manager/tracer; only
        # backfill what the snapshot did not restore.
        if service.alerts is None:
            service.alerts = alerts
        if service.tracer is None:
            service.tracer = tracer
    else:
        capacity = args.quota * trace.peak_ssd_usage()
        policy = AdaptiveCategoryPolicy(
            hash_categories(trace, args.categories), args.categories,
            name="Adaptive Hash",
        )
        if fleet:
            service = FleetRouter(
                policy, capacity, args.shards, mode=args.mode,
                max_pending=args.max_pending, wal=args.wal,
                n_workers=args.workers, transport=args.transport,
                worker_dir=args.worker_dir,
                alerts=alerts, tracer=tracer,
            )
        else:
            service = PlacementService(
                policy, capacity, args.shards, mode=args.mode,
                max_pending=args.max_pending, wal=args.wal,
                alerts=alerts, tracer=tracer,
            )
        service.open(trace)
        if args.checkpoint:
            service.checkpoint(args.checkpoint)
        start = 0
    target = service
    if args.fault_plan:
        plan = FaultPlan.from_file(args.fault_plan)
        target = FaultInjector(service, plan, crash=_hard_exit)
    refresh, close_metrics = _metrics_endpoint(args.metrics_port)
    if refresh:
        refresh(service)
    n = len(trace)
    mode = service.mode
    step = 1 if mode == "scalar" else max(args.batch, 1)
    pipelines = trace.pipelines
    lat: list[float] = []
    interrupted = False
    batches = 0
    t_start = time.perf_counter()
    try:
        for lo in range(start, n, step):
            hi = min(lo + step, n)
            t0 = time.perf_counter()
            if mode == "scalar":
                target.submit(
                    arrival=trace.arrivals[lo], duration=trace.durations[lo],
                    size=trace.sizes[lo], read_bytes=trace.read_bytes[lo],
                    write_bytes=trace.write_bytes[lo],
                    read_ops=trace.read_ops[lo], pipeline=pipelines[lo],
                )
            else:
                target.submit_batch(
                    trace.arrivals[lo:hi], trace.durations[lo:hi],
                    trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                    trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                    pipelines=pipelines[lo:hi],
                )
            lat.append(time.perf_counter() - t0)
            batches += 1
            if service.alerts is not None:
                service.evaluate_alerts()
            if (args.checkpoint and args.checkpoint_every
                    and batches % args.checkpoint_every == 0):
                service.checkpoint(args.checkpoint)
            if refresh:
                refresh(service)
    except KeyboardInterrupt:
        interrupted = True
        print("\ninterrupted — flushing queued jobs", file=sys.stderr)
    elapsed = time.perf_counter() - t_start
    res = service.result(aggregate_only=args.aggregate)  # drains the queue
    unit = "request" if mode == "scalar" else f"batch of {step}"
    print(f"served {res.n_jobs} of {n} jobs from {args.trace} "
          f"({mode} mode, one {unit} per submission)")
    if lat and elapsed > 0:
        p50, p99 = np.percentile(np.asarray(lat), [50, 99])
        print(f"  decision latency: p50 {p50 * 1e6:,.0f} us, "
              f"p99 {p99 * 1e6:,.0f} us per submission")
        print(f"  throughput:       {res.n_jobs / elapsed:,.0f} decisions/s")
    _service_summary(res, service.stats, interrupted)
    _metrics_line(service)
    _alert_summary(service.alerts)
    if args.trace_out:
        _export_trace(service, args.trace_out)
    st = service.stats
    if st.n_shocks or st.degraded_jobs or st.n_evicted:
        print(f"  faults: {st.n_shocks} shocks, {st.n_evicted} evicted "
              f"({fmt_bytes(st.evicted_bytes)}), "
              f"{st.degraded_jobs} jobs decided degraded")
    if refresh:
        refresh(service)
    close_metrics()
    if isinstance(service, FleetRouter):
        print(f"  fleet: {service.n_workers} workers over "
              f"{service.pool.transport_kind} transport")
        service.close()
    return 130 if interrupted else 0


def _cmd_loadgen(args) -> int:
    from .core import AdaptiveCategoryPolicy, hash_categories
    from .serve import (
        FleetRouter,
        LoadGenerator,
        PlacementService,
        metrics_latency_summary,
    )
    from .workloads.streaming import materialize_trace

    trace = materialize_trace(args.trace)
    if len(trace) == 0:
        print(f"trace {trace.name}: 0 jobs, nothing to offer")
        return 0
    capacity = args.quota * trace.peak_ssd_usage()
    policy = AdaptiveCategoryPolicy(
        hash_categories(trace, args.categories), args.categories,
        name="Adaptive Hash",
    )
    alerts, tracer = _build_observability(args)
    if args.workers > 1:
        service = FleetRouter(
            policy, capacity, args.shards, mode="batch",
            n_workers=args.workers, transport=args.transport,
            alerts=alerts, tracer=tracer,
        )
    else:
        service = PlacementService(
            policy, capacity, args.shards, mode="batch",
            alerts=alerts, tracer=tracer,
        )
    service.open(trace)
    gen = LoadGenerator(
        trace, rate=args.rate, shape=args.burst,
        batch_jobs=max(args.batch, 1), seed=args.seed,
        mode=args.mode, max_in_flight=args.max_in_flight,
        warmup=args.warmup,
    )
    refresh, close_metrics = _metrics_endpoint(args.metrics_port)

    def on_batch(_report) -> None:
        if alerts is not None:
            service.evaluate_alerts()
        if refresh:
            refresh(service)

    if alerts is None and refresh is None:
        on_batch = None
    if refresh:
        refresh(service)
    report = gen.run(service, limit=args.limit, on_batch=on_batch)
    if report.interrupted:
        print("\ninterrupted — flushing queued jobs", file=sys.stderr)
    offered = "unpaced" if args.rate is None else f"{args.rate:,.0f} jobs/s"
    print(f"offered {report.n_jobs} jobs from {args.trace} "
          f"({args.mode} loop, {offered}, burst shape {args.burst!r}, "
          f"batches of {gen.batch_jobs})")
    print(f"  achieved:  {report.achieved_rate:,.0f} decisions/s over "
          f"{report.elapsed:.2f}s (lag {report.lag_seconds:.3f}s)")
    print(f"  latency:   p50 {report.latency_percentile(50) * 1e6:,.0f} us, "
          f"p99 {report.latency_percentile(99) * 1e6:,.0f} us per batch")
    if report.mode == "closed":
        print(f"  measured:  {report.measured_rate:,.0f} decisions/s over "
              f"{report.n_measured_jobs} jobs "
              f"(warmup {report.warmup_jobs}), "
              f"p50 {report.measured_latency_percentile(50) * 1e6:,.0f} us, "
              f"p99 {report.measured_latency_percentile(99) * 1e6:,.0f} us, "
              f"{report.n_forced_drains} forced drains, "
              f"peak in-flight {report.in_flight_peak}")
    res = service.result()
    lat = metrics_latency_summary(service)
    if lat is not None:
        print(f"  metrics latency: p50 {lat['p50'] * 1e6:,.0f} us, "
              f"p95 {lat['p95'] * 1e6:,.0f} us, "
              f"p99 {lat['p99'] * 1e6:,.0f} us over {lat['count']} "
              f"observations ({lat['metric']})")
    _service_summary(res, service.stats, report.interrupted)
    _metrics_line(service)
    _alert_summary(service.alerts)
    if args.trace_out:
        _export_trace(service, args.trace_out)
    if refresh:
        refresh(service)
    close_metrics()
    if isinstance(service, FleetRouter):
        print(f"  fleet: {service.n_workers} workers over "
              f"{service.pool.transport_kind} transport")
        service.close()
    return 130 if report.interrupted else 0


def _cmd_chaos(args) -> int:
    from .serve.scenarios import SCENARIOS, format_rows, get_scenario, run_suite
    from .workloads.streaming import materialize_trace

    if args.trace:
        trace = materialize_trace(args.trace)
    else:
        from .workloads import Trace, default_cluster_specs, generate_cluster_trace

        spec = default_cluster_specs(10)[args.cluster]
        full = generate_cluster_trace(spec, duration=WEEK, seed=args.seed)
        trace = Trace(full.jobs[: args.jobs], name=f"{full.name}[:{args.jobs}]")
    if len(trace) == 0:
        print("chaos: empty trace, nothing to run")
        return 0
    try:
        scenarios = (
            SCENARIOS if args.scenario == "all"
            else (get_scenario(args.scenario),)
        )
    except KeyError as exc:
        print(f"chaos: {exc.args[0]}", file=sys.stderr)
        return 2
    capacity = args.quota * trace.peak_ssd_usage()
    refresh, close_metrics = _metrics_endpoint(args.metrics_port)

    # Alerting is on by default (the scenario table's alerts column is
    # the point of the suite); --alert-rules/--slo swap in a custom
    # config, --no-alerts silences it.
    alerts = not args.no_alerts
    if alerts and (args.alert_rules or args.slo):
        from .serve import AlertManager, load_alert_config

        rules, slos = [], []
        for path in (args.alert_rules, args.slo):
            if path:
                r, s = load_alert_config(path)
                rules.extend(r)
                slos.extend(s)

        def alerts():
            return AlertManager(
                list(rules), list(slos), log_path=args.alert_log
            )

    tracers = []
    tracer = None
    if args.trace_out:
        from .serve import Tracer

        def tracer():
            tr = Tracer(sample=args.trace_sample)
            tracers.append(tr)
            return tr

    try:
        rows = run_suite(
            trace, capacity=capacity, n_shards=args.shards,
            batch_jobs=max(args.batch, 1), scenarios=scenarios,
            seed=args.seed, n_workers=args.workers, transport=args.transport,
            metrics_hook=refresh, alerts=alerts, tracer=tracer,
        )
    finally:
        close_metrics()
    print(f"chaos suite on {trace.name}: {len(trace)} jobs, "
          f"{fmt_bytes(capacity)} over {args.shards} caching servers")
    print(format_rows(rows))
    if args.trace_out:
        import json

        n_spans = 0
        with open(args.trace_out, "w") as fh:
            for row, tr in zip(rows, tracers):
                for span in tr.spans():
                    tagged = {
                        "scenario": row.scenario, "policy": row.policy,
                        **span,
                    }
                    fh.write(json.dumps(tagged, default=float) + "\n")
                    n_spans += 1
        print(f"  trace: {n_spans} request spans -> {args.trace_out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
    "headroom": _cmd_headroom,
    "deploy": _cmd_deploy,
    "replay": _cmd_replay,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.mode == "scalar" and args.workers > 1:
        parser.error(
            "serve --workers N (N > 1) needs --mode batch: a worker fleet "
            "does not serve request-at-a-time (scalar) mode"
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
