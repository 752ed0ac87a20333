"""Hot-path benchmark: packed forest + unified shard-aware runtime.

Times the train-predict-simulate path on a ~200k-job synthetic trace
the way the experiment runners actually use it (one offline training,
then a quota sweep of online deployments, as in Figure 7), plus a
sharded deployment stage (the Section-2.4 caching-server regime):

- **legacy**: the seed implementation — per-tree Python loop in
  ``decision_function`` (re-run per deployment), the per-job simulator
  event loop (global and sharded), and the list-of-dataclass
  observation history.
- **fast**: the packed forest (with the shared decision-pass cache
  across deployments), the chunked engine of the unified runtime for
  both ``simulate`` and ``simulate_sharded``, and the ring-buffer
  spillover window.

Both paths must produce identical placements; the equivalence is
asserted before any timing is reported.  Run the full-size benchmark
with ``python -m pytest benchmarks/bench_perf_hotpaths.py -s``; the
pytest invocation in CI uses a reduced trace via
``BENCH_HOTPATH_JOBS``.  Its end-to-end (>= 3x) and sharded (>= 2x)
gates take the median per-pair ratio of ``BENCH_HOTPATH_REPEATS``
(default 3) alternating legacy/fast pairs timed with GC frozen.

``test_perf_million_trace`` additionally drives the chunked engine over
a ~1M-job trace (``BENCH_MILLION_JOBS`` overrides the size) and reports
throughput plus peak RSS — the memory profile of the chunked engine.

``test_perf_skewed_capacity`` is the heterogeneous-capacity smoke: the
same sharded deployment over a skewed 2x/1x/.../0.5x lane layout (with
per-shard ACT enabled), chunked vs legacy, equivalence asserted before
timing (``BENCH_SKEWED_JOBS`` overrides the size, as in CI).  Its gate
is the median ratio of three alternating legacy/chunked pairs timed
with GC frozen.

``test_perf_fit_chunks`` drives FirstFit (one fit-check chunk over the
whole trace) through both engines on the hot-path trace at 1 and
``N_SHARDS`` lanes and a binding 5% quota.  Chunked placements must
equal legacy bit for bit (the per-job fraction array, the realized TCO
and the peak) before any timing is reported; times are the medians of
three alternating pairs with GC frozen, and no speed bar is asserted.
``BENCH_HOTPATH_JOBS`` sizes it.

``test_perf_serve_latency`` is the online-service smoke: the same
200k-job trace replayed through ``PlacementService`` in micro-batch
mode (p50/p99 per-batch decision latency + sustained decisions/sec,
equivalence to the offline chunked engine asserted before timing) and
through request-at-a-time scalar mode on a subsample (per-request
latency percentiles).  A fully instrumented row — the standard alert
rules, a spill-rate burn SLO evaluated every batch, and a sampling
tracer — must land within 2% of the plain chunked rate (the
observability-overhead bar).  ``BENCH_SERVE_JOBS`` overrides the size,
as in CI; at full size the micro-batch path must sustain >= 50k
decisions/sec.

``test_perf_streaming_rss`` is the out-of-core ingestion smoke: the
same CSV trace is simulated twice per size — materialized through
``load_csv_trace`` (per-job objects) and streamed through
``stream_csv_trace`` (columns only) — in subprocess isolation so each
run gets a clean ``ru_maxrss``.  Streamed results must be bit-identical
to the in-memory ones, and streamed peak RSS must stay near-flat as the
trace grows 4x while the in-memory footprint grows with the job count
(``BENCH_STREAMING_JOBS`` overrides the size, as in CI).

``test_perf_wal`` compares the two write-ahead-log record formats on a
byom-shaped stream of rich jobs (metadata and resource maps), submitted
in 512-job batches and one job at a time: bytes per decision, append
time per decision and recovery time, line records (one JSON line per
submission) beside column frames.  Both recoveries must reproduce the
uninterrupted roll-up (``BENCH_WAL_JOBS`` overrides the size, as in CI).

``test_perf_forest_one_row`` times the hot-path GBT (10 rounds x 8
classes, depth 6) in the two serving shapes, one row
(``decision_scores_one``, leaf-bitmask tables) and a 512-row batch
(``decision_scores``, level routing), scoring raw feature values beside
the same forest call on precomputed bin codes; the batch also times the
code path served before feature-space routing (``binner.transform``,
then routing the codes).  Every row is asserted bit-identical across
the paths.  It scores ``BENCH_HOTPATH_JOBS / 20`` rows, timed in
alternating repetitions with GC frozen.

``test_perf_transport`` times the fleet's router-to-worker wire format.
It records every op and reply of two reduced in-process
``fleet-replay`` runs (a fixed two-week cluster trace of about 10,000
jobs, 8 lanes, 2 workers, a binding 2% quota, 512-job batches and a
complete on every 8th SSD placement; fleets serve batch mode only):
Adaptive Hash (``chunk`` ops) and FirstFit with at most 512 queued
jobs (``fit`` ops).  Each message goes through ``ForkingPickler.dumps`` +
``pickle.loads`` (what ``multiprocessing.Connection.send``/``recv`` do)
and through ``transport.encode`` + ``decode`` (the fixed chunk layout
for ``chunk``/``fit`` ops and their replies; control ops, which hold
only scalars or nested payloads, pickle).  Every decode
must equal its original (chunk columns compared in their wire dtypes), and for every kind of message the wire
codec's median time must be below pickle's.  A second table gives the
"worker chunk op": the batch run's recorded ops replayed on a fresh
worker, in process (``PlacementWorker.handle``) and as real round trips
to a forked ``SubprocessTransport`` worker, in µs per op.
"""

from __future__ import annotations

import csv
import gc
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy, ObservedJob, spillover_percentage
from repro.ml import GBTClassifier
from repro.serve.wal import WriteAheadLog, job_to_record
from repro.storage import simulate, simulate_sharded
from repro.units import GIB
from repro.workloads import ShuffleJob, Trace

from bench_utils import emit

N_JOBS = int(os.environ.get("BENCH_HOTPATH_JOBS", "200000"))
N_TRAIN = 8_000
N_CATEGORIES = 8
N_FEATURES = 16
QUOTAS = (0.01, 0.05, 0.2, 0.5)
#: Sharded stage: quota subset x caching-server count (fragmentation).
SHARDED_QUOTAS = (0.05, 0.5)
N_SHARDS = 16
SPAN = 14 * 86_400.0


class LegacyAdaptiveCategoryPolicy(AdaptiveCategoryPolicy):
    """The seed's adaptive policy: Python-list history, no batch path."""

    #: hide the batch protocol so ``engine="auto"`` picks the legacy loop
    decide_batch = None

    def on_simulation_start(self, trace, capacity, rates):
        super().on_simulation_start(trace, capacity, rates)
        self._list_history: list[ObservedJob] = []

    def _update_threshold(self, t):
        p = self.params
        ws = t - p.lookback_window
        self._list_history = [j for j in self._list_history if j.arrival > ws]
        h = spillover_percentage(self._list_history, t)
        if h < p.spillover_low:
            self.act = max(1, self.act - 1)
        elif h > p.spillover_high:
            self.act = min(self.n_categories - 1, self.act + 1)
        self._td = t
        from repro.core.adaptive import ThresholdEvent

        self.trajectory.append(ThresholdEvent(time=t, act=self.act, spillover=h))

    def observe(self, outcome):
        i = outcome.job_index
        self._list_history.append(
            ObservedJob(
                arrival=float(self._trace.arrivals[i]),
                end=float(self._trace.ends[i]),
                tcio_rate=float(self._tcio[i]),
                scheduled_ssd=outcome.requested_ssd,
                spill_time=outcome.spill_time,
                spilled_fraction=1.0 - outcome.ssd_space_fraction
                if outcome.requested_ssd
                else 0.0,
            )
        )


def build_workload(seed: int = 0):
    """Synthetic trace + aligned feature matrix with learnable labels."""
    rng = np.random.default_rng(seed)
    n = N_JOBS
    arrivals = np.sort(rng.uniform(0.0, SPAN, n))
    durations = rng.lognormal(mean=7.0, sigma=1.2, size=n)
    sizes = rng.lognormal(mean=21.0, sigma=1.5, size=n)
    X = rng.normal(size=(n, N_FEATURES))
    # Labels follow a noisy linear score so the GBT has signal to learn.
    w = rng.normal(size=N_FEATURES)
    score = X @ w + rng.normal(scale=0.5, size=n)
    edges = np.quantile(score, np.linspace(0.0, 1.0, N_CATEGORIES + 1)[1:-1])
    y = np.searchsorted(edges, score).astype(int)
    jobs = [
        ShuffleJob(
            job_id=i,
            cluster="bench",
            user=f"u{i % 50}",
            pipeline=f"p{i % 200}",
            archetype="synthetic",
            arrival=float(arrivals[i]),
            duration=float(durations[i]),
            size=float(sizes[i]),
            read_bytes=float(sizes[i] * 2.0),
            write_bytes=float(sizes[i]),
            read_ops=float(rng.uniform(1e3, 1e6)),
        )
        for i in range(n)
    ]
    trace = Trace(jobs, name="bench-hotpath")
    # Materialize the cached columns outside every timed region.
    trace.arrivals, trace.durations, trace.sizes
    return trace, X, y


def run_path(trace, X, y, fast: bool):
    """Train once, then deploy at each quota; returns (timings, results)."""
    params = AdaptiveParams()
    peak = trace.peak_ssd_usage()
    capacities = [quota * peak for quota in QUOTAS]
    timings = {}
    t0 = time.perf_counter()
    model = GBTClassifier(n_rounds=10, max_depth=6).fit(X[:N_TRAIN], y[:N_TRAIN])
    timings["train"] = time.perf_counter() - t0

    results = []
    t_predict = 0.0
    t_simulate = 0.0
    t_sharded = 0.0
    cats = None
    for capacity in capacities:
        t0 = time.perf_counter()
        if fast:
            raw = model.decision_function(X)  # cache hit after first quota
        else:
            raw = model._decision_function_legacy(X)
        cats = model.classes_[np.argmax(raw, axis=1)].astype(int)
        t_predict += time.perf_counter() - t0

        if fast:
            policy = AdaptiveCategoryPolicy(cats, N_CATEGORIES, params)
        else:
            policy = LegacyAdaptiveCategoryPolicy(cats, N_CATEGORIES, params)
        t0 = time.perf_counter()
        res = simulate(trace, policy, capacity)
        t_simulate += time.perf_counter() - t0
        results.append(res)

    # Sharded deployments through the unified runtime.  The legacy path
    # forces the per-job lane loop; the fast path rides the multi-lane
    # chunked engine.
    for quota in SHARDED_QUOTAS:
        if fast:
            policy = AdaptiveCategoryPolicy(cats, N_CATEGORIES, params)
        else:
            policy = LegacyAdaptiveCategoryPolicy(cats, N_CATEGORIES, params)
        t0 = time.perf_counter()
        res = simulate_sharded(
            trace, policy, quota * peak, N_SHARDS,
            engine="auto" if fast else "legacy",
        )
        t_sharded += time.perf_counter() - t0
        results.append(res)

    timings["predict"] = t_predict
    timings["simulate"] = t_simulate
    timings["sharded"] = t_sharded
    timings["total"] = sum(timings.values())
    return timings, results


def check_equivalence(res_legacy, res_fast):
    """Exact: the capacity ledger holds integer bytes, so both engines
    place every job identically."""
    for a, b in zip(res_legacy, res_fast):
        assert np.array_equal(a.ssd_fraction, b.ssd_fraction)
        assert a.n_ssd_requested == b.n_ssd_requested
        assert a.n_spilled == b.n_spilled
        assert a.realized_tco == b.realized_tco
        assert a.peak_ssd_used == b.peak_ssd_used


#: Alternating legacy/fast timing pairs behind the hot-path gates.
HOTPATH_PAIRS = int(os.environ.get("BENCH_HOTPATH_REPEATS", "3"))

#: Alternating legacy/chunked timing pairs behind the skewed gate.
SKEWED_PAIRS = 3


def test_perf_hotpaths():
    trace, X, y = build_workload()
    # One legacy/fast ratio swings with host load far more than the
    # paths differ, so time alternating pairs with GC frozen (legacy
    # first, then fast first, ...) and gate the median per-pair ratio.
    gc.collect()
    gc.freeze()
    pairs, results = [], {}
    try:
        for k in range(max(HOTPATH_PAIRS, 1)):
            pair = {}
            for fast in (False, True) if k % 2 == 0 else (True, False):
                pair[fast], results[fast] = run_path(trace, X, y, fast=fast)
            pairs.append(pair)
    finally:
        gc.unfreeze()
    check_equivalence(results[False], results[True])

    stages = ("train", "predict", "simulate", "sharded", "total")
    ratio = {
        stage: float(np.median([p[False][stage] / p[True][stage] for p in pairs]))
        for stage in stages
    }
    lines = [
        f"Hot-path benchmark: {len(trace):,} jobs, {len(QUOTAS)} quota deployments"
        f" + {len(SHARDED_QUOTAS)} sharded ({N_SHARDS} caching servers)",
        f"{len(pairs)} alternating legacy/fast pairs, GC frozen; times are "
        "medians, speedup is the median per-pair ratio",
        f"{'stage':<10} {'legacy (s)':>12} {'fast (s)':>12} {'speedup':>9}",
    ]
    for stage in stages:
        legacy = float(np.median([p[False][stage] for p in pairs]))
        fast = float(np.median([p[True][stage] for p in pairs]))
        lines.append(
            f"{stage:<10} {legacy:>12.2f} {fast:>12.2f} {ratio[stage]:>8.1f}x"
        )
    emit("perf_hotpaths", "\n".join(lines))

    # The end-to-end (>= 3x) and sharded-simulate (>= 2x) bars are
    # asserted only at full benchmark size; reduced CI runs check
    # equivalence and report timings.
    if N_JOBS >= 200_000:
        assert ratio["total"] >= 3.0
        assert ratio["sharded"] >= 2.0


def _peak_rss_mib() -> float:
    """Lifetime peak RSS of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_perf_million_trace():
    """Chunked-engine throughput + memory profile on a ~1M-job trace.

    The legacy loop is deliberately not timed here (it is the 200k-scale
    benchmark's job); this stage answers "does the chunked engine hold
    up, in time and peak RSS, at production trace sizes?".  CI runs it
    reduced via ``BENCH_MILLION_JOBS``.
    """
    global N_JOBS
    n = int(os.environ.get("BENCH_MILLION_JOBS", "1000000"))
    saved = N_JOBS
    N_JOBS = n
    try:
        rss_start = _peak_rss_mib()
        trace, X, y = build_workload(seed=1)
        model = GBTClassifier(n_rounds=10, max_depth=6).fit(X[:N_TRAIN], y[:N_TRAIN])
        cats = model.classes_[np.argmax(model.decision_function(X), axis=1)].astype(int)
        peak = trace.peak_ssd_usage()
        params = AdaptiveParams()
        rows = []
        for label, runner in (
            ("global", lambda p: simulate(trace, p, 0.05 * peak)),
            ("sharded", lambda p: simulate_sharded(trace, p, 0.05 * peak, N_SHARDS)),
        ):
            policy = AdaptiveCategoryPolicy(cats, N_CATEGORIES, params)
            rss_pre = _peak_rss_mib()
            t0 = time.perf_counter()
            res = runner(policy)
            dt = time.perf_counter() - t0
            rows.append((label, dt, len(trace) / dt, _peak_rss_mib() - rss_pre))
            assert res.n_jobs == len(trace)
        # ru_maxrss is the process-lifetime peak and cannot be reset, so
        # each row reports the *new* peak the stage established over the
        # peak already reached before it (0 = the stage stayed under the
        # prior high-water mark).  For standalone per-stage numbers run
        # this test in its own pytest process.
        rss_end = _peak_rss_mib()
        lines = [
            f"Million-trace profile: {len(trace):,} jobs, chunked engine "
            f"(peak RSS: {rss_start:,.0f} MiB at test start, "
            f"{rss_end:,.0f} MiB after; build+predict dominate)",
            f"{'stage':<10} {'time (s)':>10} {'jobs/s':>12} "
            f"{'new peak RSS in stage (MiB)':>28}",
        ]
        for label, dt, rate, rss in rows:
            lines.append(f"{label:<10} {dt:>10.2f} {rate:>12,.0f} {rss:>28,.0f}")
        emit("perf_million_trace", "\n".join(lines))
    finally:
        N_JOBS = saved


def test_perf_skewed_capacity():
    """Heterogeneous-lane smoke: skewed capacities through both engines.

    One sharded deployment over a 2x/1x/.../0.5x capacity layout with
    per-shard ACT enabled — the production shape where caching servers
    own unequal slices and adapt their own thresholds.  Placements must
    match between the chunked and legacy engines before any timing is
    reported; the emitted table is the perf baseline for the
    heterogeneous path.
    """
    global N_JOBS
    n = int(os.environ.get("BENCH_SKEWED_JOBS", "200000"))
    saved = N_JOBS
    N_JOBS = n
    try:
        trace, X, y = build_workload(seed=2)
        model = GBTClassifier(n_rounds=10, max_depth=6).fit(X[:N_TRAIN], y[:N_TRAIN])
        cats = model.classes_[np.argmax(model.decision_function(X), axis=1)].astype(int)
        peak = trace.peak_ssd_usage()
        weights = np.array([2.0] + [1.0] * (N_SHARDS - 2) + [0.5])
        caps = 0.05 * peak * weights / weights.sum()
        params = AdaptiveParams()

        def run(engine):
            policy = AdaptiveCategoryPolicy(
                cats, N_CATEGORIES, params, per_shard_act=True
            )
            t0 = time.perf_counter()
            res = simulate_sharded(trace, policy, caps, N_SHARDS, engine=engine)
            return time.perf_counter() - t0, res

        results = {engine: run(engine)[1] for engine in ("legacy", "chunked")}
        check_equivalence([results["legacy"]], [results["chunked"]])
        assert results["chunked"].lane_capacities is not None
        np.testing.assert_allclose(results["chunked"].lane_capacities, caps)

        # One legacy/chunked ratio swings with host load far more than
        # the engines differ, so time SKEWED_PAIRS pairs with GC frozen,
        # alternate which engine runs first, and gate the median ratio.
        gc.collect()
        gc.freeze()
        pairs = []
        try:
            for k in range(SKEWED_PAIRS):
                order = ("legacy", "chunked") if k % 2 == 0 else ("chunked", "legacy")
                pairs.append({engine: run(engine)[0] for engine in order})
        finally:
            gc.unfreeze()
        ratios = [p["legacy"] / p["chunked"] for p in pairs]
        speedup = float(np.median(ratios))

        lines = [
            f"Skewed-capacity smoke: {len(trace):,} jobs, {N_SHARDS} caching "
            "servers, 2x/1x/.../0.5x layout, per-shard ACT",
            f"{len(pairs)} alternating pairs, GC frozen",
            f"{'pair':<6} {'first':<8} {'legacy (s)':>11} {'chunked (s)':>12} "
            f"{'ratio':>7}",
        ]
        for k, (p, r) in enumerate(zip(pairs, ratios)):
            lines.append(
                f"{k + 1:<6} {next(iter(p)):<8} {p['legacy']:>11.2f} "
                f"{p['chunked']:>12.2f} {r:>6.1f}x"
            )
        for engine in ("legacy", "chunked"):
            med = float(np.median([p[engine] for p in pairs]))
            lines.append(
                f"{engine} median: {med:.2f} s, {len(trace) / med:,.0f} jobs/s"
            )
        lines.append(f"chunked speedup (median pair ratio): {speedup:.1f}x")
        emit("perf_skewed_capacity", "\n".join(lines))
        if n >= 200_000:
            assert speedup >= 2.0
    finally:
        N_JOBS = saved


#: Fit-check bench: lane counts, quota of the trace's peak, timing pairs.
FIT_LANES = (1, N_SHARDS)
FIT_QUOTA = 0.05
FIT_PAIRS = 3


def test_perf_fit_chunks():
    """FirstFit's fit-check chunks, chunked vs legacy, at 1 and 16 lanes."""
    from repro.baselines import FirstFitPolicy

    trace, _, _ = build_workload()
    cap = FIT_QUOTA * trace.peak_ssd_usage()

    def run(engine, lanes):
        t0 = time.perf_counter()
        res = simulate_sharded(trace, FirstFitPolicy(), cap, lanes, engine=engine)
        return time.perf_counter() - t0, res

    admitted = {}
    for lanes in FIT_LANES:
        legacy, chunked = (run(e, lanes)[1] for e in ("legacy", "chunked"))
        assert np.array_equal(chunked.ssd_fraction, legacy.ssd_fraction)
        assert chunked.realized_tco == legacy.realized_tco
        assert chunked.peak_ssd_used == legacy.peak_ssd_used
        assert chunked.n_ssd_requested == legacy.n_ssd_requested
        admitted[lanes] = chunked.n_ssd_requested

    gc.collect()
    gc.freeze()
    pairs = {lanes: [] for lanes in FIT_LANES}
    try:
        for k in range(FIT_PAIRS):
            order = ("legacy", "chunked") if k % 2 == 0 else ("chunked", "legacy")
            for lanes in FIT_LANES:
                pairs[lanes].append({e: run(e, lanes)[0] for e in order})
    finally:
        gc.unfreeze()

    lines = [
        f"Fit-check chunks: FirstFit over {len(trace):,} jobs at a "
        f"{FIT_QUOTA:.0%} quota, chunked vs legacy engine",
        f"{FIT_PAIRS} alternating pairs, GC frozen; times are medians, "
        "ratio is the median per-pair ratio; chunked == legacy bit for bit",
        f"{'lanes':<6} {'admitted':>9} {'legacy (s)':>11} {'chunked (s)':>12} "
        f"{'ratio':>7} {'chunked jobs/s':>15}",
    ]
    for lanes in FIT_LANES:
        ps = pairs[lanes]
        legacy = float(np.median([p["legacy"] for p in ps]))
        chunked = float(np.median([p["chunked"] for p in ps]))
        ratio = float(np.median([p["legacy"] / p["chunked"] for p in ps]))
        lines.append(
            f"{lanes:<6} {admitted[lanes]:>9,} {legacy:>11.2f} {chunked:>12.2f} "
            f"{ratio:>6.1f}x {len(trace) / chunked:>15,.0f}"
        )
    emit("perf_fit_chunks", "\n".join(lines))


def test_perf_serve_latency():
    """Online-service latency/throughput on the hot-path trace.

    Drives the 200k-job workload through ``PlacementService`` twice:

    - **micro-batch mode** (the production submission path): batches of
      ``SERVE_BATCH`` jobs, per-batch decision latency and sustained
      decisions/sec over the whole stream;
    - **scalar mode** (request-at-a-time): per-request latency
      percentiles over a subsample (the per-job Python loop is the
      latency floor, not the throughput path);
    - **instrumented micro-batch**: the same chunked replay with the
      standard chaos alert rules + a spill-rate burn SLO evaluated
      after every batch and a 1/256-sampling tracer attached — the
      time spent in alert evaluation + trace sampling, timed directly
      on the hot path, must stay under 2% of the replay at full size.

    The micro-batch replay must be bit-identical to the offline chunked
    engine before any timing is reported, and at full size must sustain
    >= 50k decisions/sec.  Every batch-mode row is the best of
    ``BENCH_SERVE_REPEATS`` interleaved replays (minimum over repeats)
    so the rows are not hostage to GC pauses or slowly-varying system
    load; the overhead bar is asserted on the
    in-run measurement rather than an A/B rate delta, which at the 2%
    scale is indistinguishable from that load noise.
    """
    from repro.serve import (
        AlertManager,
        PlacementService,
        SloSpec,
        Tracer,
        default_alert_rules,
    )

    global N_JOBS
    n = int(os.environ.get("BENCH_SERVE_JOBS", "200000"))
    batch_jobs = 1024
    saved = N_JOBS
    N_JOBS = n
    try:
        trace, X, y = build_workload(seed=5)
        peak = trace.peak_ssd_usage()
        capacity = 0.05 * peak
        rng = np.random.default_rng(9)
        cats = rng.integers(1, N_CATEGORIES, n)
        params = AdaptiveParams()

        # Offline reference for the equivalence gate.
        offline = simulate(
            trace, AdaptiveCategoryPolicy(cats, N_CATEGORIES, params), capacity
        )

        # Micro-batch mode: the sustained-throughput path (bit-identical
        # to the offline reference), plus a fully instrumented row for
        # the observability overhead bar.
        pipelines = trace.pipelines
        configs = [("batch/chunked", False), ("batch/instrumented", True)]
        # Each row is the best of ``BENCH_SERVE_REPEATS`` full replays
        # (the minimum over repeats), and the repeats are *interleaved*
        # across configs: a single replay
        # is hostage to GC pauses, and sequential per-config repeats are
        # hostage to slowly-varying system load, either of which can
        # dwarf the <2% overhead bar being measured.  Interleaving lets
        # every config sample the same load phases, so the per-config
        # minima are comparable.

        # The overhead column is measured *directly*: the instrumented
        # replay times every entry into the observability code on the
        # hot path (the per-batch ``evaluate_alerts`` tick plus the
        # tracer's scan/record hooks inside ``submit_batch``) and
        # reports that time as a share of the replay.  An A/B rate
        # delta against the plain row cannot resolve a 2% bar on
        # shared hardware — run-to-run phase noise between two 0.5s
        # replays is itself several percent — so the A/B delta is
        # reported for reference and guarded only loosely.
        def _timed(method, acc):
            def wrapper(self, *args):
                t0 = time.perf_counter()
                method(self, *args)
                acc[0] += time.perf_counter() - t0
            return wrapper

        def _patch_trace_timers(acc):
            saved = (
                PlacementService._trace_scan, PlacementService._trace_pump
            )
            PlacementService._trace_scan = _timed(saved[0], acc)
            PlacementService._trace_pump = _timed(saved[1], acc)

            def unpatch():
                PlacementService._trace_scan = saved[0]
                PlacementService._trace_pump = saved[1]

            return unpatch

        serve_reps = max(int(os.environ.get("BENCH_SERVE_REPEATS", "5")), 1)
        best = {}
        hook_share = None
        for rep in range(serve_reps):
            for label, instrumented in configs:
                alerts = tracer = None
                if instrumented:
                    alerts = AlertManager(
                        default_alert_rules(),
                        [SloSpec(
                            "spill-rate", "serve_spilled_total",
                            denominator="serve_decided_total", budget=0.25,
                            fast_window=SPAN / 8, slow_window=SPAN / 2,
                        )],
                    )
                    tracer = Tracer(sample=1.0 / 256)
                service = PlacementService(
                    AdaptiveCategoryPolicy(cats, N_CATEGORIES, params), capacity,
                    mode="batch", alerts=alerts, tracer=tracer,
                )
                service.open(trace)
                lat = np.empty(-(-n // batch_jobs))
                hooks = 0.0
                if instrumented:
                    acc = [0.0]
                    unpatch = _patch_trace_timers(acc)
                gc.collect()
                t_start = time.perf_counter()
                for b, lo in enumerate(range(0, n, batch_jobs)):
                    hi = min(lo + batch_jobs, n)
                    t0 = time.perf_counter()
                    service.submit_batch(
                        trace.arrivals[lo:hi], trace.durations[lo:hi],
                        trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                        trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                        pipelines=pipelines[lo:hi],
                    )
                    if instrumented:
                        t_eval = time.perf_counter()
                        service.evaluate_alerts()
                        hooks += time.perf_counter() - t_eval
                    lat[b] = time.perf_counter() - t0
                elapsed = time.perf_counter() - t_start
                if instrumented:
                    unpatch()
                    # Per-rep hot-path share; minimum over reps, like
                    # the row times (a stall inside a hook only ever
                    # inflates the share).
                    share = (hooks + acc[0]) / elapsed
                    if hook_share is None or share < hook_share:
                        hook_share = share
                res = service.result()
                if rep == 0:
                    np.testing.assert_array_equal(
                        res.ssd_fraction, offline.ssd_fraction
                    )
                    assert res.realized_tco == offline.realized_tco
                if label not in best or elapsed < best[label][0]:
                    best[label] = (elapsed, lat)
        batch_rows = []
        rates = {}
        for label, _ in configs:
            elapsed, lat = best[label]
            rates[label] = n / elapsed
            p50b, p99b = np.percentile(lat, [50, 99])
            batch_rows.append((label, p50b, p99b, rates[label]))
        rate = rates["batch/chunked"]

        # Scalar mode: request-at-a-time latency floor on a subsample.
        n_scalar = min(n, 20_000)
        service_s = PlacementService(
            AdaptiveCategoryPolicy(cats[:n_scalar], N_CATEGORIES, params),
            capacity, mode="scalar",
        )
        sub = trace.subset(np.arange(n) < n_scalar, name="scalar-sub")
        service_s.open(sub)
        lat_s = np.empty(n_scalar)
        for i in range(n_scalar):
            t0 = time.perf_counter()
            service_s.submit(
                arrival=sub.arrivals[i], duration=sub.durations[i],
                size=sub.sizes[i], read_bytes=sub.read_bytes[i],
                write_bytes=sub.write_bytes[i], read_ops=sub.read_ops[i],
                pipeline=pipelines[i],
            )
            lat_s[i] = time.perf_counter() - t0
        p50s, p99s = np.percentile(lat_s, [50, 99])
        rate_s = n_scalar / lat_s.sum()

        overhead_pct = 100.0 * hook_share
        delta_pct = 100.0 * (
            1.0 - rates["batch/instrumented"] / rates["batch/chunked"]
        )
        lines = [
            f"Online-service latency smoke: {n:,} jobs micro-batched "
            f"({batch_jobs}/batch), {n_scalar:,} request-at-a-time "
            "(adaptive policy; every batch row bit-identical to the "
            "offline reference; instrumented = alert rules + spill-rate "
            "SLO per batch + 1/256 tracer)",
            f"{'mode':<18} {'p50':>12} {'p99':>12} {'decisions/s':>13}",
        ]
        for label, p50b, p99b, r in batch_rows:
            lines.append(
                f"{label:<18} {p50b * 1e3:>9.2f} ms {p99b * 1e3:>9.2f} ms "
                f"{r:>13,.0f}"
            )
        lines += [
            f"{'per-request':<18} {p50s * 1e6:>9.1f} us {p99s * 1e6:>9.1f} us "
            f"{rate_s:>13,.0f}",
            f"chunks: {service.stats.n_chunks}, peak queue: "
            f"{service.stats.max_pending_seen} jobs",
            f"observability overhead: {overhead_pct:.2f}% of the serving "
            "hot path spent in alert evaluation + trace sampling "
            f"(measured in-run, best of {serve_reps} reps; "
            f"instrumented vs plain rate delta {delta_pct:+.1f}%)",
        ]
        emit("perf_serve_latency", "\n".join(lines))

        # The sustained-throughput and observability-overhead bars are
        # asserted only at full size.  The 2% bar is on the directly
        # measured hot-path share; the A/B rate comparison sits inside
        # this host's replay-to-replay noise, so it only guards against
        # gross regressions.
        if n >= 200_000:
            assert rate >= 50_000, f"sustained {rate:,.0f} decisions/s < 50k"
            assert hook_share < 0.02, (
                f"observability overhead {overhead_pct:.2f}% of the "
                "serving hot path > 2%"
            )
            assert rates["batch/instrumented"] >= 0.90 * rate, (
                f"instrumented rate delta {delta_pct:+.1f}% vs plain "
                "chunked > 10%"
            )
    finally:
        N_JOBS = saved


def _write_synthetic_csv(path: Path, n: int, seed: int) -> None:
    """Write an arrival-ordered CSV trace straight from columns.

    Deliberately bypasses ``save_csv_trace`` so the writer never builds
    job objects either — the benchmark measures the two *readers*.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, SPAN, n))
    durations = rng.lognormal(mean=7.0, sigma=1.2, size=n)
    sizes = rng.lognormal(mean=21.0, sigma=1.5, size=n)
    read_ops = rng.uniform(1e3, 1e6, size=n)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["job_id", "arrival", "duration", "size", "read_bytes",
             "write_bytes", "read_ops", "pipeline", "user"]
        )
        for i in range(n):
            writer.writerow(
                [i, arrivals[i], durations[i], sizes[i], sizes[i] * 2.0,
                 sizes[i], read_ops[i], f"p{i % 200}", f"u{i % 50}"]
            )


#: Child process of the streaming-RSS smoke: one (mode, csv, block_size)
#: measurement.  Reports two peaks — the allocator-level ``tracemalloc``
#: peak (deterministic at any trace size, used for the CI assertion)
#: and the OS-level ``ru_maxrss`` delta over the post-import mark (the
#: honest number at full size, but quantized away when the working set
#: stays under the interpreter's import-time high-water mark).  Prints
#: ``traced_peak_mib rss_delta_mib repr(realized_tco) n_spilled
#: n_ssd_requested``.
_STREAMING_CHILD = r"""
import resource, sys, tracemalloc
mode, path, block = sys.argv[1], sys.argv[2], int(sys.argv[3])
from repro.core import AdaptiveCategoryPolicy, hash_categories
from repro.storage import simulate
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracemalloc.start()
if mode == "stream":
    from repro.workloads import materialize_trace, stream_csv_trace
    trace = materialize_trace(stream_csv_trace(path, block_size=block))
else:
    from repro.workloads import load_csv_trace
    trace = load_csv_trace(path)
capacity = 0.05 * trace.peak_ssd_usage()
policy = AdaptiveCategoryPolicy(hash_categories(trace, 8), 8)
res = simulate(trace, policy, capacity)
traced = tracemalloc.get_traced_memory()[1]
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(traced / 2**20, (rss1 - rss0) / 1024.0, repr(res.realized_tco),
      res.n_spilled, res.n_ssd_requested)
"""


def _measure_child(mode: str, path: Path, block_size: int):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _STREAMING_CHILD, mode, str(path), str(block_size)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    return float(out[0]), float(out[1]), tuple(out[2:])


def test_perf_streaming_rss(tmp_path):
    """Out-of-core smoke: streamed peak RSS stays flat, in-memory grows.

    The trace is >= 4x the streaming block size at the small size and
    >= 16x at the large one; results must be bit-identical between the
    two readers at both sizes.
    """
    n_large = int(os.environ.get("BENCH_STREAMING_JOBS", "200000"))
    n_small = max(n_large // 4, 1000)
    block_size = max(n_small // 4, 256)

    traced = {}
    rss = {}
    checks = {}
    for label, n, seed in (("small", n_small, 3), ("large", n_large, 4)):
        path = tmp_path / f"stream_{label}.csv"
        _write_synthetic_csv(path, n, seed)
        for mode in ("inmem", "stream"):
            traced[mode, label], rss[mode, label], checks[mode, label] = (
                _measure_child(mode, path, block_size)
            )
        # Bit-identical across readers (realized TCO repr + counters).
        assert checks["inmem", label] == checks["stream", label]

    grow_inmem = traced["inmem", "large"] - traced["inmem", "small"]
    grow_stream = traced["stream", "large"] - traced["stream", "small"]

    lines = [
        f"Streaming-ingestion RSS smoke: {n_small:,} -> {n_large:,} jobs "
        f"(CSV, blocks of {block_size:,}; adaptive-hash policy, "
        "subprocess-isolated peaks)",
        f"{'reader':<18} {'heap @small (MiB)':>18} {'heap @large (MiB)':>18} "
        f"{'growth (MiB)':>13} {'RSS delta @large (MiB)':>23}",
    ]
    for mode, name in (("inmem", "load_csv_trace"), ("stream", "stream_csv_trace")):
        lines.append(
            f"{name:<18} {traced[mode, 'small']:>18,.0f} "
            f"{traced[mode, 'large']:>18,.0f} "
            f"{traced[mode, 'large'] - traced[mode, 'small']:>13,.0f} "
            f"{rss[mode, 'large']:>23,.0f}"
        )
    if grow_stream > 0:
        lines.append(f"in-memory heap grows {grow_inmem / grow_stream:.1f}x faster")
    emit("perf_streaming_rss", "\n".join(lines))

    # The in-memory reader's footprint grows with the job-object
    # materialization; the streamed reader keeps only the numeric
    # columns, so its heap growth over the same 4x size step must stay
    # well below half of the in-memory growth.  (Asserted on the
    # allocator-level peak, which is deterministic at reduced CI sizes;
    # ru_maxrss quantizes to 0 when the working set stays under the
    # interpreter's import-time high-water mark.)
    assert grow_stream < 0.5 * grow_inmem
    # And the streamed path must beat the in-memory one outright at the
    # large size, not just grow slower.
    assert traced["stream", "large"] < traced["inmem", "large"]
    # At full benchmark size the OS-level peak tells the same story.
    if n_large >= 200_000 and rss["stream", "large"] > 0:
        assert rss["stream", "large"] < rss["inmem", "large"]


WAL_BATCH = 512
WAL_CATEGORIES = 15
WAL_SHARDS = 4


def _rich_stream(n: int) -> list:
    """``n`` generated jobs with metadata and resources, arrival-ordered."""
    from repro.workloads import ClusterSpec, generate_cluster_trace

    mix = {"logproc": 3, "dbquery": 3, "streaming": 2, "mltrain": 2,
           "staging": 2, "reporting": 1}
    spec = ClusterSpec("W", mix, n_pipelines=208, n_users=40, seed=11)
    duration = 2 * 7 * 86_400.0 * max(n, 1) / 100_000
    while True:
        jobs = generate_cluster_trace(spec, duration=duration).jobs
        if len(jobs) >= n:
            return list(jobs[:n])
        duration *= 1.5


class _LineRecordWal(WriteAheadLog):
    """Writes rich submissions in the line-record format.

    Each submission becomes one ``<crc hex> <json>`` line that repeats
    every job's strings, metadata and resources — the format the log
    used before column frames, which recovery still reads.  The
    conversion runs inside ``append`` so the timed append carries the
    whole cost of the format.
    """

    def append(self, record):
        if "columns" in record:
            record = {
                "op": "jobs",
                "jobs": [job_to_record(j) for j in record["jobs"]],
                "cats": [int(c) for c in record["cats"]],
            }
        return super().append(record)


def _same_rollup(a, b) -> bool:
    return (
        np.array_equal(a.ssd_fraction, b.ssd_fraction)
        and a.n_ssd_requested == b.n_ssd_requested
        and a.n_spilled == b.n_spilled
        and a.realized_tco == b.realized_tco
        and a.peak_ssd_used == b.peak_ssd_used
    )


def test_perf_wal(tmp_path):
    """Line records vs column frames on a byom-shaped rich-job stream.

    A stable-hash categorizer stands in for the model, so the figures
    are the log's own cost.  Each row submits the whole stream through
    a fresh 4-lane adaptive service with the WAL attached, then
    recovers a new service from the pre-stream checkpoint plus that
    WAL.  ``append us/decision`` is the time inside
    ``WriteAheadLog.append`` (record encoding and the write) per job;
    ``recovery s`` is ``PlacementService.recover``; every recovered
    roll-up must equal the uninterrupted run's.
    """
    import platform

    from repro.serve import OnlineAdaptivePolicy, PlacementService
    from repro.workloads.metadata import stable_hash

    n = int(os.environ.get("BENCH_WAL_JOBS", "200000"))
    jobs = _rich_stream(n)
    capacity = 0.05 * Trace(jobs).peak_ssd_usage()

    def categorizer(batch):
        return [1 + stable_hash(j.pipeline, seed=3) % (WAL_CATEGORIES - 1)
                for j in batch]

    def service(mode, wal=None):
        svc = PlacementService(
            OnlineAdaptivePolicy(WAL_CATEGORIES, per_shard_act=True),
            capacity, WAL_SHARDS, mode=mode, categorizer=categorizer, wal=wal,
        )
        return svc.open()

    def feed(svc, step):
        if step == 1:
            for job in jobs:
                svc.submit(job)
        else:
            for lo in range(0, n, step):
                svc.submit_jobs(jobs[lo:lo + step])

    streams = ((f"{WAL_BATCH}-job batches", "batch", WAL_BATCH),
               ("one job at a time", "scalar", 1))
    rows = []
    for label, mode, step in streams:
        ref = service(mode)
        feed(ref, step)
        want = ref.result()
        for fmt, cls in (("line", _LineRecordWal), ("column", WriteAheadLog)):
            path = tmp_path / f"{mode}-{fmt}.wal"
            wal = cls(path)
            spent = [0.0]
            append = wal.append

            def timed(record, append=append, spent=spent):
                t0 = time.perf_counter()
                seq = append(record)
                spent[0] += time.perf_counter() - t0
                return seq

            wal.append = timed
            svc = service(mode, wal)
            ckpt = svc.snapshot()
            feed(svc, step)
            wal.close()
            size = path.stat().st_size
            t0 = time.perf_counter()
            rec = PlacementService.recover(ckpt, str(path))
            recovery = time.perf_counter() - t0
            got = rec.result()
            rec.wal.close()
            assert _same_rollup(want, got), (label, fmt)
            rows.append((label, fmt, size / n, spent[0] / n * 1e6, recovery))
            path.unlink()

    lines = [
        f"WAL record formats: {n:,} byom-shaped rich jobs (metadata + "
        f"resources), {WAL_SHARDS} lanes, hash categorizer; every recovery "
        "equals the uninterrupted roll-up",
        f"host: cpu_count={os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {np.__version__}",
        f"{'stream':<20} {'format':<8} {'B/decision':>11} "
        f"{'append us/decision':>19} {'recovery s':>11}",
    ]
    for label, fmt, bpd, us, rec_s in rows:
        lines.append(f"{label:<20} {fmt:<8} {bpd:>11.1f} {us:>19.2f} {rec_s:>11.2f}")
    emit("perf_wal", "\n".join(lines))


#: Rows per micro-batch in the forest scoring bench (perfbench's byom-batch size).
FOREST_BATCH = 512

#: Alternating repetitions behind the forest scoring bench's medians.
FOREST_REPEATS = 5


def test_perf_forest_one_row():
    """Serving-shape forest scoring: feature values vs bin codes."""
    import platform

    rng = np.random.default_rng(1)
    n_rows = max(N_JOBS // 20, 2 * FOREST_BATCH)
    n_rows -= n_rows % FOREST_BATCH
    X = rng.normal(size=(N_TRAIN + n_rows, N_FEATURES))
    score = X @ rng.normal(size=N_FEATURES) + rng.normal(scale=0.5, size=len(X))
    edges = np.quantile(score, np.linspace(0.0, 1.0, N_CATEGORIES + 1)[1:-1])
    y = np.searchsorted(edges, score)
    model = GBTClassifier(n_rounds=10, max_depth=6).fit(X[:N_TRAIN], y[:N_TRAIN])
    forest, binner, k = model.packed_, model.binner_, len(model.classes_)
    base, lr = model.base_score_, model.learning_rate
    Xs = X[N_TRAIN:]
    Xb = binner.transform(Xs)
    ref = forest.decision_scores(Xb, base, lr, k)

    t0 = time.perf_counter()
    forest.decision_scores_one(Xs[0], base, lr, k)
    build_ms = (time.perf_counter() - t0) * 1e3
    tables = forest._exit_tables
    for i in range(n_rows):
        assert np.array_equal(forest.decision_scores_one(Xs[i], base, lr, k), ref[i])
        assert np.array_equal(forest.decision_scores_one(Xb[i], base, lr, k), ref[i])
    batches = [slice(lo, lo + FOREST_BATCH) for lo in range(0, n_rows, FOREST_BATCH)]
    for rows in batches:
        assert np.array_equal(forest.decision_scores(Xs[rows], base, lr, k), ref[rows])

    out, raw = np.empty(k), np.empty((FOREST_BATCH, k))
    xb = np.empty((FOREST_BATCH, N_FEATURES), dtype=np.uint8)

    def one(inputs):
        for i in range(n_rows):
            forest.decision_scores_one(inputs[i], base, lr, k, out=out)

    def batch(inputs):
        for rows in batches:
            forest.decision_scores(inputs[rows], base, lr, k, out=raw)

    def batch_transform():
        for rows in batches:
            binner.transform(Xs[rows], out=xb)
            forest.decision_scores(xb, base, lr, k, out=raw)

    paths = {
        "one_codes": lambda: one(Xb), "one_features": lambda: one(Xs),
        "batch_codes": lambda: batch(Xb), "batch_transform": batch_transform,
        "batch_features": lambda: batch(Xs),
    }
    times = {name: [] for name in paths}
    gc.collect()
    gc.freeze()
    try:
        for rep in range(FOREST_REPEATS):  # alternating order per repetition
            for name in paths if rep % 2 == 0 else reversed(list(paths)):
                t0 = time.perf_counter()
                paths[name]()
                times[name].append(time.perf_counter() - t0)
    finally:
        gc.unfreeze()
    us = {name: float(np.median(t)) / n_rows * 1e6 for name, t in times.items()}

    lines = [
        f"Forest scoring, feature values vs bin codes: {n_rows:,} rows, "
        f"{forest.n_trees} trees ({model.n_rounds} rounds x {k} classes, depth "
        f"{forest.max_depth}); every row bit-identical across the paths",
        f"host: cpu_count={os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {np.__version__}",
        f"exit-leaf tables: {tables.used.size} of {X.shape[1]} features, "
        f"{tables.masks.shape[0]} rows x {forest.n_trees} trees x {tables.words} "
        f"word(s), {tables.masks.nbytes / 1e6:.2f} MB, built in {build_ms:.1f} ms",
        f"{FOREST_REPEATS} alternating repetitions, GC frozen; medians",
        f"{'shape':<15} {'path':<46} {'us/row':>8}",
    ]
    for shape, name, label in (
        ("one row", "one_codes", "codes precomputed: decision_scores_one"),
        ("one row", "one_features", "features: decision_scores_one"),
        (f"{FOREST_BATCH}-row batch", "batch_codes", "codes precomputed: decision_scores"),
        (f"{FOREST_BATCH}-row batch", "batch_transform", "codes: transform(out=) + decision_scores"),
        (f"{FOREST_BATCH}-row batch", "batch_features", "features: decision_scores"),
    ):
        lines.append(f"{shape:<15} {label:<46} {us[name]:>8.2f}")
    lines.append(
        f"{FOREST_BATCH}-row batch: features {us['batch_transform'] / us['batch_features']:.2f}x "
        "faster than transform + codes"
    )
    emit("perf_forest_one_row", "\n".join(lines))


def _fleet_messages(
    trace, policy, label: str, workers: list | None = None, **kwargs,
) -> list:
    """(kind, message) for every op and reply of an in-process
    ``fleet-replay``-shaped run: 8 lanes, 2 workers, a binding 2% quota,
    512-job batches and a complete on every 8th SSD placement.  Kinds
    start with ``label``; ``kwargs`` go to the router.  ``workers``,
    when given, receives each worker's spec and its ``(op, reply)``
    log."""
    from repro.serve import FleetRouter
    from repro.serve.transport import RecordingTransport

    svc = FleetRouter(
        policy, 0.02 * trace.peak_ssd_usage(), 8, n_workers=2, **kwargs
    )
    pool = svc.pool
    logs = [[] for _ in pool.transports]
    if workers is not None:
        workers.extend(zip((dict(s) for s in pool.specs), logs))
    pool.transports = [RecordingTransport(t, lg) for t, lg in zip(pool.transports, logs)]
    svc.open(trace)
    cols = (trace.arrivals, trace.durations, trace.sizes, trace.read_bytes,
            trace.write_bytes, trace.read_ops)
    placed = 0
    for lo in range(0, len(trace), 512):
        for d in svc.submit_batch(
            *(c[lo:lo + 512] for c in cols), pipelines=trace.pipelines[lo:lo + 512]
        ):
            if d.ssd_space_fraction > 0.0:
                placed += 1
                if placed % 8 == 0:
                    svc.complete(d.job_id)
    svc.drain()
    svc.close()
    out = []
    for op, reply in (m for lg in logs for m in lg):
        out.append((f"{label} {op['op']}", op))
        out.append((f"{label} {op['op']} reply", reply))
    return out


def test_perf_transport():
    """Fleet wire messages: pickle (Connection's path) vs ``encode``/``decode``."""
    import pickle
    import platform
    from multiprocessing.reduction import ForkingPickler

    from repro.baselines import FirstFitPolicy
    from repro.core import hash_categories
    from repro.serve.transport import column_arrays, decode, encode, same_message
    from repro.units import WEEK
    from repro.workloads import default_cluster_specs, generate_cluster_trace

    trace = generate_cluster_trace(default_cluster_specs(10)[0], duration=2 * WEEK, seed=0)
    policy = AdaptiveCategoryPolicy(
        hash_categories(trace, 15), 15, name="Adaptive Hash"
    )

    workers: list = []
    messages = (
        _fleet_messages(trace, policy, "batch", workers=workers)
        # FirstFit asks for every queued job at once (fit-check chunks),
        # so the queue bound is what closes its chunks.
        + _fleet_messages(trace, FirstFitPolicy(), "firstfit", max_pending=512)
    )

    def pickled(m):
        buf = ForkingPickler.dumps(m)
        return len(buf), pickle.loads(buf)

    def wired(m):
        buf = encode(m)
        return len(buf), decode(buf)

    codecs = (("pickle", pickled), ("wire", wired))
    for _, m in messages:
        assert same_message(m, pickled(m)[1])
        assert same_message(column_arrays(m), column_arrays(wired(m)[1]))
    # Per message and codec: the best of three interleaved rounds of
    # five back-to-back calls (one call of a few microseconds is below
    # the timer's resolution and noise).
    us = {name: np.full(len(messages), np.inf) for name, _ in codecs}
    nbytes = {name: np.zeros(len(messages)) for name, _ in codecs}
    for _ in range(3):
        for i, (_, m) in enumerate(messages):
            for name, codec in codecs:
                t0 = time.perf_counter()
                for _ in range(5):
                    nbytes[name][i], _ = codec(m)
                us[name][i] = min(us[name][i], (time.perf_counter() - t0) * 2e5)
    kinds = np.array([k for k, _ in messages])
    tags = np.array([chr(encode(m)[0]) for _, m in messages])

    lines = [
        f"Fleet wire messages: {len(messages):,} ops and replies of in-process "
        f"fleet-replay runs (8 lanes, 2 workers, 2% quota, batch mode) over "
        f"{len(trace):,} jobs: Adaptive Hash (batch) and FirstFit (firstfit) with "
        "at most 512 queued; every decode equals its original",
        f"host: cpu_count={os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "encode + decode per message (best of 3 rounds of 5 calls), median over the "
        "messages of a kind; "
        "pickle = ForkingPickler.dumps + pickle.loads, "
        "wire = transport.encode + decode (path C = chunk op, R = chunk reply, "
        "P = pickle)",
        f"{'kind':<20} {'messages':>9} {'path':>4} {'pickle us':>10} {'wire us':>8} "
        f"{'pickle B':>9} {'wire B':>7}",
    ]
    slower = []
    for kind in sorted(set(kinds)) + ["all"]:
        sel = kinds == kind if kind != "all" else np.ones(kinds.size, dtype=bool)
        med_p, med_w = np.median(us["pickle"][sel]), np.median(us["wire"][sel])
        if med_w >= med_p:
            slower.append(kind)
        lines.append(
            f"{kind:<20} {int(sel.sum()):>9,} {''.join(sorted(set(tags[sel]))):>4} "
            f"{med_p:>10.1f} {med_w:>8.1f} {nbytes['pickle'][sel].mean():>9.0f} "
            f"{nbytes['wire'][sel].mean():>7.0f}"
        )
    lines += _worker_chunk_op_lines(workers)
    emit("perf_transport", "\n".join(lines))
    assert not slower, slower


def _worker_chunk_op_lines(workers: list) -> list[str]:
    """Time the batch run's recorded worker ops: replayed in order on a
    fresh in-process worker, and as real round trips to a fresh
    subprocess worker.  Every reply must equal the recorded one."""
    from repro.serve.transport import SubprocessTransport, column_arrays, same_message
    from repro.serve.worker import PlacementWorker

    n_ops = sum(len(log) for _, log in workers)
    assert all(op["op"] == "chunk" for _, log in workers for op, _ in log)
    handle_s = round_trip_s = np.inf
    for _ in range(5):
        live = [PlacementWorker(dict(spec)) for spec, _ in workers]
        gc.collect()
        t0 = time.perf_counter()
        replies = [[w.handle(op) for op, _ in log] for w, (_, log) in zip(live, workers)]
        handle_s = min(handle_s, time.perf_counter() - t0)
        for got, (_, log) in zip(replies, workers):
            assert all(same_message(r, g) for (_, r), g in zip(log, got))
    # Router and worker share one CPU, as in perfbench's fleet runs (the
    # forked worker inherits the pin): a wake-up on another CPU can cost
    # more than the op itself on a small virtual host.
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(3):
            # One worker at a time: each request waits for its reply, so
            # this is the serial round trip, not the scatter's overlap.
            elapsed = 0.0
            for w, (spec, log) in enumerate(workers):
                tr = SubprocessTransport(w, dict(spec))
                try:
                    t0 = time.perf_counter()
                    got = [tr.request(op) for op, _ in log]
                    elapsed += time.perf_counter() - t0
                finally:
                    tr.close()
                assert all(
                same_message(column_arrays(r), g) for (_, r), g in zip(log, got)
            )
            round_trip_s = min(round_trip_s, elapsed)
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
    return [
        "",
        f"worker chunk op: the batch run's {n_ops:,} recorded chunk ops, each worker's "
        "ops in order on a fresh worker (every reply equals the recorded one); "
        "handle = PlacementWorker.handle in this process (best of 5 passes), "
        "round trip = SubprocessTransport.request to a forked worker, one op in "
        f"flight, {'both pinned to one CPU' if pinned else 'unpinned'} (best of 3 passes)",
        f"{'kind':<20} {'ops':>9} {'handle us':>10} {'round trip us':>14}",
        f"{'worker chunk op':<20} {n_ops:>9,} {handle_s / n_ops * 1e6:>10.1f} "
        f"{round_trip_s / n_ops * 1e6:>14.1f}",
    ]


if __name__ == "__main__":
    import tempfile

    test_perf_hotpaths()
    test_perf_million_trace()
    test_perf_skewed_capacity()
    test_perf_serve_latency()
    with tempfile.TemporaryDirectory() as _tmp:
        test_perf_streaming_rss(Path(_tmp))
    with tempfile.TemporaryDirectory() as _tmp:
        test_perf_wal(Path(_tmp))
    test_perf_forest_one_row()
    test_perf_transport()
