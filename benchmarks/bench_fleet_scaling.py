"""Fleet-scaling bench: FleetRouter throughput vs worker count.

Drives the same micro-batched stream through a single-process
``PlacementService`` and through ``FleetRouter`` fleets of 1/2/4/8
workers (in-process transport), recording sustained decisions/sec and
per-batch decision latency percentiles for each width.  The stream
completes every ``COMPLETE_EVERY``-th SSD placement early, as the
serving benchmark's ``fleet-replay`` workload does.  Before any timing
is reported, every fleet roll-up must be bit-identical to the
single-process one — the scatter-gather split is a pure refactor of
the arithmetic, so worker count may change speed but never a decision.

The table records ``os.cpu_count()`` because the scaling story is
honest only relative to it: on a single-CPU host the in-process fleet
is pure dispatch overhead (there is no second core for a second
worker), so the expected shape there is flat-to-declining throughput
as workers grow.  No speedup is asserted; bit-identity and completion
are.

``BENCH_FLEET_JOBS`` overrides the trace size, as in CI.  The
committed baseline table lives in
``benchmarks/results/fleet_scaling.txt``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import AdaptiveCategoryPolicy, hash_categories
from repro.units import WEEK
from repro.workloads import Trace, default_cluster_specs, generate_cluster_trace

from bench_utils import emit

N_JOBS = int(os.environ.get("BENCH_FLEET_JOBS", "30000"))
WORKER_COUNTS = (1, 2, 4, 8)
N_SHARDS = 8  # >= max worker count, so every worker owns at least one lane
BATCH_JOBS = 512
QUOTA = 0.05
SEED = 0
COMPLETE_EVERY = 8


def _trace() -> Trace:
    spec = default_cluster_specs(10)[0]
    full = generate_cluster_trace(spec, duration=2 * WEEK, seed=SEED)
    if len(full) < N_JOBS:
        return full
    return Trace(full.jobs[:N_JOBS], name=f"{full.name}[:{N_JOBS}]")


def _policy(trace: Trace) -> AdaptiveCategoryPolicy:
    return AdaptiveCategoryPolicy(
        hash_categories(trace, 15), 15, name="Adaptive Hash"
    )


def _drive(svc, trace) -> tuple:
    """Stream the trace in micro-batches, completing every
    ``COMPLETE_EVERY``-th SSD placement; returns (result, elapsed, lat)."""
    n = len(trace)
    lat = []
    placed = 0
    t_start = time.perf_counter()
    for lo in range(0, n, BATCH_JOBS):
        hi = min(lo + BATCH_JOBS, n)
        t0 = time.perf_counter()
        decided = svc.submit_batch(
            trace.arrivals[lo:hi], trace.durations[lo:hi],
            trace.sizes[lo:hi], trace.read_bytes[lo:hi],
            trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
            pipelines=trace.pipelines[lo:hi],
        )
        for d in decided:
            if d.ssd_space_fraction > 0.0:
                placed += 1
                if placed % COMPLETE_EVERY == 0:
                    svc.complete(d.job_id)
        lat.append(time.perf_counter() - t0)
    res = svc.result()  # drains the queue
    elapsed = time.perf_counter() - t_start
    return res, elapsed, np.asarray(lat)


def _assert_identical(base, got, label: str) -> None:
    for f in ("n_ssd_requested", "n_spilled", "realized_tco",
              "realized_hdd_tcio", "peak_ssd_used", "baseline_tco"):
        a, b = getattr(base, f), getattr(got, f)
        assert a == b, f"{label}: {f} {a!r} != {b!r}"
    assert np.array_equal(base.ssd_fraction, got.ssd_fraction), label


@pytest.mark.benchmark(group="fleet")
def test_fleet_scaling(benchmark):
    from repro.serve import FleetRouter, PlacementService

    trace = _trace()
    capacity = QUOTA * trace.peak_ssd_usage()

    def run():
        rows = []
        svc = PlacementService(_policy(trace), capacity, N_SHARDS, mode="batch")
        svc.open(trace)
        base, elapsed, lat = _drive(svc, trace)
        rows.append(("single", base, elapsed, lat))
        for w in WORKER_COUNTS:
            svc = FleetRouter(
                _policy(trace), capacity, N_SHARDS, mode="batch",
                n_workers=w, transport="inprocess",
            )
            svc.open(trace)
            res, elapsed, lat = _drive(svc, trace)
            svc.close()
            rows.append((f"fleet-{w}", res, elapsed, lat))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    base = rows[0][1]
    for label, res, _, _ in rows[1:]:
        _assert_identical(base, res, label)
        assert res.n_jobs == len(trace), label

    head = (f"{'config':<10} {'workers':>8} {'decisions/s':>12} "
            f"{'p50_us':>9} {'p99_us':>9}")
    lines = [
        f"Fleet scaling: {len(trace)} jobs, quota {QUOTA:.0%}, "
        f"{N_SHARDS} caching servers, batches of {BATCH_JOBS}, "
        f"complete() on every {COMPLETE_EVERY}th SSD placement, "
        f"in-process transport, host cpu_count={os.cpu_count()}",
        "(every fleet roll-up asserted bit-identical to single-process; "
        "no speedup asserted — scaling is honest only vs cpu_count)",
        "",
        head,
        "-" * len(head),
    ]
    for label, res, elapsed, lat in rows:
        w = 1 if label == "single" else int(label.split("-")[1])
        p50, p99 = np.percentile(lat, [50, 99])
        lines.append(
            f"{label:<10} {w:>8} {res.n_jobs / elapsed:>12,.0f} "
            f"{p50 * 1e6:>9,.0f} {p99 * 1e6:>9,.0f}"
        )
    emit("fleet_scaling", "\n".join(lines))
