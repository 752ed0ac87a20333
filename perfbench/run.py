"""Serving benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload byom-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` alternates untraced and traced passes over
the same window and reports the per-layer metrics of the traced ones,
plus the tracing overhead.  Workloads are described in
``perfbench/workloads.py``, layers in ``perfbench/layers.py`` and the
metrics in ``perfbench/README.md``.

The last line of standard output is the result object; the lines
before it give the host, the set-up samples and every pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(seed: int) -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
        "commit": _commit(),
        "seed": seed,
    }


def _settle() -> None:
    """Collect, then exempt every live object from later collections.

    The trace, features and model are built once and never freed; left
    in the collector's generations, every full collection inside a pass
    would rescan them, and how often that happens varies from run to
    run far more than the work being measured.
    """
    gc.collect()
    gc.freeze()


class Run:
    """What one run measured, before it is reduced to metrics."""

    def __init__(self):
        self.train_s = 0.0
        self.ticks: list[float] = []
        self.setups: list[float] = []
        self.warmup = None
        self.plain: list = []
        self.traced: list = []
        self.single: list = []


def _log(p, kind: str) -> None:
    print(
        f"pass {kind} wall={p.wall:.3f}s decisions={p.decisions} "
        f"submissions={p.submissions} completes={p.completes} "
        f"mismatch={p.mismatch or '-'}"
    )


def execute(wl, seconds: float, clock) -> Run:
    """Train, warm up, then run passes until the window is full.

    Every pass gets a freshly built service, and each build is one
    set-up sample.  On a traced run, a workload with a single-process
    counterpart (``fleet-replay``) also runs it after every untraced
    pass, outside the window, for ``fleet.speedup_vs_single``.
    """
    import host

    run = Run()
    wl.extract()
    run.train_s = wl.train(clock)
    wl.reference()
    _settle()

    def build():
        # Nothing references the previous pass's service any more;
        # collecting it first keeps its teardown out of the sample, and
        # collecting again starts the pass from empty generations.
        gc.collect()
        t0 = perf_counter()
        svc = wl.build()
        run.setups.append(perf_counter() - t0)
        gc.collect()
        return svc

    run.warmup = wl.run_pass(build(), None)
    run.setups.clear()
    # With tracing, untraced and traced passes alternate and each side
    # gets half the window.
    want = {False: seconds / 2, True: seconds / 2} if clock else {False: seconds}
    done = dict.fromkeys(want, 0.0)
    while True:
        short = [t for t in want if done[t] < want[t]]
        if not short:
            break
        traced = min(short, key=done.get)
        # Build, pass and single-process counterpart all run on the CPU
        # that is fastest now; the fleet's workers, forked by the build,
        # share it.  The tick taken there goes with the build's time.
        run.ticks.append(host.pin_fastest())
        try:
            p = wl.run_pass(build(), clock if traced else None)
            (run.traced if traced else run.plain).append(p)
            done[traced] += p.wall
            _log(p, "traced" if traced else "plain")
            single = wl.single() if clock and not traced else None
            if single is not None:
                gc.collect()
                run.single.append(wl.run_pass(single, None))
                _log(run.single[-1], "single")
        finally:
            host.unpin()
    return run


def end_to_end(run: Run) -> dict:
    """Rescaled timings, set-up and memory.

    Every pass makes the identical calls to a fresh service, so call
    ``k`` does the same work in every pass.  Its time is its typical
    time over the run's untraced passes (``host.typical``): the calls
    made while the host was within 20% of the run's fast ticks (its
    10th percentile), rescaled by their tick.  Throughput is the
    decisions of one pass over the sum of those times, for every call
    the pass makes.  Set-up time is the same figure over the builds of
    the measured passes.
    """
    import numpy as np

    import host

    n = len(run.plain)
    ticks = np.concatenate([p.lat_tick + p.other_tick for p in run.plain])
    cut = 1.2 * np.percentile(ticks, 10)
    lat, kept = host.typical([p.lat for p in run.plain], [p.lat_tick for p in run.plain], cut)
    other, _ = host.typical(np.reshape([p.other for p in run.plain], (n, -1)),
                            np.reshape([p.other_tick for p in run.plain], (n, -1)), cut)
    # Each build is one more call, made once per pass.
    setup, _ = host.typical(np.reshape(run.setups, (-1, 1)), np.reshape(run.ticks, (-1, 1)), cut)
    raw = np.min([p.lat for p in run.plain], axis=0)
    print(f"untraced passes: {n}, submissions per pass: {lat.size}, "
          f"other calls per pass: {other.size}")
    print("tick before each call, us (p10, median, p90): %.1f %.1f %.1f; "
          "submissions kept as fast: %.2f"
          % (*np.percentile(ticks * 1e6, [10, 50, 90]), kept))
    print("unscaled, fastest of the passes: submit p50 %.3f us" % (np.median(raw) * 1e6))
    return {
        "scaled_submit_p50_us": (np.median(lat) * 1e6, "us"),
        "scaled_decisions_per_s": (run.plain[0].decisions / (lat.sum() + other.sum()), "1/s"),
        "setup_s": (float(setup[0]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(run: Run, rate: float, clock, wl) -> dict:
    import numpy as np

    from layers import FIT_LAYERS, LAYERS

    tp = run.traced
    n = len(tp)
    lat = np.concatenate([p.lat for p in run.plain])
    cpu = np.median([p.cpu / p.decisions for p in run.plain])
    # Ratios of two timings compare their fastest passes, which ran
    # while the host was fastest for either side.
    best_plain = max(p.decisions / p.wall for p in run.plain)
    best_traced = max(p.decisions / p.wall for p in tp)
    best_single = max((p.decisions / p.wall for p in run.single), default=0.0)
    decided = sum(p.decisions for p in tp)
    total = clock.root_seconds()
    print(f"traced passes: {n}, traced root wall {total:.3f}s, "
          f"traced window {sum(p.wall for p in tp):.3f}s")
    out = {}
    for layer in LAYERS:
        # Serving layers per traced pass, as a share of the root calls'
        # wall time; training layers per training, as a share of it.
        fit = layer in FIT_LAYERS
        scale, base = (1, run.train_s) if fit else (n, total)
        out[f"{layer}.calls"] = (clock.calls[layer] / scale, "count")
        out[f"{layer}.busy_s"] = (clock.busy[layer] / scale, "s")
        out[f"{layer}.share"] = (clock.busy[layer] / base, "ratio")

    def ratio(num, den):
        return num / den if den else 0.0

    chunks = sum(p.chunks for p in tp)
    out.update({
        "kernel.chunks": (chunks / n, "count"),
        "kernel.jobs_per_chunk": (ratio(decided, chunks), "ratio"),
        "kernel.scalar_fallback_ratio": (sum(p.fallback for p in tp) / decided, "ratio"),
        "kernel.spill_ratio": (
            ratio(sum(p.spilled for p in tp), sum(p.requested for p in tp)), "ratio"),
        "complete.freed_ratio": (
            ratio(sum(p.freed for p in tp), sum(p.completes for p in tp)), "ratio"),
        "wal.bytes_per_decision": (sum(p.wal_bytes for p in tp) / decided, "B"),
        "transport.roundtrips": (clock.transport_roundtrips / n, "count"),
        "transport.bytes_per_decision": (clock.transport_bytes / decided, "B"),
        "tracing.spans": (sum(p.spans for p in tp) / n, "count"),
        "fleet.speedup_vs_single": (ratio(best_plain, best_single), "ratio"),
        "trace_overhead_pct": (100.0 * (1.0 - best_traced / best_plain), "%"),
        "quality.tco_savings_pct": (wl.ref.tco_savings_pct, "%"),
        "train.wall_s": (run.train_s, "s"),
        "loop.decisions_per_s": (rate, "1/s"),
        "loop.submit_p50_us": (np.percentile(lat, 50) * 1e6, "us"),
        "loop.submit_p95_us": (np.percentile(lat, 95) * 1e6, "us"),
        "loop.cpu_us_per_decision": (cpu * 1e6, "us"),
    })
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    import numpy as np

    from layers import LayerClock
    from workloads import WORKLOADS, Sizes, make_trace

    sizes = sizes or Sizes()
    clock = LayerClock() if trace else None
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[name](make_trace(seed, sizes), seed, sizes, str(workdir))
        run = execute(wl, seconds, clock)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    checked = [run.warmup] + run.plain + run.traced + run.single
    attempted = sum(p.ops for p in checked)
    failed = sum(p.ops for p in checked if p.mismatch)
    # The rate is a median over passes, so one pass that shared the host
    # with a burst of other work does not move it.
    rates = [p.decisions / p.wall for p in run.plain]
    rate = float(np.median(rates))
    print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in run.setups)}")
    print(f"median tick on the chosen CPU before each pass, us: "
          f"{' '.join(f'{s * 1e6:.1f}' for s in run.ticks)}")
    print("decisions_per_s over passes (min, median, max): %.1f %.1f %.1f"
          % (min(rates), rate, max(rates)))
    metrics = per_layer(run, rate, clock, wl) if trace else end_to_end(run)
    for key, (value, unit) in metrics.items():
        print(f"{key:<32} {value:>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print("host: " + json.dumps(host_info(args.seed)))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
