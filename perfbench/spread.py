"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads byom-batch fleet-replay --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per workload and seed, one process at a
time, and prints for every metric its median and quartiles across the
runs (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the bound ``BENCHMARK.json`` gives it.  Every
end-to-end metric should spread by less than a third of its bound; the
exit status is 1 when one does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed ops={failed}")
        print(f"  {'metric':<34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- wide"
                steady = False
            print(f"  {name:<34} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
