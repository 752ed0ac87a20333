"""Self-test of the benchmark at tiny sizes (about a minute).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is well formed, that every workload
emits exactly the declared metrics with their declared units in both
modes, that the traced layer shares add up to the whole traced time,
and that the correctness gate fails a run whose reference roll-up has
been perturbed.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond: bool, msg: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {msg}")


def check_spec(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        check(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.fullmatch(m["unit"]) is not None, f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"direction of {m['name']}")
    setup = [(m["unit"], m["better"]) for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup == [("s", "lower")], "setup_s must be declared in seconds, lower")


def check_run(result: dict, declared: list, label: str) -> None:
    check(result["correct"] and result["failed"] == 0, f"{label}: run not correct")
    check(result["attempted"] >= 1, f"{label}: nothing attempted")
    got = result["metrics"]
    check(list(got) == [m["name"] for m in declared], f"{label}: metric names differ")
    for m in declared:
        value = got[m["name"]]
        check(value["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        check(math.isfinite(value["value"]), f"{label}: {m['name']} not finite")


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    import workloads
    from layers import FIT_LAYERS, LAYERS
    from workloads import TINY, WORKLOADS, gate

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for name in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run.measure(name, seed=3, seconds=0.2, trace=trace, sizes=TINY)
            check_run(result, declared, f"{name} trace={int(trace)}")
        # Self times of the serving layers account for the whole traced
        # wall time of the root calls.
        got = result["metrics"]
        shares = sum(got[f"{layer}.share"]["value"]
                     for layer in LAYERS if layer not in FIT_LAYERS)
        check(abs(shares - 1.0) < 1e-9, f"{name}: layer shares sum to {shares}")
        if name == "fleet-replay":
            for layer in ("features", "forest", "wal"):
                check(got[f"{layer}.calls"]["value"] == 0, f"{name}: {layer} was called")

    # The gate itself: an exact roll-up passes, a perturbed one fails.
    wl = WORKLOADS["byom-request"](workloads.make_trace(3, TINY), 3, TINY, str(HERE))
    wl.extract()
    wl.train(None)
    ref = wl.reference()
    check(gate(ref, ref) == [], "gate rejects an identical roll-up")
    frac = ref.ssd_fraction.copy()
    frac[0] += 1e-6
    check(gate(dataclasses.replace(ref, ssd_fraction=frac), ref, exact=False)
          == ["ssd_fraction"], "gate misses a perturbed ssd_fraction")

    # And through a whole run: every op of a mismatching pass fails.
    original = workloads.Workload.run_pass

    def perturbed(self, svc, clock):
        real = self.ref
        self.ref = dataclasses.replace(real, realized_tco=real.realized_tco * 1.001 + 1.0)
        try:
            return original(self, svc, clock)
        finally:
            self.ref = real

    workloads.Workload.run_pass = perturbed
    try:
        for name in WORKLOADS:
            result = run.measure(name, seed=3, seconds=0.2, trace=False, sizes=TINY)
            check(not result["correct"], f"{name}: perturbed roll-up passed the gate")
            check(result["failed"] == result["attempted"], f"{name}: failed ops not counted")
    finally:
        workloads.Workload.run_pass = original
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
