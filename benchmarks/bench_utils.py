"""Shared benchmark helpers (import as ``from bench_utils import emit``).

Every benchmark regenerates one paper table/figure.  ``emit`` prints
the rendered series (visible with ``pytest -s``) and, for a run at the
benchmarks' committed default sizes, persists it under
``benchmarks/results/`` so the docs can reference stable artifacts.  A
run with any ``BENCH_*`` size or repeat override set (as in CI) only
prints, so it never replaces a committed full-size table.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a rendered table; save it to benchmarks/results/ unless a
    ``BENCH_*`` override makes this a reduced run."""
    print()
    print(text)
    if any(key.startswith("BENCH_") for key in os.environ):
        print(f"(reduced run: benchmarks/results/{name}.txt left as committed)")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
