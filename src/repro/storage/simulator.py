"""Event-driven SSD/HDD placement simulator (single global pool).

Follows the paper's simulation methodology (Section 5.1): jobs arrive in
time order; a policy routes each to SSD or HDD; an SSD-routed job that
only partially fits spills the unfit remainder to HDD ("the remaining
portion of the job spills over to HDD after filling the available SSD
capacity").  Capacity is returned when jobs end (or are evicted early by
a policy-provided TTL).

Realized cost of a partially-SSD job interpolates between the pure-SSD
and pure-HDD TCO by the SSD-resident share (space fraction x time
fraction); its residual HDD TCIO scales the same way.

Since the unified runtime landed, :func:`simulate` is a thin wrapper
over :func:`repro.storage.engine.run_placement` with ``n_shards=1`` —
the one-global-pool special case of the shard-aware engine.  Both the
``legacy`` per-job loop and the ``chunked`` batch-protocol engine live
in :mod:`repro.storage.engine`; ``engine="auto"`` (the default) picks
``chunked`` whenever the policy supports it.
"""

from __future__ import annotations

import numpy as np

from ..cost import CostRates, DEFAULT_RATES
from ..workloads.job import Trace, TraceBase
from ..workloads.streaming import TraceSource
from .engine import SimResult, run_placement
from .policy import PlacementPolicy

__all__ = ["SimResult", "simulate", "analytic_result"]


def analytic_result(
    trace: Trace,
    ssd_fraction: np.ndarray,
    capacity: float,
    rates: CostRates = DEFAULT_RATES,
    name: str = "analytic",
) -> SimResult:
    """Build a :class:`SimResult` directly from per-job SSD fractions.

    Used for the clairvoyant oracle, whose placement already satisfies
    the capacity profile by construction — running the event loop would
    only re-derive the same fractions.
    """
    ssd_fraction = np.asarray(ssd_fraction, dtype=float)
    if ssd_fraction.shape != (len(trace),):
        raise ValueError("ssd_fraction must have one entry per job")
    if ((ssd_fraction < 0) | (ssd_fraction > 1)).any():
        raise ValueError("ssd_fraction entries must lie in [0, 1]")
    costs = trace.costs(rates)
    tcio_integral = trace.tcio(rates) * np.maximum(trace.durations, 1.0)
    realized_tco = float(
        (ssd_fraction * costs.c_ssd + (1.0 - ssd_fraction) * costs.c_hdd).sum()
    )
    return SimResult(
        policy_name=name,
        capacity=capacity,
        n_jobs=len(trace),
        baseline_tco=float(costs.c_hdd.sum()),
        realized_tco=realized_tco,
        baseline_tcio=float(tcio_integral.sum()),
        realized_hdd_tcio=float(((1.0 - ssd_fraction) * tcio_integral).sum()),
        n_ssd_requested=int((ssd_fraction > 0).sum()),
        n_spilled=0,
        peak_ssd_used=0.0,
        ssd_fraction=ssd_fraction,
    )


def simulate(
    trace: "Trace | TraceBase | TraceSource | str",
    policy: PlacementPolicy,
    capacity: float,
    rates: CostRates = DEFAULT_RATES,
    engine: str = "auto",
    aggregate_only: bool = False,
) -> SimResult:
    """Run ``policy`` over ``trace`` with ``capacity`` bytes of SSD.

    Returns realized TCO/TCIO along with per-job SSD fractions (the
    effective share of each job's cost charged at SSD rates).  This is
    the ``n_shards=1`` case of the unified shard-aware runtime
    (:func:`repro.storage.engine.run_placement`).

    Parameters
    ----------
    trace:
        An in-memory :class:`~repro.workloads.job.Trace`, a streaming
        :class:`~repro.workloads.streaming.TraceSource` (drained block
        by block — no per-job objects are materialized, and the result
        is bit-identical to the in-memory run of the same jobs), or a
        ``.csv``/``.npz`` path accepted by
        :func:`~repro.workloads.streaming.open_trace_source`::

            simulate(stream_csv_trace("week2.csv"), policy, capacity)
    capacity:
        SSD bytes available to the single global pool.
    engine:
        Event-loop implementation: ``"auto"`` (chunked fast path when
        the policy implements ``decide_batch``, legacy otherwise),
        ``"chunked"``, or ``"legacy"``.
    aggregate_only:
        Constant-memory results: keep only the scalar aggregates and
        drop the per-job arrays (:attr:`SimResult.ssd_fraction` is
        ``None``).  Every aggregate equals the full-result run's.
    """
    return run_placement(
        trace, policy, capacity, n_shards=1, rates=rates, engine=engine,
        aggregate_only=aggregate_only,
    )
