"""Online placement serving: the live counterpart of the offline runtime.

Everything below :mod:`repro.storage` replays a finished trace; this
subsystem runs the same placement computation *forward in time*, the
way the paper's production system runs it — jobs arrive, get routed to
a caching server, the adaptive threshold reacts, completions return
space:

- :class:`PlacementService` — the stateful request-at-a-time (or
  micro-batch) controller over the unified engine's incremental
  kernels; submissions mutate live lane state and return
  :class:`PlacementDecision` objects, ``complete`` events free space
  early, and ``snapshot``/``restore`` checkpoint the whole thing.
- :class:`OnlineAdaptivePolicy` — Algorithm 1 over streaming
  categories, anchored on the service's live :class:`~repro.serve.log.JobLog`.
- :class:`OnlineCategorizer` — on-the-fly Table-2 feature extraction
  plus packed-forest GBT prediction on the admission path.
- :class:`LoadGenerator` — timed arrival streams from any trace
  source, for latency/throughput measurement; open-loop (fixed offered
  rate with burst shapes) or closed-loop (latency-aware pacing with a
  bounded in-flight window and warmup/measure split); retries
  transient submit failures with bounded backoff.
- :class:`MetricsRegistry` / :meth:`PlacementService.metrics` — a
  dependency-free Prometheus-style metrics surface (counters read from
  the roll-up sources, per-lane gauges, exact-merge histograms), with
  text exposition and an optional :class:`MetricsServer` scrape
  endpoint; the fleet router aggregates per-worker partials through
  the same scatter-gather seam (see :mod:`repro.serve.metrics` and
  ``docs/observability.md``).
- :class:`WriteAheadLog` / :meth:`PlacementService.recover` — crash
  durability: checkpoint + WAL-suffix replay to the exact pre-crash
  state (see :mod:`repro.serve.wal`).
- :class:`FleetRouter` / :class:`PlacementWorker` /
  :mod:`repro.serve.transport` — fleet-scale serving: the same service
  surface scatter-gathered over N workers (in-process or forked
  children), bit-identical to one process for any worker count, with
  per-worker WAL/checkpoint failover (see :mod:`repro.serve.router`).
- :class:`FaultPlan` / :class:`FaultInjector` — scripted chaos (lane
  loss/shrink/restore, quota changes, categorizer outages, lost or
  duplicated completions, transient errors, crash points); named
  scenarios and the adaptive-vs-baseline runner live in
  :mod:`repro.serve.scenarios`.
- :class:`AlertRule` / :class:`SloSpec` / :class:`AlertManager` —
  deterministic alerting and SLO burn-rate accounting over the
  metrics surface, evaluated on the logical clock so the alert event
  stream is bit-identical across engines, worker counts, transports,
  and WAL recovery (see :mod:`repro.serve.alerts`).
- :class:`Tracer` — deterministic per-request spans (submit →
  categorize → admit → place/spill → complete) with job-id-hash
  sampling and a bounded ring, exported as JSONL; fleet workers keep a
  tiny op-span ring gathered through a non-mutating transport op (see
  :mod:`repro.serve.tracing`).

Replaying a trace through the service is bit-identical to the offline
``simulate``/``simulate_sharded`` run with the matching engine — the
service drives the same kernels; see :mod:`repro.serve.service`.
"""

from .alerts import AlertManager, AlertRule, SloSpec, load_alert_config
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    TransientSubmitError,
)
from .loadgen import LoadGenerator, LoadReport, metrics_latency_summary
from .log import ColumnView, GrowArray, JobLog
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    merge_states,
)
from .policy import OnlineAdaptivePolicy
from .predict import OnlineCategorizer
from .router import FleetRouter, worker_lanes
from .scenarios import (
    EXPECTED_ALERTS,
    SCENARIOS,
    ChaosScenario,
    ScenarioRow,
    default_alert_rules,
    expected_alerts,
)
from .service import (
    PlacementDecision,
    PlacementService,
    ServiceSnapshot,
    ServiceStats,
    ShockReport,
)
from .transport import (
    InProcessTransport,
    SubprocessTransport,
    WorkerDied,
    WorkerTransport,
)
from .tracing import SAMPLE_MODULUS, Tracer, sample_hash, sample_mask
from .types import SnapshotMismatch
from .wal import WalCorruption, WriteAheadLog
from .worker import PlacementWorker

__all__ = [
    "PlacementService",
    "PlacementDecision",
    "ServiceSnapshot",
    "ServiceStats",
    "ShockReport",
    "SnapshotMismatch",
    "FleetRouter",
    "PlacementWorker",
    "worker_lanes",
    "WorkerTransport",
    "InProcessTransport",
    "SubprocessTransport",
    "WorkerDied",
    "OnlineAdaptivePolicy",
    "OnlineCategorizer",
    "LoadGenerator",
    "LoadReport",
    "metrics_latency_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "merge_states",
    "JobLog",
    "GrowArray",
    "ColumnView",
    "WriteAheadLog",
    "WalCorruption",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "TransientSubmitError",
    "InjectedCrash",
    "ChaosScenario",
    "ScenarioRow",
    "SCENARIOS",
    "EXPECTED_ALERTS",
    "expected_alerts",
    "default_alert_rules",
    "AlertRule",
    "SloSpec",
    "AlertManager",
    "load_alert_config",
    "Tracer",
    "sample_hash",
    "sample_mask",
    "SAMPLE_MODULUS",
]
