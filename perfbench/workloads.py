"""The three serving workloads, each a closed loop with one client.

A *pass* submits one fixed job stream to a freshly built service, one
call at a time, each sent when the previous one returns, then drains
it.  Because the stream is fixed, a pass's roll-up is deterministic and
is checked against a reference computed outside the timed window.

- ``byom-batch``: the trained model on the admission path, rich jobs in
  micro-batches through ``submit_jobs``, with the write-ahead log, alert
  rules, a 1/256 tracer and periodic metric scrapes.
- ``byom-request``: the same model and cluster, one ``submit(job)`` per
  request in scalar mode, with the write-ahead log.
- ``fleet-replay``: model-free (Adaptive Hash) replay of the whole
  trace through a two-worker subprocess fleet at a binding 2% quota,
  with early ``complete`` calls: no categorizer and no write-ahead log.

The write-ahead log is opened with ``fsync=False``: each record is
flushed to the OS, which survives a process crash but not a machine
crash.  Its files live under the benchmark's own directory.
"""

from __future__ import annotations

import dataclasses
import os
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.config import ModelParams
from repro.core import AdaptiveCategoryPolicy, ByomPipeline, hash_categories
from repro.serve import (
    AlertManager,
    FleetRouter,
    PlacementService,
    SloSpec,
    Tracer,
    WriteAheadLog,
    default_alert_rules,
)
from repro.units import WEEK
from repro.workloads import ClusterSpec, Trace, generate_cluster_trace
from repro.workloads.features import extract_features
from repro.workloads.traces import week_split

from host import TICK_REF, Speed
from layers import Instrumented, LayerClock


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the self-test shrinks every field.

    The streams a pass submits are short so that a run makes many
    passes: the end-to-end timings take each call's median over the
    passes, and that median is steadier the more passes it is taken
    over.
    """

    mix_scale: int = 16
    n_jobs: int = 60_000
    train_rows: int = 2000
    n_rounds: int = 10
    batch_jobs: int = 512
    batch_stream: int = 16_384
    request_stream: int = 6000


TINY = Sizes(
    mix_scale=1, n_jobs=3000, train_rows=200, n_rounds=2, batch_jobs=64,
    batch_stream=1000, request_stream=200,
)

#: Pipelines per archetype, times ``Sizes.mix_scale``: the application
#: mix of the default suite's first cluster.
MIX = {"logproc": 3, "dbquery": 3, "streaming": 2, "mltrain": 2, "staging": 2, "reporting": 1}

N_CATEGORIES = 15
BYOM_QUOTA = 0.05
BYOM_SHARDS = 4
FLEET_QUOTA = 0.02
FLEET_SHARDS = 8
FLEET_WORKERS = 2
SCRAPE_EVERY = 32
COMPLETE_EVERY = 8

#: Seed of the generated cluster.  The cluster is the same for every
#: run; the workload seed draws which of its jobs a run replays.  When
#: the seed also drew the pipelines, the fleet's work per pass varied
#: twofold between seeds (scalar-fallback jobs 2,982 to 5,917, completes
#: 303 to 731); with a fixed cluster it varies by about 5%.
CLUSTER_SEED = 0

#: Roll-up counts a pass must reproduce exactly.
COUNT_FIELDS = ("n_ssd_requested", "n_spilled")


def make_trace(seed: int, sizes: Sizes) -> Trace:
    """The seeded two-week cluster trace every workload starts from.

    One generated sub-cluster per archetype of :data:`MIX`, from
    :data:`CLUSTER_SEED`, merged in arrival order; then a sample, drawn
    with ``seed``, of exactly ``sizes.n_jobs`` of its jobs (about half),
    renumbered in arrival order.
    """
    gen = np.random.default_rng(CLUSTER_SEED)
    jobs = []
    for arch, weight in MIX.items():
        spec = ClusterSpec("C0", {arch: 1.0}, n_pipelines=weight * sizes.mix_scale)
        sub = generate_cluster_trace(spec, duration=2 * WEEK, seed=int(gen.integers(2**31)))
        jobs.extend(sub.jobs)
    jobs.sort(key=lambda j: j.arrival)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(jobs), size=min(sizes.n_jobs, len(jobs)), replace=False))
    return Trace(
        [dataclasses.replace(jobs[k], job_id=i) for i, k in enumerate(keep.tolist())],
        name="C0",
    )


def gate(res, ref, exact: bool = True) -> list[str]:
    """Names of the roll-up fields where ``res`` differs from ``ref``.

    With ``exact=False`` the float fields may differ by roundoff, the
    bound the serving layer documents for micro-batches against the
    offline chunked engine (online chunks clamp at the submission
    horizon, which can reorder a vectorized sum); counts stay exact.
    """
    bad = [f for f in COUNT_FIELDS if getattr(res, f) != getattr(ref, f)]
    tco_rtol, frac_tol = (0.0, 0.0) if exact else (1e-12, 1e-9)
    if not np.isclose(res.realized_tco, ref.realized_tco, rtol=tco_rtol, atol=0.0):
        bad.append("realized_tco")
    a, b = res.ssd_fraction, ref.ssd_fraction
    if a.shape != b.shape or not np.allclose(a, b, rtol=frac_tol, atol=frac_tol):
        bad.append("ssd_fraction")
    return bad


@dataclass
class Pass:
    """What one pass did and how long its timed window took."""

    wall: float = 0.0
    cpu: float = 0.0
    decisions: int = 0
    submissions: int = 0
    completes: int = 0
    freed: int = 0
    lat: list = field(default_factory=list)
    other: list = field(default_factory=list)
    lat_tick: list = field(default_factory=list)
    other_tick: list = field(default_factory=list)
    mismatch: list = field(default_factory=list)
    chunks: int = 0
    fallback: int = 0
    spilled: int = 0
    requested: int = 0
    wal_bytes: int = 0
    spans: int = 0

    @property
    def ops(self) -> int:
        return self.submissions + self.completes


class Workload:
    """One workload's inputs, model, reference and closed loop."""

    name = ""
    exact = True

    def __init__(self, trace: Trace, seed: int, sizes: Sizes, workdir: str):
        self.trace = trace
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ref = None
        self._n_built = 0

    def extract(self) -> None:
        """Offline feature extraction, for training and the reference."""

    def train(self, clock: LayerClock | None) -> float:
        """Build the admission model; returns its wall seconds."""
        raise NotImplementedError

    def reference(self):
        """The roll-up every pass must reproduce."""
        raise NotImplementedError

    def build(self):
        """A fresh, opened service for one pass."""
        raise NotImplementedError

    def single(self):
        """A fresh single-process service to compare ``build()`` against,
        or ``None`` when ``build()`` is already one."""
        return None

    def drive(self, svc, calls, p: Pass) -> None:
        """The closed loop: submit the stream, then drain."""
        raise NotImplementedError

    def close(self, svc) -> None:
        wal = getattr(svc, "wal", None)
        if wal is not None:
            wal.close()
            os.remove(wal.path)

    def run_pass(self, svc, clock: LayerClock | None) -> Pass:
        """Drive one pass; time, check and close it.

        The host-speed probes between calls are taken out of the pass's
        wall and CPU time.
        """
        p = Pass()
        speed = Speed()
        calls = _Calls(svc, clock, p, speed)
        children0 = _children_cpu()
        try:
            with Instrumented(clock, service=svc) if clock else nullcontext():
                cpu0 = process_time()
                t0 = perf_counter()
                self.drive(svc, calls, p)
                p.wall = perf_counter() - t0 - speed.spent
                p.cpu = process_time() - cpu0 - speed.spent
            res = svc.result()
            p.decisions = res.n_jobs
            p.chunks = svc.stats.n_chunks
            p.fallback = svc.kernel.counters()["scalar_fallback_jobs"]
            p.spilled, p.requested = res.n_spilled, res.n_ssd_requested
            p.mismatch = gate(res, self.ref, self.exact)
            if svc.wal is not None:
                p.wal_bytes = os.path.getsize(svc.wal.path)
            if svc.tracer is not None:
                p.spans = svc.tracer.n_spans
        finally:
            self.close(svc)
        p.cpu += _children_cpu() - children0
        return p

    def _wal(self):
        self._n_built += 1
        return WriteAheadLog(
            os.path.join(self.workdir, f"{self.name}-{self._n_built}.wal"),
            fsync=False,
        )


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


_SUBMITS = ("submit", "submit_jobs", "submit_batch")


def _timed(fn, times: list, ticks: list, speed: Speed | None):
    def call(*args, **kwargs):
        ticks.append(speed.now() if speed is not None else TICK_REF)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        times.append(perf_counter() - t0)
        return out

    return call


class _Calls:
    """The client's entry points, each a root span when tracing.

    Every call's wall time is appended, in call order, to ``p.lat`` for
    submissions and to ``p.other`` for drains, completes, alert ticks
    and scrapes, and the host's tick before it (:class:`host.Speed`) to
    ``p.lat_tick`` and ``p.other_tick``.  A pass makes the same
    calls in the same order every time, so position ``k`` of any of
    these lists is the same call in every pass.
    """

    def __init__(self, svc, clock: LayerClock | None, p: Pass, speed: Speed | None = None):
        names = {
            "submit": "service", "submit_jobs": "service",
            "submit_batch": "service", "drain": "service",
            "complete": "complete", "evaluate_alerts": "alerts",
            "metrics_text": "metrics",
        }
        for attr, layer in names.items():
            fn = getattr(svc, attr)
            if clock is not None:
                fn = clock.wrap(layer, fn)
            sub = attr in _SUBMITS
            setattr(self, attr, _timed(fn, p.lat if sub else p.other,
                                       p.lat_tick if sub else p.other_tick, speed))


class _Byom(Workload):
    """The model on the admission path: ``ByomPipeline.serve``.

    The category model is trained on a fixed-size sample of week 1 and
    serves a prefix of week 2, warm-started with week 1's history.
    """

    mode = ""

    def extract(self) -> None:
        features = extract_features(self.trace)
        self.week1, train_idx, self.week2, test_idx = week_split(self.trace)
        self.features_week1 = features.take(train_idx)
        self.features_week2 = features.take(test_idx)
        self.peak = self.week2.peak_ssd_usage()

    def train(self, clock: LayerClock | None) -> float:
        rng = np.random.default_rng(self.seed)
        n = len(self.week1)
        rows = np.sort(rng.choice(n, size=min(self.sizes.train_rows, n), replace=False))
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        sample = self.week1.subset(mask, name="train-sample")
        features = self.features_week1.take(rows)
        self.pipe = ByomPipeline(ModelParams(n_rounds=self.sizes.n_rounds))
        with Instrumented(clock, model=self.pipe.model.model) if clock else nullcontext():
            t0 = perf_counter()
            self.pipe.train(sample, features)
            return perf_counter() - t0

    def _stream(self) -> tuple:
        """The week-2 jobs one pass submits, in arrival order."""
        raise NotImplementedError

    def reference(self):
        jobs = self._stream()
        engine = "legacy" if self.mode == "scalar" else "chunked"
        self.ref = self.pipe.deploy(
            Trace(jobs, name="stream"),
            self.features_week2.take(np.arange(len(jobs))),
            BYOM_QUOTA, self.peak, n_shards=BYOM_SHARDS, engine=engine,
        )
        return self.ref

    def build(self):
        svc = self.pipe.serve(
            BYOM_QUOTA, self.peak, n_shards=BYOM_SHARDS, mode=self.mode,
            history=self.week1,
        )
        svc.wal = self._wal()
        return svc


class ByomBatch(_Byom):
    name = "byom-batch"
    mode = "batch"
    exact = False

    def _stream(self) -> tuple:
        return self.week2.jobs[:self.sizes.batch_stream]

    def build(self):
        svc = super().build()
        svc.alerts = AlertManager(
            default_alert_rules(),
            [SloSpec(
                "spill-rate", "serve_spilled_total",
                denominator="serve_decided_total", budget=0.25,
                fast_window=WEEK / 8, slow_window=WEEK / 2,
            )],
        )
        svc.tracer = Tracer(sample=1.0 / 256)
        return svc

    def drive(self, svc, calls, p: Pass) -> None:
        jobs = self._stream()
        step = self.sizes.batch_jobs
        for k, lo in enumerate(range(0, len(jobs), step)):
            calls.submit_jobs(jobs[lo:lo + step])
            calls.evaluate_alerts()
            if k % SCRAPE_EVERY == SCRAPE_EVERY - 1:
                calls.metrics_text()
        calls.drain()
        p.submissions = len(p.lat)


class ByomRequest(_Byom):
    name = "byom-request"
    mode = "scalar"

    def _stream(self) -> tuple:
        return self.week2.jobs[:self.sizes.request_stream]

    def drive(self, svc, calls, p: Pass) -> None:
        submit = calls.submit
        for job in self._stream():
            submit(job)
        p.submissions = len(p.lat)


class FleetReplay(Workload):
    name = "fleet-replay"
    # The fleet is documented as bit-identical to one process, but with
    # early completes some inputs end with a few ssd_fraction entries
    # one ulp apart: the gate allows roundoff.
    exact = False

    def train(self, clock: LayerClock | None) -> float:
        # The Adaptive Hash "model" is the pipeline hash; building it is
        # the whole training cost.  It takes tens of milliseconds, so the
        # median of several builds is reported.
        times = []
        for _ in range(15):
            t0 = perf_counter()
            self.cats = hash_categories(self.trace, N_CATEGORIES)
            times.append(perf_counter() - t0)
        self.capacity = FLEET_QUOTA * self.trace.peak_ssd_usage()
        return float(np.median(times))

    def _policy(self):
        return AdaptiveCategoryPolicy(self.cats, N_CATEGORIES, name="Adaptive Hash")

    def reference(self):
        svc = self.single()
        p = Pass()
        self.drive(svc, _Calls(svc, None, p), p)
        self.ref = svc.result()
        return self.ref

    def build(self):
        svc = FleetRouter(
            self._policy(), self.capacity, FLEET_SHARDS, mode="batch",
            n_workers=FLEET_WORKERS, transport="subprocess",
        )
        return svc.open(self.trace)

    def single(self):
        svc = PlacementService(self._policy(), self.capacity, FLEET_SHARDS, mode="batch")
        return svc.open(self.trace)

    def close(self, svc) -> None:
        if isinstance(svc, FleetRouter):
            svc.close()

    def drive(self, svc, calls, p: Pass) -> None:
        tr = self.trace
        cols = (tr.arrivals, tr.durations, tr.sizes, tr.read_bytes,
                tr.write_bytes, tr.read_ops)
        pipelines = tr.pipelines
        step = self.sizes.batch_jobs
        placed = 0
        for lo in range(0, len(tr), step):
            hi = lo + step
            decided = calls.submit_batch(
                *(c[lo:hi] for c in cols), pipelines=pipelines[lo:hi]
            )
            for d in decided:
                if d.ssd_space_fraction > 0.0:
                    placed += 1
                    if placed % COMPLETE_EVERY == 0:
                        p.completes += 1
                        p.freed += bool(calls.complete(d.job_id))
        calls.drain()
        p.submissions = len(p.lat)


WORKLOADS = {w.name: w for w in (ByomBatch, ByomRequest, FleetReplay)}
