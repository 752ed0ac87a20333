"""Fleet bit-identity where timestamps tie everywhere.

Arrivals, durations and complete times sit on a coarse grid, so
releases, arrivals and completes keep landing on the same instant, on
the same lane and across lanes owned by different workers.  The
ledger holds integer bytes, so the order in which equal-time releases
are grouped cannot move a single bit: for every worker count, both
transports and across a mid-run worker kill, the fleet must equal one
process exactly (``assert_bit_identical``, no tolerance) and report
the same kernel counters.
"""

import multiprocessing
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FirstFitPolicy
from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy, hash_categories
from repro.serve import FleetRouter, PlacementService
from repro.serve.router import FleetChunkKernel
from repro.serve.transport import InProcessTransport
from repro.storage import FixedPolicy
from repro.units import GIB, WEEK
from repro.workloads import Trace, default_cluster_specs, generate_cluster_trace
from repro.workloads.metadata import stable_hash

from helpers import make_job
from test_serve_service import assert_bit_identical

GRID = 10.0
N_SHARDS = 4
N_CATS = 8


def _tie_trace(steps, durations, sizes, pipes) -> Trace:
    arrivals = GRID * np.cumsum(steps)
    return Trace([
        make_job(
            i, arrival=float(arrivals[i]), duration=GRID * durations[i],
            size=float(sizes[i] * GIB), pipeline=f"pipe{pipes[i]}",
        )
        for i in range(len(steps))
    ], name="ties")


def _policy(run, trace):
    rng = np.random.default_rng(run["seed"])
    if run["policy"] == "adaptive":
        params = AdaptiveParams(
            decision_interval=3 * GRID, lookback_window=20 * GRID
        )
        return AdaptiveCategoryPolicy(
            rng.integers(0, N_CATS, len(trace)), N_CATS, params
        )
    if run["policy"] == "fixed":
        return FixedPolicy(rng.random(len(trace)) < 0.7)
    return FirstFitPolicy()


def _drive(svc, run, kill=None):
    """Feed the run in batches with completes, one shock and (for a
    fleet) one worker kill; returns the roll-up and kernel counters."""
    trace = run["trace"]
    svc.open(trace)
    n = len(trace)
    step = run["batch"]
    placed = 0
    for b, lo in enumerate(range(0, n, step)):
        hi = min(lo + step, n)
        decided = svc.submit_batch(
            trace.arrivals[lo:hi], trace.durations[lo:hi], trace.sizes[lo:hi],
            pipelines=trace.pipelines[lo:hi],
        )
        for d in decided:
            if d.ssd_space_fraction > 0.0:
                placed += 1
                if placed % run["complete_every"] == 0:
                    t = trace.arrivals[hi - 1] if run["complete_at_arrival"] else None
                    svc.complete(d.job_id, time=t)
        if b == run["shock_at"]:
            svc.apply_shock(scale=run["shock_scale"])
        if kill is not None and b == run["kill_at"]:
            svc.kill_worker(kill % svc.n_workers)
    res = svc.result()
    return res, svc.kernel.counters()


def _check(run, transport="inprocess"):
    trace = run["trace"]
    base, base_counters = _drive(
        PlacementService(_policy(run, trace), run["cap"], N_SHARDS),
        run,
    )
    for w in (1, 2, 3):
        for kill in (None, run["seed"]):
            with tempfile.TemporaryDirectory() as d:
                svc = FleetRouter(
                    _policy(run, trace), run["cap"], N_SHARDS,
                    n_workers=w, transport=transport, worker_dir=d,
                    worker_checkpoint_every=run["checkpoint_every"],
                )
                try:
                    got, counters = _drive(svc, run, kill)
                finally:
                    svc.close()
            label = f"{run['policy']}/W{w}/kill={kill is not None}"
            assert_bit_identical(base, got, label)
            assert counters == base_counters, label
    return base


@st.composite
def tie_runs(draw):
    n = draw(st.integers(12, 48))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    trace = _tie_trace(
        column(st.sampled_from((0, 0, 1, 2))),
        column(st.sampled_from((0, 1, 2, 3, 5, 8))),
        column(st.floats(0.05, 2.5)),
        column(st.integers(0, 5)),
    )
    batch = draw(st.integers(1, 9))
    n_batches = -(-n // batch)
    return {
        "trace": trace,
        "cap": draw(st.floats(1.0, 6.0)) * GIB,
        "policy": draw(st.sampled_from(("adaptive", "fixed", "firstfit"))),
        "seed": draw(st.integers(0, 2**16)),
        "batch": batch,
        "complete_every": draw(st.integers(1, 3)),
        "complete_at_arrival": draw(st.booleans()),
        "shock_at": draw(st.integers(0, n_batches - 1)),
        "shock_scale": draw(st.sampled_from((0.25, 0.5, 1.5))),
        "kill_at": draw(st.integers(0, n_batches - 1)),
        "checkpoint_every": draw(st.sampled_from((1, 3, None))),
    }


class TestTieHeavyFleet:
    @settings(max_examples=100, deadline=None)
    @given(run=tie_runs())
    def test_inprocess_fleet_matches_single_process(self, run):
        _check(run)

    @pytest.mark.parametrize("mode,policy", [
        # The adaptive cases keep their original ids.
        pytest.param("batch", "adaptive", id="batch"),
        pytest.param("scalar", "adaptive", id="scalar"),
        pytest.param("batch", "firstfit", id="batch-firstfit"),
        pytest.param("scalar", "firstfit", id="scalar-firstfit"),
    ])
    def test_subprocess_fleet_matches_single_process(self, mode, policy):
        if mode == "scalar":
            # Refused before any worker is forked.
            children = multiprocessing.active_children()
            with pytest.raises(ValueError, match="mode='batch'"):
                FleetRouter(FirstFitPolicy(), GIB, N_SHARDS, mode=mode,
                            n_workers=2, transport="subprocess")
            assert multiprocessing.active_children() == children
            return
        rng = np.random.default_rng(5)
        n = 40
        run = {
            "trace": _tie_trace(
                rng.choice((0, 0, 1, 2), n), rng.choice((0, 1, 2, 3, 5, 8), n),
                rng.uniform(0.05, 2.5, n), rng.integers(0, 6, n),
            ),
            "cap": 3.3 * GIB, "policy": policy, "seed": 5,
            "batch": 7, "complete_every": 2, "complete_at_arrival": True,
            "shock_at": 3, "shock_scale": 0.5, "kill_at": 2,
            "checkpoint_every": 3,
        }
        base = _check(run, transport="subprocess")
        assert base.n_ssd_requested
        if policy == "adaptive":  # FirstFit places no job partially
            partial = (base.ssd_fraction > 0) & (base.ssd_fraction < 1)
            assert base.n_spilled and partial.any()


class TestZeroHoldThenShock:
    """A job held for no time (duration 0) is never resident: a shock
    right after it evicts nothing, in one process (either mode) and in
    the fleet (batch mode)."""

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_not_evicted(self, mode):
        def drive(svc):
            svc.open(Trace([make_job(0, arrival=0.0, duration=0.0, size=GIB)]))
            svc.submit(arrival=0.0, duration=0.0, size=GIB)
            svc.drain()
            svc.apply_shock(scale=0.1)
            return svc.result(), svc.kernel.counters()

        base, base_counters = drive(
            PlacementService(FirstFitPolicy(), 4 * GIB, 1, mode=mode)
        )
        assert base.peak_ssd_used == GIB
        assert base_counters["n_evicted"] == 0
        if mode == "batch":
            svc = FleetRouter(FirstFitPolicy(), 4 * GIB, 1, n_workers=1)
            got, counters = drive(svc)
            svc.close()
            assert_bit_identical(base, got, mode)
            assert counters == base_counters


def _pipeline_on(lane: int, n_shards: int) -> str:
    """A pipeline name the service routes to ``lane``."""
    return next(
        name for name in (f"pipe{k}" for k in range(64))
        if stable_hash(name) % n_shards == lane
    )


class TestFitChunkPeak:
    """One FirstFit chunk on two workers whose lanes peak at different
    instants, with releases inside the chunk: the fleet's peak is the
    one process's global peak — not the larger per-worker peak, not
    their sum, and not the occupancy left at the chunk's end."""

    #: (arrival, duration, GiB, lane).  Used GiB after each arrival:
    #: 4, 7, 9 (the global peak), then 8 at t=6 once lane 0's jobs have
    #: released, and 4 at the end.  Lane 0 alone peaks at 6 (t=2),
    #: lane 1 alone at 8 (t=6).
    JOBS = ((0, 5, 4, 0), (1, 10, 3, 1), (2, 1, 2, 0), (6, 1, 5, 1),
            (8, 100, 1, 0))

    def test_fleet_peak_is_the_global_peak(self):
        pipes = [_pipeline_on(lane, 2) for lane in (0, 1)]
        trace = Trace([
            make_job(i, arrival=float(t), duration=float(d), size=g * GIB,
                     pipeline=pipes[lane])
            for i, (t, d, g, lane) in enumerate(self.JOBS)
        ])

        def drive(svc):
            svc.open(trace)
            svc.submit_batch(trace.arrivals, trace.durations, trace.sizes,
                             pipelines=trace.pipelines)
            return svc.result(), svc.kernel.counters()

        base, base_counters = drive(
            PlacementService(FirstFitPolicy(), 20 * GIB, 2, mode="batch")
        )
        svc = FleetRouter(
            FirstFitPolicy(), 20 * GIB, 2, mode="batch", n_workers=2
        )
        try:
            got, counters = drive(svc)
            assert svc.stats.n_chunks == 1
        finally:
            svc.close()
        assert base.n_ssd_requested == len(self.JOBS)
        assert base.peak_ssd_used == 9 * GIB
        assert_bit_identical(base, got, "fit chunk peak")
        assert counters == base_counters

    #: Three chunks, one per submitted block.  Job 0's release (t=5)
    #: falls inside the second chunk after its lane-0 row (t=1) but
    #: before the chunk end (t=6, a lane-1 row): worker 0 must apply it
    #: in that chunk, as the router's ledger does, or the third chunk's
    #: peak pass starts 4 GiB short of free space.  The global peak is
    #: 5 GiB (t=1).
    CHUNKS = (((0, 5, 4, 0),), ((1, 100, 1, 0), (6, 100, 1, 1)),
              ((7, 100, 1, 1),))

    def test_release_between_a_worker_row_and_the_chunk_end(self):
        pipes = [_pipeline_on(lane, 2) for lane in (0, 1)]

        def drive(svc):
            svc.open()
            for rows in self.CHUNKS:
                t, d, g, lane = np.array(rows, dtype=float).T
                svc.submit_batch(t, d, g * GIB,
                                 pipelines=[pipes[int(k)] for k in lane])
            return svc.result(), svc.kernel.counters()

        base, base_counters = drive(
            PlacementService(FirstFitPolicy(), 20 * GIB, 2, mode="batch")
        )
        svc = FleetRouter(
            FirstFitPolicy(), 20 * GIB, 2, mode="batch", n_workers=2
        )
        try:
            got, counters = drive(svc)
            assert svc.stats.n_chunks == len(self.CHUNKS)
        finally:
            svc.close()
        assert base.peak_ssd_used == 5 * GIB
        assert_bit_identical(base, got, "fit chunk release window")
        assert counters == base_counters


def _replay_trace(n_jobs: int) -> Trace:
    spec = default_cluster_specs(10)[0]
    full = generate_cluster_trace(spec, duration=2 * WEEK, seed=0)
    return Trace(full.jobs[:n_jobs], name="replay")


def _replay(svc, trace, batch=64, every=8):
    """The ``fleet-replay`` benchmark's loop: micro-batches, and an
    early ``complete()`` on every ``every``-th SSD placement."""
    svc.open(trace)
    cols = (trace.arrivals, trace.durations, trace.sizes, trace.read_bytes,
            trace.write_bytes, trace.read_ops)
    placed = 0
    for lo in range(0, len(trace), batch):
        hi = lo + batch
        for d in svc.submit_batch(
            *(c[lo:hi] for c in cols), pipelines=trace.pipelines[lo:hi]
        ):
            if d.ssd_space_fraction > 0.0:
                placed += 1
                if placed % every == 0:
                    svc.complete(d.job_id)
    return svc.result(), svc.kernel.counters()


class TestFleetReplayShape:
    """A reduced ``fleet-replay``: 8 shards, 2 workers, a binding 2%
    quota and completes on every 8th SSD placement."""

    @pytest.fixture(scope="class")
    def setup(self):
        trace = _replay_trace(6000)
        cap = 0.02 * trace.peak_ssd_usage()
        cats = hash_categories(trace, 15)

        def policy():
            return AdaptiveCategoryPolicy(cats, 15, name="Adaptive Hash")

        base = _replay(PlacementService(policy(), cap, 8, mode="batch"), trace)
        return trace, cap, policy, base

    def test_subprocess_fleet_is_bit_identical(self, setup):
        trace, cap, policy, (base, base_counters) = setup
        svc = FleetRouter(
            policy(), cap, 8, mode="batch", n_workers=2, transport="subprocess"
        )
        try:
            got, counters = _replay(svc, trace)
        finally:
            svc.close()
        assert_bit_identical(base, got, "fleet-replay shape")
        assert counters == base_counters
        assert counters["scalar_fallback_jobs"] > 0  # capacity binds

    def test_worker_round_trips_are_pinned(self, setup, monkeypatch):
        """Every worker round trip carries work: chunks, no release
        catch-up ops, and no cancel of its own — each rides its
        worker's next chunk.  The exact counts pin the protocol."""
        trace, cap, policy, (base, _) = setup
        sent = Counter()
        carried = Counter()
        send = InProcessTransport.send

        def counting_send(self, op):
            sent[op["op"]] += 1
            carried[op["op"]] += len(op.get("cancel_lane", ()))
            return send(self, op)

        monkeypatch.setattr(InProcessTransport, "send", counting_send)
        svc = FleetRouter(policy(), cap, 8, mode="batch", n_workers=2)
        try:
            got, _ = _replay(svc, trace)
            carried["queued"] = sum(map(len, svc.pool.queued))
        finally:
            svc.close()
        assert_bit_identical(base, got, "inprocess")
        assert dict(sent) == PINNED_ROUND_TRIPS
        assert +carried == PINNED_CARRIED_CANCELS

    def test_fit_round_trips_are_pinned(self, setup, monkeypatch):
        """A FirstFit replay sends one ``fit`` op per (chunk, worker
        holding jobs) — the verdicts come back with the outcome
        columns, so nothing is replayed or re-sent — and no data-plane
        op besides ``fit``, ``cancel`` and ``resize``.  Cancels ride
        the ``fit`` ops."""
        trace, cap, _, _ = setup
        # Chunks of 3 jobs (every submission forces its chunk), so some
        # chunks land on one worker only.
        base, _ = _replay(
            PlacementService(
                FirstFitPolicy(), cap, 8, mode="batch", max_pending=0
            ),
            trace, batch=3,
        )
        sent = Counter()
        carried = Counter()
        holders = []
        send = InProcessTransport.send
        run_chunk = FleetChunkKernel.run_chunk

        def counting_send(self, op):
            sent[op["op"]] += 1
            carried[op["op"]] += len(op.get("cancel_lane", ()))
            return send(self, op)

        def spying_run_chunk(self, bd, first, stop, *args, **kwargs):
            shards = args[3]
            holders.append(np.unique(shards[first:stop] % 2).size)
            return run_chunk(self, bd, first, stop, *args, **kwargs)

        monkeypatch.setattr(InProcessTransport, "send", counting_send)
        monkeypatch.setattr(FleetChunkKernel, "run_chunk", spying_run_chunk)
        svc = FleetRouter(
            FirstFitPolicy(), cap, 8, mode="batch", n_workers=2,
            max_pending=0,
        )
        try:
            got, _ = _replay(svc, trace, batch=3)
            carried["queued"] = sum(map(len, svc.pool.queued))
        finally:
            svc.close()
        assert_bit_identical(base, got, "firstfit inprocess")
        assert set(sent) <= {"fit", "cancel", "resize"}
        assert sent["fit"] == sum(holders)
        assert 1 in holders and 2 in holders
        assert dict(sent) == PINNED_FIT_ROUND_TRIPS
        assert +carried == PINNED_FIT_CARRIED_CANCELS


#: Worker round trips of one in-process ``TestFleetReplayShape`` run,
#: by op kind.
PINNED_ROUND_TRIPS = {"chunk": 1131}

#: The cancels that run made, by how they reached their worker: carried
#: by an op of that kind, or still ``queued`` when the replay ended.
PINNED_CARRIED_CANCELS = {"chunk": 43, "queued": 1}

#: The same for ``test_fit_round_trips_are_pinned``'s FirstFit replay.
PINNED_FIT_ROUND_TRIPS = {"fit": 3212}
PINNED_FIT_CARRIED_CANCELS = {"fit": 416, "queued": 1}
