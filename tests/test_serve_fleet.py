"""Fleet-scale serving: FleetRouter / PlacementWorker / transports.

The contract under test is the tentpole claim of the router refactor:
scatter-gathering the placement computation over N workers is a pure
refactor of the arithmetic — for any policy, shard count, worker count,
and transport, the batch-mode fleet roll-up is **bit-identical** to
the single-process :class:`~repro.serve.PlacementService`, including
across worker kills recovered from per-worker WAL/checkpoint state.
Fleets serve batch mode only; every scalar-mode entry point refuses.

Also covers the fleet edge cases (zero-lane workers, completes racing
a worker restart, duplicate submissions around recovery),
snapshot/restore of a live fleet, worker snapshot schema checks, and
the CLI ``--workers`` surface including the Ctrl-C partial-roll-up
exit contract.
"""

import os
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.serve import (
    FleetRouter,
    PlacementService,
    SnapshotMismatch,
    WorkerDied,
    worker_lanes,
)
from repro.serve.transport import RecordingTransport
from repro.serve.worker import PlacementWorker
from repro.storage.engine import ScalarKernel
from repro.workloads import save_trace
from repro.workloads.streaming import materialize_trace

from test_serve_service import (
    assert_bit_identical,
    make_policy_builders,
    random_trace,
)

CAP = 55e9


@pytest.fixture(scope="module")
def trace():
    return materialize_trace(random_trace(7, n=260))


@pytest.fixture(scope="module")
def builders(trace):
    return make_policy_builders(trace, 7)


def _feed(svc, trace, lo, hi, step=21):
    """Submit jobs ``[lo, hi)`` in batches; the decisions they resolved."""
    decided = []
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        decided.extend(svc.submit_batch(
            trace.arrivals[a:b], trace.durations[a:b], trace.sizes[a:b],
            trace.read_bytes[a:b], trace.write_bytes[a:b],
            trace.read_ops[a:b], pipelines=trace.pipelines[a:b],
        ))
    return decided


def _placed_ids(decided) -> list:
    """Job ids of the decisions that put some bytes on SSD."""
    return [d.job_id for d in decided if d.ssd_space_fraction > 0.0]


class TestWorkerLanes:
    def test_round_robin_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            shards = int(rng.integers(1, 20))
            workers = int(rng.integers(1, 12))
            parts = worker_lanes(shards, workers)
            assert len(parts) == workers
            for w, lanes in enumerate(parts):
                assert np.array_equal(lanes % workers, np.full(lanes.size, w))
            joined = np.sort(np.concatenate(parts))
            assert np.array_equal(joined, np.arange(shards))

    def test_zero_lane_tail_workers(self):
        parts = worker_lanes(3, 5)
        assert [p.size for p in parts] == [1, 1, 1, 0, 0]


class TestBitIdentity:
    @pytest.mark.parametrize("pname", ("adaptive", "firstfit", "fixed"))
    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    @pytest.mark.parametrize("shards", (1, 4))
    def test_matches_single_process(self, trace, builders, pname, mode, shards):
        if mode == "scalar":
            for w in (1, 3):
                with pytest.raises(ValueError, match="mode='batch'"):
                    FleetRouter(
                        builders[pname](), CAP, shards, mode=mode, n_workers=w
                    )
            return
        base = PlacementService(
            builders[pname](), CAP, shards, mode=mode
        ).replay(trace, batch_jobs=29)
        for w in (1, 3):
            svc = FleetRouter(
                builders[pname](), CAP, shards, mode=mode, n_workers=w
            )
            got = svc.replay(trace, batch_jobs=29)
            svc.close()
            assert_bit_identical(base, got, f"{pname}/{mode}/s{shards}/W{w}")

    def test_subprocess_transport(self, trace, builders):
        base = PlacementService(
            builders["adaptive"](), CAP, 4, mode="batch"
        ).replay(trace, batch_jobs=29)
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch",
            n_workers=3, transport="subprocess",
        )
        got = svc.replay(trace, batch_jobs=29)
        svc.close()
        assert_bit_identical(base, got, "subprocess")

    def test_zero_lane_worker(self, trace, builders):
        base = PlacementService(
            builders["adaptive"](), CAP, 3, mode="batch"
        ).replay(trace, batch_jobs=29)
        svc = FleetRouter(builders["adaptive"](), CAP, 3, mode="batch",
                          n_workers=5)
        got = svc.replay(trace, batch_jobs=29)
        assert svc.pool.lanes_by_worker[4].size == 0
        svc.close()
        assert_bit_identical(base, got, "zero-lane")

    def test_completes_and_shocks(self, trace, builders):
        def drive(svc):
            svc.open(trace)
            for lo in range(0, 260, 23):
                hi = min(lo + 23, 260)
                _feed(svc, trace, lo, hi, step=23)
                if lo == 92:
                    svc.apply_shock(capacity=CAP * 0.5)
                if lo == 161:
                    svc.apply_shock(capacity=CAP)
                if lo >= 46:
                    for jid in (lo - 30, lo - 25, lo - 25):  # incl. duplicate
                        svc.complete(jid)
            return svc.result()

        base = drive(PlacementService(builders["fixed"](), CAP, 4, mode="batch"))
        svc = FleetRouter(builders["fixed"](), CAP, 4, mode="batch", n_workers=2)
        got = drive(svc)
        svc.close()
        assert_bit_identical(base, got, "shock+complete")


class TestFailover:
    KILL_AT = 115

    @classmethod
    def _drive_with_kill(cls, svc, trace, kill=None):
        """23-job batches; from the third on, each is followed by a
        complete of the newest SSD-placed job not completed yet.
        ``kill(svc)`` runs once, after the batch at ``KILL_AT``.

        Returns the result and ``(batch start, freed)`` per complete.
        """
        svc.open(trace)
        placed: list = []
        frees = []
        for lo in range(0, 260, 23):
            hi = min(lo + 23, 260)
            placed += _placed_ids(_feed(svc, trace, lo, hi, step=23))
            if kill is not None and lo == cls.KILL_AT:
                kill(svc)
            if lo >= 46 and placed:
                frees.append((lo, svc.complete(placed.pop())))
        return svc.result(), frees

    @classmethod
    def _check_frees(cls, frees, base_frees):
        """The fleet's completes free what one process's do, and some
        free space on each side of the kill."""
        assert frees == base_frees
        assert any(f for lo, f in frees if lo < cls.KILL_AT)
        assert any(f for lo, f in frees if lo > cls.KILL_AT)

    @pytest.fixture(scope="class")
    def base(self, trace, builders):
        return self._drive_with_kill(
            PlacementService(builders["adaptive"](), CAP, 4, mode="batch"), trace
        )

    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    @pytest.mark.parametrize("every", (5, None))
    def test_transparent_recovery(self, trace, builders, base, tmp_path,
                                  transport, every):
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3,
            transport=transport, worker_dir=str(tmp_path),
            worker_checkpoint_every=every,
        )
        got, frees = self._drive_with_kill(
            svc, trace, kill=lambda s: s.kill_worker(1)
        )
        svc.close()
        assert_bit_identical(base[0], got, f"kill/{transport}/every={every}")
        self._check_frees(frees, base[1])
        names = os.listdir(tmp_path)
        assert any(n.endswith(".wal") for n in names)

    def test_complete_to_crashed_worker(self, trace, builders, base, tmp_path):
        """A complete() whose lane owner is dead recovers it in-line."""
        def kill_all(svc):
            # kill every worker: whichever lane the next complete
            # lands on, its owner is down
            for w in range(3):
                svc.kill_worker(w)
                assert not svc.worker_alive(w)

        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3,
            worker_dir=str(tmp_path), worker_checkpoint_every=8,
        )
        got, frees = self._drive_with_kill(svc, trace, kill=kill_all)
        svc.close()
        assert_bit_identical(base[0], got, "complete-to-dead")
        self._check_frees(frees, base[1])

    def test_duplicate_completes_racing_restart(self, trace, builders,
                                                tmp_path):
        """Duplicate deliveries straddling a kill+recover stay idempotent."""
        def drive(svc, kill=False):
            svc.open(trace)
            for lo in range(0, 260, 23):
                hi = min(lo + 23, 260)
                _feed(svc, trace, lo, hi, step=23)
                if lo >= 69:
                    svc.complete(lo - 40)
                    if kill and lo == 115:
                        svc.kill_worker(1)
                    svc.complete(lo - 40)  # duplicate, maybe post-restart
            return svc.result()

        base = drive(PlacementService(builders["fixed"](), CAP, 4, mode="batch"))
        svc = FleetRouter(builders["fixed"](), CAP, 4, mode="batch",
                          n_workers=3, worker_dir=str(tmp_path))
        got = drive(svc, kill=True)
        svc.close()
        assert_bit_identical(base, got, "dup-complete-restart")

    def test_explicit_recover_worker(self, trace, builders, tmp_path):
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3,
            transport="subprocess", worker_dir=str(tmp_path),
            worker_checkpoint_every=8,
        )
        svc.open(trace)
        _feed(svc, trace, 0, 130)
        svc.kill_worker(2)
        assert not svc.worker_alive(2)
        svc.recover_worker(2)
        assert svc.worker_alive(2)
        _feed(svc, trace, 130, 260)
        got = svc.result()
        svc.close()
        base_svc = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        base_svc.open(trace)
        _feed(base_svc, trace, 0, 260)
        assert_bit_identical(base_svc.result(), got, "explicit-recover")

    def test_worker_died_without_worker_dir(self, trace, builders):
        svc = FleetRouter(builders["fixed"](), CAP, 4, mode="batch", n_workers=2)
        svc.open(trace)
        _feed(svc, trace, 0, 46)
        svc.kill_worker(0)
        with pytest.raises(WorkerDied, match="no checkpoint or WAL"):
            _feed(svc, trace, 46, 92)
            svc.drain()
        svc.close()


def _queued(svc) -> int:
    return sum(map(len, svc.pool.queued))


def _live_jobs(svc) -> list:
    """Jobs whose ``complete`` would free space now, oldest first."""
    return [
        j for j, e in svc._live.items()
        if e[3] > svc._now and e[3] > svc._horizon
    ]


def _drive_queued(svc, trace, event=None, at=115):
    """23-job batches, each followed by a complete of the oldest job
    that still holds space.

    ``event(svc)`` runs once, after the completes of the first batch
    from ``at`` on that freed space, so a fleet holds queued cancels
    then; it may return the service to continue with (a restored
    one)."""
    svc.open(trace)
    fired = event is None
    for lo in range(0, 260, 23):
        _feed(svc, trace, lo, min(lo + 23, 260), step=23)
        live = _live_jobs(svc)
        freed = bool(live) and svc.complete(live[0])
        if not fired and lo >= at and freed:
            if isinstance(svc, FleetRouter):
                assert _queued(svc)
            svc = event(svc) or svc
            fired = True
    assert fired
    return svc, svc.result()


class _KillOnCarrier(RecordingTransport):
    """Kills its worker right after sending it an op that carries
    cancels: the op is logged and sent, its reply never comes."""

    def send(self, op):
        super().send(op)
        if "cancel_lane" in op:
            self.inner.kill()


class TestQueuedCancels:
    """Batch cancels wait in their worker's queue for its next op.
    Whatever happens while they wait, the run stays bit-identical to
    one process and to the uninterrupted fleet."""

    @pytest.fixture(scope="class")
    def base(self, trace, builders):
        _, res = _drive_queued(
            PlacementService(builders["adaptive"](), CAP, 4, mode="batch"), trace
        )
        return res

    @pytest.fixture(scope="class")
    def uninterrupted(self, trace, builders, base):
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3
        )
        _, res = _drive_queued(svc, trace)
        svc.close()
        assert_bit_identical(base, res, "uninterrupted")
        return res

    def _fleet(self, builders, tmp_path, transport="inprocess", every=64):
        return FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3,
            transport=transport, worker_dir=str(tmp_path),
            worker_checkpoint_every=every,
        )

    def _check(self, res, base, uninterrupted, label):
        assert_bit_identical(base, res, label)
        assert_bit_identical(uninterrupted, res, label)

    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    def test_kill_before_the_queue_is_sent(
        self, trace, builders, base, uninterrupted, tmp_path, transport
    ):
        def kill(svc):
            svc.kill_worker(next(w for w, q in enumerate(svc.pool.queued) if q))

        svc = self._fleet(builders, tmp_path, transport)
        svc, res = _drive_queued(svc, trace, kill)
        assert svc.pool.n_recoveries == 1
        svc.close()
        self._check(res, base, uninterrupted, f"kill-queued/{transport}")

    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    def test_kill_during_the_carrying_chunk(
        self, trace, builders, base, uninterrupted, tmp_path, transport
    ):
        log = []

        def arm(svc):
            pool = svc.pool
            w = next(w for w, q in enumerate(pool.queued) if q)
            pool.transports[w] = _KillOnCarrier(pool.transports[w], log)

        svc = self._fleet(builders, tmp_path, transport)
        svc, res = _drive_queued(svc, trace, arm)
        assert svc.pool.n_recoveries == 1
        svc.close()
        self._check(res, base, uninterrupted, f"kill-carrier/{transport}")

    def test_checkpoint_inside_a_carried_batch(
        self, trace, builders, base, uninterrupted, tmp_path
    ):
        """A dispatch that logs its carried cancels and its chunk may
        step over a multiple of ``worker_checkpoint_every``; the
        checkpoint is still taken, anchored after the whole dispatch,
        and a worker killed later recovers from it."""
        every = 2
        svc = self._fleet(builders, tmp_path, every=every)
        pool = svc.pool
        logs = [[] for _ in range(3)]
        pool.transports = [
            RecordingTransport(tr, logs[w]) for w, tr in enumerate(pool.transports)
        ]
        svc, res = _drive_queued(svc, trace, lambda svc: svc.kill_worker(1), at=161)
        assert pool.n_recoveries == 1
        svc.close()
        self._check(res, base, uninterrupted, "checkpoint-in-batch")
        stepped_over = 0
        for w, log in enumerate(logs):
            ops = [op for op, _ in log]
            seq = 0
            for op, nxt in zip(ops, ops[1:] + [None]):
                if op["op"] not in ("chunk", "cancel", "resize"):
                    continue
                before = seq
                seq += 1 + len(op.get("cancel_lane", ()))
                if seq // every > before // every:
                    assert nxt == {
                        "op": "checkpoint", "path": pool._ckpt_path(w),
                        "anchor": seq,
                    }, (w, before, seq)
                    stepped_over += seq % every != 0
        assert stepped_over

    @pytest.mark.parametrize("event", ("metrics", "shock", "snapshot"))
    def test_events_while_queued(
        self, trace, builders, base, uninterrupted, tmp_path, event
    ):
        def single(svc):
            if event == "shock":
                svc.apply_shock(scale=0.5)

        def fleet(svc):
            if event == "metrics":
                svc.metrics()
                assert not _queued(svc)
            elif event == "shock":
                svc.apply_shock(scale=0.5)
            else:
                blob = pickle.dumps(svc.snapshot())
                assert not _queued(svc)
                svc.close()
                return FleetRouter.restore(pickle.loads(blob))

        _, want = _drive_queued(
            PlacementService(builders["adaptive"](), CAP, 4, mode="batch"),
            trace, single,
        )
        if event != "shock":
            assert_bit_identical(base, want, event)
        svc = self._fleet(builders, tmp_path)
        svc, got = _drive_queued(svc, trace, fleet)
        svc.close()
        assert_bit_identical(want, got, event)
        if event != "shock":
            assert_bit_identical(uninterrupted, got, event)

    def test_snapshot_of_a_restored_fleet_keeps_its_queue(
        self, trace, builders
    ):
        """A restored fleet respawns its workers on first use.  A cancel
        made before that, and a snapshot taken then, keep the cancel
        queued with the worker payloads it applies to."""
        def single(svc):
            assert svc.complete(_live_jobs(svc)[0])

        def twice(svc):
            restored = FleetRouter.restore(pickle.loads(pickle.dumps(svc.snapshot())))
            svc.close()
            assert restored.complete(_live_jobs(restored)[0])
            assert restored.pool.transports is None
            assert _queued(restored) == 1
            again = FleetRouter.restore(
                pickle.loads(pickle.dumps(restored.snapshot()))
            )
            assert restored.pool.transports is None
            assert _queued(again) == 1
            restored.close()
            return again

        _, want = _drive_queued(
            PlacementService(builders["adaptive"](), CAP, 4, mode="batch"),
            trace, single,
        )
        svc = FleetRouter(builders["adaptive"](), CAP, 4, mode="batch", n_workers=3)
        svc, got = _drive_queued(svc, trace, twice)
        svc.close()
        assert_bit_identical(want, got, "restored-twice")


class TestSnapshots:
    def test_snapshot_restore_mid_run(self, trace, builders):
        svc0 = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc0.open(trace)
        _feed(svc0, trace, 0, 260)
        base = svc0.result()

        svc = FleetRouter(builders["adaptive"](), CAP, 4, mode="batch",
                          n_workers=3)
        svc.open(trace)
        _feed(svc, trace, 0, 130)
        blob = pickle.dumps(svc.snapshot())
        _feed(svc, trace, 130, 260)
        r_orig = svc.result()
        svc.close()
        assert_bit_identical(base, r_orig, "snap-original")

        svc2 = FleetRouter.restore(pickle.loads(blob))
        _feed(svc2, trace, 130, 260)
        r_rest = svc2.result()
        svc2.close()
        assert_bit_identical(base, r_rest, "snap-restored")

    def test_service_level_recover(self, trace, builders, tmp_path):
        svc0 = PlacementService(builders["adaptive"](), CAP, 4, mode="batch")
        svc0.open(trace)
        _feed(svc0, trace, 0, 260)
        base = svc0.result()

        wal_path = str(tmp_path / "svc.wal")
        ck_path = str(tmp_path / "svc.ckpt")
        svc = FleetRouter(builders["adaptive"](), CAP, 4, mode="batch",
                          n_workers=3, wal=wal_path)
        svc.open(trace)
        _feed(svc, trace, 0, 130)
        svc.checkpoint(ck_path)
        _feed(svc, trace, 130, 190)
        svc.wal.close()
        del svc  # crash
        rec = FleetRouter.recover(ck_path, wal_path)
        _feed(rec, trace, 190, 260)
        r_rec = rec.result()
        rec.close()
        assert_bit_identical(base, r_rec, "fleet-recover")

    def test_worker_schema_mismatch(self, trace, builders):
        svc = FleetRouter(builders["fixed"](), CAP, 2, mode="batch", n_workers=2)
        svc.open(trace)
        _feed(svc, trace, 0, 46)
        payload = svc.pool.transports[0].request({"op": "state"})["payload"]
        payload["__schema__"] = 999
        with pytest.raises(SnapshotMismatch):
            svc.pool.transports[0].request({"op": "restore",
                                            "payload": payload})
        svc.close()

    def test_worker_refuses_a_scalar_kernel(self, trace, builders):
        """A checkpoint of a scalar-mode fleet worker (a
        :class:`ScalarKernel` payload) is refused; the retired ``mode``
        spec key alone is dropped."""
        svc = FleetRouter(builders["fixed"](), CAP, 2, n_workers=2)
        try:
            tr = svc.pool.transports[0]
            payload = tr.request({"op": "state"})["payload"]
            payload["spec"] = {**payload["spec"], "mode": "batch"}
            worker = PlacementWorker.from_payload(payload)
            assert "mode" not in worker.spec
            payload["kernel"] = ScalarKernel(payload["spec"]["lane_caps"])
            with pytest.raises(SnapshotMismatch, match="ScalarKernel"):
                PlacementWorker.from_payload(payload)
            with pytest.raises(SnapshotMismatch, match="ScalarKernel"):
                tr.request({"op": "restore", "payload": payload})
            assert tr.request({"op": "ping"})["worker_id"] == 0
        finally:
            svc.close()

    def test_rejects_scalar_mode(self, builders):
        for transport in ("inprocess", "subprocess"):
            with pytest.raises(ValueError, match="mode='batch'"):
                FleetRouter(builders["fixed"](), CAP, 2, mode="scalar",
                            n_workers=2, transport=transport)

    def test_rejects_bad_config(self, builders):
        with pytest.raises(ValueError):
            FleetRouter(builders["fixed"](), CAP, 2, n_workers=0)
        with pytest.raises(ValueError):
            FleetRouter(builders["fixed"](), CAP, 2, n_workers=2,
                        transport="carrier-pigeon")


class TestFleetCli:
    @pytest.fixture()
    def trace_path(self, trace, tmp_path):
        path = tmp_path / "trace"
        save_trace(trace, str(path))
        return str(path) + ".npz"

    def test_serve_workers_flag(self, trace_path, capsys):
        assert main(["serve", "--trace", trace_path, "--quota", "0.1",
                     "--shards", "4", "--batch", "64", "--workers", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 3 workers over inprocess transport" in out
        assert "final roll-up" in out

    def test_serve_workers_matches_single(self, trace_path, capsys):
        assert main(["serve", "--trace", trace_path, "--quota", "0.1",
                     "--shards", "4", "--batch", "64"]) == 0
        single = capsys.readouterr().out
        assert main(["serve", "--trace", trace_path, "--quota", "0.1",
                     "--shards", "4", "--batch", "64", "--workers", "2"]) == 0
        fleet = capsys.readouterr().out
        pick = [ln for ln in single.splitlines() if "final roll-up" in ln]
        assert pick and pick == [
            ln for ln in fleet.splitlines() if "final roll-up" in ln
        ]

    def test_serve_scalar_workers_is_a_usage_error(self, trace_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--trace", trace_path, "--mode", "scalar",
                  "--workers", "2"])
        assert exit_.value.code == 2
        assert "--mode batch" in capsys.readouterr().err

    def test_loadgen_workers_flag(self, trace_path, capsys):
        assert main(["loadgen", "--trace", trace_path, "--quota", "0.1",
                     "--batch", "64", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 workers over inprocess transport" in out

    def test_chaos_worker_kill_scenario(self, trace_path, capsys):
        assert main(["chaos", "--trace", trace_path, "--jobs", "260",
                     "--scenario", "worker_kill", "--batch", "64"]) == 0
        out = capsys.readouterr().out
        assert "worker_kill" in out

    def test_keyboard_interrupt_drains_fleet_exits_130(
        self, trace_path, capsys, monkeypatch
    ):
        real = FleetRouter.submit_batch
        calls = {"n": 0}

        def flaky(self, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real(self, *a, **kw)

        monkeypatch.setattr(FleetRouter, "submit_batch", flaky)
        rc = main(["serve", "--trace", trace_path, "--batch", "64",
                   "--workers", "2"])
        assert rc == 130
        out = capsys.readouterr().out
        assert "partial roll-up (interrupted)" in out
        assert "fleet: 2 workers" in out


class TestPipelineServe:
    def test_serve_n_workers_builds_fleet(self, trace, builders):
        # exercised through the service ctor contract rather than a full
        # trained pipeline: FleetRouter must accept the same kwargs
        # ByomPipeline.serve forwards
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch",
            categorizer=None, max_pending=None,
            n_workers=2, transport="inprocess", worker_dir=None,
        )
        assert svc.n_workers == 2
        svc.close()
