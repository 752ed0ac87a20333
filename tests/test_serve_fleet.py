"""Fleet-scale serving: FleetRouter / PlacementWorker / transports.

The contract under test is the tentpole claim of the router refactor:
scatter-gathering the placement computation over N workers is a pure
refactor of the arithmetic — for any policy, engine mode, shard count,
worker count, and transport, the fleet roll-up is **bit-identical** to
the single-process :class:`~repro.serve.PlacementService`, including
across worker kills recovered from per-worker WAL/checkpoint state.

Also covers the :meth:`SimResult.merge` partition algebra directly
(random lane partitions reassemble the exact whole-run result), the
fleet edge cases (zero-lane workers, completes racing a worker
restart, duplicate submissions around recovery), snapshot/restore of a
live fleet, worker snapshot schema checks, and the CLI ``--workers``
surface including the Ctrl-C partial-roll-up exit contract.
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
from repro.storage.engine import SimResult
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
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        svc.submit_batch(
            trace.arrivals[a:b], trace.durations[a:b], trace.sizes[a:b],
            trace.read_bytes[a:b], trace.write_bytes[a:b],
            trace.read_ops[a:b], pipelines=trace.pipelines[a:b],
        )


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

        for mode in ("batch", "scalar"):
            base = drive(PlacementService(builders["fixed"](), CAP, 4, mode=mode))
            svc = FleetRouter(builders["fixed"](), CAP, 4, mode=mode, n_workers=2)
            got = drive(svc)
            svc.close()
            assert_bit_identical(base, got, f"shock+complete/{mode}")


class TestMergePartitions:
    """SimResult.merge over random lane partitions of a real run."""

    @pytest.fixture(scope="class")
    def whole(self, trace, builders):
        svc = PlacementService(builders["adaptive"](), CAP, 6, mode="batch")
        svc.open(trace)
        _feed(svc, trace, 0, 260)
        res = svc.result()
        lanes_col = svc.log.lanes.copy()
        return res, lanes_col, svc.rates

    def _parts(self, res, lanes_col, groups):
        parts = []
        for gi, lanes in enumerate(groups):
            ji = np.flatnonzero(np.isin(lanes_col, lanes))
            parts.append(SimResult(
                policy_name=res.policy_name,
                capacity=float(res.lane_capacities[lanes].sum()),
                n_jobs=ji.size,
                baseline_tco=0.0, realized_tco=0.0,
                baseline_tcio=0.0, realized_hdd_tcio=0.0,
                # counters sum exactly in merge; park the totals on one part
                n_ssd_requested=res.n_ssd_requested if gi == 0 else 0,
                n_spilled=res.n_spilled if gi == 0 else 0,
                peak_ssd_used=0.0,
                ssd_fraction=res.ssd_fraction[ji].copy(),
                n_shards=max(lanes.size, 1),
                lane_capacities=res.lane_capacities[lanes].copy(),
                job_indices=ji,
                lane_indices=lanes,
            ))
        return parts

    def test_random_partitions_reassemble(self, trace, whole):
        res, lanes_col, rates = whole
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            owner = rng.integers(0, k, size=6)
            groups = [np.flatnonzero(owner == g) for g in range(k)]
            merged = SimResult.merge(
                self._parts(res, lanes_col, groups),
                trace=trace, rates=rates,
                # the router passes capacity through rather than
                # re-summing lane slices, whose total is not float-exact
                capacity=res.capacity,
                peak_ssd_used=res.peak_ssd_used,
                n_jobs=res.n_jobs, n_shards=res.n_shards,
            )
            assert_bit_identical(res, merged, f"merge k={k}")
            assert np.array_equal(merged.lane_capacities, res.lane_capacities)
            assert merged.capacity == res.capacity

    def test_overlapping_jobs_rejected(self, trace, whole):
        res, lanes_col, rates = whole
        groups = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        parts = self._parts(res, lanes_col, groups)
        dup = parts[0].job_indices[:1]
        parts[1].job_indices = np.concatenate([parts[1].job_indices, dup])
        parts[1].ssd_fraction = np.concatenate(
            [parts[1].ssd_fraction, res.ssd_fraction[dup]]
        )
        with pytest.raises(ValueError, match="overlap"):
            SimResult.merge(parts, trace=trace, rates=rates, n_jobs=res.n_jobs)

    def test_incomplete_coverage_rejected(self, trace, whole):
        res, lanes_col, rates = whole
        groups = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        parts = self._parts(res, lanes_col, groups)[:1]
        with pytest.raises(ValueError, match="complete partition|lane"):
            SimResult.merge(parts, trace=trace, rates=rates,
                            n_jobs=res.n_jobs, n_shards=res.n_shards)


class TestFailover:
    def _drive_with_kill(self, svc, trace, kill_at=None, kill_worker=1):
        svc.open(trace)
        for lo in range(0, 260, 23):
            hi = min(lo + 23, 260)
            _feed(svc, trace, lo, hi, step=23)
            if kill_at is not None and lo == kill_at:
                svc.kill_worker(kill_worker)
            if lo >= 46:
                svc.complete(lo - 30)
        return svc.result()

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
        got = self._drive_with_kill(svc, trace, kill_at=115)
        svc.close()
        assert_bit_identical(base, got, f"kill/{transport}/every={every}")
        names = os.listdir(tmp_path)
        assert any(n.endswith(".wal") for n in names)

    def test_complete_to_crashed_worker(self, trace, builders, base, tmp_path):
        """A complete() whose lane owner is dead recovers it in-line."""
        svc = FleetRouter(
            builders["adaptive"](), CAP, 4, mode="batch", n_workers=3,
            worker_dir=str(tmp_path), worker_checkpoint_every=8,
        )
        svc.open(trace)
        got = None
        for lo in range(0, 260, 23):
            hi = min(lo + 23, 260)
            _feed(svc, trace, lo, hi, step=23)
            if lo == 115:
                # kill every worker: whichever lane the next complete
                # lands on, its owner is down
                for w in range(3):
                    svc.kill_worker(w)
                    assert not svc.worker_alive(w)
            if lo >= 46:
                svc.complete(lo - 30)
        got = svc.result()
        svc.close()
        assert_bit_identical(base, got, "complete-to-dead")

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
