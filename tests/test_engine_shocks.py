"""Dynamic topology: ``resize_lane``/``drop_lane`` accounting exactness.

The shock contract, at kernel level and through
``PlacementService.apply_shock``:

- capacity and free space move by the same delta, so
  ``used == capacity - free.sum()`` is invariant across any shock;
- free space never goes negative — shrinking below the resident
  footprint evicts latest-scheduled-release first until it fits;
- every eviction is counted as a spill AND in the eviction counters,
  and is reported to the caller so per-job tracking can retire;
- growth never evicts, and restoring a lane's old capacity is exact;
- evicted or completed jobs never double-free when their scheduled
  release later surfaces.
"""

import numpy as np
import pytest

from repro.baselines import FirstFitPolicy
from repro.core import AdaptiveCategoryPolicy
from repro.serve import PlacementService
from repro.storage.engine import ScalarKernel, _normalize_capacity
from repro.units import GIB

from helpers import make_job


def _kern(caps):
    lane_caps, _ = _normalize_capacity(np.asarray(caps, dtype=float), len(caps))
    return ScalarKernel(lane_caps)


def _used(kern) -> float:
    return float(kern.capacity) - float(np.asarray(kern.free).sum())


class TestScalarKernelShocks:
    def test_grow_never_evicts(self):
        k = _kern([4 * GIB, 4 * GIB])
        k.admit(0, 0.0, 3 * GIB, 100.0, 0, True, None)
        used = _used(k)
        assert k.resize_lane(0, 10 * GIB) == []
        assert k.capacity == 14 * GIB
        assert k.free[0] == pytest.approx(7 * GIB)
        assert _used(k) == pytest.approx(used)
        assert k.n_evicted == 0

    def test_shrink_with_headroom_keeps_residents(self):
        k = _kern([10 * GIB, 10 * GIB])
        k.admit(0, 0.0, 2 * GIB, 100.0, 0, True, None)
        assert k.resize_lane(0, 5 * GIB) == []
        assert k.free[0] == pytest.approx(3 * GIB)
        assert (np.asarray(k.free) >= 0).all()
        assert _used(k) == pytest.approx(2 * GIB)

    def test_shrink_evicts_latest_release_first(self):
        k = _kern([10 * GIB, 10 * GIB])
        # Three residents on lane 0 with distinct scheduled releases.
        k.admit(0, 0.0, 3 * GIB, 100.0, 0, True, None)   # release 100
        k.admit(1, 0.0, 3 * GIB, 300.0, 0, True, None)   # release 300
        k.admit(2, 0.0, 3 * GIB, 200.0, 0, True, None)   # release 200
        evicted = k.resize_lane(0, 5 * GIB)
        # 9 GiB resident, 5 GiB lane: evict release-300 then release-200.
        assert [i for (_, i, _) in evicted] == [1, 2]
        assert k.free[0] == pytest.approx(2 * GIB)
        assert k.n_evicted == 2
        assert k.n_spilled == 2  # evictions are spills
        assert k.evicted_bytes == pytest.approx(6 * GIB)
        assert _used(k) == pytest.approx(3 * GIB)
        # The evicted releases are lazily skipped, never double-freed.
        k.release_until(1e9)
        assert k.free[0] == pytest.approx(5 * GIB)
        assert k.free[1] == pytest.approx(10 * GIB)

    def test_drop_lane_evicts_everything(self):
        k = _kern([10 * GIB, 10 * GIB])
        k.admit(0, 0.0, 4 * GIB, 100.0, 0, True, None)
        k.admit(1, 0.0, 4 * GIB, 200.0, 0, True, None)
        evicted = k.drop_lane(0)
        assert len(evicted) == 2
        assert k.lane_capacity[0] == 0.0
        assert k.free[0] == 0.0
        assert k.capacity == 10 * GIB
        assert _used(k) == pytest.approx(0.0)

    def test_cancelled_jobs_do_not_count_as_residents(self):
        k = _kern([10 * GIB])
        _, _, _, alloc, _ = k.admit(0, 0.0, 4 * GIB, 100.0, 0, True, None)
        k.admit(1, 0.0, 4 * GIB, 200.0, 0, True, None)
        k.cancel(0, 0, alloc)  # early completion frees job 0 now
        evicted = k.resize_lane(0, 3 * GIB)
        # Only job 1 is still resident; job 0 must not be re-evicted.
        assert [i for (_, i, _) in evicted] == [1]
        assert k.free[0] == pytest.approx(3 * GIB)

    def test_restore_is_exact(self):
        k = _kern([6 * GIB, 6 * GIB])
        k.admit(0, 0.0, 2 * GIB, 100.0, 1, True, None)
        k.drop_lane(1)
        k.resize_lane(1, 6 * GIB)
        assert k.lane_capacity[1] == 6 * GIB
        assert k.capacity == 12 * GIB
        # The evicted resident stays evicted; the lane comes back empty.
        assert k.free[1] == pytest.approx(6 * GIB)

    def test_validation(self):
        k = _kern([1 * GIB])
        with pytest.raises(ValueError, match="lane"):
            k.resize_lane(3, 1 * GIB)
        with pytest.raises(ValueError, match=">= 0"):
            k.resize_lane(0, -1.0)


class TestChunkKernelShocks:
    """Chunk-kernel shocks, driven through the batch-mode service."""

    def _service(self, caps, policy=None):
        svc = PlacementService(
            policy or FirstFitPolicy(), np.asarray(caps, dtype=float),
            len(caps), mode="batch",
        )
        return svc

    def _submit(self, svc, arrival, size, duration, pipeline="pipe0", job_id=None):
        return svc.submit(
            arrival=arrival, duration=duration, size=size,
            pipeline=pipeline, job_id=job_id,
        )

    def test_shrink_evicts_and_accounts(self):
        svc = self._service([10 * GIB] * 4)
        jobs = [make_job(i, arrival=float(i), duration=5000.0, size=2 * GIB,
                         pipeline=f"pipe{i}") for i in range(12)]
        svc.submit_jobs(jobs)
        svc.drain()
        kern = svc.kernel
        used_before = float(svc.capacity) - float(np.asarray(kern.free).sum())
        assert used_before > 0
        for lane in range(4):
            rep = svc.apply_shock(1 * GIB, lane=lane)
            assert (np.asarray(kern.free) >= 0.0).all()
            assert float(np.asarray(svc.lane_capacities).sum()) == pytest.approx(
                svc.capacity
            )
        assert svc.stats.n_evicted == kern.n_evicted
        assert kern.n_evicted > 0
        assert kern.n_spilled >= kern.n_evicted
        assert kern.evicted_bytes > 0

    def test_evicted_release_never_double_frees(self):
        svc = self._service([4 * GIB])
        self._submit(svc, 0.0, 4 * GIB, 1000.0, job_id="a")
        svc.drain()
        svc.apply_shock(0.0, lane=0)  # evicts the resident
        svc.apply_shock(4 * GIB, lane=0)  # restore
        # Advance time far past the evicted job's scheduled release: the
        # lane must hold exactly its capacity, not capacity + alloc.
        self._submit(svc, 5000.0, 1 * GIB, 10.0, job_id="b")
        svc.drain()
        free = float(np.asarray(svc.kernel.free).sum())
        assert free <= svc.capacity + 1e-6

    def test_completed_then_shock_does_not_re_evict(self):
        svc = self._service([4 * GIB])
        self._submit(svc, 0.0, 3 * GIB, 1000.0, job_id="a")
        svc.drain()
        assert svc.complete("a", time=1.0) is True
        rep = svc.apply_shock(1 * GIB, lane=0)
        # Nothing resident: the completed job's pending cancel pair nets
        # out instead of being evicted.
        assert rep.n_evicted == 0
        assert (np.asarray(svc.kernel.free) >= 0.0).all()
        assert float(svc.kernel.free[0]) == pytest.approx(1 * GIB)

    def test_eviction_purges_live_table(self):
        svc = self._service([4 * GIB])
        self._submit(svc, 0.0, 4 * GIB, 1000.0, job_id="a")
        svc.drain()
        rep = svc.apply_shock(0.0, lane=0)
        assert rep.n_evicted == 1
        # A complete for the evicted job is a counted no-op, not a free.
        assert svc.complete("a", time=2.0) is False
        assert float(svc.kernel.free[0]) == 0.0

    def test_shock_flushes_queued_decisions(self):
        from repro.storage import FixedPolicy

        svc = self._service([10 * GIB], policy=FixedPolicy(np.ones(8, dtype=bool)))
        for i in range(4):
            out = self._submit(svc, float(i), 1 * GIB, 100.0)
            assert out == []  # whole-trace chunk: everything queues
        rep = svc.apply_shock(5 * GIB, lane=0)
        assert rep.flushed == 4
        assert len(rep.decisions) == 4
        assert svc.pending == 0

    @pytest.mark.parametrize("fleet", (False, True))
    def test_shock_leaves_handed_out_result_alone(self, fleet):
        caps = [4 * GIB] * 4
        if fleet:
            from repro.serve import FleetRouter

            svc = FleetRouter(FirstFitPolicy(), np.asarray(caps), 4,
                              mode="batch", n_workers=2)
        else:
            svc = self._service(caps)
        self._submit(svc, 0.0, 1 * GIB, 100.0)
        res = svc.result()
        svc.apply_shock(0.0, lane=1)
        assert float(svc.lane_capacities[1]) == 0.0
        np.testing.assert_array_equal(res.lane_capacities, caps)

    def test_scale_and_total_spellings(self):
        svc = self._service([8 * GIB, 4 * GIB])
        svc.apply_shock(scale=0.5)
        np.testing.assert_allclose(
            np.asarray(svc.lane_capacities), [4 * GIB, 2 * GIB]
        )
        svc.apply_shock(12 * GIB)  # scalar total: proportional
        np.testing.assert_allclose(
            np.asarray(svc.lane_capacities), [8 * GIB, 4 * GIB]
        )
        assert svc.capacity == pytest.approx(12 * GIB)
        with pytest.raises(ValueError, match="scale"):
            svc.apply_shock(1 * GIB, scale=0.5)
        with pytest.raises(ValueError, match="entries"):
            svc.apply_shock(np.ones(3))
        with pytest.raises(ValueError, match="lane"):
            svc.apply_shock(1 * GIB, lane=7)

    def test_shock_refires_shard_topology(self):
        cats = np.arange(40) % 6
        policy = AdaptiveCategoryPolicy(cats, 6, per_shard_act=True)
        jobs = [make_job(i, arrival=float(i), duration=100.0, size=1 * GIB,
                         pipeline=f"pipe{i % 7}") for i in range(40)]
        from repro.workloads import Trace

        trace = Trace(jobs, name="topo")
        svc = PlacementService(policy, 8 * GIB, 4, mode="batch")
        svc.open(trace)
        svc.submit_jobs(jobs[:20])
        svc.drain()
        acts_before = policy.act_lanes.copy()
        marks = policy._req_mark.copy()
        svc.apply_shock(0.0, lane=1)
        # Same lane count: per-shard ACT state survives the re-fire.
        assert policy.act_lanes is not None
        np.testing.assert_array_equal(policy.act_lanes, acts_before)
        np.testing.assert_array_equal(policy._req_mark, marks)
        svc.submit_jobs(jobs[20:])
        svc.drain()
        assert svc.result().n_jobs == 40


class TestShockReplayIdentity:
    """The same shock sequence is deterministic across runs and modes."""

    @pytest.mark.parametrize("mode", ("scalar", "batch"))
    def test_two_identical_runs_agree(self, mode):
        rng = np.random.default_rng(0)
        jobs = [
            make_job(
                i, arrival=float(i * 7), duration=float(rng.uniform(50, 2000)),
                size=float(rng.uniform(0.5, 3.0) * GIB),
                pipeline=f"pipe{int(rng.integers(0, 6))}",
            )
            for i in range(120)
        ]
        from repro.workloads import Trace

        trace = Trace(jobs, name="shockdet")

        def run():
            svc = PlacementService(FirstFitPolicy(), 6 * GIB, 3, mode=mode)
            svc.open(trace)
            for i, j in enumerate(jobs):
                svc.submit_jobs([j])
                if i == 40:
                    svc.apply_shock(0.0, lane=1)
                if i == 80:
                    svc.apply_shock(6 * GIB)
            res = svc.result()
            return res, svc.stats.n_evicted, np.asarray(svc.kernel.free).copy()

        (r1, e1, f1), (r2, e2, f2) = run(), run()
        assert e1 == e2
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(r1.ssd_fraction, r2.ssd_fraction)
        assert r1.realized_tco == r2.realized_tco
        assert (f1 >= 0).all()
