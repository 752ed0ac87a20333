"""Sharded caching-server simulation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.storage import (
    Decision,
    PlacementPolicy,
    assign_shards,
    simulate,
    simulate_sharded,
)
from repro.serve.log import JobLog
from repro.units import GIB
from repro.workloads import Trace
from repro.workloads.metadata import stable_hash

from helpers import make_job


def _unique_inverse_shards(pipelines, n_shards, seed):
    """Lanes by the sorted-unique formula: hash every distinct
    pipeline, broadcast back through the inverse index."""
    uniq, inverse = np.unique(np.asarray(pipelines, dtype=object), return_inverse=True)
    lanes = np.array([stable_hash(p, seed=seed) % n_shards for p in uniq], dtype=np.intp)
    return lanes[inverse]


def _random_pipelines(seed, n, names):
    rng = np.random.default_rng(seed)
    return [names[k] for k in rng.integers(0, len(names), n)]


_PIPELINE_CASES = [
    [],
    ["solo"],
    ["solo"] * 9,
    _random_pipelines(1, 40, ["etl", "etl-2", "Zeta", "a", "b", "b "]),
    _random_pipelines(2, 60, ["pipé", "流水线", "straße", "naïve", "🚀", "ascii", "ASCII"]),
    [f"p{k % 13}" for k in range(50)],
]


class AlwaysSSD(PlacementPolicy):
    name = "always-ssd"

    def decide(self, job_index, ctx):
        return Decision(want_ssd=True)


class TestAssignShards:
    def test_pipeline_locality(self, small_trace):
        shards = assign_shards(small_trace, 4)
        by_pipe = {}
        for s, p in zip(shards, small_trace.pipelines):
            by_pipe.setdefault(p, set()).add(int(s))
        assert all(len(v) == 1 for v in by_pipe.values())

    def test_range(self, small_trace):
        shards = assign_shards(small_trace, 4)
        assert shards.min() >= 0 and shards.max() < 4

    def test_rejects_zero_shards(self, small_trace):
        with pytest.raises(ValueError):
            assign_shards(small_trace, 0)

    @pytest.mark.parametrize("pipelines", _PIPELINE_CASES)
    @pytest.mark.parametrize("n_shards,seed", [(1, 0), (3, 0), (8, 5)])
    def test_matches_the_sorted_unique_formula(self, pipelines, n_shards, seed):
        got = assign_shards(SimpleNamespace(pipelines=pipelines), n_shards, seed)
        want = _unique_inverse_shards(pipelines, n_shards, seed)
        assert got.dtype == want.dtype == np.intp
        assert got.tolist() == want.tolist()


class TestLogLanes:
    """``JobLog`` routes each job as ``assign_shards`` does, whether the
    jobs come one at a time or in blocks that repeat pipelines."""

    @pytest.mark.parametrize("pipelines", _PIPELINE_CASES)
    @pytest.mark.parametrize("n_shards,seed", [(1, 0), (3, 0), (8, 5)])
    def test_block_lanes_match_per_job_lanes(self, pipelines, n_shards, seed):
        blocks, one = JobLog(n_shards=n_shards, shard_seed=seed), JobLog(
            n_shards=n_shards, shard_seed=seed
        )
        n = len(pipelines)
        for lo in range(0, n, 7):
            part = pipelines[lo:lo + 7]
            z = np.zeros(len(part))
            blocks.append_block(z, z, z, z, z, z, pipelines=part)
        for p in pipelines:
            one.append_job(0.0, 0.0, 0.0, pipeline=p)
        want = _unique_inverse_shards(pipelines, n_shards, seed).tolist()
        assert blocks.lanes.tolist() == one.lanes.tolist() == want


class TestSimulateSharded:
    def test_single_shard_matches_global(self, small_trace):
        cap = 0.05 * small_trace.peak_ssd_usage()
        a = simulate(small_trace, AlwaysSSD(), cap)
        b = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=1)
        assert b.realized_tco == pytest.approx(a.realized_tco)
        assert b.n_spilled == a.n_spilled

    def test_fragmentation_hurts(self, small_trace):
        """Splitting the same capacity across shards can only lose."""
        cap = 0.05 * small_trace.peak_ssd_usage()
        whole = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=1)
        split = simulate_sharded(small_trace, AlwaysSSD(), cap, n_shards=8)
        assert split.tcio_savings_pct <= whole.tcio_savings_pct + 1e-9

    def test_shard_capacity_is_local(self):
        # Two pipelines hashing to different shards; each shard holds
        # exactly one of the two 5 GiB jobs under a 10 GiB total.
        jobs = [
            make_job(0, arrival=0.0, duration=100.0, size=6 * GIB, pipeline="pa"),
            make_job(1, arrival=1.0, duration=100.0, size=6 * GIB, pipeline="pb"),
        ]
        trace = Trace(jobs)
        shards = assign_shards(trace, 2)
        res = simulate_sharded(trace, AlwaysSSD(), capacity=12 * GIB, n_shards=2)
        if shards[0] != shards[1]:
            # Different shards: each job fits in its 6 GiB slice.
            assert res.n_spilled == 0
        else:
            # Same shard: the second job spills even though the other
            # shard is idle — the fragmentation effect.
            assert res.n_spilled == 1

    def test_capacity_validation(self, small_trace):
        with pytest.raises(ValueError):
            simulate_sharded(small_trace, AlwaysSSD(), -1.0, n_shards=2)

    def test_adaptive_policy_works_sharded(self, small_trace):
        from repro.core import AdaptiveCategoryPolicy, hash_categories

        cap = 0.02 * small_trace.peak_ssd_usage()
        policy = AdaptiveCategoryPolicy(hash_categories(small_trace, 8), 8)
        res = simulate_sharded(small_trace, policy, cap, n_shards=4)
        assert res.n_jobs == len(small_trace)
        assert len(policy.trajectory) > 0
