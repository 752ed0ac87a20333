"""Online model-driven serving: incremental features, prediction, policy.

The offline BYOM pipeline extracts a whole week's features and predicts
every category before the replay starts; the online path must do both
on the admission path, incrementally — and land on the same numbers:

1. :class:`OnlineFeatureExtractor` rows are bit-identical to
   :func:`extract_features` over the same jobs, at any push
   granularity, including the ``warm_start`` seeding that makes a
   served week see training-week history.
2. :class:`OnlineCategorizer` predictions are bit-identical to the
   offline ``model.predict`` over the same features.
3. A :class:`PlacementService` with the online policy + categorizer,
   fed request-at-a-time, is bit-identical to the offline legacy-engine
   replay with offline-predicted categories (micro-batch mode matches
   the chunked engine's numbers to float-roundoff — chunk boundaries at
   the submission horizon are the one legitimate difference).
"""

import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.core import AdaptiveCategoryPolicy, ByomPipeline, prepare_cluster
from repro.serve import OnlineAdaptivePolicy, OnlineCategorizer, PlacementService
from repro.serve.log import JobLog
from repro.storage import simulate
from repro.units import DAY
from repro.workloads import ClusterSpec, Trace, extract_features, generate_cluster_trace
from repro.workloads.features import RESOURCE_FEATURES, OnlineFeatureExtractor

from test_serve_service import assert_bit_identical


@pytest.fixture(scope="module")
def cluster():
    spec = ClusterSpec(
        name="serve",
        archetype_weights={"dbquery": 2, "logproc": 1, "streaming": 1},
        n_pipelines=8,
        n_users=4,
        seed=7,
    )
    return prepare_cluster(generate_cluster_trace(spec, duration=14 * DAY))


@pytest.fixture(scope="module")
def pipe(cluster):
    return ByomPipeline().train(cluster.train, cluster.features_train)


class TestOnlineFeatures:
    def test_rows_match_offline_per_job(self, cluster):
        offline = extract_features(cluster.test)
        ex = OnlineFeatureExtractor()
        rows = np.vstack([ex.push([j]) for j in cluster.test])
        assert np.array_equal(rows, offline.X)

    def test_rows_match_offline_batched(self, cluster):
        """Push granularity must not matter (1, a few, the rest)."""
        offline = extract_features(cluster.test)
        ex = OnlineFeatureExtractor()
        jobs = list(cluster.test)
        rows = np.vstack(
            [ex.push(jobs[:1]), ex.push(jobs[1:40]), ex.push(jobs[40:])]
        )
        assert np.array_equal(rows, offline.X)

    def test_warm_start_matches_combined_extraction(self, cluster):
        """A served test week with warm-started history must see exactly
        the history rows a combined-trace extraction gives test jobs."""
        full = extract_features(cluster.full)
        split = cluster.test.arrivals[0]
        test_idx = np.flatnonzero(cluster.full.arrivals >= split)
        ex = OnlineFeatureExtractor().warm_start(cluster.train)
        rows = ex.push(list(cluster.test))
        assert np.array_equal(rows, full.X[test_idx])

    def test_jobs_without_metadata_zero_group_bc(self, cluster):
        """Streamed/synthesized jobs (no metadata) produce zero hashed
        and resource columns — never an error."""
        from repro.workloads import InMemoryTraceSource, StreamedTrace

        streamed = StreamedTrace.from_source(
            InMemoryTraceSource(cluster.test, block_size=64)
        )
        ex = OnlineFeatureExtractor()
        rows = ex.push([streamed[0]])
        offline = extract_features(cluster.test)
        meta_cols = [i for i, g in enumerate(offline.groups) if g in ("B", "C")]
        assert (rows[0, meta_cols] == 0.0).all()
        # Groups A and T survive (numeric columns are intact).
        t_cols = [i for i, g in enumerate(offline.groups) if g == "T"]
        assert np.array_equal(rows[0, t_cols], offline.X[0, t_cols])


def _block(ex, trace, lo, hi):
    """``push_block`` over jobs ``[lo, hi)`` of ``trace`` (a scratch view)."""
    return ex.push_block(
        trace.arrivals[lo:hi], trace.durations[lo:hi], trace.sizes[lo:hi],
        trace.read_bytes[lo:hi], trace.write_bytes[lo:hi],
        trace.read_ops[lo:hi], trace.pipelines[lo:hi],
    )


class TestOnlineFeatureEdges:
    """Ties, empty pushes, odd metadata and output ownership."""

    @pytest.fixture(scope="class")
    def tied(self, cluster):
        """``cluster.full`` with arrivals and durations on whole minutes,
        so same-pipeline completions often share an ``end`` — and
        sub-half-minute jobs round to zero duration, completing at
        their own arrival instant.
        """
        jobs = [
            dataclasses.replace(
                j,
                arrival=60.0 * round(j.arrival / 60.0),
                duration=60.0 * round(j.duration / 60.0),
            )
            for j in cluster.full
        ]
        return Trace(jobs, name="tied")

    def test_tied_ends_warm_start_and_mixed_pushes(self, tied):
        ends = {}
        for j in tied:
            ends.setdefault((j.pipeline, j.arrival + j.duration), []).append(j)
        assert any(len(v) > 1 for v in ends.values())  # the regime under test
        train, test = tied.split_at(7 * DAY)
        full = extract_features(tied)
        ref = full.X[len(train):]
        ex = OnlineFeatureExtractor().warm_start(train)
        jobs = list(test)
        rows = np.vstack(
            [ex.push(jobs[:1]), ex.push(jobs[1:8]), ex.push(jobs[8:40])]
        )
        assert np.array_equal(rows, ref[:40])
        # Column pushes (block and single) continue the same state.
        a_t = np.r_[full.group_columns("A"), full.group_columns("T")]
        assert np.array_equal(_block(ex, test, 40, 90)[:, a_t], ref[40:90, a_t])
        assert np.array_equal(_block(ex, test, 90, 91)[:, a_t], ref[90:91, a_t])
        rest = ex.push(jobs[91:])
        assert np.array_equal(rest, ref[91:])

    def test_empty_push_leaves_state(self, cluster):
        jobs = list(cluster.test)
        ex = OnlineFeatureExtractor().warm_start(cluster.train)
        state = pickle.dumps(ex)
        empty = ex.push([])
        assert empty.shape == (0, ex.n_features)
        assert pickle.dumps(ex) == state
        fresh = OnlineFeatureExtractor().warm_start(cluster.train)
        assert np.array_equal(ex.push(jobs[:30]), fresh.push(jobs[:30]))
        assert np.array_equal(ex.push(jobs[30:31]), fresh.push(jobs[30:31]))

    def test_odd_metadata_matches_offline(self, cluster):
        from repro.workloads import METADATA_FIELDS, stable_hash

        # Two distinct tokens landing in one bucket of the step field.
        f_idx = METADATA_FIELDS.index("step_name")
        bucket = {}
        for i in range(1000):
            b = stable_hash(f"tok{i}", seed=f_idx) % 16
            if b in bucket:
                pair = (bucket[b], f"tok{i}")
                break
            bucket[b] = f"tok{i}"
        variants = [
            {k: v for k, v in list(cluster.test)[0].metadata.items()
             if k != "user_name"},  # field missing
            {fld: "" for fld in METADATA_FIELDS},  # empty strings
            {"step_name": f"{pair[0]}/{pair[1]}::{pair[0]}"},  # collision
            {},  # no metadata at all
        ]
        jobs = [
            dataclasses.replace(j, metadata=variants[i % len(variants)])
            for i, j in enumerate(list(cluster.test)[:40])
        ]
        trace = Trace(jobs, name="odd-metadata")
        offline = extract_features(trace)
        ex = OnlineFeatureExtractor()
        rows = np.vstack([ex.push(jobs[:1]), ex.push(jobs[1:])])
        assert np.array_equal(rows, offline.X)
        step = [
            i for i, n in enumerate(offline.names) if n.startswith("step_name_h")
        ]
        assert rows[2, step].sum() == 1.0  # three tokens, one bucket

    def test_push_returns_owned_rows(self, cluster):
        jobs = list(cluster.test)
        ex = OnlineFeatureExtractor()
        scratch = _block(ex, cluster.test, 0, 12)
        r1 = ex.push(jobs[12:20])
        kept = r1.copy()
        r2 = ex.push(jobs[20:28])
        r3 = ex.push(jobs[28:29])
        r4 = ex.push(jobs[29:30])
        for a, b in ((r1, r2), (r3, r4), (r1, scratch), (r3, scratch)):
            assert not np.shares_memory(a, b)
        assert np.array_equal(r1, kept)


def _minute_trace(cluster, fresh_every=37):
    """``cluster.full`` on whole minutes (tied ends, zero durations),
    with every ``fresh_every``-th job of the second week moved to one of
    three pipelines the first week never saw, so blocks meet pipelines
    for the first time mid-block."""
    split = cluster.full.arrivals[0] + 7 * DAY
    jobs = []
    for i, j in enumerate(cluster.full):
        fresh = j.arrival >= split and i % fresh_every == 0
        jobs.append(dataclasses.replace(
            j,
            arrival=60.0 * round(j.arrival / 60.0),
            duration=60.0 * round(j.duration / 60.0),
            pipeline=f"fresh-{i % 3}" if fresh else j.pipeline,
        ))
    jobs.sort(key=lambda j: j.arrival)
    return Trace(jobs, name="minutes")


def _push_mixed(ex, trace, lo, hi, rng, ref):
    """Push jobs ``[lo, hi)`` of ``trace`` in random sizes — single jobs,
    2-7 jobs, 512 jobs and ``push_block`` — checking every row against
    ``ref`` (the offline matrix of ``trace``); ``push_block`` rows carry
    only groups A and T."""
    a_t = np.r_[0:4, ref.shape[1] - 3:ref.shape[1]]
    jobs = list(trace)
    while lo < hi:
        kind = rng.integers(4)
        k = (1, int(rng.integers(2, 8)), 512, int(rng.integers(1, 600)))[kind]
        k = min(k, hi - lo)
        if kind == 3:
            rows = _block(ex, trace, lo, lo + k)
            assert np.array_equal(rows[:, a_t], ref[lo:lo + k][:, a_t]), (lo, k)
        else:
            assert np.array_equal(ex.push(jobs[lo:lo + k]), ref[lo:lo + k]), (lo, k)
        lo += k


class TestColumnarFold:
    """The block fold, the one-row path and the state they share."""

    @pytest.fixture(scope="class")
    def minutes(self, cluster):
        trace = _minute_trace(cluster)
        ends = {}
        for j in trace:
            ends.setdefault((j.pipeline, j.arrival + j.duration), []).append(j)
        assert any(len(v) > 1 for v in ends.values())  # tied ends
        assert (trace.durations == 0).any()  # zero durations
        return trace, extract_features(trace).X

    @pytest.mark.parametrize("seed", range(6))
    def test_random_push_mix_matches_offline(self, minutes, seed):
        trace, ref = minutes
        rng = np.random.default_rng(seed)
        n_train = int(np.searchsorted(trace.arrivals, trace.arrivals[0] + 7 * DAY))
        ex = OnlineFeatureExtractor()
        if seed % 2:
            ex.warm_start(trace.subset(np.arange(len(trace)) < n_train))
            lo = n_train
        else:
            lo = 0
        _push_mixed(ex, trace, lo, len(trace), rng, ref)

    def test_heap_layout_pickle_restores(self, minutes):
        """An extractor pickled with the per-pipeline heap layout
        (``_pending`` / ``_sums`` / ``_counts`` dicts) restores and
        continues bit-identically, pickle round trips included."""
        import copyreg
        import heapq

        from repro.cost import DEFAULT_RATES

        trace, ref = minutes
        n_train = int(np.searchsorted(trace.arrivals, trace.arrivals[0] + 7 * DAY))
        cut = n_train + 300
        # The heap-layout state after warm-starting on the first week and
        # pushing 300 jobs one at a time: heaps of (end, index, metrics),
        # folded lazily per pipeline.
        metrics = np.column_stack([
            trace.tcio(DEFAULT_RATES), trace.sizes, trace.durations,
            trace.io_density(DEFAULT_RATES),
        ])
        pending, sums, counts = {}, {}, {}
        for i, j in enumerate(trace):
            if i >= n_train:
                heap = pending.get(j.pipeline)
                while heap and heap[0][0] <= j.arrival:
                    if j.pipeline not in sums:
                        sums[j.pipeline], counts[j.pipeline] = np.zeros(4), 0
                    sums[j.pipeline] += heapq.heappop(heap)[2]
                    counts[j.pipeline] += 1
            if i == cut:
                break
            heapq.heappush(
                pending.setdefault(j.pipeline, []),
                (j.arrival + j.duration, i, metrics[i].copy()),
            )
        old = OnlineFeatureExtractor.__new__(OnlineFeatureExtractor)
        vars(old).update(
            rates=DEFAULT_RATES, n_hash_buckets=16, _pending=pending,
            _sums=sums, _counts=counts, _index=cut, _rows=None,
        )

        class HeapLayoutPickler(pickle.Pickler):
            """Pickles the instance dict as is, as that layout did."""

            def reducer_override(self, obj):
                if type(obj) is OnlineFeatureExtractor:
                    return copyreg.__newobj__, (OnlineFeatureExtractor,), vars(obj)
                return NotImplemented

        buf = io.BytesIO()
        HeapLayoutPickler(buf).dump(old)
        for seed in range(4):
            ex = pickle.loads(buf.getvalue())
            assert not hasattr(ex, "_pending")
            rng = np.random.default_rng(seed)
            _push_mixed(ex, trace, cut, cut + 700, rng, ref)
            ex = pickle.loads(pickle.dumps(ex))
            _push_mixed(ex, trace, cut + 700, len(trace), rng, ref)

    def test_intern_bound_keeps_rows_and_pickle(self, minutes, monkeypatch):
        """More distinct metadata maps than the intern table holds: rows
        stay exact, and the table never reaches a pickle — the state
        pickles byte-equal to the same stream without metadata."""
        from repro.workloads import features

        monkeypatch.setattr(features, "_METADATA_INTERN_SIZE", 8)
        trace, _ = minutes
        jobs = [
            dataclasses.replace(
                j, metadata={**j.metadata, "step_name": f"s{i}-shuffle{i % 50}"}
            )
            for i, j in enumerate(list(trace)[:1500])
        ]
        rich = Trace(jobs, name="rich")
        bare = Trace([dataclasses.replace(j, metadata={}) for j in jobs], name="bare")
        ref = extract_features(rich).X
        ex_rich, ex_bare = OnlineFeatureExtractor(), OnlineFeatureExtractor()
        rng = np.random.default_rng(3)
        lo = 0
        while lo < len(jobs):
            k = min((1, 5, 64)[rng.integers(3)], len(jobs) - lo)
            assert np.array_equal(ex_rich.push(jobs[lo:lo + k]), ref[lo:lo + k])
            ex_bare.push(list(bare)[lo:lo + k])
            assert len(ex_rich._meta_codes) < 8 + 64
            lo += k
        assert pickle.dumps(ex_rich) == pickle.dumps(ex_bare)


class TestOnlineCategorizer:
    def test_matches_offline_predict(self, cluster, pipe):
        feats = extract_features(cluster.test)
        offline = pipe.model.predict(feats)
        cz = OnlineCategorizer(pipe.model)
        jobs = list(cluster.test)
        parts = [cz([j]) for j in jobs[:25]]  # request-at-a-time path
        parts.append(cz(jobs[25:]))  # micro-batch path
        assert np.array_equal(np.concatenate(parts), offline)

    def test_rejects_unfitted_model(self):
        from repro.ml import GBTClassifier

        with pytest.raises(ValueError, match="fitted"):
            OnlineCategorizer(GBTClassifier())

    def test_single_class_model(self, cluster):
        from repro.ml import GBTClassifier

        feats = extract_features(cluster.test)
        gbt = GBTClassifier(n_rounds=2).fit(
            feats.X[:50], np.full(50, 3)
        )
        cz = OnlineCategorizer(gbt)
        out = cz(list(cluster.test)[:5])
        assert np.array_equal(out, np.full(5, 3))


class TestPackedSingleSample:
    def test_decision_scores_one_matches_batch(self, cluster, pipe):
        gbt = pipe.model.model
        feats = extract_features(cluster.test)
        Xb = gbt.binner_.transform(feats.X[:32])
        k = len(gbt.classes_)
        batch = gbt.packed_.decision_scores(
            Xb, gbt.base_score_, gbt.learning_rate, k
        )
        for i in range(Xb.shape[0]):
            one = gbt.packed_.decision_scores_one(
                Xb[i], gbt.base_score_, gbt.learning_rate, k
            )
            assert np.array_equal(one, batch[i]), i

    def test_scalar_and_batch_agree_on_nan_resources(self, cluster, pipe):
        """A NaN in a job's resource map bins to the last bin on both
        the one-row and the batch path."""
        rng = np.random.default_rng(11)
        jobs = []
        for j in list(cluster.test)[:120]:
            res = {name: float(v) for name, v in zip(
                RESOURCE_FEATURES, rng.integers(1, 64, len(RESOURCE_FEATURES))
            )}
            for name in rng.choice(RESOURCE_FEATURES, 3, replace=False):
                res[name] = np.nan
            jobs.append(dataclasses.replace(j, resources=res))
        one = OnlineCategorizer(pipe.model).warm_start(cluster.train)
        batch = OnlineCategorizer(pipe.model).warm_start(cluster.train)
        per_job = np.concatenate([one([j]) for j in jobs])
        assert np.array_equal(per_job, batch(jobs))

    def test_rejects_matrix_input(self, pipe):
        gbt = pipe.model.model
        with pytest.raises(ValueError, match="one sample"):
            gbt.packed_.decision_scores_one(
                np.zeros((2, 4), dtype=np.uint8), 0.0, 0.1, 1
            )


class TestOnlineService:
    def _offline(self, cluster, pipe, cap, engine):
        cats = pipe.model.predict(extract_features(cluster.test))
        policy = AdaptiveCategoryPolicy(
            cats, pipe.model_params.n_categories, pipe.adaptive_params
        )
        return simulate(cluster.test, policy, cap, engine=engine)

    def test_request_at_a_time_bit_identical(self, cluster, pipe):
        cap = 0.05 * cluster.test.peak_ssd_usage()
        off = self._offline(cluster, pipe, cap, "legacy")
        svc = PlacementService(
            OnlineAdaptivePolicy(
                pipe.model_params.n_categories, pipe.adaptive_params
            ),
            cap, mode="scalar", categorizer=OnlineCategorizer(pipe.model),
        )
        for j in cluster.test:
            assert len(svc.submit(j)) == 1
        res = svc.result()
        assert np.array_equal(res.ssd_fraction, off.ssd_fraction)
        assert res.realized_tco == off.realized_tco
        assert res.n_spilled == off.n_spilled

    def test_micro_batch_matches_chunked_to_roundoff(self, cluster, pipe):
        cap = 0.05 * cluster.test.peak_ssd_usage()
        off = self._offline(cluster, pipe, cap, "chunked")
        svc = PlacementService(
            OnlineAdaptivePolicy(
                pipe.model_params.n_categories, pipe.adaptive_params
            ),
            cap, mode="batch", categorizer=OnlineCategorizer(pipe.model),
        )
        svc.open()
        jobs = list(cluster.test)
        for lo in range(0, len(jobs), 64):
            svc.submit_jobs(jobs[lo : lo + 64])
        res = svc.result()
        # Chunk boundaries clamp at the submission horizon online, which
        # regroups the ledger's sums; integer bytes make that exact.
        assert np.array_equal(res.ssd_fraction, off.ssd_fraction)
        assert res.n_ssd_requested == off.n_ssd_requested
        assert res.n_spilled == off.n_spilled
        assert res.realized_tco == off.realized_tco

    @pytest.mark.parametrize("mode", ("batch", "scalar"))
    def test_feedback_reads_no_whole_log_column(self, cluster, pipe, mode):
        """Feedback reads only the decided jobs' own rows of the live
        log: with whole-column ``ends`` and ``total_bytes`` that raise,
        submits, completes and a drain decide exactly as the plain log."""

        class RowsOnlyLog(JobLog):
            @property
            def ends(self):
                raise AssertionError("read the whole ends column")

            @property
            def total_bytes(self):
                raise AssertionError("read the whole total_bytes column")

        cap = 0.05 * cluster.test.peak_ssd_usage()
        jobs = list(cluster.test)

        def run(strict):
            svc = PlacementService(
                OnlineAdaptivePolicy(
                    pipe.model_params.n_categories, pipe.adaptive_params
                ),
                cap, 4, mode=mode, categorizer=OnlineCategorizer(pipe.model),
            )
            if strict:
                svc.log.__class__ = RowsOnlyLog
            svc.open()
            decided = []
            for lo in range(0, len(jobs), 64):
                if mode == "batch":
                    got = list(svc.submit_jobs(jobs[lo:lo + 64]))
                else:
                    got = [d for j in jobs[lo:lo + 64] for d in svc.submit(j)]
                decided += got
                placed = [d.job_id for d in got if d.ssd_space_fraction > 0.0]
                if placed:
                    svc.complete(placed[0])
            decided += list(svc.drain())
            svc.log.__class__ = JobLog
            return [(d.job_id, d.ssd_space_fraction) for d in decided], svc

        want, ref = run(False)
        got, svc = run(True)
        assert got == want
        assert svc.policy.trajectory == ref.policy.trajectory
        assert_bit_identical(ref.result(), svc.result())

    def test_online_policy_requires_log(self, cluster):
        policy = OnlineAdaptivePolicy(8)
        with pytest.raises(ValueError, match="live JobLog"):
            policy.on_simulation_start(cluster.test, 1.0, None)

    def test_category_range_validated(self):
        policy = OnlineAdaptivePolicy(4)
        with pytest.raises(ValueError, match="out of range"):
            policy.extend_categories(np.array([0, 4]))

    def test_per_shard_act_online(self, cluster, pipe):
        """Per-shard thresholds work against the live log's routing."""
        cap = 0.05 * cluster.test.peak_ssd_usage()
        svc = PlacementService(
            OnlineAdaptivePolicy(
                pipe.model_params.n_categories, pipe.adaptive_params,
                per_shard_act=True,
            ),
            cap, 4, mode="batch", categorizer=OnlineCategorizer(pipe.model),
        )
        svc.open()
        jobs = list(cluster.test)
        for lo in range(0, len(jobs), 128):
            svc.submit_jobs(jobs[lo : lo + 128])
        res = svc.result()
        assert res.n_jobs == len(jobs)
        assert svc.policy.act_lanes is not None
        assert len(svc.policy.act_lanes) == 4
        assert any(e.shard >= 0 for e in svc.policy.trajectory)


class TestPipelineServe:
    def test_serve_returns_opened_service(self, cluster, pipe):
        peak = cluster.peak_ssd_usage
        svc = pipe.serve(0.05, peak, history=cluster.train)
        jobs = list(cluster.test)
        for lo in range(0, len(jobs), 256):
            svc.submit_jobs(jobs[lo : lo + 256])
        res = svc.result()
        assert res.n_jobs == len(jobs)
        assert res.policy_name == "Adaptive Online"
        # Model-driven serving beats nothing-on-SSD by construction on
        # this workload: some savings are realized.
        assert res.tco_savings_pct > 0

    def test_serve_warm_start_matches_deploy_categories(self, cluster, pipe):
        """Warm-started online serving reproduces deploy()'s placements:
        the same combined-trace history, the same model, the same
        adaptive algorithm — request-at-a-time."""
        peak = cluster.peak_ssd_usage
        off = pipe.deploy(
            cluster.test, cluster.features_test, 0.05, peak, engine="legacy"
        )
        svc = pipe.serve(0.05, peak, mode="scalar", history=cluster.train)
        for j in cluster.test:
            svc.submit(j)
        res = svc.result()
        assert np.array_equal(res.ssd_fraction, off.ssd_fraction)
        assert res.realized_tco == off.realized_tco

    def test_scalar_snapshot_restore_mid_stream(self, cluster, pipe):
        """The one-row scoring tables are rebuilt after a restore, not
        carried in the snapshot, and the restored service continues
        exactly like the uninterrupted one."""
        peak = cluster.peak_ssd_usage
        jobs = list(cluster.test)
        half = len(jobs) // 2
        whole = pipe.serve(0.05, peak, mode="scalar", history=cluster.train)
        for j in jobs:
            whole.submit(j)
        ref = whole.result()

        svc = pipe.serve(0.05, peak, mode="scalar", history=cluster.train)
        for j in jobs[:half]:
            svc.submit(j)
        snap = svc.snapshot()
        forest = snap.payload["categorizer"].gbt.packed_
        assert forest._exit_tables is None
        restored = PlacementService.restore(pickle.loads(pickle.dumps(snap)))
        for j in jobs[half:]:
            restored.submit(j)
        res = restored.result()
        assert np.array_equal(res.ssd_fraction, ref.ssd_fraction)
        assert res.realized_tco == ref.realized_tco
        assert restored.categorizer.gbt.packed_._exit_tables is not None

    def test_serve_n_workers_builds_bit_identical_fleet(self, cluster, pipe):
        from repro.serve import FleetRouter

        peak = cluster.peak_ssd_usage
        jobs = list(cluster.test)

        def drive(svc):
            for lo in range(0, len(jobs), 256):
                svc.submit_jobs(jobs[lo : lo + 256])
            return svc.result()

        base = drive(pipe.serve(0.05, peak, n_shards=4, history=cluster.train))
        svc = pipe.serve(
            0.05, peak, n_shards=4, history=cluster.train, n_workers=3
        )
        assert isinstance(svc, FleetRouter)
        res = drive(svc)
        svc.close()
        assert np.array_equal(res.ssd_fraction, base.ssd_fraction)
        assert res.realized_tco == base.realized_tco
        assert res.n_spilled == base.n_spilled

    def test_serve_refuses_a_scalar_fleet(self, cluster, pipe):
        with pytest.raises(ValueError, match="mode='batch'"):
            pipe.serve(0.05, cluster.peak_ssd_usage, mode="scalar", n_workers=2)

    def test_serve_shard_weights(self, cluster, pipe):
        svc = pipe.serve(
            0.05, cluster.peak_ssd_usage, n_shards=4,
            shard_weights=(2.0, 1.0, 1.0, 0.5),
        )
        total = svc.capacity
        np.testing.assert_allclose(
            svc.lane_capacities,
            total * np.array([2.0, 1.0, 1.0, 0.5]) / 4.5,
        )
        with pytest.raises(ValueError, match="shard_weights"):
            pipe.serve(0.05, 1.0, n_shards=4, shard_weights=(1.0, 2.0))
