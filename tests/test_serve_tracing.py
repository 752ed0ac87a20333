"""Deterministic per-request tracing: sampling, the bounded ring, and
the property that the traced span stream is bit-identical across
engine mode x worker count x transport and across WAL recovery.

Sampling is a pure hash of the job id (never Python's salted
``hash()``), timestamps are logical, and span contents come from the
bit-identical decision stream — so two services fed the same stream
trace exactly the same jobs with exactly the same events.  Fleet
workers keep their own op-span rings, gathered through a non-mutating
transport op that never touches the per-worker WALs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    SAMPLE_MODULUS,
    FleetRouter,
    PlacementService,
    Tracer,
    sample_hash,
    sample_mask,
)

from test_serve_service import make_policy_builders, random_trace

CAP = 55e9


@pytest.fixture(scope="module")
def trace():
    return random_trace(21, n=240)


@pytest.fixture(scope="module")
def builders(trace):
    return make_policy_builders(trace, 21)


class TestSampling:
    def test_hash_is_stable_and_bounded(self):
        seen = {sample_hash(i) for i in range(200)}
        assert all(0 <= h < SAMPLE_MODULUS for h in seen)
        # Knuth's multiplicative hash scatters consecutive ids.
        assert len(seen) == 200
        assert sample_hash(42) == sample_hash(42)

    def test_non_integer_ids_fall_back_to_crc(self):
        a, b = sample_hash("job-a"), sample_hash("job-b")
        assert a != b
        assert 0 <= a < SAMPLE_MODULUS
        assert sample_hash("job-a") == a
        # Integer-like strings take the integer path: same decision as
        # the raw int id.
        assert sample_hash("17") == sample_hash(17)

    def test_mask_matches_scalar_hash(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 2**31, 500)
        threshold = SAMPLE_MODULUS // 4
        mask = sample_mask(ids, threshold)
        want = np.array(
            [sample_hash(int(j)) < threshold for j in ids]
        )
        np.testing.assert_array_equal(mask, want)

    @settings(max_examples=300, deadline=None)
    @given(
        ids=st.one_of(
            st.lists(st.integers(-2**63, 2**63 - 1), max_size=40),
            st.lists(
                st.one_of(
                    st.integers(-2**63, 2**63 - 1),
                    st.integers(2**63, 2**70),  # past int64: per-id path
                    st.integers(-2**70, -2**63 - 1),
                    st.booleans(),
                    st.text(max_size=4),
                    st.sampled_from(("17", "-3", " 4 ", "x")),
                ),
                max_size=40,
            ),
        ),
        sample=st.sampled_from((0.0, 1 / 256, 0.3, 1.0)),
    )
    def test_sampled_positions_equal_the_per_id_loop(self, ids, sample):
        tr = Tracer(sample=sample)
        want = [k for k, job_id in enumerate(ids) if tr.sampled(job_id)]
        assert tr.sampled_positions(ids) == want

    def test_sample_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Tracer(sample=1.5)
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)
        assert Tracer(sample=0.0).threshold == 0
        assert Tracer(sample=1.0).threshold == SAMPLE_MODULUS


class TestRing:
    def test_bounded_overwrite_oldest_first(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.begin(i, float(i))
        assert tr.n_spans == 10
        assert tr.n_evicted == 6
        spans = tr.spans()
        assert [s["job_id"] for s in spans] == [6, 7, 8, 9]
        # Oldest first: submit timestamps ascend.
        assert [s["events"][0][1] for s in spans] == [6.0, 7.0, 8.0, 9.0]

    def test_event_on_evicted_span_is_noop(self):
        tr = Tracer(capacity=2)
        tr.begin(0, 0.0)
        tr.begin(1, 1.0)
        tr.begin(2, 2.0)  # evicts job 0
        tr.event(0, "complete", 9.0)
        tr.event(1, "complete", 9.0, freed=5)
        assert [s["job_id"] for s in tr.spans()] == [1, 2]
        span1 = tr.spans()[0]
        assert span1["events"][-1] == ["complete", 9.0, {"freed": 5}]

    def test_export_jsonl_round_trips_numpy_attrs(self, tmp_path):
        tr = Tracer()
        tr.begin(np.int64(3), np.float64(1.5), lane=np.int64(2))
        tr.event(3, "place", 2.0, frac=np.float64(0.25),
                 ssd=np.bool_(True))
        path = tmp_path / "spans.jsonl"
        assert tr.export_jsonl(path) == 1
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines[0]["job_id"] == 3
        assert lines[0]["events"][1] == [
            "place", 2.0, {"frac": 0.25, "ssd": True}
        ]

    def test_begin_returns_live_span(self):
        tr = Tracer()
        span = tr.begin(7, 1.0, index=7)
        tr.event(7, "admit", 1.0, lane=0)
        assert span["events"][0] == ["submit", 1.0, {"index": 7}]
        assert span["events"][1][0] == "admit"


def _feed_traced(svc, trace, *, batch=17):
    """Micro-batches with a drain before the completes, so every mode
    has the span open before its completion event arrives."""
    jobs = trace.jobs
    n = len(jobs)
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        svc.submit_jobs(list(jobs[lo:hi]))
        svc.drain()
        for k in range(lo, hi):
            if k % 13 == 0:
                svc.complete(jobs[k].job_id)
    svc.drain()


class TestServiceSpans:
    def _run(self, trace, builders, pname, mode, fleet=None, sample=0.25):
        tr = Tracer(sample=sample)
        if fleet is None:
            svc = PlacementService(
                builders[pname](), CAP, 4, mode=mode, tracer=tr
            )
        else:
            workers, transport = fleet
            svc = FleetRouter(
                builders[pname](), CAP, 4, mode=mode,
                n_workers=workers, transport=transport, tracer=tr,
            )
        svc.open(trace)
        _feed_traced(svc, trace)
        spans = [json.loads(json.dumps(s, default=float))
                 for s in tr.spans()]
        counts = (tr.n_spans, tr.n_evicted)
        if fleet is not None:
            svc.close()
        return spans, counts

    def test_sampled_set_and_span_contents(self, trace, builders):
        spans, (n_spans, n_evicted) = self._run(
            trace, builders, "adaptive", "batch"
        )
        assert n_evicted == 0
        assert 0 < n_spans < len(trace)  # 25% sampling really samples
        ids = {s["job_id"] for s in spans}
        threshold = Tracer(sample=0.25).threshold
        assert ids == {
            i for i in range(len(trace)) if sample_hash(i) < threshold
        }
        by_id = {s["job_id"]: s for s in spans}
        for s in spans:
            names = [ev[0] for ev in s["events"]]
            assert names[0] == "submit"
            assert "categorize" in names  # adaptive policy has categories
            assert "admit" in names
        # Completed sampled jobs carry the completion with freed bytes.
        completed = [i for i in range(0, len(trace), 13) if i in by_id]
        assert completed, "sampling must hit some completed jobs"
        for i in completed:
            last = by_id[i]["events"][-1]
            assert last[0] == "complete" and last[2]["freed"] >= 0

    @pytest.mark.parametrize("pname", ("adaptive", "firstfit"))
    def test_bit_identical_across_modes_and_fleet(
        self, trace, builders, pname
    ):
        ref, ref_counts = self._run(trace, builders, pname, "batch")
        for mode, fleet in (
            ("scalar", None),
            ("batch", (3, "inprocess")),
            ("batch", (3, "subprocess")),
        ):
            spans, counts = self._run(trace, builders, pname, mode, fleet)
            label = f"{pname}/{mode}/{fleet}"
            assert spans == ref, label
            assert counts == ref_counts, label

    def test_sample_zero_records_nothing(self, trace, builders):
        spans, (n_spans, _) = self._run(
            trace, builders, "firstfit", "batch", sample=0.0
        )
        assert spans == [] and n_spans == 0

    def test_custom_job_ids_take_the_scalar_path(self, trace, builders):
        """Non-auto ids disable the vectorized arange mask; the
        fallback scan must make identical sampling decisions."""
        tr = Tracer(sample=0.25)
        svc = PlacementService(
            builders["firstfit"](), CAP, 4, mode="batch", tracer=tr
        )
        svc.open()
        jobs = [j for j in trace.jobs[:80]]
        offset_ids = [1000 + j.job_id for j in jobs]
        for lo in range(0, 80, 16):
            svc.submit_batch(
                trace.arrivals[lo:lo + 16], trace.durations[lo:lo + 16],
                trace.sizes[lo:lo + 16], trace.read_bytes[lo:lo + 16],
                trace.write_bytes[lo:lo + 16], trace.read_ops[lo:lo + 16],
                pipelines=trace.pipelines[lo:lo + 16],
                job_ids=offset_ids[lo:lo + 16],
            )
        svc.drain()
        assert not svc.log._ids_auto
        threshold = tr.threshold
        want = {i for i in offset_ids if sample_hash(i) < threshold}
        assert {s["job_id"] for s in tr.spans()} == want

    def test_wal_recovery_regenerates_spans(self, trace, builders, tmp_path):
        """Checkpoint + WAL replay re-runs the lost submissions through
        the same paths, so the recovered ring equals the uninterrupted
        one — pre-checkpoint spans ride the snapshot, post-checkpoint
        spans regenerate during replay."""
        ref, ref_counts = self._run(
            trace, builders, "adaptive", "batch", sample=1.0
        )

        wal = str(tmp_path / "t.wal")
        ckpt = str(tmp_path / "t.ckpt")
        svc = PlacementService(
            builders["adaptive"](), CAP, 4, mode="batch",
            tracer=Tracer(sample=1.0), wal=wal,
        )
        svc.open(trace)
        jobs = trace.jobs
        n = len(jobs)
        ckpt_at, crash_at = 68, 136  # batch-of-17 boundaries
        for lo in range(0, crash_at, 17):
            hi = lo + 17
            svc.submit_jobs(list(jobs[lo:hi]))
            svc.drain()
            for k in range(lo, hi):
                if k % 13 == 0:
                    svc.complete(jobs[k].job_id)
            if hi == ckpt_at:
                svc.checkpoint(ckpt)
        svc.wal.close()  # crash: 4 batches past the checkpoint are lost

        rec = PlacementService.recover(ckpt, wal)
        assert rec.tracer is not None
        assert rec.tracer.n_spans == crash_at
        for lo in range(crash_at, n, 17):
            hi = min(lo + 17, n)
            rec.submit_jobs(list(jobs[lo:hi]))
            rec.drain()
            for k in range(lo, hi):
                if k % 13 == 0:
                    rec.complete(jobs[k].job_id)
        rec.drain()
        spans = [json.loads(json.dumps(s, default=float))
                 for s in rec.tracer.spans()]
        assert spans == ref
        assert (rec.tracer.n_spans, rec.tracer.n_evicted) == ref_counts

    def test_export_trace_requires_tracer(self, trace, builders, tmp_path):
        svc = PlacementService(builders["firstfit"](), CAP, 4, mode="batch")
        with pytest.raises(RuntimeError, match="no tracer"):
            svc.export_trace(tmp_path / "x.jsonl")
        traced = PlacementService(
            builders["firstfit"](), CAP, 4, mode="batch", tracer=Tracer()
        )
        traced.open(trace)
        traced.submit_jobs(list(trace.jobs[:40]))
        traced.drain()
        out = tmp_path / "spans.jsonl"
        assert traced.export_trace(out) == 40
        assert len(out.read_text().splitlines()) == 40


class TestWorkerOpSpans:
    def _fleet(self, trace, builders, tmp_path, checkpoint_every=64):
        svc = FleetRouter(
            builders["firstfit"](), CAP, 4, mode="batch",
            n_workers=3, worker_dir=str(tmp_path),
            worker_checkpoint_every=checkpoint_every,
        )
        svc.open(trace)
        _feed_traced(svc, trace)
        return svc

    def test_gather_is_non_mutating(self, trace, builders, tmp_path):
        svc = self._fleet(trace, builders, tmp_path)
        try:
            seqs_before = [w.seq for w in svc.pool.wals]
            first = svc.worker_op_spans()
            assert first, "data-plane ops must have recorded spans"
            second = svc.worker_op_spans()
            # Observing spans writes nothing to any worker WAL and does
            # not grow the rings: a second gather is identical.
            assert [w.seq for w in svc.pool.wals] == seqs_before
            assert second == first
        finally:
            svc.close()

    def test_span_shape_and_ordering(self, trace, builders, tmp_path):
        from repro.serve.worker import PlacementWorker

        svc = self._fleet(trace, builders, tmp_path)
        try:
            spans = svc.worker_op_spans()
            per_worker: dict = {}
            for s in spans:
                assert set(s) == {"worker", "op", "seq", "t", "n"}
                assert s["op"] in PlacementWorker._SPAN_OPS
                per_worker.setdefault(s["worker"], []).append(s["seq"])
            assert set(per_worker) == {0, 1, 2}
            for w, seqs in per_worker.items():
                assert seqs == sorted(seqs), f"worker {w} out of order"
        finally:
            svc.close()

    def test_recovered_worker_ring_restarts(self, trace, builders, tmp_path):
        """Op spans are auxiliary telemetry, not checkpointed: a worker
        rebuilt from checkpoint + WAL reports a fresh ring while the
        authoritative counters replay exactly.  With a checkpoint after
        every mutating op the replay suffix is empty, so the rebuilt
        ring holds nothing at all."""
        svc = self._fleet(trace, builders, tmp_path, checkpoint_every=1)
        try:
            before = svc.metrics()
            svc.kill_worker(1)
            svc.recover_worker(1)
            spans = svc.worker_op_spans()
            w1 = [s for s in spans if s["worker"] == 1]
            assert w1 == []
            after = svc.metrics()
            assert after["serve_decided_total"] == before["serve_decided_total"]
            assert after["serve_worker_recoveries"] == 1
        finally:
            svc.close()
