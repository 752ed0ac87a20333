"""Column WAL frames: format, robustness, compatibility, job-id checks.

Submissions are logged as one CRC32 column frame each (a JSON header
plus a raw little-endian section, strings interned in a per-file
table); every other record stays a ``<crc hex> <json>`` line.  These
tests pin the frame's round trip and torn-tail behaviour, that a WAL
written in the line-only format (frozen below) still recovers — and
keeps recovering after new frames are appended to it — and that job
ids which would not survive the log are normalised or rejected before
the service mutates.
"""

import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FirstFitPolicy
from repro.config import AdaptiveParams
from repro.core import AdaptiveCategoryPolicy
from repro.serve import PlacementService, WriteAheadLog
from repro.units import GIB
from repro.workloads import ShuffleJob, Trace
from repro.workloads.metadata import stable_hash
from repro.workloads.streaming import TraceBlock

from helpers import make_job
from test_serve_recovery import METRIC_COUNTER_KEYS
from test_serve_service import assert_bit_identical, random_trace

CAP = 8 * GIB
COLUMNS = ("arrival", "duration", "size", "read_bytes", "write_bytes", "read_ops")


def _columns(jobs):
    return tuple(np.array([getattr(j, c) for j in jobs], dtype=float) for c in COLUMNS)


def _jobs_record(jobs, op="jobs"):
    return {"op": op, "columns": _columns(jobs), "jobs": list(jobs),
            "job_ids": [j.job_id for j in jobs]}


def _bare_record(n, pipes, users, job_ids=None):
    rng = np.random.default_rng(n)
    cols = tuple(np.sort(rng.uniform(0, 1e4, n)) if k == 0 else rng.uniform(0, 1e9, n)
                 for k in range(6))
    return {"op": "batch", "columns": cols, "pipelines": list(pipes),
            "users": list(users), "job_ids": job_ids}


def _frames(path):
    """``(offset, end)`` of every record in a WAL file, frames or lines."""
    data = path.read_bytes()
    out, pos = [], 0
    while pos < len(data):
        if data[pos] == 0xFB:
            _, _, hlen, rlen = struct.unpack_from("<BIII", data, pos)
            end = pos + 13 + hlen + rlen
        else:
            end = data.index(b"\n", pos) + 1
        out.append((pos, end))
        pos = end
    return out


def _header(path, k):
    data = path.read_bytes()
    pos, _ = _frames(path)[k]
    _, _, hlen, _ = struct.unpack_from("<BIII", data, pos)
    return json.loads(data[pos + 13:pos + 13 + hlen])


class TestColumnFrames:
    def test_bare_batch_round_trip(self, tmp_path):
        path = tmp_path / "b.wal"
        rec = _bare_record(5, ["p0", "p1", "p0", "p2", "p1"], ["u"] * 5,
                           job_ids=[3, "x", 5.5, None, -1])
        rec["cats"] = np.array([1, 2, 3, 4, 5])
        with WriteAheadLog(path) as wal:
            wal.append(rec)
        ((seq, got),) = WriteAheadLog.read(path)
        assert seq == 0 and got["op"] == "batch"
        for a, b in zip(got["columns"], rec["columns"]):
            assert a.dtype == np.float64 and np.array_equal(a, b)
        assert got["pipelines"] == rec["pipelines"]
        assert got["users"] == rec["users"]
        assert got["job_ids"] == rec["job_ids"]
        assert got["cats"] == [1, 2, 3, 4, 5]
        assert "jobs" not in got

    def test_one_row_submit_round_trip(self, tmp_path):
        path = tmp_path / "s.wal"
        job = make_job(4, arrival=1 / 3, pipeline="pé", user="ü")
        with WriteAheadLog(path) as wal:
            wal.append({"op": "submit",
                        "columns": tuple(getattr(job, c) for c in COLUMNS),
                        "jobs": [job], "job_ids": [4], "log_id": "four"})
            wal.append({"op": "submit", "columns": (1.0, 2.0, 3.0, 0.0, 0.0, 0.0),
                        "pipelines": ["pé"], "users": ["v"], "job_ids": None})
        (_, rich), (_, bare) = WriteAheadLog.read(path)
        assert rich["jobs"] == [job] and rich["log_id"] == "four"
        assert [float(c[0]) for c in rich["columns"]] == [getattr(job, c) for c in COLUMNS]
        assert bare["pipelines"] == ["pé"] and bare["users"] == ["v"]
        assert bare["job_ids"] is None
        assert [float(c[0]) for c in bare["columns"]] == [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]

    def test_strings_are_written_once_per_file(self, tmp_path):
        path = tmp_path / "i.wal"
        jobs = [make_job(i, arrival=float(i), pipeline="pipeA") for i in range(4)]
        with WriteAheadLog(path) as wal:
            wal.append(_jobs_record(jobs[:2]))
            wal.append(_jobs_record(jobs[2:]))
        first, second = _header(path, 0), _header(path, 1)
        assert "pipeA" in first["strs"]
        assert "strs" not in second  # every value already interned
        # Reopening rebuilds the table: nothing is re-introduced.
        with WriteAheadLog(path) as wal:
            wal.append(_jobs_record([make_job(9, arrival=9.0, pipeline="pipeA")]))
        assert "strs" not in _header(path, 2)
        assert [j for _, r in WriteAheadLog.read(path) for j in r["jobs"]] == (
            jobs + [make_job(9, arrival=9.0, pipeline="pipeA")]
        )

    def test_lines_keep_todays_bytes(self, tmp_path):
        path = tmp_path / "l.wal"
        recs = [{"op": "complete", "job_id": 7, "time": 12.5}, {"op": "drain"},
                {"op": "shock", "caps": [1.0, 2.5e9]}]
        with WriteAheadLog(path) as wal:
            for r in recs:
                wal.append(r)
        want = b""
        for r in recs:
            payload = json.dumps(r, separators=(",", ":")).encode()
            want += b"%08x " % zlib.crc32(payload) + payload + b"\n"
        assert path.read_bytes() == want

    def test_mixed_file_reads_in_order(self, tmp_path):
        path = tmp_path / "m.wal"
        jobs = [make_job(i, arrival=float(i)) for i in range(3)]
        with WriteAheadLog(path) as wal:
            wal.append({"op": "drain"})
            wal.append(_jobs_record(jobs))
            wal.append({"op": "complete", "job_id": 1, "time": None})
            wal.append(_bare_record(2, ["q", "q"], ["u", "u"]))
        got = list(WriteAheadLog.read(path))
        assert [s for s, _ in got] == [0, 1, 2, 3]
        assert [r["op"] for _, r in got] == ["drain", "jobs", "complete", "batch"]
        assert got[1][1]["jobs"] == jobs
        assert [s for s, _ in WriteAheadLog.read(path, start=3)] == [3]


class TestFrameRobustness:
    def _three(self, path):
        with WriteAheadLog(path) as wal:
            wal.append({"op": "drain"})
            wal.append(_jobs_record([make_job(0, pipeline="pA")]))
            wal.append(_jobs_record([make_job(1, arrival=1.0, pipeline="pB"),
                                     make_job(2, arrival=2.0, pipeline="pC")]))
        return path.read_bytes()

    def test_truncation_at_every_offset_of_the_last_frame(self, tmp_path):
        path = tmp_path / "t.wal"
        data = self._three(path)
        start, end = _frames(path)[2]
        extra = make_job(3, arrival=3.0, pipeline="pB")
        for cut in range(start, end):
            path.write_bytes(data[:cut])
            assert [s for s, _ in WriteAheadLog.read(path)] == [0, 1], cut
            with WriteAheadLog(path) as wal:
                assert wal.seq == 2, cut
                assert wal.append(_jobs_record([extra])) == 2
            got = list(WriteAheadLog.read(path))
            assert [s for s, _ in got] == [0, 1, 2], cut
            assert got[2][1]["jobs"] == [extra], cut

    def test_flipped_byte_stops_the_scan(self, tmp_path):
        path = tmp_path / "f.wal"
        data = self._three(path)
        start, end = _frames(path)[1]
        for pos in range(start, end):
            bad = bytearray(data)
            bad[pos] ^= 0x10
            path.write_bytes(bytes(bad))
            assert [s for s, _ in WriteAheadLog.read(path)] == [0], pos

    def test_length_past_eof_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "e.wal"
        data = bytearray(self._three(path))
        start, _ = _frames(path)[2]
        struct.pack_into("<I", data, start + 9, 1 << 30)  # raw length
        path.write_bytes(bytes(data))
        assert [s for s, _ in WriteAheadLog.read(path)] == [0, 1]
        with WriteAheadLog(path) as wal:
            assert wal.seq == 2
        assert path.stat().st_size == start

    def test_torn_record_table_entries_are_dropped(self, tmp_path):
        path = tmp_path / "d.wal"
        data = self._three(path)
        start, end = _frames(path)[2]
        assert "pC" in _header(path, 2)["strs"]
        path.write_bytes(data[:end - 1])  # frame 2 (which introduced pC) is torn
        with WriteAheadLog(path) as wal:
            assert "pC" not in wal._table
            wal.append(_jobs_record([make_job(5, arrival=5.0, pipeline="pC")]))
        assert "pC" in _header(path, 2)["strs"]
        assert list(WriteAheadLog.read(path))[2][1]["jobs"][0].pipeline == "pC"

    def test_failed_append_leaves_no_table_entries(self, tmp_path):
        path = tmp_path / "r.wal"
        with WriteAheadLog(path) as wal:
            bad = _jobs_record([make_job(0, pipeline="pNew")])
            bad["job_ids"] = [object()]
            with pytest.raises(TypeError):
                wal.append(bad)
            assert wal.seq == 0 and "pNew" not in wal._table
            wal.append(_jobs_record([make_job(0, pipeline="pNew")]))
        ((_, rec),) = WriteAheadLog.read(path)
        assert rec["jobs"][0].pipeline == "pNew"


_text = st.text(min_size=0, max_size=6)
_resource_value = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
)
_volume = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)


@st.composite
def _rich_jobs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    arrivals = sorted(draw(st.lists(_volume, min_size=n, max_size=n)))
    jobs = []
    for i in range(n):
        jobs.append(ShuffleJob(
            job_id=draw(st.one_of(st.integers(-5, 10**12), _text)),
            cluster=draw(_text), user=draw(_text),
            pipeline=draw(st.sampled_from(["p", "pé", "管道", ""])),
            archetype=draw(_text), arrival=arrivals[i],
            duration=draw(_volume), size=draw(_volume),
            read_bytes=draw(_volume), write_bytes=draw(_volume),
            read_ops=draw(_volume),
            metadata=draw(st.dictionaries(_text, _text, max_size=3)),
            resources=draw(st.dictionaries(
                st.sampled_from(["a", "b", "c", "ß"]), _resource_value, max_size=4,
            )),
        ))
    return jobs


class TestRichRoundTrip:
    @given(batches=st.lists(_rich_jobs(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rich_jobs_round_trip_equal(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.wal")
            with WriteAheadLog(path) as wal:
                for jobs in batches:
                    wal.append(_jobs_record(jobs))
                    wal.append({"op": "submit",
                                "columns": tuple(getattr(jobs[0], c) for c in COLUMNS),
                                "jobs": jobs[:1], "job_ids": [jobs[0].job_id]})
            got = [r["jobs"] for _, r in WriteAheadLog.read(path)]
        want = [js for jobs in batches for js in (jobs, jobs[:1])]
        assert got == want
        for g_jobs, w_jobs in zip(got, want):
            for g, w in zip(g_jobs, w_jobs):
                assert list(g.metadata.items()) == list(w.metadata.items())
                assert list(g.resources) == list(w.resources)
                for c in COLUMNS:
                    assert math.copysign(1, getattr(g, c)) == math.copysign(1, getattr(w, c))


# -- compatibility with WAL files written before column frames -----------


def _categorizer(n_cat=8):
    return lambda jobs: [1 + stable_hash(j.pipeline, seed=1) % (n_cat - 1) for j in jobs]


class _Recording:
    """A categorizer that remembers every job list it was handed."""

    def __init__(self, fn):
        self.fn = fn
        self.seen = []
        self.last = None

    def __call__(self, jobs):
        self.seen.append(list(jobs))
        self.last = [int(c) for c in self.fn(jobs)]
        return self.last


class _LineWal:
    """The submission encoder of the line-only WAL format, frozen.

    Forwards every call to a service without a WAL and appends the
    ``<crc hex> <json>`` line that format wrote for it, ``cats`` from
    the service's categorizer included.
    """

    def __init__(self, svc, path):
        self.svc = svc
        self.fh = open(path, "ab")

    def _write(self, rec, cats=True):
        if cats:
            rec["cats"] = list(self.svc.categorizer.last)
        payload = json.dumps(rec, separators=(",", ":")).encode("utf-8")
        self.fh.write(b"%08x " % zlib.crc32(payload) + payload + b"\n")
        self.fh.flush()

    @staticmethod
    def _job(job, job_id=None):
        return {
            "job_id": job.job_id if job_id is None else job_id,
            "cluster": job.cluster, "user": job.user, "pipeline": job.pipeline,
            "archetype": job.archetype, "arrival": job.arrival,
            "duration": job.duration, "size": job.size,
            "read_bytes": job.read_bytes, "write_bytes": job.write_bytes,
            "read_ops": job.read_ops, "metadata": job.metadata,
            "resources": job.resources,
        }

    def submit(self, job=None, **kw):
        out = self.svc.submit(job, **kw)
        if job is not None:
            self._write({"op": "jobs", "jobs": [self._job(job, self.svc.log.job_ids[-1])]})
        else:
            self._write({
                "op": "submit", "arrival": float(kw["arrival"]),
                "duration": float(kw["duration"]), "size": float(kw["size"]),
                "read_bytes": 0.0, "write_bytes": 0.0, "read_ops": 0.0,
                "pipeline": kw.get("pipeline", "pipeline0"),
                "user": kw.get("user", "user0"), "job_id": kw.get("job_id"),
            })
        return out

    def submit_jobs(self, jobs):
        out = self.svc.submit_jobs(jobs)
        self._write({"op": "jobs", "jobs": [self._job(j) for j in jobs]})
        return out

    def submit_batch(self, arrivals, durations, sizes, pipelines=None, job_ids=None):
        out = self.svc.submit_batch(arrivals, durations, sizes,
                                    pipelines=pipelines, job_ids=job_ids)
        self._write({
            "op": "batch", "arrivals": list(map(float, arrivals)),
            "durations": list(map(float, durations)),
            "sizes": list(map(float, sizes)), "read_bytes": None,
            "write_bytes": None, "read_ops": None,
            "pipelines": None if pipelines is None else list(pipelines),
            "users": None, "job_ids": None if job_ids is None else list(job_ids),
        })
        return out

    def complete(self, job_id, time=None):
        self._write({"op": "complete", "job_id": job_id,
                     "time": None if time is None else float(time)}, cats=False)
        return self.svc.complete(job_id, time=time)

    def apply_shock(self, caps):
        self._write({"op": "shock", "caps": [float(c) for c in caps]}, cats=False)
        return self.svc.apply_shock(caps)

    def drain(self):
        if self.svc.pending:
            self._write({"op": "drain"}, cats=False)
        return self.svc.drain()


def _script(svc, jobs, lo, hi):
    """Every submission entry point, completes, a shock and a drain."""
    js = jobs[lo:hi]
    q = len(js) // 4
    for k, j in enumerate(js[:q]):
        svc.submit(j, job_id=f"r{j.job_id}" if k == 1 else None)
    svc.submit_jobs(js[q:2 * q])
    block = js[2 * q:3 * q]
    svc.submit_batch(
        [j.arrival for j in block], [j.duration for j in block],
        [j.size for j in block], pipelines=[j.pipeline for j in block],
        job_ids=[f"b{j.job_id}" for j in block],
    )
    for j in js[3 * q:]:
        svc.submit(arrival=j.arrival, duration=j.duration, size=j.size,
                   pipeline=j.pipeline, job_id=f"s{j.job_id}")
    svc.drain()
    svc.complete(js[0].job_id, time=js[q].arrival)
    svc.complete(f"b{block[0].job_id}")
    svc.complete(f"r{js[1].job_id}")
    svc.apply_shock(np.full(4, CAP / 4 * (0.5 if lo == 0 else 1.0)))


def _fresh(trace, wal=None):
    """A replay-mode adaptive service (so chunks stay pending across
    submissions and ``drain`` is logged) with a recorded categorizer."""
    cats = np.random.default_rng(7).integers(0, 8, len(trace))
    params = AdaptiveParams(decision_interval=700.0, lookback_window=4000.0)
    svc = PlacementService(
        AdaptiveCategoryPolicy(cats, 8, params), CAP, 4, mode="batch",
        categorizer=_Recording(_categorizer()), wal=wal,
    )
    return svc.open(trace)


def _result(svc):
    """The roll-up of a copy, so the service itself is not drained."""
    return PlacementService.restore(svc.snapshot()).result()


class TestLineFormatCompatibility:
    def test_line_wal_recovers_and_continues_with_frames(self, tmp_path):
        trace = random_trace(21, n=160)
        jobs = list(trace.jobs)
        path = tmp_path / "old.wal"
        ref = _fresh(trace)
        ckpt = ref.snapshot()
        legacy = _LineWal(ref, path)
        _script(legacy, jobs, 0, 80)
        legacy.fh.close()
        ops = [r["op"] for _, r in WriteAheadLog.read(path)]
        assert {"jobs", "batch", "submit", "complete", "shock", "drain"} <= set(ops)
        assert not any("columns" in r for _, r in WriteAheadLog.read(path))

        rec = PlacementService.recover(ckpt, str(path))
        assert rec.stats == ref.stats
        assert_bit_identical(_result(ref), _result(rec), "line-format WAL")
        m_ref, m_rec = ref.metrics(), rec.metrics()
        for key in METRIC_COUNTER_KEYS:
            assert m_rec[key] == m_ref[key], key

        # The recovered service appends column frames to the same file;
        # a second recovery over the mixed file is still exact.
        _script(rec, jobs, 80, 160)
        _script(ref, jobs, 80, 160)
        rec.wal.close()
        kinds = ["columns" in r for _, r in WriteAheadLog.read(path)]
        assert any(kinds) and not all(kinds)
        again = PlacementService.recover(ckpt, str(path))
        for got in (rec, again):
            assert_bit_identical(_result(ref), _result(got), "mixed WAL")
            assert got.stats == ref.stats and ref.stats.n_submitted == 160
            assert got.pending == ref.pending
        again.wal.close()


class TestColumnReplay:
    def test_categorizer_receives_equal_jobs(self, tmp_path):
        trace = random_trace(22, n=64)
        jobs = list(trace.jobs)
        path = str(tmp_path / "c.wal")
        svc = _fresh(trace, wal=path)
        ckpt = svc.snapshot()
        _script(svc, jobs, 0, 64)
        svc.wal.close()
        rec = PlacementService.recover(ckpt, path)
        assert rec.categorizer.seen == svc.categorizer.seen
        assert rec.stats == svc.stats
        assert_bit_identical(_result(svc), _result(rec), "column WAL")
        rec.wal.close()

    def test_one_job_submit_replays_as_a_request(self, tmp_path):
        """A frame's op picks the histogram its replay counts in:
        ``submit`` frames count as requests, so the request histogram's
        count is exact."""
        trace = random_trace(23, n=30)
        jobs = list(trace.jobs)
        path = str(tmp_path / "h.wal")
        svc = _fresh(trace, wal=path)
        ckpt = svc.snapshot()
        _script(svc, jobs, 0, 30)
        svc.wal.close()
        rec = PlacementService.recover(ckpt, path)
        for key in ("serve_request_seconds", "serve_batch_seconds"):
            assert rec.metrics()[key]["count"] == svc.metrics()[key]["count"], key
        rec.wal.close()


# -- a WAL file written by an earlier version of the service -------------

#: Written once by :func:`_fixture_script` at the library version that
#: introduced it and never regenerated: later versions must replay it
#: and must write the same bytes for the same calls.
FIXTURE_WAL = os.path.join(os.path.dirname(__file__), "data", "service_ops.wal")


class _Outage:
    """A categorizer with a switchable outage; replay reaches the model
    through :attr:`inner`, as it does through the fault injector's."""

    def __init__(self, inner):
        self.inner = inner
        self.down = False

    def __call__(self, jobs):
        if self.down:
            raise RuntimeError("categorizer outage")
        return self.inner(jobs)


def _fixture_trace():
    """The jobs :func:`_fixture_script` submits, in order (tags in the ids)."""
    rng = np.random.default_rng(26)
    t, jobs = 0.0, []
    for tag, n in (("x", 2), ("r", 3), ("b", 11), ("k", 4), ("j", 7),
                   ("d", 3), ("j", 4), ("t", 3), ("e", 5)):
        for k in range(n):
            t += float(rng.uniform(5.0, 60.0))
            jobs.append(make_job(
                f"{tag}{len(jobs)}", arrival=t,
                duration=float(rng.uniform(100.0, 4000.0)),
                size=float(rng.uniform(0.1, 2.0)) * GIB,
                pipeline=f"p{int(rng.integers(0, 5))}", user=f"u{k % 2}",
                step=k % 3,
            ))
    return Trace(jobs, name="fixture")


def _fixture_service(wal=None):
    """A replay-mode service, so chunks stay pending and drains are logged."""
    trace = _fixture_trace()
    cats = np.random.default_rng(27).integers(0, 8, len(trace))
    params = AdaptiveParams(decision_interval=500.0, lookback_window=3000.0)
    svc = PlacementService(
        AdaptiveCategoryPolicy(cats, 8, params), 6 * GIB, 2, mode="batch",
        categorizer=_Outage(_Recording(_categorizer())), wal=wal,
    )
    return svc.open(trace)


def _fixture_script(path):
    """Every WAL frame shape through one service; returns it.

    Bare ``submit`` (with and without an id), rich ``submit(job)``
    (with and without a log id), ``batch`` frames with and without job
    ids (``submit_batch`` and ``submit_block``), ``jobs`` frames, one
    degraded submission, completes, a shock and a drain.
    """
    svc = _fixture_service(wal=str(path))
    jobs = iter(svc.policy._trace.jobs)

    def take(n):
        return [next(jobs) for _ in range(n)]

    def columns(js):
        return [np.array([getattr(j, c) for j in js]) for c in COLUMNS]

    (a,) = take(1)
    svc.submit(arrival=a.arrival, duration=a.duration, size=a.size,
               read_bytes=a.read_bytes, write_bytes=a.write_bytes,
               read_ops=a.read_ops, pipeline=a.pipeline, user=a.user)
    (a,) = take(1)
    svc.submit(arrival=a.arrival, duration=a.duration, size=a.size,
               pipeline=a.pipeline, job_id="s1")
    for j in take(2):
        svc.submit(j)
    (j,) = take(1)
    svc.submit(j, job_id="r-log")
    js = take(6)
    svc.submit_batch(*columns(js), pipelines=[j.pipeline for j in js],
                     users=[j.user for j in js])
    js = take(5)
    svc.submit_batch(*columns(js), pipelines=[j.pipeline for j in js],
                     job_ids=[j.job_id for j in js])
    js = take(4)
    svc.submit_block(TraceBlock(
        *columns(js), pipelines=tuple(j.pipeline for j in js),
        job_ids=np.arange(100, 104, dtype=np.int64),
    ))
    svc.submit_jobs(take(7))
    svc.complete(100, time=js[-1].arrival + 1.0)
    svc.complete("nobody", time=js[0].arrival)
    svc.categorizer.down = True
    svc.submit_jobs(take(3))
    svc.categorizer.down = False
    svc.submit_jobs(take(4))
    svc.apply_shock(np.array([2.5 * GIB, 1.5 * GIB]))
    for jid in ("s1", "r2", "j30"):
        svc.complete(jid)
    for j in take(3):
        svc.submit(j)
    assert svc.pending
    svc.drain()
    svc.complete(102)
    svc.submit_jobs(take(5))
    return svc


class TestFixtureWal:
    def test_fixture_recovers_and_is_rewritten_byte_for_byte(self, tmp_path):
        path = tmp_path / "ops.wal"
        ref = _fixture_script(path)
        ref.wal.close()
        with open(FIXTURE_WAL, "rb") as fh:
            fixture = fh.read()
        assert path.read_bytes() == fixture

        ops = [(r["op"], "columns" in r, "jobs" in r, "log_id" in r,
                r.get("job_ids") is not None, r.get("degraded", False))
               for _, r in WriteAheadLog.read(FIXTURE_WAL)]
        for shape in (("submit", True, False, False, False, False),
                      ("submit", True, True, False, True, False),
                      ("submit", True, True, True, True, False),
                      ("batch", True, False, False, False, False),
                      ("batch", True, False, False, True, False),
                      ("jobs", True, True, False, True, False),
                      ("jobs", True, True, False, True, True)):
            assert shape in ops, shape
        assert {"complete", "shock", "drain"} <= {op for op, *_ in ops}

        # A fresh checkpoint as the fixture's library version wrote it:
        # it still carried the replay state as attributes.
        snap = _fixture_service().snapshot()
        old = dict(snap.payload, _wal_rec=None, _replaying=False, _replay_cats=None)
        wal = tmp_path / "fixture.wal"
        wal.write_bytes(fixture)
        rec = PlacementService.recover(replace(snap, payload=old), str(wal))
        for stale in ("_wal_rec", "_replaying", "_replay_cats"):
            assert stale not in vars(rec)
        assert rec.stats == ref.stats and rec.stats.degraded_jobs == 3
        assert rec.categorizer.inner.seen == ref.categorizer.inner.seen
        assert_bit_identical(_result(ref), _result(rec), "fixture WAL")
        m_ref, m_rec = ref.metrics(), rec.metrics()
        for key in METRIC_COUNTER_KEYS:
            assert m_rec[key] == m_ref[key], key
        for key in ("serve_request_seconds", "serve_batch_seconds",
                    "serve_chunk_jobs"):
            assert m_rec[key]["count"] == m_ref[key]["count"], key
        rec.wal.close()


# -- job ids that would not survive the log ------------------------------


def _long_lived_trace(n=40):
    jobs = [make_job(i, arrival=float(10 * i), duration=1e7, size=0.05 * GIB,
                     pipeline=f"p{i % 3}") for i in range(n)]
    return Trace(jobs, name="long")


def _blocks(trace, step=8):
    for lo in range(0, len(trace), step):
        sl = slice(lo, lo + step)
        yield TraceBlock(
            trace.arrivals[sl], trace.durations[sl], trace.sizes[sl],
            trace.read_bytes[sl], trace.write_bytes[sl], trace.read_ops[sl],
            pipelines=tuple(trace.pipelines[sl]),
            job_ids=np.arange(lo, min(lo + step, len(trace)), dtype=np.int64),
        )


class TestWalJobIds:
    def test_int64_block_ids_recover_bit_identically(self, tmp_path):
        trace = _long_lived_trace()
        path = str(tmp_path / "ids.wal")
        ref = PlacementService(FirstFitPolicy(), CAP, 1, mode="batch").open(trace)
        svc = PlacementService(FirstFitPolicy(), CAP, 1, mode="batch", wal=path).open(trace)
        ckpt = svc.snapshot()
        for block in _blocks(trace):
            ref.submit_block(block)
            svc.submit_block(block)
        assert svc.wal.seq == 5
        svc.wal.close()
        rec = PlacementService.recover(ckpt, path)
        assert_bit_identical(_result(ref), _result(rec), "int64 ids")
        for s in (ref, rec):
            s.drain()
            assert s.complete(5) is True
        assert_bit_identical(ref.result(), rec.result(), "int64 ids + complete")
        rec.wal.close()

    @pytest.mark.parametrize("bad", [(1, 2), np.bool_(True), object()])
    def test_rejected_id_leaves_state_unchanged(self, tmp_path, bad):
        trace = _long_lived_trace(8)
        svc = PlacementService(FirstFitPolicy(), CAP, 1, mode="batch",
                               wal=str(tmp_path / "r.wal")).open(trace)
        svc.submit_batch(trace.arrivals[:2], trace.durations[:2], trace.sizes[:2])
        before = (svc.stats.n_submitted, len(svc.log), svc.pending, svc.wal.seq)
        j = trace.jobs[2]
        calls = (
            lambda: svc.submit_batch(trace.arrivals[2:4], trace.durations[2:4],
                                     trace.sizes[2:4], job_ids=[7, bad]),
            lambda: svc.submit(arrival=j.arrival, duration=j.duration,
                               size=j.size, job_id=bad),
            lambda: svc.submit(make_job(0, arrival=j.arrival), job_id=bad),
            lambda: svc.submit_jobs([replace(make_job(0, arrival=j.arrival), job_id=bad)]),
            lambda: svc.complete(bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match="round-trip"):
                call()
            assert (svc.stats.n_submitted, len(svc.log), svc.pending,
                    svc.wal.seq) == before
        svc.wal.close()


# -- today's frame bytes, frozen -------------------------------------------


class _FrozenTable(dict):
    """The frame encoder's intern table: a miss appends to ``entries``."""

    def __init__(self):
        super().__init__()
        self.entries = []

    def __missing__(self, value):
        i = self[value] = len(self.entries)
        self.entries.append(value)
        return i


def _frozen_encode_frame(record, table):
    """The column-frame encoder of the format's first version, frozen.

    Every later encoder must write these bytes for the same records and
    the same table.
    """
    n0 = len(table.entries)
    cols = record["columns"]
    jobs = record.get("jobs")
    if record["op"] == "submit":
        n = 1
        raw = [struct.pack("<6d", *cols)]
    else:
        n = len(cols[0])
        raw = [c.astype("<f8", copy=False).tobytes() for c in cols]
    if jobs is None:
        idx = [table[p] for p in record["pipelines"]]
        idx += [table[u] for u in record["users"]]
    else:
        idx = [table[j.pipeline] for j in jobs]
        idx += [table[j.user] for j in jobs]
        idx += [table[j.cluster] for j in jobs]
        idx += [table[j.archetype] for j in jobs]
        idx += [table[(*j.metadata, *j.metadata.values())] for j in jobs]
        idx += [table[tuple(j.resources)] for j in jobs]
        vals = [v for j in jobs for v in j.resources.values()]
        raw.append(struct.pack("<%dd" % len(vals), *vals))
    raw.append(struct.pack("<%di" % len(idx), *idx))
    head = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in record.items()
        if k not in ("columns", "pipelines", "users", "jobs")
    }
    head["n"] = n
    if jobs is not None:
        head["rich"] = True
    if len(table.entries) > n0:
        head["strs"] = table.entries[n0:]
    header = json.dumps(head, separators=(",", ":")).encode("utf-8")
    raw = b"".join(raw)
    lengths = struct.pack("<II", len(header), len(raw))
    crc = zlib.crc32(raw, zlib.crc32(header, zlib.crc32(lengths)))
    return struct.pack("<BI", 0xFB, crc) + lengths + header + raw


#: Few distinct values; records pick jobs from a small pool, so they
#: both intern new values and cite interned ones.
_few_texts = st.sampled_from(["p", "pé", "管道", "", "u1"])
_ids = st.one_of(
    st.integers(-5, 10**12), st.booleans(), st.text(max_size=4), st.none(),
)


@st.composite
def _any_job(draw):
    return ShuffleJob(
        job_id=draw(_ids), cluster=draw(_few_texts), user=draw(_few_texts),
        pipeline=draw(_few_texts), archetype=draw(_few_texts),
        arrival=draw(_volume), duration=draw(_volume), size=draw(_volume),
        read_bytes=draw(_volume), write_bytes=draw(_volume),
        read_ops=draw(_volume),
        metadata=draw(st.dictionaries(_few_texts, _few_texts, max_size=2)),
        resources=draw(st.dictionaries(
            st.sampled_from(["a", "ß"]), _resource_value, max_size=2,
        )),
    )


@st.composite
def _submission(draw, pool):
    """One submission record, keys in the order the service builds them."""
    n = 1 if draw(st.booleans()) else draw(st.integers(1, 3))
    jobs = [replace(j, job_id=draw(_ids))
            for j in draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))]
    rich = draw(st.booleans())
    if n == 1 and draw(st.booleans()):
        rec = {"op": "submit",
               "columns": tuple(getattr(jobs[0], c) for c in COLUMNS)}
    else:
        rec = {"op": "jobs" if rich else "batch", "columns": _columns(jobs)}
    if rich:
        rec["jobs"] = jobs
    else:
        rec["pipelines"] = [j.pipeline for j in jobs]
        rec["users"] = [j.user for j in jobs]
    ids = [j.job_id for j in jobs]
    form = draw(st.sampled_from(["list", "list", "int64", "none"]))
    if form == "int64":
        ids = np.arange(n, dtype=np.int64) + draw(st.integers(-3, 2**40))
    rec["job_ids"] = None if form == "none" and not rich else ids
    if rich and draw(st.booleans()):
        rec["log_id"] = draw(_ids)
    cats = draw(st.lists(st.integers(0, 14), min_size=n, max_size=n))
    form = draw(st.sampled_from(["array", "list", "float", "bool", "none"]))
    if form != "none":
        rec["cats"] = {
            "array": np.array(cats, dtype=np.int64), "list": cats,
            "float": np.array(cats, dtype=float), "bool": [c > 7 for c in cats],
        }[form]
        if draw(st.booleans()):
            rec["degraded"] = True
    return rec


@st.composite
def _submissions(draw):
    pool = draw(st.lists(_any_job(), min_size=1, max_size=3))
    return draw(st.lists(_submission(pool), min_size=1, max_size=10))


class TestFrozenFrameBytes:
    @given(records=_submissions())
    @settings(max_examples=200, deadline=None)
    def test_append_writes_the_frozen_bytes(self, records):
        table = _FrozenTable()
        want = b"".join(_frozen_encode_frame(r, table) for r in records)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.wal")
            with WriteAheadLog(path) as wal:
                for r in records:
                    wal.append(r)
            with open(path, "rb") as fh:
                assert fh.read() == want
