"""Durability: WAL framing, checkpoint + replay recovery, crash kill test.

The recovery contract: ``PlacementService.recover(checkpoint, wal)``
replays the WAL suffix past the checkpoint's ``wal_seq`` anchor through
the normal entry points, so a service that crashes mid-stream and
recovers produces results **bit-identical** to the uninterrupted run —
same decisions, same cost roll-up, same per-shard counters, same ACT
positions.  This holds for every crash point, every batched policy
family, both engines, and any shard count; a sweep below pins it.

``TestCrashKill`` proves the claim end to end by killing a real serving
subprocess mid-stream (injected ``crash`` fault → ``os._exit(137)``)
and recovering from its checkpoint + WAL in a fresh process.
"""

import os
import pickle
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.serve import PlacementService, WalCorruption, WriteAheadLog
from repro.serve.wal import job_from_record, job_to_record

from helpers import make_job
from test_serve_service import (
    assert_bit_identical,
    make_policy_builders,
    random_trace,
)


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "svc.wal"
        recs = [
            {"op": "submit", "arrival": 1.5, "size": 3.0e9},
            {"op": "complete", "job_id": "a", "time": None},
            {"op": "shock", "caps": [1.0, 0.25e9]},
        ]
        with WriteAheadLog(path) as wal:
            for i, r in enumerate(recs):
                assert wal.append(r) == i
            assert wal.seq == len(recs)
            assert len(wal) == len(recs)
        assert list(WriteAheadLog.read(path)) == list(enumerate(recs))
        assert list(WriteAheadLog.read(path, start=2)) == [(2, recs[2])]

    def test_floats_survive_exactly(self, tmp_path):
        """json round-trips float64 bit-exactly (repr-based encoding)."""
        path = tmp_path / "f.wal"
        vals = [0.1, 1 / 3, 2.5e9 * (2 / 7), np.float64(np.pi).item()]
        with WriteAheadLog(path) as wal:
            wal.append({"op": "x", "vals": vals})
        ((_, rec),) = WriteAheadLog.read(path)
        assert rec["vals"] == vals  # == is bitwise for floats here

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "seq.wal"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "a"})
        with WriteAheadLog(path) as wal:
            assert wal.seq == 1
            assert wal.append({"op": "b"}) == 1
        assert [seq for seq, _ in WriteAheadLog.read(path)] == [0, 1]

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "torn.wal"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "a"})
            wal.append({"op": "b"})
        with open(path, "ab") as fh:
            fh.write(b'deadbeef {"op": "torn", "x":')  # crash mid-write
        # Reads stop at the first bad record...
        assert [r["op"] for _, r in WriteAheadLog.read(path)] == ["a", "b"]
        # ...and opening for append truncates the torn bytes, so the
        # next record lands at the right offset with the right seq.
        with WriteAheadLog(path) as wal:
            assert wal.seq == 2
            wal.append({"op": "c"})
        assert [r["op"] for _, r in WriteAheadLog.read(path)] == ["a", "b", "c"]

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "crc.wal"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "a"})
            wal.append({"op": "b"})
        raw = path.read_bytes().splitlines(keepends=True)
        # Flip a payload byte of record 1 without touching its CRC.
        raw[1] = raw[1].replace(b'"b"', b'"x"')
        path.write_bytes(b"".join(raw))
        assert [r["op"] for _, r in WriteAheadLog.read(path)] == ["a"]

    def test_crc_frame_format(self, tmp_path):
        path = tmp_path / "frame.wal"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "a"})
        line = path.read_bytes()
        crc_hex, payload = line[:8], line[9:-1]
        assert int(crc_hex, 16) == zlib.crc32(payload)

    def test_job_record_round_trip(self):
        job = make_job(7, arrival=123.5, pipeline="p9", user="u3", step=4)
        assert job_from_record(job_to_record(job)) == job


# Monotonic counters that must be identical between a recovered run and
# the uninterrupted reference (serve_wal_records_total is excluded: the
# reference run has no WAL).
METRIC_COUNTER_KEYS = (
    "serve_submitted_total", "serve_decided_total", "serve_chunks_total",
    "serve_forced_chunks_total", "serve_completions_total",
    "serve_duplicate_completes_total", "serve_stale_completes_total",
    "serve_shocks_total", "serve_evictions_total",
    "serve_evicted_bytes_total", "serve_degraded_jobs_total",
    "serve_degraded_intervals_total", "serve_categorizer_failures_total",
    "serve_ssd_requested_total", "serve_spilled_total",
    "serve_kernel_evictions_total", "serve_scalar_fallback_total",
)


def _drive(svc_or_inj, trace, lo, hi, *, batch, complete_every, shock_at):
    """Feed ``trace[lo:hi]`` deterministically: micro-batches via
    ``submit_jobs`` plus scripted completes and one capacity shock, so
    interrupted and uninterrupted runs consume the identical stream."""
    jobs = trace.jobs
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        svc_or_inj.submit_jobs(list(jobs[start:stop]))
        if shock_at is not None and start <= shock_at < stop:
            svc_or_inj.apply_shock(scale=0.5)
            svc_or_inj.apply_shock(scale=2.0)
        for k in range(start, stop):
            if k % complete_every == 0:
                svc_or_inj.complete(jobs[k].job_id)


class TestRecoveryBitIdentity:
    """Crash point x policy x engine x shard count: recovery is exact."""

    CAP = 8 * 2**30

    def _run_uninterrupted(self, build, trace, mode, n_shards, shock_at):
        svc = PlacementService(build(), self.CAP, n_shards, mode=mode)
        svc.open(trace)
        _drive(svc, trace, 0, len(trace), batch=17,
               complete_every=13, shock_at=shock_at)
        res = svc.result()
        return res, svc

    def _run_with_crash(self, build, trace, mode, n_shards, shock_at,
                        crash_at, tmp_path, tag):
        wal_path = tmp_path / f"{tag}.wal"
        ckpt_path = tmp_path / f"{tag}.ckpt"
        svc = PlacementService(
            build(), self.CAP, n_shards, mode=mode, wal=str(wal_path)
        )
        svc.open(trace)
        # Checkpoint strictly before the crash so a WAL suffix exists.
        ckpt_at = crash_at // 2
        _drive(svc, trace, 0, ckpt_at, batch=17,
               complete_every=13, shock_at=shock_at)
        svc.checkpoint(str(ckpt_path))
        _drive(svc, trace, ckpt_at, crash_at, batch=17,
               complete_every=13, shock_at=shock_at)
        svc.wal.close()  # "crash": the object is abandoned here

        rec = PlacementService.recover(str(ckpt_path), str(wal_path))
        assert rec.stats.n_submitted == crash_at
        _drive(rec, trace, crash_at, len(trace), batch=17,
               complete_every=13, shock_at=shock_at)
        res = rec.result()
        rec.close()
        return res, rec

    @pytest.mark.parametrize("mode", ("scalar", "batch"))
    @pytest.mark.parametrize("n_shards", (1, 4))
    def test_sweep(self, mode, n_shards, tmp_path):
        trace = random_trace(11, n=240)
        builders = make_policy_builders(trace, 11)
        for name in ("adaptive", "firstfit", "fixed"):
            build = builders[name]
            for crash_at in (34, 170):
                shock_at = 100 if name != "fixed" else None
                off_res, off_svc = self._run_uninterrupted(
                    build, trace, mode, n_shards, shock_at
                )
                on_res, on_svc = self._run_with_crash(
                    build, trace, mode, n_shards, shock_at, crash_at,
                    tmp_path, f"{name}-{mode}-{n_shards}-{crash_at}",
                )
                label = f"{name} x {mode} x {n_shards} shards @ {crash_at}"
                assert_bit_identical(off_res, on_res, label)
                assert on_svc.stats.n_evicted == off_svc.stats.n_evicted, label
                assert on_svc.stats.n_shocks == off_svc.stats.n_shocks, label
                # The metrics surface continues across recovery: every
                # monotonic counter resumes from its checkpoint + WAL
                # replay value — no resets, no double counting.
                m_off, m_on = off_svc.metrics(), on_svc.metrics()
                for key in METRIC_COUNTER_KEYS:
                    assert m_on[key] == m_off[key], (label, key)
                cats_off = {k: v for k, v in m_off.items()
                            if k.startswith("serve_admitted_by_category")}
                cats_on = {k: v for k, v in m_on.items()
                           if k.startswith("serve_admitted_by_category")}
                assert cats_on == cats_off, label
                # Latency histogram *counts* replay exactly too (sums
                # are wall-clock and may differ).
                assert (m_on["serve_batch_seconds"]["count"]
                        == m_off["serve_batch_seconds"]["count"]), label
                # Per-shard counters and ACT positions survive recovery.
                off_p, on_p = off_svc.policy, on_svc.policy
                for attr in ("shard_ssd_requested", "shard_spills",
                             "act_lanes", "_req_mark"):
                    a, b = getattr(off_p, attr, None), getattr(on_p, attr, None)
                    if a is None or b is None:
                        assert a is None and b is None, (label, attr)
                    else:
                        np.testing.assert_array_equal(a, b, err_msg=f"{label} {attr}")
                if hasattr(off_p, "act"):
                    assert on_p.act == off_p.act, label

    def test_recovery_preserves_wal_stream(self, tmp_path):
        """A recovered service keeps logging: a second crash at a later
        point recovers again from the SAME wal (chained recovery)."""
        trace = random_trace(12, n=160)
        build = make_policy_builders(trace, 12)["adaptive"]
        wal, ckpt = str(tmp_path / "c.wal"), str(tmp_path / "c.ckpt")

        svc = PlacementService(build(), self.CAP, 4, mode="batch", wal=wal)
        svc.open(trace)
        _drive(svc, trace, 0, 40, batch=17, complete_every=13, shock_at=None)
        svc.checkpoint(ckpt)
        _drive(svc, trace, 40, 80, batch=17, complete_every=13, shock_at=60)
        svc.wal.close()

        r1 = PlacementService.recover(ckpt, wal)
        _drive(r1, trace, 80, 120, batch=17, complete_every=13, shock_at=None)
        r1.checkpoint(ckpt)
        r1.wal.close()

        r2 = PlacementService.recover(ckpt, wal)
        _drive(r2, trace, 120, 160, batch=17, complete_every=13, shock_at=None)
        got = r2.result()
        r2.close()

        ref = PlacementService(build(), self.CAP, 4, mode="batch")
        ref.open(trace)
        for lo, hi, shock in ((0, 40, None), (40, 80, 60),
                              (80, 120, None), (120, 160, None)):
            _drive(ref, trace, lo, hi, batch=17, complete_every=13,
                   shock_at=shock)
        assert_bit_identical(ref.result(), got, "chained recovery")

    def test_snapshot_excludes_wal_handle(self, tmp_path):
        trace = random_trace(13, n=40)
        with PlacementService(
            make_policy_builders(trace, 13)["firstfit"](), self.CAP, 1,
            mode="batch", wal=str(tmp_path / "x.wal"),
        ) as svc:
            svc.open(trace)
            svc.submit_jobs(list(trace.jobs[:20]))
            snap = svc.snapshot()
        assert svc.wal._fh.closed
        # The snapshot pickles without the live file handle and restores
        # with wal=None (recover() reattaches the log explicitly).
        clone = PlacementService.restore(pickle.loads(pickle.dumps(snap)))
        assert clone.wal is None
        assert clone.stats.n_submitted == 20
        assert snap.wal_seq == svc.wal_seq

    def test_recover_rejects_unknown_record(self, tmp_path):
        trace = random_trace(14, n=20)
        wal, ckpt = str(tmp_path / "bad.wal"), str(tmp_path / "bad.ckpt")
        svc = PlacementService(
            make_policy_builders(trace, 14)["firstfit"](), self.CAP, 1,
            mode="batch", wal=wal,
        )
        svc.open(trace)
        svc.checkpoint(ckpt)
        svc.submit_jobs(list(trace.jobs[:10]))
        svc.wal.append({"op": "martian"})
        svc.wal.close()
        with pytest.raises(WalCorruption, match="martian"):
            PlacementService.recover(ckpt, wal)


class TestCrashKill:
    """Kill a real serving subprocess mid-stream, then recover."""

    def _cli(self, *argv, cwd):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) \
            + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )

    def _rollup(self, stdout):
        """The final cost/spill roll-up lines, which must match."""
        return [
            ln for ln in stdout.splitlines()
            if any(key in ln for key in ("TCO", "spilled", "chunks", "served"))
        ]

    def test_kill_and_recover_matches_uninterrupted(self, tmp_path):
        prefix = str(tmp_path / "trace")
        gen = self._cli(
            "generate", "--cluster", "0", "--weeks", "0.1",
            "--out", prefix, cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr

        ref = self._cli(
            "serve", "--trace", prefix, "--batch", "64", cwd=tmp_path
        )
        assert ref.returncode == 0, ref.stderr

        plan = tmp_path / "plan.json"
        plan.write_text('{"events": [{"at": 300, "kind": "crash"}]}')
        wal, ckpt = str(tmp_path / "s.wal"), str(tmp_path / "s.ckpt")
        crashed = self._cli(
            "serve", "--trace", prefix, "--batch", "64",
            "--wal", wal, "--checkpoint", ckpt, "--checkpoint-every", "2",
            "--fault-plan", str(plan), cwd=tmp_path,
        )
        assert crashed.returncode == 137, (crashed.stdout, crashed.stderr)
        assert os.path.exists(wal) and os.path.exists(ckpt)

        recovered = self._cli(
            "serve", "--trace", prefix, "--batch", "64",
            "--wal", wal, "--checkpoint", ckpt, "--recover", cwd=tmp_path,
        )
        assert recovered.returncode == 0, recovered.stderr
        assert "recovered from" in recovered.stdout
        # The roll-up filter includes the CLI's metrics line (it names
        # "chunks" and "spilled"), so recovered counters must equal the
        # uninterrupted run's counter for counter — no resets after the
        # crash, no double counting from the WAL replay.
        assert any("metrics:" in ln for ln in self._rollup(ref.stdout))
        assert self._rollup(recovered.stdout) == self._rollup(ref.stdout)
