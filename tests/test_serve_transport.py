"""The worker wire format and the transports' error semantics.

``encode``/``decode`` carry every router-to-worker message over the
subprocess pipe: flat messages that carry an array as binary frames
(tag ``F``), anything else as a pickle (tag ``P``).  A decoded message
must have the original keys in order, the original types and exact
dtypes, bit-exact floats, and a frame's arrays must be writable, own
their memory and alias nothing.
"""

import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FirstFitPolicy
from repro.serve import FleetRouter, PlacementService, SnapshotMismatch
from repro.serve.transport import (
    RecordingTransport,
    SubprocessTransport,
    WorkerDied,
    decode,
    encode,
    same_message,
)
from repro.serve.worker import PlacementWorker
from repro.units import GIB

from test_fleet_ties import N_SHARDS, _drive, _policy, _tie_trace
from test_serve_service import assert_bit_identical

#: Array dtypes a frame carries; ``q`` and ``l`` compare equal but are
#: distinct scalar types, so both appear.
FRAME_DTYPES = ("?", "b", "B", "h", "H", "i", "I", "l", "L", "q", "Q",
                "e", "f", "d", "g")

#: Data-plane ops whose messages (op and reply) carry job column blocks
#: and must take the frame path, and the standalone cancel, which holds
#: only scalars and pickles.
FRAMED_OPS = ("chunk", "fit")
PICKLED_OPS = ("cancel",)


def _flat_value():
    arrays = st.tuples(
        st.sampled_from(FRAME_DTYPES),
        st.integers(0, 24),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    ).map(_array)
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2**63, 2**63 - 1),
        st.sampled_from((-2**63, 2**63 - 1, 0, -1)),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from((-0.0, math.inf, -math.inf, math.nan)),
        st.text(),
        arrays,
    )


def _array(spec) -> np.ndarray:
    """A 1-D array of any frame dtype; ``step > 1`` makes it a
    non-contiguous view of a larger array."""
    char, n, step, seed = spec
    raw = np.random.default_rng(seed).bytes(n * step * np.dtype(char).itemsize)
    base = np.frombuffer(raw, dtype=char).copy()
    if base.dtype.kind == "f" and base.size:
        base[0] = np.nan
        base[-1] = -0.0
    return base[::step]


flat_messages = st.dictionaries(st.text(max_size=12), _flat_value(), max_size=10)


class TestFrameRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(msg=flat_messages)
    def test_flat_messages_round_trip(self, msg):
        has_array = any(isinstance(v, np.ndarray) for v in msg.values())
        wire = encode(msg)
        assert wire[:1] == (b"F" if has_array else b"P")
        got = decode(wire)
        assert same_message(msg, got)
        arrays = [v for v in got.values() if isinstance(v, np.ndarray)]
        for i, a in enumerate(arrays):
            assert a.flags.writeable and a.flags.owndata
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for k, v in msg.items():
            if isinstance(v, np.ndarray):
                assert not np.shares_memory(got[k], v)

    def test_numpy_scalar_subclasses_encode_as_python(self):
        msg = {"x": np.float64(-0.0), "n": True, "i": 1, "a": np.zeros(1)}
        wire = encode(msg)
        assert wire[:1] == b"F"
        got = decode(wire)
        assert type(got["x"]) is float and math.copysign(1.0, got["x"]) < 0
        assert got["n"] is True and type(got["i"]) is int

    @pytest.mark.parametrize("msg", [
        {"op": "cancel", "catch": None, "lane": 3, "alloc": 7,
         "release": -0.0},
        {"free": 7, "n_spilled": 2, "ok": True, "why": "scalars only"},
        {},
    ])
    def test_scalar_only_messages_take_the_pickle_tag(self, msg):
        wire = encode(msg)
        assert wire[:1] == b"P"
        assert same_message(msg, decode(wire))

    @pytest.mark.parametrize("msg", [
        {"payload": {"kernel": [1, 2]}},
        {"evicted": [(1.0, 2, 3)], "free": 4},
        {"spans": [{"op": "chunk"}], "seq": 1},
        {"x": np.zeros((2, 2))},
        {"x": np.zeros(3, dtype=">f8")},
        {"x": np.array(["a", "b"])},
        {"x": np.zeros(2, dtype="datetime64[s]")},
        {"x": np.int64(3)},
        {"x": 2**63},
        {"x": b"bytes"},
        {1: "not a str key"},
        {"k" * 256: 1},
        {"s": "lone \ud800 surrogate"},
    ])
    def test_array_messages_a_frame_cannot_carry_take_the_pickle_tag(
        self, msg
    ):
        msg = {**msg, "a": np.arange(3.0)}
        wire = encode(msg)
        assert wire[:1] == b"P"
        assert same_message(msg, decode(wire))

    def test_rejects_unknown_tags(self):
        with pytest.raises(ValueError, match="tag"):
            decode(b"X")


def _tie_run(mode, policy):
    rng = np.random.default_rng(11)
    n = 60
    return {
        "trace": _tie_trace(
            rng.choice((0, 0, 1, 2), n), rng.choice((0, 1, 3, 8, 13, 21), n),
            rng.uniform(0.05, 2.5, n), rng.integers(0, 6, n),
        ),
        "cap": 3.3 * GIB, "mode": mode, "policy": policy, "seed": 11,
        "batch": 7, "complete_every": 1, "complete_at_arrival": False,
        "shock_at": 3, "shock_scale": 0.5,
    }


def _run(mode, policy):
    run = _tie_run(mode, policy)
    # FirstFit holds the queue until it is bounded; bounded at two
    # batches, its chunks close during the feed, so the cancels made
    # between them ride a ``fit``.
    svc = FleetRouter(
        _policy(run, run["trace"]), run["cap"], N_SHARDS, mode=mode,
        n_workers=2, max_pending=14 if policy == "firstfit" else None,
    )
    log: list = []
    pool = svc.pool
    pool.transports = [RecordingTransport(tr, log) for tr in pool.transports]
    try:
        res, _ = _drive(svc, run)
    finally:
        svc.close()
    return res, log


class TestFleetMessages:
    @pytest.mark.parametrize("mode,policy,kinds", [
        ("batch", "adaptive", {"chunk", "carried cancel"}),
        ("batch", "firstfit", {"fit", "carried cancel"}),
    ])
    def test_data_plane_messages_take_their_path(self, mode, policy, kinds):
        res, log = _run(mode, policy)
        assert res.n_spilled > 0  # spill columns and spill times are live
        seen = set()
        for op, reply in log:
            kind = op["op"]
            if kind not in FRAMED_OPS + PICKLED_OPS:
                continue
            seen.add(kind)
            if "cancel_lane" in op:
                # Batch cancels ride a chunk op's frame as columns.
                seen.add("carried cancel")
            tag = b"F" if kind in FRAMED_OPS else b"P"
            for msg in (op, reply):
                wire = encode(msg)
                assert wire[:1] == tag, (kind, sorted(msg))
                assert same_message(msg, decode(wire))
        assert kinds <= seen
        assert "resize" in {op["op"] for op, _ in log}  # the shock ran


class TestScatterErrors:
    """A worker error inside a scatter is raised only after every
    other reply is in, the same way on both transports."""

    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    @pytest.mark.parametrize("order", ((1, 0), (0, 1)))
    @pytest.mark.parametrize("dead", (False, True), ids=("alive", "dead"))
    def test_error_leaves_the_other_channels_in_sync(
        self, transport, order, dead, tmp_path
    ):
        # A dead worker is recovered first; the re-issued, non-mutating
        # op then raises on the fresh worker.
        svc = FleetRouter(
            FirstFitPolicy(), 4 * GIB, 2, n_workers=2, transport=transport,
            worker_dir=tmp_path,
        )
        try:
            if dead:
                svc.pool.transports[1].kill()
            ops = {
                w: {"op": "bogus"} if w == 1 else {"op": "spans"}
                for w in order
            }
            with pytest.raises(
                RuntimeError,
                match=r"^worker 1: ValueError: unknown worker op 'bogus'$",
            ):
                svc.pool.scatter(ops)
            for w in (0, 1):
                assert "state" in svc.pool.request(w, {"op": "metrics"})
            replies = svc.pool.scatter({0: {"op": "ping"}, 1: {"op": "ping"}})
            assert [replies[w]["worker_id"] for w in (0, 1)] == [0, 1]
        finally:
            svc.close()

    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    def test_failed_recovery_leaves_the_other_channels_in_sync(
        self, transport
    ):
        # No worker_dir: the dead worker cannot be recovered at all.
        svc = FleetRouter(
            FirstFitPolicy(), 4 * GIB, 2, n_workers=2, transport=transport
        )
        try:
            svc.pool.transports[0].kill()
            with pytest.raises(WorkerDied, match="no worker_dir"):
                svc.pool.scatter({0: {"op": "ping"}, 1: {"op": "spans"}})
            assert "state" in svc.pool.transports[1].request({"op": "metrics"})
        finally:
            svc.close()


class TestWorkerErrors:
    @pytest.mark.parametrize("transport", ("inprocess", "subprocess"))
    def test_snapshot_mismatch_is_raised_alike(self, transport):
        svc = FleetRouter(
            FirstFitPolicy(), 4 * GIB, 2, n_workers=2, transport=transport
        )
        try:
            tr = svc.pool.transports[0]
            payload = tr.request({"op": "state"})["payload"]
            payload["__schema__"] = 999
            with pytest.raises(
                SnapshotMismatch,
                match=r"^worker 0: SnapshotMismatch: worker checkpoint "
                      r"schema 999 does not match",
            ):
                tr.request({"op": "restore", "payload": payload})
            assert tr.request({"op": "ping"})["worker_id"] == 0
        finally:
            svc.close()


#: A Linux pipe holds 64 KiB; a message past it takes several reads
#: and, on the writing side, several partial writes.
PIPE_BUFFER = 1 << 16


def _spec(n_lanes):
    return {
        "worker_id": 0,
        "lane_caps": np.full(n_lanes, 5 * GIB),
        "lanes": np.arange(n_lanes, dtype=np.intp), "track_peak": True,
    }


def _ledger(payload) -> dict:
    """A worker payload's kernel ledger as a flat message."""
    k = payload["kernel"]
    return {
        "free": k.st.free, "rel_t": k.st.rel_t, "rel_a": k.st.rel_a,
        "rel_l": k.st.rel_l, "rel_pos": k.st.rel_pos, **k.counters(),
    }


class _KillMidScatter(RecordingTransport):
    """Stops its child, sends it the ``at``-th chunk op, then SIGKILLs
    it: the op sits in the pipe and its reply never comes."""

    def __init__(self, inner, log, at):
        super().__init__(inner, log)
        self.at = at
        self.chunks = 0
        self.fired = False

    def send(self, op):
        if op.get("op") == "chunk":
            self.chunks += 1
        if self.chunks != self.at or self.fired:
            return super().send(op)
        self.fired = True
        pid = self.inner._proc.pid
        os.kill(pid, signal.SIGSTOP)
        super().send(op)
        os.kill(pid, signal.SIGKILL)


class TestRawChannel:
    """The subprocess channel: length-prefixed messages over two pipes."""

    def test_messages_past_the_pipe_buffer_round_trip(self):
        spec = _spec(64)
        ref = PlacementWorker(spec)
        tr = SubprocessTransport(0, spec)
        fresh = None
        try:
            rng = np.random.default_rng(3)
            n = 12_000
            t = np.sort(rng.uniform(0.0, 1e3, n))
            op = {
                "op": "fit", "t0": float(t[0]), "t_last": float(t[-1]),
                "t": t, "dur": rng.uniform(0.0, 5e3, n),
                "size": rng.uniform(0.0, 0.2 * GIB, n),
                "lane": rng.integers(0, 64, n).astype(np.intp), "ttl": None,
            }
            want = ref.handle(op)
            got = tr.request(op)
            assert len(encode(op)) > PIPE_BUFFER
            assert len(encode(got)) > PIPE_BUFFER
            assert same_message(want, got)
            assert not got["requested"].all()  # some rows were turned away

            # The ledger now holds ~12k pending releases: the state reply
            # and the restore op are both past the pipe buffer.
            payload = tr.request({"op": "state"})["payload"]
            assert len(encode({"payload": payload})) > PIPE_BUFFER
            assert same_message(_ledger(ref.payload()), _ledger(payload))
            fresh = SubprocessTransport(0, _spec(64))
            fresh.request({"op": "restore", "payload": payload})
            restored = fresh.request({"op": "state"})["payload"]
            assert same_message(_ledger(payload), _ledger(restored))
            nxt = dict(op, t=t + 2e3, t0=float(t[0] + 2e3),
                       t_last=float(t[-1] + 2e3))
            assert same_message(ref.handle(nxt), fresh.request(nxt))
        finally:
            tr.close()
            if fresh is not None:
                fresh.close()

    def test_sigkill_with_a_reply_outstanding_raises_worker_died(self):
        tr = SubprocessTransport(0, _spec(2))
        try:
            pid = tr._proc.pid
            os.kill(pid, signal.SIGSTOP)
            tr.send({"op": "ping"})
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDied, match="worker 0 died"):
                tr.recv()
            assert not tr.alive
            with pytest.raises(WorkerDied, match="not running"):
                tr.send({"op": "ping"})
        finally:
            tr.kill()

    def test_sigkill_mid_scatter_recovers_bit_identically(self, tmp_path):
        run = _tie_run("batch", "adaptive")
        trace = run["trace"]
        base, base_counters = _drive(
            PlacementService(_policy(run, trace), run["cap"], N_SHARDS,
                             mode="batch"),
            run,
        )
        svc = FleetRouter(
            _policy(run, trace), run["cap"], N_SHARDS, mode="batch",
            n_workers=2, transport="subprocess", worker_dir=tmp_path,
            worker_checkpoint_every=3,
        )
        pool = svc.pool
        killer = _KillMidScatter(pool.transports[1], [], at=4)
        pool.transports[1] = killer
        try:
            got, counters = _drive(svc, run)
            assert killer.fired
            assert pool.n_recoveries == 1
        finally:
            svc.close()
        assert_bit_identical(base, got, "sigkill mid-scatter")
        assert counters == base_counters

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_close_leaves_no_child_and_no_descriptor(self, tmp_path):
        def n_fds():
            return len(os.listdir("/proc/self/fd"))

        before = n_fds()
        run = _tie_run("batch", "adaptive")
        svc = FleetRouter(
            _policy(run, run["trace"]), run["cap"], N_SHARDS, mode="batch",
            n_workers=3, transport="subprocess", worker_dir=tmp_path,
        )
        pids = [tr._proc.pid for tr in svc.pool.transports]
        svc.kill_worker(1)
        svc.recover_worker(1)
        pids.append(svc.pool.transports[1]._proc.pid)
        _drive(svc, run)
        svc.close()
        for pid in pids:
            # Reaped: not even a zombie is left.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert n_fds() == before

    def test_child_exits_when_the_router_end_closes(self):
        tr = SubprocessTransport(0, _spec(2))
        try:
            assert tr.request({"op": "ping"})["ok"] == 1
            # Swap the router's op end for /dev/null: the pipe's last
            # write end closes, and the child reads end of file.
            null = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(null, tr._op_fd)
            finally:
                os.close(null)
            tr._proc.join(timeout=10.0)
            assert tr._proc.exitcode == 0
            assert not tr.alive
        finally:
            tr.close()

    def test_a_sibling_holds_no_earlier_channel_open(self):
        svc = FleetRouter(
            FirstFitPolicy(), 4 * GIB, 3, n_workers=3, transport="subprocess"
        )
        try:
            first, *rest = svc.pool.transports
            null = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(null, first._op_fd)
            finally:
                os.close(null)
            # Workers 1 and 2 were forked after worker 0's channel was
            # open; worker 0 still sees end of file at once.
            first._proc.join(timeout=10.0)
            assert first._proc.exitcode == 0
            for w, tr in enumerate(rest, 1):
                assert tr.request({"op": "ping"})["worker_id"] == w
        finally:
            first.kill()  # a stop op would go to /dev/null
            svc.close()
