"""The worker wire format and the transports' error semantics.

``encode``/``decode`` carry every router-to-worker message over the
subprocess pipe: ``chunk``/``fit`` ops (tag ``C``) and their replies
(tag ``R``) in a fixed layout, anything else as a pickle (tag ``P``).
A decoded chunk message's columns must be read-only arrays of the wire
dtypes, and it must equal its original, keys in order and values bit
for bit, once both are converted to the wire dtypes (``column_arrays``).
"""

import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import FirstFitPolicy
from repro.serve import FleetRouter, PlacementService, SnapshotMismatch
from repro.serve.transport import (
    _CLOSE_TIMEOUT,
    CARRIED_COLUMNS,
    OP_COLUMNS,
    REPLY_COLUMNS,
    RecordingTransport,
    SubprocessTransport,
    WorkerDied,
    column_arrays,
    decode,
    encode,
    same_message,
)
from repro.serve.worker import PlacementWorker
from repro.units import GIB

from test_fleet_ties import N_SHARDS, _drive, _policy, _tie_trace
from test_serve_service import assert_bit_identical

#: Data-plane ops whose messages (op and reply) carry job column blocks
#: and take the fixed layout, and the standalone cancel, which holds
#: only scalars and pickles.
FIXED_OPS = ("chunk", "fit")
PICKLED_OPS = ("cancel",)

#: Float values every float column mixes in.
SPECIAL = np.array([math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, 1.5])

#: Row counts; 3,000 rows put an op or a reply past 64 KiB.
ROWS = (0, 1, 3, 40, 3000)


def _column(rng, dtype, n, as_list):
    """``n`` random values of a wire dtype: floats mixed with the
    special values, integers over the whole ``int64`` range."""
    if dtype.kind == "f":
        col = np.where(
            rng.random(n) < 0.4, rng.choice(SPECIAL, n),
            rng.uniform(-1e15, 1e15, n),
        )
    elif dtype.kind == "i":
        col = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    else:
        col = rng.random(n) < 0.5
    return col.tolist() if as_list else col


@st.composite
def chunk_ops(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from(ROWS))
    as_list = draw(st.booleans())
    msg = {
        "op": draw(st.sampled_from(FIXED_OPS)),
        "t0": draw(st.floats()), "t_last": draw(st.floats()),
    }
    for key, dtype in OP_COLUMNS.items():
        msg[key] = _column(rng, dtype, n, as_list)
    if draw(st.booleans()):
        msg["ttl"] = None
    m = draw(st.sampled_from((None, 0, 1, 3)))
    if m is not None:
        for key, dtype in CARRIED_COLUMNS.items():
            msg[key] = _column(rng, dtype, m, as_list)
    return msg


@st.composite
def chunk_replies(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(FIXED_OPS))
    n = draw(st.sampled_from(ROWS))
    lanes = draw(st.sampled_from((1, 4, 9000)))  # 9,000 lanes: 72 KB
    as_list = draw(st.booleans())
    sizes = {"free": lanes, "counters": 6}
    return {
        key: _column(rng, dtype, sizes.get(key, n), as_list)
        for key, dtype in REPLY_COLUMNS[kind].items()
    }


class TestFrameRoundTrip:
    """Messages through ``encode``/``decode``: chunk ops and replies in
    the fixed layout, everything else as a pickle."""

    @settings(max_examples=200, deadline=None)
    @given(msg=chunk_ops())
    def test_chunk_ops_round_trip_to_read_only_arrays(self, msg):
        wire = encode(msg)
        assert wire[:1] == b"C"
        got = decode(wire)
        assert list(got) == list(msg)
        for key, dtype in {**OP_COLUMNS, **CARRIED_COLUMNS}.items():
            if key not in got or got[key] is None:
                assert key not in msg or msg[key] is None
                continue
            assert type(got[key]) is np.ndarray and got[key].dtype == dtype
            assert not got[key].flags.writeable
        assert same_message(column_arrays(msg), got)

    @settings(max_examples=200, deadline=None)
    @given(msg=chunk_replies())
    def test_chunk_replies_round_trip_to_read_only_arrays(self, msg):
        wire = encode(msg)
        assert wire[:1] == b"R"
        got = decode(wire)
        kind = "fit" if "requested" in msg else "chunk"
        assert list(got) == list(REPLY_COLUMNS[kind])
        for key, dtype in REPLY_COLUMNS[kind].items():
            assert type(got[key]) is np.ndarray and got[key].dtype == dtype
            assert not got[key].flags.writeable
        assert same_message(column_arrays(msg), got)

    def test_large_messages_are_past_the_pipe_buffer(self):
        rng = np.random.default_rng(0)
        op = {"op": "chunk", "t0": 0.0, "t_last": 1.0}
        op.update({k: _column(rng, d, 3000, True) for k, d in OP_COLUMNS.items()})
        reply = {
            k: _column(rng, d, 6 if k == "counters" else 3000, True)
            for k, d in REPLY_COLUMNS["chunk"].items()
        }
        for msg in (op, reply):
            assert len(encode(msg)) > PIPE_BUFFER
            assert same_message(column_arrays(msg), column_arrays(decode(encode(msg))))

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

    _OP = {
        "op": "chunk", "t0": 0.0, "t_last": 1.0, "t": [0.5], "dur": [2.0],
        "size": [3.0], "lane": [0], "ttl": None,
    }
    _REPLY = {
        "frac": [1.0], "alloc": [3], "free": [4, 5], "counters": [0] * 6,
        "space": [1.0], "spill": [math.nan],
    }

    @pytest.mark.parametrize("msg", [
        {**_OP, "extra": 1},
        {k: v for k, v in _OP.items() if k != "ttl"},
        dict(reversed(_OP.items())),
        {**_OP, "cancel_lane": [1]},
        {**_OP, "lane": [0.5]},
        {**_OP, "lane": np.array([0.5])},
        {**_OP, "lane": np.array([0], dtype=np.int32)},
        {**_OP, "t": np.array([0.5], dtype=np.float32)},
        {**_OP, "t": np.zeros((1, 1))},
        {**_OP, "t": (0.5,)},
        {**_OP, "dur": [1.0, 2.0]},
        {**_OP, "lane": [2**63]},
        {**_OP, "size": [10**400]},
        {**_OP, "t0": "0"},
        {**_REPLY, "extra": 1},
        {**_REPLY, "counters": [0] * 5},
        {**_REPLY, "alloc": [1.5]},
        {**_REPLY, "space": [1.0, 2.0]},
        {**_REPLY, "requested": [True]},
    ])
    def test_array_messages_a_frame_cannot_carry_take_the_pickle_tag(
        self, msg
    ):
        wire = encode(msg)
        assert wire[:1] == b"P"
        assert same_message(msg, decode(wire))

    def test_numpy_scalar_subclasses_encode_as_python(self):
        msg = {**self._OP, "t0": np.float64(-0.0), "t_last": np.float64(2.0)}
        wire = encode(msg)
        assert wire[:1] == b"C"
        got = decode(wire)
        assert type(got["t0"]) is float and math.copysign(1.0, got["t0"]) < 0
        assert type(got["t_last"]) is float and got["t_last"] == 2.0

    def test_rejects_unknown_tags(self):
        # ``F`` was the self-describing frame this layout replaced.
        for data in (b"X", b"F"):
            with pytest.raises(ValueError, match="tag"):
                decode(data)


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
            if kind not in FIXED_OPS + PICKLED_OPS:
                continue
            seen.add(kind)
            if "cancel_lane" in op:
                # Batch cancels ride a chunk op as columns.
                seen.add("carried cancel")
            for msg, tag in ((op, b"C"), (reply, b"R")):
                wire = encode(msg)
                if kind in PICKLED_OPS:
                    tag = b"P"
                assert wire[:1] == tag, (kind, sorted(msg))
                assert same_message(
                    column_arrays(msg), column_arrays(decode(wire))
                )
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
        "free": k.st.free, "heap": k.st.heap, "seq": k.st.seq,
        **k.counters(),
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
            assert same_message(column_arrays(want), got)
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
            assert same_message(
                column_arrays(ref.handle(nxt)), fresh.request(nxt)
            )
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

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize("how", ("devnull", "stopped"))
    def test_close_is_bounded_when_a_worker_never_answers_its_stop(
        self, how
    ):
        """Worker 0 never answers ``stop``: its op end goes to /dev/null,
        or it is stopped with its channel open.  Closing the fleet still
        returns within the bound, with no child and no descriptor left."""
        def n_fds():
            return len(os.listdir("/proc/self/fd"))

        before = n_fds()
        svc = FleetRouter(
            FirstFitPolicy(), 4 * GIB, 2, n_workers=2, transport="subprocess"
        )
        pids = [tr._proc.pid for tr in svc.pool.transports]
        first = svc.pool.transports[0]
        if how == "devnull":
            null = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(null, first._op_fd)
            finally:
                os.close(null)
        else:
            os.kill(pids[0], signal.SIGSTOP)
        t0 = time.monotonic()
        svc.close()
        assert time.monotonic() - t0 < 2 * _CLOSE_TIMEOUT
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert n_fds() == before
