"""Block transports: how the fleet router talks to its workers.

A :class:`~repro.serve.router.FleetRouter` scatter-gathers micro-batch
chunks to N :class:`~repro.serve.worker.PlacementWorker` instances.
The *transport* is the seam between them: an object that carries one
worker's op dicts (SoA column blocks, control ops, checkpoint
requests) to wherever the worker runs and brings its replies back.

Two implementations:

- :class:`InProcessTransport` — the worker lives in this process and
  ops execute synchronously on :meth:`request`.  Zero copies, zero
  serialization; the default, and the reference the subprocess
  transport is tested bit-identical against.
- :class:`SubprocessTransport` — the worker runs in a forked child
  process connected by two one-way ``os.pipe`` channels, ops down one
  and replies up the other.  Every message crosses as one
  :func:`encode` buffer behind an 8-byte length (see "Wire format"
  below).  A dead child (crash, kill, exit) surfaces as
  :class:`WorkerDied` on the next request, which is the router's
  signal to run per-worker recovery; by then the channel is closed
  and ``alive`` is false.  Each child holds only its own channel's
  ends, so it sees end of file as soon as the router closes them.

Both expose the same tiny surface — ``request`` (send one op, wait for
its reply), split ``send``/``recv`` halves (the router *scatters* one
chunk's ops to every worker before *gathering* any reply, which is
where subprocess workers overlap their compute), ``kill`` (hard-stop
the worker, simulating a crash), ``close`` (orderly shutdown),
``alive`` — so the router and the chaos suite never branch on which
one they hold.  A worker that raises while handling an op surfaces on
either transport, at :meth:`~WorkerTransport.recv`, as the same
exception: ``RuntimeError("worker N: <Type>: <message>")``, or a
:class:`~repro.serve.types.SnapshotMismatch` with that message when the
worker refused a checkpoint payload.

Wire format
-----------
:func:`encode` turns one message dict into bytes and :func:`decode`
turns them back; nothing else knows the layout.  The ``chunk`` and
``fit`` ops and their replies, which carry the job columns, have a
fixed layout: one header, then raw little-endian columns grouped by
dtype, with no key names on the wire.

- An op is the tag byte ``C`` and the header ``(flags, t0, t_last,
  rows, carried cancels)`` (flag 1: a ``fit`` op, flag 2: a TTL
  column, flag 4: cancel columns), then ``t``, ``dur``, ``size``,
  ``ttl`` (``f8``, ``ttl`` with flag 2 only) and ``lane`` (``i8``),
  then with flag 4 ``cancel_lane``, ``cancel_alloc`` (``i8``),
  ``cancel_release`` and ``cancel_catch`` (``f8``).
- A reply is the tag byte ``R`` and the header ``(flags, rows,
  lanes)`` (flag 1: a ``fit`` reply), then ``frac`` and, for a chunk
  reply, ``space`` and ``spill`` (``f8``), then ``alloc``, ``free``
  (one per lane) and ``counters`` (six values; ``i8``), then for a fit
  reply ``requested`` (``bool``).  The worker's reply lists are packed
  with one ``struct.pack``.

Decoding either gives numpy arrays of those dtypes that are
**read-only views** over the message bytes (:data:`OP_COLUMNS`,
:data:`CARRIED_COLUMNS`, :data:`REPLY_COLUMNS`): one ``frombuffer``
per dtype group, so a large ``fit`` op costs no per-value work until
the worker takes its columns as the lists
:meth:`~repro.storage.engine.ChunkKernel.admit_chunk` runs on.

A message takes the layout only when its keys are exactly the
layout's, in its order (``ttl`` may be ``None``; the cancel columns
come all four or not at all), and its columns have consistent lengths
and pack exactly: an op column is a list or a 1-D array of its dtype,
and a reply is packed by value.  Every other message — the control ops
and their replies, nested payloads (``restore`` and ``state``, metrics
state, span rings, ``resize`` evictions), and a chunk message that
does not fit the layout — is the tag byte ``P`` followed by its
pickle.  Decoding gives the same keys in the same order and bit-exact
values (NaN and ``-0.0`` included); a chunk message's columns may be
sent as lists or arrays, so it equals its decoded copy, by
:func:`same_message`, once both pass through :func:`column_arrays`.

On a subprocess channel each message is its length as a little-endian
``u64`` followed by its :func:`encode` bytes, written with one
``os.write`` (continued after a partial write) and usually read with
one ``os.readv`` into the channel's kept buffer.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import select
import signal
import struct
import time
from abc import ABC, abstractmethod

import numpy as np

from .types import SnapshotMismatch

__all__ = [
    "encode",
    "decode",
    "same_message",
    "column_arrays",
    "RecordingTransport",
    "WorkerDied",
    "WorkerTransport",
    "InProcessTransport",
    "SubprocessTransport",
]


_OP = ord("C")
_REPLY = ord("R")
_PICKLE = ord("P")

#: Chunk op header: tag, flags, ``t0``, ``t_last``, rows, carried cancels.
_OP_HEAD = struct.Struct("<cBddII")
#: Chunk reply header: tag, flags, rows, lanes.
_REPLY_HEAD = struct.Struct("<cBII")
_FIT = 1
_TTL = 2
_CARRIED = 4

_F8, _I8, _BOOL = np.dtype("<f8"), np.dtype("<i8"), np.dtype("?")

#: The columns of a chunk op, in wire order, and the dtype of each
#: (``ttl`` may be ``None`` instead).
OP_COLUMNS = {"t": _F8, "dur": _F8, "size": _F8, "lane": _I8, "ttl": _F8}
#: The columns an op carries its worker's queued cancels in, in the
#: order of a queue entry, and their dtypes.
CARRIED_COLUMNS = {
    "cancel_lane": _I8, "cancel_alloc": _I8,
    "cancel_release": _F8, "cancel_catch": _F8,
}
#: A chunk reply's columns by kind, in wire order, and their dtypes;
#: ``counters`` holds :meth:`PlacementWorker._counters`' six values in
#: its order.
REPLY_COLUMNS = {
    "chunk": {
        "frac": _F8, "alloc": _I8, "free": _I8, "counters": _I8,
        "space": _F8, "spill": _F8,
    },
    "fit": {
        "frac": _F8, "alloc": _I8, "free": _I8, "counters": _I8,
        "requested": _BOOL,
    },
}

CARRIED_KEYS = tuple(CARRIED_COLUMNS)
_OP_KEYS = ("op", "t0", "t_last", *OP_COLUMNS)
_CARRIED_OP_KEYS = _OP_KEYS + CARRIED_KEYS
_CHUNK_REPLY_KEYS = tuple(REPLY_COLUMNS["chunk"])
_FIT_REPLY_KEYS = tuple(REPLY_COLUMNS["fit"])
_ALL_OP_COLUMNS = {**OP_COLUMNS, **CARRIED_COLUMNS}


def column_arrays(msg: dict) -> dict:
    """``msg`` with each chunk-layout column, list or array, as an array
    of its wire dtype, and any other message as it is: the form in which
    a message and its decoded copy, or an in-process reply and the same
    reply off the wire, compare bit for bit with :func:`same_message`."""
    if msg.get("op") in ("chunk", "fit"):
        dtypes = _ALL_OP_COLUMNS
    elif "frac" in msg:
        dtypes = REPLY_COLUMNS["fit" if "requested" in msg else "chunk"]
    else:
        return msg
    return {
        k: v if v is None or k not in dtypes else np.asarray(v, dtypes[k])
        for k, v in msg.items()
    }


class _NotFixed(Exception):
    """The message does not fit the fixed chunk layout."""


def _column(col, code: str, dtype: np.dtype) -> bytes:
    """One op column as raw bytes: ``tobytes`` for an array of its dtype
    (the router's columns), one ``struct.pack`` for a list (carried
    cancels, replayed ops)."""
    if type(col) is np.ndarray:
        if col.dtype != dtype or col.ndim != 1:
            raise _NotFixed
        return col.tobytes()
    if type(col) is not list:
        raise _NotFixed
    return struct.pack(f"<{len(col)}{code}", *col)


def _encode_op(msg: dict, fit: bool) -> bytes:
    keys = tuple(msg)
    carried = keys == _CARRIED_OP_KEYS
    if not carried and keys != _OP_KEYS:
        raise _NotFixed
    _, t0, t_last, t, dur, size, lane, ttl, *cancels = msg.values()
    n = len(t)
    floats = [t, dur, size] if ttl is None else [t, dur, size, ttl]
    m = len(cancels[0]) if carried else 0
    if (
        len(lane) != n or any(len(c) != n for c in floats)
        or any(len(c) != m for c in cancels)
    ):
        raise _NotFixed
    flags = (
        (_FIT if fit else 0) | (0 if ttl is None else _TTL)
        | (_CARRIED if carried else 0)
    )
    parts = [_OP_HEAD.pack(b"C", flags, t0, t_last, n, m)]
    parts += [_column(c, "d", _F8) for c in floats]
    parts.append(_column(lane, "q", _I8))
    if carried:
        c_lane, c_alloc, c_release, c_catch = cancels
        parts += (
            _column(c_lane, "q", _I8), _column(c_alloc, "q", _I8),
            _column(c_release, "d", _F8), _column(c_catch, "d", _F8),
        )
    return b"".join(parts)


def _encode_reply(msg: dict) -> bytes:
    """A chunk reply, header and columns packed by value in one
    ``struct.pack`` (the worker's lists)."""
    keys = tuple(msg)
    fit = keys == _FIT_REPLY_KEYS
    if not fit and keys != _CHUNK_REPLY_KEYS:
        raise _NotFixed
    frac, alloc, free, counters, *rest = msg.values()
    n = len(frac)
    lanes = len(free)
    if len(alloc) != n or len(counters) != 6 or any(len(c) != n for c in rest):
        raise _NotFixed
    if fit:
        (requested,) = rest
        return struct.pack(
            f"<cBII{n}d{n + lanes + 6}q{n}?", b"R", _FIT, n, lanes,
            *frac, *alloc, *free, *counters, *requested,
        )
    space, spill = rest
    return struct.pack(
        f"<cBII{3 * n}d{n + lanes + 6}q", b"R", 0, n, lanes,
        *frac, *space, *spill, *alloc, *free, *counters,
    )


def encode(msg: dict) -> bytes:
    """One message dict as wire bytes: the fixed chunk layout for a
    chunk op or reply that fits it, else a pickle (see "Wire format" in
    the module docstring)."""
    try:
        kind = msg.get("op")
        if kind == "chunk" or kind == "fit":
            return _encode_op(msg, kind == "fit")
        if kind is None and "frac" in msg:
            return _encode_reply(msg)
    except (_NotFixed, struct.error, TypeError, OverflowError):
        pass
    return b"P" + pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)


def _decode_op(data: bytes) -> dict:
    _, flags, t0, t_last, n, m = _OP_HEAD.unpack_from(data)
    pos = _OP_HEAD.size
    k = 4 if flags & _TTL else 3
    f = np.frombuffer(data, _F8, k * n, pos)
    pos += 8 * k * n
    msg = {
        "op": "fit" if flags & _FIT else "chunk", "t0": t0, "t_last": t_last,
        "t": f[:n], "dur": f[n:2 * n], "size": f[2 * n:3 * n],
        "lane": np.frombuffer(data, _I8, n, pos),
        "ttl": f[3 * n:] if k == 4 else None,
    }
    if flags & _CARRIED:
        pos += 8 * n
        i = np.frombuffer(data, _I8, 2 * m, pos)
        f = np.frombuffer(data, _F8, 2 * m, pos + 16 * m)
        msg["cancel_lane"], msg["cancel_alloc"] = i[:m], i[m:]
        msg["cancel_release"], msg["cancel_catch"] = f[:m], f[m:]
    return msg


def _decode_reply(data: bytes) -> dict:
    _, flags, n, lanes = _REPLY_HEAD.unpack_from(data)
    pos = _REPLY_HEAD.size
    fit = flags & _FIT
    k = 1 if fit else 3
    f = np.frombuffer(data, _F8, k * n, pos)
    pos += 8 * k * n
    i = np.frombuffer(data, _I8, n + lanes + 6, pos)
    msg = {
        "frac": f[:n], "alloc": i[:n], "free": i[n:n + lanes],
        "counters": i[n + lanes:],
    }
    if fit:
        msg["requested"] = np.frombuffer(data, _BOOL, n, pos + 8 * (n + lanes + 6))
    else:
        msg["space"], msg["spill"] = f[n:2 * n], f[2 * n:]
    return msg


def decode(data: bytes) -> dict:
    """The message dict :func:`encode` turned into ``data``."""
    tag = data[0]
    if tag == _PICKLE:
        return pickle.loads(memoryview(data)[1:])
    if tag == _OP:
        return _decode_op(data)
    if tag == _REPLY:
        return _decode_reply(data)
    raise ValueError(f"not a worker message (tag byte {tag!r})")


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        # dtype equality alone would let ``l`` stand in for ``q``.
        return (
            a.dtype == b.dtype and a.dtype.type is b.dtype.type
            and a.shape == b.shape and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return same_message(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def same_message(a: dict, b: dict) -> bool:
    """Whether ``b`` is ``a`` down to the bit, as :func:`decode` must
    return it: the same keys in the same order, the same types and
    exact dtypes, bit-equal floats (NaN and ``-0.0`` included) and array
    bytes, nested dicts, lists and tuples compared the same way."""
    return list(a) == list(b) and all(_same_value(a[k], b[k]) for k in a)


#: Worker-side exception classes a transport re-raises as themselves;
#: any other handler error surfaces as a plain ``RuntimeError``.
_KEPT_ERRORS = {"SnapshotMismatch": SnapshotMismatch}


def _worker_error(worker_id: int, name: str, message: str) -> RuntimeError:
    """The exception either transport raises for a handler's error."""
    cls = _KEPT_ERRORS.get(name, RuntimeError)
    return cls(f"worker {worker_id}: {name}: {message}")


class WorkerDied(RuntimeError):
    """The worker behind a transport is gone (crashed, killed, exited).

    Carries the worker id so the router knows which lane subset lost
    its owner; the op that hit the failure was logged to the worker's
    WAL before dispatch, so recovery replays it.
    """

    def __init__(self, worker_id: int, detail: str = ""):
        self.worker_id = worker_id
        msg = f"worker {worker_id} died"
        super().__init__(f"{msg}: {detail}" if detail else msg)


class WorkerTransport(ABC):
    """One router-to-worker channel; see the module docstring."""

    #: Router-assigned worker id, for error attribution.
    worker_id: int

    @abstractmethod
    def send(self, op: dict) -> None:
        """Dispatch one op dict without waiting for the reply.

        Pair with :meth:`recv`; the router scatters a chunk by calling
        ``send`` on every participating transport before ``recv`` on
        any, so subprocess workers compute concurrently.
        """

    @abstractmethod
    def recv(self) -> dict:
        """Block for the reply to the oldest unanswered :meth:`send`.

        Raises :class:`WorkerDied` when the worker cannot answer.
        """

    def request(self, op: dict) -> dict:
        """Send one op dict, block for the worker's reply dict.

        Raises :class:`WorkerDied` when the worker cannot answer.
        """
        self.send(op)
        return self.recv()

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop the worker (no drain, no checkpoint) — a crash."""

    @abstractmethod
    def close(self) -> None:
        """Orderly shutdown: deliver a ``stop`` op and reap the worker."""

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Whether the worker can still answer requests."""


class InProcessTransport(WorkerTransport):
    """The worker object lives here; ops run synchronously.

    ``kill`` flips a dead flag and drops the worker, so crash/recover
    choreography (and its tests) run identically to the subprocess
    transport — just without a second process.
    """

    def __init__(self, worker_id: int, worker):
        self.worker_id = worker_id
        self._worker = worker
        self._dead = False
        self._replies: list = []

    def send(self, op: dict) -> None:
        if self._dead or self._worker is None:
            raise WorkerDied(self.worker_id, "killed (in-process)")
        # Synchronous execution; the reply -- or the handler's error,
        # as a subprocess worker would send it -- queues until recv.
        try:
            self._replies.append(self._worker.handle(op))
        except Exception as exc:
            self._replies.append(exc)

    def recv(self) -> dict:
        if not self._replies:
            raise WorkerDied(self.worker_id, "recv with no pending send")
        reply = self._replies.pop(0)
        if isinstance(reply, Exception):
            raise _worker_error(
                self.worker_id, type(reply).__name__, str(reply)
            ) from reply
        return reply

    def kill(self) -> None:
        self._dead = True
        self._worker = None
        self._replies.clear()

    def close(self) -> None:
        self._worker = None
        self._dead = True

    @property
    def alive(self) -> bool:
        return not self._dead and self._worker is not None


#: The length prefix of every message on a subprocess channel.
_LENGTH = struct.Struct("<Q")

#: Seconds an orderly shutdown waits for a worker, at each step.
_CLOSE_TIMEOUT = 5.0

#: Size of a channel's kept read buffer; a longer message grows it for
#: as long as it takes to read.
_READ_BUFFER = 1 << 16


def _write_message(fd: int, data: bytes) -> None:
    """Write one message to ``fd``: its 8-byte length, then its bytes.

    One ``os.write`` per message; a partial write (a message larger
    than the pipe buffer, or a signal mid-write) continues from where
    it stopped.
    """
    view = memoryview(_LENGTH.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _wait(fd: int, event: int, deadline: float) -> bool:
    """Whether ``fd`` is ready for ``event`` (``select.POLLIN`` or
    ``POLLOUT``; a closed other end counts as ready) before the
    ``time.monotonic()`` ``deadline``."""
    poller = select.poll()
    poller.register(fd, event)
    left = max(0.0, deadline - time.monotonic())
    return bool(poller.poll(math.ceil(left * 1000)))


class _Reader:
    """The read end of a channel, with a kept buffer.

    A message usually arrives in one ``os.readv`` into the buffer;
    bytes read past a message's end stay for the next one.  End of file
    raises ``EOFError``, also in the middle of a message.
    """

    __slots__ = ("fd", "buf", "start", "end")

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = bytearray(_READ_BUFFER)
        self.start = 0  # first unconsumed byte
        self.end = 0  # one past the last byte read

    def _fill(self, need: int, deadline: float | None) -> None:
        """Read until at least ``need`` unconsumed bytes are buffered."""
        if self.start + need > len(self.buf):
            # Move the unconsumed bytes to the front, growing the
            # buffer when the message does not fit in it.
            rest = self.buf[self.start:self.end]
            if need > len(self.buf):
                self.buf = bytearray(max(need, 2 * len(self.buf)))
            self.buf[:len(rest)] = rest
            self.start, self.end = 0, len(rest)
        view = memoryview(self.buf)
        while self.end - self.start < need:
            if deadline is not None and not _wait(self.fd, select.POLLIN, deadline):
                raise TimeoutError("no reply in time")
            got = os.readv(self.fd, [view[self.end:]])
            if not got:
                raise EOFError("channel closed")
            self.end += got

    def read(self, deadline: float | None = None) -> bytes:
        """The next message's bytes; ``TimeoutError`` when they have not
        all arrived by the ``time.monotonic()`` ``deadline``, if given."""
        if self.end - self.start < 8:
            self._fill(8, deadline)
        (n,) = _LENGTH.unpack_from(self.buf, self.start)
        if self.end - self.start < 8 + n:
            self._fill(8 + n, deadline)
        a = self.start + 8
        self.start = a + n
        data = bytes(memoryview(self.buf)[a:self.start])
        if self.start == self.end:
            self.start = self.end = 0
            if len(self.buf) > _READ_BUFFER:
                # A message outgrew the buffer: do not keep its size.
                self.buf = bytearray(_READ_BUFFER)
        return data


#: The router's ends of every open subprocess channel in this process.
#: A child forked later inherits them all and closes them at once; a
#: child that kept a sibling's ends open would keep that sibling from
#: seeing end of file.  Process-wide, not per fleet: a fork copies every
#: open descriptor, whichever router owns it.
_ROUTER_FDS: set[int] = set()


def _child_main(op_fd: int, reply_fd: int, parent_fds: tuple, spec: dict) -> None:
    """Entry point of a forked worker child: serve ops until stop/EOF.

    ``parent_fds`` are the router's ends of this channel and of every
    other open one, which the fork copied; closing them here is what
    lets each child see end of file once the router's end of its own
    channel closes.
    """
    # Import here: the child only needs the worker, and a top-level
    # import would make transport <-> worker circular.
    from .worker import PlacementWorker

    for fd in parent_fds:
        try:
            os.close(fd)
        except OSError:  # closed under the router's feet already
            pass
    reader = _Reader(op_fd)
    try:
        worker = PlacementWorker.from_spec(spec)
        while True:
            try:
                op = decode(reader.read())
            except EOFError:
                break
            try:
                reply = worker.handle(op)
            except Exception as exc:  # surface, don't kill the child
                reply = {"error": type(exc).__name__, "message": str(exc)}
            try:
                _write_message(reply_fd, encode(reply))
            except OSError:  # the router's end is gone
                break
            if op.get("op") == "stop":
                break
    finally:
        os.close(op_fd)
        os.close(reply_fd)


class SubprocessTransport(WorkerTransport):
    """A forked child process behind two one-way pipes.

    Fork (not spawn): the child inherits the parent's imports, so
    startup is milliseconds, and the worker spec — plain dict of
    scalars and small arrays — still travels explicitly so a recovery
    respawn builds the identical worker.  Ops go down one ``os.pipe``
    and replies come up the other, each message an :func:`encode`
    buffer behind an 8-byte little-endian length: one message each
    way per op.  End of file, a broken pipe and every other ``OSError``
    on the channel are normalized to :class:`WorkerDied`.
    """

    def __init__(self, worker_id: int, spec: dict):
        self.worker_id = worker_id
        self._spec = spec
        op_r, op_w = os.pipe()
        reply_r, reply_w = os.pipe()
        ctx = multiprocessing.get_context("fork")
        try:
            self._proc = ctx.Process(
                target=_child_main,
                args=(op_r, reply_w, (op_w, reply_r, *_ROUTER_FDS), spec),
                daemon=True,
            )
            self._proc.start()
        except BaseException:
            for fd in (op_r, op_w, reply_r, reply_w):
                os.close(fd)
            raise
        os.close(op_r)
        os.close(reply_w)
        self._op_fd = op_w
        self._reader = _Reader(reply_r)
        _ROUTER_FDS.update((op_w, reply_r))
        self._open = True

    def send(self, op: dict) -> None:
        if not self.alive:
            raise WorkerDied(self.worker_id, "process not running")
        try:
            _write_message(self._op_fd, encode(op))
        except OSError as exc:
            raise self._died(exc) from None

    def recv(self) -> dict:
        if not self._open:
            raise WorkerDied(self.worker_id, "channel closed")
        try:
            reply = decode(self._reader.read())
        except (EOFError, OSError) as exc:
            raise self._died(exc) from None
        if "error" in reply:
            raise _worker_error(
                self.worker_id, reply["error"], reply["message"]
            )
        return reply

    def _died(self, exc: BaseException) -> WorkerDied:
        """The channel broke: reap the child, close the channel, and
        return the :class:`WorkerDied` to raise, so ``alive`` is false
        from the moment it is raised.

        End of file arrives when the child's files close, which is
        before the child can be reaped; the bounded join waits that
        moment out, and a child still running after it is killed.
        """
        self._proc.join(timeout=5.0)
        self.kill()
        return WorkerDied(self.worker_id, str(exc))

    def _release(self) -> None:
        """Close the router's ends and the reaped child's handles."""
        if not self._open:
            return
        self._open = False
        _ROUTER_FDS.difference_update((self._op_fd, self._reader.fd))
        os.close(self._op_fd)
        os.close(self._reader.fd)
        if self._proc.exitcode is not None:
            self._proc.close()

    def kill(self) -> None:
        """SIGKILL the child — the hardest crash a process can have."""
        if self._open and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)
        self._release()

    def close(self) -> None:
        """Send a ``stop`` op and reap the child.  Every wait is bounded
        by :data:`_CLOSE_TIMEOUT`: a child that cannot take the op, or
        does not answer it in time, is killed instead."""
        if self._open and self._proc.is_alive():
            deadline = time.monotonic() + _CLOSE_TIMEOUT
            answered = False
            try:
                if _wait(self._op_fd, select.POLLOUT, deadline):
                    _write_message(self._op_fd, encode({"op": "stop"}))
                    self._reader.read(deadline)
                    answered = True
            except EOFError:  # the child closed its end: it is exiting
                answered = True
            except OSError:  # including TimeoutError
                pass
            if answered:
                self._proc.join(timeout=_CLOSE_TIMEOUT)
        self.kill()

    @property
    def alive(self) -> bool:
        return self._open and self._proc.is_alive()


class RecordingTransport(WorkerTransport):
    """Wraps a transport and appends every ``(op, reply)`` pair it
    carries to ``log`` — for inspecting a fleet run's wire traffic::

        pool.transports = [RecordingTransport(t, log) for t in pool.transports]

    An op whose reply never came (the worker raised or died) is not
    logged.
    """

    def __init__(self, inner: WorkerTransport, log: list):
        self.inner = inner
        self.worker_id = inner.worker_id
        self.log = log
        self._sent: list = []

    def send(self, op: dict) -> None:
        self.inner.send(op)
        self._sent.append(op)

    def recv(self) -> dict:
        op = self._sent.pop(0) if self._sent else None
        reply = self.inner.recv()
        self.log.append((op, reply))
        return reply

    def kill(self) -> None:
        self.inner.kill()

    def close(self) -> None:
        self.inner.close()

    @property
    def alive(self) -> bool:
        return self.inner.alive
