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
turns them back; nothing else knows the layout.  A *flat* message that
carries at least one array — string keys, every value ``None``,
``bool``, ``int`` (64-bit), ``float``, ``str`` or a 1-D native-order
bool/integer/float ``ndarray`` — is a frame: the tag byte ``F``, then
per key a one-byte key length, the UTF-8 key, a one-byte type code and
the payload (nothing for ``None``/``True``/``False``, 8 little-endian
bytes for an ``int`` or ``float``, a ``u32`` length and UTF-8 bytes for
a ``str``, and for an array its dtype character, a ``u64`` element
count and its raw bytes).  The ``chunk`` and ``fit`` ops and their
replies (job column blocks) are frames.  Every other message is the
tag byte ``P`` followed by its pickle: nested payloads (``restore`` and
``state``, metrics state, span rings, ``resize`` evictions), and the
control ops and replies that hold only scalars (``cancel``, ``resize``,
``ping``), which C pickle handles faster than a Python loop frames
them.  A decoded message has the same keys in the same order and the
same types; floats are bit-exact and a frame's arrays are fresh,
writable copies.  :func:`same_message` is that equality.

On a subprocess channel each message is its length as a little-endian
``u64`` followed by its :func:`encode` bytes, written with one
``os.write`` (continued after a partial write) and usually read with
one ``os.readv`` into the channel's kept buffer.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
from abc import ABC, abstractmethod

import numpy as np

from .types import SnapshotMismatch

__all__ = [
    "encode",
    "decode",
    "same_message",
    "RecordingTransport",
    "WorkerDied",
    "WorkerTransport",
    "InProcessTransport",
    "SubprocessTransport",
]


_FRAME = ord("F")
_PICKLE = ord("P")
_INT = struct.Struct("<cq")
_FLOAT = struct.Struct("<cd")
_STR_HEAD = struct.Struct("<cI")  # "s", UTF-8 length
_ARRAY_HEAD = struct.Struct("<ccQ")  # "a", dtype char, element count

#: Array dtypes a frame carries (bool, the integers and the floats, in
#: native byte order), keyed by type character rather than by dtype:
#: ``l`` and ``q`` compare equal but are distinct scalar types.
_DTYPES = {ord(c): np.dtype(c) for c in "?bBhHiIlLqQefdg"}
_DTYPE_CHARS = {chr(c): bytes((c,)) for c in _DTYPES}

#: The one-byte length prefix of a key, by length.
_KEY_LENGTHS = tuple(bytes((n,)) for n in range(256))


class _NotFlat(Exception):
    """The message holds a value a frame cannot carry."""


def _frame(msg: dict) -> bytes:
    parts = [b"F"]
    add = parts.append
    for key, v in msg.items():
        if type(key) is not str:
            raise _NotFlat
        kb = key.encode()
        if len(kb) > 255:
            raise _NotFlat
        add(_KEY_LENGTHS[len(kb)])
        add(kb)
        t = type(v)
        if t is np.ndarray:
            dt = v.dtype
            char = _DTYPE_CHARS.get(dt.char)
            if char is None or v.ndim != 1 or not dt.isnative:
                raise _NotFlat
            add(_ARRAY_HEAD.pack(b"a", char, v.size))
            add(v.tobytes())
        elif t is bool:
            add(b"T" if v else b"F")
        elif isinstance(v, float):
            add(_FLOAT.pack(b"d", v))
        elif isinstance(v, int):
            add(_INT.pack(b"i", v))  # struct.error past 64 bits
        elif v is None:
            add(b"N")
        elif isinstance(v, str):
            sb = v.encode()
            add(_STR_HEAD.pack(b"s", len(sb)))
            add(sb)
        else:
            raise _NotFlat
    return b"".join(parts)


def encode(msg: dict) -> bytes:
    """One message dict as wire bytes: a frame if it is flat and carries
    an array, else a pickle (see "Wire format" in the module
    docstring)."""
    if np.ndarray in map(type, msg.values()):
        try:
            return _frame(msg)
        except (_NotFlat, struct.error, UnicodeEncodeError):
            pass
    return b"P" + pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> dict:
    """The message dict :func:`encode` turned into ``data``."""
    tag = data[0]
    if tag == _PICKLE:
        return pickle.loads(memoryview(data)[1:])
    if tag != _FRAME:
        raise ValueError(f"not a worker message (tag byte {tag!r})")
    msg = {}
    pos, end = 1, len(data)
    while pos < end:
        k = pos + 1 + data[pos]
        key = data[pos + 1:k].decode()
        code = data[k]
        pos = k + 1
        if code == 0x61:  # "a": dtype char, u64 count, raw bytes
            _, char, n = _ARRAY_HEAD.unpack_from(data, k)
            pos += 9
            v = np.frombuffer(data, _DTYPES[char[0]], n, pos).copy()
            pos += v.nbytes
        elif code == 0x69:  # "i"
            _, v = _INT.unpack_from(data, k)
            pos += 8
        elif code == 0x64:  # "d"
            _, v = _FLOAT.unpack_from(data, k)
            pos += 8
        elif code == 0x4E:  # "N"
            v = None
        elif code == 0x54:  # "T"
            v = True
        elif code == 0x46:  # "F"
            v = False
        elif code == 0x73:  # "s": u32 length, UTF-8
            _, n = _STR_HEAD.unpack_from(data, k)
            pos += 4
            v = data[pos:pos + n].decode()
            pos += n
        else:
            raise ValueError(f"unknown type code {code!r} for key {key!r}")
        msg[key] = v
    return msg


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

    def _fill(self, need: int) -> None:
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
            got = os.readv(self.fd, [view[self.end:]])
            if not got:
                raise EOFError("channel closed")
            self.end += got

    def read(self) -> bytes:
        """The next message's bytes."""
        if self.end - self.start < 8:
            self._fill(8)
        (n,) = _LENGTH.unpack_from(self.buf, self.start)
        if self.end - self.start < 8 + n:
            self._fill(8 + n)
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
        if self._open and self._proc.is_alive():
            try:
                _write_message(self._op_fd, encode({"op": "stop"}))
                self._reader.read()
            except (EOFError, OSError):
                pass
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5.0)
        self._release()

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
