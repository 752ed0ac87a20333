"""Submission write-ahead log for the online placement service.

Durability half of the fault-tolerance story: every state-mutating
operation the :class:`~repro.serve.PlacementService` accepts —
submissions (at their actual micro-batch granularity), ``complete``
events, ``drain`` calls, capacity shocks — is appended to the WAL
*before* it mutates service state.  A service rebuilt from a periodic
:meth:`~repro.serve.PlacementService.snapshot` checkpoint plus a replay
of the WAL suffix lands in the exact pre-crash state: the service
drives deterministic kernels, submission columns are stored as raw
float64 (and JSON round-trips the other floats exactly, shortest-repr),
and submission records carry the categorizer's output so model-driven
admission replays verbatim even through degraded intervals.

Record format
-------------
Two frame kinds share one file; one scanner reads old, new and mixed
files.

- **Line records** — every record without columns: ``complete``,
  ``drain``, ``shock``, the fleet router's worker ops, and submission
  records written before column frames existed::

      <crc32 hex, 8 chars> <compact JSON object>\\n

  The CRC covers the JSON payload.
- **Column frames** — one per submission::

      0xFB | crc32 | header length | raw length | header | raw

  The three integers are little-endian ``uint32``; the CRC covers
  everything after itself.  The first byte is not a hex digit, so a
  frame is never mistaken for a line.  The header is compact JSON:
  ``op``, ``n`` (rows), ``job_ids`` (``null`` when the log assigned
  them), optional ``cats`` / ``degraded``, ``rich`` for submissions of
  :class:`ShuffleJob` objects, and ``strs`` — the intern-table entries
  this record introduces.  The raw section is little-endian, in order:
  the six numeric columns (arrival, duration, size, read bytes, write
  bytes, read ops) as float64 ``(6, n)``; the rich jobs' resource
  values as float64, each job's in its key order; and int32
  intern-table indices ``(k, n)`` — pipeline and user, then for rich
  records cluster, archetype, metadata items and resource-key tuple.

Intern table
------------
Each file has one append-only table of the values its frames refer to:
strings (cluster, user, pipeline, archetype), each metadata dict as one
tuple of its keys then its values (its ordered items, flattened), and
each resource dict's key tuple.  The
first frame that uses a value adds it (its ``strs``); later frames cite
its index, so a one-job record carries numbers, not repeated strings.
The writer keeps the table in memory.  Readers and reopening for append
rebuild it while scanning from record 0, so a record sees exactly the
entries of the intact records before it, and a torn record's entries
are dropped with it.

A torn tail — a partial record from a crash mid-write, a length that
points past the end of the file, or a final record whose CRC does not
match — is *tolerated*: reads stop at the last intact record, and
opening the file for append truncates the torn bytes first so new
records never concatenate with them.  Corruption that is **followed
by** further intact records is indistinguishable from a torn tail to a
sequential scanner; reads stop there too, which is the conservative
choice (never replay past a hole).

Record kinds (the service writes and replays these):

- ``submit`` / ``batch`` / ``jobs`` column frames — one non-empty
  submission: a one-row :meth:`~repro.serve.PlacementService.submit`,
  a ``submit_batch`` / ``submit_block`` block, or a ``submit_jobs``
  block of rich jobs.  Replay turns every frame into log rows for the
  service's one submission core; the op only picks the latency
  histogram a replayed submission counts in (``submit``:
  ``serve_request_seconds``, the others ``serve_batch_seconds``).
  ``rich`` frames rebuild :class:`ShuffleJob` objects equal to the
  submitted ones, so the categorizer's Table-2 feature groups survive
  replay.  Read back, a frame is a dict of its header fields plus
  ``columns`` (six read-only float64 arrays) and either ``jobs`` or
  ``pipelines`` / ``users``;
- ``{"op": "complete", "job_id": ..., "time": ...}``;
- ``{"op": "drain"}``;
- ``{"op": "shock", "caps": [...]}`` — resolved per-lane capacities;
- legacy line submissions ``{"op": "submit", ...}``, ``{"op": "batch",
  ...}`` and ``{"op": "jobs", "jobs": [...]}`` (see
  :func:`job_from_record`), still replayed.

Job identities crossing the WAL must round-trip through JSON:
:func:`wal_job_id` turns numpy integers into ``int`` and rejects
anything else that is not a string, number or ``None`` (a tuple id
would come back as a list and no longer match its ``complete``).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from ..workloads.job import ShuffleJob

__all__ = [
    "WalCorruption", "WriteAheadLog", "job_to_record", "job_from_record",
    "wal_job_id", "wal_job_ids",
]

#: First byte of a column frame: never a hex digit, so never a line.
_MAGIC = 0xFB
#: Frame prefix: magic, CRC32, header length, raw length.  The CRC
#: covers the prefix bytes after itself (the lengths) onwards.
_PREFIX = struct.Struct("<BIII")
_LENGTHS = struct.Struct("<II")
_MAGIC_CRC = struct.Struct("<BI")
_CRC_FROM = _PREFIX.size - _LENGTHS.size
#: Compact JSON.  One configured ``JSONEncoder`` for every record, but
#: its ``encode`` still builds a new C encoder per call (about 4 µs,
#: against 2 µs for a reused one); one-row submits skip it (see
#: :data:`_ROW_HEADS`).
_json = json.JSONEncoder(separators=(",", ":")).encode
#: One submitted row's numeric columns.
_ROW = struct.Struct("<6d")
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")
#: Intern-index columns per row of a bare and of a rich frame.
_BARE, _RICH = 2, 6
#: One bare and one rich row's intern indices.
_BARE_IDX, _RICH_IDX = struct.Struct("<%di" % _BARE), struct.Struct("<%di" % _RICH)
#: The JSON header of a one-row submit whose record holds, in this key
#: order, nothing but its columns, one int job id and one int category,
#: and which interns nothing new: the bytes ``_json`` writes for it.
_ROW_HEADS = {
    ("op", "columns", "pipelines", "users", "job_ids", "cats"):
        b'{"op":"submit","job_ids":[%d],"cats":[%d],"n":1}',
    ("op", "columns", "jobs", "job_ids", "cats"):
        b'{"op":"submit","job_ids":[%d],"cats":[%d],"n":1,"rich":true}',
}
#: Record keys that travel in a frame's raw section, not its header.
_COLUMN_KEYS = frozenset({"columns", "pipelines", "users", "jobs"})
#: Job-id types JSON gives back unchanged.
_JSON_IDS = (str, int, float, type(None))
_JSON_ID_TYPES = frozenset({*_JSON_IDS, bool})


class WalCorruption(RuntimeError):
    """Raised when a WAL replay hits an unusable record."""


def wal_job_id(job_id):
    """``job_id`` as the WAL stores it.

    Numpy integers become ``int``; any other value that is not a
    string, number or ``None`` raises ``ValueError``, because JSON
    would not give it back unchanged.
    """
    if isinstance(job_id, _JSON_IDS):
        return job_id
    if isinstance(job_id, np.integer):
        return int(job_id)
    raise ValueError(
        f"job id {job_id!r} ({type(job_id).__name__}) does not round-trip "
        "through the WAL; use an int or a str"
    )


def wal_job_ids(job_ids) -> list:
    """A sequence of job ids as a new list of :func:`wal_job_id` values."""
    ids = job_ids.tolist() if isinstance(job_ids, np.ndarray) else list(job_ids)
    if not set(map(type, ids)) <= _JSON_ID_TYPES:
        ids = [wal_job_id(i) for i in ids]
    return ids


def job_to_record(job: ShuffleJob) -> dict:
    """Serialize one rich job as a legacy ``{"op": "jobs"}`` line entry."""
    return {
        "job_id": job.job_id,
        "cluster": job.cluster,
        "user": job.user,
        "pipeline": job.pipeline,
        "archetype": job.archetype,
        "arrival": job.arrival,
        "duration": job.duration,
        "size": job.size,
        "read_bytes": job.read_bytes,
        "write_bytes": job.write_bytes,
        "read_ops": job.read_ops,
        "metadata": job.metadata,
        "resources": job.resources,
    }


def job_from_record(rec: dict) -> ShuffleJob:
    """Rebuild the rich job a legacy ``{"op": "jobs"}`` line serialized."""
    return ShuffleJob(
        job_id=rec["job_id"],
        cluster=rec["cluster"],
        user=rec["user"],
        pipeline=rec["pipeline"],
        archetype=rec["archetype"],
        arrival=rec["arrival"],
        duration=rec["duration"],
        size=rec["size"],
        read_bytes=rec["read_bytes"],
        write_bytes=rec["write_bytes"],
        read_ops=rec["read_ops"],
        metadata=rec.get("metadata") or {},
        resources=rec.get("resources") or {},
    )


def _as_key(entry):
    """A table entry as read from JSON, back in its interned form."""
    return tuple(entry) if isinstance(entry, list) else entry


class _InternTable(dict):
    """One file's intern table: ``value -> index``, entries in order.

    Looking a value up interns it: a miss appends it to ``entries``.
    """

    def __init__(self):
        super().__init__()
        self.entries: list = []

    def __missing__(self, value) -> int:
        i = self[value] = len(self.entries)
        self.entries.append(value)
        return i

    def extend(self, stored) -> None:
        """Append the entries a frame's ``strs`` introduced."""
        for entry in stored:
            key = _as_key(entry)
            self[key] = len(self.entries)
            self.entries.append(key)

    def truncate(self, n: int) -> None:
        """Forget every entry from index ``n`` on."""
        for value in self.entries[n:]:
            self.pop(value, None)
        del self.entries[n:]


def _encode_frame(record: dict, table: _InternTable) -> bytes:
    """A submission record as one column frame.

    Interns the record's values into ``table``; the caller rolls the
    table back if the frame is not written.
    """
    n0 = len(table.entries)
    cols = record["columns"]
    jobs = record.get("jobs")
    if record["op"] == "submit":  # one row: scalars, no arrays
        return _encode_row(record, cols, jobs, table, n0)
    n = len(cols[0])
    raw = [c.astype(_F8, copy=False).tobytes() for c in cols]
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
        vals = list(chain.from_iterable([j.resources.values() for j in jobs]))
        raw.append(struct.pack("<%dd" % len(vals), *vals))
    raw.append(struct.pack("<%di" % len(idx), *idx))
    return _frame(_json_head(record, n, jobs, table, n0), b"".join(raw))


def _encode_row(record: dict, cols, jobs, table: _InternTable, n0: int) -> bytes:
    """A one-row ``submit`` record as one column frame.

    Scalar work only: ``struct`` packs the row and its indices, and a
    record that :data:`_ROW_HEADS` covers takes its header from the
    template instead of ``_json``.
    """
    if jobs is None:
        idx = _BARE_IDX.pack(table[record["pipelines"][0]], table[record["users"][0]])
        raw = _ROW.pack(*cols) + idx
    else:
        (j,) = jobs
        res = j.resources
        idx = _RICH_IDX.pack(
            table[j.pipeline], table[j.user], table[j.cluster], table[j.archetype],
            table[(*j.metadata, *j.metadata.values())], table[tuple(res)],
        )
        vals = res.values()
        raw = b"".join((_ROW.pack(*cols), struct.pack("<%dd" % len(vals), *vals), idx))
    head = _ROW_HEADS.get(tuple(record)) if len(table.entries) == n0 else None
    if head is not None:
        ids, cats = record["job_ids"], record["cats"]
        if isinstance(cats, np.ndarray):
            cats = cats.tolist()
        if (type(ids) is list and len(ids) == 1 and type(ids[0]) is int
                and type(cats) is list and len(cats) == 1 and type(cats[0]) is int):
            return _frame(head % (ids[0], cats[0]), raw)
    return _frame(_json_head(record, 1, jobs, table, n0), raw)


def _json_head(record: dict, n: int, jobs, table: _InternTable, n0: int) -> bytes:
    """A frame's header: the record's non-column keys as compact JSON."""
    head = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in record.items()
        if k not in _COLUMN_KEYS
    }
    head["n"] = n
    if jobs is not None:
        head["rich"] = True
    if len(table.entries) > n0:
        head["strs"] = table.entries[n0:]
    return _json(head).encode("utf-8")


def _frame(header: bytes, raw: bytes) -> bytes:
    """Prefix, ``header`` and ``raw`` as one CRC-covered frame."""
    body = b"".join((_LENGTHS.pack(len(header), len(raw)), header, raw))
    return _MAGIC_CRC.pack(_MAGIC, zlib.crc32(body)) + body


def _encode_line(record: dict) -> bytes:
    payload = _json(record).encode("utf-8")
    return b"%08x %b\n" % (zlib.crc32(payload), payload)


def _decode_line(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` on any framing/CRC failure."""
    try:
        head, payload = line.split(b" ", 1)
        if len(head) != 8 or int(head, 16) != zlib.crc32(payload):
            return None
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _frame_head(data: bytes, lo: int, mid: int, hi: int, table) -> dict | None:
    """Check a CRC-intact frame's header and indices; extend ``table``.

    ``data[lo:mid]`` is the header, ``data[mid:hi]`` the raw section.
    ``None`` when the frame is malformed (treated like a torn record).
    """
    try:
        head = json.loads(data[lo:mid])
    except ValueError:
        return None
    if not isinstance(head, dict):
        return None
    n = head.get("n")
    strs = head.pop("strs", [])
    if type(n) is not int or n < 0 or not isinstance(strs, list):
        return None
    k = _RICH if head.get("rich") else _BARE
    spare = hi - mid - (6 * 8 + k * 4) * n
    if spare < 0 or spare % 8 or (spare and k == _BARE):
        return None
    if n:
        idx = np.frombuffer(data, _I4, k * n, hi - k * 4 * n)
        if idx.min() < 0 or idx.max() >= len(table.entries) + len(strs):
            return None
    table.extend(strs)
    return head


def _materialize(head: dict, raw: bytes, entries: list) -> dict:
    """The record a frame holds: header fields plus decoded columns."""
    rec = dict(head)
    n = rec.pop("n")
    rich = rec.pop("rich", False)
    k = _RICH if rich else _BARE
    m = (len(raw) - (6 * 8 + k * 4) * n) // 8
    cols = np.frombuffer(raw, _F8, 6 * n).reshape(6, n)
    idx = np.frombuffer(raw, _I4, k * n, (6 * n + m) * 8).reshape(k, n).tolist()
    rec["columns"] = tuple(cols)
    if not rich:
        rec["pipelines"] = [entries[i] for i in idx[0]]
        rec["users"] = [entries[i] for i in idx[1]]
        return rec
    vals = np.frombuffer(raw, _F8, m, 6 * n * 8).tolist()
    jobs = []
    off = 0
    for job_id, row, p, u, c, a, md, rk in zip(
        rec["job_ids"], cols.T.tolist(), *idx
    ):
        keys, meta = entries[rk], entries[md]
        half = len(meta) // 2
        stop = off + len(keys)
        jobs.append(ShuffleJob(
            job_id, entries[c], entries[u], entries[p], entries[a], *row,
            metadata=dict(zip(meta[:half], meta[half:])),
            resources=dict(zip(keys, vals[off:stop])),
        ))
        off = stop
    if off != m or len(jobs) != n:
        raise WalCorruption(
            f"{rec.get('op')!r} frame: {n} rows and {m} resource values "
            f"do not match its {len(jobs)} job ids and {off} resource keys"
        )
    rec["jobs"] = jobs
    return rec


def _scan_bytes(data: bytes, table: _InternTable) -> Iterator[tuple[int, object]]:
    """Every intact record of ``data`` in order, as ``(end offset, item)``.

    A line record's item is its dict; a frame's is ``(header, raw
    start, end)`` for :func:`_materialize`.  ``table`` grows by each
    frame's entries as the scan passes it.  Stops at the first torn or
    corrupt record.
    """
    size = len(data)
    view = memoryview(data)
    pos = 0
    while pos < size:
        if data[pos] == _MAGIC:
            if pos + _PREFIX.size > size:
                return
            _, crc, hlen, rlen = _PREFIX.unpack_from(data, pos)
            mid = pos + _PREFIX.size + hlen
            end = mid + rlen
            if end > size or zlib.crc32(view[pos + _CRC_FROM:end]) != crc:
                return
            head = _frame_head(data, pos + _PREFIX.size, mid, end, table)
            if head is None:
                return
            yield end, (head, mid, end)
        else:
            nl = data.find(b"\n", pos)
            if nl < 0:
                return  # torn tail: no newline
            record = _decode_line(data[pos:nl])
            if record is None:
                return
            end = nl + 1
            yield end, record
        pos = end


class WriteAheadLog:
    """Append-only, CRC-framed, torn-tail-tolerant record log.

    Parameters
    ----------
    path:
        Log file; created if absent.  Opening an existing file counts
        its intact records (they become the initial :attr:`seq`),
        rebuilds its intern table and truncates any torn tail so
        appends start on a clean boundary.
    fsync:
        Force each record to stable storage (``os.fsync``) at append
        time.  Off by default — appends are flushed to the OS either
        way, which survives process death (the crash model the tests
        exercise); turn it on to also survive machine death.
    """

    def __init__(self, path, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self._table = _InternTable()
        n, end = self._scan(self.path, self._table)
        if self.path.exists():
            self._fh = open(self.path, "r+b")
            self._fh.truncate(end)
            self._fh.seek(end)
        else:
            self._fh = open(self.path, "w+b")
        self._seq = n

    @property
    def seq(self) -> int:
        """Number of intact records in the log (next record's index)."""
        return self._seq

    def __len__(self) -> int:
        return self._seq

    def append(self, record: dict) -> int:
        """Append one record durably; returns its sequence number.

        A record with ``columns`` is a submission and is written as a
        column frame: ``columns`` holds six float64 arrays (six scalars
        for a one-row ``submit``), then either ``jobs`` (a list of
        :class:`ShuffleJob`) or ``pipelines`` and ``users``; every
        other key must be JSON (numpy arrays are converted).  Any other
        record is written as one JSON line.
        """
        table = self._table
        n0 = len(table.entries)
        try:
            if "columns" in record:
                data = _encode_frame(record, table)
            else:
                data = _encode_line(record)
            self._fh.write(data)
            self._fh.flush()
        except BaseException:
            table.truncate(n0)
            raise
        if self.fsync:
            os.fsync(self._fh.fileno())
        seq = self._seq
        self._seq += 1
        return seq

    def records(self, start: int = 0) -> Iterator[tuple[int, dict]]:
        """Iterate intact ``(seq, record)`` pairs from ``start`` on.

        Reads the file as it is on disk (independent of the append
        handle's position) and stops at the first torn or corrupt
        record.
        """
        return self.read(self.path, start)

    @staticmethod
    def read(path, start: int = 0) -> Iterator[tuple[int, dict]]:
        """Scan a WAL file read-only (no truncation of a torn tail).

        Records before ``start`` are scanned for their intern-table
        entries but not decoded.
        """
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            return
        table = _InternTable()
        for seq, (_, item) in enumerate(_scan_bytes(data, table)):
            if seq < start:
                continue
            if isinstance(item, tuple):
                head, mid, end = item
                item = _materialize(head, data[mid:end], table.entries)
            yield seq, item

    @staticmethod
    def _scan(path, table: _InternTable) -> tuple[int, int]:
        """Count intact records into ``table``; ``(count, clean offset)``."""
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            return 0, 0
        n = end = 0
        for end, _ in _scan_bytes(data, table):
            n += 1
        return n, end

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({str(self.path)!r}, {self._seq} records)"
