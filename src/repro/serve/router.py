"""Fleet front door: one placement service scaled across N workers.

:class:`FleetRouter` is a :class:`~repro.serve.PlacementService` whose
kernel is a *facade*: admission arithmetic runs on N
:class:`~repro.serve.worker.PlacementWorker` instances (in-process
objects or forked children, see :mod:`repro.serve.transport`), each
owning the round-robin lane subset ``lane % n_workers == w``.  The
policy, job log, admission queue, roll-up, service WAL, shock and
snapshot machinery are all inherited unchanged — the refactor swaps
only the kernel seam (:meth:`PlacementService._make_kernel`), which is
what keeps the fleet's decision stream bit-identical to one process.

:class:`FleetChunkKernel` scatters each micro-batch chunk to the
owning workers as SoA column blocks (the mask candidates, or every job
of a fit-check chunk) and folds their outcome columns back into one
:class:`~repro.storage.policy.BatchOutcomes`.  Both chunk kinds share
the fold: admission verdicts stay on the workers, and a full-lane
*ledger* kernel, overwritten lane-by-lane with each worker's
authoritative free vector, only follows the global free state the
policy's chunk context reads and the one exact loop over the realized
allocations samples for the global peak.

Fleets run in batch mode only.  A request-at-a-time (``"scalar"``)
fleet would pay one blocking worker round trip per submission — about
the cost of a whole single-process request — so it could never beat
the single-process scalar service, which stays the request-at-a-time
path.

Fault tolerance is per worker: every mutating op is appended to that
worker's write-ahead log *before* dispatch, workers checkpoint
periodically (``worker_checkpoint_every`` logged ops), and a dead
worker is rebuilt as checkpoint + WAL-suffix replay while the rest of
the fleet keeps serving — including the op that was in flight when the
worker died, which is always the WAL tail.  See ``docs/fleet.md`` for
the full walkthrough.
"""

from __future__ import annotations

import heapq
import os
import pickle

import numpy as np

from ..storage.engine import ChunkKernel, _chunk_candidates, _ttl_release
from ..storage.policy import BatchOutcomes
from .metrics import merge_states
from .service import PlacementService
from .transport import (
    CARRIED_KEYS,
    InProcessTransport,
    SubprocessTransport,
    WorkerDied,
)
from .types import WORKER_SNAPSHOT_SCHEMA, SnapshotMismatch
from .wal import WriteAheadLog
from .worker import PlacementWorker

__all__ = ["FleetRouter", "worker_lanes"]

#: Worker ops that mutate kernel state — exactly these are WAL-logged
#: (and therefore replayed during worker recovery).
_MUTATING_OPS = frozenset({"chunk", "fit", "cancel", "resize"})

#: Ops that carry their worker's queued cancels (see
#: :meth:`_WorkerPool.queue_cancel`).  ``spans`` neither carries nor
#: flushes them: gathering telemetry never writes a worker's WAL.  Any
#: other op sends the queue ahead as standalone ``cancel`` ops.
_CARRIERS = frozenset({"chunk", "fit"})

#: Op-dict keys that carry arrays, and the dtype each restores to when
#: a WAL record (JSON lists) is replayed.
_ARRAY_KEYS = {
    "t": float, "dur": float, "size": float, "ttl": float, "lane": np.intp,
}


def worker_lanes(n_shards: int, n_workers: int) -> list[np.ndarray]:
    """Round-robin lane ownership: worker ``w`` owns ``w, w+N, w+2N...``

    Round-robin (not contiguous blocks) so every worker count divides
    any shard count without remainder special-casing, and the
    global→local translation is arithmetic: ``owner = lane % N``,
    ``local = lane // N``.  Workers past ``n_shards`` own zero lanes.
    """
    return [
        np.arange(w, n_shards, n_workers, dtype=np.intp)
        for w in range(n_workers)
    ]


def _op_to_record(op: dict) -> dict:
    """An op dict as a JSON-serializable WAL record."""
    rec = {}
    for k, v in op.items():
        rec[k] = v.tolist() if isinstance(v, np.ndarray) else v
    return rec


def _cancel_record(lane: int, alloc: int, release: float, catch: float) -> dict:
    """A queued cancel as the standalone ``cancel`` op it stands for."""
    return {
        "op": "cancel", "catch": None if catch == -np.inf else catch,
        "lane": lane, "alloc": alloc, "release": release,
    }


def _op_from_record(rec: dict) -> dict:
    """Rebuild a dispatchable op from a WAL record (lists → arrays)."""
    op = dict(rec)
    for k, dtype in _ARRAY_KEYS.items():
        v = op.get(k)
        if isinstance(v, list):
            op[k] = np.asarray(v, dtype=dtype)
    return op


class _WorkerPool:
    """The fleet's workers: transports, per-worker WALs, counter cache.

    Owns everything per-worker so the kernel facade stays pure
    arithmetic: spawning (by transport kind), WAL-before-dispatch
    logging, periodic checkpointing, crash detection and recovery, and
    the running counter cache every reply refreshes (so results never
    need an extra round-trip to a worker — or a live worker at all).

    A cancel makes no round trip of its own: it waits in its
    worker's queue (:meth:`queue_cancel`) and rides the next ``chunk``
    or ``fit`` op to that worker as four columns, applied before the
    chunk opens.  Any other op first sends the queue as standalone
    ``cancel`` ops.  Either way the WAL holds each cancel as its own
    ``cancel`` record, written just before the record of the op that
    delivers it, so recovery and old logs replay unchanged.

    Picklable/deep-copyable: ``__getstate__`` swaps the live transports
    for point-in-time worker payloads; a restored pool respawns workers
    lazily on first dispatch, so snapshots of a subprocess fleet do not
    fork children just by existing.  Restored pools run without
    per-worker durability (their WAL handles are not carried).
    """

    _COUNTER_KEYS = (
        "n_ssd_requested", "n_spilled", "n_evicted", "evicted_bytes",
        "n_scalar", "peak",
    )

    def __init__(
        self, *, n_shards, lane_caps,
        n_workers, transport, worker_dir, checkpoint_every,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if transport not in ("inprocess", "subprocess"):
            raise ValueError(f"unknown transport {transport!r}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("worker_checkpoint_every must be >= 1")
        self.n_shards = int(n_shards)
        self.n_workers = int(n_workers)
        self.transport_kind = transport
        self.worker_dir = None if worker_dir is None else os.fspath(worker_dir)
        self.checkpoint_every = checkpoint_every
        self.lanes_by_worker = worker_lanes(self.n_shards, self.n_workers)
        caps = np.asarray(lane_caps, dtype=float)
        self.specs = [
            {
                "worker_id": w,
                "lane_caps": caps[lw].copy(),
                "lanes": lw,
                # A single-worker fleet is the whole pool and tracks
                # the global peak itself; with more workers the router
                # samples it.
                "track_peak": self.n_workers == 1,
            }
            for w, lw in enumerate(self.lanes_by_worker)
        ]
        self.wals: list = [None] * self.n_workers
        if self.worker_dir is not None:
            os.makedirs(self.worker_dir, exist_ok=True)
            self.wals = [
                WriteAheadLog(self._wal_path(w))
                for w in range(self.n_workers)
            ]
        self.counters = [self._zero_counters() for _ in range(self.n_workers)]
        # Per worker: (local lane, alloc, release, catch) of cancels not
        # sent yet, in the order they were made; catch -inf is "none".
        self.queued: list[list[tuple]] = [[] for _ in range(self.n_workers)]
        self.n_recoveries = 0  # workers rebuilt from checkpoint + WAL
        self._pending_payloads = None
        self.transports = [self._spawn(w) for w in range(self.n_workers)]

    @staticmethod
    def _zero_counters() -> dict:
        return {
            "n_ssd_requested": 0, "n_spilled": 0, "n_evicted": 0,
            "evicted_bytes": 0, "n_scalar": 0, "peak": 0,
        }

    def _wal_path(self, w: int) -> str:
        return os.path.join(self.worker_dir, f"worker{w}.wal")

    def _ckpt_path(self, w: int) -> str:
        return os.path.join(self.worker_dir, f"worker{w}.ckpt")

    def _spawn(self, w: int):
        if self.transport_kind == "subprocess":
            return SubprocessTransport(w, self.specs[w])
        return InProcessTransport(w, PlacementWorker(self.specs[w]))

    def _ensure(self) -> None:
        """Respawn workers after an unpickle/restore (lazily)."""
        if self.transports is not None:
            return
        payloads = self._pending_payloads
        self._pending_payloads = None
        self.transports = []
        for w in range(self.n_workers):
            tr = self._spawn(w)
            if payloads is not None:
                tr.request({"op": "restore", "payload": payloads[w]})
            self.transports.append(tr)

    # -- dispatch -------------------------------------------------------

    def queue_cancel(
        self, w: int, lane: int, alloc: int, release: float, catch: float
    ) -> None:
        """Hold one cancel for worker ``w`` (local ``lane``) until its
        next op; ``catch`` is the release cursor it applies after
        (``-inf``: none)."""
        self.queued[w].append((lane, alloc, release, catch))

    def _prepare(self, w: int, op: dict) -> tuple[dict, int | None]:
        """Deliver worker ``w``'s queued cancels and WAL-log ``op``.

        A carrier op comes back with the queue attached as columns; any
        other op (but ``spans``) first sends the queue as standalone
        ``cancel`` ops.  Returns the op to send and the WAL length
        before it was logged (``None`` when nothing was logged).
        """
        queue = self.queued[w]
        kind = op.get("op")
        if queue and kind not in _CARRIERS:
            if kind != "spans":
                self.queued[w] = []
                for entry in queue:
                    # Through the instance attribute, so wrappers on
                    # ``request`` see every round trip.
                    self.request(w, _cancel_record(*entry))
            queue = ()
        wal = self.wals[w]
        before = None
        if wal is not None and kind in _MUTATING_OPS:
            before = wal.seq
            for entry in queue:
                wal.append(_cancel_record(*entry))
            wal.append(_op_to_record(op))
        if queue:
            op = dict(op)
            for key, col in zip(CARRIED_KEYS, zip(*queue)):
                op[key] = list(col)
            self.queued[w] = []
        return op, before

    def _update(self, w: int, reply: dict) -> None:
        col = reply.get("counters")
        if col is not None:
            # Chunk and fit replies pack the six counters in one column:
            # a list in process, an array off the wire.
            if type(col) is not list:
                col = col.tolist()
            self.counters[w] = dict(zip(self._COUNTER_KEYS, col))
            return
        c = self.counters[w]
        for k in self._COUNTER_KEYS:
            if k in reply:
                c[k] = reply[k]

    def _maybe_checkpoint(self, w: int, before: int | None) -> None:
        """Checkpoint worker ``w`` when the records logged since
        ``before`` crossed a multiple of ``checkpoint_every`` — one
        dispatch may log several (its carried cancels)."""
        every = self.checkpoint_every
        wal = self.wals[w]
        if before is None or not every or wal.seq // every == before // every:
            return
        try:
            self.transports[w].request({
                "op": "checkpoint",
                "path": self._ckpt_path(w),
                "anchor": wal.seq,
            })
        except WorkerDied:
            # The next real op notices and recovers; this checkpoint
            # simply did not advance the anchor.
            pass

    def request(self, w: int, op: dict) -> dict:
        """One op to worker ``w``, with transparent crash recovery.

        A mutating op is in the WAL before dispatch, so when the worker
        dies mid-op the replay's last reply *is* this op's reply; a
        non-mutating op is re-issued against the recovered worker.
        """
        self._ensure()
        op, before = self._prepare(w, op)
        try:
            reply = self.transports[w].request(op)
        except WorkerDied:
            last = self.recover(w)
            reply = last if before is not None else self.transports[w].request(op)
        self._update(w, reply)
        self._maybe_checkpoint(w, before)
        return reply

    def scatter(self, ops: dict) -> dict:
        """Send every op before receiving any reply (workers overlap).

        ``ops`` maps worker id → op dict (updated in place to the ops as
        sent, carried cancels included); returns worker id → reply.
        Dead workers are recovered exactly as in :meth:`request`.  The
        first error — a worker's, or a recovery's — is raised only after
        every other reply has been received, so no channel is left
        holding a stale reply.
        """
        self._ensure()
        before = {}
        for w in ops:
            ops[w], before[w] = self._prepare(w, ops[w])
        failed = set()
        for w, op in ops.items():
            try:
                self.transports[w].send(op)
            except WorkerDied:
                failed.add(w)
        replies = {}
        error = None
        for w, op in ops.items():
            try:
                if w not in failed:
                    try:
                        replies[w] = self.transports[w].recv()
                    except WorkerDied:
                        failed.add(w)
                if w in failed:
                    last = self.recover(w)
                    replies[w] = (
                        last if before[w] is not None
                        else self.transports[w].request(op)
                    )
                self._update(w, replies[w])
                self._maybe_checkpoint(w, before[w])
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return replies

    # -- lifecycle ------------------------------------------------------

    def kill(self, w: int) -> None:
        self._ensure()
        self.transports[w].kill()

    def alive(self, w: int) -> bool:
        self._ensure()
        return self.transports[w].alive

    def recover(self, w: int) -> dict | None:
        """Rebuild worker ``w`` as checkpoint + WAL-suffix replay.

        Returns the last replayed reply (``None`` when nothing needed
        replaying) — which, when recovery was triggered by a mutating
        op's dispatch failure, is that op's reply: the op went to the
        WAL before the wire.
        """
        self._ensure()
        if self.wals[w] is None:
            raise WorkerDied(
                w,
                "no worker_dir was configured, so there is no checkpoint "
                "or WAL to recover from",
            )
        try:
            self.transports[w].kill()
        except Exception:
            pass
        payload = None
        anchor = 0
        ckpt = self._ckpt_path(w)
        if os.path.exists(ckpt):
            with open(ckpt, "rb") as fh:
                payload = pickle.load(fh)
            schema = (
                payload.get("__schema__") if isinstance(payload, dict)
                else None
            )
            if schema != WORKER_SNAPSHOT_SCHEMA:
                raise SnapshotMismatch(
                    f"worker {w} checkpoint has schema {schema!r}, this "
                    f"library restores schema {WORKER_SNAPSHOT_SCHEMA}"
                )
            anchor = int(payload.get("anchor", 0))
        tr = self._spawn(w)
        self.transports[w] = tr
        if payload is not None:
            tr.request({"op": "restore", "payload": payload})
        last = None
        for _seq, rec in WriteAheadLog.read(self._wal_path(w), anchor):
            # Logs written before the integer ledger also hold release
            # catch-up ops, which every logged op now does for itself.
            if rec.get("op") in _MUTATING_OPS:
                last = tr.request(_op_from_record(rec))
        if last is not None:
            self._update(w, last)
        self.n_recoveries += 1
        return last

    def close(self) -> None:
        if self.transports is not None:
            for tr in self.transports:
                try:
                    tr.close()
                except Exception:
                    pass
        for wal in self.wals:
            if wal is not None:
                wal.close()

    # -- aggregates -----------------------------------------------------

    def total(self, key: str):
        return sum(c[key] for c in self.counters)

    # -- pickling / deep copy -------------------------------------------

    def __getstate__(self):
        if self.transports is None and self._pending_payloads is not None:
            payloads = list(self._pending_payloads)
        else:
            self._ensure()
            payloads = [
                self.request(w, {"op": "state"})["payload"]
                for w in range(self.n_workers)
            ]
        state = self.__dict__.copy()
        # Empty unless the workers were not respawned since a restore:
        # then the queue travels with the payloads it was made against.
        state["queued"] = [list(q) for q in self.queued]
        state["transports"] = None
        state["wals"] = [None] * self.n_workers
        state["worker_dir"] = None
        state["checkpoint_every"] = None
        state["_pending_payloads"] = payloads
        return state

    def __setstate__(self, state):
        # Pools pickled before the cancel queue existed had none.
        state.setdefault("queued", [[] for _ in range(state["n_workers"])])
        self.__dict__.update(state)


class FleetChunkKernel:
    """Scatter-gather facade over per-worker :class:`ChunkKernel` s.

    Presents the exact ``ChunkKernel`` surface the service drives
    (``open_chunk`` / ``run_chunk`` / ``cancel`` / ``resize_lane`` plus
    the counter properties) while the admission arithmetic runs on the
    workers.  Both chunk kinds take one path: scatter the candidates the
    engine's own rule picks (the mask rows, or every job of a fit-check
    chunk, whose verdicts stay on the workers) to their lanes' owners,
    then fold the replies.
    The *ledger* — a full-lane ``ChunkKernel`` that never runs a chunk
    itself — only follows: each worker's authoritative free vector
    overwrites its lanes, and the global release schedule and free
    total feed the policy's chunk context and the global peak, which
    no single worker holds.  Workers that sat out a chunk catch up on
    their own at their next op's ``t0`` / ``catch``: integer sums do
    not depend on how releases are grouped.  The counters come from
    the pool's reply-refreshed cache, so reading them makes no round
    trip.
    """

    def __init__(self, lane_caps, pool: _WorkerPool):
        self.pool = pool
        self.ledger = ChunkKernel(lane_caps, track_peak=False)
        self._peak = 0
        # The release cursor out-of-band ops catch workers up to.
        self._cursor = -np.inf

    @property
    def capacity(self):
        return self.ledger.capacity

    @property
    def lane_capacity(self):
        return self.ledger.lane_capacity

    @property
    def free(self):
        return self.ledger.free

    @property
    def peak_used(self) -> float:
        if self.pool.n_workers == 1:
            return self.pool.counters[0]["peak"]
        return self._peak

    @property
    def n_ssd_requested(self) -> int:
        return self.pool.total("n_ssd_requested")

    @property
    def n_spilled(self) -> int:
        return self.pool.total("n_spilled")

    @property
    def n_evicted(self) -> int:
        return self.pool.total("n_evicted")

    @property
    def evicted_bytes(self) -> int:
        return self.pool.total("evicted_bytes")

    @property
    def scalar_fallback_jobs(self) -> int:
        return self.pool.total("n_scalar")

    def counters(self) -> dict:
        """Fleet-wide admission counters (cache sums; no round-trips)."""
        return {
            "n_ssd_requested": int(self.n_ssd_requested),
            "n_spilled": int(self.n_spilled),
            "n_evicted": int(self.n_evicted),
            "evicted_bytes": int(self.evicted_bytes),
            "scalar_fallback_jobs": int(self.scalar_fallback_jobs),
            "peak_used": int(self.peak_used),
        }

    # -- chunk lifecycle ------------------------------------------------

    def open_chunk(self, t0: float, lane: int):
        if t0 > self._cursor:
            self._cursor = t0
        return self.ledger.open_chunk(t0, lane)

    def run_chunk(
        self, bd, first, stop, arrivals, durations, sizes, shards,
        ssd_fraction, alloc_out=None, release_out=None, t_last=None,
    ):
        count = stop - first
        chunk_t = arrivals[first:stop]
        if t_last is None:
            t_last = chunk_t.item(count - 1)
        chunk_lanes = shards[first:stop] if shards is not None else None
        # Written at the candidates only: every other row reads 0 / NaN.
        space = np.zeros(count)
        spill_col = np.full(count, np.nan)
        requested = _chunk_candidates(bd, count)
        cand = requested.nonzero()[0]
        if cand.size:
            self._scatter_fold(
                bd, first, cand, t_last, arrivals, durations, sizes,
                chunk_lanes, requested, space, spill_col, ssd_fraction,
                alloc_out, release_out,
            )
        outcomes = BatchOutcomes(
            first=first,
            times=chunk_t,
            requested_ssd=requested,
            ssd_space_fraction=space,
            spill_time=spill_col,
            shards=chunk_lanes,
        )
        return outcomes

    def _scatter_fold(
        self, bd, first, cand, t_last, arrivals, durations, sizes,
        chunk_lanes, requested, space, spill_col, ssd_fraction,
        alloc_out, release_out,
    ):
        pool = self.pool
        W = pool.n_workers
        st = self.ledger.st
        fit = bd.fit_check
        # Candidates grouped by owner, stably (so each lane keeps arrival
        # order): one gather per column, and each worker's op and reply
        # are one contiguous slice of it.
        if chunk_lanes is None:
            lane = np.zeros(cand.size, dtype=np.intp)
        else:
            lane = chunk_lanes[cand]
        owner = lane % W
        order = owner.argsort(kind="stable")
        cand = cand[order]
        lane = lane[order]
        idx = cand + first
        ct = arrivals[idx]
        cdur = durations[idx]
        cs = sizes[idx]
        local = lane // W
        if bd.ssd_ttl is None:
            ttl_vals = None
            release = ct + cdur
        else:
            ttl_vals = np.asarray(bd.ssd_ttl, dtype=float)[cand]
            release = np.array(
                _ttl_release(ct.tolist(), cdur.tolist(), ttl_vals.tolist())[0]
            )
        kind = "fit" if fit else "chunk"
        t0 = arrivals.item(first)
        ops = {}
        a = 0
        for w, n_w in enumerate(np.bincount(owner, minlength=W).tolist()):
            if n_w:
                b = a + n_w
                ops[w] = {
                    "op": kind, "t0": t0, "t_last": t_last,
                    "t": ct[a:b], "dur": cdur[a:b], "size": cs[a:b],
                    "lane": local[a:b],
                    "ttl": None if ttl_vals is None else ttl_vals[a:b],
                }
                a = b
        replies = pool.scatter(ops)

        # Ledger roll-forward: consume the window for every lane, then
        # overwrite each replying worker's lanes with its authoritative
        # free vector (which also holds the chunk's allocations and
        # in-chunk releases).  The window — entries past t0, since
        # open_chunk consumed everything at or before it, and at or
        # before t_last — feeds the global peak pass below.  Reply
        # columns are lists in process and read-only arrays off the
        # wire; the fold reads either.
        total = sum(st.free.tolist()) if W > 1 else 0
        window = st.release_until(t_last)
        parts = list(replies.values())  # in worker order, as ``ops``
        for w, reply in replies.items():
            st.free[pool.lanes_by_worker[w]] = reply["free"]
        alloc = np.concatenate([r["alloc"] for r in parts])
        ssd_fraction[idx] = np.concatenate([r["frac"] for r in parts])
        if fit:
            # Whole footprints or nothing, never a spill: space is the
            # verdict as 0/1 and the spill column stays NaN.
            held = np.concatenate([r["requested"] for r in parts])
            requested[cand] = space[cand] = held
        else:
            space[cand] = np.concatenate([r["space"] for r in parts])
            spill_col[cand] = np.concatenate([r["spill"] for r in parts])
        if alloc_out is not None:
            alloc_out[cand] = alloc
            if fit:
                # A fit-check job the workers turned away keeps no
                # release time, as in the engine's admission loop.
                release_out[cand[held]] = release[held]
            else:
                release_out[cand] = release
        # Releases maturing past the chunk, pushed in owner order: each
        # lane's entries keep arrival order, and the ledger's sums do
        # not depend on the order across lanes.
        allocs = alloc.tolist()
        releases = release.tolist()
        later = [
            (rt, L, a)
            for a, rt, L in zip(allocs, releases, lane.tolist())
            if a > 0 and rt > t_last
        ]
        if later:
            st.push_all(*zip(*later))
        # Global peak.  Between samples free bytes only fall by this
        # chunk's allocations (window releases net to >= 0, as a cancel's
        # compensating entry shares its release's timestamp), so when
        # even all of them leave the total at or above the lowest one
        # seen, no sample can set a new low and the replay is skipped.
        if W > 1 and total - sum(allocs) < st.capacity - self._peak:
            rows = sorted(zip(order.tolist(), ct.tolist(), allocs, releases))
            self._replay_peak(rows, window, total, t_last)
        if t_last > self._cursor:
            self._cursor = t_last

    def _replay_peak(self, rows, window, total, t_last) -> None:
        """Sample the fleet-wide free total at every candidate arrival.

        Replays the ``window`` of pending releases the chunk consumed
        (``(time, seq, lane, bytes)`` in heap order) and the chunk's
        own releases due in it over the realized allocations (``rows``:
        ``(position, time, alloc, release)`` in candidate order), in the
        single process's order — releases due at or before an arrival
        first.  A row that allocates nothing cannot raise the peak:
        between admissions, used bytes only fall.
        """
        st = self.ledger.st
        p, pend_n = 0, len(window)
        heap: list[tuple[float, int]] = []  # (time, amount)
        low = st.capacity - self._peak
        for _, t, a, rt in rows:
            while p < pend_n and window[p][0] <= t:
                total += window[p][3]
                p += 1
            while heap and heap[0][0] <= t:
                total += heapq.heappop(heap)[1]
            total -= a
            if total < low:
                low = total
            if a > 0 and rt <= t_last:
                heapq.heappush(heap, (rt, a))
        self._peak = st.capacity - low

    # -- out-of-band mutations ------------------------------------------

    def cancel(self, lane: int, alloc: int, release_time: float) -> None:
        """Return an allocation now: to the ledger at once, and to its
        worker with that worker's next op (see
        :meth:`_WorkerPool.queue_cancel`).  Nothing waits on the
        worker: whether space was freed is the service's call, and the
        ledger is local."""
        W = self.pool.n_workers
        lane = int(lane)
        self.pool.queue_cancel(
            lane % W, lane // W, int(alloc), float(release_time),
            float(self._cursor),
        )
        self.ledger.cancel(lane, alloc, release_time)

    def resize_lane(self, lane: int, new_capacity: float):
        W = self.pool.n_workers
        # JSON WALs cannot carry -inf portably; None means "no chunk
        # has run yet, nothing to catch up".
        catch = None if self._cursor == -np.inf else float(self._cursor)
        self.pool.request(int(lane) % W, {
            "op": "resize", "catch": catch,
            "lane": int(lane) // W, "cap": float(new_capacity),
        })
        return self.ledger.resize_lane(lane, new_capacity)


class FleetRouter(PlacementService):
    """The fleet front door: a :class:`PlacementService` over N workers.

    Drop-in for the single-process service — same ``open`` / ``submit``
    / ``submit_batch`` / ``complete`` / ``apply_shock`` / ``drain`` /
    ``result`` surface, same WAL/checkpoint/recover machinery — with
    the kernel swapped for a scatter-gather facade.  Every aggregate it
    reports is bit-identical to the single-process run on the same
    inputs, for any worker count and either transport.

    Parameters beyond :class:`PlacementService`:

    n_workers:
        Fleet size (1 = a single worker owning every lane, still
        behind the transport seam).
    transport:
        ``"inprocess"`` (worker objects in this process, the default)
        or ``"subprocess"`` (forked children behind pipes).
    worker_dir:
        Directory for per-worker WALs and checkpoints.  Required for
        worker crash recovery: with it, a dead worker is rebuilt
        transparently on the next op that touches it (or explicitly
        via :meth:`recover_worker`); without it a dead worker raises
        :class:`~repro.serve.transport.WorkerDied`.
    worker_checkpoint_every:
        Checkpoint a worker every this many logged ops (default 64; a
        recovery then replays at most this much WAL suffix).

    ``mode`` must be ``"batch"`` (the default): a fleet refuses
    ``"scalar"``, whose one worker round trip per submission costs
    about as much as a whole single-process request.
    """

    def __init__(
        self, policy, capacity, n_shards: int = 1, *,
        n_workers: int = 1, transport: str = "inprocess",
        worker_dir=None, worker_checkpoint_every: int | None = 64,
        **kwargs,
    ):
        if kwargs.get("mode", "batch") != "batch":
            raise ValueError(
                f"a worker fleet serves mode='batch' only (got "
                f"mode={kwargs['mode']!r}); use mode='batch', or a "
                "single-process PlacementService to serve one request "
                "at a time"
            )
        # _make_kernel runs inside super().__init__, so the fleet
        # config must exist first.
        self._fleet_config = {
            "n_workers": int(n_workers),
            "transport": transport,
            "worker_dir": worker_dir,
            "checkpoint_every": worker_checkpoint_every,
        }
        self.pool = None
        super().__init__(policy, capacity, n_shards, **kwargs)

    def _make_kernel(self, lane_caps):
        cfg = self._fleet_config
        pool = _WorkerPool(
            n_shards=self.n_shards,
            lane_caps=lane_caps,
            n_workers=cfg["n_workers"],
            transport=cfg["transport"],
            worker_dir=cfg["worker_dir"],
            checkpoint_every=cfg["checkpoint_every"],
        )
        self.pool = pool
        return FleetChunkKernel(lane_caps, pool)

    # -- fleet surface --------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    def worker_alive(self, w: int) -> bool:
        return self.pool.alive(w)

    def kill_worker(self, w: int) -> None:
        """Crash worker ``w`` (SIGKILL / dropped state) — chaos hook."""
        self.pool.kill(w)

    def recover_worker(self, w: int) -> None:
        """Rebuild worker ``w`` from its checkpoint + WAL suffix now.

        Recovery also happens transparently on the next op routed to a
        dead worker; this forces it eagerly (e.g. from a chaos scenario
        or an operator console).  Requires ``worker_dir``.
        """
        self.pool.recover(w)

    def close(self) -> None:
        """Shut the fleet down: stop the workers and close every WAL,
        the per-worker ones and the service's."""
        if self.pool is not None:
            self.pool.close()
        super().close()

    # -- metrics --------------------------------------------------------

    def _sync_metrics(self, rows) -> None:
        """Fleet metrics: the service sync plus a worker gather.

        The serve-side counters come from the reply-refreshed counter
        cache (the fleet kernels' counter properties), so they are
        exact even with dead workers.  On top of that, each live
        worker's partial op metrics are fetched and folded — counter
        sums, exact histogram bucket merges, order-independent — then
        installed by overwrite, so repeated gathers never double count.
        The gather runs on every scrape and every alert tick: it is
        what transparently rebuilds a dead worker.  A worker that is
        down and unrecoverable simply drops out of this round's gather.
        """
        super()._sync_metrics(rows)
        reg = self.registry
        pool = self.pool
        reg.gauge(
            "serve_workers", help="Configured fleet width"
        ).set(pool.n_workers)
        states = []
        alive = 0
        for w in range(pool.n_workers):
            try:
                reply = pool.request(w, {"op": "metrics"})
            except WorkerDied:
                continue
            alive += 1
            states.append(reply["state"])
        reg.gauge(
            "serve_workers_alive",
            help="Workers that answered the last metrics gather",
        ).set(alive)
        reg.counter(
            "serve_worker_recoveries",
            help="Workers rebuilt from checkpoint + WAL-suffix replay",
        ).set(pool.n_recoveries)
        if states:
            reg.load_state(merge_states(states))

    def worker_op_spans(self) -> list[dict]:
        """Every live worker's op-span ring, gathered fleet-wide.

        One non-mutating ``{"op": "spans"}`` round-trip per worker —
        never WAL-logged (``"spans"`` is not in ``_MUTATING_OPS``), so
        gathering spans cannot change what a recovery replays.  A dead,
        unrecoverable worker drops out of the gather; a recoverable one
        is rebuilt transparently and reports a fresh ring (worker op
        spans are auxiliary telemetry, not checkpointed — see
        :meth:`~repro.serve.worker.PlacementWorker._op_spans`).
        """
        pool = self.pool
        spans: list[dict] = []
        for w in range(pool.n_workers):
            try:
                reply = pool.request(w, {"op": "spans"})
            except WorkerDied:
                continue
            spans.extend(reply["spans"])
        return spans
