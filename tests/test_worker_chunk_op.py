"""The fleet worker's chunk op against the single-process chunk kernel.

A worker admits straight from its op's columns
(:meth:`~repro.storage.engine.ChunkKernel.admit_chunk` over lists),
while a single process opens the chunk and runs it through
:meth:`~repro.storage.engine.ChunkKernel.run_chunk` with a
``BatchDecision``.  Over random sequences of ``chunk`` and ``fit`` ops
on a binding lane subset — TTLs that are NaN, negative or shorter than
the duration, zero-size and zero-duration jobs, cancels carried on the
op, columns as arrays or as the lists a replayed worker WAL holds — the
worker's reply, converted to its wire dtypes, and its whole ledger
must equal the single process's, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serve.transport import column_arrays, same_message
from repro.serve.worker import PlacementWorker
from repro.storage.engine import ChunkKernel
from repro.storage.policy import BatchDecision

UNIT = 1e9
SIZES = (0.0, 0.4, 1.0, 2.5, 4.0, 7.3)
DURATIONS = (0.0, 1.0, 3.0, 10.0, 25.0)
TTLS = (math.nan, -2.0, -0.0, 0.0, 0.5, 2.0, 8.0, math.inf)


@st.composite
def op_sequences(draw):
    n_lanes = draw(st.integers(1, 3))
    caps = [draw(st.sampled_from((0.0, 3.0, 6.0, 10.0))) * UNIT
            for _ in range(n_lanes)]
    ops = []
    clock = 0.0
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 7))
        t0 = clock + draw(st.sampled_from((0.0, 0.5, 2.0, 9.0)))
        steps = draw(st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0, 4.0)),
                              min_size=n, max_size=n))
        t = (t0 + np.cumsum(steps)).tolist()
        t_last = t[-1] + draw(st.sampled_from((0.0, 0.0, 1.5)))
        ops.append({
            "kind": draw(st.sampled_from(("chunk", "fit"))),
            "t0": t0, "t_last": t_last, "t": t,
            "dur": [draw(st.sampled_from(DURATIONS)) for _ in range(n)],
            "size": [draw(st.sampled_from(SIZES)) * UNIT for _ in range(n)],
            "lane": [draw(st.integers(0, n_lanes - 1)) for _ in range(n)],
            "ttl": (
                [draw(st.sampled_from(TTLS)) for _ in range(n)]
                if draw(st.booleans()) else None
            ),
            # How many live allocations to cancel on this op, newest first.
            "cancels": draw(st.integers(0, 2)),
            "lists": draw(st.booleans()),
        })
        clock = t_last
    return caps, ops


def _single_process_reply(kern, kind, op):
    """What the worker must reply, from a single-process chunk."""
    t = np.asarray(op["t"], dtype=float)
    n = t.size
    fit = kind == "fit"
    kern.open_chunk(float(op["t0"]), 0)
    bd = BatchDecision(
        count=n, want_ssd=None if fit else np.ones(n, dtype=bool),
        ssd_ttl=None if op["ttl"] is None else np.asarray(op["ttl"], dtype=float),
        fit_check=fit,
    )
    frac = np.zeros(n)
    alloc = np.zeros(n, dtype=np.int64)
    release = np.zeros(n)
    out = kern.run_chunk(
        bd, 0, n, t, np.asarray(op["dur"], dtype=float),
        np.asarray(op["size"], dtype=float),
        np.asarray(op["lane"], dtype=np.intp), frac, alloc, release,
        t_last=float(op["t_last"]),
    )
    c = kern.counters()
    reply = {
        "frac": frac, "alloc": alloc, "free": kern.free.copy(),
        "counters": np.array(
            (c["n_ssd_requested"], c["n_spilled"], c["n_evicted"],
             c["evicted_bytes"], c["scalar_fallback_jobs"], c["peak_used"]),
            dtype=np.int64,
        ),
    }
    if fit:
        reply["requested"] = out.requested_ssd
    else:
        reply["space"], reply["spill"] = out.ssd_space_fraction, out.spill_time
    return reply, alloc, release


def _same_ledger(a: ChunkKernel, b: ChunkKernel) -> bool:
    sa, sb = a.st, b.st
    return (
        all(
            same_message({"x": getattr(sa, k)}, {"x": getattr(sb, k)})
            for k in ("free", "lane_capacity", "heap", "seq")
        )
        and sa.peak_used == sb.peak_used
        and a.counters() == b.counters()
    )


class TestWorkerChunkOp:
    @settings(max_examples=300, deadline=None)
    @given(op_sequences(), st.booleans())
    def test_reply_and_ledger_match_single_process(self, seq, track_peak):
        caps, ops = seq
        lanes = np.arange(len(caps), dtype=np.intp) * 2 + 1
        worker = PlacementWorker({
            "worker_id": 0, "mode": "batch", "lane_caps": caps,
            "lanes": lanes, "track_peak": track_peak,
        })
        ref = ChunkKernel(np.asarray(caps), track_peak=track_peak)
        live = []  # (lane, alloc, release) of allocations still held
        cursor = -math.inf
        for spec in ops:
            op = {"op": spec["kind"], "t0": spec["t0"], "t_last": spec["t_last"]}
            for key, dtype in (("t", float), ("dur", float), ("size", float),
                               ("lane", np.intp), ("ttl", float)):
                col = spec[key]
                if col is None:
                    op[key] = None
                else:
                    op[key] = col if spec["lists"] else np.asarray(col, dtype=dtype)
            held = [e for e in live if e[2] > cursor]
            cancels = held[len(held) - spec["cancels"]:] if spec["cancels"] else []
            for lane, alloc, release in cancels:
                live.remove((lane, alloc, release))
                ref.st.release_until(cursor)
                ref.cancel(lane, alloc, release)
            if cancels:
                cols = list(zip(*cancels))
                carried = {
                    "cancel_lane": np.array(cols[0], dtype=np.intp),
                    "cancel_alloc": np.array(cols[1], dtype=np.int64),
                    "cancel_release": np.array(cols[2], dtype=float),
                    "cancel_catch": np.full(len(cancels), cursor),
                }
                for key, col in carried.items():
                    op[key] = col.tolist() if spec["lists"] else col

            want, alloc, release = _single_process_reply(ref, spec["kind"], spec)
            got = worker.handle(op)
            assert same_message(want, column_arrays(got)), (spec, want, got)
            assert _same_ledger(worker.kernel, ref)
            for L, a, r in zip(spec["lane"], alloc.tolist(), release.tolist()):
                if a > 0 and r > spec["t_last"]:
                    live.append((L, a, r))
            cursor = spec["t_last"]
