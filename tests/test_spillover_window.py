"""SpilloverWindow (scheduled jobs, Python floats) vs the scalar
ObservedJob reference: equal bit for bit, not up to roundoff."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ObservedJob, SpilloverWindow, spillover_percentage


def random_history(rng, n):
    jobs = []
    t = 0.0
    for _ in range(n):
        t += float(rng.uniform(0.0, 30.0))
        duration = float(rng.uniform(1.0, 400.0))
        scheduled = bool(rng.random() < 0.7)
        spilled = scheduled and rng.random() < 0.4
        spill_time = float(rng.uniform(t, t + duration * 0.5)) if spilled else None
        jobs.append(
            ObservedJob(
                arrival=t,
                end=t + duration,
                tcio_rate=float(rng.uniform(0.0, 5.0)),
                scheduled_ssd=scheduled,
                spill_time=spill_time,
                spilled_fraction=float(rng.uniform(0.1, 1.0)) if spilled else 0.0,
            )
        )
    return jobs


def fill(window, jobs):
    for j in jobs:
        window.append(
            arrival=j.arrival,
            end=j.end,
            tcio_rate=j.tcio_rate,
            scheduled_ssd=j.scheduled_ssd,
            spill_time=j.spill_time,
            spilled_fraction=j.spilled_fraction,
        )


def extend(window, jobs):
    """Bulk-append the scheduled ones of ``jobs``, as ``observe_batch`` does."""
    sched = [j for j in jobs if j.scheduled_ssd]
    window.extend(
        [j.arrival for j in sched],
        [j.end for j in sched],
        [j.tcio_rate for j in sched],
        [math.nan if j.spill_time is None else j.spill_time for j in sched],
        [j.spilled_fraction for j in sched],
    )


def scheduled(jobs):
    return [j for j in jobs if j.scheduled_ssd]


class TestPercentage:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        jobs = random_history(rng, 300)
        window = SpilloverWindow()
        fill(window, jobs)
        t = jobs[-1].arrival + 50.0
        assert window.percentage(t) == spillover_percentage(jobs, t)

    def test_empty_window_is_zero(self):
        assert SpilloverWindow().percentage(100.0) == 0.0

    def test_all_hdd_window_is_zero(self):
        window = SpilloverWindow()
        window.append(0.0, 10.0, 2.0, False, None, 0.0)
        assert len(window) == 0
        assert window.percentage(5.0) == 0.0

    def test_bounded_unit_interval(self):
        window = SpilloverWindow()
        window.append(0.0, 100.0, 3.0, True, 0.0, 1.0)
        window.append(10.0, 60.0, 1.0, True, 10.0, 1.0)
        p = window.percentage(50.0)
        assert 0.0 <= p <= 1.0
        assert p == 1.0


class TestEviction:
    def test_evict_matches_list_filter(self):
        rng = np.random.default_rng(5)
        jobs = random_history(rng, 200)
        window = SpilloverWindow()
        fill(window, jobs)
        cutoff = jobs[120].arrival
        window.evict_older(cutoff)
        kept = [j for j in jobs if j.arrival > cutoff]
        assert len(window) == len(scheduled(kept))
        t = jobs[-1].arrival + 10.0
        assert window.percentage(t) == spillover_percentage(kept, t)

    def test_append_after_eviction_stays_bounded(self):
        window = SpilloverWindow()
        for i in range(1000):
            window.append(float(i), float(i) + 5.0, 1.0, True, None, 0.0)
            if i % 10 == 0:
                window.evict_older(float(i) - 20.0)
        assert len(window) <= 31  # 21-entry window + up to 10 appends between evictions

    def test_to_jobs_roundtrip(self):
        rng = np.random.default_rng(9)
        jobs = random_history(rng, 40)
        window = SpilloverWindow()
        fill(window, jobs)
        assert window.to_jobs() == scheduled(jobs)


class TestExtend:
    def test_bulk_matches_scalar_appends(self):
        rng = np.random.default_rng(3)
        jobs = random_history(rng, 120)
        a = SpilloverWindow()
        fill(a, jobs)
        b = SpilloverWindow()
        extend(b, jobs)
        t = jobs[-1].end + 1.0
        assert len(a) == len(b) == len(scheduled(jobs))
        assert a.to_jobs() == b.to_jobs()
        assert a.percentage(t) == b.percentage(t)


class _Pickled:
    """Pickles as an instance of ``cls`` carrying ``state``: the form an
    object takes in a checkpoint written by an older library."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return self.cls.__new__, (self.cls,), self.state


def structure_of_arrays_window(jobs, dead=3, spare=5):
    """``jobs`` in the pickled layout of the numpy window older
    checkpoints hold: six column buffers, every observed job with its
    ``_scheduled`` flag, live between ``_head`` and ``_tail``, evicted
    rows before the head and unwritten slots after the tail."""
    rows = [
        (j.arrival, j.end, j.tcio_rate, j.scheduled_ssd,
         np.nan if j.spill_time is None else j.spill_time, j.spilled_fraction)
        for j in jobs
    ]
    junk = (-1.0, 1e9, 7.0, True, -1.0, 0.5)
    rows = [junk] * dead + rows + [junk] * spare
    cols = list(zip(*rows))
    names = ("_arrival", "_end", "_tcio_rate", "_scheduled", "_spill_time",
             "_spilled_fraction")
    slots = {
        name: np.array(col, dtype=bool if name == "_scheduled" else float)
        for name, col in zip(names, cols)
    }
    slots.update(_head=dead, _tail=dead + len(jobs))
    return _Pickled(SpilloverWindow, (None, slots))


class TestOldCheckpoint:
    def test_structure_of_arrays_state_keeps_scheduled_live_rows(self):
        jobs = random_history(np.random.default_rng(11), 60)
        window = pickle.loads(pickle.dumps(structure_of_arrays_window(jobs)))
        assert window.to_jobs() == scheduled(jobs)
        for t in (jobs[30].arrival, jobs[-1].arrival, jobs[-1].end + 5.0):
            assert window.percentage(t) == spillover_percentage(jobs, t)

    def test_empty_structure_of_arrays_state(self):
        window = pickle.loads(pickle.dumps(structure_of_arrays_window([])))
        assert len(window) == 0
        assert window.percentage(1.0) == 0.0

    def test_new_state_round_trips(self):
        jobs = random_history(np.random.default_rng(12), 30)
        window = SpilloverWindow()
        fill(window, jobs)
        again = pickle.loads(pickle.dumps(window))
        assert again.to_jobs() == window.to_jobs()


# -- property: the window equals the reference formula exactly ------------

_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def observed_jobs(draw, arrival):
    duration = draw(st.just(0.0) | st.floats(0.0, 400.0, **_finite))
    end = arrival + duration
    sched = draw(st.booleans())
    kind = draw(st.sampled_from(
        ("none", "nan", "at_arrival", "inside", "at_end", "before", "after")
    ))
    spill = {
        "none": None,
        "nan": math.nan,
        "at_arrival": arrival,
        "inside": arrival + draw(st.floats(0.0, 1.0, **_finite)) * duration,
        "at_end": end,
        "before": arrival - draw(st.floats(0.5, 50.0, **_finite)),
        "after": end + draw(st.floats(0.0, 50.0, **_finite)),
    }[kind]
    return ObservedJob(
        arrival=arrival,
        end=end,
        tcio_rate=draw(st.just(0.0) | st.floats(0.0, 5.0, **_finite)),
        scheduled_ssd=sched,
        spill_time=spill,
        spilled_fraction=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0, **_finite)),
    )


@st.composite
def window_ops(draw):
    """A run of appends, extends and evictions over sorted arrivals."""
    ops = []
    t = draw(st.floats(0.0, 100.0, **_finite))
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("append", "extend", "evict")))
        if kind == "evict":
            ops.append(("evict", t - draw(st.floats(0.0, 200.0, **_finite))))
            continue
        batch = []
        for _ in range(1 if kind == "append" else draw(st.integers(0, 6))):
            t += draw(st.just(0.0) | st.floats(0.0, 40.0, **_finite))
            batch.append(draw(observed_jobs(t)))
        ops.append((kind, batch))
    return ops, t


@settings(max_examples=300, deadline=None)
@given(window_ops(), st.data())
def test_percentage_equals_the_reference_exactly(run, data):
    ops, last = run
    window = SpilloverWindow()
    model: list[ObservedJob] = []  # every observed job still in the window
    arrivals = []
    for kind, arg in ops:
        if kind == "evict":
            window.evict_older(arg)
            model = [j for j in model if j.arrival > arg]
        else:
            (fill if kind == "append" else extend)(window, arg)
            model.extend(arg)
            arrivals.extend(j.arrival for j in arg)
    assert len(window) == len(scheduled(model))
    jobs = window.to_jobs()
    candidates = [last, last + 1.0, 0.0] + arrivals
    candidates += [j.end for j in model] + [
        j.spill_time for j in model
        if j.spill_time is not None and not math.isnan(j.spill_time)
    ]
    t = data.draw(st.sampled_from(candidates) | st.floats(-10.0, last + 500.0, **_finite))
    got = window.percentage(t)
    assert got == spillover_percentage(jobs, t)
    assert got == spillover_percentage(model, t)
