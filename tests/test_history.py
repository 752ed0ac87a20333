"""Historical system metrics (feature group A): causal correctness."""

import numpy as np
import pytest

from repro.workloads import Trace, compute_history

from helpers import make_job


class TestComputeHistory:
    def test_first_job_unobserved(self, handmade_trace):
        hist = compute_history(handmade_trace)
        assert not hist.observed[0]
        assert hist.average_size[0] == 0.0

    def test_only_completed_jobs_counted(self):
        # Job 1 arrives while job 0 (same pipeline) is still running:
        # job 0 must not appear in job 1's history.
        jobs = [
            make_job(0, arrival=0.0, duration=100.0, pipeline="p"),
            make_job(1, arrival=50.0, duration=10.0, pipeline="p"),
            make_job(2, arrival=200.0, duration=10.0, pipeline="p"),
        ]
        hist = compute_history(Trace(jobs))
        assert not hist.observed[0]
        assert not hist.observed[1]
        # By t=200 both earlier jobs have completed (ends 100 and 60).
        assert hist.observed[2]

    def test_zero_duration_folds_only_into_later_rows(self):
        # Jobs 0-2 share one instant; job 1 completes the moment it
        # arrives.  It enters neither its own row nor job 0's (listed
        # before it), only job 2's — the order the online extractor
        # sees them in.
        jobs = [
            make_job(0, arrival=50.0, duration=10.0, pipeline="p"),
            make_job(1, arrival=50.0, duration=0.0, pipeline="p"),
            make_job(2, arrival=50.0, duration=10.0, pipeline="p"),
        ]
        hist = compute_history(Trace(jobs))
        assert not hist.observed[0]
        assert not hist.observed[1]
        assert hist.observed[2]
        assert hist.average_lifetime[2] == 0.0

    def test_history_is_pipeline_scoped(self):
        jobs = [
            make_job(0, arrival=0.0, duration=10.0, pipeline="a"),
            make_job(1, arrival=100.0, duration=10.0, pipeline="b"),
        ]
        hist = compute_history(Trace(jobs))
        # Job 1 is pipeline b's first job: pipeline a's completion is invisible.
        assert not hist.observed[1]

    def test_running_average_values(self):
        from repro.units import GIB

        jobs = [
            make_job(0, arrival=0.0, duration=10.0, size=2 * GIB, pipeline="p"),
            make_job(1, arrival=20.0, duration=10.0, size=4 * GIB, pipeline="p"),
            make_job(2, arrival=40.0, duration=10.0, size=100 * GIB, pipeline="p"),
        ]
        hist = compute_history(Trace(jobs))
        assert hist.average_size[1] == pytest.approx(2 * GIB)
        assert hist.average_size[2] == pytest.approx(3 * GIB)

    def test_matrix_shape_and_order(self, handmade_trace):
        hist = compute_history(handmade_trace)
        mat = hist.as_matrix()
        assert mat.shape == (4, 4)
        assert mat[:, 0] == pytest.approx(hist.average_tcio)
        assert mat[:, 3] == pytest.approx(hist.average_io_density)

    def test_observed_grows_with_executions(self, small_trace):
        hist = compute_history(small_trace)
        n = len(small_trace)
        first_half = hist.observed[: n // 2].mean()
        second_half = hist.observed[n // 2 :].mean()
        assert second_half >= first_half
