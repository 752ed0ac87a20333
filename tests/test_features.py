"""Table-2 feature extraction: groups, alignment, hashing stability."""

import numpy as np
import pytest

from repro.workloads import (
    FEATURE_GROUPS,
    HISTORY_FEATURES,
    RESOURCE_FEATURES,
    TIME_FEATURES,
    FeatureMatrix,
    Trace,
    extract_features,
)

from helpers import make_job


class TestExtractFeatures:
    def test_shape_and_groups(self, handmade_trace):
        fm = extract_features(handmade_trace)
        assert fm.X.shape[0] == len(handmade_trace)
        assert set(fm.groups) == set(FEATURE_GROUPS)
        # 4 history + 5*16 hashed + 8 resources + 3 time
        assert fm.n_features == 4 + 80 + 8 + 3

    def test_group_column_counts(self, handmade_trace):
        fm = extract_features(handmade_trace)
        assert len(fm.group_columns("A")) == len(HISTORY_FEATURES)
        assert len(fm.group_columns("C")) == len(RESOURCE_FEATURES)
        assert len(fm.group_columns("T")) == len(TIME_FEATURES)
        assert len(fm.group_columns("B")) == 80

    def test_time_features_correct(self):
        from repro.units import DAY, HOUR

        job = make_job(0, arrival=2 * DAY + 3 * HOUR + 42.0)
        fm = extract_features(Trace([job]))
        names = list(fm.names)
        assert fm.X[0, names.index("open_time_day_hour")] == 3.0
        assert fm.X[0, names.index("open_time_weekday")] == 2.0
        assert fm.X[0, names.index("open_time_seconds")] == pytest.approx(
            3 * HOUR + 42.0
        )

    def test_resource_features_copied(self, handmade_trace):
        fm = extract_features(handmade_trace)
        names = list(fm.names)
        col = names.index("bucket_sizing_num_workers")
        assert fm.X[0, col] == handmade_trace[0].resources["bucket_sizing_num_workers"]

    def test_hashing_deterministic(self, handmade_trace):
        a = extract_features(handmade_trace)
        b = extract_features(handmade_trace)
        assert np.array_equal(a.X, b.X)

    def test_same_pipeline_same_hash_columns(self):
        j0 = make_job(0, pipeline="p1", step=0)
        j1 = make_job(1, arrival=1000.0, pipeline="p1", step=0)
        fm = extract_features(Trace([j0, j1]))
        b_cols = fm.group_columns("B")
        assert np.array_equal(fm.X[0, b_cols], fm.X[1, b_cols])

    @pytest.mark.parametrize("n_buckets", [16, 8])
    def test_hashed_columns_follow_token_rule(self, handmade_trace, n_buckets):
        """Group B sets exactly the bucket of every token of every field."""
        from repro.workloads import METADATA_FIELDS, stable_hash, tokenize

        fm = extract_features(handmade_trace, n_hash_buckets=n_buckets)
        ref = np.zeros((len(handmade_trace), len(METADATA_FIELDS) * n_buckets))
        for i, job in enumerate(handmade_trace):
            for f, field in enumerate(METADATA_FIELDS):
                for token in tokenize(job.metadata.get(field, "")):
                    ref[i, f * n_buckets + stable_hash(token, seed=f) % n_buckets] = 1.0
        assert ref.any()
        assert np.array_equal(fm.X[:, fm.group_columns("B")], ref)

    def test_custom_bucket_count(self, handmade_trace):
        fm = extract_features(handmade_trace, n_hash_buckets=8)
        assert len(fm.group_columns("B")) == 40


class TestFeatureMatrix:
    def test_take_preserves_metadata(self, handmade_trace):
        fm = extract_features(handmade_trace)
        sub = fm.take(np.array([0, 2]))
        assert len(sub) == 2
        assert sub.names == fm.names
        assert sub.groups == fm.groups

    def test_drop_columns(self, handmade_trace):
        fm = extract_features(handmade_trace)
        a_cols = fm.group_columns("A")
        dropped = fm.drop_columns(a_cols)
        assert dropped.n_features == fm.n_features - len(a_cols)
        assert "A" not in dropped.groups

    def test_validation_mismatched_names(self):
        with pytest.raises(ValueError):
            FeatureMatrix(X=np.zeros((2, 3)), names=("a",), groups=("A", "B", "C"))

    def test_validation_non_2d(self):
        with pytest.raises(ValueError):
            FeatureMatrix(X=np.zeros(3), names=("a", "b", "c"), groups=("A", "A", "A"))
