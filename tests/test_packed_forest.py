"""PackedForest: exact equivalence with per-tree HistogramTree.predict."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GBTClassifier, GBTRegressor, HistogramTree, PackedForest


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1500, 9))
    X[:, 3] = rng.integers(0, 2, size=1500)  # a binary feature
    y_cls = rng.integers(0, 5, size=1500)
    y_reg = rng.normal(size=1500)
    Xq = rng.normal(size=(700, 9)) * 2.0  # includes unseen ranges
    Xq[:, 3] = rng.integers(0, 2, size=700)
    return X, y_cls, y_reg, Xq


class TestPackedEquivalence:
    def test_per_tree_leaf_values_exact(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=6).fit(X, y_cls)
        Xb = model.binner_.transform(Xq)
        packed = model.packed_
        leaf = packed.predict(Xb)
        flat = [t for round_trees in model.trees_ for t in round_trees]
        assert leaf.shape == (len(Xq), len(flat))
        for j, tree in enumerate(flat):
            assert np.array_equal(leaf[:, j], tree.predict(Xb))

    def test_classifier_decision_function_bit_identical(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=6).fit(X, y_cls)
        assert np.array_equal(
            model.decision_function(Xq), model._decision_function_legacy(Xq)
        )

    def test_classifier_chunk_boundaries(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=4).fit(X, y_cls)
        Xb = model.binner_.transform(Xq)
        full = model.packed_.predict(Xb)
        for chunk in (1, 7, len(Xq), 10 * len(Xq)):
            assert np.array_equal(model.packed_.predict(Xb, chunk_size=chunk), full)

    def test_regressor_predict_bit_identical(self, data):
        X, _, y_reg, Xq = data
        model = GBTRegressor(n_rounds=9).fit(X, y_reg)
        Xb = model.binner_.transform(Xq)
        ref = np.full(len(Xq), model.base_score_)
        for tree in model.trees_:
            ref += model.learning_rate * tree.predict(Xb)
        assert np.array_equal(model.predict(Xq), ref)

    def test_single_class_degenerate(self, data):
        X, _, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, np.zeros(len(X)))
        assert model.packed_ is None
        assert np.array_equal(
            model.decision_function(Xq), model._decision_function_legacy(Xq)
        )
        assert (model.predict(Xq) == 0).all()


class TestPackedConstruction:
    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            PackedForest.from_trees([])

    def test_mixed_depth_rejected(self, data):
        X, _, y_reg, _ = data
        rng = np.random.default_rng(0)
        Xb = (rng.random((200, 3)) * 10).astype(np.uint8)
        g = rng.normal(size=200)
        h = np.ones(200)
        t1 = HistogramTree.fit(Xb, g, h, max_depth=3)
        t2 = HistogramTree.fit(Xb, g, h, max_depth=4)
        with pytest.raises(ValueError):
            PackedForest.from_trees([t1, t2])

    def test_decision_scores_requires_divisible_classes(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        Xb = model.binner_.transform(Xq)
        with pytest.raises(ValueError):
            model.packed_.decision_scores(Xb, 0.0, 0.3, n_classes=7)


class TestPredictionCache:
    def test_shared_pass_between_proba_and_predict(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=4).fit(X, y_cls)
        calls = {"n": 0}
        orig = model._raw_scores

        def counting(*a, **kw):
            calls["n"] += 1
            return orig(*a, **kw)

        model._raw_scores = counting
        proba = model.predict_proba(Xq)
        pred = model.predict(Xq)
        assert calls["n"] == 1  # second call served from the cache
        assert np.array_equal(pred, model.classes_[np.argmax(proba, axis=1)])

    def test_cache_invalidated_on_refit(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        first = model.decision_function(Xq)
        model.fit(X[:800], y_cls[:800])
        second = model.decision_function(Xq)
        assert first.shape == second.shape
        assert not np.array_equal(first, second)

    def test_distinct_arrays_not_conflated(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        a = model.decision_function(Xq)
        other = Xq + 1.0
        b = model.decision_function(other)
        assert not np.array_equal(a, b)

    def test_inplace_mutation_invalidates_cache(self, data):
        """Reusing one buffer for different batches must not serve stale scores."""
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        buf = Xq.copy()
        first = model.decision_function(buf)
        buf[:] = Xq + 1.0  # same object, new contents
        second = model.decision_function(buf)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, model._decision_function_legacy(Xq + 1.0))

    def test_sum_preserving_mutation_invalidates_cache(self, data):
        """A row swap keeps np.sum(X) exact — the fingerprint must still see it."""
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        buf = Xq.copy()
        first = model.decision_function(buf)
        buf[[0, 1]] = buf[[1, 0]]  # same object, same sum, new row order
        second = model.decision_function(buf)
        assert np.array_equal(second[0], first[1])
        assert np.array_equal(second[1], first[0])


def _root_leaf_tree(max_depth: int, rng) -> HistogramTree:
    """A tree that never splits: its inputs are constant."""
    n = 50
    return HistogramTree.fit(
        np.zeros((n, 4), dtype=np.uint8), rng.normal(size=n), np.ones(n),
        max_depth=max_depth, min_samples_leaf=1,
    )


class TestExitLeafScoring:
    """decision_scores_one (leaf bitmasks) vs decision_scores (level
    routing): equal bit for bit on every row."""

    @staticmethod
    def _assert_rows_equal(forest, Xb, base, lr, k):
        ref = forest.decision_scores(Xb, base, lr, k)
        out = np.empty(k)
        for i in range(Xb.shape[0]):
            got = forest.decision_scores_one(Xb[i], base, lr, k, out=out)
            assert got is out
            assert np.array_equal(got, ref[i]), i

    @given(
        max_depth=st.integers(1, 8),
        n_classes=st.sampled_from([1, 2, 4]),
        min_samples_leaf=st.sampled_from([1, 3, 20, 200]),
        root_leaves=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_routing(
        self, max_depth, n_classes, min_samples_leaf, root_leaves, seed
    ):
        rng = np.random.default_rng(seed)
        n, p = 400, 5
        X = rng.normal(size=(n, p))
        X[:, 1] = np.round(X[:, 1])  # a coarse column with few cuts
        if n_classes == 1:
            # Enough rounds that a pairwise sum would reorder the adds.
            model = GBTRegressor(
                n_rounds=12, max_depth=max_depth,
                min_samples_leaf=min_samples_leaf, n_bins=256,
            ).fit(X, rng.normal(size=n))
            trees = list(model.trees_)
            base = model.base_score_
        else:
            model = GBTClassifier(
                n_rounds=2, max_depth=max_depth,
                min_samples_leaf=min_samples_leaf, n_bins=256,
            ).fit(X, rng.integers(0, n_classes, n))
            trees = [t for r in model.trees_ for t in r]
            base = model.base_score_
        # Swap whole rounds for root-leaf trees (kept round-major).
        for r in rng.choice(len(trees) // n_classes, root_leaves, replace=True):
            for c in range(n_classes):
                trees[r * n_classes + c] = _root_leaf_tree(max_depth, rng)
        forest = PackedForest.from_trees(trees)
        # Any uint8 code, plus the extremes: codes above every cut.
        Xb = rng.integers(0, 256, size=(40, p), dtype=np.uint8)
        Xb[0], Xb[1] = 0, 255
        self._assert_rows_equal(forest, Xb, base, model.learning_rate, n_classes)

    def test_deep_trees_use_multiword_masks(self, data):
        X, _, y_reg, Xq = data
        model = GBTRegressor(n_rounds=4, max_depth=8, min_samples_leaf=1).fit(X, y_reg)
        forest = model.packed_
        assert max(t.n_leaves for t in model.trees_) > 64
        Xb = model.binner_.transform(Xq[:200])
        self._assert_rows_equal(forest, Xb, model.base_score_, model.learning_rate, 1)
        assert forest._exit_tables.words > 1

    def test_all_root_leaf_forest(self):
        rng = np.random.default_rng(3)
        forest = PackedForest.from_trees([_root_leaf_tree(3, rng) for _ in range(6)])
        Xb = rng.integers(0, 256, size=(5, 4), dtype=np.uint8)
        self._assert_rows_equal(forest, Xb, np.array([0.5, -1.0]), 0.3, 2)
        assert forest._exit_tables.used.size == 0

    def test_kept_scaling_follows_rate_base_and_classes(self, data):
        # The one-row path keeps ``leaf * lr`` and its rounds buffer
        # across calls; alternating the arguments must never reuse a
        # stale one.
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3, max_depth=4).fit(X, y_cls)
        forest = model.packed_
        k = len(model.classes_)
        Xb = model.binner_.transform(Xq[:6])
        calls = [
            (rate, base, n_classes)
            for n_classes in (k, 1, k)
            for rate in (model.learning_rate, 0.37)
            for base in ((model.base_score_, -0.25) if n_classes == k else (0.0, 2.5))
        ]
        for rate, base, n_classes in calls + calls[::-1]:
            ref = forest.decision_scores(Xb, base, rate, n_classes)
            for i in range(Xb.shape[0]):
                got = forest.decision_scores_one(Xb[i], base, rate, n_classes)
                assert np.array_equal(got, ref[i]), (rate, n_classes, i)

    def test_integer_codes_out_of_uint8_range(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3, max_depth=5).fit(X, y_cls)
        Xb = model.binner_.transform(Xq[:60]).astype(np.int64)
        Xb[::3, 0] = 400
        Xb[1::3, 2] = -7
        k = len(model.classes_)
        self._assert_rows_equal(
            model.packed_, Xb, model.base_score_, model.learning_rate, k
        )


class TestExitLeafTablesAreDerived:
    def test_pickle_omits_tables(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3).fit(X, y_cls)
        forest = model.packed_
        before = pickle.dumps(model)
        xb = model.binner_.transform(Xq[:1])[0]
        k = len(model.classes_)
        want = forest.decision_scores_one(
            xb, model.base_score_, model.learning_rate, k
        )
        tables = forest._exit_tables
        assert tables is not None
        after = pickle.dumps(model)
        assert after == before
        assert tables.masks.tobytes() not in after
        clone = pickle.loads(after)
        assert clone.packed_._exit_tables is None
        got = clone.packed_.decision_scores_one(
            xb, clone.base_score_, clone.learning_rate, k
        )
        assert np.array_equal(got, want)

    def test_pickle_after_predict(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=2).fit(X, y_cls)
        want = model.predict(Xq)  # fills the weak-reference cache
        clone = pickle.loads(pickle.dumps(model))
        assert clone._raw_cache is None
        assert np.array_equal(clone.predict(Xq), want)

    def test_refit_rebuilds_tables(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=2).fit(X, y_cls)
        xb = model.binner_.transform(Xq[:1])[0]
        k = len(model.classes_)
        model.packed_.decision_scores_one(xb, model.base_score_, model.learning_rate, k)
        model.fit(X, np.roll(y_cls, 1))
        assert model.packed_._exit_tables is None
        xb = model.binner_.transform(Xq[:1])
        got = model.packed_.decision_scores_one(
            xb[0], model.base_score_, model.learning_rate, k
        )
        ref = model.packed_.decision_scores(
            xb, model.base_score_, model.learning_rate, k
        )
        assert np.array_equal(got, ref[0])


def _queries(edges, rng, n=48):
    """Feature rows that probe every routing boundary: values between
    and beyond the edges, exactly on an edge, one ulp above one, NaN
    and ±inf."""
    Q = rng.normal(size=(n, len(edges))) * 3.0
    for c, e in enumerate(edges):
        if e.size:
            on = rng.random(n) < 0.3
            Q[on, c] = rng.choice(e, on.sum())
            up = rng.random(n) < 0.15
            Q[up, c] = np.nextafter(rng.choice(e, up.sum()), np.inf)
    Q[rng.random(Q.shape) < 0.08] = np.nan
    Q[rng.random(Q.shape) < 0.04] = np.inf
    Q[rng.random(Q.shape) < 0.04] = -np.inf
    Q[0], Q[1] = np.nan, np.inf
    return Q


def _legacy_scores(trees, codes, base, lr, k):
    """The sequential per-tree loop over bin codes, round-major trees."""
    raw = np.tile(np.asarray(base, dtype=float), (codes.shape[0], 1)).reshape(-1, k)
    for j, tree in enumerate(trees):
        raw[:, j % k] += lr * tree.predict(codes)
    return raw


class TestFeatureSpaceRouting:
    """Raw feature values route exactly as their bin codes do: batch
    and one-row scores of features, code scores of ``binner.transform``
    and the legacy per-tree loop agree bit for bit."""

    @given(
        max_depth=st.integers(1, 8),
        n_classes=st.sampled_from([1, 2, 4]),
        min_samples_leaf=st.sampled_from([1, 3, 20]),
        root_leaves=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_features_match_codes(
        self, max_depth, n_classes, min_samples_leaf, root_leaves, seed
    ):
        rng = np.random.default_rng(seed)
        n, p = 400, 6
        X = rng.normal(size=(n, p))
        X[:, 1] = np.round(X[:, 1])  # a coarse column with few edges
        X[:, 4] = 2.5                # a constant column: no edges
        X[rng.random(n) < 0.05, 2] = np.nan
        if n_classes == 1:
            model = GBTRegressor(
                n_rounds=6, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            ).fit(X, X[:, 0] + rng.normal(size=n))
            rounds = model.trees_
        else:
            model = GBTClassifier(
                n_rounds=3, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            ).fit(X, rng.integers(0, n_classes, n))
            rounds = model.trees_
        # Swap whole rounds for root-leaf trees, then repack.
        for r in rng.choice(len(rounds), root_leaves, replace=True):
            leaf = [_root_leaf_tree(max_depth, rng) for _ in range(n_classes)]
            rounds[r] = leaf[0] if n_classes == 1 else leaf
        model._packed = None
        forest, binner = model.packed_, model.binner_
        assert binner.edges_[4].size == 0
        base, lr = model.base_score_, model.learning_rate
        trees = rounds if n_classes == 1 else [t for r in rounds for t in r]

        Q = _queries(binner.edges_, rng)
        Q_before = Q.copy()
        codes = binner.transform(Q)
        got = forest.decision_scores(Q, base, lr, n_classes)
        assert np.array_equal(Q, Q_before, equal_nan=True)
        assert np.array_equal(got, forest.decision_scores(codes, base, lr, n_classes))
        assert np.array_equal(got, _legacy_scores(trees, codes, base, lr, n_classes))
        if n_classes == 1:
            assert np.array_equal(model.predict(Q), got[:, 0])
        else:
            assert np.array_equal(model.decision_function(Q), got)
            assert np.array_equal(model._decision_function_legacy(Q), got)
        out = np.empty(n_classes)
        for i in range(Q.shape[0]):
            assert np.array_equal(
                forest.decision_scores_one(Q[i], base, lr, n_classes, out=out), got[i]
            ), i
            assert np.array_equal(
                forest.decision_scores_one(codes[i], base, lr, n_classes), got[i]
            ), i
        # One exit-leaf word per 64 leaves of the leafiest tree: depth-8
        # trees with few leaves stay at one word, deep regressors on
        # min_samples_leaf=1 take two.
        most = max(t.n_leaves for t in trees)
        assert forest._exit_tables.words == (most + 63) // 64
        if n_classes == 1 and max_depth >= 7 and min_samples_leaf == 1:
            assert forest._exit_tables.words > 1

    @staticmethod
    def _hand_built():
        """Depth 2: the root splits feature 0 at edge 0; its left child
        splits feature 1 at bin 5, past the column's 2 edges, so it
        always goes left (NaN included) to leaf 1.0; leaf 2.0 is reached
        only by integer codes above 5."""
        feature = np.array([0, 1, -1, -1, -1, -1, -1])
        split_bin = np.array([0, 5, 0, 0, 0, 0, 0])
        value = np.array([0.0, 0.0, 3.0, 1.0, 2.0, 0.0, 0.0])
        is_leaf = feature < 0
        tree = HistogramTree(feature, split_bin, value, is_leaf, max_depth=2)
        edges = [np.array([0.0]), np.array([-1.0, 1.0])]
        return tree, PackedForest.from_trees([tree], edges)

    def test_cut_past_the_edges_goes_left(self):
        tree, forest = self._hand_built()
        x1 = np.array([np.nan, np.inf, -np.inf, -1.0, 1.0, 7.0])
        X = np.column_stack([np.full(x1.size, -0.5), x1])
        want = np.ones((x1.size, 1))
        assert np.array_equal(forest.predict(X), want)
        assert np.array_equal(forest.decision_scores(X, 0.0, 1.0), want)
        for i in range(x1.size):
            assert forest.decision_scores_one(X[i], 0.0, 1.0)[0] == 1.0
        # Feature 0 at NaN or above its edge goes right, to leaf 3.0.
        X[:, 0] = [np.nan, np.inf, 0.5, np.nan, 1e-300, 3.0]
        assert np.array_equal(forest.decision_scores(X, 0.0, 1.0), 3 * want)

    def test_int64_codes_above_255_route_as_the_tree(self):
        tree, forest = self._hand_built()
        codes = np.array(
            [[0, 0], [0, 2], [0, 5], [0, 6], [0, 300], [0, 70_000],
             [0, 2**40], [0, -7], [1, 0], [300, 300], [-5, 2**62]],
            dtype=np.int64,
        )
        want = tree.predict(codes)
        assert np.array_equal(want[[3, 4, 5, 6]], [2.0] * 4)
        assert np.array_equal(forest.predict(codes)[:, 0], want)
        for i in range(codes.shape[0]):
            assert forest.decision_scores_one(codes[i], 0.0, 1.0)[0] == want[i]

    def test_int64_codes_above_255_in_a_fitted_forest(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=3, max_depth=6).fit(X, y_cls)
        codes = model.binner_.transform(Xq[:90]).astype(np.int64)
        codes[::3, 0] = 300
        codes[1::3, 2] = 2**40
        codes[2::3, 5] = -7
        k, trees = len(model.classes_), [t for r in model.trees_ for t in r]
        want = _legacy_scores(trees, codes, model.base_score_, model.learning_rate, k)
        forest = model.packed_
        got = forest.decision_scores(codes, model.base_score_, model.learning_rate, k)
        assert np.array_equal(got, want)
        for i in range(codes.shape[0]):
            one = forest.decision_scores_one(
                codes[i], model.base_score_, model.learning_rate, k
            )
            assert np.array_equal(one, want[i]), i

    def test_features_need_edges(self, data):
        X, y_cls, _, Xq = data
        model = GBTClassifier(n_rounds=2).fit(X, y_cls)
        bare = PackedForest.from_trees([t for r in model.trees_ for t in r])
        k = len(model.classes_)
        with pytest.raises(ValueError, match="bin edges"):
            bare.decision_scores(Xq, model.base_score_, model.learning_rate, k)
        with pytest.raises(ValueError, match="bin edges"):
            bare.decision_scores_one(Xq[0], model.base_score_, model.learning_rate, k)
