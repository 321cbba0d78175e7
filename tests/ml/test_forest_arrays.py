"""Array prediction vs the recursive reference's node walk.

The forests grow their trees straight into flat feature / threshold /
child arrays and predict by descending them level by level. The
recursive grower and its per-row node walk live on only in
``tests/ml/forest_reference.py``; these tests check that the arrays
predict what the reference's nodes predict, row for row.
"""

import numpy as np
import pytest

from repro.core.searchstats import reset_search_stats, search_info
from repro.ml.forest import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from tests.ml.forest_reference import fit_forest, fit_tree


def _datasets(n_trials: int = 12):
    rng = np.random.default_rng(42)
    for trial in range(n_trials):
        n = int(rng.integers(6, 150))
        d = int(rng.integers(1, 9))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:  # duplicate feature values exercise tie splits
            X = np.round(X, 1)
        yield trial, X, rng.normal(size=n), rng.integers(0, 4, size=n) * 3 + 1


class TestTreeArrayEquivalence:
    def test_regressor_matches_node_walk(self):
        for trial, X, y, _ in _datasets():
            params = dict(max_depth=6, random_state=trial, max_features=2)
            tree = DecisionTreeRegressor(**params).fit(X, y)
            ref = fit_tree(X, y, **params)
            assert np.array_equal(tree.predict(X), ref.predict(X)), trial

    def test_classifier_matches_node_walk(self):
        for trial, X, _, yc in _datasets():
            params = dict(max_depth=6, random_state=trial)
            tree = DecisionTreeClassifier(**params).fit(X, yc)
            ref = fit_tree(X, yc, classify=True, **params)
            assert np.array_equal(tree.predict(X), ref.predict(X)), trial

    def test_compile_shape(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 10).astype(float)
        arrays = DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y)._arrays
        leaves = arrays.left < 0
        assert np.array_equal(leaves, arrays.right < 0)
        assert leaves.any()
        # Internal nodes reference in-bounds children, left child first.
        inner = np.flatnonzero(~leaves)
        assert np.array_equal(arrays.left[inner], inner + 1)
        assert (arrays.right[inner] > arrays.left[inner]).all()
        assert (arrays.right[inner] < arrays.left.size).all()

    def test_refit_recompiles(self):
        X = np.arange(30, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=3, random_state=0)
        tree.fit(X, X[:, 0])
        first = tree.predict(X)
        tree.fit(X, -X[:, 0])
        assert not np.array_equal(tree.predict(X), first)

    def test_unfitted_tree_refuses_to_predict(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))


class TestForestEquivalence:
    def test_regressor_forest_matches_walk(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(80, 5)), rng.normal(size=80)
        forest = RandomForestRegressor(n_estimators=9, random_state=5).fit(X, y)
        ref = fit_forest(X, y, n_estimators=9, random_state=5)
        expected = np.stack([t.predict(X) for t in ref]).mean(axis=0)
        assert np.array_equal(forest.predict(X), expected)

    def test_garvey_shaped_forest_matches_walk(self):
        # 128 x 19, 32 trees, depth 8: the Garvey baseline's forest.
        rng = np.random.default_rng(6)
        X = 2.0 ** rng.integers(0, 6, size=(128, 19))
        y = X[:, 0] / X[:, 3] + rng.normal(0, 0.1, 128)
        forest = RandomForestRegressor(random_state=6).fit(X, y)
        ref = fit_forest(X, y, random_state=6)
        probe = 2.0 ** rng.integers(0, 6, size=(256, 19))
        expected = np.stack([t.predict(probe) for t in ref]).mean(axis=0)
        assert np.array_equal(forest.predict(probe), expected)

    def test_classifier_forest_matches_unique_vote(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(90, 4))
        yc = rng.integers(0, 3, size=90) * 5 + 2
        forest = RandomForestClassifier(n_estimators=9, random_state=5).fit(X, yc)
        votes = np.stack([t.predict(X) for t in forest.trees_])
        expected = []
        for col in votes.T:  # the pre-vectorization per-column scan
            vals, counts = np.unique(col, return_counts=True)
            expected.append(vals[np.argmax(counts)])
        assert np.array_equal(forest.predict(X), np.array(expected))

    def test_fitted_trees_pinned_for_fixed_seed(self):
        """Two forests with the same seed agree node for node."""
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(60, 6)), rng.normal(size=60)
        a = RandomForestRegressor(n_estimators=5, random_state=9).fit(X, y)
        b = RandomForestRegressor(n_estimators=5, random_state=9).fit(X, y)
        for ta, tb in zip(a.trees_, b.trees_):
            ca, cb = ta._arrays, tb._arrays
            assert np.array_equal(ca.feature, cb.feature)
            assert np.array_equal(ca.threshold, cb.threshold)
            assert np.array_equal(ca.prediction, cb.prediction)

    def test_predict_rows_counter(self):
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(25, 3)), rng.normal(size=25)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        reset_search_stats()
        forest.predict(X)
        forest.predict(X[:10])
        assert search_info()["forest_predict_rows"] == 35
        reset_search_stats()


class TestSingleRowInput:
    def test_one_dimensional_row_predicts(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, X[:, 0])
        out = tree.predict(np.array([3.0]))
        assert out.shape == (1,)
        ref = fit_tree(X, X[:, 0], max_depth=3, random_state=0)
        assert out[0] == ref.predict(np.array([3.0]))[0]
