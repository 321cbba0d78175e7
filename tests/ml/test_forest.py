"""Unit tests for the from-scratch CART trees and random forests."""

import numpy as np
import pytest

from repro.ml.forest import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


@pytest.fixture
def step_data(rng):
    """Piecewise-constant target: perfectly learnable by one split."""
    X = rng.random((200, 3))
    y = np.where(X[:, 1] > 0.5, 10.0, -10.0)
    return X, y


@pytest.fixture
def xor_labels(rng):
    X = rng.integers(0, 2, size=(300, 2)).astype(float)
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int)).astype(int)
    return X + rng.normal(0, 0.05, X.shape), y


class TestTreeRegressor:
    def test_learns_step_function(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        pred = tree.predict(X)
        assert np.mean((pred - y) ** 2) < 1.0

    def test_depth_one_is_stump(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert len(np.unique(tree.predict(X))) <= 2

    def test_constant_target(self, rng):
        X = rng.random((30, 2))
        tree = DecisionTreeRegressor().fit(X, np.full(30, 7.0))
        assert np.allclose(tree.predict(X), 7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(rng.random((5, 2)), rng.random(4))

    def test_rejects_1d_x(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(rng.random(5), rng.random(5))

    def test_min_samples_leaf(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(min_samples_leaf=60).fit(X, y)
        # Cannot isolate tiny leaves; predictions are coarse averages.
        assert len(np.unique(tree.predict(X))) <= 4


class TestTreeClassifier:
    def test_learns_xor(self, xor_labels):
        X, y = xor_labels
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.95

    def test_classes_preserved(self, rng):
        X = rng.random((50, 2))
        y = rng.choice([3, 7, 9], size=50)
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= {3, 7, 9}

    def test_single_class(self, rng):
        X = rng.random((20, 2))
        tree = DecisionTreeClassifier().fit(X, np.zeros(20, dtype=int))
        assert np.all(tree.predict(X) == 0)


class TestForestRegressor:
    def test_beats_or_matches_noise_level(self, rng):
        X = rng.random((300, 4))
        y = 3 * X[:, 0] - 2 * X[:, 2] + rng.normal(0, 0.05, 300)
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        resid = forest.predict(X) - y
        assert np.sqrt(np.mean(resid**2)) < 0.5

    def test_deterministic_with_seed(self, rng):
        X, y = rng.random((60, 3)), rng.random(60)
        a = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y)
        b = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y)
        probe = rng.random((10, 3))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_rejects_zero_estimators(self, rng):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0).fit(
                rng.random((10, 2)), rng.random(10)
            )

    def test_generalizes_step(self, step_data):
        X, y = step_data
        forest = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        probe = np.array([[0.5, 0.9, 0.5], [0.5, 0.1, 0.5]])
        pred = forest.predict(probe)
        assert pred[0] > 5 and pred[1] < -5


class TestForestClassifier:
    def test_learns_xor(self, xor_labels):
        X, y = xor_labels
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=5, random_state=0
        ).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.9

    def test_majority_vote_labels_valid(self, rng):
        X = rng.random((80, 3))
        y = rng.choice(["a", "b"], size=80)
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert set(forest.predict(X)) <= {"a", "b"}


@pytest.mark.parametrize(
    "estimator",
    [DecisionTreeRegressor, DecisionTreeClassifier,
     RandomForestRegressor, RandomForestClassifier],
)
@pytest.mark.parametrize(
    "where, value",
    [("X", np.nan), ("X", np.inf), ("X", -np.inf), ("y", np.nan), ("y", np.inf)],
)
def test_rejects_non_finite_input(estimator, where, value):
    # NaN splits would make the per-feature argmin and the cross-feature
    # comparison disagree, so every fit refuses them up front.
    X = np.arange(40, dtype=float).reshape(20, 2)
    y = np.arange(20, dtype=float) % 3
    (X if where == "X" else y)[7] = value
    with pytest.raises(ValueError, match=f"{where} contains NaN or infinity"):
        estimator(random_state=0).fit(X, y)
