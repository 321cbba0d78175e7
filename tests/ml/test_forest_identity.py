"""The lockstep grower against the recursive reference, tree for tree.

Every ``_TreeArrays`` field of every fitted tree must equal the
reference's (``tests/ml/forest_reference.py``), dtype included, and a
caller's ``Generator`` must end in exactly the state the reference's
per-call ``rng.choice`` draws leave it in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.garvey import _features
from repro.gpusim.device import get_device
from repro.gpusim.simulator import GpuSimulator
from repro.ml.forest import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    _fit_regressors,
)
from repro.profiler.nsight import NsightCollector
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from tests.ml.forest_reference import fit_forest, fit_tree

FIELDS = ("feature", "threshold", "left", "right", "prediction")


def assert_same_trees(trees, reference) -> None:
    assert len(trees) == len(reference)
    for i, (tree, ref) in enumerate(zip(trees, reference)):
        want = ref.arrays
        for name in FIELDS:
            got, expected = getattr(tree._arrays, name), getattr(want, name)
            assert got.dtype == expected.dtype, (i, name)
            assert np.array_equal(got, expected), (i, name)
        if ref.classes is not None:
            assert np.array_equal(tree.classes_, ref.classes), i


def twin(seed):
    """The same random state twice: the int, or a generator and a copy."""
    if not isinstance(seed, np.random.Generator):
        return seed, seed
    copy = np.random.default_rng()
    copy.bit_generator.state = seed.bit_generator.state
    return seed, copy


def check(X, y, *, classify: bool, n_estimators: int | None, seed, **params):
    """Fit ``X, y`` both ways (a forest, or one tree when
    ``n_estimators`` is None) and compare trees and generator states."""
    state, ref_state = twin(seed)
    if n_estimators is None:
        cls = DecisionTreeClassifier if classify else DecisionTreeRegressor
        trees = [cls(random_state=state, **params).fit(X, y)]
        reference = [
            fit_tree(X, y, classify=classify, random_state=ref_state, **params)
        ]
    else:
        cls = RandomForestClassifier if classify else RandomForestRegressor
        forest = cls(n_estimators=n_estimators, random_state=state, **params)
        trees = forest.fit(X, y).trees_
        reference = fit_forest(
            X, y, classify=classify, n_estimators=n_estimators,
            random_state=ref_state, **params,
        )
    assert_same_trees(trees, reference)
    if isinstance(state, np.random.Generator):
        assert state.bit_generator.state == ref_state.bit_generator.state
        assert state.integers(2**62) == ref_state.integers(2**62)
    return trees


# -- Garvey's datasets -------------------------------------------------------


@pytest.mark.parametrize("device", ["A100", "V100"])
@pytest.mark.parametrize("stencil", ["addsgd4", "j3d7pt", "rhs4center", "cheby"])
def test_garvey_forests_match_reference(stencil, device):
    """Garvey's own fit: 128 profiled settings, 32 trees, depth 8."""
    pattern, dev = get_stencil(stencil), get_device(device)
    collector = NsightCollector(GpuSimulator(dev, seed=0))
    space = build_space(pattern, dev)
    for seed in (0, 1, 2):
        dataset = collector.collect_dataset(pattern, space, n=128, seed=seed)
        X, y = _features(dataset.settings), dataset.times()
        # The tuner seeds its forest with one draw from its own stream.
        random_state = int(np.random.default_rng(seed).integers(2**31))
        check(X, y, classify=False, n_estimators=32, seed=random_state, max_depth=8)


# -- random data ---------------------------------------------------------------


def _data(n: int, n_features: int, discrete: bool, rng: np.random.Generator):
    if discrete:  # log2-discrete columns, like the tuning parameters: heavy ties
        X = 2.0 ** rng.integers(0, 4, size=(n, n_features))
    else:
        X = rng.normal(size=(n, n_features))
    y = np.round(X[:, 0] - X[:, -1] + rng.normal(0, 0.5, n), 1)
    labels = rng.integers(0, 3, size=n) * 4 + 1
    return X, y, labels


@pytest.mark.parametrize("classify", [False, True], ids=["regressor", "classifier"])
@pytest.mark.parametrize("discrete", [True, False], ids=["ties", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 128, 300])
def test_random_fits_match_reference(n, discrete, classify):
    rng = np.random.default_rng(1000 * n + 10 * discrete + classify)
    n_features = 6
    X, y, labels = _data(n, n_features, discrete, rng)
    target = labels if classify else y
    root = int(np.sqrt(n_features))
    pools = [None, 1, root, n_features, n_features + 5]
    # Every depth 1-10, leaf size 1-4, pool size and forest size
    # appears; seeds alternate between ints and generators.
    for i, depth in enumerate(range(1, 11)):
        check(
            X, target, classify=classify,
            n_estimators=(None, 1, 7, 32)[i % 4],
            seed=np.random.default_rng(i) if i % 2 else i,
            max_depth=depth,
            min_samples_leaf=1 + i % 4,
            max_features=pools[i % 5],
        )


def test_eight_class_forest_matches_reference():
    """NumPy adds up to 7 terms in order but 8 or more pairwise, so a
    bootstrap that misses one of 8 classes must have its Gini summed
    over its own 7 classes, not over 8 with a zero."""
    rng = np.random.default_rng(7)
    X = 2.0 ** rng.integers(0, 5, size=(60, 40))
    labels = rng.integers(0, 7, size=60)
    labels[:2] = 7  # a rare eighth class: many bootstraps miss it
    trees = check(X, labels, classify=True, n_estimators=16, seed=3,
                  max_depth=6, min_samples_leaf=1)
    assert {t.classes_.size for t in trees} == {7, 8}


def test_padding_beside_a_larger_node_adds_no_cut():
    # Tree 0's root (rows 0-3) is searched beside tree 1's larger root
    # (rows 4-9) and padded to its size. Splitting on column 1 leaves
    # the SSE at 1.0, the whole node's, so a cut between its last row
    # and the padding would tie it on the constant column 0, first in
    # the pool.
    X = np.array([[5.0, 1.0], [5.0, 1.0], [5.0, 2.0], [5.0, 2.0]]
                 + [[float(i), float(i)] for i in range(6)])
    y = np.array([0.0, 1.0, 0.0, 1.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
    trees = [DecisionTreeRegressor(min_samples_leaf=1, random_state=0)
             for _ in range(2)]
    _fit_regressors(trees, X, y, [np.arange(4), np.arange(4, 10)])
    alone = fit_tree(X[:4], y[:4], min_samples_leaf=1, random_state=0)
    assert_same_trees(trees[:1], [alone])
    assert trees[0]._arrays.feature[0] == 1


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_overflowing_scores_follow_the_pool_scan(scale):
    """Split scores that overflow to NaN: the reference scans the pool
    with a strict ``<`` from its first feature with a cut, so a NaN wins
    only from that feature and a later feature holding one never wins."""
    g = np.random.default_rng(0)
    X = 2.0 ** g.integers(0, 4, (60, 5))
    y = g.normal(size=60) * scale
    check(X, y, classify=False, n_estimators=4, seed=1, max_depth=4)


def test_single_tree_generator_left_where_choice_leaves_it():
    rng = np.random.default_rng(11)
    X = 2.0 ** rng.integers(0, 4, size=(90, 12))
    y = X[:, 2] * X[:, 5] + rng.normal(0, 0.1, 90)
    for max_features in (1, 3, 11):
        check(X, y, classify=False, n_estimators=None,
              seed=np.random.default_rng(max_features), max_features=max_features)


# -- the contract with the benchmark and with callers -------------------------------


@pytest.mark.parametrize("cls", [RandomForestRegressor, RandomForestClassifier])
def test_fit_and_predict_defined_on_each_forest(cls):
    # The benchmark's layer tracer wraps these by ``owner.__dict__[name]``.
    assert "fit" in cls.__dict__
    assert "predict" in cls.__dict__


def test_non_pcg64_generator_rejected_only_when_pools_are_drawn():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(30, 4)), rng.normal(size=30)
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        DecisionTreeRegressor(max_features=2, random_state=mt).fit(X, y)
    # Full pools draw nothing, so any generator will do.
    tree = DecisionTreeRegressor(random_state=mt).fit(X, y)
    assert_same_trees([tree], [fit_tree(X, y, random_state=0)])
