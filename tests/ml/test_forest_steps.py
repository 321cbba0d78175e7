"""What the step-bulk grower relies on, and cases that stress its steps.

Leaf values are taken at the end of a fit as ``y[rows].mean(axis=1)``
over every node of one size; that is only exact because NumPy adds each
row of a C-contiguous matrix as it adds a 1-D array (pairwise past 8
terms), which the first tests pin. The others grow forests whose steps
split many nodes into children of many sizes, against the recursive
reference, and forests whose split scores overflow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from tests.ml.test_forest_identity import check

#: Node sizes, across NumPy's switch to pairwise adds (8 terms) and its
#: 128-term blocks (128/129, 256/257).
SIZES = range(1, 301)


@pytest.mark.parametrize("rows", [1, 2, 5, 33])
def test_row_means_add_as_one_dimensional_means(rows):
    rng = np.random.default_rng(rows)
    for size in SIZES:
        # Mixed magnitudes make the order of adds show in the last bits.
        values = rng.normal(size=400) * 10.0 ** rng.integers(-3, 4, size=400)
        index = rng.integers(0, 400, size=(rows, size))
        got = values[index].mean(axis=1)
        want = np.array([values[i].mean() for i in index])
        assert got.tobytes() == want.tobytes(), size


def test_reduceat_is_not_a_one_dimensional_mean():
    """Why the leaf values are grouped by size: a segment sum adds in
    order, the 1-D mean pairwise, so they part past 8 terms."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-3, 4, size=300)
    sizes = np.arange(9, 200)
    starts = np.cumsum(sizes) % 100
    index = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, sizes)])
    at = np.cumsum(sizes) - sizes
    sums = np.add.reduceat(values[index], at) / sizes
    want = np.array([values[s:s + n].mean() for s, n in zip(starts, sizes)])
    assert (sums != want).any()


def _root_left_sizes(trees, X, seed) -> list[int]:
    """Rows each tree's root split sends left, from its bootstrap (drawn
    as the forest draws it: rows, then the tree's seed)."""
    rng = np.random.default_rng(seed)
    sizes = []
    for tree in trees:
        boot = rng.integers(0, X.shape[0], size=X.shape[0])
        rng.integers(2**31)
        arrays = tree._arrays
        sizes.append(int((X[boot, arrays.feature[0]] <= arrays.threshold[0]).sum()))
    return sizes


@pytest.mark.parametrize("n", [40, 300])
def test_first_step_children_of_many_sizes(n):
    """Every root is split in the first step; continuous columns put the
    cuts, and so the children's sizes, all over the place."""
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 8))
    y = X[:, 0] * X[:, 1] + rng.normal(0, 0.3, n)
    trees = check(X, y, classify=False, n_estimators=32, seed=n,
                  max_depth=6, min_samples_leaf=1, max_features=3)
    assert all(tree._arrays.left[0] >= 0 for tree in trees)
    assert len(set(_root_left_sizes(trees, X, n))) >= 12


def test_deep_trees_outgrow_the_first_arena(monkeypatch):
    """The node-rows arena starts with room for nine levels; deeper
    trees grow it mid-fit."""
    grown = []
    resize = np.resize

    def counting(*args):
        grown.append(args[1])
        return resize(*args)

    monkeypatch.setattr(np, "resize", counting)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = np.cumsum(rng.normal(size=200))
    check(X, y, classify=False, n_estimators=None, seed=0,
          max_depth=30, min_samples_leaf=1)
    check(X, y, classify=False, n_estimators=5, seed=0,
          max_depth=40, min_samples_leaf=1, max_features=2)
    assert grown


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_overflowing_scores_still_split(scale):
    """Finite targets whose squares or sums overflow score inf or NaN.
    Within a feature a NaN is the lowest score, as for ``argmin``, and
    where all scores are inf the first cut wins; across the pool a NaN
    wins only from the first feature with a cut (the reference's strict
    ``<`` scan; ``test_forest_identity.py`` compares the trees)."""
    rng = np.random.default_rng(0)
    X = 2.0 ** rng.integers(0, 4, size=(60, 5))
    y = rng.normal(size=60) * scale
    forest = RandomForestRegressor(n_estimators=4, max_depth=4, random_state=1)
    for tree in forest.fit(X, y).trees_:
        arrays = tree._arrays
        split = arrays.left >= 0
        assert split[0]
        # Every split separates two values of its feature.
        assert (arrays.threshold[split] > X.min(axis=0)[arrays.feature[split]]).all()
        assert (arrays.threshold[split] < X.max(axis=0)[arrays.feature[split]]).all()
        assert np.isfinite(arrays.prediction).all()
