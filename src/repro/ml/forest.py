"""CART decision trees and random forests, from scratch in NumPy.

The Garvey baseline trains a random forest to predict the optimal
memory type for a stencil before exhaustively searching within groups
(Garvey & Abdelrahman, ICPP'15). scikit-learn is not available in this
offline environment, so we implement the standard algorithms directly:
greedy binary CART splits (variance reduction for regression, Gini for
classification), bootstrap aggregation and per-split feature
subsampling.

Every fit goes through one grower, :func:`_fit_trees`, which grows the
trees of a forest in lockstep (a single tree is a one-tree forest
without bootstrap). Each tree walks its nodes in preorder from a stack
and draws their feature pools in that order, so its RNG stream is the
recursive grower's. Each step searches every tree's next node at once:
their pooled columns form one ``(nodes, pool, rows)`` block, sorted
stably by value, whose per-row target vectors (``(y, y*y)``, or one-hot
labels) are prefix-summed with ``cumsum``. The sums add sequentially,
as the per-column search did, so every score is the same float and the
fitted trees are the same, bit for bit.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core import searchstats
from repro.utils.rng import _PCG64Replay, rng_from_seed


@dataclass(frozen=True)
class _TreeArrays:
    """A fitted tree as parallel node arrays, in preorder.

    ``left[i] < 0`` marks node ``i`` as a leaf. Prediction descends all
    rows one level per iteration; ``value <= threshold`` goes left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.flatnonzero(self.left[cur] >= 0)
        while rows.size:
            nodes = cur[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            cur[rows] = np.where(go_left, self.left[nodes], self.right[nodes])
            rows = rows[self.left[cur[rows]] >= 0]
        return self.prediction[cur]


#: Cells (node x pooled feature x row) one split search handles at most:
#: larger steps are searched in chunks, which bounds the temporaries.
_SEARCH_CELLS = 4096


def _variance(left, right, left_n, right_n, n) -> np.ndarray:
    """Total child sum of squares, from the sums of ``y`` and ``y*y``."""
    return (left[..., 1] - left[..., 0] ** 2 / left_n) + (
        right[..., 1] - right[..., 0] ** 2 / right_n
    )


def _gini(left, right, left_n, right_n, n) -> np.ndarray:
    """Size-weighted child Gini impurity, from the class counts."""
    gini_left = 1.0 - np.sum((left / left_n[..., None]) ** 2, axis=-1)
    gini_right = 1.0 - np.sum((right / right_n[..., None]) ** 2, axis=-1)
    return (left_n * gini_left + right_n * gini_right) / n


def _search(
    X: np.ndarray,
    ranks: np.ndarray,
    targets: np.ndarray,
    offsets: np.ndarray,
    rows: list[np.ndarray],
    pools: list[np.ndarray],
    score: Callable[..., np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of each pending node: (feature, threshold, found).

    Node ``p`` holds the data rows ``rows[p]`` (in bootstrap order),
    searches the features ``pools[p]`` (``ranks[f]`` is column ``f`` as
    dense ranks) and reads row ``r``'s target vector from row
    ``offsets[p] + r`` of ``targets``. Nodes are padded to the largest
    with row ``n``, which ranks last and has zero targets; ``score``
    (lower is better) is masked past each node's last row. The first
    best cut per feature, then the first best feature, win: the old
    per-column ``argmin`` and strict ``<`` scan.
    """
    sizes = np.array([r.size for r in rows])
    span = int(sizes.max())
    idx = np.full((len(rows), span), ranks.shape[1] - 1, dtype=np.int32)
    idx[np.arange(span) < sizes[:, None]] = np.concatenate(rows)
    cols = np.array(pools, dtype=np.int32)[:, :, None]
    keys = np.take(ranks, cols * ranks.shape[1] + idx[:, None, :])
    # Ranks order rows as their values do; the stable sort keeps ties in
    # bootstrap order, as the per-column sort of the values did.
    order = np.argsort(keys, axis=-1, kind="stable")
    sidx = np.take_along_axis(idx[:, None, :], order, axis=-1)
    keys = np.take_along_axis(keys, order, axis=-1)
    del order
    # Sequential adds along the rows, as the 1-D cumsum per column.
    prefix = np.cumsum(np.take(targets, offsets[:, None, None] + sidx, axis=0), -2)
    n = sizes[:, None, None]
    total = np.take_along_axis(prefix, n[..., None] - 1, axis=-2)
    left = prefix[..., :-1, :]
    left_n = np.arange(1, span)
    scores = score(left, total - left, left_n, np.maximum(n - left_n, 1), n)
    cut = (keys[..., 1:] != keys[..., :-1]) & (left_n < n)
    scores = np.where(cut, scores, np.inf)
    pos = scores.argmin(axis=-1)
    best = np.take_along_axis(scores, pos[..., None], axis=-1)[..., 0]
    p = np.arange(len(rows))
    f = best.argmin(axis=-1)
    pos = pos[p, f]
    feature = cols[p, f, 0]
    lo, hi = X[sidx[p, f, pos], feature], X[sidx[p, f, pos + 1], feature]
    return feature, 0.5 * (lo + hi), cut[p, f].any(axis=-1)


def _fit_trees(
    trees: list[_BaseTree],
    X: np.ndarray,
    boots: list[np.ndarray],
    targets: np.ndarray,
    widths: list[int],
    leaf: Callable[[int, np.ndarray], tuple[float, bool]],
    score: Callable[..., np.ndarray],
) -> None:
    """Fit ``trees`` (same hyper-parameters) in lockstep, tree ``t`` on
    the data rows ``boots[t]``.

    ``targets[t]`` (or ``targets[0]``, shared) holds each data row's
    target vector and an all-zero pad row; tree ``t`` uses its first
    ``widths[t]`` columns. Only nodes of equal width are searched
    together, so class sums run over each tree's own classes.
    ``leaf(t, rows)`` gives a node's prediction and whether it is pure.
    """
    n, n_features = X.shape
    offsets = np.arange(len(trees), dtype=np.int32) * (n + 1) * (len(targets) > 1)
    table = targets.reshape(-1, targets.shape[-1])
    first = trees[0]
    max_depth, msl = first.max_depth, first.min_samples_leaf
    k = max(1, min(first.max_features or n_features, n_features))
    every = np.arange(n_features)
    # Each column as dense ranks, with a pad row ranked above every value.
    ranks = np.array(
        [np.unique(np.append(col, np.inf), return_inverse=True)[1] for col in X.T],
        dtype=np.min_scalar_type(n),
    )
    draws = [
        _PCG64Replay(rng_from_seed(t.random_state)) if k < n_features else None
        for t in trees
    ]
    # Per tree, the _TreeArrays fields as growing columns, in preorder.
    nodes = [[array(c) for c in "qdqqd"] for _ in trees]
    # (rows, depth, parent if the right child else -1), popped left first.
    stacks = [[(rows, 0, -1)] for rows in boots]

    def advance(t: int) -> tuple | None:
        """Tree ``t``'s next node in preorder that needs a split search."""
        stack, right = stacks[t], nodes[t][3]
        while stack:
            rows, depth, parent = stack.pop()
            i = len(right)
            if parent >= 0:
                right[parent] = i
            value, pure = leaf(t, rows)
            for column, v in zip(nodes[t], (-1, 0.0, -1, -1, value)):
                column.append(v)
            if depth < max_depth and rows.size >= 2 * msl and not pure:
                draw = draws[t]
                pool = every if draw is None else draw.choice(n_features, k)
                return i, rows, depth, pool
        return None

    try:
        pending = {t: node for t in range(len(trees)) if (node := advance(t))}
        while pending:
            found = {}
            for width in {widths[t] for t in pending}:
                # Largest first, each chunk sized by its own first node.
                group = sorted((t for t in pending if widths[t] == width),
                               key=lambda t: -pending[t][1].size)
                while group:
                    per = max(1, _SEARCH_CELLS // (k * pending[group[0]][1].size))
                    chunk, group = group[:per], group[per:]
                    split = _search(
                        X, ranks, table[:, :width], offsets[chunk],
                        [pending[t][1] for t in chunk],
                        [pending[t][3] for t in chunk], score,
                    )
                    found.update(zip(chunk, zip(*split)))
            for t, (feature, threshold, ok) in found.items():
                i, rows, depth, _ = pending[t]
                if ok:
                    mask = X[rows, feature] <= threshold
                    if msl <= np.count_nonzero(mask) <= rows.size - msl:
                        feat, thr, left = nodes[t][:3]
                        feat[i], thr[i], left[i] = feature, threshold, i + 1
                        stacks[t] += [(rows[~mask], depth + 1, i),
                                      (rows[mask], depth + 1, -1)]
                node = advance(t)
                if node:
                    pending[t] = node
                else:
                    del pending[t]
    finally:
        for draw in draws:
            if draw is not None:
                draw.sync()
    for tree, columns in zip(trees, nodes):
        tree.n_features_ = n_features
        tree._arrays = _TreeArrays(*(np.array(c) for c in columns))


def _fit_regressors(trees, X: np.ndarray, y: np.ndarray, boots) -> None:
    """Variance-reduction trees over the target vectors ``(y, y*y)``."""
    table = np.vstack([np.column_stack([y, y * y]), np.zeros(2)])

    def leaf(t: int, rows: np.ndarray) -> tuple[float, bool]:
        ys = y[rows]
        return float(ys.mean()), bool((ys == ys[0]).all())

    _fit_trees(trees, X, boots, table[None], [2] * len(trees), leaf, _variance)


def _fit_classifiers(trees, X: np.ndarray, y: np.ndarray, boots) -> None:
    """Gini trees over one-hot labels, each on its own rows' classes."""
    classes = [np.unique(y[rows]) for rows in boots]
    widths = [c.size for c in classes]
    targets = np.zeros((len(trees), X.shape[0] + 1, max(widths)))
    for t, (tree, rows, c) in enumerate(zip(trees, boots, classes)):
        tree.classes_ = c
        targets[t, rows, np.searchsorted(c, y[rows])] = 1.0

    def leaf(t: int, rows: np.ndarray) -> tuple[float, bool]:
        counts = targets[t, rows, : widths[t]].sum(axis=0)
        return float(np.argmax(counts)), np.count_nonzero(counts) <= 1

    _fit_trees(trees, X, boots, targets, widths, leaf, _gini)


def _validate(X, y, max_depth: int) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity")
    if y.dtype.kind in "fc" and not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinity")
    return X, y


@dataclass
class _BaseTree:
    """Shared CART parameters and the fitted node arrays."""

    max_depth: int = 8
    min_samples_leaf: int = 2
    max_features: int | None = None
    random_state: int | np.random.Generator | None = None
    _arrays: _TreeArrays | None = field(default=None, repr=False)
    n_features_: int = field(default=0, repr=False)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._arrays is None:
            raise RuntimeError("tree is not fitted")
        return self._arrays.predict(np.atleast_2d(np.asarray(X, dtype=np.float64)))


class DecisionTreeRegressor(_BaseTree):
    """Greedy variance-reduction CART regressor."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = _validate(X, np.asarray(y, dtype=np.float64), self.max_depth)
        _fit_regressors([self], X, y, [np.arange(X.shape[0])])
        return self


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity CART classifier over integer class labels.

    ``classes_`` (the sorted unique labels) is set by :meth:`fit`.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = _validate(X, y, self.max_depth)
        _fit_classifiers([self], X, y, [np.arange(X.shape[0])])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[super().predict(X).astype(np.int64)]


@dataclass
class _BaseForest:
    """Bootstrap-aggregated ensemble scaffolding."""

    n_estimators: int = 32
    max_depth: int = 8
    min_samples_leaf: int = 2
    max_features: int | None = None
    random_state: int | np.random.Generator | None = None

    def _plant(self, X, y, tree_type) -> tuple[np.ndarray, np.ndarray, list, list]:
        """Validated data, unfitted trees and their bootstrap rows.

        Each tree draws its bootstrap rows, then its seed, from the
        forest's stream, one tree after another.
        """
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        X, y = _validate(X, y, self.max_depth)
        rng = rng_from_seed(self.random_state)
        n = X.shape[0]
        mf = self.max_features or max(1, int(np.sqrt(X.shape[1])))
        trees, boots = [], []
        for _ in range(self.n_estimators):
            boots.append(rng.integers(0, n, size=n))
            seed = int(rng.integers(2**31))
            trees.append(tree_type(self.max_depth, self.min_samples_leaf, mf, seed))
        return X, y, trees, boots


class RandomForestRegressor(_BaseForest):
    """Mean-aggregated forest of CART regressors."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y, self.trees_, boots = self._plant(
            X, np.asarray(y, dtype=np.float64), DecisionTreeRegressor
        )
        _fit_regressors(self.trees_, X, y, boots)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        searchstats.bump("forest_predict_rows", X.shape[0])
        preds = np.stack([t.predict(X) for t in self.trees_])
        return preds.mean(axis=0)


class RandomForestClassifier(_BaseForest):
    """Majority-vote forest of CART classifiers."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y, self.trees_, boots = self._plant(X, y, DecisionTreeClassifier)
        self.classes_ = np.unique(y)
        _fit_classifiers(self.trees_, X, y, boots)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        searchstats.bump("forest_predict_rows", X.shape[0])
        votes = np.stack([t.predict(X) for t in self.trees_])  # (trees, n)
        # Majority vote without a per-column Python loop: map labels to
        # indices in the sorted ``classes_`` (every tree's labels are a
        # subset), count one-hot, argmax. ``argmax`` keeps the first
        # maximum — the smallest label — matching the old per-column
        # ``np.unique`` scan on count ties (a zero-count class can never
        # win because some class always has at least one vote).
        vote_idx = np.searchsorted(self.classes_, votes)
        counts = (vote_idx[:, :, None] == np.arange(self.classes_.size)).sum(axis=0)
        return self.classes_[np.argmax(counts, axis=1)]
