"""The recursive CART grower the lockstep grower replaced, as a reference.

Each tree grows by recursion over node objects, searching one feature
column at a time with a per-column ``argsort`` and ``cumsum``, and
draws each node's feature pool with ``rng.choice``. Forests fit their
trees one after another, each on a bootstrap copy of the data. The
tests compare ``repro.ml.forest`` with these trees field for field, and
the generator states the two leave behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.forest import _TreeArrays
from repro.utils.rng import rng_from_seed


@dataclass
class Node:
    """One tree node; leaves carry a prediction, internal nodes a split."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None


def best_split_regression(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Best (threshold, child sum of squares) for one feature, or None."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    diff = np.nonzero(xs[1:] != xs[:-1])[0]
    if diff.size == 0:
        return None
    n = y.size
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    left_n = diff + 1
    right_n = n - left_n
    left_sum, left_sq = csum[diff], csq[diff]
    right_sum, right_sq = csum[-1] - left_sum, csq[-1] - left_sq
    sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
    best = int(np.argmin(sse))
    pos = diff[best]
    threshold = 0.5 * (xs[pos] + xs[pos + 1])
    return float(threshold), float(sse[best])


def best_split_gini(x: np.ndarray, y_onehot: np.ndarray) -> tuple[float, float] | None:
    """Best (threshold, weighted Gini) for one feature, or None."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    yo = y_onehot[order]
    diff = np.nonzero(xs[1:] != xs[:-1])[0]
    if diff.size == 0:
        return None
    n = xs.size
    counts = np.cumsum(yo, axis=0)
    left_counts = counts[diff]
    total = counts[-1]
    right_counts = total - left_counts
    left_n = (diff + 1).astype(np.float64)
    right_n = n - left_n
    gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
    score = (left_n * gini_left + right_n * gini_right) / n
    best = int(np.argmin(score))
    pos = diff[best]
    threshold = 0.5 * (xs[pos] + xs[pos + 1])
    return float(threshold), float(score[best])


def _grow(X, y, depth, rng, params, classify: bool) -> Node:
    max_depth, min_samples_leaf, max_features = params
    if classify:
        counts = y.sum(axis=0)
        node = Node(prediction=float(np.argmax(counts)))
        pure = np.count_nonzero(counts) <= 1
    else:
        node = Node(prediction=float(np.mean(y)))
        pure = np.all(y == y[0])
    if depth >= max_depth or y.shape[0] < 2 * min_samples_leaf or pure:
        return node
    n_features = X.shape[1]
    k = max(1, min(max_features or n_features, n_features))
    if k == n_features:
        pool = np.arange(n_features)
    else:
        pool = rng.choice(n_features, size=k, replace=False)
    search = best_split_gini if classify else best_split_regression
    best: tuple[int, float, float] | None = None
    for f in pool:
        found = search(X[:, f], y)
        if found is not None and (best is None or found[1] < best[2]):
            best = (int(f), found[0], found[1])
    if best is None:
        return node
    feature, threshold, _ = best
    mask = X[:, feature] <= threshold
    if mask.sum() < min_samples_leaf or (~mask).sum() < min_samples_leaf:
        return node
    node.feature, node.threshold = feature, threshold
    node.left = _grow(X[mask], y[mask], depth + 1, rng, params, classify)
    node.right = _grow(X[~mask], y[~mask], depth + 1, rng, params, classify)
    return node


def compile_tree(root: Node) -> _TreeArrays:
    """Flatten a node tree into :class:`_TreeArrays` (preorder)."""
    rows: list[tuple[int, float, int, int, float]] = []

    def add(node: Node) -> int:
        idx = len(rows)
        rows.append((node.feature, node.threshold, -1, -1, node.prediction))
        if node.left is not None and node.right is not None:
            left = add(node.left)
            right = add(node.right)
            rows[idx] = rows[idx][:2] + (left, right) + rows[idx][4:]
        return idx

    add(root)
    feature, threshold, left, right, prediction = zip(*rows)
    return _TreeArrays(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        prediction=np.array(prediction, dtype=np.float64),
    )


def predict_one(root: Node, row: np.ndarray) -> float:
    """The per-row node walk."""
    node = root
    while node.left is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


@dataclass
class ReferenceTree:
    root: Node
    classes: np.ndarray | None  # sorted labels (classification only)

    @property
    def arrays(self) -> _TreeArrays:
        return compile_tree(self.root)

    def predict(self, X: np.ndarray) -> np.ndarray:
        pred = np.array([predict_one(self.root, r) for r in np.atleast_2d(X)])
        return pred if self.classes is None else self.classes[pred.astype(np.int64)]


def fit_tree(
    X, y, *, classify: bool = False, max_depth: int = 8, min_samples_leaf: int = 2,
    max_features: int | None = None, random_state=None,
) -> ReferenceTree:
    """One tree as ``DecisionTree{Regressor,Classifier}.fit`` grew it."""
    X = np.asarray(X, dtype=np.float64)
    rng = rng_from_seed(random_state)
    params = (max_depth, min_samples_leaf, max_features)
    if classify:
        classes, encoded = np.unique(y, return_inverse=True)
        onehot = np.eye(classes.size)[encoded]
        return ReferenceTree(_grow(X, onehot, 0, rng, params, True), classes)
    y = np.asarray(y, dtype=np.float64)
    return ReferenceTree(_grow(X, y, 0, rng, params, False), None)


def fit_forest(
    X, y, *, classify: bool = False, n_estimators: int = 32, max_depth: int = 8,
    min_samples_leaf: int = 2, max_features: int | None = None, random_state=None,
) -> list[ReferenceTree]:
    """A forest's trees, fitted one after another on bootstrap copies."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y) if classify else np.asarray(y, dtype=np.float64)
    rng = rng_from_seed(random_state)
    mf = max_features or max(1, int(np.sqrt(X.shape[1])))
    trees = []
    for _ in range(n_estimators):
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(fit_tree(
            X[idx], y[idx], classify=classify, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_features=mf,
            random_state=int(rng.integers(2**31)),
        ))
    return trees
