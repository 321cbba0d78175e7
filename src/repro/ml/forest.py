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
recursive grower's. Nodes hold *virtual rows*: the trees' bootstrap
rows numbered one tree after another, then one pad. A node keeps them
in increasing order, which is bootstrap order, as the recursive
grower's masked copies kept its rows.

Each lockstep step searches every tree's next node and makes a fixed
number of NumPy calls, however many nodes it splits:

* **Search.** The step's nodes are sorted by size and cut into chunks
  by cost: a chunk ends where padding the nodes left to its first
  node's size would cost more than another call (:data:`_CALL_CELLS`),
  or at a cells cap that bounds the temporaries. A chunk's pooled
  columns form one ``(nodes, pool, rows)`` block of keys
  ``rank << shift | virtual row``. One sort orders each column by
  value, ties in bootstrap order, and the low bits pick each sorted
  row's target vector (``(y, y*y)``, or one-hot labels). These are
  prefix-summed with ``cumsum``, sequentially as the per-column search
  added them, so every score is the same float and the fitted trees
  are the same, bit for bit. The last prefix is the node's total:
  pads rank last and have zero targets. Only the cuts are scored.
* **Partition.** One gather-and-compare over the concatenated rows of
  every split node, one ``np.add.reduceat`` for the left counts and
  one stable sort for the children; a child is pure when none of its
  labels differs from its first (one more ``np.add.reduceat``).

What is left in Python per node is bookkeeping. Leaf values wait for
the end of the fit. Regression means are taken over all nodes of one
size at a time as ``y[rows].mean(axis=1)``, which adds as each node's
1-D ``mean`` does, bit for bit (``np.add.reduceat`` adds sequentially,
the mean pairwise, so it is not). Class counts are whole numbers, so
one ``reduceat`` over the one-hot labels is exact.
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


#: Cells (node x pooled feature x row) one split search handles at most,
#: which bounds its temporaries.
_SEARCH_CELLS = 8192
#: Padding cells that cost about as much as one more split search call
#: (about 48 us a call and 14 ns a cell on a 2-CPU x86-64 host): a
#: chunk ends where padding the nodes left would cost more.
_CALL_CELLS = 4096


def _variance(left, right, left_n, right_n, n) -> np.ndarray:
    """Total child sum of squares, from the sums of ``y`` and ``y*y``."""
    return (left[:, 1] - left[:, 0] ** 2 / left_n) + (
        right[:, 1] - right[:, 0] ** 2 / right_n
    )


def _gini(left, right, left_n, right_n, n) -> np.ndarray:
    """Size-weighted child Gini impurity, from the class counts."""
    gini_left = 1.0 - np.sum((left / left_n[:, None]) ** 2, axis=-1)
    gini_right = 1.0 - np.sum((right / right_n[:, None]) ** 2, axis=-1)
    return (left_n * gini_left + right_n * gini_right) / n


def _search(
    X: np.ndarray,
    keys: np.ndarray,
    shift: int,
    dmap: np.ndarray,
    targets: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    pools: np.ndarray,
    score: Callable[..., np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of each node of a chunk: (feature, threshold, found).

    Node ``p`` holds the virtual rows ``rows[p, :sizes[p]]``, padded to
    the chunk's largest node with the pad, and searches the
    features ``pools[p]``. ``dmap`` maps virtual rows to data rows,
    ``keys[f, r]`` is data row ``r``'s rank in column ``f`` shifted left
    by ``shift`` bits, and ``targets`` holds each virtual row's target
    vector. Only cuts, where the value changes before the node's last
    row, are scored (``score``: lower is better). The first lowest
    score in (feature, position) order wins, as the old per-column
    ``argmin`` and strict ``<`` scan over the pool chose.
    """
    span, k = rows.shape[1], pools.shape[1]
    block = np.take(keys, pools[:, :, None] * keys.shape[1] + dmap[rows][:, None, :])
    block |= rows[:, None, :]
    # Only pads share a key, so the sort puts equal values in virtual
    # row order: bootstrap order, as the per-column stable sort did.
    block.sort(axis=-1)
    order = block & ((1 << shift) - 1)
    # Sequential adds along the rows, as the 1-D cumsum per column.
    prefix = np.take(targets, order, axis=0)
    np.cumsum(prefix, axis=-2, out=prefix)
    prefix = prefix.reshape(-1, targets.shape[1])
    block >>= shift
    cut = block[..., 1:] != block[..., :-1]
    cut &= np.arange(1, span) < sizes[:, None, None]
    # Score the cuts only, in (node, feature, position) order.
    at = np.flatnonzero(cut)
    column = at // (span - 1)
    position = at - column * (span - 1)
    node = column // k
    cell = at + column  # the cut's last left row, in ``order``
    left = prefix[cell]
    left_n = position + 1
    n = sizes[node]
    total = prefix[cell - position + span - 1]
    scores = score(left, total - left, left_n, n - left_n, n)
    counts = cut.sum(axis=(1, 2))
    found = counts > 0
    starts = np.cumsum(counts) - counts
    nan = np.isnan(scores)  # from overflowing sums
    if nan.any():
        # A feature's best is its first NaN, as for ``argmin``, and the
        # pool scan replaces its first feature's best only by a strictly
        # lower one: a feature holding a NaN wins only as the first with a cut.
        bad = np.zeros(len(rows) * k, dtype=bool)
        bad[column[nan]] = True
        lead = bad[column[starts[node]]]
        scores = np.where(bad[column] & ~lead, np.inf, scores)
    # Each node's first lowest score, by ``argmin`` over its cuts in a
    # padded row (after the masking above, a NaN is its first feature's).
    padded = np.full((len(rows), max(1, counts.max())), np.inf)
    padded[node, np.arange(node.size) - starts[node]] = scores
    first = (starts + padded.argmin(axis=1))[found]
    f = pools.reshape(-1)[column[first]]
    feature = np.zeros(len(rows), dtype=np.int64)
    threshold = np.zeros(len(rows))
    feature[found] = f
    order = order.reshape(-1)
    lo, hi = X[dmap[order[cell[first]]], f], X[dmap[order[cell[first] + 1]], f]
    threshold[found] = 0.5 * (lo + hi)
    return feature, threshold, found


def _chunks(sizes: list[int], widths: list[int], k: int):
    """``(start, stop)`` search chunks of nodes sorted by width, then by
    size from the largest. A chunk ends at a width change, at the cells
    cap, or where padding the nodes left to its first node's size would
    cost more than a call."""
    start = 0
    for stop in range(1, len(sizes) + 1):
        if (
            stop == len(sizes)
            or widths[stop] != widths[start]
            or (stop - start + 1) * k * sizes[start] > _SEARCH_CELLS
            or (sizes[start] - sizes[stop]) * k * (len(sizes) - stop) > _CALL_CELLS
        ):
            yield start, stop
            start = stop


def _partition(
    X: np.ndarray,
    dmap: np.ndarray,
    labels: np.ndarray,
    arena: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    msl: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the nodes holding ``arena[starts[i]:][:sizes[i]]`` at
    ``X[:, feature[i]] <= threshold[i]``, all at once.

    Returns which splits are kept (both children have ``msl`` rows or
    more); the kept nodes' children's rows, each node's left child then
    its right, both in bootstrap order; the children's sizes and starts
    in those rows; and which children may split (:func:`_splittable`).
    """
    base = np.cumsum(sizes) - sizes
    rows = arena[np.repeat(starts - base, sizes) + np.arange(sizes.sum())]
    go_left = X[dmap[rows], np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    n_left = np.add.reduceat(go_left, base, dtype=np.intp)
    kept = (n_left >= msl) & (n_left <= sizes - msl)
    # One stable sort by (node, side); the rows of dropped splits last.
    seg = np.where(kept, np.arange(0, 2 * sizes.size, 2), 2 * sizes.size)
    seg = seg.astype(np.min_scalar_type(2 * sizes.size + 1))
    order = np.argsort(np.repeat(seg, sizes) + ~go_left, kind="stable")
    part = rows[order[: sizes[kept].sum()]]
    child = np.stack([n_left[kept], (sizes - n_left)[kept]], axis=1).ravel()
    at = np.cumsum(child) - child
    return kept, part, child, at, _splittable(labels[part], at, child, msl)


def _splittable(labels, starts, sizes, msl: int) -> np.ndarray:
    """Whether each node (``labels[starts[i]:][:sizes[i]]``) may split
    but for its depth: it has ``2 * msl`` rows or more and is not pure,
    read as the recursive grower's ``(y == y[0]).all()``."""
    other = labels != np.repeat(labels[starts], sizes)
    return (np.add.reduceat(other, starts, dtype=np.intp) > 0) & (sizes >= 2 * msl)


def _virtual_rows(boots: list[np.ndarray], n: int) -> np.ndarray:
    """The data row of each virtual row: the trees' bootstrap rows, one
    tree after another, then the pad ``n``."""
    return np.concatenate([*boots, [n]]).astype(np.min_scalar_type(n))


def _fit_trees(
    trees: list[_BaseTree],
    X: np.ndarray,
    dmap: np.ndarray,
    roots: list[int],
    targets: np.ndarray,
    widths: list[int],
    labels: np.ndarray,
    score: Callable[..., np.ndarray],
    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> None:
    """Fit ``trees`` (same hyper-parameters) in lockstep on the virtual
    rows ``dmap`` (see :func:`_virtual_rows`), tree ``t`` on the next
    ``roots[t]`` of them.

    ``targets[g]`` is virtual row ``g``'s target vector (zero for the
    pad) and ``labels[g]`` its label, for the purity test; tree ``t``
    uses the first ``widths[t]`` target columns. Only nodes of equal
    width are searched together, so class sums run over each tree's
    own classes. ``values(rows, starts, sizes)`` gives every node's
    prediction, node ``i`` holding ``rows[starts[i]:][:sizes[i]]``.
    """
    n_features = X.shape[1]
    n_trees, pad = len(trees), dmap.size - 1
    first = trees[0]
    max_depth, msl = first.max_depth, first.min_samples_leaf
    k = max(1, min(first.max_features or n_features, n_features))
    every = list(range(n_features))
    # Each column as dense ranks, with a pad row ranked above every
    # value, shifted past the virtual rows' bits.
    ranks = np.array(
        [np.unique(np.append(col, np.inf), return_inverse=True)[1] for col in X.T]
    )
    shift = pad.bit_length()
    wide = int(ranks.max()) + 1 << shift > 2**31
    keys = ranks.astype(np.int64 if wide else np.int32) << shift
    draws = [
        _PCG64Replay(rng_from_seed(t.random_state)) if k < n_features else None
        for t in trees
    ]
    # Every node's rows, node after node; the roots first. Nodes are
    # numbered in that order. A tree of depth d holds each row at most
    # d + 1 times.
    arena = np.empty(pad * (min(max_depth, 8) + 1), dtype=np.min_scalar_type(pad))
    arena[:pad] = np.arange(pad)
    end = pad
    node_sizes = list(roots)
    at = np.cumsum(roots) - roots
    splittable = _splittable(labels[:pad], at, np.array(roots), msl)
    # Per tree, its nodes in preorder and a stack of
    # (node, start, size, depth, searched), popped left child first.
    preorder = [array("q") for _ in trees]
    stacks = [[(t, *node, 0, m)] for t, (node, m)
              in enumerate(zip(zip(at.tolist(), roots), splittable.tolist()))]
    # Per step: the split nodes, their features, thresholds and left
    # children (the right child is the next node).
    splits = []

    def advance(t: int) -> tuple | None:
        """Tree ``t``'s next node in preorder that needs a split search."""
        stack, nodes = stacks[t], preorder[t]
        while stack:
            node, start, size, depth, searched = stack.pop()
            nodes.append(node)
            if searched:
                draw = draws[t]
                pool = every if draw is None else draw.choice(n_features, k)
                return t, node, start, size, depth, pool
        return None

    try:
        pending = [node for t in range(n_trees) if (node := advance(t))]
        while pending:
            pending.sort(key=lambda node: (widths[node[0]], -node[3]))
            tree_of, node_of, starts, sizes, depths, pools = zip(*pending)
            width = [widths[t] for t in tree_of]
            sizes_a, starts_a = np.array(sizes), np.array(starts)
            pools_a = np.array(pools)
            feature = np.empty(len(pending), dtype=np.int64)
            threshold = np.empty(len(pending))
            found = np.empty(len(pending), dtype=bool)
            for a, b in _chunks(sizes, width, k):
                span = np.arange(sizes[a])
                rows = np.where(
                    span < sizes_a[a:b, None],
                    arena.take(starts_a[a:b, None] + span, mode="clip"), pad,
                )
                feature[a:b], threshold[a:b], found[a:b] = _search(
                    X, keys, shift, dmap, targets[:, : width[a]], rows,
                    sizes_a[a:b], pools_a[a:b], score,
                )
            # Partition every found split's rows at once.
            sel = np.flatnonzero(found)
            kept, part, child, at, splittable = _partition(
                X, dmap, labels, arena, starts_a[sel], sizes_a[sel],
                feature[sel], threshold[sel], msl,
            )
            if end + part.size > arena.size:
                arena = np.resize(arena, max(2 * arena.size, end + part.size))
            arena[end : end + part.size] = part
            first_child = len(node_sizes)
            split = sel[kept]
            splits.append((np.array(node_of)[split], feature[split], threshold[split],
                           np.arange(first_child, first_child + child.size, 2)))
            node_sizes += child.tolist()
            at = (at + end).tolist()
            end += part.size
            child, splittable = child.tolist(), splittable.tolist()
            for c, j in enumerate(split.tolist()):
                depth = depths[j] + 1
                deeper = depth < max_depth
                left, right = 2 * c, 2 * c + 1
                stacks[tree_of[j]] += [
                    (first_child + right, at[right], child[right], depth,
                     deeper and splittable[right]),
                    (first_child + left, at[left], child[left], depth,
                     deeper and splittable[left]),
                ]
            pending = [node for t in tree_of if (node := advance(t))]
    finally:
        for draw in draws:
            if draw is not None:
                draw.sync()
    sizes_a = np.array(node_sizes)
    prediction = values(arena[:end], np.cumsum(sizes_a) - sizes_a, sizes_a)
    # Every node's place in its tree's preorder, trees one after another.
    lengths = [len(nodes) for nodes in preorder]
    order = np.concatenate(preorder)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    local = np.arange(order.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    feature = np.full(order.size, -1, dtype=np.int64)
    threshold = np.zeros(order.size)
    left, right = feature.copy(), feature.copy()
    if splits:
        node, features, thresholds, left_child = map(np.concatenate, zip(*splits))
        node = position[node]
        feature[node], threshold[node] = features, thresholds
        left[node], right[node] = local[node] + 1, local[position[left_child + 1]]
    columns = (feature, threshold, left, right, prediction[order])
    stop = np.cumsum(lengths).tolist()
    for tree, a, b in zip(trees, [0] + stop, stop):
        tree.n_features_ = n_features
        tree._arrays = _TreeArrays(*(c[a:b] for c in columns))


def _fit_regressors(trees, X: np.ndarray, y: np.ndarray, boots) -> None:
    """Variance-reduction trees over the target vectors ``(y, y*y)``."""
    dmap = _virtual_rows(boots, X.shape[0])
    ys = np.append(y, 0.0)[dmap]

    def means(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        # All nodes of one size at a time: each row of the matrix adds as
        # a node's own 1-D mean would.
        out = np.empty(sizes.size)
        by_size = np.argsort(sizes, kind="stable")
        for nodes in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
            span = np.arange(sizes[nodes[0]])
            out[nodes] = ys[rows[starts[nodes, None] + span]].mean(axis=1)
        return out

    _fit_trees(trees, X, dmap, [b.size for b in boots], np.column_stack([ys, ys * ys]),
               [2] * len(trees), ys, _variance, means)


def _fit_classifiers(trees, X: np.ndarray, y: np.ndarray, boots) -> None:
    """Gini trees over one-hot labels, each on its own rows' classes."""
    n = X.shape[0]
    dmap = _virtual_rows(boots, n)
    classes = [np.unique(y[rows]) for rows in boots]
    widths = [c.size for c in classes]
    targets = np.zeros((dmap.size, max(widths)))
    at = 0
    for tree, rows, c in zip(trees, boots, classes):
        tree.classes_ = c
        targets[at + np.arange(rows.size), np.searchsorted(c, y[rows])] = 1.0
        at += rows.size
    labels = np.append(np.unique(y, return_inverse=True)[1], 0)[dmap]

    def votes(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        # Whole-number counts: any order of adds is exact.
        counts = np.add.reduceat(targets[rows], starts)
        return counts.argmax(axis=1).astype(np.float64)

    _fit_trees(trees, X, dmap, [b.size for b in boots], targets, widths, labels,
               _gini, votes)


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
