"""Seeded random-forest classifier for the merged feature matrices.

Self-contained (no learning-library dependency) so pipeline results are
fully reproducible from the seed alone: per-tree bootstrap, Gini
splits over sqrt(k) feature subsets, unlimited depth, majority vote.
Each node searches its feature subset in one batched pass (see
``_best_split``) that picks the same split as a loop over features.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import check_aligned, class_codes

__all__ = ["RandomForest"]


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: int):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


# Most float64 elements in one (n, features, classes) block of the split
# search; nodes with more are searched a few features at a time.
_BLOCK_ELEMENTS = 1 << 16


def _grow(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, m: int, n_classes: int) -> _Node:
    """Grow one tree; nodes pass row indices down and gather only their candidate columns."""
    return _grow_rows(X, y, np.arange(y.size), rng, m, n_classes)


def _grow_rows(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, rng: np.random.Generator, m: int, n_classes: int
) -> _Node:
    labels = y[rows]
    counts = np.bincount(labels, minlength=n_classes)
    node = _Node(int(counts.argmax()))
    if counts.max() == rows.size or rows.size < 2:
        return node

    k = X.shape[1]
    features = rng.choice(k, size=min(m, k), replace=False)
    # the gathered columns are freed before the recursion below
    column, threshold = _best_split(X[rows[:, None], features], labels, counts)
    if column < 0:
        return node

    node.feature = int(features[column])
    node.threshold = threshold
    mask = X[rows, node.feature] <= threshold
    node.left = _grow_rows(X, y, rows[mask], rng, m, n_classes)
    node.right = _grow_rows(X, y, rows[~mask], rng, m, n_classes)
    return node


def _best_split(X: np.ndarray, y: np.ndarray, counts: np.ndarray) -> tuple[int, float]:
    """The (column, threshold) of least weighted Gini, or (-1, 0.0) if none splits.

    All columns of ``X`` are searched together: one stable sort of the
    (n, features) block, one cumulative sum of the one-hot labels into
    (n, features, classes), and the Gini of every boundary. Boundaries
    between equal values score +inf. The first minimum per feature, then
    the first feature holding the least of them, is the split a strict
    ``<`` over features and then cuts picks. Features are taken
    ``_BLOCK_ELEMENTS`` at a time so large nodes stay within memory.
    """
    n, n_classes = y.size, counts.size
    onehot = np.eye(n_classes)[y]
    totals = counts.astype(np.float64)
    nl = np.arange(1.0, n)[:, None]  # left-side sizes of the n-1 boundaries
    nr = n - nl
    best_score = np.inf
    best_feature = -1
    best_threshold = 0.0
    block = max(1, _BLOCK_ELEMENTS // (n * n_classes))
    for first in range(0, X.shape[1], block):
        cols = X[:, first : first + block]
        order = np.argsort(cols, axis=0, kind="stable")
        xs = np.take_along_axis(cols, order, axis=0)
        left = np.cumsum(onehot[order], axis=0)[:-1]
        right = totals - left
        gini_left = 1.0 - ((left / nl[:, :, None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right / nr[:, :, None]) ** 2).sum(axis=2)
        weighted = (nl * gini_left + nr * gini_right) / n
        weighted[~(xs[1:] > xs[:-1])] = np.inf  # no cut between equal values
        cut = weighted.argmin(axis=0)
        scores = weighted[cut, np.arange(cols.shape[1])]
        f = int(scores.argmin())
        if scores[f] < best_score:
            best_score = float(scores[f])
            best_feature = first + f
            lo, hi = xs[cut[f], f], xs[cut[f] + 1, f]
            threshold = 0.5 * (lo + hi)
            if threshold >= hi:  # midpoint collapsed onto the upper value
                threshold = lo
            best_threshold = float(threshold)
    return best_feature, best_threshold


def _predict_tree(node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.left is None:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _predict_tree(node.left, X, idx[mask], out)
    _predict_tree(node.right, X, idx[~mask], out)


class RandomForest:
    """Bootstrap ensemble of Gini decision trees with seeded randomness.

    ``seed`` may be an int or a sequence of ints (fed to numpy's
    SeedSequence); identical seeds give identical predictions.
    """

    def __init__(self, n_trees: int = 100, seed=0):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.seed = seed
        self.trees: list[_Node] = []
        self.classes_: tuple[str, ...] = ()
        self.n_features_ = 0

    def fit(self, X, labels) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < 1:
            raise ValueError("X must be a 2-D matrix with at least one column")
        self.classes_, y = class_codes(labels)
        check_aligned(y, X.shape[0])
        if len(self.classes_) < 2:
            raise ValueError("training labels contain a single class")

        n, k = X.shape
        m = max(1, int(math.sqrt(k)))
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        for tree_seed in seeds:
            rng = np.random.default_rng(tree_seed)
            boot = rng.integers(0, n, size=n)
            self.trees.append(_grow(X[boot], y[boot], rng, m, len(self.classes_)))
        self.n_features_ = k
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} feature columns, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
            )
        n = X.shape[0]
        votes = np.zeros((n, len(self.classes_)), dtype=np.int64)
        idx = np.arange(n)
        out = np.empty(n, dtype=np.int64)
        for tree in self.trees:
            _predict_tree(tree, X, idx, out)
            votes[idx, out] += 1
        winners = votes.argmax(axis=1)  # ties break toward the lowest class id
        return np.array([self.classes_[i] for i in winners])
