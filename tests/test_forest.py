import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ps2c import forest
from ps2c.forest import RandomForest


def _grow_reference(X, y, rng, m, n_classes):
    # The split search one feature at a time, as it was before the
    # batched search: the batched search must grow the same trees.
    counts = np.bincount(y, minlength=n_classes)
    node = forest._Node(int(counts.argmax()))
    n = y.size
    if counts.max() == n or n < 2:
        return node

    k = X.shape[1]
    features = rng.choice(k, size=min(m, k), replace=False)
    best_score = np.inf
    best_feature = -1
    best_threshold = 0.0
    onehot = np.eye(n_classes)[y]
    totals = counts.astype(np.float64)
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        if xs[0] == xs[-1]:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        cuts = np.nonzero(xs[1:] > xs[:-1])[0] + 1  # left-side sizes
        left = cum[cuts - 1]
        right = totals - left
        nl = cuts.astype(np.float64)
        nr = n - nl
        gini_left = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        weighted = (nl * gini_left + nr * gini_right) / n
        j = int(np.argmin(weighted))
        if weighted[j] < best_score:
            best_score = float(weighted[j])
            best_feature = int(f)
            lo, hi = xs[cuts[j] - 1], xs[cuts[j]]
            threshold = 0.5 * (lo + hi)
            if threshold >= hi:  # midpoint collapsed onto the upper value
                threshold = lo
            best_threshold = float(threshold)
    if best_feature < 0:
        return node

    node.feature = best_feature
    node.threshold = best_threshold
    mask = X[:, best_feature] <= best_threshold
    node.left = _grow_reference(X[mask], y[mask], rng, m, n_classes)
    node.right = _grow_reference(X[~mask], y[~mask], rng, m, n_classes)
    return node


def _fit_reference(X, y, **kwargs):
    with mock.patch.object(forest, "_grow", _grow_reference):
        return RandomForest(**kwargs).fit(X, y)


def _preorder(node, out):
    out.append((node.feature, float(node.threshold).hex(), node.value))
    if node.left is not None:
        _preorder(node.left, out)
        _preorder(node.right, out)
    return out


def _tied_matrix(rng, n, k, n_classes, decimals):
    """Rounded values (many ties), some constant columns, every class present."""
    X = np.round(rng.normal(size=(n, k)), decimals)
    X[:, rng.random(k) < 0.25] = 0.5
    labels = rng.permuted(np.arange(n) % n_classes)
    return X, [f"c{v}" for v in labels]


def test_separable_single_column():
    # class A cells = 0, class B >= 1: training accuracy must be perfect
    X = np.array([[0.0], [0.0], [0.0], [1.0], [2.0], [1.5]])
    y = ["A", "A", "A", "B", "B", "B"]
    model = RandomForest(n_trees=25, seed=0).fit(X, y)
    assert list(model.predict(X)) == y


def test_same_seed_identical_predictions():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5))
    y = ["A" if v > 0 else "B" for v in X[:, 2]]
    Xq = rng.normal(size=(15, 5))
    p1 = RandomForest(seed=42).fit(X, y).predict(Xq)
    p2 = RandomForest(seed=42).fit(X, y).predict(Xq)
    assert np.array_equal(p1, p2)


def test_different_seeds_can_differ_on_noise():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = list("AB" * 15)  # labels independent of features
    Xq = rng.normal(size=(200, 4))
    p1 = RandomForest(n_trees=15, seed=1).fit(X, y).predict(Xq)
    p2 = RandomForest(n_trees=15, seed=2).fit(X, y).predict(Xq)
    assert not np.array_equal(p1, p2)


def test_random_labels_near_chance():
    # null-model expectation: balanced 2-class random labels give ~0.5
    rng = np.random.default_rng(7)
    accs = []
    for trial in range(20):
        X = rng.normal(size=(60, 5))
        y = np.array(["A", "B"] * 30)
        rng.shuffle(y)
        Xq = rng.normal(size=(60, 5))
        yq = np.array(["A", "B"] * 30)
        pred = RandomForest(n_trees=30, seed=trial).fit(X, list(y)).predict(Xq)
        accs.append(float(np.mean(pred == yq)))
    assert abs(float(np.mean(accs)) - 0.5) < 0.1


def test_multiclass_support():
    rng = np.random.default_rng(3)
    centers = {"A": -4.0, "B": 0.0, "C": 4.0}
    X, y = [], []
    for label, mu in centers.items():
        X.append(rng.normal(mu, 0.3, size=(20, 3)))
        y += [label] * 20
    X = np.vstack(X)
    model = RandomForest(n_trees=30, seed=0).fit(X, y)
    assert float(np.mean(model.predict(X) == np.array(y))) == 1.0
    assert model.classes_ == ("A", "B", "C")


def test_validation_errors():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="single class"):
        RandomForest(seed=0).fit(X, ["A", "A", "A", "A"])
    with pytest.raises(ValueError, match="align"):
        RandomForest(seed=0).fit(X, ["A", "B"])
    with pytest.raises(ValueError):
        RandomForest(n_trees=0)
    model = RandomForest(n_trees=5, seed=0).fit(X + np.arange(4)[:, None], ["A", "B", "A", "B"])
    with pytest.raises(ValueError, match="feature columns"):
        model.predict(np.zeros((3, 5)))
    with pytest.raises(ValueError, match="not fitted"):
        RandomForest(seed=0).predict(X)


def test_constant_features_fall_back_to_majority():
    X = np.ones((6, 3))
    y = ["A", "A", "A", "A", "B", "B"]
    model = RandomForest(n_trees=10, seed=0).fit(X, y)
    assert set(model.predict(X)) == {"A"}


def test_duplicate_values_no_infinite_recursion():
    # midpoint threshold between adjacent equal floats must not create
    # an empty child; exercised by near-duplicate columns
    X = np.array([[0.0], [0.0], [np.nextafter(0.0, 1.0)], [1.0], [1.0], [1.0]])
    y = ["A", "A", "A", "B", "B", "B"]
    model = RandomForest(n_trees=10, seed=0).fit(X, y)
    assert list(model.predict(X)) == y


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    k=st.integers(1, 16),
    n_classes=st.integers(2, 10),
    decimals=st.integers(0, 2),
    block=st.sampled_from([1, 64, forest._BLOCK_ELEMENTS]),
)
@example(seed=0, n=60, k=16, n_classes=10, decimals=1, block=forest._BLOCK_ELEMENTS)
@example(seed=1, n=40, k=9, n_classes=8, decimals=0, block=64)
@settings(max_examples=60, deadline=None)
def test_batched_split_search_matches_per_feature_reference(seed, n, k, n_classes, decimals, block):
    # 8 or more classes take numpy's unrolled pairwise sum over the class
    # axis; block budgets of 1 and 64 split a node's features over blocks
    rng = np.random.default_rng(seed)
    X, y = _tied_matrix(rng, n, k, n_classes, decimals)
    if len(set(y)) < 2:
        return
    with mock.patch.object(forest, "_BLOCK_ELEMENTS", block):
        model = RandomForest(n_trees=4, seed=seed).fit(X, y)
    reference = _fit_reference(X, y, n_trees=4, seed=seed)
    assert [_preorder(t, []) for t in model.trees] == [_preorder(t, []) for t in reference.trees]
    Xq = np.round(rng.normal(size=(25, k)), decimals)
    assert np.array_equal(model.predict(Xq), reference.predict(Xq))
    assert np.array_equal(model.predict(X), reference.predict(X))


def test_batched_split_search_memory_stays_near_reference():
    # at n=2000 and 10 classes a node's features no longer fit one block;
    # the blocks keep the (n, features, classes) temporaries bounded
    rng = np.random.default_rng(5)
    X = rng.normal(size=(2000, 140))
    codes = rng.permuted(np.arange(2000) % 10)
    y = [f"c{v}" for v in codes]

    tracemalloc.start()
    try:
        forest._best_split(X, codes, np.bincount(codes))
        search_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked pass over all 140 columns would hold 2.8 M-element arrays
    assert search_peak < 8 * forest._BLOCK_ELEMENTS * 8

    peaks = []
    for fit in (RandomForest(n_trees=1, seed=0).fit, lambda X, y: _fit_reference(X, y, n_trees=1, seed=0)):
        tracemalloc.start()
        try:
            model = fit(X, y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        peaks.append(_preorder(model.trees[0], []))
    batched_peak, batched_tree, reference_peak, reference_tree = peaks
    assert batched_tree == reference_tree
    assert batched_peak <= 2 * reference_peak


def test_tree_growth_copies_no_whole_rows():
    # Nodes pass row indices down and gather only their candidate
    # columns. A 2.1 MiB input then peaks at 4.8 MiB (the bootstrap copy
    # plus split temporaries); copying every column at each node along
    # the recursion path peaked at 15.9 MiB.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(2000, 140))
    y = [f"c{v}" for v in rng.permuted(np.arange(2000) % 10)]
    tracemalloc.start()
    try:
        RandomForest(n_trees=1, seed=0).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
