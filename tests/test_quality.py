import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from ps2c.dataset import class_codes
from ps2c.quality import chi2_normalized_many, chi2_table, scale


def _quality(presence, labels):
    """Normalised chi-square of one presence vector, from its per-class counts."""
    _, class_of = class_codes(labels)
    sizes = np.bincount(class_of)
    present = np.bincount(class_of[np.asarray(presence, dtype=bool)], minlength=sizes.size)
    return float(chi2_normalized_many(present[None, :], sizes)[0])


def test_contingency_examples():
    labels = ["A", "A", "B", "B"]
    presences = [[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0]]
    # per-class present counts of the three vectors
    many = chi2_normalized_many(np.array([[2, 0], [2, 2], [1, 1]]), np.array([2, 2]))
    assert many.tolist() == [1.0, 0.0, 0.0]
    assert [_quality(p, labels) for p in presences] == many.tolist()


def test_chi2_perfect_split_equals_n():
    q = _quality([1, 1, 0, 0], ["A", "A", "B", "B"])
    assert q * 4 == pytest.approx(4.0, abs=1e-12)
    assert q == pytest.approx(1.0, abs=1e-12)


def test_chi2_uninformative_pattern_is_zero():
    labels = ["A", "A", "B", "B"]
    assert _quality([1, 1, 1, 1], labels) == 0.0
    assert _quality([0, 0, 0, 0], labels) == 0.0


def test_chi2_14_14_worked_example():
    presence = [1] * 13 + [0] + [0] * 14
    labels = ["1"] * 14 + ["2"] * 14
    q = _quality(presence, labels)
    assert q == pytest.approx(0.867, abs=1e-3)
    assert scale(q, 0.33) == pytest.approx(0.65, abs=1e-2)


def test_all_of_one_class_pattern_is_exactly_one():
    presence = [1] * 14 + [0] * 14
    labels = ["1"] * 14 + ["2"] * 14
    q = _quality(presence, labels)
    assert q == 1.0
    assert scale(q, 0.33) == 1.0


@given(
    st.integers(2, 6)
    .flatmap(lambda c: st.lists(st.sampled_from("ABCDEF"[:c]), min_size=4, max_size=40))
    .filter(lambda ls: len(set(ls)) >= 2),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_chi2_matches_scipy_oracle(labels, data):
    presence = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    )
    classes = sorted(set(labels))
    class_of = np.array([classes.index(c) for c in labels])
    sizes = np.bincount(class_of)
    present = np.bincount(class_of[presence], minlength=len(classes))
    q = chi2_normalized_many(present[None, :], sizes)[0]
    assert _quality(presence, labels) == q
    assert 0.0 <= q <= 1.0
    ours = q * len(labels)
    obs = np.column_stack([present, sizes - present])
    if obs.sum(axis=0).min() == 0:
        # degenerate column: scipy refuses, ours returns 0 by convention
        assert ours == 0.0
        return
    ref = chi2_contingency(obs, correction=False).statistic
    assert ours == pytest.approx(ref, abs=1e-9)


@given(
    st.lists(st.booleans(), min_size=6, max_size=30),
    st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_chi2_invariant_under_reordering(presence, seed):
    labels = ["A" if i % 2 else "B" for i in range(len(presence))]
    base = _quality(presence, labels)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(presence))
    shuffled = _quality(
        [presence[i] for i in perm], [labels[i] for i in perm]
    )
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_chi2_invariant_under_label_renaming():
    presence = [1, 1, 0, 1, 0, 0]
    asym = _quality(presence, ["A", "A", "A", "B", "B", "B"])
    renamed = _quality(presence, ["B", "B", "B", "A", "A", "A"])
    assert asym == pytest.approx(renamed, abs=1e-12)


def test_normalize_examples_and_clamp():
    # raw statistic 4 over 4 instances, and 0 over 9
    assert chi2_normalized_many(np.array([[2, 0]]), np.array([2, 2]))[0] == 1.0
    assert chi2_normalized_many(np.array([[1, 2]]), np.array([3, 6]))[0] == 0.0
    # this perfect split sums to 1 + 2**-52 before the clamp
    assert chi2_normalized_many(np.array([[1, 0]]), np.array([1, 2]))[0] == 1.0
    with pytest.raises(ValueError):
        chi2_normalized_many(np.array([[0, 0]]), np.array([0, 0]))


def test_scale_examples():
    assert scale(0.5, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert scale(1.0, 0.123) == 1.0
    assert scale(0.0, 0.7) == 0.0
    assert scale(0.8, 1.0) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        scale(0.5, 0.0)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            scale(0.5, tau)
    with pytest.raises(ValueError):
        scale(1.5, 0.5)


@given(st.floats(0, 1), st.floats(0.01, 1))
@settings(max_examples=200, deadline=None)
def test_scale_shrinks_for_small_tau(q, tau):
    s = scale(q, tau)
    assert 0.0 <= s <= 1.0
    if tau < 1:
        assert s <= q + 1e-12


# Strict argmax equality cannot hold for every float64 input: below tau=1
# a tiny positive q underflows to the same 0.0 as q=0 (first two examples),
# and above tau=1 neighbouring doubles round to one result (third example).
@example(qs=[0.0, 2.2250738585e-313], tau=0.5)
@example(qs=[0.0, 1.7498708747009143e-104], tau=0.25)
@example(qs=[0.5, math.nextafter(0.5, 1.0)], tau=2.0)
@given(
    st.lists(st.floats(0, 1), min_size=2, max_size=10, unique=True),
    st.floats(0.05, 2),
)
@settings(max_examples=100, deadline=None)
def test_scale_preserves_ordering(qs, tau):
    scaled = [scale(q, tau) for q in qs]
    by_quality = [s for _, s in sorted(zip(qs, scaled))]
    # a worse pattern never outranks a better one
    assert all(lo <= hi for lo, hi in zip(by_quality, by_quality[1:]))
    best = int(np.argmax(qs))
    assert scaled[best] == max(scaled)
    # strict where float64 can tell the scaled weights apart
    runner_up = sorted(qs)[-2]
    if scaled[best] >= sys.float_info.min and runner_up < qs[best] * (1 - 1e-9):
        assert int(np.argmax(scaled)) == best


def _stacked_reference(present, class_sizes):
    """The earlier (P, C, 2) formulation of chi2_normalized_many."""
    present = np.asarray(present, dtype=np.float64)
    sizes = np.asarray(class_sizes, dtype=np.float64)
    n = sizes.sum()
    obs = np.stack([present, sizes[None, :] - present], axis=2)
    total_present = present.sum(axis=1)
    cols = np.stack([total_present, n - total_present], axis=1)
    expected = sizes[None, :, None] * cols[:, None, :] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = ((obs - expected) ** 2 / expected).sum(axis=(1, 2))
    degenerate = (cols[:, 0] == 0) | (cols[:, 1] == 0)
    return np.clip(np.where(degenerate, 0.0, stat / n), 0.0, 1.0)


def test_column_scores_match_stacked_reference():
    # Bitwise equality, not closeness: the acceptance threshold s_min is an
    # exact comparison, so a score on a threshold must not move by one bit.
    rng = np.random.default_rng(3)
    for class_sizes in ([7, 5], [40, 40], [1, 29], [7, 5, 8], [3, 30, 11]):
        sizes = np.array(class_sizes)
        present = np.stack([rng.integers(0, s + 1, 500) for s in sizes], axis=1)
        present[0] = sizes  # present in every instance
        present[1] = 0  # present in none
        columns = chi2_normalized_many(present, sizes)
        assert columns[0] == columns[1] == 0.0
        assert columns.tobytes() == _stacked_reference(present, sizes).tobytes()


def test_contingency_table_invariants():
    # present [3, 1] and absent [2, 4]: class sizes [5, 5], n = 10,
    # expected present [2, 2] and absent [3, 3], raw statistic 5/3
    q = chi2_normalized_many(np.array([[3, 1]]), np.array([5, 5]))[0]
    assert q * 10 == pytest.approx(5 / 3, abs=1e-12)
    assert _quality([1, 1, 1, 0, 0, 1, 0, 0, 0, 0], ["A"] * 5 + ["B"] * 5) == q


@given(st.lists(st.integers(1, 7), min_size=2, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_table_lookup_matches_direct_score_bitwise(class_sizes, data):
    strides, table = chi2_table(tuple(class_sizes))
    assert table.size == math.prod(n + 1 for n in class_sizes)
    rows = data.draw(
        st.lists(st.tuples(*(st.integers(0, n) for n in class_sizes)), min_size=1, max_size=30)
    )
    present = np.array(rows)
    direct = chi2_normalized_many(present, np.array(class_sizes))
    assert table[present @ strides].tobytes() == direct.tobytes()
    # the all-absent and all-present vectors sit at the two ends of the table
    assert table[0] == table[-1] == 0.0
    assert int(np.array(class_sizes) @ strides) == table.size - 1
    assert not table.flags.writeable and not strides.flags.writeable
