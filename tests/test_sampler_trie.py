import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ps2c.dataset import LabeledDataset
from ps2c.discretizer import DiscretizedDataset, SaxParams
from ps2c.pattern_index import PatternIndex
from ps2c.quality import chi2_normalized_many, chi2_table, scale
from ps2c.sampler_trie import fit_sampler
from ps2c.shapelet_transform import ground_shapelets
from support import naive_scan, sampler_over

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _dataset(strings, alpha):
    codes = tuple(
        np.array([LETTERS.index(ch) for ch in s], dtype=np.uint8) for s in strings
    )
    return DiscretizedDataset(SaxParams(alpha, 1), codes)


def _split_of(patterns):
    """A discretized split whose instances are the given patterns, so each occurs in it."""
    strings = [p for p, _ in (patterns.items() if hasattr(patterns, "items") else patterns)]
    return _dataset(strings, 26)


def _trie(inserts, tau=1.0, s_min=0.0):
    return sampler_over(_split_of(inserts), inserts, tau=tau, s_min=s_min)


def _draw(trie, k, rng):
    """The k distinct patterns of one Gumbel-top-k draw, as text."""
    return [trie.text(i) for i in trie.sample_positions(k, rng)]


def _expected_edges(patterns):
    """Aggregate scaled weights per path prefix, straight from the rule."""
    agg = {}
    for pattern, w in patterns:
        for i in range(1, len(pattern) + 1):
            agg[pattern[:i]] = agg.get(pattern[:i], 0.0) + w
    return agg


def test_insert_shared_prefix_aggregates():
    # tau=1 keeps weights equal to the supplied qualities
    trie = _trie([("ffe", 1.0), ("ffc", 0.65)])
    edges = trie.edge_weights()
    assert edges["f"] == pytest.approx(1.65, abs=1e-12)
    assert edges["ff"] == pytest.approx(1.65, abs=1e-12)
    assert edges["ffe"] == pytest.approx(1.0, abs=1e-12)
    assert edges["ffc"] == pytest.approx(0.65, abs=1e-12)


def test_insert_single_pattern():
    trie = _trie([("ab", 0.4)])
    edges = trie.edge_weights()
    assert edges == {"a": pytest.approx(0.4), "ab": pytest.approx(0.4)}
    assert trie.pattern_count == 1


def test_insert_prefix_pattern_terminal_and_node_weight():
    trie = _trie([("ab", 0.4), ("abc", 0.3)])
    edges = trie.edge_weights()
    assert edges["a"] == pytest.approx(0.7, abs=1e-12)
    assert edges["ab"] == pytest.approx(0.7, abs=1e-12)
    assert edges["abc"] == pytest.approx(0.3, abs=1e-12)
    # the terminal at "ab" keeps its own weight; the edge into it, like
    # the old node weight, carries the whole subtree's
    assert dict(trie.iter_patterns())["ab"] == pytest.approx(0.4, abs=1e-12)


def test_insert_applies_temperature():
    trie = _trie([("ab", 0.5)], tau=0.5)
    assert trie.edge_weights()["ab"] == pytest.approx(0.25, abs=1e-12)


def test_insert_rejects_bad_input():
    assert _trie({"ab": 0.5}, s_min=0.3).pattern_count == 1
    nan, inf = float("nan"), float("inf")
    for tau, s_min in ((nan, 0.3), (inf, 0.3), (1.0, nan), (1.0, inf)):
        for patterns in ({}, {"ab": 0.5}):
            with pytest.raises(ValueError, match="finite"):
                _trie(patterns, tau=tau, s_min=s_min)


@given(
    st.dictionaries(
        st.text(alphabet="abc", min_size=2, max_size=6),
        st.floats(0.05, 1.0),
        min_size=1,
        max_size=15,
    ),
    st.floats(0.2, 1.5),
)
@settings(max_examples=120, deadline=None)
def test_edge_aggregation_matches_bruteforce(patterns, tau):
    items = sorted(patterns.items())
    trie = _trie(items, tau=tau)
    scaled = [(p, scale(q, tau)) for p, q in items]
    expected = _expected_edges(scaled)
    got = trie.edge_weights()
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == pytest.approx(expected[key], abs=1e-9)


@given(
    st.dictionaries(
        st.text(alphabet="abc", min_size=2, max_size=6),
        st.floats(0.05, 1.0),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=120, deadline=None)
def test_path_probabilities_sum_to_one(patterns):
    trie = _trie(sorted(patterns.items()), tau=0.7)
    total = sum(trie.path_probability(p) for p in patterns)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_single_pattern_trie_samples_itself():
    trie = _trie([("ab", 0.4)])
    rng = np.random.default_rng(0)
    assert all(trie.sample(rng) == "ab" for _ in range(50))
    assert trie.path_probability("ab") == pytest.approx(1.0, abs=1e-12)


def test_two_leaf_probabilities():
    trie = _trie([("ax", 1.0), ("by", 0.65)])
    assert trie.path_probability("ax") == pytest.approx(1.0 / 1.65, abs=1e-9)
    assert trie.path_probability("by") == pytest.approx(0.65 / 1.65, abs=1e-9)


def test_prefix_pattern_probabilities():
    trie = _trie([("ab", 0.4), ("abc", 0.3)])
    assert trie.path_probability("ab") == pytest.approx(0.4 / 0.7, abs=1e-9)
    assert trie.path_probability("abc") == pytest.approx(0.3 / 0.7, abs=1e-9)


def test_sampling_frequencies_match_probabilities():
    trie = _trie(
        [("ab", 0.4), ("abc", 0.3), ("ba", 0.9), ("bc", 0.2), ("aab", 0.6)]
    )
    rng = np.random.default_rng(123)
    n = 50_000
    counts = {}
    for _ in range(n):
        p = trie.sample(rng)
        counts[p] = counts.get(p, 0) + 1
    for pattern in counts:
        assert counts[pattern] / n == pytest.approx(
            trie.path_probability(pattern), abs=0.01
        )


def test_sampling_deterministic_with_seed():
    trie = _trie([("ab", 0.4), ("cd", 0.6), ("ce", 0.2)])
    rng = np.random.default_rng(9)
    draws1 = [trie.sample(rng) for _ in range(20)]
    rng = np.random.default_rng(9)
    draws2 = [trie.sample(rng) for _ in range(20)]
    assert draws1 == draws2


def test_temperature_sharpening_ratio():
    q1, q2 = 0.8, 0.4
    for tau in (1.0, 0.5, 0.25):
        trie = _trie([("ax", q1), ("bx", q2)], tau=tau)
        ratio = trie.path_probability("ax") / trie.path_probability("bx")
        assert ratio == pytest.approx((q1 / q2) ** (1 / tau), rel=1e-9)


def test_empty_trie_behavior():
    trie = _trie({}, tau=0.5, s_min=0.05)
    assert trie.is_empty
    with pytest.raises(ValueError):
        trie.sample(np.random.default_rng(0))
    with pytest.raises(KeyError):
        trie.path_probability("ab")


def test_path_probability_unknown_pattern():
    trie = _trie([("ab", 0.4)])
    with pytest.raises(KeyError):
        trie.path_probability("ba")
    with pytest.raises(KeyError):
        trie.path_probability("a")  # prefix exists but no terminal there
    # "ab" occurs in the split, as a prefix of "abc", but is not stored
    with pytest.raises(KeyError):
        _trie([("abc", 0.4)]).path_probability("ab")


# At tau=0.01 the weight of q=1e-4 is 1e-400, which float64 rounds to 0.0.
UNDERFLOW_TAU, UNDERFLOW_Q = 0.01, 1e-4
# ... while q=5.85e-4 scales to 5e-324, the smallest subnormal double, so
# a linear-weight roulette wheel has no resolution left between such
# patterns; the log-weights keep their full precision.
SUBNORMAL_Q = 5.85e-4


def test_underflowed_pattern_is_listed():
    trie = _trie([("ab", UNDERFLOW_Q)], tau=UNDERFLOW_TAU)
    assert list(trie.iter_patterns()) == [("ab", 0.0)]
    assert trie.pattern_count == 1
    assert trie.to_text().splitlines()[-1].strip() == "b 0 *0"


def test_zero_weight_edge_has_zero_path_probability():
    # the true probability of "cd" is 1e-400 / (1 + 1e-400), below float64
    trie = _trie([("ab", 1.0), ("cd", UNDERFLOW_Q)], tau=UNDERFLOW_TAU)
    assert trie.path_probability("ab") == 1.0
    assert trie.path_probability("cd") == 0.0


def test_lone_underflowed_pattern_is_drawn_with_probability_one():
    lone = _trie([("ab", UNDERFLOW_Q)], tau=UNDERFLOW_TAU)
    assert list(lone.iter_patterns()) == [("ab", 0.0)]
    assert lone.path_probability("ab") == 1.0
    rng = np.random.default_rng(0)
    assert {lone.sample(rng) for _ in range(50)} == {"ab"}
    assert _draw(lone, 4, rng) == ["ab"]


@pytest.mark.parametrize("q", [UNDERFLOW_Q, SUBNORMAL_Q])
def test_underflowed_equal_weights_are_drawn_evenly(q):
    # A linear-weight wheel drew two patterns of weight 5e-324 at 4,940
    # to 15,060 here, and refused two of weight 0.0 outright.
    trie = _trie([("ab", q), ("cd", q)], tau=UNDERFLOW_TAU)
    assert trie.path_probability("ab") == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(0)
    n = 20_000
    hits = sum(trie.sample(rng) == "ab" for _ in range(n))
    assert abs(hits / n - 0.5) <= 0.02


@given(
    st.dictionaries(
        st.text(alphabet="abc", min_size=2, max_size=5),
        st.floats(1e-6, 1.0),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 15),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_sample_distinct_returns_min_k_count_distinct(patterns, k, seed):
    trie = _trie(sorted(patterns.items()), tau=0.3)
    drawn = _draw(trie, k, np.random.default_rng(seed))
    assert len(drawn) == min(k, len(patterns))
    assert len(set(drawn)) == len(drawn)
    assert set(drawn) <= set(patterns)


def test_sample_distinct_first_draw_follows_path_probabilities():
    # the first of k Gumbel-top-k draws is a single draw from the sampler
    trie = _trie([("ab", 0.4), ("abc", 0.3), ("ba", 0.9), ("bc", 0.2)], tau=0.7)
    rng = np.random.default_rng(5)
    n = 20_000
    counts = {}
    for _ in range(n):
        first = _draw(trie, 3, rng)[0]
        counts[first] = counts.get(first, 0) + 1
    for pattern, count in counts.items():
        assert count / n == pytest.approx(trie.path_probability(pattern), abs=0.015)


def test_sample_distinct_rejects_bad_k():
    trie = _trie([("ab", 0.4)])
    with pytest.raises(ValueError):
        trie.sample_positions(0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "zero_weight_pattern",
    ["ac",  # lexically last edge "c" has weight 0
     "abc"],  # "ab" has no edge with weight, only its terminal
)
def test_wheel_end_falls_back_to_positive_weight(zero_weight_pattern):
    # The subnormal weight's log-weight exceeds the underflowed one's by
    # about 177, so the latter is drawn with probability near e**-177.
    assert scale(SUBNORMAL_Q, UNDERFLOW_TAU) == np.nextafter(0.0, 1.0)
    trie = _trie(
        [("ab", SUBNORMAL_Q), (zero_weight_pattern, UNDERFLOW_Q)], tau=UNDERFLOW_TAU
    )
    rng = np.random.default_rng(0)
    assert {trie.sample(rng) for _ in range(200)} == {"ab"}


def test_fit_sampler_samples_when_every_weight_underflows():
    # best q is 1/3, and (1/3)**1000 underflows to 0.0
    strings = ["ab", "ab", "ba", "ab"]
    labels = ["1", "1", "2", "2"]
    ds = _dataset(strings, 2)
    index = PatternIndex.build(ds, 2)
    qualities = dict(fit_sampler(ds, index, labels, 2, 0.0, 1.0).iter_patterns())
    assert max(qualities.values()) == pytest.approx(1 / 3, abs=1e-12)
    trie = fit_sampler(ds, index, labels, 2, 0.0, 0.001)
    assert dict(trie.iter_patterns()) == dict.fromkeys(qualities, 0.0)
    total = sum(trie.path_probability(p) for p in qualities)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert sorted(_draw(trie, 5, np.random.default_rng(0))) == sorted(qualities)


def test_fit_sampler_single_perfect_pattern():
    # "ab" appears exactly in class 1, "cd" exactly in class 2; with a
    # high threshold only the perfect splitters survive
    strings = ["abab", "abba", "cdcd", "cddc"]
    labels = ["1", "1", "2", "2"]
    ds = _dataset(strings, 4)
    index = PatternIndex.build(ds, 2)
    trie = fit_sampler(ds, index, labels, 2, 0.999, 1.0)
    got = {p for p, _ in trie.iter_patterns()}
    assert got == {"ab", "ba", "cd", "dc"}
    for _, w in trie.iter_patterns():
        assert w == pytest.approx(1.0, abs=1e-12)


def test_fit_sampler_smin_zero_keeps_every_positive_pattern():
    strings = ["abab", "abba", "cdcd", "cddc"]
    labels = ["1", "1", "2", "2"]
    ds = _dataset(strings, 4)
    index = PatternIndex.build(ds, 3)
    trie = fit_sampler(ds, index, labels, 3, 0.0, 1.0)
    inserted = {p for p, _ in trie.iter_patterns()}
    sizes = np.array([2, 2])
    for pat in naive_scan(strings, 3):
        # per-class presence by substring search, not by the index
        present = [sum(pat in s for s, c in zip(strings, labels) if c == k) for k in "12"]
        q = chi2_normalized_many(np.array([present]), sizes)[0]
        assert (pat in inserted) == (q > 0)


def test_fit_sampler_empty_when_nothing_discriminates():
    strings = ["abab", "abab", "abab", "abab"]
    labels = ["1", "1", "2", "2"]
    ds = _dataset(strings, 2)
    index = PatternIndex.build(ds, 3)
    trie = fit_sampler(ds, index, labels, 3, 0.05, 0.5)
    assert trie.is_empty


def test_fit_sampler_checks_lmax_alignment():
    ds = _dataset(["abab", "baba"], 2)
    index = PatternIndex.build(ds, 3)
    with pytest.raises(ValueError):
        fit_sampler(ds, index, ["1", "2"], 4, 0.05, 0.5)


def test_fit_sampler_rejects_labels_not_aligned_with_index():
    ds = _dataset(["abab", "baba"], 2)
    index = PatternIndex.build(ds, 3)
    with pytest.raises(ValueError, match="align with the indexed instances"):
        fit_sampler(ds, index, ["1", "2", "2"], 3, 0.05, 0.5)


def _fit_reference(index, strings, labels, s_min):
    """Per-length chi2_normalized_many of the (patterns, classes) counts.

    Row r of a length's table is its r-th distinct substring in text
    order, and that substring's earliest (instance, offset) comes from
    ``naive_scan``, not from the index.
    """
    classes = sorted(set(labels))
    class_of = np.array([classes.index(c) for c in labels])
    sizes = np.bincount(class_of)
    oracle = naive_scan(strings, index.l_max)
    lengths, instances, offsets, qs = [], [], [], []
    for l in index.lengths():
        q = chi2_normalized_many(index.presence_counts(l, class_of, sizes.size), sizes)
        accepted = np.nonzero((q >= s_min) & (q > 0.0))[0]
        texts = sorted(p for p in oracle if len(p) == l)
        firsts = [oracle[texts[row]]["first"] for row in accepted]
        lengths += [l] * accepted.size
        instances += [i for i, _ in firsts]
        offsets += [o for _, o in firsts]
        qs.append(q[accepted])
    return (
        np.array(lengths, np.int64),
        np.array(instances, np.int32),
        np.array(offsets, np.int32),
        np.concatenate(qs),
    )


@pytest.mark.parametrize(
    "n_classes, per_class, table_path",
    [(2, 6, True), (8, 2, False)],  # prod(n_c + 1): 49 and 3**8 = 6561
)
@pytest.mark.parametrize("s_min", [0.0, 0.3])
def test_fit_sampler_scores_match_per_length_reference(
    monkeypatch, n_classes, per_class, table_path, s_min
):
    rng = np.random.default_rng(n_classes)
    strings = ["".join(rng.choice(list("abc"), size=rng.integers(8, 30))) for _ in
               range(n_classes * per_class)]
    labels = [str(i % n_classes) for i in range(len(strings))]
    ds = _dataset(strings, 3)
    index = PatternIndex.build(ds, 6)
    n_patterns = sum(index.pattern_count(l) for l in index.lengths())
    assert ((per_class + 1) ** n_classes <= n_patterns) == table_path
    tables = []
    monkeypatch.setattr(
        "ps2c.sampler_trie.chi2_table", lambda sizes: tables.append(sizes) or chi2_table(sizes)
    )
    trie = fit_sampler(ds, index, labels, 6, s_min, 1.0)
    assert bool(tables) == table_path
    lengths, instances, offsets, q = _fit_reference(index, strings, labels, s_min)
    assert trie.pattern_count > 0
    assert trie.lengths.tobytes() == lengths.tobytes()
    assert trie.instances.tobytes() == instances.tobytes()
    assert trie.offsets.tobytes() == offsets.tobytes()
    assert trie.q.tobytes() == q.tobytes()


def test_to_text_mentions_terminals_and_weights():
    trie = _trie([("ab", 0.4), ("abc", 0.3)])
    text = trie.to_text()
    assert "patterns=2" in text.splitlines()[0]
    assert "*" in text  # terminal markers present


def test_sampler_outlives_its_index():
    # the sampler stores occurrences and its discretized split, so the
    # index it was fitted on is freed once the caller drops it
    strings = ["abab", "abba", "cdcd", "cddc"]
    labels = ["1", "1", "2", "2"]
    ds = _dataset(strings, 4)
    index = PatternIndex.build(ds, 3)
    trie = fit_sampler(ds, index, labels, 3, 0.999, 1.0)
    ref = weakref.ref(index)
    del index
    gc.collect()
    assert ref() is None
    assert {p for p, _ in trie.iter_patterns()} == {"ab", "ba", "cd", "dc"}
    assert "root_weight=4" in trie.to_text()
    assert trie.path_probability("cd") == pytest.approx(0.25, abs=1e-12)
    series = tuple(np.arange(len(s), dtype=float) + 10 * i for i, s in enumerate(strings))
    train = LabeledDataset(series, labels)
    shapelets = ground_shapelets(train, trie, 4, np.random.default_rng(0))
    assert sorted(sh.pattern for sh in shapelets) == ["ab", "ba", "cd", "dc"]
    for sh in shapelets:
        # omega 1: the values are the series under the earliest occurrence
        start, source = sh.symbol_offset, sh.source_index
        assert strings[source].find(sh.pattern) == start
        assert all(sh.pattern not in s for s in strings[:source])
        assert np.array_equal(sh.values, series[source][start : start + 2])


@given(
    st.lists(st.text(alphabet="abcd", max_size=12), min_size=4, max_size=12),
    st.integers(2, 4),
    st.integers(2, 5),
)
@settings(max_examples=100, deadline=None)
def test_stored_occurrences_match_substring_search(strings, n_classes, l_max):
    # every stored (instance, offset) is the pattern's earliest occurrence
    # by plain substring search, and the store holds exactly the patterns
    # with q > 0, in (length, text) order; at least 4 strings, so every
    # class has one
    labels = [str(i % n_classes) for i in range(len(strings))]
    ds = _dataset(strings, 4)
    trie = fit_sampler(ds, PatternIndex.build(ds, l_max), labels, l_max, 0.0, 1.0)
    oracle = naive_scan(strings, l_max)
    class_of = np.array([int(c) for c in labels])
    sizes = np.bincount(class_of, minlength=n_classes)
    expected = []
    for pat in sorted(oracle, key=lambda p: (len(p), p)):
        present = np.bincount(class_of[sorted(oracle[pat]["instances"])], minlength=n_classes)
        if chi2_normalized_many(present[None, :], sizes)[0] > 0:
            expected.append((pat, oracle[pat]["first"]))
    stored = [
        (trie.text(i), (int(trie.instances[i]), int(trie.offsets[i])))
        for i in range(trie.pattern_count)
    ]
    assert stored == expected
    assert trie.instances.dtype == trie.offsets.dtype == np.int32
