import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ps2c.discretizer import DiscretizedDataset, SaxParams
from ps2c import pattern_index
from ps2c.pattern_index import PatternIndex, _key_shift, _LengthTable
from support import naive_scan

LETTERS = string.ascii_lowercase


def _dataset(strings, alpha):
    codes = tuple(
        np.array([LETTERS.index(ch) for ch in s], dtype=np.uint8) for s in strings
    )
    return DiscretizedDataset(SaxParams(alpha, 1), codes)


def _texts(index, strings, length):
    """The text of every row of one length, sliced from the test's own
    strings at the row's first occurrence."""
    rows = np.arange(index.pattern_count(length))
    if rows.size == 0:
        return []
    instances, offsets = index.first_occurrences(length, rows)
    return [strings[i][o : o + length] for i, o in zip(instances, offsets)]


def _patterns(index, strings, length):
    """The distinct patterns of one length, as the text of every row."""
    return set(_texts(index, strings, length))


def _first(index, strings, pattern):
    """The earliest (instance, offset) the index gives for ``pattern``'s row."""
    row = _texts(index, strings, len(pattern)).index(pattern)
    instances, offsets = index.first_occurrences(len(pattern), np.array([row]))
    return int(instances[0]), int(offsets[0])


def _presence(index, length):
    """The (patterns x instances) presence matrix of one length."""
    n = index.n_instances
    return index.presence_counts(length, np.arange(n), n)


def _substring_presence(strings, pattern):
    return [pattern in s for s in strings]


def _assert_matches_oracle(strings, alpha, l_max):
    index = PatternIndex.build(_dataset(strings, alpha), l_max)
    oracle = naive_scan(strings, l_max)
    by_len = {}
    for pat in oracle:
        by_len.setdefault(len(pat), set()).add(pat)
    for l in range(2, l_max + 1):
        assert _patterns(index, strings, l) == by_len.get(l, set())
    # the build carries sorted windows from one length to the next: rows
    # come in strictly increasing text order, each row's instances in
    # strictly increasing order
    for l in index.lengths():
        texts = _texts(index, strings, l)
        assert all(a < b for a, b in zip(texts, texts[1:]))
        table = index._tables[l]
        for r in range(index.pattern_count(l)):
            instances = table.pair_instance[table.pair_starts[r] : table.pair_starts[r + 1]]
            assert np.all(np.diff(instances) > 0)
        presence = _presence(index, l)
        for r, pat in enumerate(texts):
            assert set(np.flatnonzero(presence[r])) == oracle[pat]["instances"]
        instances, offsets = index.first_occurrences(l, np.arange(len(texts)))
        for pat, first in zip(texts, zip(instances.tolist(), offsets.tolist())):
            assert first == oracle[pat]["first"]


def test_build_two_identical_strings():
    strings = ["ab", "ab"]
    index = PatternIndex.build(_dataset(strings, 2), 2)
    assert _patterns(index, strings, 2) == {"ab"}
    assert _presence(index, 2).tolist() == [[True, True]]
    assert _first(index, strings, "ab") == (0, 0)


def test_build_hand_enumerated():
    strings = ["abc", "bcd"]
    index = PatternIndex.build(_dataset(strings, 4), 3)
    assert _patterns(index, strings, 2) == {"ab", "bc", "cd"}
    # rows in text order: ab, bc, cd
    assert _presence(index, 2).tolist() == [[True, False], [True, True], [False, True]]
    assert _patterns(index, strings, 3) == {"abc", "bcd"}
    assert _presence(index, 3).tolist() == [[True, False], [False, True]]


def test_repeats_deduplicate():
    strings = ["aaaa"]
    index = PatternIndex.build(_dataset(strings, 2), 3)
    assert _patterns(index, strings, 2) == {"aa"}
    assert _patterns(index, strings, 3) == {"aaa"}
    assert _first(index, strings, "aa") == (0, 0)
    assert _first(index, strings, "aaa") == (0, 0)


def test_first_occurrence_examples():
    strings = ["abc", "bcd"]
    index = PatternIndex.build(_dataset(strings, 4), 3)
    assert _first(index, strings, "bc") == (0, 1)
    assert _first(index, strings, "bcd") == (1, 0)
    index2 = PatternIndex.build(_dataset(["abab"], 2), 2)
    assert _first(index2, ["abab"], "ab") == (0, 0)


def test_unknown_pattern_presence_is_zero_not_error():
    strings = ["abc", "bcd"]
    index = PatternIndex.build(_dataset(strings, 4), 3)
    assert "dd" not in _patterns(index, strings, 2)


@pytest.mark.parametrize("pattern", ["zz", "az", "za", "dz", "Ab", "b!"])
def test_out_of_alphabet_pattern_is_absent(pattern):
    strings = ["abcd", "dcba"]
    index = PatternIndex.build(_dataset(strings, 4), 3)
    assert pattern not in _patterns(index, strings, len(pattern))


def test_length_out_of_range():
    index = PatternIndex.build(_dataset(["abc", "bcd"], 4), 3)
    for l in (1, 4):
        with pytest.raises(ValueError):
            index.pattern_count(l)


def test_length_beyond_strings_is_empty():
    strings = ["abc", "bcd"]
    index = PatternIndex.build(_dataset(strings, 4), 6)
    assert _patterns(index, strings, 5) == set()
    assert index.pattern_count(5) == 0


def test_short_strings_contribute_nothing():
    strings = ["abcd", "xy"[:1] + "z"]
    index = PatternIndex.build(_dataset(strings, 26), 4)
    # second string has length 2: only its length-2 substring appears
    assert "xz" in _patterns(index, strings, 2)
    assert _patterns(index, strings, 4) == {"abcd"}


def test_distinct_substring_count_formula():
    # all substrings of "abcdef" are distinct
    m, l_max = 6, 4
    index = PatternIndex.build(_dataset(["abcdef"], 6), l_max)
    for l in range(2, l_max + 1):
        assert index.pattern_count(l) == m - l + 1


@st.composite
def _strings_over_alphabet(draw):
    # the separators and the packed key's width depend on alpha, the
    # string count and the string lengths, empty and 1-symbol included;
    # runs of one symbol repeat long patterns within and across strings
    alpha = draw(st.integers(2, 26))
    letters = LETTERS[:alpha]
    runs = st.lists(st.tuples(st.sampled_from(letters), st.integers(1, 15)), max_size=6)
    text = st.one_of(
        st.text(alphabet=letters, max_size=30),
        runs.map(lambda rs: "".join(ch * n for ch, n in rs)),
    )
    return draw(st.lists(text, min_size=1, max_size=20)), alpha


@given(_strings_over_alphabet(), st.integers(2, 6))
@settings(max_examples=120, deadline=None)
def test_oracle_equivalence_random(strings_alpha, l_max):
    strings, alpha = strings_alpha
    _assert_matches_oracle(strings, alpha, l_max)


def test_oracle_equivalence_alpha_26_l_max_20():
    # every length up to l_max = 20 has patterns, and 26**20 exceeds
    # 64 bits, so the rank keys must stay small at every length
    rng = np.random.default_rng(7)
    strings = [
        "".join(rng.choice(list(LETTERS), size=rng.integers(20, 40)))
        for _ in range(8)
    ]
    strings += ["ab" * 12, "ab" * 11 + "z"]
    _assert_matches_oracle(strings, 26, 20)
    index = PatternIndex.build(_dataset(strings, 26), 20)
    assert index.lengths() == list(range(2, 21))


def _build_reference(discretized, l_max):
    # The build loop as it was before the sorted keys were carried to the
    # next length: a dense rank from a cumsum at every length, a Python
    # loop that fills the symbols, and boolean masks that cut the rows.
    alpha = discretized.params.alpha
    codes = discretized.codes
    sizes = np.array([c.size for c in codes], dtype=np.int64) + 1
    starts = np.cumsum(sizes) - sizes
    symbols = np.full(int(sizes.sum()), alpha, dtype=np.int64)
    for start, c in zip(starts, codes):
        symbols[start : start + c.size] = c
    shift = _key_shift(symbols.size, alpha)
    instance_of = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    offset_of = (np.arange(symbols.size) - np.repeat(starts, sizes)).astype(np.int32)
    pos = np.flatnonzero(symbols < alpha)
    rank = symbols[pos]
    tables = {}
    for length in range(2, l_max + 1):
        last = symbols[pos + (length - 1)]
        packed = rank * alpha
        packed += last
        packed <<= shift
        packed |= pos
        packed = packed[last < alpha]
        if packed.size == 0:
            break
        packed.sort()
        pos = packed & ((1 << shift) - 1)
        key = np.right_shift(packed, shift, out=packed)
        inst = instance_of[pos]
        new_pattern = np.empty(key.size, dtype=bool)
        new_pattern[0] = True
        np.not_equal(key[1:], key[:-1], out=new_pattern[1:])
        new_pair = new_pattern.copy()
        new_pair[1:] |= inst[1:] != inst[:-1]
        rank = np.cumsum(new_pattern)
        rank -= 1
        pair_instance = inst[new_pair]
        pair_starts = np.empty(rank[-1] + 2, dtype=np.int32)
        pair_starts[:-1] = np.flatnonzero(new_pattern[new_pair])
        pair_starts[-1] = pair_instance.size
        tables[length] = _LengthTable(offset_of[pos[new_pattern]], pair_instance, pair_starts)
    return tables


# 20 strings of 60 random letters: 1,220 symbols with separators, so
# starts take 11 bits and keys the 52 above them. After length 11 the
# next keys could reach 26**12 = 2**56.4 > 2**52 (26**11 = 2**51.7 is
# not over), so they are made dense: 1,000 ranks, one per window of
# length 11 (all distinct but by a negligible chance). After length 19
# they could reach 1,000 * 26**9 = 2**52.3 > 2**52, and are made dense
# again.
_TWO_RE_DENSIFIES = (
    ["".join(np.random.default_rng(s).choice(list(LETTERS), size=60)) for s in range(20)],
    26,
)


@given(_strings_over_alphabet(), st.integers(2, 20))
@example(_TWO_RE_DENSIFIES, 20)
@settings(max_examples=150, deadline=None)
def test_build_matches_reference_bitwise(strings_alpha, l_max):
    strings, alpha = strings_alpha
    dataset = _dataset(strings, alpha)
    tables = PatternIndex.build(dataset, l_max)._tables
    reference = _build_reference(dataset, l_max)
    assert tables.keys() == reference.keys()
    for length, table in tables.items():
        for name, expected in vars(reference[length]).items():
            array = getattr(table, name)
            assert array.dtype == np.int32
            assert np.array_equal(array, expected)


def test_tables_are_three_int32_arrays():
    # rows P and pairs Q take 4 * (2P + Q + 1) bytes: first_offset (P),
    # pair_starts (P + 1) and pair_instance (Q), nothing else
    strings = ["abcab", "bcabc", "aabba", "cabca", "", "c", "abcabcabc"]
    index = PatternIndex.build(_dataset(strings, 3), 6)
    assert index.lengths() == [2, 3, 4, 5, 6]
    for l in index.lengths():
        table = index._tables[l]
        arrays = list(vars(table).values())
        assert all(a.dtype == np.int32 for a in arrays)
        rows = index.pattern_count(l)
        pairs = sum(sum(_substring_presence(strings, p)) for p in _patterns(index, strings, l))
        assert sum(a.nbytes for a in arrays) == 4 * (2 * rows + pairs + 1)


@pytest.mark.parametrize(
    "alpha, largest", [(2, 2**31 - 1), (3, 1431655765), (4, 2**30 - 1), (26, 2**29 - 1)]
)
def test_key_width_guard(alpha, largest):
    # the largest symbol count whose packed (key, start) fits in 63 bits
    shift = _key_shift(largest, alpha)
    max_key = largest * alpha - 1
    assert (max_key << shift | (largest - 1)) < 2**63
    assert largest - 1 < 2**shift
    with pytest.raises(ValueError, match="63-bit packed key"):
        _key_shift(largest + 1, alpha)


def test_build_checks_key_width_of_symbols_and_separators(monkeypatch):
    calls = []

    def spy(n_symbols, alpha):
        calls.append((n_symbols, alpha))
        return _key_shift(n_symbols, alpha)

    monkeypatch.setattr(pattern_index, "_key_shift", spy)
    PatternIndex.build(_dataset(["abc", "", "d"], 4), 3)
    # 4 letters and one separator after each of the 3 instances
    assert calls == [(7, 4)]


def test_presence_counts_matches_presence_vectors():
    strings = ["abcab", "bcabc", "aabba", "cabca"]
    labels = [0, 1, 0, 1]
    index = PatternIndex.build(_dataset(strings, 3), 4)
    class_of = np.array(labels)
    for l in index.lengths():
        counts = index.presence_counts(l, class_of, 2)
        presence = _presence(index, l)
        for row, pattern in enumerate(_texts(index, strings, l)):
            vec = np.array(_substring_presence(strings, pattern))
            assert presence[row].tolist() == vec.tolist()
            assert counts[row, 0] == int(vec[class_of == 0].sum())
            assert counts[row, 1] == int(vec[class_of == 1].sum())


def test_presence_codes_sum_weights_of_present_instances():
    rng = np.random.default_rng(5)
    strings = ["".join(rng.choice(list("abcd"), size=rng.integers(2, 25))) for _ in range(12)]
    weights = rng.integers(1, 1000, size=len(strings))
    index = PatternIndex.build(_dataset(strings, 4), 5)
    for l in index.lengths():
        codes = index.presence_codes(l, weights)
        assert codes.shape == (index.pattern_count(l),)
        for row, pattern in enumerate(_texts(index, strings, l)):
            vec = np.array(_substring_presence(strings, pattern))
            assert codes[row] == weights[vec].sum()


def test_empty_index_when_all_strings_short():
    index = PatternIndex.build(_dataset(["a", "b"], 2), 5)
    assert index.lengths() == []


def test_build_requires_lmax_at_least_two():
    with pytest.raises(ValueError):
        PatternIndex.build(_dataset(["abc"], 3), 1)
