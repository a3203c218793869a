import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ps2c.dataset import LabeledDataset
from ps2c.discretizer import SaxParams, discretize, sax_text
from ps2c import shapelet_transform
from ps2c.pattern_index import PatternIndex
from ps2c.shapelet_transform import (
    _EPS,
    _NEAR_TIES,
    FeatureMatrix,
    Shapelet,
    _PaddedRows,
    _distance_matrix,
    _shared_rows,
    create_feature_sets,
    feature_columns,
)
from support import sampler_over

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _shapelet(values, pattern="ab", omega=1, alpha=4):
    return Shapelet(
        np.asarray(values, dtype=float),
        alpha=alpha,
        omega=omega,
        pattern=pattern,
        source_index=0,
        symbol_offset=0,
    )


def min_distance(series, shapelet):
    """One series against one shapelet, through the batched kernel."""
    padded = _PaddedRows.of([np.asarray(series, dtype=np.float64)])
    return float(_distance_matrix(padded, [shapelet])[0, 0])


def _min_distance_oracle(series, values):
    series = np.asarray(series, dtype=float)
    s = len(values)
    if s > series.size:
        return float(np.mean((series - np.asarray(values)[: series.size]) ** 2))
    best = np.inf
    for off in range(series.size - s + 1):
        window = series[off : off + s]
        best = min(best, float(np.mean((window - values) ** 2)))
    return best


def _distance_matrix_reference(padded, shapelets):
    # The kernel as it was before window energies went +inf past each
    # row's end: a per-shapelet mask of the padded offsets, a separate
    # doubling of the correlation, and near-ties tracked by masks. Only
    # the unpacking of ``padded`` skips the field it did not read.
    lengths, stacked, csum, _, spectra, fft_len = padded
    n_max = stacked.shape[1]
    ragged = int(lengths.min()) != n_max
    product = np.empty_like(spectra)
    correlation = np.empty((lengths.size, fft_len))
    window_energy = np.empty((lengths.size, n_max))
    shapelet_values = [shapelet.values for shapelet in shapelets]
    padded = np.zeros((len(shapelet_values), fft_len))
    for j, values in enumerate(shapelet_values):
        if values.size <= n_max:
            padded[j, : values.size] = values
    kernels = np.conj(np.fft.rfft(padded, axis=1))
    out = np.empty((lengths.size, len(shapelets)), dtype=np.float64)
    for j, values in enumerate(shapelet_values):
        s = values.size
        short = lengths < s
        if s <= n_max:
            width = n_max - s + 1
            np.multiply(spectra, kernels[j], out=product)
            scores = np.fft.irfft(product, fft_len, axis=1, out=correlation)[:, :width]
            scores *= 2.0
            np.subtract(csum[:, s:], csum[:, :-s], out=window_energy[:, :width])
            np.subtract(window_energy[:, :width], scores, out=scores)
            energy = float(values @ values)
            scores += energy
            if ragged:
                scores[np.arange(width) > (lengths - s)[:, None]] = np.inf
            rows, starts = np.arange(lengths.size), scores.argmin(axis=1)
            cutoff = scores[rows, starts] + 4 * fft_len * _EPS * (csum[:, -1] + energy)
            cutoff[short] = -np.inf
            scores[rows, starts] = np.inf
            tied = np.flatnonzero(scores.min(axis=1) <= cutoff)
            if tied.size:
                near = scores[tied] <= cutoff[tied, None]
                crowded = np.flatnonzero(np.count_nonzero(near, axis=1) > _NEAR_TIES)
                nearest = np.argpartition(scores[tied[crowded]], _NEAR_TIES - 1, axis=1)
                near[crowded] = False
                near[crowded[:, None], nearest[:, :_NEAR_TIES]] = True
                tie_rows, tie_starts = np.nonzero(near)
                rows = np.concatenate([rows, tied[tie_rows]])
                starts = np.concatenate([starts, tie_starts])
            windows = (rows * n_max + starts)[:, None] + np.arange(s)
            delta = np.take(stacked, windows) - values
            column = np.full(lengths.size, np.inf)
            np.minimum.at(column, rows, (delta * delta).sum(axis=1) / s)
            out[:, j] = column
        if short.any():
            head = min(s, n_max)
            delta = stacked[short, :head] - values[:head]
            sq = delta * delta
            sq[np.arange(head) >= lengths[short, None]] = 0.0
            out[short, j] = sq.sum(axis=1) / lengths[short]
    return out


def _index_for(dataset, params, l_max):
    d = discretize(dataset, params)
    return d, PatternIndex.build(d, l_max)


def _ground(pattern, ds, d, index):
    """The shapelet create_feature_sets grounds from a sampler holding only ``pattern``."""
    trie = sampler_over(d, {pattern: 1.0})
    train, _ = create_feature_sets(ds, ds, d, index, trie, 1, np.random.default_rng(0))
    return train.shapelets[0]


def _first_occurrence(d, pattern):
    """The earliest (instance, offset) of ``pattern`` by substring search."""
    texts = [sax_text(codes) for codes in d.codes]
    instance = next(i for i, text in enumerate(texts) if pattern in text)
    return instance, texts[instance].index(pattern)


def test_reverse_lookup_unit_window_identity():
    # at omega=1 shapelet positions coincide with symbol positions
    series = np.array([5.0, -5.0, 5.0, -5.0, 0.2, 0.3, 0.4, 5.0])
    ds = LabeledDataset((series, -series), ("1", "2"))
    d, index = _index_for(ds, SaxParams(4, 1), 4)
    pattern = sax_text(d.codes[0])[3:7]
    sh = _ground(pattern, ds, d, index)
    first_inst, first_off = _first_occurrence(d, pattern)
    src = ds.series[first_inst]
    assert np.array_equal(sh.values, src[first_off : first_off + 4])
    assert sh.omega == 1 and sh.pattern == pattern


def test_reverse_lookup_window_arithmetic():
    # pattern length 3 at omega=4, offset 2 -> values[8..20)
    rng = np.random.default_rng(1)
    series = rng.normal(size=40)
    ds = LabeledDataset((series, rng.normal(size=40)), ("1", "2"))
    d, index = _index_for(ds, SaxParams(6, 4), 10)
    pattern = sax_text(d.codes[0])[2:5]
    inst, off = _first_occurrence(d, pattern)
    sh = _ground(pattern, ds, d, index)
    assert sh.values.size == 12
    assert np.array_equal(sh.values, ds.series[inst][off * 4 : off * 4 + 12])


def test_reverse_lookup_tail_truncation():
    # n=10, omega=4 -> p=3 with a short tail segment; a pattern ending on
    # the tail symbol is truncated to the series end
    series = np.arange(10.0)
    ds = LabeledDataset((series, -series), ("1", "2"))
    d, index = _index_for(ds, SaxParams(2, 4), 3)
    pattern = sax_text(d.codes[0])[1:3]
    inst, off = _first_occurrence(d, pattern)
    sh = _ground(pattern, ds, d, index)
    if inst == 0 and off == 1:
        assert sh.values.size == 6  # [4..10), not [4..12)
        assert np.array_equal(sh.values, series[4:10])


def test_min_distance_self_match_is_zero():
    rng = np.random.default_rng(2)
    series = rng.normal(size=30)
    sh = _shapelet(series[7:15])
    assert min_distance(series, sh) == pytest.approx(0.0, abs=1e-12)


def test_min_distance_hand_example():
    sh = _shapelet([1.0, 1.0])
    assert min_distance(np.zeros(4), sh) == pytest.approx(1.0, abs=1e-12)


def test_min_distance_constant_shift():
    rng = np.random.default_rng(3)
    series = rng.normal(size=25)
    c = 0.37
    sh = _shapelet(series[5:12] + c)
    assert min_distance(series, sh) == pytest.approx(c * c, abs=1e-9)


def test_min_distance_degenerate_long_shapelet():
    series = np.array([1.0, 2.0, 3.0])
    sh = _shapelet([1.0, 2.0, 3.0, 99.0, 99.0])
    assert min_distance(series, sh) == pytest.approx(0.0, abs=1e-12)


@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=40),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_min_distance_matches_bruteforce(series_values, data):
    series = np.array(series_values)
    s_len = data.draw(st.integers(1, max(1, series.size + 2)))
    values = np.array(data.draw(
        st.lists(st.floats(-5, 5), min_size=s_len, max_size=s_len)
    ))
    sh = _shapelet(values)
    assert min_distance(series, sh) == pytest.approx(
        _min_distance_oracle(series, values), abs=1e-9, rel=1e-9
    )


@given(
    st.lists(st.lists(st.floats(-5, 5), min_size=3, max_size=40), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_distance_matrix_matches_oracle_on_mixed_lengths(rows, data):
    series = [np.array(r) for r in rows]
    max_len = max(x.size for x in series)
    shapelets = [
        _shapelet(data.draw(st.lists(st.floats(-5, 5), min_size=s, max_size=s)))
        for s in data.draw(st.lists(st.integers(1, max_len + 2), min_size=1, max_size=4))
    ]
    # one shapelet cut from a row must score exactly 0 on that row
    i = data.draw(st.integers(0, len(series) - 1))
    start = data.draw(st.integers(0, series[i].size - 1))
    stop = data.draw(st.integers(start + 1, series[i].size))
    shapelets.append(_shapelet(series[i][start:stop]))

    out = _distance_matrix(_PaddedRows.of(series), shapelets)
    assert out.shape == (len(series), len(shapelets))
    for r, x in enumerate(series):
        for c, sh in enumerate(shapelets):
            assert out[r, c] == pytest.approx(
                _min_distance_oracle(x, sh.values), abs=1e-9, rel=1e-9
            )
    assert out[i, -1] == 0.0


_ROW_KINDS = ("zero", "periodic", "binary", "gauss")


def _mixed_row(rng, kind, n):
    """Rows whose offsets tie often (zero, short-period, 0/1) or rarely (Gaussian)."""
    if kind == "zero":
        return np.zeros(n)
    if kind == "periodic":
        return np.resize(rng.normal(size=rng.integers(1, 5)), n)
    if kind == "binary":
        return rng.integers(0, 2, size=n).astype(float)
    return rng.normal(size=n)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(st.sampled_from(_ROW_KINDS), st.integers(3, 60)), min_size=1, max_size=8
    ),
    lengths=st.lists(st.integers(1, 62), max_size=4),
)
# the shortest row's length, one more (that row has no alignment), and
# n_max, where a row of full length has one alignment and no near-tie
@example(seed=0, rows=[("gauss", 12), ("zero", 7), ("periodic", 9)], lengths=[7])
@example(seed=1, rows=[("gauss", 12), ("zero", 7), ("binary", 9)], lengths=[8])
@example(seed=2, rows=[("periodic", 12), ("zero", 7), ("gauss", 12)], lengths=[12])
@settings(max_examples=300, deadline=None)
def test_distance_matrix_matches_reference_bitwise(seed, rows, lengths):
    rng = np.random.default_rng(seed)
    series = [_mixed_row(rng, kind, n) for kind, n in rows]
    n_max = max(x.size for x in series)
    # random shapelets up to 2 longer than the longest row, plus one cut from a row
    values = [_mixed_row(rng, rng.choice(_ROW_KINDS), min(s, n_max + 2)) for s in lengths]
    source = series[rng.integers(len(series))]
    start = rng.integers(source.size)
    values.append(source[start : rng.integers(start + 1, source.size + 1)])
    shapelets = [_shapelet(v) for v in values]
    padded = _PaddedRows.of(series)
    with mock.patch.object(np, "argpartition", wraps=np.argpartition) as argpartition:
        out = _distance_matrix(padded, shapelets)
    assert all(call.args[1] >= 0 for call in argpartition.call_args_list)
    assert np.array_equal(out, _distance_matrix_reference(padded, shapelets))


def test_long_shapelet_takes_the_head_alignment_in_short_rows():
    rng = np.random.default_rng(4)
    series = [rng.normal(size=n) for n in (5, 12, 6, 15, 7)]
    sh = _shapelet(rng.normal(size=10))
    out = _distance_matrix(_PaddedRows.of(series), [sh])
    for r, x in enumerate(series):
        assert out[r, 0] == pytest.approx(_min_distance_oracle(x, sh.values), abs=1e-12)


def test_constant_rows_keep_the_recheck_small():
    # a z-normalised constant series is all zeros: every offset ties
    rng = np.random.default_rng(6)
    series = [np.zeros(1000) for _ in range(4)] + [rng.normal(size=1000) for _ in range(4)]
    shapelets = [_shapelet(series[5][100 : 100 + s]) for s in (50, 300, 600)]
    tracemalloc.start()
    try:
        out = _distance_matrix(_PaddedRows.of(series), shapelets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # gathering every tied window would take 4 rows x ~700 offsets x s floats
    assert peak < 4 * 2**20
    for r, x in enumerate(series):
        for c, sh in enumerate(shapelets):
            assert out[r, c] == pytest.approx(
                _min_distance_oracle(x, sh.values), abs=1e-9, rel=1e-9
            )
    assert (out[5] == 0.0).all()


def _fixture_cell(l_max=3, alpha=4):
    rng = np.random.default_rng(5)
    mk = lambda base: base + 0.05 * rng.normal(size=24)
    a = np.sin(np.linspace(0, 4 * np.pi, 24))
    b = np.sign(np.sin(np.linspace(0, 2 * np.pi, 24)))
    train = LabeledDataset(
        tuple(mk(a) for _ in range(5)) + tuple(mk(b) for _ in range(5)),
        tuple("1" * 5 + "2" * 5),
    )
    test = LabeledDataset(
        tuple(mk(a) for _ in range(4)) + tuple(mk(b) for _ in range(4)),
        tuple("1" * 4 + "2" * 4),
    )
    params = SaxParams(alpha, 2)
    d = discretize(train, params)
    index = PatternIndex.build(d, l_max)
    from ps2c.sampler_trie import fit_sampler

    trie = fit_sampler(d, index, train.labels, l_max, 0.05, 0.5)
    return train, test, d, index, trie


def test_create_feature_sets_shapes_and_self_match():
    train, test, d, index, trie = _fixture_cell()
    rng = np.random.default_rng(0)
    ftr, fte = create_feature_sets(train, test, d, index, trie, 4, rng)
    assert ftr.values.shape == (10, ftr.n_columns)
    assert fte.values.shape == (8, ftr.n_columns)
    assert 1 <= ftr.n_columns <= 4
    assert np.all(ftr.values >= 0) and np.all(np.isfinite(ftr.values))
    assert np.all(fte.values >= 0) and np.all(np.isfinite(fte.values))
    # each shapelet's source instance must score an exact zero
    for j, sh in enumerate(ftr.shapelets):
        assert ftr.values[sh.source_index, j] == pytest.approx(0.0, abs=1e-12)


def test_create_feature_sets_deterministic():
    train, test, d, index, trie = _fixture_cell()
    a = create_feature_sets(train, test, d, index, trie, 4, np.random.default_rng(7))
    b = create_feature_sets(train, test, d, index, trie, 4, np.random.default_rng(7))
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert a[0].column_tags() == b[0].column_tags()


def test_create_feature_sets_k_exceeds_trie_patterns():
    train, test, d, index, _ = _fixture_cell()
    trie = sampler_over(d, {"ab": 0.5, "ba": 0.5})
    ftr, fte = create_feature_sets(train, test, d, index, trie, 4, np.random.default_rng(0))
    assert ftr.n_columns == 2  # min(k, pattern count) distinct draws
    assert fte.n_columns == 2


def test_create_feature_sets_distinct_columns():
    train, test, d, index, trie = _fixture_cell(l_max=4)
    ftr, _ = create_feature_sets(train, test, d, index, trie, 6, np.random.default_rng(3))
    tags = ftr.column_tags()
    assert len(tags) == len(set(tags))


def test_create_feature_sets_rejects_empty_trie():
    train, test, d, index, _ = _fixture_cell()
    with pytest.raises(ValueError):
        create_feature_sets(
            train, test, d, index, sampler_over(d, {}), 4, np.random.default_rng(0),
        )


def test_feature_matrix_csv_roundtrip(tmp_path):
    values = np.array([[0.5, 1.25], [2.0, 0.0]])
    shapelets = [
        _shapelet([1.0, 2.0], pattern="ab", omega=2, alpha=3),
        _shapelet([3.0, 4.0], pattern="ba", omega=2, alpha=3),
    ]
    fm = FeatureMatrix(values, shapelets)
    path = tmp_path / "features.csv"
    fm.to_csv(path, labels=["x", "y"])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "a3_w2_ab", "a3_w2_ba"]
    assert rows[1][0] == "x"
    assert float(rows[1][1]) == 0.5
    assert float(rows[2][2]) == 0.0


def test_feature_csv_rows_hold_label_and_exact_values(tmp_path):
    train, test, d, index, trie = _fixture_cell()
    ftr, _ = create_feature_sets(train, test, d, index, trie, 4, np.random.default_rng(0))
    assert all(ftr.values[sh.source_index, j] == 0.0 for j, sh in enumerate(ftr.shapelets))
    path = tmp_path / "features.csv"
    ftr.to_csv(path, labels=train.labels)
    text = path.read_text()
    assert text.endswith("\n")
    header, *lines = text[:-1].split("\n")
    assert header.split(",") == ["label", *ftr.column_tags()]
    assert len(lines) == ftr.values.shape[0]
    for label, line, row in zip(train.labels, lines, ftr.values):
        first, *fields = line.split(",")
        assert first == label
        # bit for bit, so a source row's 0.0 must come back as +0.0
        assert np.array([float(f) for f in fields]).tobytes() == row.tobytes()


def test_variable_length_series_supported():
    rng = np.random.default_rng(11)
    series = tuple(rng.normal(size=n) for n in (20, 28, 24, 20, 26, 22))
    train = LabeledDataset(series[:4], ("1", "2", "1", "2"))
    test = LabeledDataset(series[4:], ("1", "2"))
    params = SaxParams(3, 2)
    d = discretize(train, params)
    index = PatternIndex.build(d, 3)
    from ps2c.sampler_trie import fit_sampler

    trie = fit_sampler(d, index, train.labels, 3, 0.0, 1.0)
    if trie.is_empty:
        pytest.skip("random fixture produced no discriminative pattern")
    ftr, fte = create_feature_sets(train, test, d, index, trie, 3, np.random.default_rng(2))
    assert ftr.values.shape[0] == 4 and fte.values.shape[0] == 2
    assert np.all(np.isfinite(ftr.values)) and np.all(np.isfinite(fte.values))


def test_shared_rows_match_the_per_call_path_bitwise():
    # train and test of different maximum lengths each keep their own
    # padded rows; kernel calls read them and never write
    rng = np.random.default_rng(8)
    train = LabeledDataset(tuple(rng.normal(size=n) for n in (30, 24, 30, 17)), ("a", "b", "a", "b"))
    test = LabeledDataset(tuple(rng.normal(size=n) for n in (45, 12, 33)), ("a", "b", "a"))
    shapelets = [_shapelet(rng.normal(size=s)) for s in (3, 16, 31)]
    shapelets.append(_shapelet(train.series[1][4:14]))
    expected = {
        "train": _distance_matrix(_PaddedRows.of(train.series), shapelets),
        "test": _distance_matrix(_PaddedRows.of(test.series), shapelets),
    }
    for _ in range(2):
        for name, ds in (("train", train), ("test", test)):
            padded = _shared_rows(ds)
            assert padded is _shared_rows(ds)
            arrays = {k: v for k, v in padded._asdict().items() if isinstance(v, np.ndarray)}
            assert "reach" in arrays
            assert [k for k, v in arrays.items() if v.flags.writeable] == []
            out = _distance_matrix(padded, shapelets)
            assert out.tobytes() == expected[name].tobytes()
    assert _shared_rows(train).stacked.shape == (4, 30)
    assert _shared_rows(test).stacked.shape == (3, 45)


def test_feature_columns_reuse_the_work_buffers_bitwise():
    # one set of work buffers serves every set of one split: the values
    # a longer shapelet left in them never reach a later set's columns
    rng = np.random.default_rng(9)
    ds = LabeledDataset(tuple(rng.normal(size=n) for n in (40, 26, 40, 9)), ("a", "b", "a", "b"))
    sets = [
        [_shapelet(rng.normal(size=s)) for s in (38, 21)],
        [_shapelet(rng.normal(size=s)) for s in (3, 12, 5)],
        [_shapelet(ds.series[1][2:9]), _shapelet(rng.normal(size=30))],
    ]
    made = []
    scratch = shapelet_transform._scratch
    with mock.patch.object(shapelet_transform, "_scratch", lambda p: made.append(p) or scratch(p)):
        blocks = list(feature_columns(ds, sets))
    assert len(made) == 1
    for block, shapelets in zip(blocks, sets, strict=True):
        assert block.shapelets == shapelets
        expected = _distance_matrix(_PaddedRows.of(ds.series), shapelets)
        assert block.values.tobytes() == expected.tobytes()
