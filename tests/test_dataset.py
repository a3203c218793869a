import dataclasses
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ps2c.dataset import (
    LabeledDataset,
    UcrFormatError,
    class_codes,
    load_ucr,
    resample_split,
    znormalize,
    znormalize_dataset,
)
from ps2c.pipeline import PipelineConfig, run_experiment
from support import save_ucr


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_single_line_parse(tmp_path):
    path = _write(tmp_path, "1,0.0,1.0,2.0\n2,3.0,4.0,5.0\n")
    ds = load_ucr(path)
    assert ds.labels[0] == "1"
    assert np.array_equal(ds.series[0], [0.0, 1.0, 2.0])


def test_load_two_lines_two_classes(tmp_path):
    path = _write(tmp_path, "1,0,1,2\n2,3,4,5\n")
    ds = load_ucr(path)
    assert ds.n_instances == 2
    assert class_codes(ds.labels)[0] == ("1", "2")


def test_load_tab_delimited(tmp_path):
    path = _write(tmp_path, "1\t0\t1\t2\n2\t3\t4\t5\n")
    ds = load_ucr(path)
    assert ds.n_instances == 2
    assert np.array_equal(ds.series[1], [3.0, 4.0, 5.0])


def test_load_classic_space_separated_txt(tmp_path):
    # the classic UCR archive layout: space-padded scientific notation
    text = (
        "   1.0000000e+00  -1.2500000e-01   3.5000000e-01   2.0000000e+00\n"
        "   2.0000000e+00   4.0000000e-01  -7.5000000e-01   1.0000000e-03\n"
    )
    ds = load_ucr(_write(tmp_path, text, "Demo_TRAIN.txt"))
    assert ds.labels == ("1.0000000e+00", "2.0000000e+00")
    assert np.array_equal(ds.series[0], [-0.125, 0.35, 2.0])
    assert np.array_equal(ds.series[1], [0.4, -0.75, 0.001])


def test_load_ucr2018_trailing_nan_padding(tmp_path):
    # UCR-2018 .tsv files pad shorter series with trailing NaN
    text = "1\t0.5\t1.5\t2.5\t3.5\n2\t4\t5\tNaN\tNaN\n1\t6\t7\t8\tnan\n"
    ds = load_ucr(_write(tmp_path, text, "Demo_TRAIN.tsv"))
    assert ds.lengths == (4, 2, 3)
    assert np.array_equal(ds.series[1], [4.0, 5.0])
    assert np.array_equal(ds.series[2], [6.0, 7.0, 8.0])


def test_load_rejects_interior_nan_with_line_number(tmp_path):
    path = _write(tmp_path, "1,0,1,2\n2,3,NaN,5,NaN\n", "mid.csv")
    with pytest.raises(UcrFormatError, match=r"mid\.csv:2: non-finite value NaN"):
        load_ucr(path)
    path = _write(tmp_path, "1,0,1,2\n2,3,NaN,NaN\n", "short.csv")
    with pytest.raises(UcrFormatError, match=r"short\.csv:2: .*at least two values, got 1"):
        load_ucr(path)


def test_load_rejects_empty_field_before_last_value(tmp_path):
    path = _write(tmp_path, "1,1.0,,3.0,4.0\n2,5,6,7\n", "gap.csv")
    with pytest.raises(UcrFormatError, match=r"gap\.csv:1: empty field 3$"):
        load_ucr(path)
    path = _write(tmp_path, "1,2,3\n\n,4,5,6\n", "nolabel.csv")  # line numbers count blank lines
    with pytest.raises(UcrFormatError, match=r"nolabel\.csv:3: empty field 1$"):
        load_ucr(path)
    ds = load_ucr(_write(tmp_path, "1,2,3,\n2,4,5,6,\n", "trailing.csv"))
    assert ds.labels == ("1", "2")
    assert np.array_equal(ds.series[0], [2.0, 3.0])
    assert np.array_equal(ds.series[1], [4.0, 5.0, 6.0])


def test_class_codes_sort_label_strings():
    classes, codes = class_codes([10, 9, "a", 9])
    assert classes == ("10", "9", "a")
    assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 2, 1]


def test_load_ragged_lengths_allowed(tmp_path):
    path = _write(tmp_path, "1,0,1,2,3\n2,4,5\n")
    ds = load_ucr(path)
    assert ds.lengths == (4, 2)
    assert ds.min_length == 2 and max(ds.lengths) == 4


def test_load_errors(tmp_path):
    with pytest.raises(UcrFormatError, match="empty"):
        load_ucr(_write(tmp_path, "\n\n", "a.txt"))
    with pytest.raises(UcrFormatError, match="at least two values"):
        load_ucr(_write(tmp_path, "1,5\n2,6\n", "b.txt"))
    with pytest.raises(UcrFormatError, match="non-numeric"):
        load_ucr(_write(tmp_path, "1,0,x,2\n2,3,4,5\n", "c.txt"))
    with pytest.raises(UcrFormatError, match="non-numeric token 'x'"):
        load_ucr(_write(tmp_path, "1,2,x,y\n2,3,4,5\n", "c2.txt"))
    with pytest.raises(UcrFormatError, match="non-finite"):
        load_ucr(_write(tmp_path, "1,0,nan,2\n2,3,4,5\n", "d.txt"))
    with pytest.raises(UcrFormatError, match="2 instances"):
        load_ucr(_write(tmp_path, "1,0,1,2\n", "e.txt"))
    with pytest.raises(UcrFormatError, match="2 distinct labels"):
        load_ucr(_write(tmp_path, "1,0,1,2\n1,3,4,5\n", "f.txt"))
    with pytest.raises(OSError):
        load_ucr(tmp_path / "missing.txt")


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ds = LabeledDataset(
        tuple(rng.normal(size=12) for _ in range(6)),
        ("1", "2", "1", "2", "1", "2"),
    )
    for delim, name in ((",", "c.csv"), ("\t", "t.tsv")):
        path = tmp_path / name
        save_ucr(ds, path, delimiter=delim)
        back = load_ucr(path)
        assert back.labels == ds.labels
        for a, b in zip(back.series, ds.series):
            assert np.allclose(a, b, atol=1e-6)


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least 2 observations"):
        LabeledDataset((np.array([1.0]),), ("1",))
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset((np.array([1.0, np.inf]),), ("1",))
    with pytest.raises(ValueError, match="index-aligned"):
        LabeledDataset((np.array([1.0, 2.0]),), ("1", "2"))
    with pytest.raises(ValueError, match="empty"):
        LabeledDataset((), ())


def test_dataset_series_immutable():
    ds = LabeledDataset((np.array([1.0, 2.0]),), ("1",))
    with pytest.raises(ValueError):
        ds.series[0][0] = 9.0


def test_znormalize_closed_form():
    out = znormalize([1.0, 2.0, 3.0])
    assert np.allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-9


def test_znormalize_degenerate_is_zero():
    assert np.array_equal(znormalize([5.0, 5.0, 5.0, 5.0]), np.zeros(4))


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50).filter(
        lambda v: np.std(v) > 1e-6
    )
)
@settings(max_examples=100, deadline=None)
def test_znormalize_idempotent(values):
    once = znormalize(values)
    twice = znormalize(once)
    assert np.allclose(once, twice, atol=1e-9)
    assert abs(once.mean()) < 1e-9
    assert abs(once.std() - 1.0) < 1e-9


def test_znormalize_dataset_keeps_labels():
    ds = LabeledDataset((np.array([1.0, 3.0]), np.array([0.0, 8.0])), ("a", "b"))
    z = znormalize_dataset(ds)
    assert z.labels == ds.labels
    assert all(abs(s.std() - 1.0) < 1e-9 for s in z.series)


def _pair(n_train=6, n_test=4, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda n: LabeledDataset(
        tuple(rng.normal(size=8) for _ in range(n)),
        tuple(str(1 + i % 2) for i in range(n)),
    )
    return mk(n_train), mk(n_test)


def test_resample_seed_zero_is_original():
    # run_experiment, not resample_split, keeps the caller's split on resample 0
    train, test = _pair()
    seen = []
    cfg = PipelineConfig(alphas=(2,), omegas=(2,))
    run_experiment(
        train, test, cfg, n_resamples=1, on_resample=lambda i, tr, te, _: seen.append((i, tr, te))
    )
    assert len(seen) == 1 and seen[0][0] == 0
    assert seen[0][1] is train and seen[0][2] is test
    # no seed is reserved: resample_split copies the pool at seed 0 too
    assert resample_split(train, test, 0)[0] is not train


def test_resample_deterministic_and_seed_sensitive():
    train, test = _pair()
    s1_train, _ = resample_split(train, test, 1)
    s1b_train, _ = resample_split(train, test, 1)
    s2_train, _ = resample_split(train, test, 2)
    assert s1_train.labels == s1b_train.labels
    assert all(
        np.array_equal(a, b) for a, b in zip(s1_train.series, s1b_train.series)
    )
    # seeds 1 and 2 on a 10-instance pool: collision essentially impossible
    same = all(
        np.array_equal(a, b) for a, b in zip(s1_train.series, s2_train.series)
    )
    assert not same


def test_resample_preserves_pool_and_sizes():
    train, test = _pair()
    split_train, split_test = resample_split(train, test, 7)
    assert split_train.n_instances == train.n_instances
    assert split_test.n_instances == test.n_instances
    key = lambda ds: sorted(
        (tuple(s), c) for s, c in zip(ds.series, ds.labels)
    )
    assert sorted(key(split_train) + key(split_test)) == sorted(
        key(train) + key(test)
    )


def test_resample_stratified_counts():
    train, test = _pair(8, 6)
    split_train, _ = resample_split(train, test, 5)
    assert Counter(split_train.labels) == Counter(train.labels)
    # a plain shuffle at this seed would not keep the counts
    pool_labels = train.labels + test.labels
    plain = [pool_labels[i] for i in np.random.default_rng(5).permutation(14)[:8]]
    assert Counter(plain) != Counter(train.labels)


def test_resample_unstratifiable_falls_back():
    # class "9" has a single pooled instance: stratification infeasible
    train = LabeledDataset(
        (np.zeros(4) + 1, np.zeros(4) + 2, np.zeros(4) + 3),
        ("1", "2", "9"),
    )
    test = LabeledDataset((np.zeros(4) + 4, np.zeros(4) + 5), ("1", "2"))
    split_train, split_test = resample_split(train, test, 3)
    assert split_train.n_instances == 3
    # the plain shuffle's training split is the pool's first 3 permuted instances
    pool_series = train.series + test.series
    pool_labels = train.labels + test.labels
    perm = np.random.default_rng(3).permutation(5)
    for split, indices in ((split_train, perm[:3]), (split_test, perm[3:])):
        assert split.labels == tuple(pool_labels[i] for i in indices)
        assert all(np.array_equal(s, pool_series[i]) for s, i in zip(split.series, indices))


def test_resample_pool_too_small():
    ds = LabeledDataset((np.zeros(4), np.ones(4)), ("1", "2"))
    with pytest.raises(ValueError, match="at least 4"):
        resample_split(ds, LabeledDataset((np.zeros(4),), ("1",)), 1)


def test_memo_takes_no_part_in_eq_hash_or_repr():
    ds = LabeledDataset((np.arange(4.0), np.arange(3.0)), ("a", "b"))
    twin = LabeledDataset((np.arange(4.0), np.arange(3.0)), ("a", "b"))  # equal, distinct arrays
    before = repr(ds)
    calls = []
    value = ds.shared("key", lambda: calls.append(1) or np.arange(3))
    assert ds.shared("key", lambda: calls.append(1) or np.arange(3)) is value
    assert calls == [1]
    assert repr(ds) == before and "_memo" not in before
    assert ds == ds and ds != twin and twin._memo == {}
    assert hash(ds) == hash(ds) and len({ds, twin}) == 2  # by identity, as objects
    assert [f.name for f in dataclasses.fields(ds) if f.init] == ["series", "labels"]


def test_derived_datasets_start_with_an_empty_memo():
    train = LabeledDataset(tuple(np.arange(6.0) + i for i in range(4)), ("a", "b", "a", "b"))
    test = LabeledDataset(tuple(np.arange(5.0) * i for i in range(4)), ("a", "b", "b", "a"))
    for ds in (train, test):
        ds.shared("key", lambda: np.zeros(2))
    split_train, split_test = resample_split(train, test, 3)
    derived = [
        LabeledDataset(train.series[::2], train.labels[::2]),
        znormalize_dataset(train),
        split_train,
        split_test,
    ]
    assert all(ds._memo == {} for ds in derived)


def test_concurrent_first_access_returns_one_stored_value():
    # more threads than cores race on a missing key; each may build, but
    # all must get the one value stored first, and the memo holds one entry
    ds = LabeledDataset((np.arange(4.0), np.arange(3.0)), ("a", "b"))
    barrier = threading.Barrier(8)
    got = [None] * 8

    def build():
        time.sleep(0.002)
        return np.arange(5.0)

    def worker(i):
        barrier.wait(timeout=10)
        got[i] = ds.shared("key", build)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is ds._memo["key"] for g in got)
    assert list(ds._memo) == ["key"]
