import itertools
import re
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from ps2c import pattern_index, pipeline, shapelet_transform
from ps2c.dataset import LabeledDataset, resample_split, znormalize_dataset
from ps2c.discretizer import SaxParams, discretize
from ps2c.pattern_index import PatternIndex
from ps2c.pipeline import (
    NoPatternsError,
    PipelineConfig,
    build_report,
    evaluate,
    fit_transform,
    merge,
    run_experiment,
    train_classifier,
)
from ps2c.quality import scale
from ps2c.sampler_trie import fit_sampler
from ps2c.shapelet_transform import FeatureMatrix, Shapelet, create_feature_sets
from ps2c.synthgen import SynthSpec, generate
from support import motif_offsets


def _planted(n_per_class=12, length=64, seed=0):
    return (
        generate(SynthSpec(n_per_class=n_per_class, length=length, seed=seed)),
        generate(SynthSpec(n_per_class=n_per_class, length=length, seed=seed + 1)),
    )


def _shapelet(values, pattern="ab", alpha=2, omega=2):
    return Shapelet(
        np.asarray(values, float), alpha=alpha, omega=omega, pattern=pattern,
        source_index=0, symbol_offset=0,
    )


def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.alphas == (2, 3, 4, 5, 6, 7, 8)
    assert cfg.omegas == (2, 3, 4, 5, 6)
    assert (cfg.l_max, cfg.s_min, cfg.tau, cfg.k) == (20, 0.05, 0.5, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(alphas=())
    with pytest.raises(ValueError):
        PipelineConfig(alphas=(1, 2))
    with pytest.raises(ValueError):
        PipelineConfig(omegas=(0,))
    with pytest.raises(ValueError):
        PipelineConfig(tau=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PipelineConfig(tau=value)
        with pytest.raises(ValueError, match="finite"):
            PipelineConfig(s_min=value)
    with pytest.raises(ValueError):
        PipelineConfig(k=0)
    with pytest.raises(ValueError):
        PipelineConfig(l_max=1)
    with pytest.raises(ValueError):
        PipelineConfig(seed=-1)


def test_full_grid_gives_140_columns():
    # |A|=7 x |Omega|=5 x K=4 when no cell is empty or short-sampled
    train, test = _planted()
    merged = fit_transform(train, test, PipelineConfig())
    assert merged.train.n_columns == 140
    assert merged.test.n_columns == 140
    assert merged.skipped == ()


def test_single_cell_config_equals_direct_cell():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(3,), omegas=(4,))
    merged = fit_transform(train, test, cfg)

    ztrain, ztest = znormalize_dataset(train), znormalize_dataset(test)
    d = discretize(ztrain, SaxParams(3, 4))
    index = PatternIndex.build(d, cfg.l_max)
    trie = fit_sampler(d, index, ztrain.labels, cfg.l_max, cfg.s_min, cfg.tau)
    rng = np.random.default_rng([cfg.seed, 3, 4])
    ftr, fte = create_feature_sets(ztrain, ztest, d, index, trie, cfg.k, rng)
    assert np.array_equal(merged.train.values, ftr.values)
    assert np.array_equal(merged.test.values, fte.values)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_no_pattern_index_is_alive_while_the_kernel_runs(monkeypatch, n_threads):
    # pass 1 scores each length's table as the stream yields it and frees
    # it before the next length is built: no PatternIndex is made, each
    # thread holds at most one table, and none is alive at a kernel call
    alive = weakref.WeakSet()
    lock = threading.Lock()
    alive_at_build, alive_at_kernel, indexes = [], [], []
    kernel = shapelet_transform._distance_matrix
    init = PatternIndex.__init__

    class WatchedTable(pattern_index._LengthTable):
        __hash__ = object.__hash__  # for the WeakSet

        def __init__(self, *arrays):
            super().__init__(*arrays)
            with lock:
                alive.add(self)
                alive_at_build.append(len(alive))

    def recording_init(self, *args):
        indexes.append(type(self).__name__)
        init(self, *args)

    def watched_kernel(*args):
        with lock:
            alive_at_kernel.append(len(alive))
        return kernel(*args)

    monkeypatch.setattr(pattern_index, "_LengthTable", WatchedTable)
    monkeypatch.setattr(PatternIndex, "__init__", recording_init)
    monkeypatch.setattr(shapelet_transform, "_distance_matrix", watched_kernel)
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(2, 3), omegas=(2, 3))
    merged = fit_transform(train, test, cfg, n_threads=n_threads)
    assert merged.train.n_columns == 16
    assert indexes == []
    assert len(alive_at_build) > 4 * 10  # four cells, lengths 2..20 mostly present
    assert max(alive_at_build) <= n_threads
    assert alive_at_kernel == [0] * 8  # two kernel calls per cell


@pytest.mark.parametrize("n_threads", [1, 2])
def test_second_pass_makes_one_set_of_work_buffers_per_task(monkeypatch, n_threads):
    # each task's kernel calls share their buffers, so a buffer is made
    # once per split and run of cells, not once per kernel call (8 here)
    made = []
    scratch = shapelet_transform._scratch

    def counting_scratch(padded):
        made.append(padded.lengths.size)
        return scratch(padded)

    monkeypatch.setattr(shapelet_transform, "_scratch", counting_scratch)
    train, test = _planted(8, 48)
    test = LabeledDataset(test.series[:10], test.labels[:10])
    cfg = PipelineConfig(alphas=(2, 3), omegas=(2, 3))
    merged = fit_transform(train, test, cfg, n_threads=n_threads)
    assert merged.train.n_columns == 16
    assert sorted(made) == [10] * n_threads + [16] * n_threads


def test_each_kernel_call_sees_one_splits_rows_and_no_paa_memo(monkeypatch):
    # pass 2 builds one split's padded rows at a time and frees them
    # before the next split's are built, and pass 1's PAA memo is
    # cleared before pass 2 starts. The rows are followed by weak
    # references to each split's stacked array: _PaddedRows is a tuple,
    # and an ndarray is unhashable, so neither fits a WeakSet.
    stacked, datasets, seen = [], [], []
    build = shapelet_transform._PaddedRows.of
    kernel = shapelet_transform._distance_matrix
    znormalize = pipeline.znormalize_dataset

    def watched_build(series_list):
        padded = build(series_list)
        stacked.append(weakref.ref(padded.stacked))
        return padded

    def recording_znormalize(dataset):
        datasets.append(znormalize(dataset))
        return datasets[-1]

    def watched_kernel(padded, *args):
        alive = sum(ref() is not None for ref in stacked)
        memo = sum(len(ds._memo) for ds in datasets)
        seen.append((padded.lengths.size, alive, memo))
        return kernel(padded, *args)

    monkeypatch.setattr(shapelet_transform._PaddedRows, "of", staticmethod(watched_build))
    monkeypatch.setattr(pipeline, "znormalize_dataset", recording_znormalize)
    monkeypatch.setattr(shapelet_transform, "_distance_matrix", watched_kernel)
    train, test = _planted(8, 48)
    test = LabeledDataset(test.series[:10], test.labels[:10])
    cfg = PipelineConfig(alphas=(2, 3), omegas=(2, 3))
    merged = fit_transform(train, test, cfg, n_threads=1)
    assert merged.train.n_columns == 16
    assert len(datasets) == 2 and len(stacked) == 2
    assert seen == [(16, 1, 0)] * 4 + [(10, 1, 0)] * 4


@pytest.mark.parametrize("n_threads", [1, 2])
def test_fit_transform_merges_the_per_cell_feature_sets_in_grid_order(n_threads):
    rng = np.random.default_rng(8)
    train, test = (_cut_to_random_lengths(ds, rng, 24) for ds in _planted(6, 40))
    cfg = PipelineConfig(alphas=(2, 3, 4), omegas=(2, 3, 30), seed=3)
    merged = fit_transform(train, test, cfg, n_threads=n_threads)

    ztrain, ztest = znormalize_dataset(train), znormalize_dataset(test)
    train_blocks, test_blocks = [], []
    for alpha in cfg.alphas:
        for omega in cfg.omegas:
            if omega >= ztrain.min_length:
                continue
            d = discretize(ztrain, SaxParams(alpha, omega))
            index = PatternIndex.build(d, cfg.l_max)
            trie = fit_sampler(d, index, ztrain.labels, cfg.l_max, cfg.s_min, cfg.tau)
            if trie.is_empty:
                continue
            rng = np.random.default_rng([cfg.seed, alpha, omega])
            ftr, fte = create_feature_sets(ztrain, ztest, d, index, trie, cfg.k, rng)
            train_blocks.append(ftr)
            test_blocks.append(fte)
    expected_train, expected_test = merge(train_blocks), merge(test_blocks)
    assert {(c.alpha, c.omega) for c in merged.skipped} == {(a, 30) for a in cfg.alphas}
    assert merged.train.values.tobytes() == expected_train.values.tobytes()
    assert merged.test.values.tobytes() == expected_test.values.tobytes()
    assert merged.train.column_tags() == expected_train.column_tags()
    assert merged.test.column_tags() == expected_test.column_tags()


def test_fit_transform_deterministic():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(2, 4), omegas=(3, 5), seed=11)
    a = fit_transform(train, test, cfg)
    b = fit_transform(train, test, cfg)
    assert np.array_equal(a.train.values, b.train.values)
    assert np.array_equal(a.test.values, b.test.values)


def test_threads_do_not_change_output():
    train, test = _planted(10, 64)
    cfg = PipelineConfig()
    seq = fit_transform(train, test, cfg, n_threads=1)
    par = fit_transform(train, test, cfg, n_threads=4)
    assert np.array_equal(seq.train.values, par.train.values)
    assert np.array_equal(seq.test.values, par.test.values)
    assert seq.train.column_tags() == par.train.column_tags()


def test_failing_cell_stops_threaded_grid(monkeypatch):
    # pending cells are cancelled once one raises; only cells already
    # picked up by a worker may still run
    train, test = _planted(8, 48)
    started = []
    run_cell = pipeline._run_cell

    def spy(alpha, omega, *args):
        started.append((alpha, omega))
        if (alpha, omega) == (2, 2):
            raise RuntimeError("cell failed")
        time.sleep(0.01)
        return run_cell(alpha, omega, *args)

    monkeypatch.setattr(pipeline, "_run_cell", spy)
    n_threads = 2
    with pytest.raises(RuntimeError, match="cell failed"):
        fit_transform(train, test, PipelineConfig(), n_threads=n_threads)
    assert (2, 2) in started
    assert len(started) - 1 <= n_threads


def test_block_order_ascending_alpha_omega():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(3, 2), omegas=(3, 2), k=1)
    merged = fit_transform(train, test, cfg)
    cells = []
    for tag in merged.train.column_tags():
        a, w = tag.split("_")[:2]
        cells.append((int(a[1:]), int(w[1:])))
    assert cells == sorted(cells)
    # (2,2) and (2,3) must precede (3,2)
    assert cells.index((2, 2)) < cells.index((3, 2))
    assert cells.index((2, 3)) < cells.index((3, 2))


def test_window_too_long_cells_are_skipped():
    train, test = _planted(6, 24)
    cfg = PipelineConfig(alphas=(3,), omegas=(2, 24, 30))
    merged = fit_transform(train, test, cfg)
    skipped = {(c.alpha, c.omega) for c in merged.skipped}
    assert (3, 24) in skipped and (3, 30) in skipped
    assert merged.train.n_columns >= 1


def test_skipped_cell_is_logged_once_per_experiment(caplog):
    train, test = _planted(6, 24)
    cfg = PipelineConfig(alphas=(3,), omegas=(2, 24))
    with caplog.at_level("WARNING", logger="ps2c.pipeline"):
        res = run_experiment(train, test, cfg, n_resamples=3)
    records = [r.getMessage() for r in caplog.records if "skipping cell" in r.getMessage()]
    assert records == [
        "skipping cell alpha=3 omega=24: omega 24 >= shortest training series length 24"
    ]
    assert [(c.alpha, c.omega) for c in res.skipped] == [(3, 24)]


def test_no_patterns_error():
    # both classes share identical series: nothing can discriminate
    base = np.sin(np.linspace(0, 6, 32))
    train = LabeledDataset((base, base.copy(), base.copy(), base.copy()),
                           ("1", "1", "2", "2"))
    with pytest.raises(NoPatternsError, match="no discriminative patterns"):
        fit_transform(train, train, PipelineConfig(alphas=(2, 3), omegas=(2,)))


def test_no_patterns_error_counts_skip_reasons():
    base = np.sin(np.linspace(0, 6, 32))
    train = LabeledDataset((base, base.copy(), base.copy(), base.copy()),
                           ("1", "1", "2", "2"))
    cfg = PipelineConfig(alphas=(2, 3, 4), omegas=(2, 40))
    with pytest.raises(NoPatternsError) as exc:
        fit_transform(train, train, cfg)
    assert str(exc.value) == (
        "no discriminative patterns found (3 cells: no pattern reached s_min; "
        "3 cells: omega 40 >= shortest training series length 32)"
    )


def _noisy(amplitude):
    # weak motifs under unit noise: no pattern splits the classes well, so
    # the best normalised chi-square of every cell stays far below 1
    spec = dict(n_per_class=20, length=64, noise_sigma=1.0, amplitude=amplitude)
    return generate(SynthSpec(seed=0, **spec)), generate(SynthSpec(seed=1, **spec))


def test_underflowing_cells_yield_features():
    # At tau=0.002 the linear weight q**(1/tau) underflows to 0.0 for q
    # below about 0.2256. Sampling works on log-weights, so such cells are
    # sampled like any other instead of being skipped.
    train, test = _noisy(amplitude=1.0)
    cfg = PipelineConfig(alphas=(2, 3, 4), omegas=(2, 4), s_min=0.0, tau=0.002)
    merged = fit_transform(train, test, cfg)

    ztrain = znormalize_dataset(train)
    qualities = {}
    for alpha in cfg.alphas:
        for omega in cfg.omegas:
            d = discretize(ztrain, SaxParams(alpha, omega))
            index = PatternIndex.build(d, cfg.l_max)
            # at tau=1 the stored weights are the qualities themselves
            trie = fit_sampler(d, index, ztrain.labels, cfg.l_max, 0.0, 1.0)
            qualities[(alpha, omega)] = dict(trie.iter_patterns())
    zero_cells = {
        cell for cell, qs in qualities.items() if scale(max(qs.values()), cfg.tau) == 0.0
    }
    assert 0 < len(zero_cells) < len(qualities)

    assert merged.skipped == ()
    assert merged.train.n_columns == cfg.k * len(qualities)
    sampled = {(s.alpha, s.omega) for s in merged.train.shapelets}
    assert sampled == set(qualities)
    for shapelet in merged.train.shapelets:
        assert qualities[(shapelet.alpha, shapelet.omega)][shapelet.pattern] > 0.0


def test_all_underflowing_cells_yield_features():
    train, test = _noisy(amplitude=0.5)
    cfg = PipelineConfig(alphas=(2, 3), omegas=(2, 4), s_min=0.0, tau=0.002)
    merged = fit_transform(train, test, cfg)
    assert merged.skipped == ()
    assert merged.train.n_columns == cfg.k * 4


def test_sampled_shapelets_overlap_the_planted_motif():
    # The sampling law shows in where the drawn shapelets lie, long
    # before it shows in accuracy. On weak motifs under unit noise, 20
    # seeds at the default grid and k put the mean share of training
    # columns whose points overlap their series' motif at 0.466. Drawing
    # by negated log-weights gives 0.357 and uniform draws over the
    # accepted patterns 0.376, so the floor sits between uniform and
    # shipped. The signal reverses on the easy default fixture (large
    # amplitude, small noise), where the best patterns are long runs of
    # one symbol grounded at offset 0, so that fixture is not used here.
    spec = dict(length=128, amplitude=1.0, noise_sigma=1.0)
    rates = []
    for seed in range(20):
        train_spec = SynthSpec(n_per_class=40, seed=2 * seed, **spec)
        offsets = motif_offsets(train_spec)
        # the test split does not change which shapelets are drawn
        test = generate(SynthSpec(n_per_class=1, seed=2 * seed + 1, **spec))
        merged = fit_transform(generate(train_spec), test, PipelineConfig(seed=seed))
        hits = 0
        for shapelet in merged.train.shapelets:
            start = shapelet.symbol_offset * shapelet.omega
            motif = offsets[shapelet.source_index]
            hits += start < motif + train_spec.motif_length and motif < start + shapelet.values.size
        rates.append(hits / merged.train.n_columns)
    assert np.mean(rates) >= 0.42, rates


def test_fit_transform_requires_two_classes():
    ds = generate(SynthSpec(n_per_class=4, length=32, seed=0))
    ones = LabeledDataset(
        tuple(x for x, c in zip(ds.series, ds.labels) if c == "1"),
        tuple(c for c in ds.labels if c == "1"),
    )
    with pytest.raises(ValueError, match="two classes"):
        fit_transform(ones, ds, PipelineConfig())


def test_long_shapelet_is_logged_once_per_split(caplog):
    # every accepted pattern spans both symbols of a length-10 series, so
    # each sampled shapelet has length 10; three test series are shorter
    rng = np.random.default_rng(4)
    test = LabeledDataset(
        tuple(rng.normal(size=n) for n in (5, 12, 6, 15, 7)), ("1", "2", "1", "2", "1")
    )
    step = np.r_[-np.ones(5), np.ones(5)]
    train = LabeledDataset(
        tuple(sign * step + 0.05 * rng.normal(size=10) for sign in (1, 1, 1, -1, -1, -1)),
        ("1", "1", "1", "2", "2", "2"),
    )
    cfg = PipelineConfig(alphas=(2,), omegas=(5,), l_max=2, k=1)
    with caplog.at_level("WARNING", logger="ps2c"):
        merged = fit_transform(train, test, cfg)
    assert [sh.values.size for sh in merged.train.shapelets] == [10]
    assert [(r.name, r.getMessage()) for r in caplog.records] == [(
        "ps2c.pipeline",
        "shapelet length 10 exceeds series length in 3 of 5 series; using single head alignment",
    )]


def _cut_to_random_lengths(dataset, rng, low):
    return LabeledDataset(
        tuple(x[: int(rng.integers(low, x.size + 1))] for x in dataset.series), dataset.labels
    )


def _expected_long_shapelet_messages(merged, train, test):
    """Grid order, and in each cell the train split before the test split."""
    messages = []
    for _, group in itertools.groupby(merged.train.shapelets, lambda sh: (sh.alpha, sh.omega)):
        group = list(group)
        for split in (train, test):
            for sh in group:
                short = sum(n < sh.values.size for n in split.lengths)
                if short:
                    messages.append(
                        f"shapelet length {sh.values.size} exceeds series length in {short} "
                        f"of {split.n_instances} series; using single head alignment"
                    )
    return messages


def test_every_record_is_logged_by_the_calling_thread_in_grid_order(caplog):
    rng = np.random.default_rng(5)
    train, test = (_cut_to_random_lengths(ds, rng, 24) for ds in _planted(6, 40))
    cfg = PipelineConfig(alphas=(2, 3, 4), omegas=(2, 3, 4))
    with caplog.at_level("WARNING", logger="ps2c"):
        merged = fit_transform(train, test, cfg, n_threads=2)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == _expected_long_shapelet_messages(merged, train, test)
    assert messages  # shapelets of up to 20 x 4 points outgrow some series
    assert {r.thread for r in caplog.records} == {threading.get_ident()}

    # only the pipeline logs, and only the CLI attaches a handler
    importers = {
        path.name
        for path in Path(pipeline.__file__).parent.glob("*.py")
        if re.search(r"^\s*(import|from)\s+logging\b", path.read_text(), re.MULTILINE)
    }
    assert importers <= {"pipeline.py", "cli.py"}


def test_merge_examples():
    a = FeatureMatrix(np.ones((5, 4)), [_shapelet([1, 2])] * 4)
    b = FeatureMatrix(np.zeros((5, 4)), [_shapelet([3, 4])] * 4)
    out = merge([a, b])
    assert out.values.shape == (5, 8)
    assert np.array_equal(out.values[:, :4], a.values)
    with pytest.raises(ValueError, match="row count"):
        merge([a, FeatureMatrix(np.ones((4, 2)), [_shapelet([1, 2])] * 2)])
    with pytest.raises(ValueError):
        merge([])


def test_train_and_evaluate_perfectly_separable():
    X = np.array([[0.0], [0.0], [1.0], [2.0]])
    y = ["A", "A", "B", "B"]
    model = train_classifier(FeatureMatrix(X, [_shapelet([1, 2])]), y, seed=0)
    assert evaluate(model, FeatureMatrix(X, [_shapelet([1, 2])]), y) == 1.0
    assert evaluate(model, FeatureMatrix(X, []), ["B", "B", "A", "A"]) == 0.0
    assert evaluate(model, FeatureMatrix(X, []), ["A", "B", "A", "B"]) == 0.5


def test_evaluate_schema_mismatch():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    model = train_classifier(FeatureMatrix(X, []), ["A", "B", "A", "B"], seed=0)
    with pytest.raises(ValueError):
        evaluate(model, FeatureMatrix(np.zeros((2, 5)), []), ["A", "B"])
    with pytest.raises(ValueError, match="align"):
        evaluate(model, FeatureMatrix(X, []), ["A", "B"])


def test_run_experiment_single_resample_is_original_split():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(3, 4), omegas=(3,), seed=5)
    res = run_experiment(train, test, cfg, n_resamples=1)
    assert len(res.accuracies) == 1

    merged = fit_transform(train, test, cfg, master_seed=cfg.seed)
    model = train_classifier(merged.train, train.labels, seed=cfg.seed)
    assert res.accuracies[0] == evaluate(model, merged.test, test.labels)


def test_run_experiment_deterministic_vector():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(2, 5), omegas=(2, 4), seed=9)
    r1 = run_experiment(train, test, cfg, n_resamples=4)
    r2 = run_experiment(train, test, cfg, n_resamples=4)
    assert r1.accuracies == r2.accuracies
    assert r1.n_columns == r2.n_columns


def test_run_experiment_resamples_vary_split():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(3,), omegas=(3,), seed=1)
    seen = []

    def capture(i, train_i, test_i, merged):
        seen.append((i, train_i, test_i))

    run_experiment(train, test, cfg, n_resamples=3, on_resample=capture)
    assert [s[0] for s in seen] == [0, 1, 2]
    assert seen[0][1] is train and seen[0][2] is test  # resample 0 keeps the original split
    for i in (1, 2):
        expected = resample_split(train, test, cfg.seed + i)
        for got, want in zip(seen[i][1:], expected):
            assert got.labels == want.labels
            assert all(np.array_equal(a, b) for a, b in zip(got.series, want.series))


def test_one_resample_needs_no_pool_of_four():
    # resample 0 draws no resample, so a pool of 3 runs; a second resample needs 4
    step = np.r_[-np.ones(8), np.ones(8)]
    train = LabeledDataset((step, -step), ("1", "2"))
    test = LabeledDataset((step + 0.1,), ("1",))
    cfg = PipelineConfig(alphas=(2,), omegas=(2,))
    assert len(run_experiment(train, test, cfg, n_resamples=1).accuracies) == 1
    with pytest.raises(ValueError, match="pooled split needs at least 4 instances"):
        run_experiment(train, test, cfg, n_resamples=2)


def test_run_experiment_validates_n_resamples():
    train, test = _planted(6, 32)
    with pytest.raises(ValueError):
        run_experiment(train, test, PipelineConfig(), n_resamples=0)


def test_timing_breakdown_covers_total():
    train, test = _planted(30, 128)
    cfg = PipelineConfig()
    res = run_experiment(train, test, cfg, n_resamples=1, n_threads=1)
    attributed = sum(res.timings.values())
    assert attributed <= res.total_seconds * 1.001
    assert attributed >= 0.95 * res.total_seconds


def test_wall_timings_fit_in_total_with_two_threads():
    train, test = _planted(20, 64)
    res = run_experiment(train, test, PipelineConfig(), n_resamples=2, n_threads=2)
    assert set(res.timings) == {"znormalize", "grid", "train"}
    assert sum(res.timings.values()) <= res.total_seconds
    assert set(res.cell_seconds) == {"discretize", "index", "score", "transform"}
    assert all(seconds > 0 for seconds in res.cell_seconds.values())


def test_build_report_is_json_stable():
    import json

    train, test = _planted(6, 32)
    cfg = PipelineConfig(alphas=(3,), omegas=(3,))
    res = run_experiment(train, test, cfg, n_resamples=2)
    rep = build_report(cfg, res, 2)
    text1 = json.dumps(rep, sort_keys=True)
    res2 = run_experiment(train, test, cfg, n_resamples=2)
    text2 = json.dumps(build_report(cfg, res2, 2), sort_keys=True)
    assert text1 == text2
    assert "accuracies" in rep and "config" in rep and "skipped_cells" in rep


def test_leakage_guard_permuted_test_labels():
    train, test = _planted(8, 48)
    cfg = PipelineConfig(alphas=(2, 6), omegas=(2, 5), seed=3)
    merged = fit_transform(train, test, cfg)

    rng = np.random.default_rng(0)
    perm = rng.permutation(test.n_instances)
    scrambled = LabeledDataset(test.series, tuple(test.labels[i] for i in perm))
    merged2 = fit_transform(train, scrambled, cfg)
    assert np.array_equal(merged.test.values, merged2.test.values)
    assert np.array_equal(merged.train.values, merged2.train.values)
