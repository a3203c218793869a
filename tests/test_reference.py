"""An end-to-end reference for ``fit_transform``, independent of its parts.

The reference starts from the series as ps2c z-normalises and
discretizes them: those two layers keep their own oracles in
test_dataset.py and test_discretizer.py. From there it shares no code
with the pipeline. Per grid cell it:

- skips the cell when omega >= the shortest training series' length;
- counts, with plain dicts, the instances of each class that hold each
  substring of length 2..l_max, and notes its earliest (instance, offset);
- scores each substring by the textbook Pearson chi-square over its
  classes x (present, absent) table, divided by the instance count, and
  keeps q >= s_min with q > 0 (a cell that keeps none is skipped);
- draws k patterns by Gumbel-top-k: the kept patterns are ordered by
  (length, text), the order the sampler stores them in and the order the
  draw's noise follows, and default_rng([seed, alpha, omega]).gumbel adds
  one variate per pattern to log(q) / tau;
- grounds each drawn pattern at its earliest occurrence, values
  [offset * omega, (offset + length) * omega) cut at the series' end;
- describes every series by its brute-force minimum over alignments of
  the mean squared difference, or, for a series shorter than the
  shapelet, the squared difference against the shapelet's head divided
  by the series' length.

Blocks merge in ascending (alpha, omega).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ps2c.dataset import LabeledDataset, znormalize_dataset
from ps2c.discretizer import SaxParams, discretize
from ps2c.pipeline import NoPatternsError, PipelineConfig, fit_transform

# A textbook chi-square may differ from the shipped one in the last bits,
# and so may q, log(q) / tau and the Gumbel keys. An example whose outcome
# a difference that small could flip is rejected, not compared: a q this
# close to s_min, or two deciding keys this close to each other.
NEAR = 1e-9
# Distances agree to round-off: the shipped kernel finds the best
# alignment by FFT and re-evaluates it with the direct formula.
RTOL, ATOL = 1e-9, 1e-12


def _pearson_q(present, class_sizes):
    n = sum(class_sizes)
    total = sum(present)
    if total in (0, n):
        return 0.0
    chi2 = 0.0
    for size, observed in zip(class_sizes, present):
        for o, column in ((observed, total), (size - observed, n - total)):
            expected = size * column / n
            chi2 += (o - expected) ** 2 / expected
    return min(chi2 / n, 1.0)


def _distance(series, shapelet):
    s, n = shapelet.size, series.size
    if n < s:
        return float(((series - shapelet[:n]) ** 2).sum() / n)
    return float((((sliding_window_view(series, s) - shapelet) ** 2).sum(axis=1) / s).min())


def _reference_cell(ztrain, alpha, omega, config):
    """The cell's (tag, values) shapelets, or the reason it is skipped."""
    shortest = min(x.size for x in ztrain.series)
    if omega >= shortest:
        return f"omega {omega} >= shortest training series length {shortest}"
    texts = [
        "".join(chr(ord("a") + int(c)) for c in codes)
        for codes in discretize(ztrain, SaxParams(alpha, omega)).codes
    ]
    classes = sorted(set(ztrain.labels))
    class_of = [classes.index(label) for label in ztrain.labels]
    class_sizes = [class_of.count(c) for c in range(len(classes))]
    holders, first = {}, {}
    for i, text in enumerate(texts):
        for length in range(2, config.l_max + 1):
            for offset in range(len(text) - length + 1):
                pattern = text[offset : offset + length]
                holders.setdefault(pattern, set()).add(i)
                first.setdefault(pattern, (i, offset))
    kept = []
    for pattern in sorted(holders, key=lambda p: (len(p), p)):
        present = [0] * len(classes)
        for i in holders[pattern]:
            present[class_of[i]] += 1
        q = _pearson_q(present, class_sizes)
        assume(config.s_min == 0 or abs(q - config.s_min) > NEAR)
        if q >= config.s_min and q > 0:
            kept.append((pattern, q))
    if not kept:
        return "no pattern reached s_min"
    rng = np.random.default_rng([config.seed, alpha, omega])
    keys = np.log([q for _, q in kept]) / config.tau + rng.gumbel(size=len(kept))
    order = sorted(range(len(kept)), key=lambda j: -keys[j])
    deciding = [keys[j] for j in order[: config.k + 1]]
    assume(all(a - b > NEAR for a, b in zip(deciding, deciding[1:])))
    shapelets = []
    for j in order[: config.k]:
        pattern = kept[j][0]
        i, offset = first[pattern]
        series = ztrain.series[i]
        values = series[offset * omega : min((offset + len(pattern)) * omega, series.size)]
        shapelets.append((f"a{alpha}_w{omega}_{pattern}", values))
    return shapelets


def reference_fit_transform(train, test, config):
    """(tags, train matrix, test matrix, skipped cells), or None when every cell is skipped."""
    ztrain, ztest = znormalize_dataset(train), znormalize_dataset(test)
    shapelets, skipped = [], []
    for alpha in sorted(config.alphas):
        for omega in sorted(config.omegas):
            cell = _reference_cell(ztrain, alpha, omega, config)
            if isinstance(cell, str):
                skipped.append((alpha, omega, cell))
            else:
                shapelets += cell
    if not shapelets:
        return None
    matrices = [
        np.array([[_distance(x, values) for _, values in shapelets] for x in split.series])
        for split in (ztrain, ztest)
    ]
    return [tag for tag, _ in shapelets], *matrices, skipped


@st.composite
def ragged_problems(draw):
    """Train and test splits of 2-4 classes with ragged lengths, and a small grid.

    One training series has exactly the shortest length, and omega may
    equal it, so the omega skip rule is exercised at its boundary. The
    grid spans alpha up to 26, s_min 0 and a tau of 0.01.
    """
    n_classes = draw(st.integers(2, 4))
    shortest = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def split(per_class):
        series, labels = [], []
        for c in range(n_classes):
            for _ in range(per_class):
                n = int(rng.integers(shortest, shortest + 25))
                t = np.arange(n)
                series.append(rng.normal(size=n) + 2.0 * np.sin(2 * np.pi * (c + 1) * t / n))
                labels.append(str(c))
        return series, labels

    train_series, train_labels = split(draw(st.integers(1, 4)))
    train_series[0] = train_series[0][:shortest]
    test_series, test_labels = split(draw(st.integers(1, 2)))
    config = PipelineConfig(
        alphas=draw(st.sets(st.sampled_from([2, 3, 5, 26]), min_size=1, max_size=2)),
        omegas=draw(st.sets(st.sampled_from([1, 2, shortest - 1, shortest]), min_size=1, max_size=2)),
        l_max=draw(st.integers(2, 6)),
        s_min=draw(st.sampled_from([0.0, 0.05, 0.3])),
        tau=draw(st.sampled_from([0.01, 0.5, 1.0])),
        k=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 1000)),
    )
    train = LabeledDataset(tuple(train_series), tuple(train_labels))
    test = LabeledDataset(tuple(test_series), tuple(test_labels))
    return train, test, config


@given(ragged_problems())
@settings(max_examples=150, deadline=None)
def test_fit_transform_matches_the_end_to_end_reference(problem):
    train, test, config = problem
    expected = reference_fit_transform(train, test, config)
    for n_threads in (1, 2):
        if expected is None:
            with pytest.raises(NoPatternsError):
                fit_transform(train, test, config, n_threads=n_threads)
            continue
        tags, train_values, test_values, skipped = expected
        merged = fit_transform(train, test, config, n_threads=n_threads)
        assert [(c.alpha, c.omega, c.reason) for c in merged.skipped] == skipped
        assert merged.train.column_tags() == merged.test.column_tags() == tags
        for got, want in ((merged.train.values, train_values), (merged.test.values, test_values)):
            assert np.allclose(got, want, rtol=RTOL, atol=ATOL)
            # an exact self-match is exactly 0, not round-off
            assert np.all(got[want == 0.0] == 0.0)
