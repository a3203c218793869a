from collections import Counter

import numpy as np
import pytest

from ps2c.dataset import class_codes, znormalize_dataset
from ps2c.discretizer import SaxParams, discretize
from ps2c.pattern_index import PatternIndex
from ps2c.quality import chi2_normalized_many
from ps2c.synthgen import SynthSpec, generate
from support import motif_offsets


def test_shapes_and_labels():
    ds = generate(SynthSpec(n_per_class=10, length=64, seed=0))
    assert ds.n_instances == 20
    assert Counter(ds.labels) == {"1": 10, "2": 10}
    assert set(ds.lengths) == {64}


def test_same_seed_identical():
    a = generate(SynthSpec(n_per_class=5, length=48, seed=3))
    b = generate(SynthSpec(n_per_class=5, length=48, seed=3))
    assert all(np.array_equal(x, y) for x, y in zip(a.series, b.series))
    assert a.labels == b.labels


def test_different_seed_differs():
    a = generate(SynthSpec(n_per_class=5, length=48, seed=3))
    b = generate(SynthSpec(n_per_class=5, length=48, seed=4))
    assert not all(np.array_equal(x, y) for x, y in zip(a.series, b.series))


def test_zero_noise_instances_identical_up_to_offset():
    ds = generate(SynthSpec(n_per_class=6, length=40, noise_sigma=0.0, seed=1))
    bumps = [s for s, c in zip(ds.series, ds.labels) if c == "1"]
    # with sigma=0 every class-1 series is the same bump at some offset
    motifs = set()
    for s in bumps:
        nz = np.nonzero(s)[0]
        assert nz.size > 0
        motifs.add(tuple(np.round(s[nz[0] : nz[-1] + 1], 12)))
    assert len(motifs) == 1


def test_motif_amplitude_visible():
    ds = generate(SynthSpec(n_per_class=8, length=64, seed=2))
    for s, label in zip(ds.series, ds.labels):
        if label == "1":
            assert s.max() > 2.0  # bump of amplitude 3 over sigma=0.1 noise
        else:
            assert s.min() < -2.0  # V-dip reaches -amplitude


def test_validation_errors():
    with pytest.raises(ValueError):
        SynthSpec(n_per_class=0)
    with pytest.raises(ValueError):
        SynthSpec(length=8, motif_length=16)
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(amplitude=0.0)
    with pytest.raises(ValueError):
        SynthSpec(motif_length=1)


def test_planted_motif_recoverable_as_strong_pattern():
    # some grid cell must contain a pattern with normalized chi2 >= 0.8
    for seed in range(10):
        ds = znormalize_dataset(
            generate(SynthSpec(n_per_class=15, length=96, seed=seed))
        )
        best = 0.0
        classes, class_of = class_codes(ds.labels)
        sizes = np.bincount(class_of)
        for alpha, omega in ((4, 4), (5, 6), (3, 8)):
            d = discretize(ds, SaxParams(alpha, omega))
            index = PatternIndex.build(d, 8)
            for l in index.lengths():
                counts = index.presence_counts(l, class_of, len(classes))
                best = max(best, float(chi2_normalized_many(counts, sizes).max()))
            if best >= 0.8:
                break
        assert best >= 0.8, f"seed {seed}: best normalized chi2 {best}"


def test_motif_offsets_replays_generate():
    # without noise each series is its class's motif at its offset, zero elsewhere
    spec = SynthSpec(n_per_class=5, length=40, noise_sigma=0.0, seed=7)
    m = spec.motif_length
    motifs = {"1": np.full(m, spec.amplitude),
              "2": spec.amplitude * (np.abs(np.linspace(-1.0, 1.0, m)) - 1.0)}
    data = generate(spec)
    offsets = motif_offsets(spec)
    assert len(offsets) == data.n_instances
    for x, label, start in zip(data.series, data.labels, offsets):
        expected = np.zeros(spec.length)
        expected[start : start + m] = motifs[label]
        assert np.array_equal(x, expected)
