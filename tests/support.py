"""Helpers shared by the test modules: UCR fixture files, hand-built samplers,
planted motif offsets and the environment for subprocesses."""

import os
from pathlib import Path

import numpy as np

from ps2c.sampler_trie import SamplerTrie

ROOT = Path(__file__).resolve().parents[1]


def src_env():
    """The caller's environment with ``PYTHONPATH`` naming this checkout's ``src``.

    A subprocess run with it imports the ps2c under test, not an
    installed one.
    """
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def save_ucr(dataset, path, delimiter=","):
    """Write ``dataset`` as a UCR text file with six decimal places."""
    lines = [
        delimiter.join([label] + [f"{v:.6f}" for v in values])
        for values, label in zip(dataset.series, dataset.labels)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def sampler_over(index, patterns, tau=1.0, s_min=0.0):
    """A sampler storing hand-given (pattern, q) pairs of ``index``.

    Each pattern is resolved to its row by ``index.row_of`` and stored
    in (length, row) order, the order ``fit_sampler`` stores in.
    """
    pairs = patterns.items() if hasattr(patterns, "items") else patterns
    stored = sorted((len(p), index.row_of(p), q) for p, q in pairs)
    lengths, rows, qs = zip(*stored) if stored else ((), (), ())
    return SamplerTrie(tau, s_min, index, lengths, rows, qs)


def motif_offsets(spec):
    """The motif start of each series of ``generate(spec)``, in its order.

    Replays ``generate``'s draws from the same seed: per series, its
    noise, then its motif offset.
    """
    rng = np.random.default_rng(spec.seed)
    offsets = []
    for _ in range(2 * spec.n_per_class):
        rng.normal(size=spec.length)
        offsets.append(int(rng.integers(0, spec.length - spec.motif_length + 1)))
    return offsets
