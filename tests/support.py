"""Helpers shared by the test modules: UCR fixture files, a substring oracle,
hand-built samplers, planted motif offsets and the environment for
subprocesses."""

import os
from pathlib import Path

import numpy as np

from ps2c.discretizer import sax_text
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


def naive_scan(strings, l_max):
    """Oracle: exhaustive substring enumeration, O(N*m^2).

    Maps each substring of length 2..l_max to the set of strings that
    hold it and to its earliest (string, offset).
    """
    out = {}
    for i, s in enumerate(strings):
        for l in range(2, l_max + 1):
            for off in range(len(s) - l + 1):
                pat = s[off : off + l]
                entry = out.setdefault(pat, {"instances": set(), "first": (i, off)})
                entry["instances"].add(i)
                entry["first"] = min(entry["first"], (i, off))
    return out


def sampler_over(discretized, patterns, tau=1.0, s_min=0.0):
    """A sampler storing hand-given (pattern, q) pairs over ``discretized``.

    Each pattern's earliest (instance, offset) is found by substring
    search in the split's texts, and the patterns are stored in
    (length, text) order, the order ``fit_sampler`` stores in.
    """
    texts = [sax_text(codes) for codes in discretized.codes]
    pairs = patterns.items() if hasattr(patterns, "items") else patterns
    stored = []
    for pattern, q in sorted(pairs, key=lambda pair: (len(pair[0]), pair[0])):
        instance = next(i for i, text in enumerate(texts) if pattern in text)
        stored.append((len(pattern), instance, texts[instance].index(pattern), q))
    columns = zip(*stored) if stored else ((),) * 4
    return SamplerTrie(tau, s_min, discretized, *columns)


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
