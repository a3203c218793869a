"""Every entry point rejects an out-of-range setting with the bound's one message."""

import math
import os

import numpy as np
import pytest

from ps2c.cli import main
from ps2c.discretizer import DiscretizedDataset, SaxParams, compute_breakpoints
from ps2c.forest import RandomForest
from ps2c.pattern_index import PatternIndex
from ps2c.pipeline import PipelineConfig, evaluate
from ps2c.quality import scale
from ps2c.sampler_trie import SamplerTrie, fit_sampler
from ps2c.shapelet_transform import FeatureMatrix


def _discretized():
    return DiscretizedDataset(SaxParams(2, 1), (np.array([0, 1], np.uint8),))


def _index():
    return PatternIndex.build(_discretized(), 2)


SAMPLER_SETTINGS = {
    "PipelineConfig": lambda tau, s_min: PipelineConfig(tau=tau, s_min=s_min),
    "SamplerTrie": lambda tau, s_min: SamplerTrie(tau, s_min, _discretized(), [], [], [], []),
    "fit_sampler": lambda tau, s_min: fit_sampler(_discretized(), _index(), ["1"], 2, s_min, tau),
    "scale": lambda tau, s_min: scale(0.5, tau),
}

# (id, a callable that raises ValueError or a ps2c argv that exits 1, the message)
CASES = [
    (f"{name}-tau={tau}", lambda call=call, tau=tau: call(tau, 0.05),
     f"tau must be finite and positive, got {tau}")
    for name, call in SAMPLER_SETTINGS.items()
    for tau in (math.nan, math.inf, 0, -1)
] + [
    (f"{name}-s_min={s_min}", lambda call=call, s_min=s_min: call(0.5, s_min),
     f"s_min must be finite and >= 0, got {s_min}")
    for name, call in SAMPLER_SETTINGS.items() if name != "scale"
    for s_min in (math.nan, math.inf, -1)
] + [
    (f"{name}-alpha={alpha}", lambda call=call, alpha=alpha: call(alpha),
     f"alpha must be in [2, 26], got {alpha}")
    for name, call in {
        "PipelineConfig": lambda alpha: PipelineConfig(alphas=(alpha,)),
        "SaxParams": lambda alpha: SaxParams(alpha, 1),
        "compute_breakpoints": compute_breakpoints,
    }.items()
    for alpha in (1, 27)
] + [
    ("PipelineConfig-omega=0", lambda: PipelineConfig(omegas=(0,)), "omega must be >= 1, got 0"),
    ("SaxParams-omega=0", lambda: SaxParams(2, 0), "omega must be >= 1, got 0"),
    ("PipelineConfig-l_max=1", lambda: PipelineConfig(l_max=1), "l_max must be >= 2, got 1"),
    ("PatternIndex.build-l_max=1", lambda: PatternIndex.build(_discretized(), 1),
     "l_max must be >= 2, got 1"),
    ("run --lmax 1", ["run", "x", "y", "--lmax", "1"], "l_max must be >= 2, got 1"),
    ("trie-dump --lmax 1", ["trie-dump", "x", "--alpha", "2", "--omega", "1", "--lmax", "1"],
     "l_max must be >= 2, got 1"),
    ("run --tau nan", ["run", "x", "y", "--tau", "nan"], "tau must be finite and positive, got nan"),
    ("run --smin -1", ["run", "x", "y", "--smin", "-1"], "s_min must be finite and >= 0, got -1.0"),
    ("run --alphas 27", ["run", "x", "y", "--alphas", "27"], "alpha must be in [2, 26], got 27"),
    ("bench --lengths 4", ["bench", "--sizes", "8", "--lengths", "4"],
     "length 4 is shorter than motif_length 16"),
    ("bench --sizes 9", ["bench", "--sizes", "9", "--lengths", "32"],
     "dataset size must be an even number >= 4, got 9"),
    ("bench --sizes 2", ["bench", "--sizes", "2", "--lengths", "32"],
     "dataset size must be an even number >= 4, got 2"),
] + [
    # three labels for a two-row matrix
    (name, lambda call=call: call(np.zeros((2, 1)), ["1", "2", "1"]),
     "labels must align with the matrix rows")
    for name, call in {
        "RandomForest.fit": RandomForest(n_trees=1).fit,
        "evaluate": lambda values, labels: evaluate(
            RandomForest(), FeatureMatrix(values, []), labels),
        "FeatureMatrix.to_csv": lambda values, labels: FeatureMatrix(values, []).to_csv(
            os.devnull, labels),
    }.items()
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_entry_points_share_each_bound_message(call, message, capsys, tmp_path, monkeypatch):
    if isinstance(call, list):
        monkeypatch.chdir(tmp_path)  # a run that got past its checks would write ./ps2c_out
        assert main(call) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ps2c_out").exists()
    else:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
