"""Every entry point rejects an out-of-range setting with the bound's one message."""

import math

import numpy as np
import pytest

from ps2c.cli import main
from ps2c.discretizer import DiscretizedDataset, SaxParams, compute_breakpoints
from ps2c.pattern_index import PatternIndex
from ps2c.pipeline import PipelineConfig
from ps2c.quality import scale
from ps2c.sampler_trie import SamplerTrie


def _index():
    return PatternIndex.build(DiscretizedDataset(SaxParams(2, 1), (np.array([0, 1], np.uint8),)), 2)


SAMPLER_SETTINGS = {
    "PipelineConfig": lambda tau, s_min: PipelineConfig(tau=tau, s_min=s_min),
    "SamplerTrie": lambda tau, s_min: SamplerTrie(tau, s_min, _index(), [], [], []),
    "from_patterns": lambda tau, s_min: SamplerTrie.from_patterns(_index(), {}, tau, s_min),
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
    ("run --tau nan", ["run", "x", "y", "--tau", "nan"], "tau must be finite and positive, got nan"),
    ("run --smin -1", ["run", "x", "y", "--smin", "-1"], "s_min must be finite and >= 0, got -1.0"),
    ("run --alphas 27", ["run", "x", "y", "--alphas", "27"], "alpha must be in [2, 26], got 27"),
    ("bench --lengths 4", ["bench", "--sizes", "8", "--lengths", "4"],
     "length 4 is shorter than motif_length 16"),
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
