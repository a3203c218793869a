"""PAA dimensionality reduction and SAX symbolisation.

A series of length n is averaged over non-overlapping windows of size
omega into p = round(n / omega) values (round half away from zero,
trailing remainder folded into the last window), then each value is
binned by equal-probability N(0,1) breakpoints into one of alpha
symbols rendered as lowercase letters.

PAA has one implementation, one reshaped view per series; ``paa`` is
its one-series case. ``discretize`` memoises a split's PAA values per
omega on the dataset, so the alphabets of one omega share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .dataset import LabeledDataset

__all__ = [
    "SaxParams",
    "DiscretizedDataset",
    "compute_breakpoints",
    "paa",
    "paa_length",
    "sax",
    "sax_text",
    "discretize",
    "dump_text",
]

MAX_ALPHA = 26  # symbols are lowercase letters
_ORD_A = ord("a")


@dataclass(frozen=True)
class SaxParams:
    """Alphabet size and averaging window size for one resolution."""

    alpha: int
    omega: int

    def __post_init__(self):
        compute_breakpoints(self.alpha)  # raises on an alpha out of range
        _check_omega(self.omega)


def _check_omega(omega: int) -> None:
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")


@lru_cache(maxsize=None)
def compute_breakpoints(alpha: int) -> np.ndarray:
    """Thresholds splitting the N(0,1) density into ``alpha`` equal-mass bins.

    Returns the alpha-1 finite breakpoints in ascending order, read-only;
    the implicit outer breakpoints are -inf and +inf. Cached per alpha;
    an alpha outside [2, MAX_ALPHA] raises and is not cached.
    """
    if not 2 <= alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must be in [2, {MAX_ALPHA}], got {alpha}")
    dist = NormalDist()
    betas = np.array([dist.inv_cdf(j / alpha) for j in range(1, alpha)])
    betas.flags.writeable = False
    return betas


def paa_length(n, omega: int):
    """round(n / omega), half away from zero, in exact integer arithmetic; n may be an array."""
    return (2 * n + omega) // (2 * omega)


def paa(series, omega: int) -> np.ndarray:
    """Average non-overlapping windows of ``omega`` observations.

    The output has p = round(n / omega) values. The final window covers
    everything from (p-1)*omega to the end of the series, so it may be
    shorter or longer than omega; no observation is dropped. This is
    the one-series case of the PAA behind :func:`discretize`.
    """
    return _paa_many([np.asarray(series, dtype=np.float64)], omega)[0]


def _paa_many(series_list, omega: int) -> tuple[np.ndarray, np.ndarray]:
    """PAA of every series, concatenated, with each series' value count.

    A series' windows of exactly omega observations are averaged as one
    reshaped (windows, omega) view, written straight into the output by
    a row ``mean``. A final window of any other size takes its own 1-D
    ``mean``, so every value keeps its pairwise-sum bits.
    """
    _check_omega(omega)
    lengths = np.array([x.size for x in series_list], dtype=np.int64)
    too_short = np.flatnonzero(lengths < omega)
    if too_short.size:
        raise ValueError(
            f"series length {lengths[too_short[0]]} is shorter than omega {omega}"
        )
    sizes = paa_length(lengths, omega)
    out = np.empty(int(sizes.sum()))
    start = 0
    for x, p in zip(series_list, sizes.tolist()):
        full = p if p * omega == x.size else p - 1  # windows of exactly omega observations
        x[: full * omega].reshape(full, omega).mean(axis=1, out=out[start : start + full])
        if full < p:
            out[start + full] = x[full * omega :].mean()
        start += p
    return out, sizes


def _symbolize(paa_values: np.ndarray, alpha: int) -> np.ndarray:
    # symbol j iff beta_{j-1} <= v < beta_j (right-half-open)
    betas = compute_breakpoints(alpha)
    return np.searchsorted(betas, paa_values, side="right").astype(np.uint8)


def sax(series, params: SaxParams) -> np.ndarray:
    """Map a z-normalised series to symbol indices 0..alpha-1 (uint8)."""
    return _symbolize(paa(series, params.omega), params.alpha)


def sax_text(codes: np.ndarray) -> str:
    """Render symbol indices as a lowercase-letter string."""
    return (np.asarray(codes, dtype=np.uint8) + _ORD_A).tobytes().decode("ascii")


class DiscretizedDataset:
    """Per-(alpha, omega) symbol strings, index-aligned with the source dataset."""

    def __init__(self, params: SaxParams, codes: tuple[np.ndarray, ...]):
        self.params = params
        self.codes = tuple(codes)

    @property
    def n_instances(self) -> int:
        return len(self.codes)


def discretize(dataset: LabeledDataset, params: SaxParams) -> DiscretizedDataset:
    """SAX-discretize every instance of ``dataset`` at one resolution.

    The dataset is expected to be z-normalised already (the breakpoints
    assume standardized data). The PAA values of one omega are computed
    once per dataset and shared by every alpha; each call symbolises
    them with one ``searchsorted``.
    """
    omega = params.omega
    values, sizes = dataset.shared(("paa", omega), lambda: _shared_paa(dataset.series, omega))
    codes = _symbolize(values, params.alpha)
    ends = np.cumsum(sizes).tolist()
    return DiscretizedDataset(params, tuple(codes[s:e] for s, e in zip([0, *ends], ends)))


def _shared_paa(series_list, omega: int) -> tuple[np.ndarray, np.ndarray]:
    values, sizes = _paa_many(series_list, omega)
    values.flags.writeable = False
    sizes.flags.writeable = False
    return values, sizes


def dump_text(discretized: DiscretizedDataset, labels) -> str:
    """Debug dump: one "label<TAB>string" line per instance."""
    return "\n".join(
        f"{label}\t{sax_text(codes)}" for label, codes in zip(labels, discretized.codes)
    )
