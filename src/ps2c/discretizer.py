"""PAA dimensionality reduction and SAX symbolisation.

A series of length n is averaged over non-overlapping windows of size
omega into p = round(n / omega) values (round half away from zero,
trailing remainder folded into the last window), then each value is
binned by equal-probability N(0,1) breakpoints into one of alpha
symbols rendered as lowercase letters.
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
        if not 2 <= self.alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must be in [2, {MAX_ALPHA}], got {self.alpha}")
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")


@lru_cache(maxsize=None)
def _breakpoints(alpha: int) -> np.ndarray:
    dist = NormalDist()
    betas = np.array([dist.inv_cdf(j / alpha) for j in range(1, alpha)])
    betas.flags.writeable = False
    return betas


def compute_breakpoints(alpha: int) -> np.ndarray:
    """Thresholds splitting the N(0,1) density into ``alpha`` equal-mass bins.

    Returns the alpha-1 finite breakpoints in ascending order; the
    implicit outer breakpoints are -inf and +inf. Cached per alpha.
    """
    if not 2 <= alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must be in [2, {MAX_ALPHA}], got {alpha}")
    return _breakpoints(alpha)


def paa_length(n: int, omega: int) -> int:
    """round(n / omega), half away from zero, in exact integer arithmetic."""
    return (2 * n + omega) // (2 * omega)


def paa(series, omega: int) -> np.ndarray:
    """Average non-overlapping windows of ``omega`` observations.

    The output has p = round(n / omega) values. The final window covers
    everything from (p-1)*omega to the end of the series, so it may be
    shorter or longer than omega; no observation is dropped.
    """
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")
    values = np.asarray(series, dtype=np.float64)
    n = values.size
    if n < omega:
        raise ValueError(f"series length {n} is shorter than omega {omega}")
    p = paa_length(n, omega)
    if p * omega == n:
        return values.reshape(p, omega).mean(axis=1)
    out = np.empty(p)
    if p > 1:
        out[: p - 1] = values[: (p - 1) * omega].reshape(p - 1, omega).mean(axis=1)
    out[p - 1] = values[(p - 1) * omega :].mean()
    return out


def _symbolize(paa_values: np.ndarray, alpha: int) -> np.ndarray:
    # symbol j iff beta_{j-1} <= v < beta_j (right-half-open)
    betas = _breakpoints(alpha)
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
        self._strings: tuple[str, ...] | None = None

    @property
    def n_instances(self) -> int:
        return len(self.codes)

    @property
    def strings(self) -> tuple[str, ...]:
        if self._strings is None:
            self._strings = tuple(sax_text(c) for c in self.codes)
        return self._strings

    def __len__(self) -> int:
        return len(self.codes)


def discretize(dataset: LabeledDataset, params: SaxParams) -> DiscretizedDataset:
    """SAX-discretize every instance of ``dataset`` at one resolution.

    The dataset is expected to be z-normalised already (the breakpoints
    assume standardized data).
    """
    return DiscretizedDataset(
        params, tuple(sax(s, params) for s in dataset.series)
    )


def dump_text(discretized: DiscretizedDataset, labels) -> str:
    """Debug dump: one "label<TAB>string" line per instance."""
    return "\n".join(
        f"{label}\t{string}" for label, string in zip(labels, discretized.strings)
    )
