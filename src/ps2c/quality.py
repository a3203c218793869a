"""Pattern quality scoring.

Pearson chi-square over the pattern-presence-by-class contingency
table, normalised by the instance count into (0, 1], then biased
toward strong patterns by temperature scaling q**(1/tau).
``chi2_normalized_many`` scores every pattern of a length at once, one
class column at a time. A score depends only on the per-class counts,
so ``chi2_table`` scores every possible count vector of a training
split once, and a pattern's score is one lookup by its count code.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["check_settings", "scale", "chi2_normalized_many", "chi2_table"]


def check_settings(tau: float, s_min: float = 0.0) -> None:
    """Raise unless tau is finite and positive and s_min is finite and >= 0."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if not 0 <= s_min < math.inf:
        raise ValueError(f"s_min must be finite and >= 0, got {s_min}")


def scale(q: float, tau: float) -> float:
    """Temperature scaling q**(1/tau); identity at tau=1, argmax-like as tau->0.

    In float64 the result underflows to 0.0 once q falls below about
    5e-324**tau (the smallest subnormal double), e.g. scale(1e-4, 0.01),
    and close values of q can round to the same result, e.g. 0.5 and
    the next double above it at tau=2. Order is never reversed: q1 < q2
    implies scale(q1, tau) <= scale(q2, tau).
    """
    check_settings(tau)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quality must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    return q ** (1.0 / tau)


def chi2_normalized_many(present: np.ndarray, class_sizes: np.ndarray) -> np.ndarray:
    """Normalised Pearson chi-square for many patterns at once.

    Each pattern's |C|x2 table holds, per class, the instances that
    contain it and those that lack it. The cell terms are added to one
    (P,) accumulator class by class, present before absent. Patterns
    present in every instance or in none score 0.

    Up to 3 classes this adds the terms in the same order as numpy's sum
    over a stacked (P, C, 2) array, so scores are the same bits. From 4
    classes numpy's pairwise sum groups the terms differently, and the
    two may differ in the last bits.

    Parameters
    ----------
    present : (P, C) int array
        Per-pattern, per-class counts of instances containing the pattern.
    class_sizes : (C,) int array
        Instances per class; sums to N > 0.

    Returns
    -------
    (P,) float array of normalised statistics, clamped into [0, 1].
    """
    # one contiguous float column per class
    present = np.asarray(present, dtype=np.float64, order="F")
    sizes = np.asarray(class_sizes, dtype=np.float64)
    n = sizes.sum()
    if n <= 0:
        raise ValueError("class sizes must sum to a positive instance count")
    # whole-number counts add exactly in any order; a column at a time is
    # much faster than a sum over each short row
    total_present = np.zeros(present.shape[0])
    for observed in present.T:
        total_present += observed
    total_absent = n - total_present
    stat = np.zeros(present.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for size, observed in zip(sizes, present.T):
            for obs, total in ((observed, total_present), (size - observed, total_absent)):
                expected = size * total
                expected /= n
                term = obs - expected
                term *= term
                term /= expected
                stat += term
    stat /= n
    stat[(total_present == 0) | (total_absent == 0)] = 0.0
    # every term is non-negative, so only the upper clamp can act
    return np.minimum(stat, 1.0, out=stat)


@functools.lru_cache(maxsize=8)
def chi2_table(class_sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Strides and scores of every per-class count vector, both read-only.

    The counts (a_0, ..., a_{C-1}), 0 <= a_c <= class_sizes[c], have the
    code sum(a_c * strides[c]) in mixed-radix order, last class fastest,
    and ``table[code]`` is their ``chi2_normalized_many`` score. Rows
    are scored independently, so an entry has the bits of scoring its
    counts alone. The table holds prod(n_c + 1) entries; it is memoised
    per class-size tuple, so a training split builds it once.
    """
    shape = tuple(n + 1 for n in class_sizes)
    counts = np.indices(shape).reshape(len(shape), -1).T
    table = chi2_normalized_many(counts, np.array(class_sizes))
    # the code of the unit count vector of each class
    strides = np.cumprod((1,) + shape[:0:-1])[::-1].astype(np.int64)
    table.setflags(write=False)
    strides.setflags(write=False)
    return strides, table
