"""Grounding of sampled patterns and min-distance feature matrices.

The sampler draws k distinct patterns per cell by Gumbel-top-k over
its flat log-weight store. ``ground_shapelets`` is the one grounding
path: each drawn pattern is grounded at the (length, first instance,
first offset) the sampler stores for it, its earliest occurrence in the
training data, yielding a real-valued shapelet; no pattern index is
consulted and no occurrence is looked up by text.
``feature_columns`` then describes each instance of a split by its
minimal sliding distance to every shapelet. The distance is the squared
Euclidean distance of the best alignment divided by the shapelet length,
so features stay comparable across resolutions with different shapelet
lengths. ``create_feature_sets`` is the two steps for one cell.

One kernel computes every distance, for any mix of series lengths: the
series are zero-padded to the longest and searched with FFT sliding dot
products, window energies are +inf past each series' end, and the best
alignment is re-evaluated exactly with its near-ties. A shapelet longer
than a series falls back to the single head alignment inside the same
call. The series side of the kernel (padded rows, prefix sums of
squares, rfft spectra) is built once per split and shared by that
split's calls, so each call transforms only the shapelets it is given:
one grid cell's. An equal-length split keeps one prefix-sum array,
since no window runs into padding. The pipeline grounds every cell
first and then transforms one split at a time: the split's rows are
freed before the next split's are built, and the cells' calls on one
split share the kernel's two N x transform-length work buffers, so the
buffers stay mapped between calls instead of being faulted in again by
each one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import LabeledDataset, check_aligned
from .sampler_trie import SamplerTrie

__all__ = [
    "Shapelet",
    "FeatureMatrix",
    "ground_shapelets",
    "feature_columns",
    "create_feature_sets",
]

_EPS = np.finfo(np.float64).eps
# Most next-best FFT scores within round-off of the best per row that
# the exact recheck in _distance_matrix re-evaluates.
_NEAR_TIES = 8


@dataclass(frozen=True)
class Shapelet:
    """A real-valued subsequence recovered from a symbolic pattern."""

    values: np.ndarray
    alpha: int
    omega: int
    pattern: str
    source_index: int
    symbol_offset: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def tag(self) -> str:
        return f"a{self.alpha}_w{self.omega}_{self.pattern}"


@dataclass
class FeatureMatrix:
    """N x k matrix of min-distances with per-column shapelet provenance."""

    values: np.ndarray
    shapelets: list[Shapelet]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def column_tags(self) -> list[str]:
        return [s.tag for s in self.shapelets]

    def to_csv(self, path, labels) -> None:
        """Write the matrix as CSV with a provenance header row.

        The labels make the first column, so the file is directly
        consumable by external classifiers.
        """
        check_aligned(labels, self.values.shape[0])
        header = ["label"] + self.column_tags()
        rows = [
            ",".join([str(label)] + [repr(float(v)) for v in row])
            for label, row in zip(labels, self.values)
        ]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write("\n".join(rows) + "\n")


class _PaddedRows(NamedTuple):
    """The series side of the distance kernel, shared by every shapelet.

    ``stacked`` holds the series zero-padded to n_max, ``csum`` the
    prefix sums of their squares, ``reach`` the same set to +inf past
    each row's end (so window energies that run into the padding are
    +inf), ``spectra`` their rfft at the power-of-two length ``fft_len``
    >= n_max. When every row has length n_max no window runs into the
    padding, and ``reach`` is ``csum`` itself. All arrays are read-only.
    """

    lengths: np.ndarray
    stacked: np.ndarray
    csum: np.ndarray
    reach: np.ndarray
    spectra: np.ndarray
    fft_len: int

    @classmethod
    def of(cls, series_list) -> "_PaddedRows":
        lengths = np.array([x.size for x in series_list])
        n_max = int(lengths.max())
        stacked = np.zeros((lengths.size, n_max))
        for i, x in enumerate(series_list):
            stacked[i, : x.size] = x
        csum = np.zeros((lengths.size, n_max + 1))
        np.cumsum(stacked * stacked, axis=1, out=csum[:, 1:])
        if lengths.min() == n_max:
            reach = csum  # the mask below would be all False
        else:
            reach = np.where(np.arange(n_max + 1) > lengths[:, None], np.inf, csum)
        fft_len = 1 << (n_max - 1).bit_length()
        spectra = np.fft.rfft(stacked, fft_len, axis=1)
        for array in (lengths, stacked, csum, reach, spectra):
            array.flags.writeable = False
        return cls(lengths, stacked, csum, reach, spectra, fft_len)


def _scratch(padded: _PaddedRows) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's work buffers for one split: spectrum products and correlations."""
    return np.empty_like(padded.spectra), np.empty((padded.lengths.size, padded.fft_len))


def _distance_matrix(padded: _PaddedRows, shapelets, scratch=None) -> np.ndarray:
    """N x k matrix of min-distances over series of any mix of lengths.

    Entry (i, j) is the minimum of mean((window - shapelet j)**2) over
    the alignments in series i. The series are zero-padded into one
    N x n_max array (``padded``, built once per split and shared by
    that split's calls). Prefix sums of squares give every window's energy
    in O(1), and FFT sliding dot products make the alignment search
    O(N n log n) per shapelet instead of O(N n s). With a transform
    length L >= n_max the circular correlation never wraps on the
    offsets 0..n_max-s, so one rfft of the padded rows serves every
    shapelet. In row i only the offsets 0..n_i-s are real alignments;
    the rest run into the padding, where ``reach`` makes their window
    energy +inf. A row shorter than the shapelet takes the single
    alignment of the series against the shapelet's head.

    The best FFT score of each row is re-evaluated with the direct
    formula, together with the next-best ``_NEAR_TIES`` FFT scores that
    lie within round-off of it, and the smallest direct value is kept;
    exact self-matches then come out as 0. When more offsets than that
    tie (a constant row ties on every offset), the result is within
    round-off of the minimum.

    ``scratch`` is ``_scratch(padded)``, passed in to reuse it across
    calls on one split; a fresh one is made when it is None.
    """
    lengths, stacked, csum, reach, spectra, fft_len = padded
    n_max = stacked.shape[1]
    # Buffers shared by every shapelet: the loop below allocates no
    # N x fft_len array of its own.
    product, correlation = _scratch(padded) if scratch is None else scratch
    shapelet_values = [shapelet.values for shapelet in shapelets]
    # twice each shapelet, so irfft gives 2 * dot (scaling by 2 is exact)
    doubled = np.zeros((len(shapelet_values), fft_len))
    for j, values in enumerate(shapelet_values):
        if values.size <= n_max:
            doubled[j, : values.size] = 2.0 * values
    kernels = np.conj(np.fft.rfft(doubled, axis=1))
    out = np.empty((lengths.size, len(shapelets)), dtype=np.float64)
    for j, values in enumerate(shapelet_values):
        s = values.size
        short = lengths < s
        if s <= n_max:
            width = n_max - s + 1
            np.multiply(spectra, kernels[j], out=product)
            # scores = window energy - 2 * dot + shapelet energy, in place
            scores = np.fft.irfft(product, fft_len, axis=1, out=correlation)[:, :width]
            np.subtract(reach[:, s:] - csum[:, :width], scores, out=scores)
            energy = float(values @ values)
            scores += energy
            # FFT and prefix-sum round-off stays below a few ulps of the
            # row's and the shapelet's energy per transform point, and can
            # reorder near-ties: the offsets within that bound of the best
            # score go to the direct recheck, at most _NEAR_TIES per row.
            rows, starts = np.arange(lengths.size), scores.argmin(axis=1)
            cutoff = scores[rows, starts] + 4 * fft_len * _EPS * (csum[:, -1] + energy)
            cutoff[short] = -np.inf  # no alignment fits: head alignment below
            scores[rows, starts] = np.inf
            tied = np.flatnonzero(scores.min(axis=1) <= cutoff)
            if tied.size:  # most calls have no near-tie
                # capped at width so kth >= 0; the best's slot holds +inf and fails the cutoff
                count = min(_NEAR_TIES, width)
                tied_scores = scores[tied]
                nearest = np.argpartition(tied_scores, count - 1, axis=1)[:, :count]
                near = np.take_along_axis(tied_scores, nearest, axis=1) <= cutoff[tied, None]
                tie_rows, tie_slots = np.nonzero(near)
                rows = np.concatenate([rows, tied[tie_rows]])
                starts = np.concatenate([starts, nearest[tie_rows, tie_slots]])
            windows = (rows * n_max + starts)[:, None] + np.arange(s)
            delta = np.take(stacked, windows) - values
            column = np.full(lengths.size, np.inf)
            np.minimum.at(column, rows, (delta * delta).sum(axis=1) / s)
            out[:, j] = column
        if short.any():
            head = min(s, n_max)
            delta = stacked[short, :head] - values[:head]
            sq = delta * delta
            sq[np.arange(head) >= lengths[short, None]] = 0.0
            out[short, j] = sq.sum(axis=1) / lengths[short]
    return out


def ground_shapelets(
    real_train: LabeledDataset, trie: SamplerTrie, k: int, rng: np.random.Generator
) -> list[Shapelet]:
    """Draw min(k, pattern count) distinct patterns and ground each one.

    One Gumbel-top-k pass on ``rng`` draws the patterns, and each is
    grounded at the first instance and first offset the sampler stores
    for it: the shapelet is the pattern's earliest occurrence in dataset
    order, values [offset*omega, (offset+length)*omega) of that instance
    of ``real_train``, cut at the instance's end when the last symbol
    covered a short tail segment. Alpha, omega and the pattern text come
    from the sampler's discretized split. The order is descending Gumbel
    key, which is the order of drawing without replacement. The
    shapelets hold no reference to ``trie``.
    """
    alpha, omega = trie.discretized.params.alpha, trie.discretized.params.omega
    shapelets = []
    for i in trie.sample_positions(k, rng):
        length = int(trie.lengths[i])
        instance, offset = int(trie.instances[i]), int(trie.offsets[i])
        series = real_train.series[instance]
        stop = min((offset + length) * omega, series.size)
        shapelets.append(
            Shapelet(
                series[offset * omega : stop].copy(),
                alpha=alpha,
                omega=omega,
                pattern=trie.text(i),
                source_index=instance,
                symbol_offset=offset,
            )
        )
    return shapelets


def feature_columns(
    dataset: LabeledDataset, shapelet_sets: Iterable
) -> Iterator[FeatureMatrix]:
    """Yield one min-distance matrix per set of shapelets, over one split.

    The split's padded rows are built once per call and freed with the
    generator. Each set takes one kernel call against them, and the
    calls share one set of work buffers. Labels are never read: the
    transform sees only series values.
    """
    yield from _feature_blocks(_PaddedRows.of(dataset.series), shapelet_sets)


def _feature_blocks(padded: _PaddedRows, shapelet_sets) -> Iterator[FeatureMatrix]:
    """``feature_columns`` over rows built by the caller, who may share them."""
    scratch = _scratch(padded)
    for shapelets in shapelet_sets:
        shapelets = list(shapelets)
        yield FeatureMatrix(_distance_matrix(padded, shapelets, scratch), shapelets)


def create_feature_sets(
    real_train: LabeledDataset,
    real_test: LabeledDataset,
    discretized_train,
    index,
    trie: SamplerTrie,
    k: int,
    rng: np.random.Generator,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Sample patterns and build train/test min-distance matrices.

    ``ground_shapelets`` followed by ``feature_columns`` on each split:
    the columns are the drawn shapelets in drawing order. Test labels are
    never read. ``discretized_train`` and ``index`` are not read either,
    since the sampler carries its occurrences and its discretized split;
    they stay for callers that pass every argument by position.
    ``fit_transform`` runs the two steps in separate passes over the
    grid, with the same results.
    """
    shapelets = ground_shapelets(real_train, trie, k, rng)
    (train,) = feature_columns(real_train, [shapelets])
    (test,) = feature_columns(real_test, [shapelets])
    return train, test
