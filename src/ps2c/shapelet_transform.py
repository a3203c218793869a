"""Reverse lookup of sampled patterns and min-distance feature matrices.

The sampler draws k distinct patterns per cell by Gumbel-top-k over
its flat log-weight store, and only those k are decoded to text. Each
sampled symbolic pattern is grounded in its earliest occurrence in the
training data, yielding a real-valued shapelet; each instance is then
described by its minimal sliding distance to every shapelet. The
distance is the squared Euclidean distance of the best alignment
divided by the shapelet length, so features stay comparable across
resolutions with different shapelet lengths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import LabeledDataset
from .discretizer import DiscretizedDataset
from .pattern_index import PatternIndex
from .sampler_trie import SamplerTrie

__all__ = ["Shapelet", "FeatureMatrix", "reverse_lookup", "min_distance", "create_feature_sets"]

logger = logging.getLogger(__name__)


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

    def to_csv(self, path, labels=None) -> None:
        """Write the matrix as CSV with a provenance header row.

        When ``labels`` is given it becomes the first column, making the
        file directly consumable by external classifiers.
        """
        header = self.column_tags()
        rows = []
        if labels is not None:
            if len(labels) != self.values.shape[0]:
                raise ValueError("labels must align with the matrix rows")
            header = ["label"] + header
            for label, row in zip(labels, self.values):
                rows.append(",".join([str(label)] + [repr(float(v)) for v in row]))
        else:
            for row in self.values:
                rows.append(",".join(repr(float(v)) for v in row))
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write("\n".join(rows) + "\n")


def reverse_lookup(
    pattern: str,
    real_train: LabeledDataset,
    discretized: DiscretizedDataset,
    index: PatternIndex,
) -> Shapelet:
    """Recover the real-valued subsequence behind a symbolic pattern.

    Uses the earliest occurrence in dataset order. The subsequence spans
    [offset*omega, (offset+len)*omega) in the source instance, truncated
    to the instance's end when the final symbol covered a short tail
    segment.
    """
    instance, offset = index.first_occurrence(pattern)
    omega = discretized.params.omega
    series = real_train.series[instance]
    start = offset * omega
    stop = min((offset + len(pattern)) * omega, series.size)
    return Shapelet(
        series[start:stop].copy(),
        alpha=discretized.params.alpha,
        omega=omega,
        pattern=pattern,
        source_index=instance,
        symbol_offset=offset,
    )


def min_distance(series, shapelet) -> float:
    """Minimal length-normalised squared Euclidean sliding distance.

    Minimum over all alignments of mean((window - shapelet)**2). A
    shapelet longer than the series (possible only with variable-length
    datasets) is compared on the single alignment of the series against
    the shapelet's head, and the degenerate case is logged.
    """
    values = shapelet.values if isinstance(shapelet, Shapelet) else np.asarray(shapelet, dtype=np.float64)
    x = np.asarray(series, dtype=np.float64)
    n, s = x.size, values.size
    if s > n:
        logger.warning(
            "shapelet length %d exceeds series length %d; using single head alignment", s, n
        )
        delta = x - values[:n]
        return float((delta * delta).mean())
    windows = sliding_window_view(x, s)
    delta = windows - values
    return float((delta * delta).mean(axis=1).min())


def _distance_matrix(series_list, shapelets) -> np.ndarray:
    out = np.empty((len(series_list), len(shapelets)), dtype=np.float64)
    lengths = {s.size for s in series_list}
    if len(lengths) == 1:
        n = lengths.pop()
        stacked = np.stack(series_list)
        # Prefix sums of squares give every window's energy in O(1);
        # together with FFT sliding dot products the alignment search
        # costs O(N n log n) per shapelet instead of O(N n s). With a
        # transform length L >= n the circular correlation never wraps
        # on the valid offsets 0..n-s, so one rfft of the series serves
        # every shapelet.
        csum = np.zeros((stacked.shape[0], n + 1))
        np.cumsum(stacked * stacked, axis=1, out=csum[:, 1:])
        fft_len = 1 << (n - 1).bit_length()
        spectra = np.fft.rfft(stacked, fft_len, axis=1)
        for j, shapelet in enumerate(shapelets):
            values = shapelet.values
            s = values.size
            if s > n:
                logger.warning(
                    "shapelet length %d exceeds series length %d; using single head alignment",
                    s,
                    n,
                )
                delta = stacked - values[:n]
                out[:, j] = (delta * delta).mean(axis=1)
            else:
                kernel = np.conj(np.fft.rfft(values, fft_len))
                dots = np.fft.irfft(spectra * kernel, fft_len, axis=1)[:, : n - s + 1]
                win_sq = csum[:, s:] - csum[:, :-s]
                scores = win_sq - 2.0 * dots + float(values @ values)
                # FFT round-off can perturb near-ties, so the winning
                # alignment is re-evaluated with the direct formula; exact
                # self-matches then come out as exactly 0.
                best = scores.argmin(axis=1)
                offsets = best[:, None] + np.arange(s)[None, :]
                delta = np.take_along_axis(stacked, offsets, axis=1) - values
                out[:, j] = (delta * delta).sum(axis=1) / s
    else:
        for i, series in enumerate(series_list):
            for j, shapelet in enumerate(shapelets):
                out[i, j] = min_distance(series, shapelet)
    return out


def create_feature_sets(
    real_train: LabeledDataset,
    real_test: LabeledDataset,
    discretized_train: DiscretizedDataset,
    index: PatternIndex,
    trie: SamplerTrie,
    k: int,
    rng: np.random.Generator,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Sample patterns and build train/test min-distance matrices.

    Draws min(k, pattern count) distinct patterns with one Gumbel-top-k
    pass on ``rng``. Column order is descending Gumbel key, which is the
    order of drawing without replacement. Test labels are never read
    here: the transform sees only series values.
    """
    chosen = trie.sample_distinct(k, rng)
    shapelets = [
        reverse_lookup(p, real_train, discretized_train, index) for p in chosen
    ]
    train = FeatureMatrix(_distance_matrix(real_train.series, shapelets), shapelets)
    test = FeatureMatrix(_distance_matrix(real_test.series, shapelets), list(shapelets))
    return train, test
