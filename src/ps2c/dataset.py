"""Labeled time series datasets in the UCR text format.

Loading UCR text files, z-normalisation, and seeded shuffled
resampling of train/test splits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "LabeledDataset",
    "UcrFormatError",
    "check_aligned",
    "class_codes",
    "load_ucr",
    "znormalize",
    "znormalize_dataset",
    "resample_split",
]

# Series with population std below this are treated as constant.
DEGENERATE_SIGMA = 1e-8


class UcrFormatError(ValueError):
    """A UCR text file could not be parsed."""


def _as_series(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("a time series must be one-dimensional")
    if arr.size < 2:
        raise ValueError("a time series needs at least 2 observations")
    if not np.all(np.isfinite(arr)):
        raise ValueError("time series values must be finite")
    arr.flags.writeable = False
    return arr


def class_codes(labels) -> tuple[tuple[str, ...], np.ndarray]:
    """The classes, as sorted distinct label strings, and each label's (N,) int64 class id."""
    labels = [str(c) for c in labels]
    classes = tuple(sorted(set(labels)))
    ids = {c: i for i, c in enumerate(classes)}
    return classes, np.array([ids[c] for c in labels], dtype=np.int64)


def check_aligned(labels, n_rows: int) -> None:
    """Raise unless there is one label per matrix row."""
    if len(labels) != n_rows:
        raise ValueError("labels must align with the matrix rows")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable collection of labeled time series.

    Instances may have different lengths; each series is consumed at its
    own length downstream. Safe for concurrent read access.

    Arrays that every grid cell derives from the same split (PAA values
    per omega) are memoised on the dataset by :meth:`shared`, so they
    live as long as the split does, or until ``fit_transform`` clears
    them after its first pass. The distance kernel's padded rows are
    not memoised: ``fit_transform`` builds one split's at a time. A
    dataset that carries a memo is an object, not a value, so datasets
    compare and hash by identity. The memo takes no part in ``repr``,
    and every dataset, including those made by ``znormalize_dataset``
    and ``resample_split``, starts with an empty one.
    """

    series: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(_as_series(s) for s in self.series))
        object.__setattr__(self, "labels", tuple(str(c) for c in self.labels))
        if len(self.series) != len(self.labels):
            raise ValueError("series and labels must be index-aligned")
        if not self.series:
            raise ValueError("dataset is empty")

    @property
    def n_instances(self) -> int:
        return len(self.series)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.series)

    @property
    def min_length(self) -> int:
        return min(self.lengths)

    def shared(self, key, build):
        """The memoised value of ``build()`` under ``key``.

        Values hold read-only arrays derived from the series alone. Two
        threads asking for a missing key at once may both call
        ``build``; the results are identical and the first one stored is
        returned to both.
        """
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())


def load_ucr(path) -> LabeledDataset:
    """Load a dataset from a UCR text file.

    One instance per line: class label first, then the observations.
    Fields are separated by commas if the first line has one, else by
    any whitespace (the classic UCR ``.txt`` and UCR-2018 ``.tsv``
    layouts). Line lengths may differ; trailing ``NaN``, which pads
    shorter series in the UCR-2018 archive, is dropped, and so are
    empty fields after a line's last comma-separated value.

    Raises
    ------
    UcrFormatError
        Empty file, a line with fewer than two values, an empty field
        before a line's last value, a non-numeric token, a non-finite
        value other than trailing NaN, or fewer than two
        instances/classes.
    OSError
        The file cannot be read.
    """
    path = Path(path)
    text = path.read_text()
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise UcrFormatError(f"{path}: empty file")
    delimiter = "," if "," in lines[0][1] else None  # None: any whitespace
    series: list[np.ndarray] = []
    labels: list[str] = []
    for lineno, line in lines:
        fields = [f.strip() for f in line.strip().split(delimiter)]
        while fields and not fields[-1]:
            fields.pop()
        if "" in fields:
            raise UcrFormatError(f"{path}:{lineno}: empty field {fields.index('') + 1}")
        numbers = []
        for tok in fields[1:]:
            try:
                numbers.append(float(tok))
            except ValueError:
                raise UcrFormatError(f"{path}:{lineno}: non-numeric token {tok!r}") from None
        values = np.array(numbers)
        nan = np.isnan(values)
        end = values.size - int(np.argmin(nan[::-1])) if not nan.all() else 0
        if nan[:end].any():
            raise UcrFormatError(f"{path}:{lineno}: non-finite value NaN before the last number")
        values = values[:end]
        if values.size < 2:
            raise UcrFormatError(
                f"{path}:{lineno}: expected a label and at least two values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise UcrFormatError(f"{path}:{lineno}: non-finite value")
        labels.append(fields[0])
        series.append(values)
    if len(series) < 2:
        raise UcrFormatError(f"{path}: a dataset needs at least 2 instances")
    if len(set(labels)) < 2:
        raise UcrFormatError(f"{path}: a dataset needs at least 2 distinct labels")
    try:
        return LabeledDataset(tuple(series), tuple(labels))
    except ValueError as exc:
        raise UcrFormatError(f"{path}: {exc}") from None


def znormalize(series) -> np.ndarray:
    """Standardise a series to mean 0 and population std 1.

    A series whose population std is below 1e-8 maps to all zeros
    instead of raising, so flat segments never abort the pipeline.
    """
    values = np.asarray(series, dtype=np.float64)
    sigma = values.std()
    if sigma < DEGENERATE_SIGMA:
        return np.zeros_like(values)
    return (values - values.mean()) / sigma


def znormalize_dataset(dataset: LabeledDataset) -> LabeledDataset:
    """Apply :func:`znormalize` to every instance."""
    return LabeledDataset(
        tuple(znormalize(s) for s in dataset.series), dataset.labels
    )


def resample_split(
    train: LabeledDataset, test: LabeledDataset, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Reshuffle the pooled instances into a new ``(train, test)`` split.

    Every seed shuffles the pool with a seeded generator and
    re-partitions it, preserving the original split sizes and, where
    feasible, the original per-class counts of the train split.
    Stratification falls back to a plain shuffle when some class has a
    single pooled instance or is absent from the original train split.
    :func:`ps2c.pipeline.run_experiment` keeps the caller's split on
    resample 0 and calls this for resamples i >= 1 only.
    """
    pool_series = train.series + test.series
    pool_labels = train.labels + test.labels
    if len(pool_labels) < 4:
        raise ValueError("pooled split needs at least 4 instances")
    n_train = train.n_instances

    pool_counts = Counter(pool_labels)
    train_counts = Counter(train.labels)
    stratifiable = all(c >= 2 for c in pool_counts.values()) and set(
        pool_counts
    ) == set(train_counts)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pool_labels))
    if stratifiable:
        quota = dict(train_counts)
        train_idx: list[int] = []
        test_idx: list[int] = []
        for i in perm:
            label = pool_labels[i]
            if quota.get(label, 0) > 0:
                quota[label] -= 1
                train_idx.append(int(i))
            else:
                test_idx.append(int(i))
    else:
        train_idx = [int(i) for i in perm[:n_train]]
        test_idx = [int(i) for i in perm[n_train:]]

    def split(indices) -> LabeledDataset:
        return LabeledDataset(
            tuple(pool_series[i] for i in indices), tuple(pool_labels[i] for i in indices)
        )

    return split(train_idx), split(test_idx)
