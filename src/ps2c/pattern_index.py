"""Per-length substring tables over a discretized dataset, built as a stream.

For every pattern length 2..l_max, a table maps each distinct pattern to
the set of instances containing it and to its earliest occurrence in
dataset order. Per-length tables stand in for the suffix trees of
richer implementations; only presence and first occurrence are ever
queried. ``length_tables`` yields the tables one length at a time, in
ascending length, and holds none of them once it has yielded it, so a
consumer that scores each table and drops it (``fit_sampler``) never
holds two lengths at once. ``PatternIndex`` is the dict of that stream,
kept for callers that query any length at any time.

Each length's table comes from one in-place sort of that length's
windows, renamed as by Karp, Miller & Rosenberg (1972): a length-l
window's key is its (l-1)-prefix's own sorted key times alpha plus its
last symbol, so every alphabet and length takes the same path and sorted
keys are in pattern order. The prefix keys are made dense again, as
lexicographic ranks, only before a key would overflow the packed 63
bits. In the flat symbol array every instance is followed by the
separator symbol alpha, so a window is valid exactly when its last
symbol is below alpha. Key and flat start are packed into one int64:
starts are unique and in (instance, offset) order, so equal keys sort
into dataset order and each run of equal keys starts at its first
occurrence. The packing needs bit_length(n) + bit_length(n * alpha)
<= 63 for n symbols, separators included: fewer than 2**29 symbols at
alpha 26, 2**30 at alpha 4 to 8. The stream raises ``ValueError``
beyond that; within it every offset, instance and pair count fits the
tables' int32.
A table keeps no reference to the symbols: ``first_occurrences``
gives the earliest (instance, offset) of a batch of rows, from which
the sampler slices each accepted pattern's text, and no query goes by
text.
Scoring reads each pattern's per-class presence counts from the CSR
presence pairs, either as one mixed-radix code per pattern
(``presence_codes``) or as a (patterns, classes) array
(``presence_counts``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .discretizer import DiscretizedDataset

__all__ = ["PatternIndex", "check_l_max", "length_tables"]


@dataclass
class _LengthTable:
    """All distinct patterns of one length, as three int32 arrays.

    Rows are sorted lexicographically. The (pattern, instance) presence
    pairs form a CSR layout: row r owns
    pair_instance[pair_starts[r]:pair_starts[r+1]], in ascending
    instance order, so a row's first pair holds the instance of its
    first occurrence and first_offset[r] the offset within it. No
    per-pair row array is stored; ``presence_counts`` expands it from
    pair_starts.
    """

    first_offset: np.ndarray
    pair_instance: np.ndarray
    pair_starts: np.ndarray

    @property
    def n_patterns(self) -> int:
        return self.first_offset.size

    def first_occurrences(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Earliest (instance index, symbol offset) of each of ``rows``, as two int32 arrays."""
        return self.pair_instance[self.pair_starts[rows]], self.first_offset[rows]

    def presence_counts(self, class_of: np.ndarray, n_classes: int) -> np.ndarray:
        """(n_patterns, n_classes) per-class presence counts."""
        starts = self.pair_starts
        pair_pattern = np.repeat(np.arange(self.n_patterns), starts[1:] - starts[:-1])
        flat = np.bincount(
            pair_pattern * n_classes + class_of[self.pair_instance],
            minlength=self.n_patterns * n_classes,
        )
        return flat.reshape(self.n_patterns, n_classes)

    def presence_codes(self, instance_weight: np.ndarray) -> np.ndarray:
        """(n_patterns,) sums of ``instance_weight`` over each row's instances.

        Weighting each instance by its class's stride in ``chi2_table``
        makes a row's sum the code of its per-class presence counts.
        """
        # every row owns at least one pair, so no reduceat segment is empty
        return np.add.reduceat(instance_weight[self.pair_instance], self.pair_starts[:-1])


def check_l_max(l_max: int) -> None:
    """Raise unless l_max admits a pattern: lengths start at 2."""
    if l_max < 2:
        raise ValueError(f"l_max must be >= 2, got {l_max}")


def _key_shift(n_symbols: int, alpha: int) -> int:
    """Bits that hold a flat start below ``n_symbols`` in a packed key.

    A window's key (prefix key * alpha + next symbol) sits above the
    start in one int64. ``build`` makes the prefix keys dense ranks again
    before a key could pass 63 - shift bits, and over dense ranks a key
    stays below n_symbols * alpha (below alpha**2 when there are fewer
    symbols than letters): both widths together take at most 63 bits.
    """
    shift = n_symbols.bit_length()
    if shift + (n_symbols * alpha).bit_length() > 63:
        raise ValueError(
            f"{n_symbols} symbols (separators included) at alpha {alpha} exceed the "
            "63-bit packed key: bit_length(n) + bit_length(n * alpha) must be <= 63"
        )
    return shift


def length_tables(
    discretized: DiscretizedDataset, l_max: int
) -> Iterator[tuple[int, _LengthTable]]:
    """Yield (length, table) for every distinct substring of length 2..l_max.

    Lengths ascend, and each length's table is yielded as soon as it is
    built and not referenced again by the generator, so a consumer that
    drops it before asking for the next holds one table at a time.
    Strings shorter than a given length simply contribute no patterns of
    that length; a dataset with no string of length 2 yields nothing.
    Raises ``ValueError`` on the first ``next`` when l_max < 2 or the
    symbols exceed the packed key's width (see ``_key_shift``).
    """
    check_l_max(l_max)
    alpha = discretized.params.alpha
    codes = discretized.codes
    # each instance is followed by the separator symbol alpha, so a
    # window is valid exactly when its last symbol is below alpha (the
    # empty head keeps a dataset with no instances concatenable)
    sizes = np.array([c.size for c in codes], dtype=np.int64) + 1
    starts = np.cumsum(sizes) - sizes
    separator = np.array([alpha], dtype=np.uint8)
    symbols = np.concatenate([separator[:0], *(s for c in codes for s in (c, separator))])
    shift = _key_shift(symbols.size, alpha)
    instance_of = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    offset_of = (np.arange(symbols.size) - np.repeat(starts, sizes)).astype(np.int32)

    # the windows of the previous length, sorted by pattern and then
    # by flat start, which is (instance, offset) order: start and a
    # key below bound that orders the patterns (at length 1 the
    # windows are in flat order and the key is the symbol itself)
    pos = np.flatnonzero(symbols < alpha)
    key, bound = symbols.take(pos).astype(np.int64), alpha
    for length in range(2, l_max + 1):
        last = symbols[length - 1 :].take(pos)
        # starts are unique and in (instance, offset) order, so the
        # packed (key, start) values sort equal keys into dataset order
        key *= alpha
        key += last
        key <<= shift
        key |= pos
        key = key[last < alpha]
        if key.size == 0:
            return
        key.sort()
        pos = key & ((1 << shift) - 1)
        key >>= shift
        new_pattern = np.empty(key.size, dtype=bool)
        new_pattern[0] = True
        np.not_equal(key[1:], key[:-1], out=new_pattern[1:])
        table = _table(new_pattern, instance_of.take(pos), offset_of, pos)

        # the sorted key already orders the patterns; it is made dense
        # again only before the next key could pass the bits above starts
        bound *= alpha
        if bound * alpha > 1 << (63 - shift):
            key, bound = np.cumsum(new_pattern, out=key) - 1, table.n_patterns
        yield length, table
        del table  # so the consumer can free it before the next length is built


def _table(new_pattern, inst, offset_of, pos) -> _LengthTable:
    """One length's table from its sorted windows.

    ``new_pattern`` marks each window that starts a pattern, ``inst`` and
    ``pos`` hold each window's instance and flat start. A function of its
    own so that its temporaries are freed on return, not held by the
    suspended generator while the consumer scores the table.
    """
    new_pair = new_pattern.copy()
    new_pair[1:] |= inst[1:] != inst[:-1]
    pair_at = np.flatnonzero(new_pair)
    pair_instance = inst.take(pair_at)
    row_pair = np.flatnonzero(new_pattern.take(pair_at))
    pair_starts = np.empty(row_pair.size + 1, dtype=np.int32)  # rows + 1
    pair_starts[:-1] = row_pair
    pair_starts[-1] = pair_instance.size
    first_offset = offset_of.take(pos.take(pair_at.take(row_pair)))
    return _LengthTable(first_offset, pair_instance, pair_starts)


class PatternIndex:
    """Every length's table of one discretized split, kept together.

    The dict of ``length_tables``: the pipeline scores that stream
    instead and builds no index. The index keeps a reference to the
    split it was built on (``discretized``), which ``fit_sampler``
    checks. Immutable once built; safe for concurrent queries.
    """

    def __init__(
        self, discretized: DiscretizedDataset, l_max: int, tables: dict[int, _LengthTable]
    ):
        self.discretized = discretized
        self.n_instances = discretized.n_instances
        self.l_max = l_max
        self._tables = tables

    @classmethod
    def build(cls, discretized: DiscretizedDataset, l_max: int) -> "PatternIndex":
        """Every table ``length_tables(discretized, l_max)`` yields, kept by length."""
        return cls(discretized, l_max, dict(length_tables(discretized, l_max)))

    def tables(self):
        """The (length, table) pairs in ascending length, as ``length_tables`` yields them."""
        return self._tables.items()

    # -- queries ---------------------------------------------------------

    def lengths(self) -> list[int]:
        """Pattern lengths that have at least one distinct pattern."""
        return sorted(self._tables)

    def pattern_count(self, length: int) -> int:
        if not 2 <= length <= self.l_max:
            raise ValueError(f"pattern length {length} outside [2, {self.l_max}]")
        table = self._tables.get(length)
        return 0 if table is None else table.n_patterns

    def first_occurrences(self, length: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._tables[length].first_occurrences(rows)

    def presence_counts(self, length: int, class_of: np.ndarray, n_classes: int) -> np.ndarray:
        return self._tables[length].presence_counts(class_of, n_classes)

    def presence_codes(self, length: int, instance_weight: np.ndarray) -> np.ndarray:
        return self._tables[length].presence_codes(instance_weight)
