"""Per-length substring tables over a discretized dataset.

For every pattern length 2..l_max, maps each distinct pattern to the
set of instances containing it and to its earliest occurrence in
dataset order. Per-length tables stand in for the suffix trees of
richer implementations; only presence and first occurrence are ever
queried.

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
alpha 26, 2**30 at alpha 4 to 8. ``build`` raises ``ValueError`` beyond
that; within it every offset, instance and pair count fits the tables'
int32.
The index keeps no reference to the symbols: ``first_occurrences``
gives the earliest (instance, offset) of a batch of rows, from which
the sampler slices each accepted pattern's text, and no query goes by
text.
Scoring reads each pattern's per-class presence counts from the CSR
presence pairs, either as one mixed-radix code per pattern
(``presence_codes``) or as a (patterns, classes) array
(``presence_counts``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretizer import DiscretizedDataset

__all__ = ["PatternIndex", "check_l_max"]


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


class PatternIndex:
    """Presence and first-occurrence queries over distinct patterns.

    Immutable once built; safe for concurrent queries.
    """

    def __init__(self, n_instances: int, l_max: int, tables: dict[int, _LengthTable]):
        self.n_instances = n_instances
        self.l_max = l_max
        self._tables = tables

    @classmethod
    def build(cls, discretized: DiscretizedDataset, l_max: int) -> "PatternIndex":
        """Enumerate every distinct substring of length 2..l_max.

        Strings shorter than a given length simply contribute no
        patterns of that length; a dataset with no string of length 2
        yields an empty index. Raises ``ValueError`` when the symbols
        exceed the packed key's width (see ``_key_shift``).
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
        tables: dict[int, _LengthTable] = {}
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
                break
            key.sort()
            pos = key & ((1 << shift) - 1)
            key >>= shift
            inst = instance_of.take(pos)
            new_pattern = np.empty(key.size, dtype=bool)
            new_pattern[0] = True
            np.not_equal(key[1:], key[:-1], out=new_pattern[1:])
            new_pair = new_pattern.copy()
            new_pair[1:] |= inst[1:] != inst[:-1]

            pair_at = np.flatnonzero(new_pair)
            pair_instance = inst.take(pair_at)
            row_pair = np.flatnonzero(new_pattern.take(pair_at))
            pair_starts = np.empty(row_pair.size + 1, dtype=np.int32)  # rows + 1
            pair_starts[:-1] = row_pair
            pair_starts[-1] = pair_instance.size
            first_offset = offset_of.take(pos.take(pair_at.take(row_pair)))
            tables[length] = _LengthTable(first_offset, pair_instance, pair_starts)

            # the sorted key already orders the patterns; it is made dense
            # again only before the next key could pass the bits above starts
            bound *= alpha
            if bound * alpha > 1 << (63 - shift):
                key, bound = np.cumsum(new_pattern, out=key) - 1, row_pair.size
        return cls(discretized.n_instances, l_max, tables)

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
        """Earliest (instance index, symbol offset) of each of ``rows``, as two int32 arrays."""
        table = self._tables[length]
        return table.pair_instance[table.pair_starts[rows]], table.first_offset[rows]

    def presence_counts(self, length: int, class_of: np.ndarray, n_classes: int) -> np.ndarray:
        """(n_patterns, n_classes) per-class presence counts for one length."""
        table = self._tables[length]
        starts = table.pair_starts
        pair_pattern = np.repeat(np.arange(table.n_patterns), starts[1:] - starts[:-1])
        flat = np.bincount(
            pair_pattern * n_classes + class_of[table.pair_instance],
            minlength=table.n_patterns * n_classes,
        )
        return flat.reshape(table.n_patterns, n_classes)

    def presence_codes(self, length: int, instance_weight: np.ndarray) -> np.ndarray:
        """(n_patterns,) sums of ``instance_weight`` over each row's instances.

        Weighting each instance by its class's stride in ``chi2_table``
        makes a row's sum the code of its per-class presence counts.
        """
        table = self._tables[length]
        # every row owns at least one pair, so no reduceat segment is empty
        return np.add.reduceat(instance_weight[table.pair_instance], table.pair_starts[:-1])
