"""Per-length substring tables over a discretized dataset.

For every pattern length 2..l_max, maps each distinct pattern to the
set of instances containing it and to its earliest occurrence in
dataset order. Per-length tables stand in for the suffix trees of
richer implementations; only presence and first occurrence are ever
queried.

Each length's table comes from one stable sort of that length's
windows over the flat symbol array, with the renaming of Karp, Miller
& Rosenberg (1972): the key of a length-l window is the dense
lexicographic rank of its (l-1)-prefix times alpha plus its last
symbol. Keys stay below the window count times alpha, so every
alphabet and length takes the same path, and sorted keys are in
lexicographic pattern order. The windows stay in that sorted order from
one length to the next: the next keys then arrive grouped by prefix
rank, each group already in (instance, offset) order, so the sort
mostly merges runs that are in order and no rank is scattered back.
A pattern is named by its (length, row): its earliest occurrence is
queried by that handle alone, and its text is sliced from it. Text is
looked up only by ``row_of``, which binary-searches the sorted rows.
Scoring reads each pattern's per-class presence counts from the CSR
presence pairs, either as one mixed-radix code per pattern
(``presence_codes``) or as a (patterns, classes) array
(``presence_counts``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .discretizer import DiscretizedDataset, sax_text

__all__ = ["PatternIndex"]


@dataclass
class _LengthTable:
    """All distinct patterns of one length.

    Rows are sorted lexicographically. The (pattern, instance) presence
    pairs form a CSR layout: row r owns
    pair_instance[pair_starts[r]:pair_starts[r+1]]. No per-pair row
    array is stored; ``presence_counts`` expands it from pair_starts.
    """

    first_instance: np.ndarray
    first_offset: np.ndarray
    pair_instance: np.ndarray
    pair_starts: np.ndarray

    @property
    def n_patterns(self) -> int:
        return self.first_instance.size

    def instances_of(self, row: int) -> np.ndarray:
        return self.pair_instance[self.pair_starts[row] : self.pair_starts[row + 1]]


class PatternIndex:
    """Presence and first-occurrence queries over distinct patterns.

    Immutable once built; safe for concurrent queries.
    """

    def __init__(
        self,
        discretized: DiscretizedDataset,
        l_max: int,
        tables: dict[int, _LengthTable],
    ):
        self.n_instances = discretized.n_instances
        self.l_max = l_max
        self._codes = discretized.codes
        self._tables = tables

    @classmethod
    def build(cls, discretized: DiscretizedDataset, l_max: int) -> "PatternIndex":
        """Enumerate every distinct substring of length 2..l_max.

        Strings shorter than a given length simply contribute no
        patterns of that length; a dataset with no string of length 2
        yields an empty index.
        """
        if l_max < 2:
            raise ValueError(f"l_max must be >= 2, got {l_max}")
        alpha = discretized.params.alpha
        codes = discretized.codes
        sizes = np.array([c.size for c in codes], dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        symbols = np.concatenate([np.empty(0, np.int64), *codes], dtype=np.int64)

        # the windows of the previous length, sorted by pattern and then
        # by (instance, offset): start position, instance, and dense
        # lexicographic rank (at length 1 the windows are in flat order
        # and the rank is the symbol itself)
        pos = np.arange(symbols.size)
        inst = np.repeat(np.arange(sizes.size), sizes)
        rank = symbols
        tables: dict[int, _LengthTable] = {}
        for length in range(2, l_max + 1):
            # a window stays valid while its last symbol lies in its instance
            keep = pos + (length - 1) < ends[inst]
            pos, inst, rank = pos[keep], inst[keep], rank[keep]
            if pos.size == 0:
                break
            # keys arrive grouped by ascending prefix rank, each group in
            # (instance, offset) order, so the stable sort only merges
            # runs and each run of equal keys starts at its first occurrence
            key = rank * alpha + symbols[pos + (length - 1)]
            order = np.argsort(key, kind="stable")
            key, pos, inst = key[order], pos[order], inst[order]
            new_pattern = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=new_pattern[1:])
            new_pair = new_pattern.copy()
            new_pair[1:] |= inst[1:] != inst[:-1]
            rank = np.cumsum(new_pattern) - 1

            first_instance = inst[new_pattern]
            pair_instance = inst[new_pair]
            tables[length] = _LengthTable(
                first_instance,
                pos[new_pattern] - starts[first_instance],
                pair_instance,
                np.append(np.flatnonzero(new_pattern[new_pair]), pair_instance.size),
            )
        return cls(discretized, l_max, tables)

    # -- queries ---------------------------------------------------------

    def lengths(self) -> list[int]:
        """Pattern lengths that have at least one distinct pattern."""
        return sorted(self._tables)

    def pattern_count(self, length: int) -> int:
        if not 2 <= length <= self.l_max:
            raise ValueError(f"pattern length {length} outside [2, {self.l_max}]")
        table = self._tables.get(length)
        return 0 if table is None else table.n_patterns

    def distinct_patterns(self, length: int) -> set[str]:
        """The distinct length-l substrings present in at least one instance."""
        return {self.row_text(length, r) for r in range(self.pattern_count(length))}

    def presence_vector(self, pattern: str) -> np.ndarray:
        """Boolean vector: bit i set iff the pattern occurs in instance i.

        A pattern never enumerated yields the explicit absent-everywhere
        vector rather than an error.
        """
        out = np.zeros(self.n_instances, dtype=bool)
        row = self.row_of(pattern)
        if row is not None:
            out[self._tables[len(pattern)].instances_of(row)] = True
        return out

    def occurrence(self, length: int, row: int) -> tuple[int, int]:
        """Earliest (instance index, symbol offset) of the pattern in a row."""
        table = self._tables[length]
        return int(table.first_instance[row]), int(table.first_offset[row])

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

    def row_text(self, length: int, row: int) -> str:
        """The pattern in a row, sliced from its first occurrence."""
        table = self._tables[length]
        offset = table.first_offset[row]
        return sax_text(self._codes[table.first_instance[row]][offset : offset + length])

    def row_of(self, pattern: str) -> int | None:
        """The pattern's row in its length's table, or None if it occurs nowhere."""
        length = len(pattern)
        table = self._tables.get(length)
        if table is None:
            return None
        rows = range(table.n_patterns)
        row = bisect_left(rows, pattern, key=lambda r: self.row_text(length, r))
        if row < table.n_patterns and self.row_text(length, row) == pattern:
            return row
        return None
