"""Pattern sampler: a flat log-weight store drawn by Gumbel-top-k.

``fit_sampler`` scores the pattern tables one length at a time, as
``length_tables`` yields them, and keeps only the accepted rows, so
scoring never holds more than one length's table. Accepted patterns are
parallel arrays: length, first instance and first offset (the pattern's
earliest occurrence in dataset order), quality q and log-weight
log(q)/tau. The sampler keeps the discretized split it was fitted on,
whose codes give each pattern's text when it is asked for and whose SAX
parameters name the cell; it keeps no table. Pattern i is drawn with
probability w_i / sum(w), where w = q**(1/tau). Adding Gumbel noise to
every log-weight and keeping the k largest keys draws k distinct
patterns with exactly the law of drawing one at a time and redrawing
duplicates; log-weights never underflow, unlike w in float64.

The paper's weighted trie is computed from the store, not built: the
weight of the edge ending in a prefix is the sum, in store order, of
the linear weights of the patterns that start with that prefix, and no
node structure exists. Stopping at a stored pattern that is also a
prefix competes with its outgoing edges, so descent probabilities
telescope to the same w / sum(w).
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import class_codes
from .discretizer import sax_text
from .pattern_index import PatternIndex
from .quality import check_settings, chi2_normalized_many, chi2_table, scale

__all__ = ["SamplerTrie", "fit_sampler"]


class SamplerTrie:
    """The fitted pattern sampler for one (alpha, omega) cell.

    Pattern i has quality ``q[i]`` and is the length-``lengths[i]``
    substring of instance ``instances[i]`` of ``discretized`` at symbol
    offset ``offsets[i]``, its earliest occurrence.
    """

    def __init__(self, tau: float, s_min: float, discretized, lengths, instances, offsets, q):
        check_settings(tau, s_min)
        self.tau = tau
        self.s_min = s_min
        self.discretized = discretized
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.instances = np.asarray(instances, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int32)
        self.q = np.asarray(q, dtype=np.float64)
        self.log_w = np.log(self.q) / tau

    @property
    def pattern_count(self) -> int:
        return int(self.q.size)

    @property
    def is_empty(self) -> bool:
        return self.pattern_count == 0

    def text(self, i: int) -> str:
        offset = int(self.offsets[i])
        codes = self.discretized.codes[self.instances[i]]
        return sax_text(codes[offset : offset + int(self.lengths[i])])

    def sample_positions(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Store positions of min(k, pattern_count) distinct patterns, by Gumbel-top-k.

        One Gumbel variate per stored pattern is drawn from ``rng``. The
        positions come back in descending order of perturbed log-weight;
        that sequence has the law of drawing one pattern at a time and
        redrawing duplicates.
        """
        if self.is_empty:
            raise ValueError("cannot sample from an empty sampler")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        keys = self.log_w + rng.gumbel(size=self.pattern_count)
        k = min(k, self.pattern_count)
        top = np.argpartition(-keys, k - 1)[:k]
        return top[np.argsort(-keys[top], kind="stable")]

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one pattern with probability proportional to q**(1/tau)."""
        return self.text(self.sample_positions(1, rng)[0])

    # -- the trie view, computed from the store ----------------------------

    def _weights(self) -> dict[str, float]:
        """Each stored pattern's text -> its linear weight q**(1/tau), in store order."""
        return {self.text(i): scale(float(q), self.tau) for i, q in enumerate(self.q)}

    def edge_weights(self) -> dict[str, float]:
        """Trie edge weights: each prefix of a stored pattern -> its summed weight.

        A prefix's weight adds up, in store order, the linear weights
        q**(1/tau) of the stored patterns that start with it.
        """
        edges: dict[str, float] = {}
        for pattern, w in self._weights().items():
            for end in range(1, len(pattern) + 1):
                edges[pattern[:end]] = edges.get(pattern[:end], 0.0) + w
        return edges

    def path_probability(self, pattern: str) -> float:
        """Probability that :meth:`sample` returns ``pattern``."""
        same_length = np.flatnonzero(self.lengths == len(pattern))
        stored = [i for i in same_length if self.text(i) == pattern]
        if not stored:
            raise KeyError(f"pattern {pattern!r} is not in the trie")
        top = self.log_w.max()
        log_total = top + np.log(np.exp(self.log_w - top).sum())
        return float(np.exp(self.log_w[stored[0]] - log_total))

    def iter_patterns(self):
        """Yield (pattern, scaled weight q**(1/tau)) pairs in lexicographic order."""
        yield from sorted(self._weights().items())

    def to_text(self) -> str:
        """Indented dump of edges, weights, and terminal markers."""
        weights = self._weights()
        # the empty prefix's weight, added up in store order like the edges'
        root_weight = 0.0
        for w in weights.values():
            root_weight += w
        lines = [
            f"trie tau={self.tau:g} s_min={self.s_min:g} "
            f"patterns={self.pattern_count} root_weight={root_weight:.6g}"
        ]
        # sorted prefixes are the depth-first order, children in symbol order
        for prefix, weight in sorted(self.edge_weights().items()):
            marker = f" *{weights[prefix]:.6g}" if prefix in weights else ""
            lines.append(f"{'  ' * len(prefix)}{prefix[-1]} {weight:.6g}{marker}")
        return "\n".join(lines)


def fit_sampler(
    discretized,
    tables,
    labels,
    l_max: int,
    s_min: float,
    tau: float,
) -> SamplerTrie:
    """Score every distinct pattern and store the accepted ones.

    ``tables`` is the stream ``length_tables(discretized, l_max)``, or a
    ``PatternIndex`` built on ``discretized`` itself (another split
    raises ``ValueError``). Each length's table is scored as it arrives:
    every distinct pattern gets its normalised chi-square, and patterns
    reaching s_min (and strictly above 0) are kept as their length, the
    (instance, offset) of their earliest occurrence, q and log-weight, in
    (length, text) order. Nothing else of the table is kept, so a stream
    holds one length's table at a time. The sampler keeps
    ``discretized`` to slice texts and name its cell. It may be empty,
    in which case the caller skips this (alpha, omega) cell.

    A score depends only on the pattern's per-class presence counts, so
    it can be looked up in ``chi2_table`` by the pattern's count code.
    That table scores every possible count vector, prod(n_c + 1) of
    them, once per split (it is memoised). It is used from the first
    length when the split has at least that many symbols, since it then
    costs less than one length's sort, and otherwise from the first
    length at which the tables so far hold that many patterns. Until
    then (throughout, with many classes) each length's count array is
    scored by ``chi2_normalized_many``. Both give the same bits.
    """
    check_settings(tau, s_min)  # before any table is built
    if isinstance(tables, PatternIndex):
        if tables.discretized is not discretized:
            raise ValueError("index was built on another discretized split")
        if tables.l_max != l_max:
            raise ValueError(f"index was built with l_max={tables.l_max}, expected {l_max}")
        tables = tables.tables()
    classes, class_of = class_codes(labels)
    if class_of.size != discretized.n_instances:
        raise ValueError("labels must align with the indexed instances")
    class_sizes = np.bincount(class_of, minlength=len(classes))
    sizes = tuple(int(n) for n in class_sizes)
    n_vectors, n_patterns, scores = math.prod(n + 1 for n in sizes), 0, None
    n_symbols = sum(codes.size for codes in discretized.codes)

    lengths, qs = [np.empty(0, np.int64)], [np.empty(0)]
    instances, offsets = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for length, table in tables:
        n_patterns += table.n_patterns
        if scores is None and max(n_symbols, n_patterns) >= n_vectors:
            strides, scores = chi2_table(sizes)
            instance_stride = strides[class_of]
        if scores is None:
            q = chi2_normalized_many(table.presence_counts(class_of, len(classes)), class_sizes)
        else:
            q = scores[table.presence_codes(instance_stride)]
        accepted = np.flatnonzero((q >= s_min) & (q > 0.0))
        first_instance, first_offset = table.first_occurrences(accepted)
        lengths.append(np.full(accepted.size, length, dtype=np.int64))
        instances.append(first_instance)
        offsets.append(first_offset)
        qs.append(q[accepted])
        del table, q  # freed before the stream builds the next length
    columns = map(np.concatenate, (lengths, instances, offsets, qs))
    return SamplerTrie(tau, s_min, discretized, *columns)
