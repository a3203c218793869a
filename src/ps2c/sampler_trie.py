"""Pattern sampler: a flat log-weight store drawn by Gumbel-top-k.

Accepted patterns are parallel arrays (length, pattern-table row,
quality q, log-weight log(q)/tau), and text is sliced only for drawn
patterns. Pattern i is drawn with probability w_i / sum(w), where
w = q**(1/tau). Adding Gumbel noise to every log-weight and keeping the
k largest keys draws k distinct patterns with exactly the law of
drawing one at a time and redrawing duplicates; log-weights never
underflow, unlike w in float64.

The paper's weighted trie is a read-only view built on first access.
Its edges aggregate the linear weights of the patterns below them, and
stopping at an internal terminal competes as a pseudo-edge, so its
descent probabilities telescope to the same w / sum(w).
"""

from __future__ import annotations

import numpy as np

from .pattern_index import PatternIndex
from .quality import chi2_normalized_many, scale

__all__ = ["SamplerTrie", "fit_sampler"]


class TrieNode:
    """A trie-view node; a terminal's weight may be 0.0 after float64 underflow."""

    __slots__ = ("children", "is_terminal", "terminal_weight", "node_weight")

    def __init__(self):
        self.children: dict[str, list] = {}  # symbol -> [edge weight, child]
        self.is_terminal = False
        self.terminal_weight = 0.0
        self.node_weight = 0.0


class SamplerTrie:
    """The fitted pattern sampler for one (alpha, omega) cell.

    Pattern i has quality ``q[i]`` and text ``text_of(lengths[i], rows[i])``.
    """

    def __init__(self, tau: float, s_min: float, lengths, rows, q, text_of):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau
        self.s_min = s_min
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.q = np.asarray(q, dtype=np.float64)
        self.log_w = np.log(self.q) / tau
        self._text_of = text_of
        self._view = None

    @classmethod
    def from_patterns(cls, patterns, tau: float, s_min: float) -> "SamplerTrie":
        """Sampler over hand-given patterns: a mapping or (pattern, q) pairs.

        Each pattern needs length >= 2 and a quality q > 0 with
        q >= s_min, and may appear only once.
        """
        items = list(patterns.items() if hasattr(patterns, "items") else patterns)
        seen: set[str] = set()
        for pattern, q in items:
            if len(pattern) < 2:
                raise ValueError(f"patterns must have length >= 2, got {pattern!r}")
            if q <= 0.0 or q < s_min:
                raise ValueError(
                    f"quality {q} below acceptance threshold (s_min={s_min}, must also be > 0)"
                )
            if pattern in seen:
                raise ValueError(f"pattern {pattern!r} given twice")
            seen.add(pattern)
        # as in a pattern table, rows rank patterns lexically within a length
        items.sort(key=lambda item: (len(item[0]), item[0]))
        lengths = [len(p) for p, _ in items]
        rows = [i - lengths.index(n) for i, n in enumerate(lengths)]
        texts = {(n, row): p for n, row, (p, _) in zip(lengths, rows, items)}
        return cls(tau, s_min, lengths, rows, [q for _, q in items], lambda n, row: texts[n, row])

    @property
    def pattern_count(self) -> int:
        return int(self.q.size)

    @property
    def is_empty(self) -> bool:
        return self.pattern_count == 0

    def text(self, i: int) -> str:
        return self._text_of(int(self.lengths[i]), int(self.rows[i]))

    def sample_distinct(self, k: int, rng: np.random.Generator) -> list[str]:
        """Draw min(k, pattern_count) distinct patterns by Gumbel-top-k.

        One Gumbel variate per stored pattern is drawn from ``rng``. The
        patterns come back in descending order of perturbed log-weight;
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
        top = top[np.argsort(-keys[top], kind="stable")]
        return [self.text(i) for i in top]

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one pattern with probability proportional to q**(1/tau)."""
        return self.sample_distinct(1, rng)[0]

    # -- the trie view -----------------------------------------------------

    def _trie(self):
        if self._view is None:
            root = TrieNode()
            position = {}
            for i in range(self.pattern_count):
                pattern = self.text(i)
                position[pattern] = i
                w = scale(float(self.q[i]), self.tau)
                node = root
                for symbol in pattern:
                    node.node_weight += w
                    edge = node.children.setdefault(symbol, [0.0, TrieNode()])
                    edge[0] += w
                    node = edge[1]
                node.is_terminal = True
                node.terminal_weight = w
                node.node_weight += w
            self._view = (root, position)
        return self._view

    @property
    def root(self) -> TrieNode:
        return self._trie()[0]

    def path_probability(self, pattern: str) -> float:
        """Probability that :meth:`sample` returns ``pattern``."""
        i = self._trie()[1].get(pattern)
        if i is None:
            raise KeyError(f"pattern {pattern!r} is not in the trie")
        top = self.log_w.max()
        log_total = top + np.log(np.exp(self.log_w - top).sum())
        return float(np.exp(self.log_w[i] - log_total))

    def iter_patterns(self):
        """Yield (pattern, scaled weight q**(1/tau)) pairs in lexicographic order."""

        def walk(node: TrieNode, prefix: str):
            if node.is_terminal:
                yield prefix, node.terminal_weight
            for symbol in sorted(node.children):
                yield from walk(node.children[symbol][1], prefix + symbol)

        yield from walk(self.root, "")

    def to_text(self) -> str:
        """Indented dump of edges, weights, and terminal markers."""
        lines = [
            f"trie tau={self.tau:g} s_min={self.s_min:g} "
            f"patterns={self.pattern_count} root_weight={self.root.node_weight:.6g}"
        ]

        def walk(node: TrieNode, depth: int):
            for symbol in sorted(node.children):
                weight, child = node.children[symbol]
                marker = f" *{child.terminal_weight:.6g}" if child.is_terminal else ""
                lines.append(f"{'  ' * depth}{symbol} {weight:.6g}{marker}")
                walk(child, depth + 1)

        walk(self.root, 1)
        return "\n".join(lines)


def fit_sampler(
    discretized,
    index: PatternIndex,
    labels,
    l_max: int,
    s_min: float,
    tau: float,
) -> SamplerTrie:
    """Score every distinct pattern and store the accepted ones.

    For each length 2..l_max, every distinct pattern is scored by
    normalised chi-square; patterns reaching s_min (and strictly above
    0) are kept, the rest discarded. The returned sampler may be empty,
    in which case the caller skips this (alpha, omega) cell.
    """
    if index.l_max != l_max:
        raise ValueError(
            f"index was built with l_max={index.l_max}, expected {l_max}"
        )
    labels = [str(c) for c in labels]
    if len(labels) != index.n_instances:
        raise ValueError("labels must align with the indexed instances")
    classes = sorted(set(labels))
    class_ids = {c: i for i, c in enumerate(classes)}
    class_of = np.array([class_ids[c] for c in labels], dtype=np.int64)
    class_sizes = np.bincount(class_of, minlength=len(classes))

    lengths, rows, qs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for length in index.lengths():
        counts = index.presence_counts(length, class_of, len(classes))
        q = chi2_normalized_many(counts, class_sizes)
        accepted = np.nonzero((q >= s_min) & (q > 0.0))[0]
        lengths.append(np.full(accepted.size, length, dtype=np.int64))
        rows.append(accepted)
        qs.append(q[accepted])
    return SamplerTrie(tau, s_min, *map(np.concatenate, (lengths, rows, qs)), index.row_text)
