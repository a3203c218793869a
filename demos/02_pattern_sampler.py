# Fit the weighted pattern sampler at a single resolution and check
# that draw frequencies track the trie's path probabilities.

from collections import Counter

import numpy as np

from ps2c import (
    SaxParams,
    SynthSpec,
    discretize,
    fit_sampler,
    generate,
    length_tables,
    znormalize_dataset,
)

train = znormalize_dataset(generate(SynthSpec(n_per_class=20, length=64, seed=3)))
disc = discretize(train, SaxParams(alpha=4, omega=8))
trie = fit_sampler(disc, length_tables(disc, l_max=4), train.labels, l_max=4, s_min=0.2, tau=0.5)

print(trie.to_text())

n_draws = 20000
rng = np.random.default_rng(0)
counts = Counter(trie.sample(rng) for _ in range(n_draws))

print("\npattern   prob    freq")
for pattern, _ in sorted(trie.iter_patterns()):
    prob = trie.path_probability(pattern)
    print("%-9s %.4f  %.4f" % (pattern, prob, counts[pattern] / n_draws))
