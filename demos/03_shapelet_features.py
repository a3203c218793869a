"""Ground sampled patterns in real subsequences and inspect the features."""

import numpy as np

from ps2c import (
    SaxParams,
    SynthSpec,
    create_feature_sets,
    discretize,
    fit_sampler,
    generate,
    length_tables,
    znormalize_dataset,
)

train = znormalize_dataset(generate(SynthSpec(n_per_class=15, length=96, seed=11)))
test = znormalize_dataset(generate(SynthSpec(n_per_class=15, length=96, seed=12)))

disc = discretize(train, SaxParams(alpha=5, omega=6))
trie = fit_sampler(disc, length_tables(disc, l_max=6), train.labels, l_max=6, s_min=0.1, tau=0.5)

# the sampler carries its patterns' occurrences, so no pattern index is passed
rng = np.random.default_rng(1)
ftr, fte = create_feature_sets(train, test, disc, None, trie, k=3, rng=rng)

for sh in ftr.shapelets:
    print(
        f"{sh.tag}: {sh.values.size} points, cut from instance "
        f"{sh.source_index} at symbol offset {sh.symbol_offset}"
    )
print("train matrix", ftr.values.shape, " test matrix", fte.values.shape)

# instances of the shapelet's own class should sit closer to it
print("\nmean distance per class:")
for label in sorted(set(train.labels)):
    rows = [i for i, lab in enumerate(train.labels) if lab == label]
    print(" class", label, np.round(ftr.values[rows].mean(axis=0), 3))
