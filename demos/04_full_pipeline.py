#!/usr/bin/env python3
# End to end on synthetic data: full resolution grid, resampled accuracy,
# and the deterministic run summary.

import json

from ps2c import PipelineConfig, SynthSpec, build_report, generate, run_experiment

train = generate(SynthSpec(n_per_class=25, length=128, seed=0))
test = generate(SynthSpec(n_per_class=25, length=128, seed=1))

config = PipelineConfig(alphas=(2, 3, 4, 5), omegas=(2, 4, 6), k=2, seed=42)
result = run_experiment(train, test, config, n_resamples=3)

print(json.dumps(build_report(config, result, 3), indent=2, sort_keys=True))
print("\nmean accuracy %.3f +/- %.3f over 3 resamples" % (result.mean_accuracy, result.std_accuracy))
