#!/usr/bin/env python3
"""Scale check: wall time and peak RSS of `fit_transform`, each run in a fresh process.

    python3 experiments/scale_check.py PARENT CHANGE [--n-per-class 100]
        [--length 1024] [--threads 1] [--pairs 8]

PARENT and CHANGE are directories that hold the `ps2c` package, such as
two checkouts' `src/`. Each pair runs one fresh interpreter per tree,
and the pairs alternate which tree goes first. Every run fits the
default `PipelineConfig` on `generate(SynthSpec(n_per_class, length))`
with the test split made from seed 1, at the given thread count, and
reports the wall time of `fit_transform` alone and the process's peak
RSS (`RUSAGE_SELF`, which also covers the import and the input
generation). One line is printed per run, then a JSON summary: the
median and quartiles of both per tree, the pairs each tree was faster
in and the pairs each tree had the lower peak RSS in. A tie counts for
neither tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import ps2c
from ps2c import PipelineConfig, SynthSpec, fit_transform, generate
n_per_class, length, threads = map(int, sys.argv[2:5])
train = generate(SynthSpec(n_per_class=n_per_class, length=length))
test = generate(SynthSpec(n_per_class=n_per_class, length=length, seed=1))
t0 = time.perf_counter()
fit_transform(train, test, PipelineConfig(), n_threads=threads)
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"package": ps2c.__file__, "seconds": seconds, "peak_rss_mib": peak}))
"""


def run_once(src: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(args.n_per_class), str(args.length), str(args.threads)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["package"]).resolve().parent.parent != src:
        raise RuntimeError(f"imported ps2c from {result['package']}, not from {src}")
    return result


def lower_pairs(parent: list[float], change: list[float]) -> dict[str, int]:
    """The pairs in which each tree's value was lower; a tie counts for neither."""
    pairs = list(zip(parent, change, strict=True))
    return {"parent": sum(p < c for p, c in pairs), "change": sum(c < p for p, c in pairs)}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=lambda p: Path(p).resolve())
    parser.add_argument("change", type=lambda p: Path(p).resolve())
    parser.add_argument("--n-per-class", type=int, default=100)
    parser.add_argument("--length", type=int, default=1024)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], args)
            runs[side].append(result)
            print(f"pair {pair} {side}: {result['seconds']:.3f} s, peak RSS {result['peak_rss_mib']:.1f} MiB")

    summary = {
        side: {
            "seconds": quartiles([r["seconds"] for r in results]),
            "peak_rss_mib": quartiles([r["peak_rss_mib"] for r in results]),
        }
        for side, results in runs.items()
    }
    for key, metric in (("faster_pairs", "seconds"), ("lower_peak_rss_pairs", "peak_rss_mib")):
        parent, change = ([r[metric] for r in runs[side]] for side in ("parent", "change"))
        summary[key] = lower_pairs(parent, change)
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
