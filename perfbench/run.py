"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload planted-equal --seed 1 --seconds 50 --trace 0

With --trace 0 the run starts CHILDREN fresh interpreters one after
another (perfbench/child.py). Each times `import ps2c.cli`, makes one
`ps2c run` at 1 thread and one at 2 threads on the same generated files,
then repeats 1-thread runs for its share of --seconds. setup_s and
peak_rss_mb are medians over the interpreters, run_s the median over
all 1-thread runs. The 2-thread runs are checked but not timed: on a
shared 2-core machine their time follows the other tenants' use of the
second core (see perfbench/README.md).

With --trace 1 one reference pair of `ps2c run` is made in a fresh
interpreter, a tracemalloc pass takes the memory peaks, and rounds of
the traced pass plus `pipeline.fit_transform` at 1 and 2 threads repeat
until about --seconds have passed in all; the per-layer metrics are
medians over rounds.

Every run checks the program's outputs (checks.py). The last stdout
line is one JSON object: correct, attempted, failed, metrics. Inputs,
outputs and the span file go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 3  # setup_s and peak_rss_mb samples per run
CHILD_SLACK_S = 30  # a child may overrun its share by one run; a hung one is killed
OUTPUTS = ("report.json", "features_train_0.csv", "features_test_0.csv")


class ChildError(RuntimeError):
    """A measuring interpreter died or printed no result."""


def run_child(train: Path, test: Path, out_dir: Path, seconds: float, workload: Workload) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(train), str(test), str(out_dir), repr(seconds)]
    proc = subprocess.run(
        cmd + workload.run_flags(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=seconds + CHILD_SLACK_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check_outputs(run: dict, train: Path, test: Path, workload: Workload, full: bool) -> list[str]:
    """Report checks always; the recomputed patterns and features when `full`."""
    out = Path(run["out"])
    report = (out / "report.json").read_text() if run["exit"] == 0 else "{}"
    problems = checks.check_report(report, run["exit"], workload)
    if run["exit"] == 0:
        problems += checks.check_accuracy(report)
        if full:
            problems += checks.check_features(train, test, out, workload)
    return problems


def measure(workload: Workload, train: Path, test: Path, work: Path, seconds: float) -> dict:
    children = []
    start = time.perf_counter()
    for i in range(CHILDREN):
        share = (seconds - (time.perf_counter() - start)) / (CHILDREN - i)
        children.append(run_child(train, test, work / f"c{i}", max(share, 0.0), workload))
    runs = [run for child in children for run in child["runs"]]

    problems: list[str] = []
    for run in runs:
        problems += check_outputs(run, train, test, workload, full=False)
    # every run, 1- or 2-threaded, must write the first run's bytes
    first = runs[0]
    for run in runs[1:]:
        if run["exit"] == 0 and first["exit"] == 0:
            for name in OUTPUTS:
                a, b = ((Path(r["out"]) / name).read_bytes() for r in (first, run))
                what = f"{name} of the first run and a {run['threads']}-thread run"
                problems += checks.check_identical(a, b, what)
    # the recomputation is slow, so it runs once, on the last outputs;
    # every other run's outputs were compared with the first above
    last = runs[-1]
    if last["exit"] == 0:
        problems += checks.check_features(train, test, Path(last["out"]), workload)

    samples = {
        "setup_s": [child["setup_s"] for child in children],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
        "run_s": [r["run_s"] for r in runs if r["threads"] == 1],
    }
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "run_s": (statistics.median(samples["run_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
    }
    print(f"{workload.name}: {len(runs)} runs; " + json.dumps(samples), file=sys.stderr)
    failed = sum(r["exit"] != 0 for r in runs)
    return {"attempted": len(runs), "failed": failed, "problems": problems, "metrics": metrics}


def measure_traced(workload: Workload, train: Path, test: Path, work: Path, seconds: float) -> dict:
    import tracing  # imports ps2c; untraced runs keep the program out of this process

    # the reference run and the memory pass count against --seconds too
    start = time.perf_counter()
    pair = run_child(train, test, work / "reference", 0.0, workload)["runs"]
    reference = pair[0]
    attempted, failed = len(pair), sum(r["exit"] != 0 for r in pair)
    problems = check_outputs(reference, train, test, workload, full=True)
    metrics: dict[str, tuple[float, str]] = {}
    for name, value in tracing.memory_pass(train, workload).items():
        metrics[name] = (value, "MiB")

    tracer = tracing.Tracer(workload.name)
    traced_dir = work / "traced"
    traced_dir.mkdir(exist_ok=True)
    rounds: list[dict] = []
    while True:
        t0 = time.perf_counter()
        tracer.round = len(rounds)
        info = tracing.traced_pass(tracer, train, test, workload, traced_dir)
        info["fit_transform_s"] = tracing.timed_fit_transform(train, test, workload, 1)
        info["fit_transform_2t_s"] = tracing.timed_fit_transform(train, test, workload, 2)
        attempted += 3
        rounds.append(info)
        round_s = time.perf_counter() - t0
        if time.perf_counter() - start + round_s > seconds:
            break
    tracer.write(work / "trace.jsonl")

    first = rounds[0]
    if reference["exit"] == 0:
        # the report holds the accuracy and the CSV headers the column tags
        for name in OUTPUTS:
            problems += checks.check_identical(
                (Path(reference["out"]) / name).read_bytes(),
                (traced_dir / name).read_bytes(),
                f"traced and ps2c run {name}",
            )
    if first["inserted"] != first["accepted"]:
        problems.append(f"fit_sampler inserted {first['inserted']} patterns, scoring accepted {first['accepted']}")
    if any((r["distinct"], r["tags"]) != (first["distinct"], first["tags"]) for r in rounds):
        problems.append("traced rounds disagree")

    per_round = []
    for i, info in enumerate(rounds):
        score = tracer.total("quality.score", i)
        fit = tracer.total("sampler_trie.fit", i)
        selfs = tracer.self_times(i)
        per_round.append(
            {
                "cli.run_s": tracer.total("cli.run", i),
                "cli.self_s": selfs["cli"],
                "dataset.load_s": tracer.total("dataset.load", i),
                "dataset.znorm_s": tracer.total("dataset.znorm", i),
                "discretizer.discretize_s": tracer.total("discretizer.discretize", i),
                "pattern_index.build_s": tracer.total("pattern_index.build", i),
                "quality.score_s": score,
                "sampler_trie.fit_s": fit,
                "sampler_trie.insert_s": fit - score,
                "shapelet_transform.features_s": tracer.total("shapelet_transform.features", i),
                "forest.fit_s": tracer.total("forest.fit", i),
                "forest.predict_s": tracer.total("forest.predict", i),
                "pipeline.self_s": selfs["pipeline"],
                "pipeline.fit_transform_s": info["fit_transform_s"],
                "pipeline.fit_transform_2t_s": info["fit_transform_2t_s"],
                "pipeline.thread_speedup": info["fit_transform_s"] / info["fit_transform_2t_s"],
            }
        )
    for name in per_round[0]:
        unit = "ratio" if name.endswith("speedup") else "s"
        metrics[name] = (statistics.median(r[name] for r in per_round), unit)
    metrics["pattern_index.distinct_patterns"] = (first["distinct"], "count")
    metrics["sampler_trie.accept_ratio"] = (first["accepted"] / first["scored"], "ratio")
    print(f"{workload.name}: {len(rounds)} traced rounds; spans in {work / 'trace.jsonl'}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = HERE / "out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    train, test = write_inputs(workload, args.seed, work)
    measure_fn = measure_traced if args.trace else measure
    try:
        outcome = measure_fn(workload, train, test, work, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
