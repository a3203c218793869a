"""Traced pass: the `ps2c run` path rebuilt from the modules' public calls.

The calls follow `pipeline._run_cell` and `cli.cmd_run` in order, with
the same per-cell RNG streams, and each is wrapped in a span recorded by
this file; the program itself is not instrumented. Spans are kept in
memory and written out as JSON lines at the end. Memory peaks come from
a separate tracemalloc pass, because tracemalloc slows the Python-heavy
trie inserts that the timed pass measures.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ps2c.dataset import load_ucr, znormalize_dataset  # noqa: E402
from ps2c.discretizer import SaxParams, discretize  # noqa: E402
from ps2c.pattern_index import PatternIndex  # noqa: E402
from ps2c.pipeline import (  # noqa: E402
    ExperimentResult,
    PipelineConfig,
    build_report,
    evaluate,
    fit_transform,
    merge,
    train_classifier,
)
from ps2c.quality import chi2_normalized_many  # noqa: E402
from ps2c.sampler_trie import fit_sampler  # noqa: E402
from ps2c.shapelet_transform import create_feature_sets  # noqa: E402

from workloads import Workload  # noqa: E402

MIB = 1024 * 1024


class Tracer:
    """In-memory spans: name, start, end, parent span, workload, cell, round."""

    def __init__(self, workload: str):
        self.workload = workload
        self.round = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, cell: tuple[int, int] | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "round": self.round,
            "cell": list(cell) if cell else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, round_: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["round"] == round_)

    def self_times(self, round_: int) -> dict[str, float]:
        """Per layer (the span name's first part): span time not covered by child spans."""
        spans = [s for s in self.spans if s["round"] == round_]
        child_time = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
        return out

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans))


def config_of(workload: Workload) -> PipelineConfig:
    return PipelineConfig(
        alphas=workload.alphas,
        omegas=workload.omegas,
        l_max=workload.l_max,
        s_min=workload.s_min,
        tau=workload.tau,
        k=workload.k,
        seed=workload.program_seed,
    )


def _class_ids(labels) -> tuple[np.ndarray, np.ndarray]:
    # the same class coding as fit_sampler: sorted label strings
    classes = sorted(set(labels))
    class_of = np.array([classes.index(c) for c in labels], dtype=np.int64)
    return class_of, np.bincount(class_of, minlength=len(classes))


def traced_pass(tracer: Tracer, train_path: Path, test_path: Path, workload: Workload, out_dir: Path) -> dict:
    """One resample-0 run at 1 thread; returns its pattern counts and column tags."""
    config = config_of(workload)
    seed = config.seed  # resample 0: master seed == config seed, original split
    distinct = scored = accepted = inserted = 0
    train_blocks, test_blocks = [], []
    span = tracer.span
    with span("cli.run"):
        with span("dataset.load"):
            train = load_ucr(train_path)
        with span("dataset.load"):
            test = load_ucr(test_path)
        with span("pipeline.fit_transform"):
            with span("dataset.znorm"):
                ztrain = znormalize_dataset(train)
            with span("dataset.znorm"):
                ztest = znormalize_dataset(test)
            class_of, class_sizes = _class_ids(ztrain.labels)
            for alpha in config.alphas:
                for omega in config.omegas:
                    cell = (alpha, omega)
                    with span("pipeline.cell", cell):
                        with span("discretizer.discretize", cell):
                            dtrain = discretize(ztrain, SaxParams(alpha, omega))
                        with span("pattern_index.build", cell):
                            index = PatternIndex.build(dtrain, config.l_max)
                        with span("quality.score", cell):
                            for length in index.lengths():
                                counts = index.presence_counts(length, class_of, class_sizes.size)
                                q = chi2_normalized_many(counts, class_sizes)
                                scored += q.size
                                accepted += int(np.count_nonzero((q >= config.s_min) & (q > 0.0)))
                        distinct += sum(index.pattern_count(n) for n in index.lengths())
                        with span("sampler_trie.fit", cell):
                            trie = fit_sampler(
                                dtrain, index, ztrain.labels, config.l_max, config.s_min, config.tau
                            )
                        inserted += trie.pattern_count
                        rng = np.random.default_rng([seed, alpha, omega])
                        with span("shapelet_transform.features", cell):
                            train_fm, test_fm = create_feature_sets(
                                ztrain, ztest, dtrain, index, trie, config.k, rng
                            )
                        train_blocks.append(train_fm)
                        test_blocks.append(test_fm)
            with span("pipeline.merge"):
                merged_train = merge(train_blocks)
                merged_test = merge(test_blocks)
        with span("forest.fit"):
            model = train_classifier(merged_train, train.labels, seed=seed)
        with span("forest.predict"):
            accuracy = evaluate(model, merged_test, test.labels)
        with span("cli.write"):
            result = ExperimentResult((accuracy,), {}, (), (merged_train.n_columns,), 0.0)
            text = json.dumps(build_report(config, result, 1), indent=2, sort_keys=True) + "\n"
            (out_dir / "report.json").write_text(text)
            merged_train.to_csv(out_dir / "features_train_0.csv", labels=train.labels)
            merged_test.to_csv(out_dir / "features_test_0.csv", labels=test.labels)
    return {
        "distinct": distinct,
        "scored": scored,
        "accepted": accepted,
        "inserted": inserted,
        "tags": merged_train.column_tags(),
    }


def timed_fit_transform(train_path: Path, test_path: Path, workload: Workload, threads: int) -> float:
    train, test = load_ucr(train_path), load_ucr(test_path)
    t0 = time.perf_counter()
    fit_transform(train, test, config_of(workload), n_threads=threads)
    return time.perf_counter() - t0


def memory_pass(train_path: Path, workload: Workload) -> dict[str, float]:
    """tracemalloc peaks (MiB above the start of the call), max over cells."""
    config = config_of(workload)
    ztrain = znormalize_dataset(load_ucr(train_path))
    build_peak = fit_peak = 0.0
    tracemalloc.start()
    try:
        for alpha in config.alphas:
            for omega in config.omegas:
                dtrain = discretize(ztrain, SaxParams(alpha, omega))
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                index = PatternIndex.build(dtrain, config.l_max)
                build_peak = max(build_peak, (tracemalloc.get_traced_memory()[1] - base) / MIB)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fit_sampler(dtrain, index, ztrain.labels, config.l_max, config.s_min, config.tau)
                fit_peak = max(fit_peak, (tracemalloc.get_traced_memory()[1] - base) / MIB)
                del index
    finally:
        tracemalloc.stop()
    return {"pattern_index.build_peak_mib": build_peak, "sampler_trie.fit_peak_mib": fit_peak}
