"""Grid orchestration: discretize, fit samplers, transform, classify.

Runs the (alpha, omega) grid in two passes. The first fits one sampler
per cell and grounds its K shapelets. The sampler scores the cell's
pattern tables as ``length_tables`` builds them, one length at a time,
so no pattern index is built; the sampler is freed when the cell
returns. The second computes one K-column feature block per cell that
ran, one split at a time: the split's padded rows are built once,
shared by its tasks and freed before the next split's, and consecutive
kernel calls share their work buffers. Blocks are concatenated in
ascending (alpha, omega) order, then the built-in forest is trained
and scored. Every random draw is tied to (seed, alpha, omega) streams
so thread count and completion order cannot change any output value.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .dataset import LabeledDataset, check_aligned, resample_split, znormalize_dataset
from .discretizer import SaxParams, discretize
from .forest import RandomForest
from .pattern_index import check_l_max, length_tables
from .quality import check_settings
from .sampler_trie import fit_sampler
from .shapelet_transform import (
    FeatureMatrix,
    Shapelet,
    _feature_blocks,
    _PaddedRows,
    ground_shapelets,
)

__all__ = [
    "PipelineConfig",
    "CellResult",
    "MergedFeatureSet",
    "ExperimentResult",
    "NoPatternsError",
    "fit_transform",
    "merge",
    "train_classifier",
    "evaluate",
    "run_experiment",
    "build_report",
    "CELL_PHASES",
]

logger = logging.getLogger(__name__)

# Seconds of these phases are summed over cells, so with several threads
# they can exceed the grid's wall time. "index" is the time spent building
# the pattern tables (each ``next`` of the cell's ``length_tables``
# stream) and "score" the rest of ``fit_sampler``, which scores each table
# as it arrives. "transform" is each cell's sampling and grounding in the
# first pass plus the second pass's build of each split's padded rows and
# its kernel calls, as each of its tasks times them.
CELL_PHASES = ("discretize", "index", "score", "transform")


class NoPatternsError(RuntimeError):
    """Raised when every grid cell is skipped; the message counts the reasons."""


@dataclass(frozen=True)
class PipelineConfig:
    """Grid and sampler settings; defaults follow the reference setup."""

    alphas: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    omegas: tuple[int, ...] = (2, 3, 4, 5, 6)
    l_max: int = 20
    s_min: float = 0.05
    tau: float = 0.5
    k: int = 4
    seed: int = 0

    def __post_init__(self):
        alphas = tuple(sorted({int(a) for a in self.alphas}))
        omegas = tuple(sorted({int(w) for w in self.omegas}))
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "omegas", omegas)
        if not alphas:
            raise ValueError("alphas must not be empty")
        if not omegas:
            raise ValueError("omegas must not be empty")
        for alpha in alphas:
            for omega in omegas:
                SaxParams(alpha, omega)
        check_l_max(self.l_max)
        check_settings(self.tau, self.s_min)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {self.seed}")


@dataclass(frozen=True)
class CellResult:
    """One grid cell: its phase seconds and shapelets, or why it was skipped."""

    alpha: int
    omega: int
    seconds: dict[str, float]  # CELL_PHASES of the first pass
    shapelets: tuple[Shapelet, ...] = ()
    reason: str = ""

    def log_skip(self) -> None:
        logger.warning("skipping cell alpha=%d omega=%d: %s", self.alpha, self.omega, self.reason)


@dataclass(frozen=True)
class MergedFeatureSet:
    """Concatenated per-cell feature blocks plus bookkeeping."""

    train: FeatureMatrix
    test: FeatureMatrix
    skipped: tuple[CellResult, ...]
    timings: dict[str, float]  # wall seconds: znormalize, grid
    cell_seconds: dict[str, float]  # CELL_PHASES summed over cells


def _timed(stream, seconds: dict[str, float], phase: str):
    """Yield ``stream``'s items, adding the time of each ``next`` to ``seconds[phase]``."""
    while True:
        t = time.perf_counter()
        item = next(stream, None)
        seconds[phase] += time.perf_counter() - t
        if item is None:
            return
        yield item
        del item  # so the consumer can free it before the next is made


def _run_cell(
    alpha: int,
    omega: int,
    ztrain: LabeledDataset,
    config: PipelineConfig,
    master_seed: int,
) -> CellResult:
    seconds = {phase: 0.0 for phase in CELL_PHASES}
    if omega >= ztrain.min_length:
        reason = f"omega {omega} >= shortest training series length {ztrain.min_length}"
        return CellResult(alpha, omega, seconds, reason=reason)
    t0 = time.perf_counter()
    dtrain = discretize(ztrain, SaxParams(alpha, omega))
    t1 = time.perf_counter()
    seconds["discretize"] = t1 - t0

    tables = _timed(length_tables(dtrain, config.l_max), seconds, "index")
    trie = fit_sampler(dtrain, tables, ztrain.labels, config.l_max, config.s_min, config.tau)
    t2 = time.perf_counter()
    seconds["score"] = t2 - t1 - seconds["index"]
    if trie.is_empty:
        return CellResult(alpha, omega, seconds, reason="no pattern reached s_min")

    # Stream keyed on (seed, alpha, omega): independent of scheduling order.
    rng = np.random.default_rng([master_seed, alpha, omega])
    shapelets = ground_shapelets(ztrain, trie, config.k, rng)
    seconds["transform"] = time.perf_counter() - t2
    return CellResult(alpha, omega, seconds, tuple(shapelets))


def merge(matrices) -> FeatureMatrix:
    """Column-wise concatenation of feature blocks in the given order."""
    mats = list(matrices)
    if not mats:
        raise ValueError("nothing to merge")
    rows = {m.values.shape[0] for m in mats}
    if len(rows) != 1:
        raise ValueError(f"feature blocks disagree on row count: {sorted(rows)}")
    values = np.concatenate([m.values for m in mats], axis=1)
    shapelets = [s for m in mats for s in m.shapelets]
    return FeatureMatrix(values, shapelets)


def fit_transform(
    train: LabeledDataset,
    test: LabeledDataset,
    config: PipelineConfig,
    *,
    n_threads: int = 1,
    master_seed: int | None = None,
) -> MergedFeatureSet:
    """Run every grid cell and concatenate the resulting feature blocks.

    The grid runs in two passes, on one thread pool when ``n_threads``
    > 1. The first runs each cell up to its grounded shapelets, scoring
    each length's pattern table as it is built and dropping it, so no
    table of a cell and no sampler is alive when any distance is
    computed; the training split's PAA memo is cleared after it. The
    second runs one split at a time, train then test: it builds the
    split's padded rows, computes the split's blocks in at most
    ``n_threads`` runs of consecutive cells, one task per run, all
    reading those rows, and frees them before the next split's are
    built. A task's kernel calls share one set of work buffers; the
    blocks are merged in grid order.

    Cells with omega >= the shortest training series' length, or
    whose sampler accepts no pattern, are skipped and returned with
    their reasons for the caller to log (``CellResult.log_skip``);
    NoPatternsError counts the reasons when every cell is. After the
    grid, each shapelet longer than some series of a split is logged
    once per split, in grid order and train before test, so the log is
    the same at any thread count. Test labels are never read: the
    transform touches test series values only.
    """
    if len(set(train.labels)) < 2:
        raise ValueError("training split must contain at least two classes")
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if master_seed is None:
        master_seed = config.seed

    t0 = time.perf_counter()
    ztrain = znormalize_dataset(train)
    ztest = znormalize_dataset(test)
    znorm_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    cells = [(alpha, omega) for alpha in config.alphas for omega in config.omegas]

    def run(cell):
        return _run_cell(*cell, ztrain, config, master_seed)

    def transform(padded, chunk):
        t = time.perf_counter()
        blocks = list(_feature_blocks(padded, (c.shapelets for c in chunk)))
        return blocks, time.perf_counter() - t

    # map cancels the tasks not yet started once one raises
    with ThreadPoolExecutor(max_workers=n_threads) if n_threads > 1 else nullcontext() as pool:
        map_ = pool.map if pool else map
        results = tuple(map_(run, cells))
        ran = [c for c in results if c.shapelets]  # ascending (alpha, omega)
        skipped = tuple(c for c in results if not c.shapelets)
        if not ran:
            reasons = sorted(Counter(c.reason for c in skipped).items())
            counted = "; ".join(f"{n} cell{'s' * (n != 1)}: {r}" for r, n in reasons)
            raise NoPatternsError(f"no discriminative patterns found ({counted})")
        ztrain._memo.clear()  # pass 1's PAA values are not read again
        # one task per run of consecutive cells, at most n_threads runs;
        # a task's kernel calls share one set of work buffers
        size = -(-len(ran) // n_threads)
        chunks = [ran[i : i + size] for i in range(0, len(ran), size)]
        blocks, transform_seconds = [], 0.0
        for split in (ztrain, ztest):
            t = time.perf_counter()
            padded = _PaddedRows.of(split.series)
            transform_seconds += time.perf_counter() - t
            for chunk_blocks, seconds in map_(partial(transform, padded), chunks):
                blocks += chunk_blocks
                transform_seconds += seconds
            del padded  # before the next split's rows are built

    timings = {"znormalize": znorm_seconds, "grid": time.perf_counter() - t1}
    cell_seconds = {phase: sum(c.seconds[phase] for c in results) for phase in CELL_PHASES}
    cell_seconds["transform"] += transform_seconds
    trains, tests = blocks[: len(ran)], blocks[len(ran) :]
    split_lengths = (np.array(ztrain.lengths), np.array(ztest.lengths))
    for cell in ran:
        for lengths in split_lengths:
            for shapelet in cell.shapelets:
                s = shapelet.values.size
                short = int(np.count_nonzero(lengths < s))
                if short:
                    logger.warning(
                        "shapelet length %d exceeds series length in %d of %d series; "
                        "using single head alignment",
                        s,
                        short,
                        lengths.size,
                    )

    return MergedFeatureSet(merge(trains), merge(tests), skipped, timings, cell_seconds)


def train_classifier(features, labels, seed=0) -> RandomForest:
    """Fit the built-in seeded forest on a feature matrix."""
    return RandomForest(seed=seed).fit(features.values, labels)


def evaluate(model, features, labels) -> float:
    """Fraction of correct predictions on a feature matrix."""
    values = features.values
    labels = np.array([str(c) for c in labels])
    check_aligned(labels, values.shape[0])
    return float(np.mean(model.predict(values) == labels))


@dataclass(frozen=True)
class ExperimentResult:
    accuracies: tuple[float, ...]
    timings: dict[str, float]  # wall seconds: znormalize, grid, train
    skipped: tuple[CellResult, ...]
    n_columns: tuple[int, ...]
    total_seconds: float
    cell_seconds: dict[str, float] = field(default_factory=dict)  # CELL_PHASES summed over cells

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies))


def run_experiment(
    train: LabeledDataset,
    test: LabeledDataset,
    config: PipelineConfig,
    n_resamples: int = 1,
    *,
    n_threads: int = 1,
    on_resample=None,
) -> ExperimentResult:
    """Repeat split -> transform -> train -> score over shuffled resamples.

    This function owns the resample schedule: resample 0 runs on the
    caller's own ``train`` and ``test``, and resample i >= 1 on
    ``resample_split(train, test, config.seed + i)``. The same
    per-resample seed drives pattern sampling and the classifier, so the
    accuracy vector is reproducible byte for byte. Each skipped cell is
    logged once, on the first resample that skips it. After each
    resample, ``on_resample(i, train_i, test_i, merged)`` receives its
    index, its two splits and its ``MergedFeatureSet``.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    t_start = time.perf_counter()
    timings = {"znormalize": 0.0, "grid": 0.0, "train": 0.0}
    cell_seconds = {phase: 0.0 for phase in CELL_PHASES}
    accuracies: list[float] = []
    widths: list[int] = []
    skipped_union: dict[tuple[int, int], CellResult] = {}

    for i in range(n_resamples):
        master = config.seed + i
        train_i, test_i = (train, test) if i == 0 else resample_split(train, test, master)
        merged = fit_transform(train_i, test_i, config, n_threads=n_threads, master_seed=master)
        t_fit = time.perf_counter()
        model = train_classifier(merged.train, train_i.labels, seed=master)
        accuracy = evaluate(model, merged.test, test_i.labels)
        timings["train"] += time.perf_counter() - t_fit

        for phase, seconds in merged.timings.items():
            timings[phase] += seconds
        for phase, seconds in merged.cell_seconds.items():
            cell_seconds[phase] += seconds
        accuracies.append(accuracy)
        widths.append(merged.train.n_columns)
        for cell in merged.skipped:
            key = (cell.alpha, cell.omega)
            if key not in skipped_union:
                cell.log_skip()
                skipped_union[key] = cell
        if on_resample is not None:
            on_resample(i, train_i, test_i, merged)

    skipped = tuple(skipped_union[key] for key in sorted(skipped_union))
    total = time.perf_counter() - t_start
    return ExperimentResult(
        tuple(accuracies), timings, skipped, tuple(widths), total, cell_seconds
    )


def build_report(config: PipelineConfig, result: ExperimentResult, n_resamples: int) -> dict:
    """Deterministic run summary: no wall times, byte-stable across runs."""
    return {
        "config": asdict(config),
        "n_resamples": n_resamples,
        "accuracies": list(result.accuracies),
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
        "n_feature_columns": list(result.n_columns),
        "skipped_cells": [
            {"alpha": c.alpha, "omega": c.omega, "reason": c.reason} for c in result.skipped
        ],
    }
