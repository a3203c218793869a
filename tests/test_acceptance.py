"""Acceptance gate: one test per release criterion, one PASS line each.

Criterion 7 needs the Coffee dataset from the public UCR archive and is
skipped when the files are not present (set PS2C_UCR_DIR or drop the
files under ./data).
"""

import json
import os
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ps2c.dataset import load_ucr, znormalize_dataset
from ps2c.discretizer import DiscretizedDataset, SaxParams, discretize
from ps2c.pattern_index import PatternIndex
from ps2c.pipeline import PipelineConfig, fit_transform, run_experiment
from ps2c.quality import chi2_normalized_many, scale
from ps2c.sampler_trie import fit_sampler
from ps2c.synthgen import SynthSpec, generate
from support import save_ucr, src_env

LETTERS = string.ascii_lowercase


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def _strings_dataset(strings, alpha):
    codes = tuple(
        np.array([LETTERS.index(ch) for ch in s], dtype=np.uint8) for s in strings
    )
    return DiscretizedDataset(SaxParams(alpha, 1), codes)


def _oracle_fit(strings, labels, l_max, s_min, tau):
    """Naive enumerate-and-score oracle, independent of the library path.

    Returns (accepted pattern -> scaled weight, path prefix -> edge weight).
    """
    present = {}
    for i, s in enumerate(strings):
        for l in range(2, l_max + 1):
            for off in range(len(s) - l + 1):
                present.setdefault(s[off : off + l], set()).add(i)

    classes = sorted(set(labels))
    n = len(labels)
    accepted = {}
    for pattern, instances in present.items():
        # Pearson chi2 over the |C| x 2 presence table, written out longhand
        table = np.zeros((len(classes), 2))
        for i, label in enumerate(labels):
            table[classes.index(label), 0 if i in instances else 1] += 1
        col = table.sum(axis=0)
        row = table.sum(axis=1)
        if col.min() == 0:
            q = 0.0
        else:
            expected = np.outer(row, col) / n
            q = float(((table - expected) ** 2 / expected).sum()) / n
            q = min(q, 1.0)
        if q >= s_min and q > 0.0:
            accepted[pattern] = q ** (1.0 / tau)

    edges = {}
    for pattern, w in accepted.items():
        for i in range(1, len(pattern) + 1):
            edges[pattern[:i]] = edges.get(pattern[:i], 0.0) + w
    return accepted, edges


def test_criterion_1_trie_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        alpha = int(rng.integers(2, 5))
        strings = [
            "".join(
                LETTERS[c] for c in rng.integers(0, alpha, size=rng.integers(2, 31))
            )
            for _ in range(n)
        ]
        labels = [str(v) for v in rng.integers(0, int(rng.integers(2, 4)), size=n)]
        if len(set(labels)) < 2:
            labels[0] = "0" if labels[0] != "0" else "1"
        l_max = int(rng.integers(2, 7))
        s_min = float(rng.choice([0.0, 0.05, 0.2]))
        tau = float(rng.choice([0.33, 0.5, 1.0]))

        ds = _strings_dataset(strings, alpha)
        index = PatternIndex.build(ds, l_max)
        trie = fit_sampler(ds, index, labels, l_max, s_min, tau)
        accepted, edges = _oracle_fit(strings, labels, l_max, s_min, tau)

        got_patterns = dict(trie.iter_patterns())
        assert set(got_patterns) == set(accepted)
        for pattern, weight in accepted.items():
            assert got_patterns[pattern] == pytest.approx(weight, abs=1e-9)
        got_edges = trie.edge_weights()
        assert set(got_edges) == set(edges)
        for prefix, weight in edges.items():
            assert got_edges[prefix] == pytest.approx(weight, abs=1e-9)
        checked += 1
    _report(1, f"{checked} random datasets, pattern sets exact, edge weights within 1e-9")


def test_criterion_2_sampling_distribution():
    fixtures = [
        (["abab", "abba", "cdcd", "cddc", "acac", "bdbd"],
         ["1", "1", "2", "2", "1", "2"], 4, 2, 0.05, 0.5),
        (["aabb", "abab", "bbaa", "baba", "aabb", "bbab"],
         ["1", "1", "2", "2", "1", "2"], 2, 4, 0.0, 1.0),
    ]
    n_draws = 200_000
    for strings, labels, alpha, l_max, s_min, tau in fixtures:
        ds = _strings_dataset(strings, alpha)
        index = PatternIndex.build(ds, l_max)
        trie = fit_sampler(ds, index, labels, l_max, s_min, tau)
        patterns = [p for p, _ in trie.iter_patterns()]
        assert 2 <= len(patterns) <= 20

        probs = {p: trie.path_probability(p) for p in patterns}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

        rng = np.random.default_rng(99)
        counts = dict.fromkeys(patterns, 0)
        for _ in range(n_draws):
            counts[trie.sample(rng)] += 1
        worst = max(
            abs(counts[p] / n_draws - probs[p]) for p in patterns
        )
        assert worst <= 0.01, f"worst frequency deviation {worst}"
    _report(
        2,
        f"{len(fixtures)} fitted tries, {n_draws} draws each, max |freq-prob| <= 0.01, "
        "probabilities sum to 1 +/- 1e-9",
    )


def test_criterion_3_chi2_worked_example():
    # present in 13 of class 1's 14 instances and in none of class 2's 14
    sizes = np.array([14, 14])
    q = float(chi2_normalized_many(np.array([[13, 0]]), sizes)[0])
    assert q == pytest.approx(0.867, abs=1e-3)
    w = scale(q, 0.33)
    assert w == pytest.approx(0.65, abs=1e-2)

    perfect = float(chi2_normalized_many(np.array([[14, 0]]), sizes)[0])
    assert perfect == 1.0
    assert scale(perfect, 0.33) == 1.0
    _report(
        3,
        f"13-vs-0 in 14/14: normalized chi2 {q:.4f} (0.867 +/- 0.001), "
        f"scaled {w:.4f} (0.65 +/- 0.01); all-of-one-class: exactly 1.0",
    )


def test_criterion_4_planted_shapelet_accuracy():
    start = time.perf_counter()
    train = generate(SynthSpec(n_per_class=50, length=128, noise_sigma=0.1,
                               amplitude=3.0, seed=0))
    test = generate(SynthSpec(n_per_class=50, length=128, noise_sigma=0.1,
                              amplitude=3.0, seed=1))
    result = run_experiment(train, test, PipelineConfig(), n_resamples=10)
    elapsed = time.perf_counter() - start
    assert result.mean_accuracy >= 0.95, result.accuracies
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    _report(
        4,
        f"mean accuracy {result.mean_accuracy:.4f} >= 0.95 over 10 resamples "
        f"in {elapsed:.1f}s (< 120s)",
    )


# Passes over the bench grid; each point's cost is its minimum over them.
# With 3 passes one run in 4 still reached a ratio of 2.41.
BENCH_REPEATS = 5


def test_criterion_5_complexity_scaling(capsys):
    from ps2c.cli import main

    # One pass times each point once, and a ratio of two single timings
    # carries the noise of both: on a shared 2-core machine one point's
    # cost varied by up to 26% between passes (in CPU time as much as in
    # wall time), and single-pass ratios ranged from 1.48 to 2.55. The
    # first point of a fresh process also pays first-use costs (2.0 s
    # against 1.6-1.7 s later at N=200, n=128). Noise only adds time, so
    # a warm-up call and the per-point minimum over repeated passes
    # measure the cost itself.
    start = time.perf_counter()
    assert main(["bench", "--sizes", "200", "--lengths", "128", "--seed", "0"]) == 0
    capsys.readouterr()
    cost = {}
    for _ in range(BENCH_REPEATS):
        code = main(["bench", "--sizes", "200,400", "--lengths", "128,256", "--seed", "0"])
        assert code == 0
        for r in json.loads(capsys.readouterr().out)["rows"]:
            point = (r["n_instances"], r["length"])
            seconds = r["znormalize"] + sum(r["cell_seconds"].values())
            cost[point] = min(cost.get(point, seconds), seconds)
    elapsed = time.perf_counter() - start
    ratios = {
        "N 200->400 at n=128": cost[(400, 128)] / cost[(200, 128)],
        "N 200->400 at n=256": cost[(400, 256)] / cost[(200, 256)],
        "n 128->256 at N=200": cost[(200, 256)] / cost[(200, 128)],
        "n 128->256 at N=400": cost[(400, 256)] / cost[(400, 128)],
    }
    for name, ratio in ratios.items():
        assert ratio <= 2.5, f"{name}: ratio {ratio:.2f} > 2.5"
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    detail = ", ".join(f"{k} x{v:.2f}" for k, v in ratios.items())
    _report(
        5,
        f"all doubling ratios <= 2.5 ({detail}, per-point minimum of "
        f"{BENCH_REPEATS} passes after a warm-up) in {elapsed:.1f}s (< 300s)",
    )


def _cli_run(args, out_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "ps2c.cli", "run", *args, "--out", str(out_dir),
         "--emit-features"],
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    artifacts = {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix == ".csv"
    }
    artifacts["report.json"] = (out_dir / "report.json").read_bytes()
    artifacts["stdout"] = proc.stdout.encode()
    return artifacts


def test_criterion_6_run_determinism(tmp_path):
    train = generate(SynthSpec(n_per_class=10, length=64, seed=0))
    test = generate(SynthSpec(n_per_class=10, length=64, seed=1))
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    save_ucr(train, train_path)
    save_ucr(test, test_path)

    base = [str(train_path), str(test_path), "--resamples", "2", "--seed", "5"]
    runs = {
        "t1_a": _cli_run(base + ["--threads", "1"], tmp_path / "o1"),
        "t1_b": _cli_run(base + ["--threads", "1"], tmp_path / "o2"),
        "t3_a": _cli_run(base + ["--threads", "3"], tmp_path / "o3"),
        "t3_b": _cli_run(base + ["--threads", "3"], tmp_path / "o4"),
    }
    assert runs["t1_a"] == runs["t1_b"]
    assert runs["t3_a"] == runs["t3_b"]
    assert runs["t1_a"] == runs["t3_a"]  # thread count cannot leak into output
    n_files = len(runs["t1_a"])
    _report(
        6,
        f"{n_files} artifacts byte-identical across repeated runs at "
        "--threads 1 and --threads 3",
    )


def _find_coffee():
    roots = []
    if os.environ.get("PS2C_UCR_DIR"):
        roots.append(Path(os.environ["PS2C_UCR_DIR"]))
    roots += [Path("data"), Path("data/Coffee")]
    names = [
        ("Coffee_TRAIN.tsv", "Coffee_TEST.tsv"),
        ("Coffee_TRAIN.txt", "Coffee_TEST.txt"),
        ("Coffee/Coffee_TRAIN.tsv", "Coffee/Coffee_TEST.tsv"),
        ("Coffee/Coffee_TRAIN.txt", "Coffee/Coffee_TEST.txt"),
    ]
    for root in roots:
        for train_name, test_name in names:
            train, test = root / train_name, root / test_name
            if train.exists() and test.exists():
                return train, test
    return None


def test_criterion_7_coffee_smoke():
    found = _find_coffee()
    if found is None:
        pytest.skip("Coffee dataset not present (set PS2C_UCR_DIR or ./data)")
    train = load_ucr(found[0])
    test = load_ucr(found[1])
    assert train.n_instances == 28

    ztrain = znormalize_dataset(train)
    d = discretize(ztrain, SaxParams(6, 4))
    index = PatternIndex.build(d, 20)
    trie = fit_sampler(d, index, ztrain.labels, 20, 0.05, 0.33)
    top = [p for p, w in trie.iter_patterns() if w == pytest.approx(1.0, abs=1e-9)]
    assert top, "no terminal path with scaled weight 1.0 at alpha=6 omega=4 tau=0.33"

    result = run_experiment(train, test, PipelineConfig(), n_resamples=1)
    assert result.accuracies[0] >= 0.90
    _report(
        7,
        f"weight-1.0 patterns {top[:3]}..., original-split accuracy "
        f"{result.accuracies[0]:.4f} >= 0.90",
    )


def test_criterion_8_leakage_guard():
    train = generate(SynthSpec(n_per_class=15, length=96, seed=4))
    test = generate(SynthSpec(n_per_class=15, length=96, seed=5))
    config = PipelineConfig()
    merged = fit_transform(train, test, config)

    rng = np.random.default_rng(0)
    perm = rng.permutation(test.n_instances)
    scrambled = type(test)(test.series, tuple(test.labels[i] for i in perm))
    merged_scrambled = fit_transform(train, scrambled, config)

    assert np.array_equal(merged.test.values, merged_scrambled.test.values)
    assert np.array_equal(merged.train.values, merged_scrambled.train.values)
    assert merged.train.column_tags() == merged_scrambled.train.column_tags()
    _report(8, "permuting all test labels leaves both feature matrices identical")
