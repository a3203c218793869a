"""Independent checks on the outputs of `ps2c run`.

Nothing here imports ps2c. SAX strings, chi-square scores, shapelet
grounding and min-distance features are recomputed from the input files
and the README's rules, and compared with what the program wrote. Each
check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

from workloads import Workload

ACCURACY_FLOOR = 0.95  # acceptance criterion 4's floor for planted motifs
FEATURE_RTOL = 1e-8
# The program compares float64 scores with s_min; an exact score this
# close below it may still round up to it.
S_MIN_SLACK = 1e-12

TAG = re.compile(r"a(\d+)_w(\d+)_([a-z]+)")


def load_rows(path: Path) -> tuple[list[str], list[np.ndarray]]:
    """Labels and raw values of a comma-separated UCR file."""
    labels, series = [], []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            fields = line.split(",")
            labels.append(fields[0])
            series.append(np.array([float(v) for v in fields[1:]]))
    return labels, series


def znorm(x: np.ndarray) -> np.ndarray:
    sigma = x.std()
    return np.zeros_like(x) if sigma < 1e-8 else (x - x.mean()) / sigma


def paa(x: np.ndarray, omega: int) -> np.ndarray:
    """round(n/omega) window means, half away from zero; the last window takes the rest."""
    p = (2 * x.size + omega) // (2 * omega)
    head = x[: (p - 1) * omega].reshape(p - 1, omega).mean(axis=1)
    return np.append(head, x[(p - 1) * omega :].mean())


def breakpoints(alpha: int) -> np.ndarray:
    dist = NormalDist()
    return np.array([dist.inv_cdf(j / alpha) for j in range(1, alpha)])


def sax_string(x: np.ndarray, alpha: int, omega: int) -> str:
    symbols = np.searchsorted(breakpoints(alpha), paa(x, omega), side="right")
    return "".join(chr(ord("a") + int(s)) for s in symbols)


def normalized_chi2(presence: list[bool], labels: list[str]) -> Fraction:
    """Exact Pearson chi-square of the presence-by-class table over N."""
    n = len(labels)
    classes = sorted(set(labels))
    sizes = [labels.count(c) for c in classes]
    present = [sum(1 for p, c in zip(presence, labels) if p and c == cls) for cls in classes]
    total_present = sum(present)
    if total_present in (0, n):
        return Fraction(0)
    stat = Fraction(0)
    for size, hits in zip(sizes, present):
        for observed, column in ((hits, total_present), (size - hits, n - total_present)):
            expected = Fraction(size * column, n)
            stat += (observed - expected) ** 2 / expected
    return min(stat / n, Fraction(1))


def min_distances(series: list[np.ndarray], shapelet: np.ndarray) -> np.ndarray:
    """Brute-force min over alignments of mean((window - shapelet)**2).

    A shapelet longer than a series is compared on the single alignment
    of the series with the shapelet's head (the README's rule).
    """
    s = shapelet.size
    lengths = np.array([x.size for x in series])
    padded = np.full((len(series), lengths.max()), np.nan)
    for i, x in enumerate(series):
        padded[i, : x.size] = x
    out = np.full(len(series), np.inf)
    for offset in range(lengths.max() - s + 1):
        # windows running past a series' end are NaN, which fmin skips
        out = np.fmin(out, ((padded[:, offset : offset + s] - shapelet) ** 2).mean(axis=1))
    for i in np.nonzero(lengths < s)[0]:
        out[i] = ((series[i] - shapelet[: lengths[i]]) ** 2).mean()
    return out


def read_features(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Column tags, row labels and values of an --emit-features CSV."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    if header[0] != "label":
        raise ValueError(f"{path}: first column is {header[0]!r}, expected 'label'")
    rows = [line.split(",") for line in lines[1:]]
    values = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(len(rows), -1)
    return header[1:], [row[0] for row in rows], values


def check_report(report_text: str, exit_code: int, workload: Workload) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"ps2c run exited with {exit_code}")
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return problems + [f"report.json is not JSON: {exc}"]
    if report.get("skipped_cells") != []:
        problems.append(f"skipped cells: {report.get('skipped_cells')}")
    expected = [workload.k * workload.n_cells]
    if report.get("n_feature_columns") != expected:
        problems.append(f"n_feature_columns {report.get('n_feature_columns')} != {expected}")
    return problems


def check_accuracy(report_text: str) -> list[str]:
    report = json.loads(report_text)
    low = [a for a in report["accuracies"] + [report["mean_accuracy"]] if not a >= ACCURACY_FLOOR]
    return [f"accuracy {low} below {ACCURACY_FLOOR}"] if low else []


def check_identical(a: bytes, b: bytes, what: str) -> list[str]:
    return [] if a == b else [f"{what} differ"]


def check_features(train_path: Path, test_path: Path, out_dir: Path, workload: Workload) -> list[str]:
    """Sampled patterns and feature values of resample 0, recomputed."""
    train_labels, train_raw = load_rows(train_path)
    test_labels, test_raw = load_rows(test_path)
    ztrain = [znorm(x) for x in train_raw]
    ztest = [znorm(x) for x in test_raw]
    tags, got_train_labels, got_train = read_features(out_dir / "features_train_0.csv")
    test_tags, got_test_labels, got_test = read_features(out_dir / "features_test_0.csv")

    problems = []
    if test_tags != tags:
        problems.append("train and test feature CSVs disagree on column tags")
    if got_train_labels != train_labels or got_test_labels != test_labels:
        problems.append("feature CSV rows are not the input rows in order")
    if len(tags) != workload.k * workload.n_cells:
        problems.append(f"{len(tags)} feature columns, expected {workload.k * workload.n_cells}")
    if problems:
        return problems

    strings: dict[tuple[int, int], list[str]] = {}
    for j, tag in enumerate(tags):
        match = TAG.fullmatch(tag)
        if match is None:
            problems.append(f"malformed column tag {tag!r}")
            continue
        alpha, omega, pattern = int(match[1]), int(match[2]), match[3]
        if (alpha, omega) not in strings:
            strings[alpha, omega] = [sax_string(x, alpha, omega) for x in ztrain]
        cell = strings[alpha, omega]
        presence = [pattern in s for s in cell]
        if not any(presence):
            problems.append(f"{tag}: pattern occurs in no training string")
            continue
        q = normalized_chi2(presence, train_labels)
        if not (q > 0 and q >= workload.s_min - S_MIN_SLACK):
            problems.append(f"{tag}: normalised chi-square {float(q):.6g} not > 0 and >= s_min")

        # ground at the earliest occurrence: lowest instance, then lowest offset
        source = presence.index(True)
        offset = cell[source].index(pattern)
        x = ztrain[source]
        shapelet = x[offset * omega : min((offset + len(pattern)) * omega, x.size)]
        for split, series, got in (("train", ztrain, got_train), ("test", ztest, got_test)):
            want = min_distances(series, shapelet)
            bad = ~np.isclose(got[:, j], want, rtol=FEATURE_RTOL, atol=FEATURE_RTOL)
            if bad.any():
                i = int(np.nonzero(bad)[0][0])
                problems.append(
                    f"{tag}: {split} row {i} value {float(got[i, j])!r} != brute force {float(want[i])!r} "
                    f"({int(bad.sum())} rows differ)"
                )
        if got_train[source, j] != 0.0:
            problems.append(f"{tag}: source row {source} value {float(got_train[source, j])!r} != 0")
    return problems
