"""Self-test of the output checks: each must catch a corrupted output.

    python3 perfbench/selftest.py

Runs `ps2c run` once at 1 and once at 2 threads on a small planted-motif input,
confirms that every check passes on the real outputs, then corrupts one
output at a time and confirms that the matching check reports it.
Exits 0 only when every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import product
from pathlib import Path

import checks
from run import HERE, run_child
from workloads import Workload, write_inputs

SMALL = Workload(
    "selftest", n_per_class=10, min_length=64, max_length=64, s_min=0.05,
    alphas=(3, 4), omegas=(2, 4), k=2,
)


def _rewrite_csv(path: Path, edit) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def _train_strings(train: Path, alpha: int, omega: int) -> list[str]:
    return [checks.sax_string(checks.znorm(x), alpha, omega) for x in checks.load_rows(train)[1]]


def _retag(out: Path, column: int, tag: str) -> None:
    for name in ("features_train_0.csv", "features_test_0.csv"):
        _rewrite_csv(out / name, lambda rows: rows[0].__setitem__(column, tag))


def main() -> int:
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    train, test = write_inputs(SMALL, 0, work)
    one, two = run_child(train, test, work / "run", 0.0, SMALL)["runs"]
    good = Path(one["out"])
    report = (good / "report.json").read_text()
    tags = checks.read_features(good / "features_train_0.csv")[0]
    match = checks.TAG.fullmatch(tags[1])
    alpha, omega, pattern = int(match[1]), int(match[2]), match[3]
    strings = _train_strings(train, alpha, omega)
    letters = "abcdefghijklmnopqrstuvwxyz"[:alpha]

    def features(out: Path) -> list[str]:
        return checks.check_features(train, test, out, SMALL)

    def corrupt(name: str, edit) -> Path:
        out = work / name
        shutil.copytree(good, out)
        edit(out)
        return out

    def perturb_value(out: Path) -> None:
        def edit(rows):
            rows[1][1] = repr(float(rows[1][1]) + 1e-3)
        _rewrite_csv(out / "features_test_0.csv", edit)

    def nonzero_source(out: Path) -> None:
        # below the comparison tolerance, so only the exact-zero rule sees it
        source = next(i for i, s in enumerate(strings) if pattern in s)
        def edit(rows):
            rows[1 + source][2] = repr(1e-12)
        _rewrite_csv(out / "features_train_0.csv", edit)

    absent = next(
        "".join(p) for p in product(letters, repeat=len(pattern)) if not any("".join(p) in s for s in strings)
    )
    labels = checks.load_rows(train)[0]
    weak = next(
        p
        for p in ("".join(t) for t in product(letters, repeat=2))
        if any(p in s for s in strings)
        and checks.normalized_chi2([p in s for s in strings], labels) < SMALL.s_min
    )
    low = json.loads(report)
    low["accuracies"] = [0.9]
    low["mean_accuracy"] = 0.9
    skipped = json.loads(report)
    skipped["skipped_cells"] = [{"alpha": 3, "omega": 2, "reason": "no pattern reached s_min"}]
    narrow = json.loads(report)
    narrow["n_feature_columns"] = [SMALL.k * SMALL.n_cells - 1]
    flipped = bytearray((Path(two["out"]) / "report.json").read_bytes())
    flipped[len(flipped) // 2] ^= 0x01

    cases = [
        ("perturbed feature value", features(corrupt("perturbed", perturb_value)), "!= brute force"),
        ("source row value not exactly 0", features(corrupt("source", nonzero_source)), "!= 0"),
        (
            f"tag with pattern {absent!r} absent from training",
            features(corrupt("absent", lambda out: _retag(out, 1, f"a{alpha}_w{omega}_{absent}"))),
            "occurs in no training string",
        ),
        (
            f"tag with pattern {weak!r} scoring below s_min",
            features(corrupt("weak", lambda out: _retag(out, 1, f"a{alpha}_w{omega}_{weak}"))),
            "not > 0 and >= s_min",
        ),
        ("one-byte report difference", checks.check_identical(report.encode(), bytes(flipped), "report.json"), "differ"),
        ("accuracy below the floor", checks.check_accuracy(json.dumps(low)), "below"),
        ("skipped cell in report", checks.check_report(json.dumps(skipped), 0, SMALL), "skipped cells"),
        ("too few feature columns", checks.check_report(json.dumps(narrow), 0, SMALL), "n_feature_columns"),
        ("non-zero exit code", checks.check_report(report, 2, SMALL), "exited with 2"),
    ]
    baseline = (
        checks.check_report(report, one["exit"], SMALL)
        + checks.check_accuracy(report)
        + checks.check_identical(report.encode(), (Path(two["out"]) / "report.json").read_bytes(), "report.json")
        + features(good)
    )
    ok = not baseline
    print(f"{'ok  ' if ok else 'FAIL'} real outputs pass every check {baseline or ''}")
    for name, problems, expected in cases:
        caught = any(expected in p for p in problems)
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {name}: {problems[:1] or 'not caught'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
