import contextlib
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from ps2c import cli
from ps2c.cli import build_parser, main
from ps2c.dataset import LabeledDataset
from ps2c.forest import RandomForest
from ps2c.pipeline import CellResult, fit_transform
from ps2c.quality import chi2_table
from ps2c.synthgen import SynthSpec, generate
from support import save_ucr, src_env


@pytest.fixture
def data_paths(tmp_path):
    train = generate(SynthSpec(n_per_class=8, length=48, seed=0))
    test = generate(SynthSpec(n_per_class=8, length=48, seed=1))
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    save_ucr(train, train_path)
    save_ucr(test, test_path)
    return str(train_path), str(test_path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_single_resample(data_paths, capsys, tmp_path):
    train, test = data_paths
    out = tmp_path / "out"
    argv = ["run", train, test, "--seed", "7", "--resamples", "1", "--out", str(out)]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 0
    report = json.loads(stdout)
    assert len(report["accuracies"]) == 1
    assert report["config"]["seed"] == 7
    assert (out / "report.json").read_text() == stdout
    assert (out / "timings.json").exists()
    # the report and timings.json are the only copies of accuracy and times
    assert all(line.startswith("WARNING ") for line in stderr.splitlines())
    assert _run(capsys, argv + ["--quiet"]) == (0, stdout, "")


def test_run_small_grid_column_budget(data_paths, capsys, tmp_path):
    train, test = data_paths
    code, stdout, _ = _run(
        capsys,
        ["run", train, test, "--alphas", "2,3", "--omegas", "2", "--k", "1",
         "--out", str(tmp_path / "o2")],
    )
    assert code == 0
    report = json.loads(stdout)
    assert all(cols <= 2 for cols in report["n_feature_columns"])


def test_run_missing_file_names_path(capsys, tmp_path):
    missing = str(tmp_path / "nope.csv")
    code, _, stderr = _run(capsys, ["run", missing, missing])
    assert code == 1
    assert "nope.csv" in stderr


def test_run_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,x,4\n2,5,6,7\n")
    code, _, stderr = _run(capsys, ["run", str(bad), str(bad)])
    assert code == 1
    assert "non-numeric" in stderr


@pytest.mark.parametrize(
    "flag, value, setting",
    [
        pytest.param("--resamples", "0", "n_resamples", id="0"),
        pytest.param("--resamples", "-2", "n_resamples", id="-2"),
        pytest.param("--threads", "0", "n_threads", id="threads=0"),
        pytest.param("--threads", "-1", "n_threads", id="threads=-1"),
    ],
)
def test_run_resamples_below_one_exit_1(data_paths, capsys, tmp_path, flag, value, setting):
    # run_experiment and fit_transform make these checks before the first write
    train, test = data_paths
    out = tmp_path / "out"
    code, stdout, stderr = _run(capsys, ["run", train, test, flag, value, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert f"error: {setting} must be >= 1, got {value}" in stderr
    assert not out.exists()


def test_run_out_naming_a_file_exit_1(data_paths, capsys, tmp_path):
    train, test = data_paths
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code, stdout, stderr = _run(
        capsys, ["run", train, test, "--alphas", "3", "--omegas", "3", "--out", str(out)]
    )
    assert code == 1
    assert stdout == ""
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "File exists" in errors[0] and str(out) in errors[0]
    assert out.read_text() == "not a directory\n"


def test_run_resample_with_one_training_class_exit_1(capsys, tmp_path):
    # the pooled A has one instance, so resamples 1 and 2 fall back to a
    # plain shuffle, and at seed 0 one leaves both training instances in one class
    rng = np.random.default_rng(0)
    paths = []
    for name, labels in (("train.csv", ("A", "B")), ("test.csv", ("B",) * 5 + ("C",))):
        save_ucr(LabeledDataset(tuple(rng.normal(size=32) for _ in labels), labels), tmp_path / name)
        paths.append(str(tmp_path / name))
    out = tmp_path / "out"
    code, stdout, stderr = _run(
        capsys, ["run", *paths, "--resamples", "3", "--alphas", "3", "--omegas", "2",
                 "--out", str(out), "--emit-features"]
    )
    assert code == 1
    assert stdout == ""
    assert stderr.endswith("error: training split must contain at least two classes\n")
    # resample 0 completed, so --out keeps its feature CSVs, but no
    # report.json or timings.json: those are written after every resample
    names = {path.name for path in out.iterdir()}
    assert {"features_train_0.csv", "features_test_0.csv"} <= names
    assert all(name.startswith("features_") for name in names)


def test_run_emit_features(data_paths, capsys, tmp_path):
    train, test = data_paths
    out = tmp_path / "feat"
    code, _, _ = _run(
        capsys,
        ["run", train, test, "--alphas", "3", "--omegas", "3", "--resamples", "2",
         "--out", str(out), "--emit-features"],
    )
    assert code == 0
    for i in range(2):
        assert (out / f"features_train_{i}.csv").exists()
        assert (out / f"features_test_{i}.csv").exists()


def test_run_no_patterns_exit_2(capsys, tmp_path):
    # identical series in both classes: every cell comes up empty
    base = ",".join(f"{v:.4f}" for v in np.sin(np.linspace(0, 5, 32)))
    path = tmp_path / "flat.csv"
    path.write_text(f"1,{base}\n1,{base}\n2,{base}\n2,{base}\n")
    code, _, stderr = _run(
        capsys,
        ["run", str(path), str(path), "--alphas", "2,3", "--omegas", "2",
         "--out", str(tmp_path / "o3")],
    )
    assert code == 2
    assert "no discriminative patterns" in stderr
    assert "2 cells: no pattern reached s_min" in stderr


def test_run_timings_separate_wall_and_cell_seconds(data_paths, capsys, tmp_path):
    train, test = data_paths
    out = tmp_path / "t2"
    code, _, _ = _run(
        capsys,
        ["run", train, test, "--alphas", "2,3,4", "--omegas", "2,3", "--resamples", "2",
         "--threads", "2", "--out", str(out)],
    )
    assert code == 0
    timings = json.loads((out / "timings.json").read_text())
    cell_seconds = timings.pop("cell_seconds")
    total = timings.pop("total_seconds")
    assert set(timings) == {"znormalize", "grid", "train"}
    assert sum(timings.values()) <= total
    assert set(cell_seconds) == {"discretize", "index", "score", "transform"}


def _assert_same_outputs_at_1_and_2_threads(capsys, tmp_path, paths):
    """`run --resamples 2 --emit-features` writes the same five artifacts at 1 and 2 threads."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        code, _, _ = _run(
            capsys,
            ["run", *paths, "--resamples", "2", "--threads", threads,
             "--out", str(out), "--emit-features"],
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"})
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]


def test_run_threads_1_and_2_byte_identical(data_paths, capsys, tmp_path):
    _assert_same_outputs_at_1_and_2_threads(capsys, tmp_path, data_paths)


def _mixed_length_paths(tmp_path):
    """Train and test files of 36-56 points, shorter than the longest shapelets."""
    rng = np.random.default_rng(3)
    paths = []
    for name, seed in (("train", 0), ("test", 1)):
        full = generate(SynthSpec(n_per_class=8, length=56, seed=seed))
        cut = tuple(x[: int(rng.integers(36, 57))] for x in full.series)
        path = tmp_path / f"{name}.csv"
        save_ucr(LabeledDataset(cut, full.labels), path)
        paths.append(str(path))
    return paths


def test_run_threads_1_and_2_byte_identical_on_mixed_lengths(capsys, tmp_path):
    paths = _mixed_length_paths(tmp_path)
    _assert_same_outputs_at_1_and_2_threads(capsys, tmp_path, paths)


def _many_class_paths(tmp_path, n_classes, n_per_class):
    """Train and test files: the two planted classes plus n_classes - 2 cosine motifs."""
    paths = []
    for name, seed in (("train", 0), ("test", 1)):
        planted = generate(SynthSpec(n_per_class=n_per_class, length=48, seed=seed))
        series, labels = list(planted.series), list(planted.labels)
        rng = np.random.default_rng(seed + 10)
        for j in range(n_classes - 2):
            motif = 3.0 * np.cos(np.linspace(0.0, (j + 1) * np.pi, 16))
            for _ in range(n_per_class):
                x = rng.normal(0.0, 0.1, size=48)
                start = int(rng.integers(0, 48 - 16 + 1))
                x[start : start + 16] += motif
                series.append(x)
                labels.append(str(j + 3))
        path = tmp_path / f"{name}.csv"
        save_ucr(LabeledDataset(tuple(series), tuple(labels)), path)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "n_classes, n_per_class, table_path", [(3, 6, True), (6, 4, False)], ids=["3-class", "6-class"]
)
def test_run_many_classes_end_to_end(
    capsys, tmp_path, monkeypatch, n_classes, n_per_class, table_path
):
    # 3 classes of 6 have 7**3 count vectors, fewer than most cells have
    # patterns, so those cells score by chi2_table; 6 classes of 4 have
    # 5**6, more than any cell has, so every cell scores per length
    paths = _many_class_paths(tmp_path, n_classes, n_per_class)
    tables, predicted = [], []
    monkeypatch.setattr(
        "ps2c.sampler_trie.chi2_table", lambda sizes: tables.append(sizes) or chi2_table(sizes)
    )
    predict = RandomForest.predict

    def spy_predict(self, X):
        labels = predict(self, X)
        predicted.append(set(labels))
        return labels

    monkeypatch.setattr(RandomForest, "predict", spy_predict)
    _assert_same_outputs_at_1_and_2_threads(capsys, tmp_path, paths)
    assert bool(tables) == table_path
    assert len(predicted) == 4 and all(len(classes) >= 3 for classes in predicted)


def test_run_warnings_are_the_same_at_any_thread_count(capsys, tmp_path):
    paths = _mixed_length_paths(tmp_path)
    runs = []
    for threads in ("1", "2", "2", "2"):
        code, _, stderr = _run(
            capsys,
            ["run", *paths, "--resamples", "2", "--threads", threads,
             "--out", str(tmp_path / "out")],
        )
        assert code == 0
        runs.append([line for line in stderr.splitlines() if line.startswith("WARNING ")])
    assert runs[0]  # some shapelets outgrow some series
    assert runs[1:] == [runs[0]] * 3


def test_import_cli_loads_no_scipy():
    code = (
        "import sys, ps2c.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_flag_is_error(data_paths, capsys):
    train, test = data_paths
    with pytest.raises(SystemExit) as exc:
        main(["run", train, test, "--frobnicate"])
    assert exc.value.code == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["discretize"])  # missing required arguments
    assert exc.value.code == 1


def test_discretize_constant_zero_all_c(capsys, tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("1," + ",".join(["0.0"] * 16) + "\n2," + ",".join(["0.0"] * 16) + "\n")
    code, stdout, _ = _run(capsys, ["discretize", str(path), "--alpha", "4", "--omega", "4"])
    assert code == 0
    for line in stdout.strip().splitlines():
        label, string = line.split("\t")
        assert string == "cccc"


def test_discretize_ramp_prefix_suffix(capsys, tmp_path):
    ramp = ",".join(f"{v:.6f}" for v in np.linspace(-1.5, 1.5, 16))
    path = tmp_path / "ramp.csv"
    path.write_text(f"1,{ramp}\n2,{ramp}\n")
    code, stdout, _ = _run(capsys, ["discretize", str(path), "--alpha", "2", "--omega", "2"])
    assert code == 0
    string = stdout.splitlines()[0].split("\t")[1]
    half = len(string) // 2
    assert set(string[:half]) == {"a"}
    assert set(string[half:]) == {"b"}


def test_discretize_invalid_alpha_exit_1(capsys, data_paths):
    train, _ = data_paths
    code, _, stderr = _run(capsys, ["discretize", train, "--alpha", "1", "--omega", "2"])
    assert code == 1
    assert "alpha" in stderr or "alphabet" in stderr


def test_trie_dump_prints_weighted_paths(capsys, data_paths):
    train, _ = data_paths
    code, stdout, _ = _run(
        capsys, ["trie-dump", train, "--alpha", "3", "--omega", "6", "--lmax", "4"]
    )
    assert code == 0
    head = stdout.splitlines()[0]
    assert head.startswith("trie ")
    assert "patterns=" in head
    assert "*" in stdout


def test_trie_dump_impossible_threshold_exit_2(capsys, data_paths):
    train, _ = data_paths
    code, _, _ = _run(
        capsys,
        ["trie-dump", train, "--alpha", "3", "--omega", "6", "--smin", "1.1"],
    )
    assert code == 2


@pytest.mark.parametrize("command", ["run", "trie-dump"])
@pytest.mark.parametrize("setting", ["--tau=nan", "--tau=inf", "--smin=nan", "--smin=inf", "--smin=-1"])
def test_sampler_settings_validated_by_run_and_trie_dump(capsys, data_paths, tmp_path, command, setting):
    # both subcommands check their settings by building a PipelineConfig
    train, test = data_paths
    if command == "run":
        argv = ["run", train, test, "--out", str(tmp_path / "out"), setting]
    else:
        argv = ["trie-dump", train, "--alpha", "3", "--omega", "6", setting]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and "must be finite" in stderr


def test_trie_dump_all_weights_underflow_prints_trie(capsys, tmp_path):
    # weak motifs under unit noise: the best quality stays below 0.2256,
    # whose weight q**(1/0.002) already underflows to 0.0; the cell is
    # still sampled from its log-weights and dumps like any other
    noisy = generate(SynthSpec(n_per_class=20, length=64, noise_sigma=1.0,
                               amplitude=0.5, seed=0))
    path = tmp_path / "noisy.csv"
    save_ucr(noisy, path)
    code, stdout, _ = _run(
        capsys,
        ["trie-dump", str(path), "--alpha", "2", "--omega", "2", "--smin", "0",
         "--tau", "0.002"],
    )
    assert code == 0
    head = stdout.splitlines()[0]
    assert "tau=0.002" in head and "root_weight=0" in head
    assert "*0" in stdout


# Seventeen binary series, classes of 6 and 11: at alpha 2 and omega 1
# each 0/1 step is one symbol. "aaa" occurs in one series of class 1
# and two of class 2, so its q is 1/2772 and q**100 underflows to 0.0.
_GOLDEN_ROWS = """\
1 001011
1 110010
1 110110
1 010000
1 101001
1 101001
2 101001
2 011011
2 110101
2 101101
2 001110
2 101100
2 000011
2 111010
2 010110
2 111110
2 110000
"""

_GOLDEN_DUMPS = {
    "--alpha 2 --omega 1 --lmax 3 --smin 0 --tau 0.01": """\
trie tau=0.01 s_min=0 patterns=12 root_weight=1.32198e-63
  a 3.84322e-70
    a 3.39346e-84 *1.32985e-87
      a 0 *0
      b 3.39213e-84 *3.39213e-84
    b 3.84322e-70 *1.47819e-114
      a 3.84322e-70 *3.84322e-70
      b 3.45115e-139 *3.45115e-139
  b 1.32198e-63
    a 3.39213e-84 *1.83594e-147
      a 3.39213e-84 *3.39213e-84
      b 1.98249e-304 *1.98249e-304
    b 1.32198e-63 *5.22426e-68
      a 1.32193e-63 *1.32193e-63
      b 5.95907e-94 *5.95907e-94
""",
    "--alpha 3 --omega 2 --lmax 3 --smin 0 --tau 2": """\
trie tau=2 s_min=0 patterns=19 root_weight=3.48776
  a 1.49086
    a 0.203631 *0.0189934
      c 0.184637 *0.184637
    b 0.832915 *0.494413
      c 0.338502 *0.338502
    c 0.454317 *0.26968
      b 0.184637 *0.184637
  b 0.887616
    b 0.398854 *0.0435194
      b 0.170697 *0.170697
      c 0.184637 *0.184637
    c 0.488763 *0.119488
      a 0.184637 *0.184637
      b 0.184637 *0.184637
  c 1.10928
    a 0.514432 *0.0635642
      a 0.112367 *0.112367
      b 0.338502 *0.338502
    b 0.225577 *0.206584
      b 0.0189934 *0.0189934
    c 0.369274 *0.184637
      a 0.184637 *0.184637
""",
}


@pytest.mark.parametrize("flags", sorted(_GOLDEN_DUMPS))
def test_trie_dump_golden_output(capsys, tmp_path, flags):
    path = tmp_path / "golden.csv"
    rows = [line.split() for line in _GOLDEN_ROWS.splitlines()]
    path.write_text("".join(",".join([label, *bits]) + "\n" for label, bits in rows))
    code, stdout, _ = _run(capsys, ["trie-dump", str(path), *flags.split()])
    assert code == 0
    assert stdout == _GOLDEN_DUMPS[flags]


def test_bench_two_sizes(capsys):
    argv = ["bench", "--sizes", "40,80", "--lengths", "32", "--seed", "1"]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert len(rows) == 2
    assert [r["n_instances"] for r in rows] == [40, 80]
    for r in rows:
        # fit_transform's own record: the keys of run's timings.json, less
        # train and total_seconds, as no forest is trained
        assert set(r) == {"n_instances", "length", "znormalize", "grid", "cell_seconds"}
        assert set(r["cell_seconds"]) == {"discretize", "index", "score", "transform"}
        assert r["znormalize"] >= 0 and r["grid"] >= 0
        assert all(seconds >= 0 for seconds in r["cell_seconds"].values())
    # the rows are reported on stdout only
    assert all(line.startswith("WARNING ") for line in stderr.splitlines())
    code, stdout, stderr = _run(capsys, argv + ["--quiet"])
    assert code == 0 and len(json.loads(stdout)["rows"]) == 2
    assert stderr == ""


def test_bench_logs_skipped_cells(capsys, caplog, monkeypatch):
    def skipping_fit_transform(*args, **kwargs):
        merged = fit_transform(*args, **kwargs)
        return dataclasses.replace(merged, skipped=(CellResult(9, 7, {}, reason="for the test"),))

    monkeypatch.setattr(cli, "fit_transform", skipping_fit_transform)
    with caplog.at_level("WARNING", logger="ps2c.pipeline"):
        code, _, _ = _run(capsys, ["bench", "--sizes", "8", "--lengths", "32", "--seed", "1"])
    assert code == 0
    records = [r.getMessage() for r in caplog.records if "skipping cell" in r.getMessage()]
    assert records == ["skipping cell alpha=9 omega=7: for the test"]


def test_warnings_print_once_per_call_and_quiet_prints_none(capsys, monkeypatch):
    def skipping_fit_transform(*args, **kwargs):
        merged = fit_transform(*args, **kwargs)
        return dataclasses.replace(merged, skipped=(CellResult(9, 7, {}, reason="for the test"),))

    monkeypatch.setattr(cli, "fit_transform", skipping_fit_transform)
    package = logging.getLogger("ps2c")
    handlers = [logging.NullHandler()]  # a host program's handler: main must leave only it
    monkeypatch.setattr(package, "handlers", list(handlers))
    argv = ["bench", "--sizes", "8", "--lengths", "32", "--seed", "1"]
    warning = "WARNING ps2c.pipeline: skipping cell alpha=9 omega=7: for the test"
    for _ in range(2):  # repeated in-process calls must not stack handlers
        code, _, stderr = _run(capsys, argv)
        assert code == 0
        assert package.handlers == handlers
        assert stderr == warning + "\n"
    code, _, stderr = _run(capsys, argv + ["--quiet"])
    assert code == 0
    assert stderr == ""
    code, _, stderr = _run(capsys, ["bench", "--sizes", "8", "--lengths", "4", "--quiet"])
    assert code == 1 and "length 4 is shorter than motif_length 16" in stderr  # errors still print
    assert package.handlers == handlers
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):  # the way perfbench/child.py calls main
        assert main(argv) == 0
    assert buf.getvalue() == warning + "\n"
    assert capsys.readouterr().err == ""


def test_bench_length_below_motif_exit_1(capsys):
    code, _, stderr = _run(capsys, ["bench", "--sizes", "8", "--lengths", "4"])
    assert code == 1
    assert "length 4 is shorter than motif_length 16" in stderr


def test_bench_threads_is_a_usage_error(capsys):
    # bench times fit_transform at its one-thread default; run's --threads
    # cases above cover the n_threads bound
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "8", "--lengths", "32", "--threads", "2"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ps2c ")
    assert err.endswith("ps2c: error: unrecognized arguments: --threads 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "MISSING", "MISSING"],
        ["discretize", "DATA", "--alpha", "1", "--omega", "2"],
        ["trie-dump", "BAD", "--alpha", "3", "--omega", "2"],
        ["bench", "--sizes", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_module_entry_prints_one_error_line_and_no_traceback(data_paths, tmp_path, argv):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,x,4\n")
    named = {"DATA": data_paths[0], "BAD": str(bad), "MISSING": str(tmp_path / "missing.csv")}
    argv = [named.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "ps2c.cli", *argv], env=src_env(), capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        proc.stderr.strip()
    ]


def test_bench_empty_sizes_exit_1(capsys):
    code, _, _ = _run(capsys, ["bench", "--sizes", ""])
    assert code == 1


def test_help_lists_flags_with_defaults(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--alphas", "--omegas", "--lmax", "--smin", "--tau", "--k",
                 "--seed", "--resamples", "--threads", "--out"):
        assert flag in text
    assert "0.05" in text and "0.5" in text and "20" in text
    assert "(default: None)" not in text
    assert f"one per core by default (default: {os.cpu_count() or 1})" in " ".join(text.split())


@pytest.mark.parametrize("command", ["discretize", "trie-dump", "bench"])
def test_required_flags_print_no_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert "(default: None)" not in capsys.readouterr().out
