"""The benchmark's traced pass stays in step with the program.

perfbench/tracing.py rebuilds `ps2c run` from the modules' public calls
to time each layer. A change to those calls that breaks the traced pass,
or makes it compute something other than `ps2c run`, fails here rather
than only when the benchmark runs.
"""

from pathlib import Path

from ps2c.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OUTPUTS = ("report.json", "features_train_0.csv", "features_test_0.csv")


def test_traced_pass_writes_the_bytes_of_ps2c_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import Workload, write_inputs

    workload = Workload(
        "tiny", n_per_class=10, min_length=64, max_length=64, s_min=0.05,
        alphas=(3, 4), omegas=(2, 4),
    )
    train, test = write_inputs(workload, 5, tmp_path / "inputs")
    traced = tmp_path / "traced"
    traced.mkdir()
    info = tracing.traced_pass(tracing.Tracer(workload.name), train, test, workload, traced)

    out = tmp_path / "run"
    argv = ["run", str(train), str(test), "--out", str(out), "--threads", "1",
            "--emit-features", "--quiet", *workload.run_flags()]
    assert main(argv) == 0
    capsys.readouterr()
    for name in OUTPUTS:
        assert (traced / name).read_bytes() == (out / name).read_bytes(), name
    assert info["inserted"] == info["accepted"] > 0

    # the benchmark's other two calls into the program
    assert set(tracing.memory_pass(train, workload)) == {
        "pattern_index.build_peak_mib", "sampler_trie.fit_peak_mib"
    }
    assert tracing.timed_fit_transform(train, test, workload, 2) > 0
