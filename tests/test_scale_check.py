"""The scale-check script's command line and its pair counts."""

import importlib.util
import json
import subprocess
import sys

from support import ROOT, src_env

SCRIPT = ROOT / "experiments" / "scale_check.py"


def _script():
    spec = importlib.util.spec_from_file_location("scale_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_below_one_is_a_usage_error():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--pairs", "0"],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    # each child run prints one line to stdout; none ran
    assert proc.stdout == ""
    assert "--pairs must be >= 1, got 0" in proc.stderr


def test_a_tie_counts_for_neither_tree():
    lower_pairs = _script().lower_pairs
    assert lower_pairs([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 4.0]) == {"parent": 1, "change": 1}
    assert lower_pairs([5.0], [5.0]) == {"parent": 0, "change": 0}
    assert lower_pairs([], []) == {"parent": 0, "change": 0}


def test_summary_counts_faster_and_lower_peak_pairs(monkeypatch, capsys, tmp_path):
    # canned runs in the order main asks for them: pairs alternate which
    # tree goes first, and no child interpreter is started
    script = _script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    results = {
        "parent": iter([(2.0, 100.0), (3.0, 100.0), (1.0, 90.0)]),
        "change": iter([(1.0, 99.0), (3.0, 101.0), (2.0, 90.0)]),
    }
    sides = {parent: "parent", change: "change"}
    order = []

    def canned(src, args):
        order.append(sides[src])
        seconds, peak = next(results[sides[src]])
        return {"package": str(src / "ps2c" / "__init__.py"), "seconds": seconds, "peak_rss_mib": peak}

    monkeypatch.setattr(script, "run_once", canned)
    assert script.main([str(parent), str(change), "--pairs", "3"]) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("{") :])
    assert summary["faster_pairs"] == {"parent": 1, "change": 1}
    assert summary["lower_peak_rss_pairs"] == {"parent": 1, "change": 1}
    assert summary["parent"]["seconds"]["median"] == 2.0
