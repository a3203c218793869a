"""The scale-check script's command line."""

import subprocess
import sys

from support import ROOT, src_env

SCRIPT = ROOT / "experiments" / "scale_check.py"


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
