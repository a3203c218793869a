"""Each script under demos/ runs to completion against the sources in src/,
and prints the same stdout bytes on every run."""

import subprocess
import sys

import pytest

from support import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # a demo's stdout is deterministic: it prints no wall time
    stdouts = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=src_env(), capture_output=True, timeout=120
        )
        assert result.returncode == 0, result.stderr.decode()
        stdouts.append(result.stdout)
    assert stdouts[0] == stdouts[1]
