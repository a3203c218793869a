"""Each script under demos/ runs to completion against the sources in src/."""

import subprocess
import sys

import pytest

from support import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
