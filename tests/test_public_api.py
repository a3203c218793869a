"""The package exports no name that its callers do not use."""

import re
from pathlib import Path

import ps2c

ROOT = Path(__file__).resolve().parent.parent
CALLERS = [
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "README.md",
    ROOT / "src" / "ps2c" / "cli.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def test_every_exported_name_has_a_caller():
    text = "\n".join(path.read_text() for path in CALLERS)
    unused = [name for name in ps2c.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == [], f"exported but used by no demo, README, cli.py or perfbench/: {unused}"
