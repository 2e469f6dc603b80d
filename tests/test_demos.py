"""Byte-for-byte comparison of the demo scripts' output with recorded goldens.

``golden_demos.json`` maps each script under ``demos/`` to the exit code
and standard output it produced when it was recorded.  Each script runs
in a subprocess with ``PYTHONPATH=src``.  To record it again, after a
deliberate change of output:

    python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_demos.json")


def demo_names() -> list[str]:
    return sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run(name: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return {"exit": proc.returncode, "stdout": proc.stdout}


@pytest.mark.parametrize("name", demo_names())
def test_demo_output_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert run(name) == golden[name]


def test_golden_covers_every_demo():
    assert sorted(json.loads(GOLDEN.read_text())) == demo_names()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run(name) for name in demo_names()}, indent=1, sort_keys=True) + "\n")
