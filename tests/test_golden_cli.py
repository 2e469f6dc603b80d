"""Byte-for-byte comparison of CLI JSON output with recorded golden files.

``golden_cli.json`` maps each command line to the exit code and standard
output it produced when it was recorded.  To record it again, after a
deliberate change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from legfronts import cli, components, corpus

GOLDEN = Path(__file__).with_name("golden_cli.json")
SUBCOMMANDS = ("tests", "rulings", "invariants", "rutherford", "rho", "homfly", "kauffman", "conway")


def command_lines() -> list[str]:
    lines = []
    for name in corpus.corpus_names():
        reversals = [""]
        if components(corpus.load(name)).num_components > 1:
            reversals.append(" --reverse-component=0")
        for sub in SUBCOMMANDS:
            lines += [f"{sub} {name} --format=json{rev}" for rev in reversals]
    return lines


def run(line: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("line", command_lines())
def test_cli_output_matches_golden(line):
    golden = json.loads(GOLDEN.read_text())
    assert run(line) == golden[line]


def test_golden_covers_every_command_line():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(command_lines())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({line: run(line) for line in command_lines()}, indent=1, sort_keys=True) + "\n")
