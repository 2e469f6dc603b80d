"""What each entry path loads, and the package's lazily served names.

Each layer of the package is imported the first time a caller touches
it, so a path that never computes a skein polynomial never compiles the
skein layer.  Each path runs in a fresh interpreter, where
``sys.modules`` holds only what that path imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legfronts
from legfronts import fronts, skein

SRC = Path(__file__).resolve().parent.parent / "src"
TREFOIL = str(SRC / "legfronts" / "data" / "trefoil.front")

PUBLIC = [
    "AnalysisReport", "FrontDiagram", "FrontEvent", "FrontFormatError", "FrontSweep", "GradingClass",
    "HomflyProfile", "InvalidFrontError", "LinkDiagram", "NormalFormError", "ResourceLimitError",
    "Ruling", "RulingCensus", "VZPoly", "ValidationReport", "ZPoly", "analysis", "analyze", "census",
    "classical_invariants", "components", "connected_sum", "connsum_check", "conway", "corpus",
    "diagram", "enumerate_rulings", "front", "front_to_diagram", "fronts", "genus_tests", "homfly",
    "kauffman_dubrovnik", "laurent", "max_tb_certificate", "no_ruling_tests", "parse_front",
    "profile", "render_front", "rho_report", "rulings", "rutherford_check", "seifert_diagram_genus",
    "skein", "sweep_front", "validate",
]


def _loaded(code: str) -> list[str]:
    """The package's submodules loaded after ``code`` runs in a fresh
    interpreter that imports the package from ``src/``."""
    report = "import json, sys; print(json.dumps(sorted(m[10:] for m in sys.modules if m.startswith('legfronts.'))))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import legfronts") == []


def test_the_skein_path_loads_only_its_layers():
    code = (
        "import legfronts as lf\n"
        "d = lf.front_to_diagram(lf.front('L1 L3 X2 X2 X2 R1 R1'))\n"
        "lf.homfly(d), lf.kauffman_dubrovnik(d)"
    )
    assert _loaded(code) == ["diagram", "fronts", "laurent", "skein"]


@pytest.mark.parametrize("argv", [
    ["rulings", TREFOIL, "--format", "json"],
    ["invariants", TREFOIL],
    ["validate", TREFOIL],
    ["corpus"],
], ids=lambda argv: argv[0])
def test_commands_without_polynomials_never_load_the_skein_layer(argv):
    expected = ["cli", "fronts", "laurent", "rulings"] + ["corpus"] * (argv == ["corpus"])
    code = f"from legfronts import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded(code) == sorted(expected)


def test_public_names_are_served_through_their_modules(monkeypatch):
    assert legfronts.__all__ == PUBLIC
    namespace = {}
    exec("from legfronts import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(legfronts))
    with pytest.raises(AttributeError, match="module 'legfronts' has no attribute 'no_such_name'"):
        legfronts.no_such_name
    assert legfronts.ResourceLimitError is skein.ResourceLimitError is fronts.ResourceLimitError
    assert legfronts.homfly is skein.homfly
    # looked up on every access, so a patched module shows through
    monkeypatch.setattr(fronts, "front", lambda text: text)
    assert legfronts.front is fronts.front and legfronts.front("x") == "x"
    monkeypatch.undo()
    assert legfronts.front("L1 R1").num_crossings == 0
