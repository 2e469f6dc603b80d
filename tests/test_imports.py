"""What each entry path loads, and the package's lazily served names.

Each layer of the package is imported the first time a caller touches
it, so a path that never computes a skein polynomial never compiles the
skein layer, and a path that never builds a polynomial never compiles
the Laurent layer.  Each path runs in a fresh interpreter, where
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
TREFOIL = str(SRC / "legfronts" / "data" / "trefoil.front")
UNLINK = str(SRC / "legfronts" / "data" / "unlink2.front")

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


def _run(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter that imports the
    package from ``src/``, followed by a last line that lists, as JSON,
    the package's submodules loaded by then."""
    report = "import json, sys; print(json.dumps(sorted(m[10:] for m in sys.modules if m.startswith('legfronts.'))))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(code: str) -> list[str]:
    """The package's submodules loaded after ``code`` runs in a fresh interpreter."""
    return json.loads(_run(code)[-1])


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import legfronts") == []


def test_the_skein_path_loads_only_its_layers():
    code = (
        "import legfronts as lf\n"
        "d = lf.front_to_diagram(lf.front('L1 L3 X2 X2 X2 R1 R1'))\n"
        "lf.homfly(d), lf.kauffman_dubrovnik(d)"
    )
    assert _loaded(code) == ["diagram", "fronts", "laurent", "skein"]


# the modules each command loads; only the ruling listing builds a
# polynomial, so only it loads the Laurent layer
COMMAND_LAYERS = {
    "rulings": ["cli", "fronts", "laurent", "rulings"],
    "invariants": ["cli", "fronts", "rulings"],
    "validate": ["cli", "fronts", "rulings"],
    "corpus": ["cli", "corpus", "fronts", "rulings"],
    "connsum": ["analysis", "cli", "fronts", "rulings"],
}


@pytest.mark.parametrize("argv", [
    ["rulings", TREFOIL, "--format", "json"],
    ["invariants", TREFOIL],
    ["validate", TREFOIL],
    ["corpus"],
    ["connsum", TREFOIL, UNLINK],
], ids=lambda argv: argv[0])
def test_commands_without_polynomials_never_load_the_skein_layer(argv):
    code = f"from legfronts import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded(code) == COMMAND_LAYERS[argv[0]]


def test_the_census_sum_set_up_loads_only_the_front_and_ruling_layers():
    # the benchmark's own set-up: its factor fronts and their ruling
    # counts, the first pass of pairs and the warm-up connsum checks
    code = (
        f"import sys\nsys.path.insert(0, {str(BENCH)!r})\n"
        "import legfronts, workloads\n"
        "wl = workloads.CensusSum(legfronts, 1, None)\n"
        "next(wl.passes())\n"
        "for item in wl.warmup():\n"
        "    assert wl.op(item).passed"
    )
    assert _loaded(code) == ["analysis", "fronts", "rulings"]


# each public function of analysis, called first in a fresh interpreter;
# all but connsum_check load the skein and Laurent layers
FIRST_CALLS = {
    "rutherford_check": "analysis.rutherford_check(f)",
    "max_tb_certificate": "analysis.max_tb_certificate(f)",
    "rho_report": "analysis.rho_report(f, 0)",
    "genus_tests": "analysis.genus_tests(f)",
    "no_ruling_tests": "analysis.no_ruling_tests(skein.homfly(d), skein.kauffman_dubrovnik(d), 0)",
    "analyze": "analysis.analyze(f, 0)",
    "connsum_check": "analysis.connsum_check(f, fronts.front('L1 L2 X1 X3 R2 R1'))",
}


@pytest.mark.parametrize("name", FIRST_CALLS)
def test_each_analysis_function_works_as_the_first_call(name):
    # analysis reads the skein and Laurent layers off the package, which
    # imports each on first touch; each function runs first in a fresh
    # process, so one that reached a layer before its import would fail
    # here, and the last line pins the layers it loads
    prelude = "from legfronts import analysis, fronts\nf = fronts.front('L1 L3 X2 X2 X2 R1 R1', name='trefoil')\n"
    if name == "no_ruling_tests":
        prelude += "from legfronts import skein\nd = skein.front_to_diagram(f)\n"
    lines = _run(f"{prelude}print(repr({FIRST_CALLS[name]}))")
    namespace = {}
    exec(prelude, namespace)
    assert lines[0] == repr(eval(FIRST_CALLS[name], namespace))
    layers = ["analysis", "fronts", "rulings"] + ["diagram", "laurent", "skein"] * (name != "connsum_check")
    assert json.loads(lines[-1]) == sorted(layers)


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
