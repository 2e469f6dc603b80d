"""Legendrian front diagrams, normal rulings, and skein polynomial invariants.

Each layer is imported the first time a caller touches it (PEP 562), so
``import legfronts`` compiles no submodule, a caller that only lists
rulings never compiles the skein or analysis layer, and one that only
checks connected sums never compiles the skein or Laurent layer.  A
public name is looked up in its defining module on every access and
never kept here, so ``legfronts.X is legfronts.<module>.X`` holds even
while a test or the benchmark's tracer has patched the module.
"""

import sys

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "FrontDiagram", "FrontEvent", "FrontFormatError", "FrontSweep", "InvalidFrontError",
        "NormalFormError", "ResourceLimitError", "ValidationReport", "classical_invariants",
        "components", "connected_sum", "front", "parse_front", "render_front", "sweep_front",
        "validate",
    ), "fronts"),
    **dict.fromkeys(("HomflyProfile", "VZPoly", "ZPoly", "conway", "profile"), "laurent"),
    **dict.fromkeys(("GradingClass", "Ruling", "RulingCensus", "census", "enumerate_rulings"), "rulings"),
    "LinkDiagram": "diagram",
    **dict.fromkeys(("front_to_diagram", "homfly", "kauffman_dubrovnik", "seifert_diagram_genus"), "skein"),
    **dict.fromkeys((
        "AnalysisReport", "analyze", "connsum_check", "genus_tests", "max_tb_certificate",
        "no_ruling_tests", "rho_report", "rutherford_check",
    ), "analysis"),
}
_SUBMODULES = ("analysis", "corpus", "diagram", "fronts", "laurent", "rulings", "skein")

__all__ = sorted([*_HOMES, *_SUBMODULES])


def __getattr__(name):
    home = _HOMES.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which ``python -X importtime``
    # reports; importlib.import_module would hide the module from it
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
