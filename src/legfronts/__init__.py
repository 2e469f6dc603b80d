"""Legendrian front diagrams, normal rulings, and skein polynomial invariants."""

from .fronts import (
    FrontDiagram,
    FrontEvent,
    FrontFormatError,
    FrontSweep,
    InvalidFrontError,
    NormalFormError,
    ValidationReport,
    classical_invariants,
    components,
    connected_sum,
    front,
    parse_front,
    render_front,
    sweep_front,
    validate,
)
from .laurent import HomflyProfile, VZPoly, ZPoly, conway, profile
from .rulings import (
    GradingClass,
    Ruling,
    RulingCensus,
    census,
    enumerate_rulings,
)
from .skein import (
    LinkDiagram,
    ResourceLimitError,
    front_to_diagram,
    homfly,
    kauffman_dubrovnik,
    seifert_diagram_genus,
)
from .analysis import (
    AnalysisReport,
    analyze,
    connsum_check,
    genus_tests,
    max_tb_certificate,
    no_ruling_tests,
    rho_report,
    rutherford_check,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
