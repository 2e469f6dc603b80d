"""Machine checks tying ruling censuses to polynomial invariants.

The headline identity, due to Rutherford, says that the coefficient of
v^(tb+1) in the Homfly polynomial of a Legendrian link equals the
2-graded ruling polynomial of any front for it, and likewise the
v^(tb+1) slice of the Dubrovnik-Kauffman polynomial counts ungraded
rulings by Euler characteristic.  This module evaluates both sides on a
given front, certifies maximality of tb, reports the ruling genus bound
read off the Homfly polynomial, and runs the no-ruling and genus tests
that the polynomial data supports.  ``connsum_check`` sweeps a front
splice and its two summands and hands the three records to the rulings
layer's splice check.

Every check reads its inputs from one context per (front, reverse): the
sweep record, the link diagram, Homfly and its degree profile, Kauffman,
the ruling census and the no-ruling flags for the context's Khovanov
bound, each computed on first use and then kept for the context's
lifetime.
``analyze`` runs all checks on one context, so each quantity is computed
once per report; a standalone check builds a context of its own.

The module imports only the front and ruling layers.  It reads the
skein and Laurent layers as ``legfronts.skein`` and ``legfronts.laurent``,
which the package imports on first touch, so ``connsum_check``, which
builds no polynomial, never compiles them.  Annotations that name their
types are strings for that reason.
"""

from functools import cached_property
from typing import NamedTuple

import legfronts

from . import fronts, rulings

FIRED = "fired"
QUIET = "quiet"
NOT_EVALUATED = "not_evaluated"


class _Context:
    """The quantities the checks read for one (front, reverse), each
    computed on first use and at most once."""

    def __init__(self, diagram: fronts.FrontDiagram, max_crossings: int, reverse, khovanov_bound=None):
        self.diagram, self.max_crossings, self.reverse = diagram, max_crossings, reverse
        self.khovanov_bound = khovanov_bound

    @cached_property
    def sweep(self) -> fronts.FrontSweep:
        return fronts.sweep_front(self.diagram, self.reverse)

    @cached_property
    def link(self) -> "legfronts.skein.LinkDiagram":
        return legfronts.skein._resolved(self.sweep)

    @cached_property
    def homfly(self) -> "legfronts.laurent.VZPoly":
        return legfronts.skein.homfly(self.link, self.max_crossings)

    @cached_property
    def homfly_profile(self) -> "legfronts.laurent.HomflyProfile":
        return legfronts.laurent.profile(self.homfly)

    @cached_property
    def kauffman(self) -> "legfronts.laurent.VZPoly":
        return legfronts.skein.kauffman_dubrovnik(self.link, self.max_crossings)

    @cached_property
    def flags(self) -> dict[str, str]:
        return _no_ruling(self.homfly_profile, self.kauffman, self.khovanov_bound)

    @cached_property
    def census(self) -> rulings.RulingCensus:
        return rulings._census(self.sweep)


class RutherfordResult(NamedTuple):
    tb: int
    homfly_slice: "legfronts.laurent.ZPoly"
    two_graded_poly: "legfronts.laurent.ZPoly"
    kauffman_slice: "legfronts.laurent.ZPoly"
    ungraded_poly: "legfronts.laurent.ZPoly"

    @property
    def two_graded_ok(self) -> bool:
        return self.homfly_slice == self.two_graded_poly

    @property
    def ungraded_ok(self) -> bool:
        return self.kauffman_slice == self.ungraded_poly

    @property
    def passed(self) -> bool:
        return self.two_graded_ok and self.ungraded_ok

    def to_json(self) -> dict:
        return {
            "two_graded": {
                "pass": self.two_graded_ok,
                "homfly_slice": self.homfly_slice.to_terms(),
                "ruling_polynomial": self.two_graded_poly.to_terms(),
            },
            "ungraded": {
                "pass": self.ungraded_ok,
                "kauffman_slice": self.kauffman_slice.to_terms(),
                "ruling_polynomial": self.ungraded_poly.to_terms(),
            },
        }


def rutherford_check(
    diagram: fronts.FrontDiagram,
    max_crossings: int = fronts.DEFAULT_MAX_CROSSINGS,
    reverse=(),
) -> RutherfordResult:
    """Compare the v^(tb+1) slices of Homfly and Dubrovnik-Kauffman with
    the 2-graded and ungraded ruling polynomials; both must match exactly."""
    return _rutherford(_Context(diagram, max_crossings, reverse))


def _rutherford(ctx: _Context) -> RutherfordResult:
    tb = ctx.sweep.tb
    p, f, cens = ctx.homfly, ctx.kauffman, ctx.census
    return RutherfordResult(
        tb=tb,
        homfly_slice=p.coefficient_of_v(tb + 1),
        two_graded_poly=cens.polynomials["two_graded"],
        kauffman_slice=f.coefficient_of_v(tb + 1),
        ungraded_poly=cens.polynomials["ungraded"],
    )


class MaxTbResult(NamedTuple):
    tb: int
    e: int  # minimum v-degree of the Homfly polynomial
    is_maximal: bool  # tb + 1 == e
    has_two_graded_ruling: bool

    @property
    def consistent(self) -> bool:
        # a 2-graded ruling forces the Homfly bound tb + 1 <= e to be sharp
        return self.is_maximal or not self.has_two_graded_ruling


def max_tb_certificate(
    diagram: fronts.FrontDiagram,
    max_crossings: int = fronts.DEFAULT_MAX_CROSSINGS,
    reverse=(),
) -> MaxTbResult:
    return _max_tb(_Context(diagram, max_crossings, reverse))


def _max_tb(ctx: _Context) -> MaxTbResult:
    tb, e = ctx.sweep.tb, ctx.homfly_profile.e
    return MaxTbResult(tb, e, tb + 1 == e, ctx.census.count("two_graded") > 0)


class RhoResult(NamedTuple):
    kind: str  # "value", "minus_infinity" or "unknown"
    value: int | None  # M/2 when kind == "value"
    reason: str
    genus_matches: bool | None = None  # M/2 vs max observed ruling genus (knots)


def rho_report(
    diagram: fronts.FrontDiagram,
    khovanov_bound: int | None = None,
    max_crossings: int = fronts.DEFAULT_MAX_CROSSINGS,
    reverse=(),
) -> RhoResult:
    """Three-valued ruling-genus report.

    A 2-graded ruling on this front pins rho = M/2; a fired no-ruling
    condition pins rho = -infinity; otherwise the tool reports unknown
    rather than guessing.
    """
    return _rho(_Context(diagram, max_crossings, reverse, khovanov_bound))


def _rho(ctx: _Context) -> RhoResult:
    if ctx.sweep.num_components != 1:
        return RhoResult("unknown", None, "ruling genus is defined for knot fronts")
    prof, cens = ctx.homfly_profile, ctx.census
    if cens.count("two_graded"):
        value = prof.M // 2
        matches = cens.max_genus("two_graded") == value
        return RhoResult("value", value, "this front carries a 2-graded ruling", matches)
    fired = ctx.flags
    if any(v == FIRED for v in fired.values()):
        names = sorted(k for k, v in fired.items() if v == FIRED)
        return RhoResult("minus_infinity", None, f"no-ruling condition(s) fired: {names}")
    return RhoResult("unknown", None, "no ruling found on this front and no condition fired")


def no_ruling_tests(
    homfly_poly: "legfronts.laurent.VZPoly",
    kauffman_poly: "legfronts.laurent.VZPoly",
    khovanov_bound: int | None = None,
) -> dict[str, str]:
    """The four polynomial obstructions to 2-graded rulings of a knot type.

    khovanov:        e >= 2 + (supplied minimal Khovanov diagonal)
    kauffman:        the Kauffman polynomial reaches below v^e
    negative_counts: some coefficient of the v^e slice of Homfly is negative
    subset:          Kauffman does not reach below v^e, yet the Homfly
                     slice is not coefficientwise within 0..Kauffman slice

    The Khovanov diagonal is an external input (min k with nonzero
    homology on the diagonal i - j = k, in that grading convention); the
    condition reports not_evaluated when absent.
    """
    return _no_ruling(legfronts.laurent.profile(homfly_poly), kauffman_poly, khovanov_bound)


def _no_ruling(
    prof: "legfronts.laurent.HomflyProfile", kauffman_poly: "legfronts.laurent.VZPoly", khovanov_bound: int | None
) -> dict[str, str]:
    e, p_slice = prof.e, prof.Q  # Q is the Homfly slice at v^e
    out: dict[str, str] = {}
    if khovanov_bound is None:
        out["khovanov"] = NOT_EVALUATED
    else:
        out["khovanov"] = FIRED if e >= 2 + khovanov_bound else QUIET
    kmin = kauffman_poly.min_v_degree()
    out["kauffman"] = FIRED if kmin is not None and kmin < e else QUIET
    out["negative_counts"] = FIRED if any(c < 0 for c in p_slice.terms.values()) else QUIET
    if out["kauffman"] == QUIET:
        f_slice = kauffman_poly.coefficient_of_v(e)
        exponents = set(p_slice.terms) | set(f_slice.terms)
        bad = any(
            not (0 <= p_slice.coefficient(i) <= f_slice.coefficient(i)) for i in exponents
        )
        out["subset"] = FIRED if bad else QUIET
    else:
        out["subset"] = NOT_EVALUATED
    return out


class GenusTests(NamedTuple):
    bennequin_ok: bool  # M <= e
    conway_ok: bool  # deg of the Conway polynomial >= M
    max_two_graded_genus: int | None
    half_homfly_z_degree: int
    seifert_genus: int | None  # None for link fronts

    @property
    def chain_ok(self) -> bool:
        upper = self.half_homfly_z_degree
        if self.max_two_graded_genus is not None and self.max_two_graded_genus > upper:
            return False
        if self.seifert_genus is not None and upper > self.seifert_genus:
            return False
        return True


def genus_tests(
    diagram: fronts.FrontDiagram,
    max_crossings: int = fronts.DEFAULT_MAX_CROSSINGS,
    reverse=(),
) -> GenusTests:
    """Genus bounds readable from the polynomials.

    Bennequin test: M <= e.  Conway test: deg Conway >= M.  Either one
    bounds the ruling genus by the smooth genus.  The chain check is the
    per-diagram fragment of the canonical-genus bound: every 2-graded
    ruling genus <= (max z-degree of Homfly)/2 <= Seifert-algorithm genus
    of this front's diagram.
    """
    return _genus(_Context(diagram, max_crossings, reverse))


def _genus(ctx: _Context) -> GenusTests:
    p, prof = ctx.homfly, ctx.homfly_profile
    deg = legfronts.laurent.conway(p).degree()
    max_genus = ctx.census.max_genus("two_graded")
    knot = ctx.sweep.num_components == 1
    seifert = legfronts.skein.seifert_diagram_genus(ctx.link) if knot else None
    return GenusTests(
        bennequin_ok=prof.M <= prof.e,
        conway_ok=deg is not None and deg >= prof.M,
        max_two_graded_genus=max_genus,
        half_homfly_z_degree=p.max_z_degree() // 2,
        seifert_genus=seifert,
    )


class ConnSumResult(NamedTuple):
    composite: fronts.FrontDiagram
    counts_ok: bool
    polynomials_ok: bool
    genus_additive: bool | None  # None when a factor census has no 2-graded ruling

    @property
    def passed(self) -> bool:
        return self.counts_ok and self.polynomials_ok and self.genus_additive is not False


def connsum_check(
    f1: fronts.FrontDiagram,
    f2: fronts.FrontDiagram,
    reverse=(),
) -> ConnSumResult:
    """Census multiplicativity under the splice, per grading class.

    The composite is swept once, with ``reverse``, and each summand's
    census is taken under the orientation and Maslov potential that the
    composite induces on its arcs.  ``rulings._connsum_verdicts`` reads
    every verdict off the three records; no polynomial is built.
    """
    s1, s2, s12 = fronts._connected_sum_sweeps(f1, f2, reverse)
    return ConnSumResult(s12.diagram, *rulings._connsum_verdicts(s1, s2, s12))


class AnalysisReport(NamedTuple):
    """Every check on one front; its dict fields make it unhashable."""

    __hash__ = None
    front_name: str
    is_knot: bool
    tb: int
    r: int
    rutherford_two_graded: dict
    rutherford_ungraded: dict
    max_tb_certificate: dict
    rho: dict
    noruling_flags: dict
    bennequin_test: bool
    conway_test: bool
    theorem1_check: dict
    khovanov_bound_input: int | None
    ok: bool = True

    def to_json(self) -> dict:
        # every field under its own name, except front_name
        return {"front": self.front_name, **dict(zip(self._fields[1:], self[1:]))}


def analyze(
    diagram: fronts.FrontDiagram,
    khovanov_bound: int | None = None,
    max_crossings: int = fronts.DEFAULT_MAX_CROSSINGS,
    reverse=(),
) -> AnalysisReport:
    """Run every check on one front and collect a structured report."""
    ctx = _Context(diagram, max_crossings, reverse, khovanov_bound)
    ruth = _rutherford(ctx)
    cert = _max_tb(ctx)
    rho = _rho(ctx)
    gtests = _genus(ctx)
    flags = ctx.flags
    # soundness: the no-ruling conditions must stay quiet whenever a
    # 2-graded ruling was actually observed
    sound = not (cert.has_two_graded_ruling and FIRED in flags.values())
    ok = (ruth.passed and cert.consistent and gtests.chain_ok and sound
          and rho.genus_matches is not False)
    slices = ruth.to_json()
    return AnalysisReport(
        front_name=diagram.name,
        is_knot=ctx.sweep.num_components == 1,
        tb=ruth.tb,
        r=ctx.sweep.r,
        rutherford_two_graded=slices["two_graded"],
        rutherford_ungraded=slices["ungraded"],
        max_tb_certificate={
            "tb": cert.tb,
            "e": cert.e,
            "maximal": cert.is_maximal,
            "has_two_graded_ruling": cert.has_two_graded_ruling,
            "consistent": cert.consistent,
        },
        rho={"kind": rho.kind, "value": rho.value, "reason": rho.reason, "genus_matches": rho.genus_matches},
        noruling_flags=flags,
        bennequin_test=gtests.bennequin_ok,
        conway_test=gtests.conway_ok,
        theorem1_check={
            "max_two_graded_genus": gtests.max_two_graded_genus,
            "half_homfly_z_degree": gtests.half_homfly_z_degree,
            "seifert_genus": gtests.seifert_genus,
            "chain_ok": gtests.chain_ok,
        },
        khovanov_bound_input=khovanov_bound,
        ok=ok,
    )
