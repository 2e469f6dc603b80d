"""Normal rulings of a front diagram.

A ruling smooths a chosen set of crossings, the switches, so that the
front decomposes into eyes: pairs of arcs joining one left cusp to one
right cusp and meeting nowhere else.  Sweeping left to right, the live
state is a fixed-point-free involution pairing the current strand
heights.  A left cusp inserts a freshly paired couple, a right cusp
consumes the pair at its heights (or kills the branch), and a crossing
either exchanges eye membership (no switch) or keeps it (switch).  Two
paired strands may never cross, and a switch is only admissible when the
two eyes occupy nested or disjoint height intervals in that slice, the
normality condition.

Gradedness is a mask on switch choices: a ruling is 2-graded when every
switch has even Maslov index and Z-graded when every index is the zero
residue.  The Euler characteristic of the associated surface is
theta = eyes - switches; for a knot front a 2-graded ruling is an
orientable surface with one boundary circle, so its genus is
(switches - eyes + 1) / 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from . import fronts
from .laurent import ZPoly

GRADING_FILTERS = ("ungraded", "two_graded", "z_graded")


class GradingClass(Enum):
    UNGRADED_ONLY = "ungraded_only"
    TWO_GRADED = "two_graded"
    Z_GRADED = "z_graded"

    def __str__(self) -> str:
        return self.value


class PairingState:
    """Fixed-point-free involution on strand heights 1..n."""

    __slots__ = ("partner",)

    def __init__(self, partner: dict[int, int] | None = None):
        self.partner = dict(partner) if partner else {}
        for k, p in self.partner.items():
            if p == k or self.partner.get(p) != k:
                raise ValueError("pairing must be a fixed-point-free involution")

    @classmethod
    def from_pairs(cls, pairs) -> "PairingState":
        partner: dict[int, int] = {}
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        return cls(partner)

    def copy(self) -> "PairingState":
        fresh = PairingState.__new__(PairingState)
        fresh.partner = dict(self.partner)
        return fresh

    def __len__(self) -> int:
        return len(self.partner)

    def __eq__(self, other) -> bool:
        return isinstance(other, PairingState) and self.partner == other.partner

    def __repr__(self) -> str:
        pairs = sorted((a, b) for a, b in self.partner.items() if a < b)
        return f"PairingState({pairs})"

    def insert_pair(self, k: int) -> None:
        """Left cusp at height k: shift heights >= k up by two, pair (k, k+1)."""
        shifted = {}
        for a, b in self.partner.items():
            a2 = a + 2 if a >= k else a
            b2 = b + 2 if b >= k else b
            shifted[a2] = b2
        shifted[k] = k + 1
        shifted[k + 1] = k
        self.partner = shifted

    def paired_at(self, k: int) -> bool:
        return self.partner.get(k) == k + 1

    def remove_pair(self, k: int) -> None:
        """Right cusp at height k; requires strands k, k+1 to be partners."""
        if not self.paired_at(k):
            raise ValueError(f"strands {k}, {k + 1} are not partners")
        shifted = {}
        for a, b in self.partner.items():
            if a in (k, k + 1):
                continue
            a2 = a - 2 if a > k + 1 else a
            b2 = b - 2 if b > k + 1 else b
            shifted[a2] = b2
        self.partner = shifted

    def swap(self, k: int) -> None:
        """Non-switched crossing at height k: strands trade eye membership."""
        tau = {k: k + 1, k + 1: k}
        self.partner = {
            tau.get(a, a): tau.get(b, b) for a, b in self.partner.items()
        }


def is_normal_switch(state: PairingState, k: int) -> bool:
    """Whether a switch at height k satisfies the normality condition.

    The eyes through strands k and k+1 span the height intervals between
    each strand and its partner; the switch is normal when those
    intervals are disjoint or strictly nested.
    """
    pa = state.partner[k]
    pb = state.partner[k + 1]
    if pa == k + 1:
        raise ValueError("paired strands cannot meet at a crossing")
    lo_a, hi_a = min(k, pa), max(k, pa)
    lo_b, hi_b = min(k + 1, pb), max(k + 1, pb)
    if hi_a < lo_b or hi_b < lo_a:
        return True  # disjoint
    if lo_a < lo_b and hi_b < hi_a:
        return True  # second nested inside first
    if lo_b < lo_a and hi_a < hi_b:
        return True  # first nested inside second
    return False


@dataclass(frozen=True)
class Ruling:
    switches: tuple[int, ...]  # crossing ids, sorted
    eyes: int  # = number of left cusps
    theta: int  # eyes - switches, the Euler characteristic
    grading: GradingClass
    genus: int | None  # only for 2-graded rulings of knot fronts
    orientable: bool | None  # None when undetermined (non-2-graded link rulings)


def _is_even(index: int) -> bool:
    return index % 2 == 0


def classify(switches, indices: dict[int, int], is_knot: bool) -> tuple[GradingClass, bool | None]:
    """Grading class of a switch set, plus surface orientability.

    2-graded rulings always bound orientable surfaces; for knot fronts
    the converse holds as well, so non-2-graded knot rulings report
    False while link rulings report None (undetermined).
    """
    vals = [indices[c] for c in switches]
    if all(v == 0 for v in vals):
        grading = GradingClass.Z_GRADED
    elif all(_is_even(v) for v in vals):
        grading = GradingClass.TWO_GRADED
    else:
        grading = GradingClass.UNGRADED_ONLY
    two = grading is not GradingClass.UNGRADED_ONLY
    orientable = True if two else (False if is_knot else None)
    return grading, orientable


def enumerate_rulings(
    diagram: fronts.FrontDiagram,
    class_filter: str = "ungraded",
    reverse=(),
) -> list[Ruling]:
    """All normal rulings in the given grading class, sorted by switch set.

    Depth-first sweep over the events; the pairing state is the only
    search state and branches are pruned at the event where they fail.
    """
    if class_filter not in GRADING_FILTERS:
        raise ValueError(f"class_filter must be one of {GRADING_FILTERS}")
    sweep = fronts.sweep_front(diagram, reverse)
    indices = sweep.indices
    is_knot = sweep.components.num_components == 1
    signs = sweep.invariants.crossing_signs
    eyes = diagram.num_left_cusps

    if class_filter == "ungraded":
        switchable = {c: True for c in indices}
    elif class_filter == "two_graded":
        switchable = {c: _is_even(ix) for c, ix in indices.items()}
    else:
        switchable = {c: ix == 0 for c, ix in indices.items()}

    events = diagram.events
    found: list[tuple[int, ...]] = []

    def run(ev_i: int, crossing_no: int, state: PairingState, switches: list[int]) -> None:
        while ev_i < len(events):
            ev = events[ev_i]
            if ev.kind == "L":
                state.insert_pair(ev.height)
            elif ev.kind == "R":
                if not state.paired_at(ev.height):
                    return
                state.remove_pair(ev.height)
            else:
                cid = crossing_no + 1
                k = ev.height
                if state.paired_at(k):
                    return  # the two arcs of one eye may not cross
                if switchable[cid] and is_normal_switch(state, k):
                    run(ev_i + 1, cid, state.copy(), switches + [cid])
                state.swap(k)
                crossing_no = cid
            ev_i += 1
        found.append(tuple(switches))

    run(0, 0, PairingState(), [])

    out = []
    for switches in sorted(found):
        grading, orientable = classify(switches, indices, is_knot)
        g = None
        if is_knot and orientable:
            spread = len(switches) - eyes + 1
            if spread % 2 != 0 or spread < 0:
                raise RuntimeError("2-graded knot ruling with non-integral genus")
            g = spread // 2
        if grading is not GradingClass.UNGRADED_ONLY:
            # even index forces a positive crossing under the even-right convention
            for c in switches:
                if signs[c - 1] != 1:
                    raise RuntimeError("2-graded switch at a negative crossing")
        out.append(Ruling(switches, eyes, eyes - len(switches), grading, g, orientable))
    return out


def ruling_polynomial(
    diagram: fronts.FrontDiagram,
    class_filter: str = "two_graded",
    reverse=(),
) -> ZPoly:
    """The census generating polynomial: sum of z^(1 - theta) over rulings.

    For 2-graded rulings of a knot front the exponent 1 - theta equals
    twice the ruling genus.
    """
    return _counted_polynomial(enumerate_rulings(diagram, class_filter, reverse))


def _counted_polynomial(rulings) -> ZPoly:
    return ZPoly(Counter(1 - r.theta for r in rulings))


@dataclass(frozen=True)
class RulingCensus:
    front_name: str
    is_knot: bool
    rotation_gcd: int
    by_class: dict[str, tuple[Ruling, ...]]
    polynomials: dict[str, ZPoly]

    def count(self, class_filter: str) -> int:
        return len(self.by_class[class_filter])

    def counts_by_theta(self, class_filter: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for ruling in self.by_class[class_filter]:
            out[ruling.theta] = out.get(ruling.theta, 0) + 1
        return out

    def max_genus(self, class_filter: str = "two_graded") -> int | None:
        genera = [r.genus for r in self.by_class[class_filter] if r.genus is not None]
        return max(genera) if genera else None


def census(diagram: fronts.FrontDiagram, reverse=()) -> RulingCensus:
    """Enumerate once, then filter into the three grading classes."""
    sweep = fronts.sweep_front(diagram, reverse)
    ungraded = enumerate_rulings(diagram, "ungraded", reverse)
    two = tuple(r for r in ungraded if r.grading is not GradingClass.UNGRADED_ONLY)
    zg = tuple(r for r in ungraded if r.grading is GradingClass.Z_GRADED)
    by_class = {"ungraded": tuple(ungraded), "two_graded": two, "z_graded": zg}
    polynomials = {name: _counted_polynomial(rulings) for name, rulings in by_class.items()}
    return RulingCensus(
        front_name=diagram.name,
        is_knot=sweep.components.num_components == 1,
        rotation_gcd=sweep.invariants.r,
        by_class=by_class,
        polynomials=polynomials,
    )
