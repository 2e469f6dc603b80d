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

Ruling polynomials, counts and genera come from one left-to-right sweep
that merges equal states: a state is the pairing with the grading class
of its switches so far, and it carries the count of partial rulings per
number of switches, so one pass yields all three class polynomials
without listing a ruling.

Rulings are listed only when asked for, over live states alone: a
forward pass records the moves of each reachable pairing, and a backward
pass hands each pairing the switch sets of its paths to the empty
pairing at the end, so a pairing that cannot close gets none and no
partial ruling is built that does not finish.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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

    def __len__(self) -> int:
        return len(self.partner)

    def __eq__(self, other) -> bool:
        return isinstance(other, PairingState) and self.partner == other.partner

    def __repr__(self) -> str:
        pairs = sorted((a, b) for a, b in self.partner.items() if a < b)
        return f"PairingState({pairs})"


def is_normal_switch(state: PairingState, k: int) -> bool:
    """Whether a switch at height k satisfies the normality condition.

    The eyes through strands k and k+1 span the height intervals between
    each strand and its partner; the switch is normal when those
    intervals are disjoint or strictly nested.
    """
    pa = state.partner[k]
    if pa == k + 1:
        raise ValueError("paired strands cannot meet at a crossing")
    return _normal(k, pa, state.partner[k + 1])


def _normal(k: int, pa: int, pb: int) -> bool:
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


# grading tag of a switch, or of a set of switches: 0 Z-graded, 1 2-graded, 2 ungraded only
_GRADINGS = (GradingClass.Z_GRADED, GradingClass.TWO_GRADED, GradingClass.UNGRADED_ONLY)


def _tag(index: int) -> int:
    return 0 if index == 0 else 1 if index % 2 == 0 else 2


def classify(switches, indices: dict[int, int], is_knot: bool) -> tuple[GradingClass, bool | None]:
    """Grading class of a switch set, plus surface orientability.

    2-graded rulings always bound orientable surfaces; for knot fronts
    the converse holds as well, so non-2-graded knot rulings report
    False while link rulings report None (undetermined).
    """
    grading = _GRADINGS[max([_tag(indices[c]) for c in switches], default=0)]
    two = grading is not GradingClass.UNGRADED_ONLY
    orientable = True if two else (False if is_knot else None)
    return grading, orientable


def _moves(kind: str, k: int, p: tuple[int, ...]):
    """The pairings that can follow p at an event at height k + 1, each
    with whether it switches the crossing there.

    p[h] is the partner of strand h + 1: heights count from 0 here.
    """
    if kind == "L":  # shift heights >= k up by two and pair (k, k + 1)
        q = tuple(h + 2 if h >= k else h for h in p)
        yield q[:k] + (k + 1, k) + q[k:], False
    elif kind == "R":  # the cusp must close an eye
        if p[k] == k + 1:
            yield tuple(h - 2 if h > k else h for h in p[:k] + p[k + 2:]), False
    elif p[k] != k + 1:  # the two arcs of one eye may not cross
        q = [k + 1 if h == k else k if h == k + 1 else h for h in p]
        q[k], q[k + 1] = q[k + 1], q[k]
        yield tuple(q), False  # no switch: the strands trade eye membership
        if _normal(k, p[k], p[k + 1]):
            yield p, True


def enumerate_rulings(
    diagram: fronts.FrontDiagram,
    class_filter: str = "ungraded",
    reverse=(),
) -> list[Ruling]:
    """All normal rulings in the given grading class, sorted by switch set.

    The transitions of each pairing reachable at each event are found
    once; the rulings are the paths through pairings that reach the empty
    pairing at the end, so no branch is followed that fails later.
    """
    _check_filter(class_filter)
    return _enumerate(diagram, fronts.sweep_front(diagram, reverse), class_filter)


def _check_filter(class_filter: str) -> None:
    if class_filter not in GRADING_FILTERS:
        raise ValueError(f"class_filter must be one of {GRADING_FILTERS}")


def _enumerate(diagram: fronts.FrontDiagram, sweep: fronts.FrontSweep, class_filter: str) -> list[Ruling]:
    indices = sweep.indices
    is_knot = sweep.components.num_components == 1
    signs = sweep.invariants.crossing_signs
    eyes = diagram.num_left_cusps

    limit = 2 - GRADING_FILTERS.index(class_filter)  # the largest tag a switch may have
    # forward: the admissible moves of each reachable pairing, event by event
    steps: list[tuple[int, dict]] = []
    states: dict = {(): None}
    cid = 0
    for ev in diagram.events:
        if ev.kind == "X":
            cid += 1
        allowed = ev.kind == "X" and _tag(indices[cid]) <= limit
        step = {p: [(q, sw) for q, sw in _moves(ev.kind, ev.height - 1, p) if allowed or not sw] for p in states}
        steps.append((cid, step))
        states = {q: None for moves in step.values() for q, _ in moves}

    # backward: the switch sets that take each pairing to the end (where a
    # valid front leaves only the empty pairing); a dead pairing gets none
    tails = {p: [()] for p in states}
    for cid, step in reversed(steps):
        tails = {
            p: [(cid,) + t if sw else t for q, sw in moves for t in tails.get(q, ())]
            for p, moves in step.items()
        }
    found = tails.get((), [])

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


def _swept_polynomials(diagram: fronts.FrontDiagram, sweep: fronts.FrontSweep) -> dict[str, ZPoly]:
    """The three class polynomials from one pass that merges equal states.

    A state key is (pairing, tag, bad): the pairing as in ``_moves``, the
    grading tag of the switches so far, and whether a graded switch sits
    at a negative crossing.  Each key maps to a Counter of partial
    rulings by number of switches.
    """
    indices, signs = sweep.indices, sweep.invariants.crossing_signs
    states = {((), 0, False): Counter({0: 1})}
    cid = 0
    for ev in diagram.events:
        if ev.kind == "X":
            cid += 1
            tag_here, negative = _tag(indices[cid]), signs[cid - 1] != 1
        merged: dict[tuple, Counter] = {}
        for (p, tag, bad), sw in states.items():
            for q, switched in _moves(ev.kind, ev.height - 1, p):
                key, add = (q, tag, bad), sw
                if switched:
                    t = max(tag, tag_here)
                    key, add = (q, t, t < 2 and (bad or negative)), {s + 1: c for s, c in sw.items()}
                merged.setdefault(key, Counter()).update(add)
        states = merged

    by_class = {cls: Counter() for cls in GRADING_FILTERS}
    for (_, tag, bad), sw in states.items():
        if bad:
            # even index forces a positive crossing under the even-right convention
            raise RuntimeError("2-graded switch at a negative crossing")
        for cls in GRADING_FILTERS[:3 - tag]:  # tag 0 counts in all three classes
            by_class[cls].update(sw)
    eyes = diagram.num_left_cusps
    polys = {cls: ZPoly({1 - eyes + s: c for s, c in sw.items()}) for cls, sw in by_class.items()}
    if sweep.components.num_components == 1 and any(e % 2 or e < 0 for e in polys["two_graded"].terms):
        raise RuntimeError("2-graded knot ruling with non-integral genus")
    return polys


def ruling_polynomial(
    diagram: fronts.FrontDiagram,
    class_filter: str = "two_graded",
    reverse=(),
) -> ZPoly:
    """The census generating polynomial: sum of z^(1 - theta) over rulings.

    For 2-graded rulings of a knot front the exponent 1 - theta equals
    twice the ruling genus.
    """
    _check_filter(class_filter)
    return census(diagram, reverse).polynomials[class_filter]


@dataclass(frozen=True)
class RulingCensus:
    front_name: str
    is_knot: bool
    rotation_gcd: int
    polynomials: dict[str, ZPoly]
    _diagram: fronts.FrontDiagram = field(repr=False, compare=False)
    _sweep: fronts.FrontSweep = field(repr=False, compare=False)

    @cached_property
    def by_class(self) -> dict[str, tuple[Ruling, ...]]:
        """The rulings of each class, listed by one ungraded search on first access."""
        ungraded = tuple(_enumerate(self._diagram, self._sweep, "ungraded"))
        return {
            "ungraded": ungraded,
            "two_graded": tuple(r for r in ungraded if r.grading is not GradingClass.UNGRADED_ONLY),
            "z_graded": tuple(r for r in ungraded if r.grading is GradingClass.Z_GRADED),
        }

    def count(self, class_filter: str) -> int:
        return sum(self.polynomials[class_filter].terms.values())

    def counts_by_theta(self, class_filter: str) -> dict[int, int]:
        return {1 - e: c for e, c in self.polynomials[class_filter].terms.items()}

    def max_genus(self, class_filter: str = "two_graded") -> int | None:
        """Half the top z-degree of the 2-graded (or Z-graded) polynomial; None for links."""
        if not self.is_knot:
            return None
        top = self.polynomials["z_graded" if class_filter == "z_graded" else "two_graded"].degree()
        return None if top is None else top // 2


def census(diagram: fronts.FrontDiagram, reverse=()) -> RulingCensus:
    """The class polynomials from one merged sweep; rulings are listed lazily."""
    return _census(diagram, fronts.sweep_front(diagram, reverse))


def _census(diagram: fronts.FrontDiagram, sweep: fronts.FrontSweep) -> RulingCensus:
    return RulingCensus(
        front_name=diagram.name,
        is_knot=sweep.components.num_components == 1,
        rotation_gcd=sweep.invariants.r,
        polynomials=_swept_polynomials(diagram, sweep),
        _diagram=diagram,
        _sweep=sweep,
    )
