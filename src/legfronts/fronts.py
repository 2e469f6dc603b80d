"""Combinatorial front diagrams of Legendrian links, plat style.

A front is encoded as a left-to-right sequence of events, one per generic
x-slice.  With n strands entering a slice (numbered 1..n from the top),
the legal events are:

* ``L k`` (1 <= k <= n+1): a left cusp opens two new strands at heights
  k and k+1; strands previously at height >= k move down by two.
* ``R k`` (1 <= k <= n-1): a right cusp closes the strands at heights
  k and k+1; strands below move up by two.
* ``X k`` (1 <= k <= n-1): the strands at heights k and k+1 cross.

The total event order realizes genericity: no two events share an
x-coordinate.  A strand arc runs from a left cusp to a right cusp,
passing through crossings; components are obtained by joining the two
arcs that meet at each cusp.

``sweep_front`` sweeps a front once, checking its heights as it goes,
and derives everything else from that one geometry: the component map
and orientations, tb and the rotation numbers, the Maslov potential and
the crossing indices, held in one ``FrontSweep`` record beside the front
itself.  Per-crossing data are tuples by position: crossing id c, the
c-th crossing in x-order, is entry c - 1.  ``components``,
``classical_invariants`` and ``maslov_potential`` each return one field
of a fresh record, and ``crossing_indices`` its indices keyed by id.

Conventions fixed here and relied on by the rest of the package:

* One seed rule orients each component and starts its Maslov potential:
  the walk from its least arc id starts leftward at potential 1, so its
  reference arc (earliest born, then bottommost) comes out rightward at 0,
  and a reversed component starts flipped and one higher.  For the plain
  unknot front this orients the lower strand rightward.
* At a crossing the strand of lesser slope is in front, i.e. the over
  strand enters at height k and leaves at height k+1.  A crossing is
  positive exactly when its two strands agree in x-direction, which is
  the sign of det(over direction, under direction).
* The Maslov potential is Z_{2r}-valued (plain integers when r = 0),
  jumps by one at each cusp with the upper strand higher, and is even on
  rightward strands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

EVENT_KINDS = ("L", "R", "X")


class FrontFormatError(ValueError):
    """Raised when front text cannot be parsed; carries the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class InvalidFrontError(ValueError):
    """Raised when an operation is applied to a front that fails validation."""


class NormalFormError(ValueError):
    """Raised when a connected-sum operand is the empty front, with no cusp to splice."""


@dataclass(frozen=True)
class FrontEvent:
    kind: str  # "L", "R" or "X"
    height: int  # 1-based from the top strand

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if type(self.height) is not int or self.height < 1:
            raise ValueError(f"event height must be a positive integer, got {self.height!r}")

    def __str__(self) -> str:
        return f"{self.kind}{self.height}"


@dataclass(frozen=True)
class FrontDiagram:
    events: tuple[FrontEvent, ...]
    name: str = field(default="front", compare=False)
    # source line per event when parsed from text; informational only
    lines: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def num_crossings(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "X")

    @property
    def num_left_cusps(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "L")

    @property
    def num_right_cusps(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "R")

    def __str__(self) -> str:
        return " ".join(str(ev) for ev in self.events)


def front(tokens: str, name: str = "front") -> FrontDiagram:
    """Build a front from compact tokens, e.g. ``front("L1 L3 X2 X2 X2 R1 R1")``."""
    events = []
    for tok in tokens.split():
        kind, num = tok[0], tok[1:]
        if kind not in EVENT_KINDS or not num.isdecimal() or int(num) < 1:
            raise ValueError(f"bad event token {tok!r}")
        events.append(FrontEvent(kind, int(num)))
    return FrontDiagram(tuple(events), name=name)


def parse_front(text: str, name: str = "front") -> FrontDiagram:
    """Parse the front text format: one ``L|R|X <height>`` per line, # comments."""
    events = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise FrontFormatError(lineno, f"expected 'L|R|X <height>', got {stripped!r}")
        kind, height = parts
        if kind not in EVENT_KINDS:
            raise FrontFormatError(lineno, f"unknown event kind {kind!r}")
        # decimal digits as in front(), with a sign only to name a height below 1
        if not height.removeprefix("-").isdecimal():
            raise FrontFormatError(lineno, f"height {height!r} is not an integer")
        k = int(height)
        if k < 1:
            raise FrontFormatError(lineno, f"height must be >= 1, got {k}")
        events.append(FrontEvent(kind, k))
        lines.append(lineno)
    return FrontDiagram(tuple(events), name=name, lines=tuple(lines))


def render_front(diagram: FrontDiagram) -> str:
    """Inverse of parse_front up to comments and whitespace."""
    return "".join(f"{ev.kind} {ev.height}\n" for ev in diagram.events)


@dataclass(frozen=True)
class Violation:
    event_index: int | None  # 1-based; None for end-of-diagram violations
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def validate(diagram: FrontDiagram) -> ValidationReport:
    """Check event heights against live strand counts; never raises."""
    violations = []
    n = 0
    for i, ev in enumerate(diagram.events, start=1):
        if ev.kind == "L":
            if not 1 <= ev.height <= n + 1:
                violations.append(Violation(i, f"left cusp height {ev.height} out of range 1..{n + 1}"))
            n += 2
        elif ev.kind == "R":
            if not 1 <= ev.height <= n - 1:
                violations.append(Violation(i, f"right cusp height {ev.height} out of range 1..{n - 1}"))
            n -= 2
            if n < 0:
                violations.append(Violation(i, "strand count went negative"))
                n = 0
        else:
            if not 1 <= ev.height <= n - 1:
                violations.append(Violation(i, f"crossing height {ev.height} out of range 1..{n - 1}"))
    if n != 0:
        violations.append(Violation(None, f"{n} strands left open at the end of the diagram"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Sweep geometry: arcs, cusps and crossing sites


class Cusp(NamedTuple):
    kind: str  # "L" or "R"
    upper_arc: int
    lower_arc: int


class CrossingSite(NamedTuple):
    over_arc: int  # enters at height k, the strand in front
    under_arc: int  # enters at height k + 1


@dataclass(frozen=True)
class FrontGeometry:
    """Arcs 2j and 2j + 1 are the upper and lower arcs of left cusp j, from 0;
    cusps and crossings are in x-order, crossing id c at position c - 1."""

    num_arcs: int
    cusps: tuple[Cusp, ...]
    crossings: tuple[CrossingSite, ...]


def sweep_geometry(diagram: FrontDiagram) -> FrontGeometry:
    """Arcs, cusps and crossing sites, read in one pass that also checks
    each height against the live strand count.

    The first failed check raises ``InvalidFrontError`` with the message of
    the first violation ``validate`` reports; a valid front is never
    validated separately.
    """
    stack: list[int] = []  # arc id per current height, top first
    n_arcs = 0
    cusps: list[Cusp] = []
    crossings: list[CrossingSite] = []
    for ev in diagram.events:
        k = ev.height  # >= 1, as FrontEvent checks
        if ev.kind == "L":
            if k > len(stack) + 1:
                _invalid(diagram)
            stack[k - 1:k - 1] = [n_arcs, n_arcs + 1]
            cusps.append(Cusp("L", n_arcs, n_arcs + 1))
            n_arcs += 2
        elif k >= len(stack):  # a right cusp or a crossing needs strands k and k + 1
            _invalid(diagram)
        elif ev.kind == "R":
            upper, lower = stack[k - 1], stack[k]
            del stack[k - 1:k + 1]
            cusps.append(Cusp("R", upper, lower))
        else:
            over, under = stack[k - 1], stack[k]
            crossings.append(CrossingSite(over, under))
            stack[k - 1], stack[k] = under, over
    if stack:
        _invalid(diagram)
    return FrontGeometry(n_arcs, tuple(cusps), tuple(crossings))


def _invalid(diagram: FrontDiagram):
    raise InvalidFrontError(f"invalid front {diagram.name!r}: {validate(diagram).violations[0].message}")


# ---------------------------------------------------------------------------
# Components, orientations, classical invariants and Maslov data: one sweep


@dataclass(frozen=True)
class ComponentMap:
    """Per arc, its component and whether it runs rightward."""

    num_components: int
    arc_component: tuple[int, ...]
    arc_rightward: tuple[bool, ...]


@dataclass(frozen=True)
class ClassicalInvariants:
    tb: int
    rot_per_component: tuple[int, ...]
    r: int  # gcd of |rotations|; 0 when all rotations vanish
    writhe: int
    num_right_cusps: int
    crossing_signs: tuple[int, ...]  # aligned with crossing ids 1..c


@dataclass(frozen=True)
class MaslovAssignment:
    modulus: int  # 2r; 0 means integer-valued
    potential: tuple[int, ...]  # per arc, reduced mod modulus when nonzero


@dataclass(frozen=True)
class FrontSweep:
    """Everything read off one oriented front, from one validated sweep,
    beside the front itself, so that no reader pairs it with another.
    Every field is immutable, so equal records hash equal."""

    diagram: FrontDiagram
    geometry: FrontGeometry
    components: ComponentMap
    invariants: ClassicalInvariants
    maslov: MaslovAssignment
    indices: tuple[int, ...]  # Maslov index, aligned with crossing ids 1..c


def crossing_sign(over_rightward: bool, under_rightward: bool) -> int:
    """det(over direction, under direction) for a front crossing.

    The over strand runs down-right, the under strand up-right; the
    determinant is positive exactly when the x-directions agree.
    """
    return 1 if over_rightward == under_rightward else -1


def sweep_front(diagram: FrontDiagram, reverse=()) -> FrontSweep:
    """Sweep the front once and derive its oriented data from the geometry.

    Arcs joined at a cusp form a component and get opposite x-directions.
    One walk per component orients it and propagates the Maslov cusp jumps
    from its seed, the component's least arc id: the upper arc of its
    earliest left cusp, whose lower arc is the reference arc (earliest
    born, then bottommost).  The seed starts leftward at potential 1, so
    the reference arc comes out rightward at 0; a reversed component's seed
    starts flipped and one higher.  The potential is verified consistent
    mod 2r and even on rightward arcs, so a failure indicates a traversal
    bug, not bad input.
    """
    return _sweep_front(diagram, reverse, None)


def _sweep_front(diagram: FrontDiagram, reverse, anchor) -> FrontSweep:
    """``sweep_front``, with each seed started through an arc map if given.

    ``anchor`` is a pair (record, arcs): arc a continues arc ``arcs[a]`` of
    another front's ``FrontSweep``, and each seed starts at that arc's
    direction and potential, not leftward at 1, before the reduction mod
    this front's own 2r; ``reverse`` still flips and raises a component.
    """
    geom = sweep_geometry(diagram)
    n_arcs = geom.num_arcs
    reverse = frozenset(reverse)
    record, arcs = anchor or (None, None)
    # per arc, the arcs it meets at a cusp with the Maslov jump towards them
    edges: list[list[tuple[int, int]]] = [[] for _ in range(n_arcs)]
    for cusp in geom.cusps:
        edges[cusp.lower_arc].append((cusp.upper_arc, +1))
        edges[cusp.upper_arc].append((cusp.lower_arc, -1))

    # one walk per component from its seed orients it and propagates the potential
    comp = [-1] * n_arcs
    rightward = [True] * n_arcs
    potential = [0] * n_arcs
    n_comp = 0
    for seed in range(n_arcs):
        if comp[seed] >= 0:
            continue
        comp[seed] = n_comp
        flip = n_comp in reverse  # the seed rule: flipped and one higher when reversed
        rightward[seed], potential[seed] = (flip, 1 + flip) if record is None else (
            record.components.arc_rightward[arcs[seed]] != flip, record.maslov.potential[arcs[seed]] + flip)
        todo = [seed]
        while todo:
            a = todo.pop()
            for b, jump in edges[a]:
                if comp[b] < 0:
                    comp[b] = n_comp
                    rightward[b] = not rightward[a]
                    potential[b] = potential[a] + jump
                    todo.append(b)
                elif rightward[b] == rightward[a]:
                    raise RuntimeError("inconsistent orientation around a component")
        n_comp += 1

    unknown = reverse - set(range(n_comp))
    if unknown:
        raise ValueError(f"no such component(s): {sorted(unknown)}")
    cmap = ComponentMap(n_comp, tuple(comp), tuple(rightward))

    signs = tuple(
        crossing_sign(rightward[x.over_arc], rightward[x.under_arc]) for x in geom.crossings
    )
    writhe = sum(signs)
    num_right = sum(1 for c in geom.cusps if c.kind == "R")
    # a cusp is a down cusp when the traversal passes downward through it,
    # i.e. when its upper arc is directed toward the cusp point
    down_up = [0] * n_comp
    for cusp in geom.cusps:
        down_up[comp[cusp.upper_arc]] += 1 if rightward[cusp.upper_arc] != (cusp.kind == "L") else -1
    rotations = tuple(du // 2 for du in down_up)
    r = 0
    for rot in rotations:
        r = math.gcd(r, abs(rot))
    inv = ClassicalInvariants(
        tb=writhe - num_right,
        rot_per_component=rotations,
        r=r,
        writhe=writhe,
        num_right_cusps=num_right,
        crossing_signs=signs,
    )

    modulus = 2 * r

    def reduce(x: int) -> int:
        return x % modulus if modulus else x

    potential = [reduce(mu) for mu in potential]
    for cusp in geom.cusps:
        if reduce(potential[cusp.upper_arc] - potential[cusp.lower_arc] - 1) != 0:
            raise RuntimeError("Maslov potential propagation is inconsistent at a cusp")
    for a in range(n_arcs):
        if rightward[a] and potential[a] % 2 != 0:
            raise RuntimeError("rightward arc received an odd Maslov potential")
    indices = tuple(reduce(potential[x.over_arc] - potential[x.under_arc]) for x in geom.crossings)
    return FrontSweep(diagram, geom, cmap, inv, MaslovAssignment(modulus, tuple(potential)), indices)


def components(diagram: FrontDiagram, reverse=()) -> ComponentMap:
    """Partition arcs into components and orient them (see ``sweep_front``)."""
    return sweep_front(diagram, reverse).components


def classical_invariants(diagram: FrontDiagram, reverse=()) -> ClassicalInvariants:
    return sweep_front(diagram, reverse).invariants


def maslov_potential(diagram: FrontDiagram, reverse=()) -> MaslovAssignment:
    """Maslov potential of every arc (see ``sweep_front``)."""
    return sweep_front(diagram, reverse).maslov


def crossing_indices(diagram: FrontDiagram, reverse=()) -> dict[int, int]:
    """Maslov index of every crossing: potential of the upper-left strand
    minus the lower-left one, mod 2r, keyed by crossing id."""
    return dict(enumerate(sweep_front(diagram, reverse).indices, start=1))


def crossing_index(diagram: FrontDiagram, crossing_id: int, reverse=()) -> int:
    indices = crossing_indices(diagram, reverse)
    # a bool or 1.0 hashes like the int id it equals
    if type(crossing_id) is not int or crossing_id not in indices:
        raise ValueError(f"front {diagram.name!r} has no crossing {crossing_id}")
    return indices[crossing_id]


# ---------------------------------------------------------------------------
# Connected sum


def connected_sum(f1: FrontDiagram, f2: FrontDiagram) -> FrontDiagram:
    """Splice two valid non-empty fronts.  Every such front opens with the
    left cusp L1 and closes with a right cusp over its last two strands.

    The closing cusp of f1 and the opening cusp of f2 are removed and the
    two freed strands of f1 continue into f2's events unchanged.
    """
    for f in (f1, f2):
        if not validate(f).ok:
            _invalid(f)
    if not (f1.events and f2.events):
        raise NormalFormError(f"{(f2 if f1.events else f1).name!r} is the empty front")
    return FrontDiagram(
        f1.events[:-1] + f2.events[1:],
        name=f"{f1.name}#{f2.name}",
    )


def _connected_sum_sweeps(f1: FrontDiagram, f2: FrontDiagram, reverse):
    """The records of f1, f2 and their composite: the composite swept under
    ``reverse``, each summand under the orientation and potential the
    composite induces.  f1's arcs keep their ids, f2's arcs 0 and 1
    continue the upper and lower arcs of f1's closing cusp, and f2's arc
    a >= 2 is arc A1 + a - 2 for f1's A1.
    """
    s12 = sweep_front(connected_sum(f1, f2), reverse)
    s1 = _sweep_front(f1, (), (s12, range(s12.geometry.num_arcs)))
    closing = s1.geometry.cusps[-1]
    arcs = (closing.upper_arc, closing.lower_arc, *range(s1.geometry.num_arcs, s12.geometry.num_arcs))
    return s1, _sweep_front(f2, (), (s12, arcs)), s12
