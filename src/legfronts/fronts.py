"""Combinatorial front diagrams of Legendrian links, plat style.

A front is encoded as a left-to-right sequence of events, one per generic
x-slice, each a ``FrontEvent``: ``FrontDiagram`` converts the events it is
given, so ``FrontEvent`` is the one home of the rule that a kind is L, R or
X and a height an int >= 1.  With n strands entering a slice (numbered
1..n from the top), the legal events are:

* ``L k`` (1 <= k <= n+1): a left cusp opens two new strands at heights
  k and k+1; strands previously at height >= k move down by two.
* ``R k`` (1 <= k <= n-1): a right cusp closes the strands at heights
  k and k+1; strands below move up by two.
* ``X k`` (1 <= k <= n-1): the strands at heights k and k+1 cross.

The total event order realizes genericity: no two events share an
x-coordinate.  A strand arc runs from a left cusp to a right cusp,
passing through crossings; components are obtained by joining the two
arcs that meet at each cusp.  Every arc meets exactly two cusps, its
left cusp and one right cusp, so each component is a cycle of arcs
through alternate left and right cusps.

``sweep_front`` sweeps a front once, checking its heights as it goes,
and derives everything else from that one geometry: one walk around each
component's cusp cycle gives the component map and orientations, the
Maslov potential and the rotation numbers, and from those come tb, r and
the crossing indices, held in the flat fields of one ``FrontSweep``
record beside the front itself.  This module alone defines the record:
its fields are numbers and tuples, cusps and crossings plain tuples of
arc ids, and per-crossing data are by position: crossing id c, the c-th
crossing in x-order, is entry c - 1.  ``components`` and
``classical_invariants`` are other names of ``sweep_front`` itself.

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

The package's error types live here, so that any layer can raise one
without importing another, and so does the skein polynomials' ceiling on
the input's crossing count: ``DEFAULT_MAX_CROSSINGS`` is its default,
and ``ResourceLimitError`` is raised when a diagram exceeds it.  ``skein``
re-exports both as the same objects; the command line reads them here,
so commands that compute no polynomial never load the skein layer.
"""

import math
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


DEFAULT_MAX_CROSSINGS = 16


class ResourceLimitError(RuntimeError):
    """An input exceeds a ceiling: skein crossings, or rulings to list."""


class _Event(NamedTuple):  # FrontEvent's fields: a NamedTuple body cannot define __new__
    kind: str  # "L", "R" or "X"
    height: int  # 1-based from the top strand


class FrontEvent(_Event):
    __slots__ = ()

    def __new__(cls, kind: str, height: int):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if type(height) is not int or height < 1:
            raise ValueError(f"event height must be a positive integer, got {height!r}")
        return tuple.__new__(cls, (kind, height))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.kind}{self.height}"


class _Front(NamedTuple):  # FrontDiagram's fields, as _Event holds FrontEvent's
    events: tuple[FrontEvent, ...]
    name: str
    # source line per event when parsed from text; informational only
    lines: tuple[int, ...] | None


class FrontDiagram(_Front):  # every event a FrontEvent, checked when the front is made
    __slots__ = ()

    def __new__(cls, events, name="front", lines=None):
        events = tuple([ev if type(ev) is FrontEvent else FrontEvent(*ev) for ev in events])
        return tuple.__new__(cls, (events, name, lines))

    @classmethod
    def _make(cls, iterable):  # so that _replace converts too
        return cls(*iterable)

    # equal, and hashed, by events alone: name and lines are informational
    def __eq__(self, other):
        return isinstance(other, FrontDiagram) and self.events == other.events

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.events)

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
    return FrontDiagram(events, name=name)


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
    return FrontDiagram(events, name=name, lines=tuple(lines))


def render_front(diagram: FrontDiagram) -> str:
    """Inverse of parse_front up to comments and whitespace."""
    return "".join(f"{kind} {k}\n" for kind, k in diagram.events)


class Violation(NamedTuple):
    event_index: int | None  # 1-based; None for end-of-diagram violations
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def validate(diagram: FrontDiagram) -> ValidationReport:
    """Check event heights against live strand counts; never raises."""
    violations = []
    n = 0
    for i, (kind, k) in enumerate(diagram.events, start=1):
        if kind == "L":  # heights are >= 1: FrontDiagram holds FrontEvents
            if k > n + 1:
                violations.append(Violation(i, f"left cusp height {k} out of range 1..{n + 1}"))
            n += 2
        elif kind == "R":
            if k >= n:
                violations.append(Violation(i, _bad_pair_height("right cusp", k, n)))
            n -= 2
            if n < 0:
                violations.append(Violation(i, "strand count went negative"))
                n = 0
        elif k >= n:
            violations.append(Violation(i, _bad_pair_height("crossing", k, n)))
    if n != 0:
        violations.append(Violation(None, f"{n} strands left open at the end of the diagram"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _bad_pair_height(what: str, k: int, n: int) -> str:
    # a right cusp or crossing at height k joins strands k and k + 1
    if n < 2:
        return f"{what} height {k} needs two live strands, {n} live"
    return f"{what} height {k} out of range 1..{n - 1}"


# ---------------------------------------------------------------------------
# The sweep record: geometry, components, classical invariants and Maslov data


class FrontSweep(NamedTuple):
    """Everything read off one oriented front, from one validated sweep,
    beside the front itself, so that no reader pairs it with another.

    Arcs 2j and 2j + 1 are the upper and lower arcs of left cusp j, from 0.
    A cusp is a tuple (kind, upper arc, lower arc) with kind "L" or "R", and
    a crossing a tuple (over arc, under arc), the over arc the one entering
    at height k, in front.  Cusps and crossings are in x-order, and crossing
    id c, with its sign and index, is at position c - 1.  Every field is
    immutable, so equal records hash equal.
    """

    diagram: FrontDiagram
    num_arcs: int
    cusps: tuple[tuple[str, int, int], ...]
    crossings: tuple[tuple[int, int], ...]
    num_components: int
    arc_component: tuple[int, ...]
    arc_rightward: tuple[bool, ...]
    tb: int
    rot_per_component: tuple[int, ...]
    r: int  # gcd of |rotations|; 0 when all rotations vanish
    writhe: int
    num_right_cusps: int
    crossing_signs: tuple[int, ...]
    modulus: int  # 2r; 0 means integer-valued
    potential: tuple[int, ...]  # per arc, reduced mod modulus when nonzero
    indices: tuple[int, ...]  # Maslov index per crossing


def sweep_geometry(diagram: FrontDiagram) -> tuple[int, tuple, tuple]:
    """(num_arcs, cusps, crossings) as ``FrontSweep`` holds them, read in one
    pass that also checks each height against the live strand count.

    The first failed check raises ``InvalidFrontError`` with the message of
    the first violation ``validate`` reports; a valid front is never
    validated separately.
    """
    stack: list[int] = []  # arc id per current height, top first
    n_arcs = 0
    cusps = []
    crossings = []
    for kind, k in diagram.events:  # heights are >= 1: FrontDiagram holds FrontEvents
        if kind == "L":
            if k > len(stack) + 1:
                _invalid(diagram)
            stack[k - 1:k - 1] = [n_arcs, n_arcs + 1]
            cusps.append(("L", n_arcs, n_arcs + 1))
            n_arcs += 2
        elif k >= len(stack):  # a right cusp or a crossing needs strands k and k + 1
            _invalid(diagram)
        elif kind == "R":
            cusps.append(("R", stack[k - 1], stack[k]))
            del stack[k - 1:k + 1]
        else:
            over, under = stack[k - 1], stack[k]
            crossings.append((over, under))
            stack[k - 1], stack[k] = under, over
    if stack:
        _invalid(diagram)
    return n_arcs, tuple(cusps), tuple(crossings)


def _invalid(diagram: FrontDiagram):
    raise InvalidFrontError(f"invalid front {diagram.name!r}: {validate(diagram).violations[0].message}")


def sweep_front(diagram: FrontDiagram, reverse=()) -> FrontSweep:
    """Sweep the front once and derive its oriented data from the geometry.

    Arcs joined at a cusp form a component and get opposite x-directions.
    Arc a meets its left cusp with arc a ^ 1 and its right cusp with one
    other arc, so a component is a cycle of arcs through alternate left
    and right cusps.  One walk around each cycle orients it and propagates
    the Maslov cusp jumps from its seed, the component's least arc id,
    which is even: the upper arc of its earliest left cusp, whose lower arc
    is the reference arc (earliest born, then bottommost).  The seed starts
    leftward at potential 1, so the reference arc comes out rightward at 0;
    a reversed component's seed starts flipped and one higher.  Back at the
    seed, the jumps taken along the orientation sum to -2 rot, which gives
    the component's rotation number.  The cycle is verified to close at its
    seed and the potential consistent mod 2r at every cusp and even on
    rightward arcs, so a failure indicates a traversal bug, not bad input.
    Components are reversed by int id; any other id is no component.
    """
    return _sweep_front(diagram, reverse, None)


def _sweep_front(diagram: FrontDiagram, reverse, anchor, geometry=None) -> FrontSweep:
    """``sweep_front``, with each seed started through an arc map if given,
    from the front's ``sweep_geometry`` if given.

    ``anchor`` is a pair (record, arcs): arc a continues arc ``arcs[a]`` of
    another front's ``FrontSweep``, and each seed starts at that arc's
    direction and potential, not leftward at 1, before the reduction mod
    this front's own 2r; ``reverse`` still flips and raises a component.
    """
    n_arcs, cusps, crossings = geometry or sweep_geometry(diagram)
    reverse = tuple(reverse)
    record, arcs = anchor or (None, None)
    # per arc, its partner across its right cusp and the Maslov jump towards it
    other = [0] * n_arcs
    jump = [0] * n_arcs
    for kind, upper, lower in cusps:
        if kind == "R":
            other[upper], other[lower] = lower, upper
            jump[upper], jump[lower] = -1, 1

    # one walk around each component's cusp cycle, from its seed
    comp = [-1] * n_arcs
    rightward = [False] * n_arcs
    potential = [0] * n_arcs
    rotations = []
    for seed in range(0, n_arcs, 2):
        if comp[seed] >= 0:
            continue
        c = len(rotations)
        flip = c in reverse  # the seed rule: flipped and one higher when reversed
        right, mu = (flip, 1 + flip) if record is None else (
            record.arc_rightward[arcs[seed]] != flip, record.potential[arcs[seed]] + flip)
        a = seed
        while comp[a] < 0:  # a runs as the seed does, its left-cusp partner a ^ 1 the other way
            comp[a], rightward[a], potential[a] = c, right, mu
            mu += 1 if a & 1 else -1
            a ^= 1
            comp[a], rightward[a], potential[a] = c, not right, mu
            mu += jump[a]
            a = other[a]
        if a != seed:  # a cycle closing elsewhere would give an arc two directions
            raise RuntimeError("inconsistent orientation around a component")
        # a leftward seed starts the walk along the orientation
        rot = (mu - potential[seed]) // 2
        rotations.append(rot if right else -rot)
    n_comp = len(rotations)

    # True and 1.0 equal component 1 but are not ids; listed in the caller's order
    unknown = [c for c in reverse if type(c) is not int or not 0 <= c < n_comp]
    if unknown:
        raise ValueError(f"no such component(s): {unknown}")

    # positive exactly when the two strands agree in x-direction
    signs = tuple([1 if rightward[over] == rightward[under] else -1 for over, under in crossings])
    writhe = sum(signs)
    r = math.gcd(*rotations)
    modulus = 2 * r
    if modulus:
        potential = [mu % modulus for mu in potential]
        indices = tuple([(potential[over] - potential[under]) % modulus for over, under in crossings])
    else:
        indices = tuple([potential[over] - potential[under] for over, under in crossings])
    for _, upper, lower in cusps:
        # reduced, upper - lower - 1 is 0 mod 2r when it is 0 or -2r
        if potential[upper] - potential[lower] - 1 not in (0, -modulus):
            raise RuntimeError("Maslov potential propagation is inconsistent at a cusp")
    if any(right and mu % 2 for right, mu in zip(rightward, potential)):
        raise RuntimeError("rightward arc received an odd Maslov potential")
    return FrontSweep(
        diagram, n_arcs, cusps, crossings, n_comp, tuple(comp), tuple(rightward),
        writhe - n_arcs // 2, tuple(rotations), r, writhe, n_arcs // 2, signs,
        modulus, tuple(potential), indices,
    )


components = classical_invariants = sweep_front


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
    return _splice(f1, f2)


def _splice(f1: FrontDiagram, f2: FrontDiagram) -> FrontDiagram:
    """``connected_sum`` of two fronts already known valid."""
    if not (f1.events and f2.events):
        raise NormalFormError(f"{(f2 if f1.events else f1).name!r} is the empty front")
    return FrontDiagram(f1.events[:-1] + f2.events[1:], name=f"{f1.name}#{f2.name}")


def _connected_sum_sweeps(f1: FrontDiagram, f2: FrontDiagram, reverse):
    """The records of f1, f2 and their composite: the composite swept under
    ``reverse``, each summand under the orientation and potential the
    composite induces.  f1's arcs keep their ids, f2's arcs 0 and 1
    continue the upper and lower arcs of f1's closing cusp, and f2's arc
    a >= 2 is arc A1 + a - 2 for f1's A1.  Each summand's geometry is
    swept once, which checks it, f1 first, as ``connected_sum`` does.
    """
    g1, g2 = sweep_geometry(f1), sweep_geometry(f2)
    s12 = sweep_front(_splice(f1, f2), reverse)
    s1 = _sweep_front(f1, (), (s12, range(s12.num_arcs)), g1)
    _, upper, lower = s1.cusps[-1]
    arcs = (upper, lower, *range(s1.num_arcs, s12.num_arcs))
    return s1, _sweep_front(f2, (), (s12, arcs), g2), s12
