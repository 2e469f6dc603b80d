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
residue.  A switch set has the grading tag 0 (Z-graded), 1 (2-graded) or
2 (ungraded only); one table maps each class filter to the largest tag
it admits, and every reader of a class filter checks it there.  The
Euler characteristic of the associated surface is theta = eyes -
switches; for a knot front a 2-graded ruling is an orientable surface
with one boundary circle, so its genus is half its z-exponent 1 - theta,
(switches - eyes + 1) / 2.  ``_genus`` applies that rule, and raises
when it gives no natural number, for the listing and the census alike.

Censuses and listings each come from one pass over a front's sweep
record, ``fronts.FrontSweep``, which carries the front, ``num_arcs``,
``num_components`` and the crossing ``indices`` and ``crossing_signs``,
both tuples by position, crossing id c at c - 1; the pass merges equal
states.  A state is the pairing with the grading tag of its switches so
far; it carries a value that the caller picks.  No state tracks the
signs of its switches: an even index means equal potential parity at
the crossing, so equal x-directions, so a positive crossing, and the
pass checks that at every crossing before it starts.  The census reads
the events left to right and carries the counts of partial rulings per
number of switches packed in one int, the count with s switches in the
w-bit slot s, w >= c + 1 for c crossings: a slot counts distinct
s-subsets of the crossings, at most C(c, s) < 2^w, so adding values
never carries across slots, and one pass yields all three classes.
Beside them it gives a knot's largest 2-graded genus, read off the
slots whose genus it checks.  It has two readers: ``census`` unpacks
the counts at w = c + 1 into the polynomials of a ``RulingCensus``,
beside whether the front is a knot, and ``_connsum_verdicts``, the
splice check of ``analysis.connsum_check``, multiplies the packed ints
of a splice's summands, swept at a width set by the composite, and
compares them and the summands' summed genera with the composite's.
Only ``census`` builds polynomials, so it alone reads
``legfronts.laurent``, which the package imports on first touch, and a
listing or ``connsum_check`` never loads the Laurent layer.  The
listing pass reads the events right to left, a right cusp opening a
pair and a left cusp closing one, and carries the switch sets in sorted
order: each a string of code points chr(cid), ids increasing, so string
order is id-tuple order, beside the caller's rendering of the set.  A
switch prepends chr(cid), below every code point present, so a state's
strings stay in order; runs that reach one state are concatenated, and
merged by code only where switched sets of different tags meet.  The
empty set sorts first, so it is a flag until the pass ends and a run
that holds it still concatenates; the sorted runs of the end tags are
merged the same way.  ``enumerate_rulings`` renders a set as its tuple
of ids and the command line as finished text, with a separator after
each id but the largest, the first one prepended.  Every field of a
listed ruling but its switches depends only on its shape, the pair (end
tag, switch count), so the listing computes and checks those fields
once per shape.

The moves of a state at an event depend only on the event's kind and
height and on the pairing, so ``_moves`` is the move table: one bounded
``lru_cache`` of immutable tuples that every sweep in the process reads,
census, listing and command line alike, so a move is computed once for
as long as the table holds it.  At 2^14 entries of about 320 B it holds
at most about 5 MB.  The benchmark workloads fill few entries (about 150
on verify-small, 13 on census-sum, 7 on rulings-list), and a
40-crossing, 12-strand ruled random front about 8,000.
"""

from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import legfronts

from . import fronts

# the class table: the largest grading tag each class filter admits
_LIMITS = {"ungraded": 2, "two_graded": 1, "z_graded": 0}
GRADING_FILTERS = tuple(_LIMITS)


class GradingClass(Enum):
    UNGRADED_ONLY = "ungraded_only"
    TWO_GRADED = "two_graded"
    Z_GRADED = "z_graded"

    def __str__(self) -> str:
        return self.value


class Ruling(NamedTuple):
    switches: tuple[int, ...]  # crossing ids, sorted
    eyes: int  # = number of left cusps
    theta: int  # eyes - switches, the Euler characteristic
    grading: GradingClass
    genus: int | None  # only for 2-graded rulings of knot fronts
    orientable: bool | None  # None when undetermined (non-2-graded link rulings)


# grading tag of a switch, or of a set of switches: 0 Z-graded, 1 2-graded, 2 ungraded only
_GRADINGS = (GradingClass.Z_GRADED, GradingClass.TWO_GRADED, GradingClass.UNGRADED_ONLY)


def _limit(class_filter: str) -> int:
    """The largest tag a switch of the class may have, from the class table."""
    if class_filter not in GRADING_FILTERS:
        raise ValueError(f"class_filter must be one of {GRADING_FILTERS}")
    return _LIMITS[class_filter]


def _genus(exponent: int) -> int:
    """The genus of a 2-graded knot ruling: half its z-exponent 1 - theta."""
    if exponent % 2 != 0 or exponent < 0:
        raise RuntimeError("2-graded knot ruling with non-integral genus")
    return exponent // 2


@lru_cache(maxsize=1 << 14)
def _moves(kind: str, k: int, p: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The pairings that can follow p at an event at height k + 1, each
    with whether it switches the crossing there.

    p[h] is the partner of strand h + 1: heights count from 0 here.  The
    result depends on the arguments alone and is immutable, so the move
    table caches it for every caller in the process.
    """
    if kind == "L":  # shift heights >= k up by two and pair (k, k + 1)
        q = tuple(h + 2 if h >= k else h for h in p)
        return ((q[:k] + (k + 1, k) + q[k:], False),)
    if kind == "R":  # the cusp must close an eye
        if p[k] != k + 1:
            return ()
        return ((tuple(h - 2 if h > k else h for h in p[:k] + p[k + 2:]), False),)
    if p[k] == k + 1:  # the two arcs of one eye may not cross
        return ()
    q = [k + 1 if h == k else k if h == k + 1 else h for h in p]
    q[k], q[k + 1] = q[k + 1], q[k]
    trade = (tuple(q), False)  # no switch: the strands trade eye membership
    # a switch is normal when the two eyes span disjoint or nested intervals
    lo_a, hi_a = sorted((k, p[k]))
    lo_b, hi_b = sorted((k + 1, p[k + 1]))
    if hi_a < lo_b or hi_b < lo_a or lo_a < lo_b < hi_b < hi_a or lo_b < lo_a < hi_a < hi_b:
        return trade, (p, True)
    return (trade,)


def enumerate_rulings(
    diagram: fronts.FrontDiagram,
    class_filter: str = "ungraded",
    reverse=(),
) -> list[Ruling]:
    """All normal rulings in the given grading class, sorted by switch set.

    One merging sweep carries the sorted switch sets of the partial
    rulings in each state, taking no switch outside the class; the
    grading of each ruling is the tag of the end state that holds it.
    """
    _limit(class_filter)  # a bad filter is reported before the front is swept
    sweep = fronts.sweep_front(diagram, reverse)
    return _listing(sweep, class_filter, lambda cid: (cid,), (), lambda fields: fields, lambda ids, f: Ruling(ids, *f))


class _Listed:
    """Sorted switch sets as code strings and, in parallel, rendered; the
    empty set, which sorts before every other, is a flag while the pass runs."""

    def __init__(self, codes, shown, empty=False):
        self.codes, self.shown, self.empty = codes, shown, empty

    def __add__(self, other: "_Listed") -> "_Listed":
        # an empty run compares below every other, so it comes first
        a, b = (other, self) if other.codes[-1:] < self.codes[:1] else (self, other)
        codes, shown = a.codes + b.codes, a.shown + b.shown
        if b.codes[:1] < a.codes[-1:]:  # the runs interleave: merge them by code
            codes, shown = map(list, zip(*sorted(zip(codes, shown))))
        return _Listed(codes, shown, a.empty or b.empty)


def _listing(sweep: fronts.FrontSweep, class_filter: str, name, sep, shape, entry) -> list:
    """The rulings of the class in switch order, each as entry(shown, shape(fields)).

    A switch set is rendered as name(cid) for each id, with ``sep`` after
    each but the largest, and as sep * 0 when empty.  The fields of n
    switches are a shape's (eyes, theta, grading, genus, orientable),
    theta = eyes - n, shared by the end tag's rulings, so ``shape`` runs
    and the genus integrality check runs once per shape.  The end tags'
    sorted runs are merged by code, chr(cid) per switched id in
    increasing order.
    """
    is_knot = sweep.num_components == 1
    eyes = sweep.num_arcs // 2

    def bump(value: _Listed, cid: int) -> _Listed:
        c, alone = chr(cid), name(cid)
        before = alone + sep
        return _Listed(
            [c] * value.empty + [c + s for s in value.codes], [alone] * value.empty + [before + t for t in value.shown]
        )

    listed = _Listed([], [])
    for tag, found in _sweep(sweep, _limit(class_filter), _Listed([], [], True), bump, -1).items():
        # 2-graded rulings bound orientable surfaces; for a knot the converse
        # holds too, while an ungraded-only link ruling is left undetermined
        orientable = True if tag < 2 else False if is_knot else None
        codes = [""] * found.empty + found.codes
        shapes = {}
        for n in set(map(len, codes)):
            g = _genus(n - eyes + 1) if is_knot and tag < 2 else None
            shapes[n] = shape((eyes, eyes - n, _GRADINGS[tag], g, orientable))
        shown = [sep * 0] * found.empty + found.shown
        listed += _Listed(codes, [entry(t, shapes[len(c)]) for c, t in zip(codes, shown)])
    return listed.shown


def _sweep(sweep: fronts.FrontSweep, limit: int, start, bump, step=1) -> dict:
    """The value of each end tag after one merging pass over the record's front.

    A state key is (pairing, tag): the pairing as in ``_moves`` and the
    grading tag of the switches so far.  Each key carries a value,
    ``start`` for the empty pairing; a switch at crossing cid maps it
    through ``bump(value, cid)`` and is not taken when its tag exceeds
    ``limit``.  Values that reach one key are added with ``+``: packed
    counts for the census, ``_Listed`` runs for the listing.  The pass
    reads the events left to right at step 1 and right to left at -1.
    """
    tags = [0 if index == 0 else 1 if index % 2 == 0 else 2 for index in sweep.indices]
    for tag, sign in zip(tags, sweep.crossing_signs):
        if tag < 2 and sign != 1:
            # even index forces a positive crossing under the even-right convention
            raise RuntimeError("2-graded switch at a negative crossing")
    states = {((), 0): start}
    cid = 0 if step == 1 else len(tags) + 1
    for kind, k in sweep.diagram.events[::step]:
        if kind == "X":
            cid += step
            tag_here = tags[cid - 1]
        elif step == -1:  # a right cusp opens a pair and a left cusp closes one
            kind = "RL"[kind == "R"]
        merged: dict = {}
        for (p, tag), value in states.items():
            for q, switched in _moves(kind, k - 1, p):
                key, add = (q, tag), value
                if switched:
                    if tag_here > limit:
                        continue
                    key, add = (q, max(tag, tag_here)), bump(value, cid)
                merged[key] = merged[key] + add if key in merged else add
        states = merged
    # a valid front ends on the empty pairing
    return {tag: value for (_, tag), value in states.items()}


def _unpack(packed: int, w: int, offset: int) -> dict[int, int]:
    """{offset + s: slot s} for the nonzero w-bit slots of ``packed``."""
    mask, out, e = (1 << w) - 1, {}, offset
    while packed:
        if packed & mask:
            out[e] = packed & mask
        packed >>= w
        e += 1
    return out


class RulingCensus(NamedTuple):
    """The three class polynomials of one front; a mapping, so not hashable."""

    __hash__ = None
    is_knot: bool
    polynomials: dict[str, "legfronts.laurent.ZPoly"]

    def count(self, class_filter: str) -> int:
        _limit(class_filter)
        return sum(self.polynomials[class_filter].terms.values())

    def max_genus(self, class_filter: str = "two_graded") -> int | None:
        """Half the top z-degree of the class's 2-graded rulings, the ones with a genus; None for links."""
        genus_class = min(class_filter, "two_graded", key=_limit)
        if not self.is_knot:
            return None
        top = self.polynomials[genus_class].degree()
        return None if top is None else _genus(top)


def census(diagram: fronts.FrontDiagram, reverse=()) -> RulingCensus:
    """The class polynomials from one merged sweep; ``enumerate_rulings`` lists the rulings."""
    return _census(fronts.sweep_front(diagram, reverse))


def _census(sweep: fronts.FrontSweep) -> RulingCensus:
    """The class polynomials, read off the packed counts at w = c + 1."""
    w, offset = len(sweep.crossings) + 1, 1 - sweep.num_arcs // 2
    by_limit = [legfronts.laurent.ZPoly(_unpack(v, w, offset)) for v in _class_counts(sweep, w)[0]]
    return RulingCensus(sweep.num_components == 1, {cls: by_limit[limit] for cls, limit in _LIMITS.items()})


def _class_counts(sweep: fronts.FrontSweep, w: int) -> tuple[list[int], int | None]:
    """The packed class counts by limit 0, 1, 2 from one sweep, at w >= c + 1,
    and the largest genus of a 2-graded ruling: None for a link or when
    there is none.

    A value holds the number of partial rulings with s switches in bits
    [w * s, w * (s + 1)): start is 1 and a switch shifts by w.  A class
    sums the end tags up to its limit, so one running sum over the tags
    0, 1, 2 gives the three classes; the end tags partition the switch
    sets, so the sums stay within the slot bound C(c, s) < 2^w.  For a
    knot every nonzero 2-graded slot must give a genus.
    """
    ends = _sweep(sweep, 2, 1, lambda v, cid: v << w)
    by_limit = list(accumulate(ends.get(tag, 0) for tag in range(3)))
    if sweep.num_components != 1:
        return by_limit, None
    two = _unpack(by_limit[_LIMITS["two_graded"]], w, 1 - sweep.num_arcs // 2)
    return by_limit, max(map(_genus, two), default=None)


def _connsum_verdicts(s1, s2, s12) -> tuple[bool, bool, bool | None]:
    """(counts_ok, polynomials_ok, genus_additive) from the three records'
    packed class counts at one slot width w = c12 + 2.

    The splice keeps every crossing and removes two cusps: c12 = c1 + c2
    and the z-offsets 1 - eyes add.  Summand slot s is at most C(c_i, s),
    so by Vandermonde a product's slot is at most C(c12, s) < 2^w, true
    identity or not: no carry crosses a slot, and a * b == ab is the
    polynomial identity.  A count, at most 2^c12 < 2^w - 1, is the packed
    value mod 2^w - 1.
    """
    records = (s1, s2, s12)
    (c1, e1), (c2, e2), (c12, e12) = ((len(s.crossings), s.num_arcs // 2) for s in records)
    if c12 != c1 + c2 or e12 != e1 + e2 - 1:
        raise RuntimeError("the splice must keep every crossing and remove two cusps")
    w = c12 + 2
    m = (1 << w) - 1
    (p1, g1), (p2, g2), (p12, g12) = (_class_counts(s, w) for s in records)
    counts_ok = all((a % m) * (b % m) == ab % m for a, b, ab in zip(p1, p2, p12))
    polynomials_ok = all(a * b == ab for a, b, ab in zip(p1, p2, p12))
    return counts_ok, polynomials_ok, None if g1 is None or g2 is None else g12 == g1 + g2
