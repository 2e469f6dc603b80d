"""Skein-recursion polynomial invariants of link diagrams from fronts.

Fronts convert to ``LinkDiagram``s (see ``diagram``) in one pass over
the events, smoothing cusps and reading the over strand from slopes,
that writes the diagram's flat fields directly; ports are numbered NW,
SW, SE, NE, so a front-born crossing always carries its over strand on
(0, 2).

Both polynomial invariants are computed by one descending-diagram
recursion: walk the components from deterministic base points; the first
crossing met on its under strand is expanded by the skein relation into a
switched child (fewer bad crossings) and smoothed children (fewer
crossings); a diagram with no bad crossing is a layered unlink and is a
leaf.  Before it is expanded, every diagram is reduced: Reidemeister-I
curls are removed (worth a^{+-1} to the Dubrovnik polynomial, 1 to
Homfly), and so are Reidemeister-II bigons whose one strand is over at
both crossings (worth 1 to both).  The input is reduced once and cut
into split components and connected summands, each expanded alone with
its two cut ports joined; k split components and l free loops add the
factor delta^(k + l - 1).  The diagram keeps its reduction and cut for
its lifetime, so Homfly and Kauffman of one diagram share them.

Every node is a ``LinkDiagram`` in the flat format of ``diagram``: a
crossing is its rank, a port the integer 4 * rank + port, and the moves,
reductions, walks and cuts run on integer tuples.  This module reads no
ports: it asks the diagram for the first bad crossing, a crossing's sign
or over flag, a leaf's writhe and walk count, and the memo key.

The expansion is memoized.  A node's value is the sum of its leaves
c v^ev z^ez delta^(n-1), kept as {(ev, ez, n): c} relative to the node;
a parent shifts its children's values by the branch monomials, by the
curls their reduction removed and by their free loops.  The key of a
reduced node is ``memo_key()``: its over flags, inflow ports and port
matching, all by rank, with free loops left out.  Equal keys mean the two
diagrams differ only by a renaming of crossings, and neither Homfly of
an oriented diagram nor the Dubrovnik polynomial of an unoriented one
depends on names, so a hit is exact.  A twist region meets its shorter
windows again under other ids, so T(2,n) expands n + 1 nodes instead of
a Fibonacci tree.  One memo serves one call of ``homfly`` or
``kauffman_dubrovnik`` and is shared by its pieces, so equal summands are
expanded once; no memo outlives its call.  The expansion runs on an
explicit stack, so no ceiling the caller sets can reach Python's
recursion limit.  A piece's value is multiplied out against the powers
of delta, the first piece's shifted by the factor delta^(k + l - 1).
The powers come from one table per delta, grown on demand and kept for
the life of the process; every returned polynomial is a fresh object.

Conventions (pinned operationally by the test suite):

* Homfly: v^{-1} P(L+) - v P(L-) = z P(L0), P(unknot) = 1, so an
  n-component unlink takes the value delta^(n-1) with
  delta = (v^{-1} - v)/z.
* Kauffman, Dubrovnik flavor: the regular-isotopy invariant D satisfies
  D(L+) - D(L-) = z (D(L0) - D(Loo)), a positive curl contributes a
  factor a, a split unknot a factor (a - a^{-1})/z + 1, and a descending
  diagram with writhe w takes the value a^w ((a - a^{-1})/z + 1)^(n-1).
  The ambient invariant is a^{-w(L)} D(L), reported in the Homfly
  variable convention a = v^{-1}.
* Seifert circles are the cycles of the smoothing of every crossing
  along orientation, counted in one pass over the ports; for a knot
  diagram with c crossings and s circles the Seifert surface has genus
  (c - s + 1)/2.
"""

from __future__ import annotations

from . import fronts
from .diagram import LinkDiagram, _diagram
from .laurent import VZPoly

DEFAULT_MAX_CROSSINGS = 16

HOMFLY_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1})
# (a - a^{-1})/z + 1 rendered with a = v^{-1}
DUBROVNIK_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1, (0, 0): 1})


class ResourceLimitError(RuntimeError):
    """Crossing count exceeds the configured skein recursion ceiling."""


# ---------------------------------------------------------------------------
# Fronts to diagrams


def front_to_diagram(diagram: fronts.FrontDiagram, reverse=()) -> LinkDiagram:
    """Resolve a front: cusps become smooth turns, the lesser-slope strand
    crosses in front, orientations come from the component map."""
    return _resolved(fronts.sweep_front(diagram, reverse))


def _resolved(sweep: fronts.FrontSweep) -> LinkDiagram:
    # One pass, straight into the flat fields of a ``LinkDiagram``: crossing id c
    # has rank c - 1, so its port p is 4 * (c - 1) + p.  A live strand is
    # labelled by its left end: a crossing port, or a left-cusp side (a
    # negative int).  far[side] is the other end of the path through that
    # cusp side: a port, or the side labelling another live strand.  When a
    # strand reaches a crossing port or a right cusp, the two path ends
    # there are joined: two ports become an arc, and a path that closes on
    # itself is a free loop.
    sites = sweep.geometry.crossings
    far: dict[int, int] = {}
    adj = [0] * (4 * len(sites))
    stack: list[int] = []
    loops = base = 0

    def end(h):  # the far end of the path along the strand at height h + 1
        return far.pop(stack[h], stack[h])

    def join(x, y):  # a side still labels a live strand, so it is in far
        if x < 0:
            far[x] = y
        if y < 0:
            far[y] = x
        if x >= 0 and y >= 0:
            adj[x], adj[y] = y, x

    for i, ev in enumerate(sweep.diagram.events):
        k = ev.height
        if ev.kind == "L":
            stack[k - 1:k - 1] = [~(2 * i), ~(2 * i + 1)]
            far[~(2 * i)], far[~(2 * i + 1)] = ~(2 * i + 1), ~(2 * i)
        elif ev.kind == "R":
            a, b = end(k - 1), end(k)
            if a == stack[k]:
                loops += 1
            else:
                join(a, b)
            del stack[k - 1:k + 1]
        else:
            join(end(k - 1), base)  # NW: upper-left strand
            join(end(k), base + 1)  # SW: lower-left strand
            stack[k - 1] = base + 3  # NE continues at height k
            stack[k] = base + 2  # SE continues at height k + 1
            base += 4

    rightward = sweep.components.arc_rightward
    ins = tuple((0 if rightward[x.over_arc] else 2, 1 if rightward[x.under_arc] else 3) for x in sites)
    return _diagram(tuple(range(1, len(sites) + 1)), (True,) * len(sites), ins, tuple(adj), loops)


# ---------------------------------------------------------------------------
# Homfly polynomial


def homfly(
    d: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> VZPoly:
    """Homfly polynomial of an oriented diagram.

    Skein relation v^{-1} P(L+) - v P(L-) = z P(L0) with P(unknot) = 1.
    The recursion tree is exponential in the crossing number, so inputs
    beyond ``max_crossings`` are rejected up front.
    """
    if not d.is_oriented:
        raise ValueError("Homfly needs an oriented diagram")
    return _skein_sum(d, max_crossings, False)


# ---------------------------------------------------------------------------
# Kauffman polynomial, Dubrovnik flavor


def kauffman_dubrovnik(
    d: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> VZPoly:
    """Writhe-normalized Dubrovnik polynomial in the variables (v, z),
    with a = v^{-1}; the unknot takes the value 1.

    The unoriented skein D(L+) - D(L-) = z (D(L0) - D(Loo)) is expanded
    until every diagram is descending; such a leaf with writhe w and n
    components evaluates to a^w ((a - a^{-1})/z + 1)^{n-1}, and the final
    normalization multiplies by a^{-w} for the writhe of the input.
    """
    if not d.is_oriented:
        raise ValueError("the writhe normalization needs an oriented input diagram")
    return _skein_sum(d, max_crossings, True)


def _skein_sum(d: LinkDiagram, max_crossings: int, kauffman: bool) -> VZPoly:
    """Multiply the pieces' sums by delta^(k + l - 1); the ceiling counts the input."""
    if max_crossings < 0:
        raise ValueError(f"the crossing ceiling must be non-negative, got {max_crossings}")
    if d.num_crossings > max_crossings:
        raise ResourceLimitError(
            f"{d.num_crossings} crossings exceed the ceiling of {max_crossings}"
        )
    pieces, components, added = d._summands()
    n = components + d.loops + added - 1
    if n < 0:  # the empty front: delta^-1 is no polynomial
        raise ValueError("a front with no components has no Homfly or Kauffman polynomial")
    powers = _DUBROVNIK_POWERS if kauffman else _HOMFLY_POWERS
    if not pieces:  # an unlink: a fresh copy of the kept power
        return VZPoly(_delta_power(powers, n).terms)
    memo = {}
    total = _expanded(pieces[0], kauffman, powers, memo, n)  # the first piece takes the delta factor
    for piece in pieces[1:]:
        total = total * _expanded(piece, kauffman, powers, memo, 0)
    return total


# delta^n at index n, grown on demand and kept for the life of the process;
# the powers are only read here, never handed to a caller
_HOMFLY_POWERS = [VZPoly(1), VZPoly(HOMFLY_DELTA.terms)]
_DUBROVNIK_POWERS = [VZPoly(1), VZPoly(DUBROVNIK_DELTA.terms)]


def _delta_power(powers: list[VZPoly], n: int) -> VZPoly:
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers[n]


def _expanded(d: LinkDiagram, kauffman: bool, powers: list[VZPoly], memo: dict, extra: int) -> VZPoly:
    """Reduce each node, expand it at its first bad crossing unless its key
    is in ``memo``, and store its value there once its children have one;
    the root's value is multiplied out times delta^extra."""
    stack = []

    def branch(c, node, ev, ez, loops):
        # a child's shift (c, ev, ez, n) and key; queued unless known
        node, curls = node.reduced()
        key = node.memo_key()
        if key not in memo:
            stack.append((key, node, None))
        return c, ev - curls if kauffman else ev, ez, node.loops - loops, key

    root = branch(1, d.unoriented(), d.writhe(), 0, 0) if kauffman else branch(1, d, 0, 0, 0)
    while stack:
        key, cur, branches = stack.pop()
        if branches is not None:  # the children are known: shift and add them
            value = {}
            for c, ev, ez, n, child in branches:
                for (e, f, m), x in memo[child].items():
                    term = (e + ev, f + ez, m + n)
                    value[term] = value.get(term, 0) + c * x
            memo[key] = value
            continue
        if key in memo:
            continue
        bad = cur.first_bad_crossing()
        if bad is None:
            w, walks = cur.walk_writhe()
            memo[key] = {(-w if kauffman else 0, 0, walks): 1}
            continue
        branches, loops = [], cur.loops
        stack.append((key, cur, branches))
        if kauffman:
            # with ports in CCW order, over on (0,2) plays the role of L+
            # relative to the smoothing labels (L0 joins (1,2)/(0,3))
            si = 1 if cur.over02(bad) else -1
            smooth_a, smooth_b = cur.smoothings_unoriented(bad)
            branches += [branch(1, cur.switched(bad), 0, 0, loops),
                         branch(si, smooth_a, 0, 1, loops), branch(-si, smooth_b, 0, 1, loops)]
        else:
            s = cur.sign(bad)  # P(L+-) = v^{+-2} P(L-+) +- v^{+-1} z P(L0)
            branches += [branch(1, cur.switched(bad), 2 * s, 0, loops),
                         branch(s, cur.smoothed_oriented(bad), s, 1, loops)]
    _, ev, ez, n, key = root
    total = {}
    for (e, f, m), c in memo[key].items():
        if m + n < 1:
            raise ValueError("negative powers are not defined for polynomials")
        for (de, df), x in _delta_power(powers, m + n - 1 + extra).terms.items():
            term = (e + ev + de, f + ez + df)
            total[term] = total.get(term, 0) + c * x
    return VZPoly(total)


# ---------------------------------------------------------------------------
# Seifert circles


def seifert_circle_count(d: LinkDiagram) -> int:
    """Circles left after smoothing every crossing along orientation, free loops included."""
    if not d.is_oriented:
        raise ValueError("Seifert smoothing needs an oriented diagram")
    return d.seifert_circles()


def seifert_diagram_genus(d: LinkDiagram) -> int:
    """Genus of the Seifert-algorithm surface of a knot diagram."""
    if d.num_components() != 1:
        raise ValueError("Seifert diagram genus is defined here for knot diagrams only")
    c = d.num_crossings
    s = seifert_circle_count(d)
    spread = c - s + 1
    if spread % 2 != 0:
        raise RuntimeError("Seifert circle count has impossible parity")
    return spread // 2
