"""Skein-recursion polynomial invariants of link diagrams from fronts.

Fronts convert to ``LinkDiagram``s (see ``diagram``) from the ``cusps``
and ``crossings`` of their sweep record, tuples of arc ids, not from the
events: an arc's crossings are joined in turn, cusps are smoothed across
any crossing-free arcs, and the over strand is read from slopes,
straight into the diagram's flat fields; ports are numbered NW, SW, SE,
NE, so a front-born crossing always carries its over strand on (0, 2).

Both polynomial invariants are computed by one descending-diagram
recursion: walk the components from deterministic base points; the first
crossing met on its under strand is expanded with its twist region, a
chain of k crossings joined by alternating bigons, k = 1 for a crossing
in no such bigon; a diagram with no bad crossing is a layered unlink and
is a leaf.  Before it is expanded, every diagram is reduced: Reidemeister-I
curls are removed (worth a^{+-1} to the Dubrovnik polynomial, 1 to
Homfly), and so are Reidemeister-II bigons whose one strand is over at
both crossings (worth 1 to both).  The input is reduced once and cut
into split components and connected summands, each expanded alone with
its two cut ports joined; k split components and l free loops add the
factor delta^(k + l - 1).  The diagram keeps its reduction and cut for
its lifetime, so Homfly and Kauffman of one diagram share them.  A
region expands in one step by the Hecke and BMW relations unrolled along
it, written once in ``_twist_coefficients``, into at most three children
built in one splice each: a lone crossing switched or the first of k >= 2
kept, and the region smoothed through or turned back.

Every node is a ``LinkDiagram`` in the flat format of ``diagram``: a
crossing is its rank, a port the integer 4 * rank + port, and the moves,
reductions, walks and cuts run on integer tuples.  This module reads no
ports: it asks the diagram for the first bad crossing, a twist region's
size, sign, strand directions and splices, a leaf's writhe and walk
count, the input's writhe, and the memo key.

The expansion is memoized.  A node's value is the sum of its leaves
c v^ev z^ez delta^(n-1), kept as {(ev, ez, n): c} relative to the node;
a parent multiplies its children's values by the branch coefficients
and shifts them by the curls their reduction removed and by their free
loops.  The key of a reduced node is ``memo_key()``: its over flags,
inflow ports and port matching, all by rank, with free loops left out.
Equal keys mean the two diagrams differ only by a renaming of
crossings, and neither Homfly of an oriented diagram nor the Dubrovnik
polynomial of an unoriented one depends on names, so a hit is exact.
T(2,n) is one cyclic region and expands 2 nodes for every n >= 2; a
crossing at a time it took n + 1 with the memo and a Fibonacci tree
without.  One memo serves one call of ``homfly`` or
``kauffman_dubrovnik`` and is shared by its pieces, so equal summands
are expanded once; no memo outlives its call.  The expansion runs on an
explicit stack, so no ceiling the caller sets can reach Python's
recursion limit.  A piece's value is multiplied out against the powers
of delta, the first piece's shifted by the factor delta^(k + l - 1).
The powers come from one table per flavour, grown on demand and kept
for the life of the process; every returned polynomial is a fresh object.

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

from . import fronts
from .diagram import LinkDiagram, _diagram
from .fronts import DEFAULT_MAX_CROSSINGS, ResourceLimitError  # re-exported, the same objects
from .laurent import VZPoly

HOMFLY_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1})
# (a - a^{-1})/z + 1 rendered with a = v^{-1}
DUBROVNIK_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1, (0, 0): 1})


# ---------------------------------------------------------------------------
# Fronts to diagrams


def front_to_diagram(diagram: fronts.FrontDiagram, reverse=()) -> LinkDiagram:
    """Resolve a front: cusps become smooth turns, the lesser-slope strand
    crosses in front, orientations come from the record's ``arc_rightward``."""
    return _resolved(fronts.sweep_front(diagram, reverse))


def _resolved(sweep: fronts.FrontSweep) -> LinkDiagram:
    # Read off the record's arcs, straight into the flat fields of a
    # ``LinkDiagram``: crossing id c has rank c - 1, so its port p is
    # 4 * (c - 1) + p, and the over arc enters at port 0 and leaves at 2, the
    # under arc at 1 and 3.  Consecutive crossings of an arc are joined port
    # to port.  End 2a of arc a is its left end, 2a + 1 its right end, and
    # ports[e] the port there (None on a crossing-free arc); across[e] is the
    # end that meets e at its cusp.
    sites = sweep.crossings
    adj = [0] * (4 * len(sites))
    ports = [None] * (2 * sweep.num_arcs)
    for i, (over, under) in enumerate(sites):
        for p, a in ((4 * i, over), (4 * i + 1, under)):
            if ports[2 * a] is None:
                ports[2 * a] = p
            else:
                adj[p], adj[ports[2 * a + 1]] = ports[2 * a + 1], p
            ports[2 * a + 1] = p + 2
    across = [0] * len(ports)
    for kind, upper, lower in sweep.cusps:
        r = kind == "R"
        u, l = 2 * upper + r, 2 * lower + r
        across[u], across[l] = l, u
    for e, p in enumerate(ports):  # an arc's end port, through crossing-free arcs to the next
        if p is not None:
            f = across[e]
            while ports[f] is None:
                f = across[f ^ 1]
            adj[p] = ports[f]
    # the free loops: components with no crossing on any of their arcs
    loops = sweep.num_components - len({sweep.arc_component[a] for x in sites for a in x})
    rightward = sweep.arc_rightward
    ins = tuple((0 if rightward[over] else 2, 1 if rightward[under] else 3) for over, under in sites)
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
    pieces, components, loops = d._summands()
    n = components + loops - 1
    if n < 0:  # the empty front: delta^-1 is no polynomial
        raise ValueError("a front with no components has no Homfly or Kauffman polynomial")
    if not pieces:  # an unlink: a fresh copy of the kept power
        return VZPoly(_delta_power(kauffman, n).terms)
    memo = {}
    total = _expanded(pieces[0], kauffman, memo, n)  # the first piece takes the delta factor
    for piece in pieces[1:]:
        total = total * _expanded(piece, kauffman, memo, 0)
    return total


# delta^n at index n, Homfly's table at index False and Dubrovnik's at True, grown
# on demand and kept for the life of the process; read here, never handed out
_POWERS = ([VZPoly(1), VZPoly(HOMFLY_DELTA.terms)], [VZPoly(1), VZPoly(DUBROVNIK_DELTA.terms)])
_TWISTS = {}  # per (kauffman, h, parallel): at index k the row of a region of k crossings, kept likewise


def _delta_power(kauffman: bool, n: int) -> VZPoly:
    powers = _POWERS[kauffman]
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers[n]


def _expanded(d: LinkDiagram, kauffman: bool, memo: dict, extra: int) -> VZPoly:
    """Reduce each node, expand it at once at the twist region of its first
    bad crossing, unless its key is in ``memo``, and store its value there
    once its children have one; the root's value is multiplied out times
    delta^extra."""
    stack = []

    def branch(coeff, node, loops):
        # a child's coefficient {(ev, ez): c}, shifts and key; queued unless known
        node, curls = node.reduced()
        key = node.memo_key()
        if key not in memo:
            stack.append((key, node, None))
        return coeff, -curls if kauffman else 0, node.loops - loops, key

    root = branch(None, d.unoriented() if kauffman else d, 0)
    while stack:
        key, cur, branches = stack.pop()
        if branches is not None:  # the children are known: multiply, shift and add them
            value = {}
            for coeff, dv, n, child in branches:
                terms = memo[child].items()
                for (ev, ez), c in coeff.items():
                    for (e, f, m), x in terms:
                        term = (e + ev + dv, f + ez, m + n)
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
        k, h, parallel, children = cur._twist_region(bad)
        coeffs = _twist_coefficients(kauffman, h, parallel, k)
        branches += [branch(c.terms, cur._fused(*sp, flip=f), loops) for c, (sp, f) in zip(coeffs, children) if c]
    _, dv, n, key = root
    dv += d.writhe() if kauffman else 0
    total = {}
    for (e, f, m), c in memo[key].items():
        if m + n < 1:
            raise ValueError("negative powers are not defined for polynomials")
        for (de, df), x in _delta_power(kauffman, m + n - 1 + extra).terms.items():
            term = (e + dv + de, f + df)
            total[term] = total.get(term, 0) + c * x
    return VZPoly(total)


def _twist_coefficients(kauffman: bool, h: int, parallel: bool | None, k: int) -> tuple[VZPoly, VZPoly, VZPoly]:
    """sigma^k = c_sigma sigma + c_1 1 + c_e e in a twist region of k >= 2
    crossings of sign h (``LinkDiagram._twist_region``), the one-crossing
    rule unrolled; for a lone crossing, k = 1, the rule itself, sigma =
    c sigma^-1 + c_1 1 + c_e e.  Homfly smooths parallel strands through,
    to 1, with sign s = h, and antiparallel ones back, to e, with s = -h
    and e sigma = e; Kauffman has sigma - sigma^{-1} = h z (1 - e) and
    e sigma = a^eps e, eps = -h being the sign of the curl a turn-back
    leaves."""
    key = (kauffman, h, parallel)
    if key not in _TWISTS:  # sigma^0 = 1
        _TWISTS[key] = [(VZPoly(0), VZPoly(1), VZPoly(0))]
    table = _TWISTS[key]
    s = h if parallel or kauffman else -h
    while len(table) <= k:  # sigma^j = q sigma^{j-2} + p sigma^{j-1} + the turn-back term
        j = len(table)  # sigma^+-1 = sigma: row 1 has sigma^-1, a lone crossing's kept child, in sigma's slot
        x1, x2 = ((VZPoly(1), VZPoly(0), VZPoly(0)) if abs(i) == 1 else table[i] for i in (j - 1, j - 2))
        q, m = VZPoly.monomial(1, 0 if kauffman else 2 * s, 0), VZPoly.monomial(s, 0 if kauffman else s, 1)
        p = VZPoly(0) if parallel is False else m  # q = v^{2s} or 1, m = s v^s z or h z
        a, b, e = (q * y2 + p * y1 for y1, y2 in zip(x1, x2))
        if not parallel:  # - h z a^{eps (j-1)} e with a = v^{-1}, or s v^s z e
            e = e - m * VZPoly.monomial(1, h * (j - 1), 0) if kauffman else e + m
        table.append((a, b, e))
    return table[k]


# ---------------------------------------------------------------------------
# Seifert circles


def seifert_diagram_genus(d: LinkDiagram) -> int:
    """Genus of the Seifert-algorithm surface of a knot diagram."""
    if d.num_components() != 1:
        raise ValueError("Seifert diagram genus is defined here for knot diagrams only")
    c = d.num_crossings
    s = d.seifert_circles()
    spread = c - s + 1
    if spread % 2 != 0:
        raise RuntimeError("Seifert circle count has impossible parity")
    return spread // 2
