"""Link diagrams from fronts and skein-recursion polynomial invariants.

A ``LinkDiagram`` is a combinatorial 4-valent diagram: every crossing has
four ports in counterclockwise planar order, the strand through ports
(0, 2) either over or under the strand through (1, 3), and arcs match
ports pairwise.  Crossing-free components are tracked as a bare loop
count.  Fronts convert by smoothing cusps and reading the over strand
from slopes; ports are numbered NW, SW, SE, NE, so a front-born crossing
always carries its over strand on (0, 2).

Both polynomial invariants are computed by one descending-diagram
recursion: walk the components from deterministic base points; the first
crossing met on its under strand is expanded by the skein relation into a
switched child (fewer bad crossings) and smoothed children (fewer
crossings); a diagram with no bad crossing is a layered unlink and is a
leaf.  Before it is expanded, every diagram is reduced: Reidemeister-I
curls are removed (worth a^{+-1} to the Dubrovnik polynomial, 1 to
Homfly), and so are Reidemeister-II bigons whose one strand is over at
both crossings (worth 1 to both).  Branch coefficients are monomials,
and leaves are summed by (v-exponent, z-exponent, components).  The
input is reduced once and cut into split components and connected
summands, each expanded alone with its two cut ports joined; k split
components and l free loops add the factor delta^(k + l - 1).  Cuts are
found by growing a spanning tree of the crossings, giving every other arc
a bit, and labeling each tree arc with the XOR of the bits over its
subtree: two arcs cut the graph exactly when their labels are equal, and
in a planar diagram they bound a disk, a connected sum.

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
* Seifert circles come from smoothing every crossing along orientation;
  for a knot diagram with c crossings and s circles the Seifert surface
  has genus (c - s + 1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fronts
from .laurent import VZPoly, ZPoly, conway as _conway_of

DEFAULT_MAX_CROSSINGS = 16

HOMFLY_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1})
# (a - a^{-1})/z + 1 rendered with a = v^{-1}
DUBROVNIK_DELTA = VZPoly({(-1, -1): 1, (1, -1): -1, (0, 0): 1})


class ResourceLimitError(RuntimeError):
    """Crossing count exceeds the configured skein recursion ceiling."""


@dataclass(frozen=True)
class Crossing:
    over02: bool  # strand through ports (0, 2) is the over strand
    in_ports: tuple[int, int] | None  # inflow port per strand; None = unoriented


Port = tuple[int, int]  # (crossing id, port 0..3)


class LinkDiagram:
    """Combinatorial oriented (or orientation-stripped) link diagram."""

    def __init__(self, crossings: dict[int, Crossing], adj: dict[Port, Port], loops: int = 0):
        self.crossings = dict(crossings)
        self.adj = dict(adj)
        self.loops = loops
        for p, q in self.adj.items():
            if self.adj.get(q) != p:
                raise ValueError("arc matching is not symmetric")

    # -- basic queries ------------------------------------------------------

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @property
    def is_oriented(self) -> bool:
        return all(c.in_ports is not None for c in self.crossings.values())

    def sign(self, cid: int) -> int:
        cr = self.crossings[cid]
        if cr.in_ports is None:
            raise ValueError("crossing sign needs an oriented diagram")
        return _sign_from(cr.over02, cr.in_ports)

    def writhe(self) -> int:
        return sum(self.sign(c) for c in self.crossings)

    def num_components(self) -> int:
        return len(self._walks()) + self.loops

    # -- traversal ----------------------------------------------------------

    def _walks(self, strategy: str = "min") -> list[list[Port]]:
        """Component walks as lists of (crossing, entry port) passages.

        Deterministic: the base point is the extreme unvisited port; for
        oriented diagrams the walk follows the stored strand directions.
        """
        pick = min if strategy == "min" else max
        unseen = {(c, p) for c in self.crossings for p in range(4)}
        walks = []
        while unseen:
            c0, p0 = pick(unseen)
            cr = self.crossings[c0]
            if cr.in_ports is not None and p0 not in cr.in_ports:
                p0 = (p0 + 2) % 4
            walk = []
            cur = (c0, p0)
            while cur in unseen:
                cid, p = cur
                unseen.discard((cid, p))
                unseen.discard((cid, (p + 2) % 4))
                walk.append(cur)
                cur = self.adj[(cid, (p + 2) % 4)]
            walks.append(walk)
        return walks

    def first_bad_crossing(self, strategy: str = "min") -> int | None:
        """First crossing whose first visit happens on its under strand."""
        seen: set[int] = set()
        for walk in self._walks(strategy):
            for cid, p in walk:
                if cid in seen:
                    continue
                seen.add(cid)
                on_over = (p % 2 == 0) == self.crossings[cid].over02
                if not on_over:
                    return cid
        return None

    # -- skein moves --------------------------------------------------------

    def switched(self, cid: int) -> "LinkDiagram":
        """Swap over and under strands at one crossing."""
        cr = self.crossings[cid]
        out = dict(self.crossings)
        out[cid] = Crossing(not cr.over02, cr.in_ports)
        return LinkDiagram(out, self.adj, self.loops)

    def smoothed_oriented(self, cid: int) -> "LinkDiagram":
        """Reconnect along orientation (the Seifert smoothing)."""
        cr = self.crossings[cid]
        if cr.in_ports is None:
            raise ValueError("oriented smoothing needs an oriented diagram")
        i1, i2 = cr.in_ports
        return self._fused(cid, ((i1, (i2 + 2) % 4), (i2, (i1 + 2) % 4)))

    def smoothings_unoriented(self, cid: int) -> tuple["LinkDiagram", "LinkDiagram"]:
        """The two planar reconnections: port pairing {(1,2),(0,3)} first,
        then {(0,1),(2,3)}."""
        return (
            self._fused(cid, ((1, 2), (0, 3))),
            self._fused(cid, ((0, 1), (2, 3))),
        )

    def reduced(self) -> tuple["LinkDiagram", int]:
        """Strip Reidemeister-I curls and Reidemeister-II bigons until none
        is left; also return the summed sign of the curls removed.

        A curl, two adjacent ports of one crossing joined, is fused and the
        freed loop dropped.  A bigon, adjacent ports of two crossings joined
        pairwise, goes when one strand is over at both crossings and no
        outer port leads back into them.
        """
        d, curls = self, 0
        while True:
            adj, crs = d.adj, d.crossings
            for (c, p), (c2, b) in adj.items():
                q = (p + 1) % 4
                if c2 == c:
                    if b == q:
                        curls += _sign_from(crs[c].over02, ((p + 2) % 4, q))
                        d = d._fused(c, ((p, q), ((p + 2) % 4, (q + 2) % 4)))
                        d.loops -= 1  # the curl's own loop, now free
                        break
                elif (adj[(c, q)] == (c2, (b - 1) % 4)
                        and (p % 2 == b % 2) == (crs[c].over02 == crs[c2].over02)
                        and all(adj[(x, r % 4)][0] not in (c, c2)
                                for x, r in ((c, p + 2), (c, p + 3), (c2, b + 1), (c2, b + 2)))):
                    # both strands run straight through both crossings and the
                    # bigon's arcs, so the outer ports join up along them
                    d = d._fused(c, ((0, 2), (1, 3)))._fused(c2, ((0, 2), (1, 3)))
                    break
            else:
                return d, curls

    def unoriented(self) -> "LinkDiagram":
        stripped = {c: Crossing(cr.over02, None) for c, cr in self.crossings.items()}
        return LinkDiagram(stripped, self.adj, self.loops)

    def _fused(self, cid: int, pairs) -> "LinkDiagram":
        """Remove a crossing, wiring its ports together pairwise."""
        wire = {}
        for a, b in pairs:
            wire[a], wire[b] = b, a
        old = self.adj
        adj = {k: v for k, v in old.items() if k[0] != cid and v[0] != cid}
        loops, todo = self.loops, {0, 1, 2, 3}
        # walks from outside arcs first; what they leave are closed loops
        for p0 in sorted(todo, key=lambda p: old[(cid, p)][0] == cid):
            p = p0
            while p in todo:
                q = wire[p]
                todo -= {p, q}
                end = old[(cid, q)]
                if end[0] != cid:
                    start = old[(cid, p0)]
                    adj[start], adj[end] = end, start
                    break
                loops += end[1] == p0  # back at the start: a closed loop
                p = end[1]
        crossings = {c: cr for c, cr in self.crossings.items() if c != cid}
        return LinkDiagram(crossings, adj, loops)

    # -- export -------------------------------------------------------------

    def to_pd(self) -> dict:
        """PD-style export: per crossing the arc labels at ports, starting
        at the under strand's inflow port and continuing counterclockwise."""
        if not self.is_oriented:
            raise ValueError("PD export needs an oriented diagram")
        arc_no: dict[frozenset[Port], int] = {}
        n = 0
        for walk in self._walks():
            for cid, p in walk:
                key = frozenset({(cid, p), self.adj[(cid, p)]})
                if key not in arc_no:
                    n += 1
                    arc_no[key] = n
        rows = []
        for cid in sorted(self.crossings):
            cr = self.crossings[cid]
            under = 1 if cr.over02 else 0
            start = cr.in_ports[0] if cr.in_ports[0] % 2 == under else cr.in_ports[1]
            row = []
            for step in range(4):
                p = (start + step) % 4
                row.append(arc_no[frozenset({(cid, p), self.adj[(cid, p)]})])
            rows.append(row)
        return {"crossings": rows, "free_loops": self.loops}


def _sign_from(over02: bool, in_ports: tuple[int, int]) -> int:
    # ports sit at W, S, E, N; a strand's direction is the vector from its
    # inflow port through the center, (1 - i02, 0) or (0, 2 - i13), and the
    # sign is det(over direction, under direction)
    i02, i13 = in_ports if in_ports[0] % 2 == 0 else in_ports[::-1]
    det = (1 - i02) * (2 - i13)
    return det if over02 else -det


# ---------------------------------------------------------------------------
# Fronts to diagrams


def front_to_diagram(diagram: fronts.FrontDiagram, reverse=()) -> LinkDiagram:
    """Resolve a front: cusps become smooth turns, the lesser-slope strand
    crosses in front, orientations come from the component map."""
    return _resolved(diagram, fronts.sweep_front(diagram, reverse))


def _resolved(diagram: fronts.FrontDiagram, sweep: fronts.FrontSweep) -> LinkDiagram:
    # connector nodes: crossing ports, or cusp sides that get wired together
    edges: list[tuple[tuple, tuple]] = []
    stack: list[tuple] = []
    xnum = 0
    for i, ev in enumerate(diagram.events):
        k = ev.height
        if ev.kind == "L":
            stack[k - 1:k - 1] = [("c", i, 0), ("c", i, 1)]
        elif ev.kind == "R":
            edges.append((stack[k - 1], ("c", i, 0)))
            edges.append((stack[k], ("c", i, 1)))
            del stack[k - 1:k + 1]
        else:
            xnum += 1
            edges.append((stack[k - 1], ("p", xnum, 0)))  # NW: upper-left strand
            edges.append((stack[k], ("p", xnum, 1)))  # SW: lower-left strand
            stack[k - 1] = ("p", xnum, 3)  # NE continues at height k
            stack[k] = ("p", xnum, 2)  # SE continues at height k + 1

    link: dict[tuple, tuple] = {}
    for a, b in edges:
        link[a] = b
        link[b] = a

    def sibling(node):
        return ("c", node[1], 1 - node[2])

    adj: dict[Port, Port] = {}
    loops = 0
    visited: set[tuple] = set()
    # ports first: follow each port's arc through cusp connectors to the far port
    for node in list(link):
        if node[0] != "p" or node in visited:
            continue
        visited.add(node)
        cur = link[node]
        while cur[0] == "c":
            visited.add(cur)
            cur = sibling(cur)
            visited.add(cur)
            cur = link[cur]
        visited.add(cur)
        adj[(node[1], node[2])] = (cur[1], cur[2])
        adj[(cur[1], cur[2])] = (node[1], node[2])
    # anything left is a closed loop of cusp connectors
    for node in list(link):
        if node in visited:
            continue
        cur = node
        while cur not in visited:
            visited.add(cur)
            nxt = sibling(cur)
            visited.add(nxt)
            cur = link[nxt]
        loops += 1

    crossings = {}
    rightward = sweep.components.arc_rightward
    for site in sweep.geometry.crossings:
        over_in = 0 if rightward[site.over_arc] else 2
        under_in = 1 if rightward[site.under_arc] else 3
        crossings[site.crossing_id] = Crossing(True, (over_in, under_in))
    return LinkDiagram(crossings, adj, loops)


# ---------------------------------------------------------------------------
# Homfly polynomial


def homfly(
    d: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    strategy: str = "min",
) -> VZPoly:
    """Homfly polynomial of an oriented diagram.

    Skein relation v^{-1} P(L+) - v P(L-) = z P(L0) with P(unknot) = 1.
    The recursion tree is exponential in the crossing number, so inputs
    beyond ``max_crossings`` are rejected up front.
    """
    if not d.is_oriented:
        raise ValueError("Homfly needs an oriented diagram")
    return _skein_sum(d, max_crossings, False, strategy)


def conway_polynomial(d: LinkDiagram, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> ZPoly:
    return _conway_of(homfly(d, max_crossings))


# ---------------------------------------------------------------------------
# Kauffman polynomial, Dubrovnik flavor


def _leaf_writhe(d: LinkDiagram, walks: list[list[Port]]) -> int:
    """Writhe of a descending diagram under walk-induced orientations.

    Self-crossing signs do not depend on the orientation choice and the
    inter-component signs of a descending diagram cancel, so any
    per-component orientation gives the same total.
    """
    entries: dict[int, list[int]] = {}
    for walk in walks:
        for cid, p in walk:
            entries.setdefault(cid, []).append(p)
    w = 0
    for cid, ports in entries.items():
        w += _sign_from(d.crossings[cid].over02, (ports[0], ports[1]))
    return w


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


def _skein_sum(d: LinkDiagram, max_crossings: int, kauffman: bool, strategy: str = "min") -> VZPoly:
    """Multiply the pieces' sums by delta^(k + l - 1); the ceiling counts the input."""
    if d.num_crossings > max_crossings:
        raise ResourceLimitError(
            f"{d.num_crossings} crossings exceed the ceiling of {max_crossings}"
        )
    d = d.reduced()[0]
    delta = DUBROVNIK_DELTA if kauffman else HOMFLY_DELTA
    pieces, components = _pieces(d)
    total = delta ** (components + d.loops - 1)
    for piece in pieces:
        total = total * _expanded(piece, kauffman, strategy, delta)
    return total


def _expanded(d: LinkDiagram, kauffman: bool, strategy: str, delta: VZPoly) -> VZPoly:
    """Reduce each node, expand it at its first bad crossing, and sum the
    leaves c v^ev z^ez delta^(n-1), added up by (ev, ez, n)."""
    leaves: dict[tuple[int, int, int], int] = {}
    stack = [(d.unoriented(), 1, d.writhe(), 0)] if kauffman else [(d, 1, 0, 0)]
    while stack:
        cur, c, ev, ez = stack.pop()
        cur, curls = cur.reduced()
        if kauffman:
            ev -= curls  # a curl of sign s is worth a^s = v^{-s}
        bad = cur.first_bad_crossing(strategy)
        if bad is None:
            walks = cur._walks()
            if kauffman:
                ev -= _leaf_writhe(cur, walks)
            key = (ev, ez, len(walks) + cur.loops)
            leaves[key] = leaves.get(key, 0) + c
        elif kauffman:
            # with ports in CCW order, over on (0,2) plays the role of L+
            # relative to the smoothing labels (L0 joins (1,2)/(0,3))
            si = c if cur.crossings[bad].over02 else -c
            smooth_a, smooth_b = cur.smoothings_unoriented(bad)
            stack += [(cur.switched(bad), c, ev, ez), (smooth_a, si, ev, ez + 1),
                      (smooth_b, -si, ev, ez + 1)]
        else:
            s = cur.sign(bad)  # P(L+-) = v^{+-2} P(L-+) +- v^{+-1} z P(L0)
            stack += [(cur.switched(bad), c, ev + 2 * s, ez),
                      (cur.smoothed_oriented(bad), s * c, ev + s, ez + 1)]
    total = VZPoly(0)
    for n in {n for _, _, n in leaves}:
        terms = {(ev, ez): c for (ev, ez, m), c in leaves.items() if m == n}
        total = total + VZPoly(terms) * delta ** (n - 1)
    return total


def _pieces(d: LinkDiagram) -> tuple[list[LinkDiagram], int]:
    """Split components and connected summands (free loops left out), and the split count."""
    pieces, todo = [], [(d.crossings.keys(), d.adj)] if d.crossings else []
    components = len(todo)
    while todo:
        keep, adj = todo.pop()
        order, up = _tree(adj, min(keep))
        side = set(order) if len(order) < len(keep) else None
        components += side is not None
        if side is None:
            acc, arcs = dict.fromkeys(order, 0), {}
            for x, y in adj.items():
                if x < y and up[x[0]] != x and up[y[0]] != y:  # an arc off the tree
                    b = 1 << len(arcs)
                    arcs[b] = x
                    acc[x[0]] ^= b
                    acc[y[0]] ^= b
            for c in reversed(order[1:]):
                acc[adj[up[c]][0]] ^= acc[c]
                if acc[c] in arcs:  # two arcs with one label: a connected sum
                    x = arcs[acc[c]]
                    side = set(_tree(adj, c, (up[c], adj[up[c]], x, adj[x]))[0])
                    break
                arcs[acc[c]] = up[c]
        if side is None:
            pieces.append(LinkDiagram({c: d.crossings[c] for c in order}, adj))
        for part in (side, keep - side) if side else ():
            part_adj = {x: y for x, y in adj.items() if x[0] in part}
            loose = [x for x, y in part_adj.items() if y[0] not in part]
            part_adj.update(zip(loose, loose[::-1]))  # join the two cut ports
            todo.append((part, part_adj))
    return pieces, components


def _tree(adj, root: int, cut=()) -> tuple[list[int], dict]:
    """Breadth-first tree avoiding ``cut``: crossings in order, each one's tree port."""
    order, up = [root], {root: None}
    for c in order:
        for x in [(c, p) for p in range(4)]:
            if x not in cut and adj[x][0] not in up:
                up[adj[x][0]] = adj[x]
                order.append(adj[x][0])
    return order, up


# ---------------------------------------------------------------------------
# Seifert circles


def seifert_circle_count(d: LinkDiagram) -> int:
    """Circles left after smoothing every crossing along orientation."""
    if not d.is_oriented:
        raise ValueError("Seifert smoothing needs an oriented diagram")
    for cid in list(d.crossings):
        d = d.smoothed_oriented(cid)
    return d.loops


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
