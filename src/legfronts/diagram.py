"""Combinatorial link diagrams: skein moves, reductions, cuts and memo keys.

A ``LinkDiagram`` is a combinatorial 4-valent diagram: every crossing has
four ports in counterclockwise planar order, the strand through ports
(0, 2) either over or under the strand through (1, 3), and arcs match
ports pairwise.  Crossing-free components are tracked as a bare loop
count.  Crossing ids are arbitrary integers; the skein moves keep the ids
of the crossings they do not remove, and keep their order.

``reduced`` strips Reidemeister-I curls and Reidemeister-II bigons whose
one strand is over at both crossings.  ``_pieces`` cuts a diagram into
split components and connected summands: it grows a spanning tree of the
crossings, gives every other arc a bit, and labels each tree arc with the
XOR of the bits over its subtree; two arcs cut the graph exactly when
their labels are equal, and in a planar diagram they bound a disk, a
connected sum.

``_rank_key`` is the memo key of the skein expansion: the crossing
records and the port matching with every crossing id replaced by its rank
among the ids, free loops left out.  Two diagrams with equal keys differ
only by a renaming of crossings and by their free loops, so a quantity
that ignores names, like a skein polynomial, agrees on both up to the
loops' factor.  Ranks rather than ids make the key
catch repeats: the twist sub-diagrams that a skein tree meets again after
a switch and a bigon strip, or after a smoothing, carry other ids in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def _walks(self) -> list[list[Port]]:
        """Component walks as lists of (crossing, entry port) passages.

        Deterministic: the base point is the least unvisited port; for
        oriented diagrams the walk follows the stored strand directions.
        """
        unseen = {(c, p) for c in self.crossings for p in range(4)}
        walks = []
        while unseen:
            c0, p0 = min(unseen)
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

    def first_bad_crossing(self) -> int | None:
        """First crossing whose first visit happens on its under strand."""
        seen: set[int] = set()
        for walk in self._walks():
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


def _rank_key(d: LinkDiagram) -> tuple:
    """Crossings in id order and the matching of ports as rank * 4 + port;
    ``d.loops`` is not part of it."""
    ids = sorted(d.crossings)
    rank = {c: 4 * i for i, c in enumerate(ids)}
    ends = [d.adj[(c, p)] for c in ids for p in range(4)]
    return tuple(d.crossings[c] for c in ids), tuple(rank[c] + p for c, p in ends)
