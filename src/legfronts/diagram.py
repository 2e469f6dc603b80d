"""Combinatorial link diagrams: skein moves, reductions, cuts and memo keys.

A ``LinkDiagram`` is a combinatorial 4-valent diagram: every crossing has
four ports in counterclockwise planar order, the strand through ports
(0, 2) either over or under the strand through (1, 3), and arcs match
ports pairwise.  Crossing-free components are tracked as a bare loop
count.  Crossing ids are arbitrary integers; the skein moves keep the ids
of the crossings they do not remove, and keep their order.

Flat format.  A diagram keeps its crossing ids sorted and addresses a
crossing by its rank, its position in that order.  Port p of the crossing
of rank i is the integer P = 4 * i + p, so P >> 2 is the crossing, P & 3
the port and P ^ 2 the port across from it.  Four tuples hold the
diagram: the ids, per rank the over flag of the (0, 2) strand and the
inflow port of each strand (None when unoriented), and ``_adj``, where
``_adj[P]`` is the port at the other end of P's arc.  A move builds new
tuples; removing a crossing drops its entries and moves every port above
it down by four, so ranks stay positions in id order.  Every diagram
built, by the constructor or a move, has its matching checked for
symmetry.  The constructor takes dicts keyed by ids and by (id, port)
pairs, checks that every id is an ``int`` and that they match every
crossing port and nothing else, that an oriented crossing's two inflow
ports are one even and one odd port, one per strand, and, when every
crossing is oriented, that each arc flows in at exactly one of its ends;
the skein moves skip these checks.  ``crossings`` and ``adj`` give them
back.  They and the free loop count ``loops`` are read-only views.  A
method that takes a crossing id raises ``ValueError`` for any value that
is not one of the diagram's ids.

``reduced`` strips Reidemeister-I curls and Reidemeister-II bigons whose
one strand is over at both crossings.  ``_pieces`` cuts a diagram into
split components and connected summands: it grows a spanning tree of the
crossings, gives every other arc a bit, and labels each tree arc with the
XOR of the bits over its subtree; two arcs cut the graph exactly when
their labels are equal, and in a planar diagram they bound a disk, a
connected sum.  ``_summands`` reduces a diagram and cuts it once, on
first use, and keeps the result in a private slot.  ``_twist_region``
finds a chain of the alternating bigons ``reduced`` keeps, with the
splices of its three skein children, each built by one ``_fused``.

``memo_key`` is the memo key of the skein expansion: the over flags, the
inflow ports and the matching, all by rank, free loops left out.  Two
diagrams with equal keys differ only by an order-preserving renaming of
crossings and by their free loops, so a quantity that ignores names,
like a skein polynomial, agrees on both up to the loops' factor.  Ranks
rather than ids make the key catch repeats: the sub-diagrams that a
skein tree meets again, such as equal connected summands or one child
reached along two branches, carry other ids in the same order.
"""

from operator import itemgetter
from typing import NamedTuple


class Crossing(NamedTuple):
    over02: bool  # strand through ports (0, 2) is the over strand
    in_ports: tuple[int, int] | None  # inflow port per strand; None = unoriented


Port = tuple[int, int]  # (crossing id, port 0..3)


class LinkDiagram:
    """Combinatorial oriented (or orientation-stripped) link diagram."""

    # _cut is filled by _summands on first use and never set elsewhere
    __slots__ = ("_ids", "_over", "_ins", "_adj", "_loops", "_cut")

    def __init__(self, crossings: dict[int, Crossing], adj: dict[Port, Port], loops: int = 0):
        for c in crossings:
            if type(c) is not int:
                raise ValueError(f"crossing id {c!r} is not an int")
        if type(loops) is not int or loops < 0:
            raise ValueError(f"free loop count {loops!r} is not a non-negative int")
        for c, x in crossings.items():
            # one inflow port per strand: one of (0, 2) and one of (1, 3)
            ins = x.in_ports
            pair = isinstance(ins, tuple) and len(ins) == 2 and all(type(p) is int and 0 <= p < 4 for p in ins)
            if ins is not None and not (pair and ins[0] % 2 != ins[1] % 2):
                raise ValueError(f"crossing {c} has inflow ports {ins!r}, not one even and one odd port of 0..3")
        if any(adj.get(q) != p for p, q in adj.items()):
            raise ValueError("arc matching is not symmetric")
        for port in [(c, p) for c in crossings for p in range(4)]:
            if port not in adj:
                raise ValueError(f"crossing port {port} has no arc")
        for p, (c, q) in adj.items():
            if c not in crossings or q not in range(4):
                raise ValueError(f"the arc at port {p} leads to {(c, q)}, which is no crossing port")
        if all(x.in_ports is not None for x in crossings.values()):
            inflow = {(c, p) for c, x in crossings.items() for p in x.in_ports}
            for p, q in adj.items():
                if p <= q and (p in inflow) == (q in inflow):
                    ends = "both" if p in inflow else "neither"
                    raise ValueError(f"the arc between ports {p} and {q} flows in at {ends} of its ends")
        ids = sorted(crossings)
        rank = {c: 4 * i for i, c in enumerate(ids)}
        self._set(tuple(ids), tuple(crossings[c].over02 for c in ids), tuple(crossings[c].in_ports for c in ids),
                  tuple(rank[c] + q for c, q in (adj[(c, p)] for c in ids for p in range(4))), loops)

    def _set(self, ids, over, ins, adj, loops) -> "LinkDiagram":
        if adj and itemgetter(*adj)(adj) != tuple(range(len(adj))):
            raise ValueError("arc matching is not symmetric")
        self._ids, self._over, self._ins, self._adj, self._loops = ids, over, ins, adj, loops
        return self

    # -- read views and basic queries ----------------------------------------

    @property
    def crossings(self) -> dict[int, Crossing]:
        return dict(zip(self._ids, map(Crossing, self._over, self._ins)))

    @property
    def adj(self) -> dict[Port, Port]:
        ids = self._ids
        return {(ids[p >> 2], p & 3): (ids[q >> 2], q & 3) for p, q in enumerate(self._adj)}

    @property
    def loops(self) -> int:
        """The number of crossing-free components."""
        return self._loops

    @property
    def num_crossings(self) -> int:
        return len(self._ids)

    @property
    def is_oriented(self) -> bool:
        return None not in self._ins

    def _rank(self, cid: int) -> int:
        # a bool or 1.0 equals an id in a tuple search but is no crossing id
        if type(cid) is not int or cid not in self._ids:
            raise ValueError(f"link diagram has no crossing {cid}")
        return self._ids.index(cid)

    def over02(self, cid: int) -> bool:
        """Whether the strand through ports (0, 2) of a crossing is over."""
        return self._over[self._rank(cid)]

    def sign(self, cid: int) -> int:
        i = self._rank(cid)
        if self._ins[i] is None:
            raise ValueError("crossing sign needs an oriented diagram")
        return _sign_from(self._over[i], self._ins[i])

    def writhe(self) -> int:
        return sum(map(self.sign, self._ids))

    def num_components(self) -> int:
        return self._walks()[1] + self._loops

    def memo_key(self) -> tuple:
        """Over flags, inflow ports and matching by rank; loops left out."""
        return self._over, self._ins, self._adj

    # -- traversal ----------------------------------------------------------

    def _walks(self) -> tuple[list[int], int]:
        """Entry ports in the order the component walks pass them, and the
        number of walks.

        Deterministic: each walk starts at the least unvisited port; for
        oriented diagrams the walk follows the stored strand directions.
        """
        adj, ins, order, walks = self._adj, self._ins, [], 0
        seen = [False] * len(adj)
        for p in range(len(adj)):
            if not seen[p]:
                walks += 1
                if ins[p >> 2] is not None and p & 3 not in ins[p >> 2]:
                    p ^= 2
                while not seen[p]:
                    seen[p] = seen[p ^ 2] = True
                    order.append(p)
                    p = adj[p ^ 2]
        return order, walks

    def first_bad_crossing(self) -> int | None:
        """First crossing whose first visit happens on its under strand."""
        met = set()
        for p in self._walks()[0]:
            if p >> 2 not in met:
                if p & 1 == self._over[p >> 2]:  # entered on the under strand
                    return self._ids[p >> 2]
                met.add(p >> 2)
        return None

    def walk_writhe(self) -> tuple[int, int]:
        """Writhe under walk-induced orientations, and the number of walks.

        For a descending diagram self-crossing signs do not depend on the
        orientation choice and the inter-component signs cancel, so any
        per-component orientation gives the same total.
        """
        order, walks = self._walks()
        first, w = {}, 0
        for p in order:
            if p >> 2 in first:  # the second passage: the two inflow ports are known
                w += _sign_from(self._over[p >> 2], (first[p >> 2], p & 3))
            first[p >> 2] = p & 3
        return w, walks

    def seifert_circles(self) -> int:
        """Circles of the oriented smoothing of every crossing, free loops included."""
        if not self.is_oriented:
            raise ValueError("Seifert smoothing needs an oriented diagram")
        adj, ins, seen, circles = self._adj, self._ins, set(), self._loops
        for p in range(len(adj)):
            if p & 3 in ins[p >> 2] and p not in seen:  # an inflow port on a new circle
                circles += 1
                while p not in seen:
                    seen.add(p)
                    # the smoothing leads out through the other strand's outflow port
                    p = adj[p - (p & 3) + (sum(ins[p >> 2]) - (p & 3) ^ 2)]
        return circles

    # -- skein moves --------------------------------------------------------

    def switched(self, cid: int) -> "LinkDiagram":
        """Swap over and under strands at one crossing."""
        i, over = self._rank(cid), self._over
        over = over[:i] + (not over[i],) + over[i + 1:]
        return _diagram(self._ids, over, self._ins, self._adj, self._loops)

    def smoothed_oriented(self, cid: int) -> "LinkDiagram":
        """Reconnect along orientation (the Seifert smoothing)."""
        i = self._rank(cid)
        if self._ins[i] is None:
            raise ValueError("oriented smoothing needs an oriented diagram")
        i1, i2 = self._ins[i]
        return self._fused((i, ((i1, i2 ^ 2), (i2, i1 ^ 2))))

    def smoothings_unoriented(self, cid: int) -> tuple["LinkDiagram", "LinkDiagram"]:
        """The two planar reconnections: port pairing {(1,2),(0,3)} first,
        then {(0,1),(2,3)}."""
        i = self._rank(cid)
        return self._fused((i, _SMOOTHINGS[0])), self._fused((i, _SMOOTHINGS[1]))

    def _twist_region(self, cid: int) -> tuple | None:
        """The twist region through a crossing, or None when it is in none:
        a maximal chain of k >= 2 crossings joined pairwise by alternating
        bigons, cyclic for T(2, k).  Returns k; h, the first crossing's
        ``si`` (1 when the (0, 2) strand is over), negated unless the
        through smoothing, which keeps both strands running along the chain,
        pairs {(1,2),(0,3)}; whether the strands run the same way (None
        when unoriented); and the ``_fused`` splices of sigma (the first
        crossing kept, the rest smoothed through), 1 (all smoothed through)
        and e (the first turned back).  An alternating bigon keeps the over
        flag XOR the axis parity, so every crossing has the same h.
        """
        i, adj, over, ins = self._rank(cid), self._adj, self._over, self._ins

        def across(p):  # the far side of the bigon on ports p and p + 1 CCW, if one is alternating
            b = adj[p]
            if (b >> 2 != p >> 2 and adj[p & ~3 | p + 1 & 3] == b & ~3 | b - 1 & 3
                    and ((p ^ b) & 1 == 0) != (over[p >> 2] == over[b >> 2])):
                return b & ~3 | b + 1 & 3

        p = next((p for p in range(4 * i, 4 * i + 4) if across(p) is not None), None)
        if p is None:
            return None
        q = p ^ 2  # back along the chain to its first crossing, or round to i
        while (b := across(q)) is not None and b >> 2 != i:
            q = b
        first = p if b is not None else q ^ 2
        chain, q = [first], first
        while (b := across(q)) is not None and b >> 2 != first >> 2:
            chain.append(q := b)
        # parallel when the oriented smoothing is the through one
        parallel = {None if ins[q >> 2] is None else (sum(ins[q >> 2]) >> 1 ^ q) & 1 == 0 for q in chain}
        if len(parallel) > 1:
            raise RuntimeError("the crossings of a twist region disagree on its strands' directions")
        through = [(q >> 2, _SMOOTHINGS[q & 1]) for q in chain]
        rest, h = through[1:], 1 if over[first >> 2] != first & 1 else -1
        return len(chain), h, parallel.pop(), (rest, through, [(first >> 2, _SMOOTHINGS[~first & 1])] + rest)

    def reduced(self) -> tuple["LinkDiagram", int]:
        """Strip Reidemeister-I curls and Reidemeister-II bigons until none
        is left; also return the summed sign of the curls removed.

        A curl, two adjacent ports of one crossing joined, goes with its
        crossing, and the other two ports are joined.  A bigon, adjacent
        ports of two crossings joined pairwise, goes when one strand is over
        at both crossings and no outer port leads back into them.  Ports
        are scanned in order.
        """
        d, curls = self, 0
        while True:
            adj, over = d._adj, d._over
            for p, b in enumerate(adj):
                c, c2, q = p >> 2, b >> 2, p - (p & 3) + (p + 1 & 3)  # q: next port CCW
                if b == q:
                    curls += _sign_from(over[c], (p + 2 & 3, q & 3))
                    d = d._fused((c, ((p + 2 & 3, q + 2 & 3),)))  # the curl's own arc goes with it
                    break
                if (c2 != c and adj[q] == b - (b & 3) + (b - 1 & 3)
                        and ((p ^ b) & 1 == 0) == (over[c] == over[c2])
                        and all(adj[x] >> 2 not in (c, c2) for x in (p ^ 2, q ^ 2, b ^ 2, adj[q] ^ 2))):
                    # both strands run straight through both crossings and the
                    # bigon's arcs, so the outer ports join up along them
                    d = d._fused((c, ((0, 2), (1, 3))), (c2, ((0, 2), (1, 3))))
                    break
            else:
                return d, curls

    def _summands(self) -> tuple[list["LinkDiagram"], int, int]:
        """The pieces and split count ``_pieces`` cuts the reduced diagram
        into, and the reduced diagram's free loops.

        Computed on first use and kept for the diagram's lifetime, so every
        skein polynomial of one diagram shares one reduction and one cut;
        no field of a diagram can change after it is built.
        """
        cut = getattr(self, "_cut", None)
        if cut is None:
            d = self.reduced()[0]
            cut = self._cut = (*_pieces(d), d.loops)
        return cut

    def unoriented(self) -> "LinkDiagram":
        return _diagram(self._ids, self._over, (None,) * len(self._ids), self._adj, self._loops)

    def _fused(self, *splices) -> "LinkDiagram":
        """Remove crossings, each splice (rank, pairs) wiring the ports of
        one crossing together pairwise, and build one diagram.

        Each pair splices the arcs at its two ports into one, reading the
        matching as earlier splices left it; a pair whose ports share an
        arc closes a loop.  Ports in no pair must be joined to each other.
        """
        adj, loops = list(self._adj), self._loops
        for i, pairs in splices:
            base = 4 * i
            for a, b in pairs:
                x, y = adj[base + a], adj[base + b]
                if x == base + b:
                    loops += 1
                else:
                    adj[x], adj[y] = y, x
        ids, over, ins = self._ids, self._over, self._ins
        for i, _ in sorted(splices, reverse=True):  # from the top, so lower ranks stay put
            base = 4 * i
            del adj[base:base + 4]
            adj = [x - 4 if x > base else x for x in adj]
            ids, over, ins = ids[:i] + ids[i + 1:], over[:i] + over[i + 1:], ins[:i] + ins[i + 1:]
        return _diagram(ids, over, ins, tuple(adj), loops)

    def _part(self, ranks) -> "LinkDiagram":
        """The crossings of some ranks, ascending, with the ports that led
        out of them joined pairwise and no free loops."""
        new = {r: 4 * k for k, r in enumerate(ranks)}
        adj = [new[q >> 2] + (q & 3) if q >> 2 in new else None
               for r in ranks for q in self._adj[4 * r:4 * r + 4]]
        loose = [p for p, q in enumerate(adj) if q is None]
        for p, q in zip(loose, loose[::-1]):  # join the two cut ports
            adj[p] = q
        fields = (tuple(t[r] for r in ranks) for t in (self._ids, self._over, self._ins))
        return _diagram(*fields, tuple(adj), 0)

    # -- export -------------------------------------------------------------

    def to_pd(self) -> dict:
        """PD-style export: per crossing the arc labels at ports, starting
        at the under strand's inflow port and continuing counterclockwise."""
        if not self.is_oriented:
            raise ValueError("PD export needs an oriented diagram")
        adj, label = self._adj, {}
        for p in self._walks()[0]:  # every arc is entered once
            label[p] = label[adj[p]] = len(label) // 2 + 1
        # ins[ins[0] % 2 != over] is the under strand's inflow port
        rows = [[label[4 * i + (ins[ins[0] % 2 != over] + s) % 4] for s in range(4)]
                for i, (over, ins) in enumerate(zip(self._over, self._ins))]
        return {"crossings": rows, "free_loops": self._loops}


# the planar smoothings; in a twist region where ports p, p + 1 face one
# neighbour, _SMOOTHINGS[p & 1] is the through one
_SMOOTHINGS = (((1, 2), (0, 3)), ((0, 1), (2, 3)))


def _diagram(*fields) -> LinkDiagram:
    """A diagram from its flat fields: ids, over flags, inflow ports, matching, loops."""
    return LinkDiagram.__new__(LinkDiagram)._set(*fields)


def _sign_from(over02: bool, in_ports: tuple[int, int]) -> int:
    # ports sit at W, S, E, N; a strand's direction is the vector from its
    # inflow port through the center, (1 - i02, 0) or (0, 2 - i13), and the
    # sign is det(over direction, under direction)
    i02, i13 = in_ports if in_ports[0] % 2 == 0 else in_ports[::-1]
    det = (1 - i02) * (2 - i13)
    return det if over02 else -det


def _pieces(d: LinkDiagram) -> tuple[list[LinkDiagram], int]:
    """Split components and connected summands (free loops left out), and the split count."""
    pieces, todo = [], [d._part(range(d.num_crossings))] if d.num_crossings else []
    components = len(todo)
    while todo:
        cur = todo.pop()
        adj, n = cur._adj, cur.num_crossings
        order, up = _tree(adj, 0)
        side = set(order) if len(order) < n else None
        components += side is not None
        if side is None:
            acc, arcs = [0] * n, {}
            for x, y in enumerate(adj):
                if x < y and up[x >> 2] != x and up[y >> 2] != y:  # an arc off the tree
                    b = 1 << len(arcs)
                    arcs[b] = x
                    acc[x >> 2] ^= b
                    acc[y >> 2] ^= b
            for c in reversed(order[1:]):
                acc[adj[up[c]] >> 2] ^= acc[c]
                if acc[c] in arcs:  # two arcs with one label: a connected sum
                    x = arcs[acc[c]]
                    side = set(_tree(adj, c, (up[c], adj[up[c]], x, adj[x]))[0])
                    break
                arcs[acc[c]] = up[c]
        if side is None:
            pieces.append(cur)
        else:
            todo += [cur._part(sorted(side)), cur._part([c for c in range(n) if c not in side])]
    return pieces, components


def _tree(adj, root: int, cut=()) -> tuple[list[int], dict]:
    """Breadth-first tree avoiding ``cut``: crossings in order, each one's tree port."""
    order, up = [root], {root: None}
    for c in order:
        for x in range(4 * c, 4 * c + 4):
            if x not in cut and adj[x] >> 2 not in up:
                up[adj[x] >> 2] = adj[x]
                order.append(adj[x] >> 2)
    return order, up
