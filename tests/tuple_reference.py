"""Tuple-port reference for the flat diagram kernel.

``TupleDiagram`` keeps a diagram as dicts keyed by crossing ids and
``(crossing id, port)`` pairs, and runs the skein moves, the reductions,
the walks, the split/summand cut and the rank-key memo on those dicts.
``homfly``, ``kauffman_dubrovnik``, ``seifert_circle_count`` and
``leaf`` run the package's algorithms on it, so the tests can compare
the flat kernel of ``legfronts.diagram`` with an independent
implementation of the same steps.  Its reductions scan ports in the
insertion order of ``adj``, and it expands a twist region one crossing
at a time where the flat kernel expands every bad crossing's region,
a lone crossing being a region of one, in one step, so its skein trees
differ from the flat kernel's; the polynomials cannot, which makes it
the oracle for the one-step region rule.

Its one-crossing moves ``switched``, ``smoothed_oriented`` and
``smoothings_unoriented`` have no counterpart in the flat kernel.  The
raw skein oracle runs on them, and tests that need a mirror or one
smoothed crossing build it here and convert it back with ``flat``.
"""

from legfronts.diagram import Crossing, LinkDiagram, _sign_from
from legfronts.skein import DUBROVNIK_DELTA, HOMFLY_DELTA
from legfronts.laurent import VZPoly


class TupleDiagram:
    """A link diagram on dicts: ``crossings[cid]`` and ``adj[(cid, port)]``."""

    def __init__(self, crossings, adj, loops=0):
        self.crossings = dict(crossings)
        self.adj = dict(adj)
        self.loops = loops
        for p, q in self.adj.items():
            if self.adj.get(q) != p:
                raise ValueError("arc matching is not symmetric")

    @classmethod
    def of(cls, d: LinkDiagram) -> "TupleDiagram":
        return cls(d.crossings, d.adj, d.loops)

    def flat(self) -> LinkDiagram:
        """The same diagram in the flat kernel."""
        return LinkDiagram(self.crossings, self.adj, self.loops)

    @property
    def num_crossings(self):
        return len(self.crossings)

    def sign(self, cid):
        cr = self.crossings[cid]
        return _sign_from(cr.over02, cr.in_ports)

    def writhe(self):
        return sum(self.sign(c) for c in self.crossings)

    def num_components(self):
        return len(self._walks()) + self.loops

    def _walks(self):
        """Component walks as lists of (crossing, entry port) passages,
        each from the least unvisited port."""
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

    def first_bad_crossing(self):
        seen = set()
        for walk in self._walks():
            for cid, p in walk:
                if cid in seen:
                    continue
                seen.add(cid)
                if (p % 2 == 0) != self.crossings[cid].over02:
                    return cid
        return None

    def switched(self, cid):
        cr = self.crossings[cid]
        out = dict(self.crossings)
        out[cid] = Crossing(not cr.over02, cr.in_ports)
        return TupleDiagram(out, self.adj, self.loops)

    def smoothed_oriented(self, cid):
        i1, i2 = self.crossings[cid].in_ports
        return self._fused(cid, ((i1, (i2 + 2) % 4), (i2, (i1 + 2) % 4)))

    def smoothings_unoriented(self, cid):
        return self._fused(cid, ((1, 2), (0, 3))), self._fused(cid, ((0, 1), (2, 3)))

    def unoriented(self):
        stripped = {c: Crossing(cr.over02, None) for c, cr in self.crossings.items()}
        return TupleDiagram(stripped, self.adj, self.loops)

    def reduced(self):
        """Strip curls and one-strand-over bigons, scanning ``adj`` in
        insertion order; also return the summed sign of the curls."""
        d, curls = self, 0
        while True:
            adj, crs = d.adj, d.crossings
            for (c, p), (c2, b) in adj.items():
                q = (p + 1) % 4
                if c2 == c:
                    if b == q:
                        curls += _sign_from(crs[c].over02, ((p + 2) % 4, q))
                        d = d._fused(c, ((p, q), ((p + 2) % 4, (q + 2) % 4)))
                        d.loops -= 1
                        break
                elif (adj[(c, q)] == (c2, (b - 1) % 4)
                        and (p % 2 == b % 2) == (crs[c].over02 == crs[c2].over02)
                        and all(adj[(x, r % 4)][0] not in (c, c2)
                                for x, r in ((c, p + 2), (c, p + 3), (c2, b + 1), (c2, b + 2)))):
                    d = d._fused(c, ((0, 2), (1, 3)))._fused(c2, ((0, 2), (1, 3)))
                    break
            else:
                return d, curls

    def _fused(self, cid, pairs):
        wire = {}
        for a, b in pairs:
            wire[a], wire[b] = b, a
        old = self.adj
        adj = {k: v for k, v in old.items() if k[0] != cid and v[0] != cid}
        loops, todo = self.loops, {0, 1, 2, 3}
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
                loops += end[1] == p0
                p = end[1]
        crossings = {c: cr for c, cr in self.crossings.items() if c != cid}
        return TupleDiagram(crossings, adj, loops)


def _leaf_writhe(d, walks):
    entries = {}
    for walk in walks:
        for cid, p in walk:
            entries.setdefault(cid, []).append(p)
    return sum(_sign_from(d.crossings[cid].over02, (ports[0], ports[1])) for cid, ports in entries.items())


def _pieces(d):
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
                if x < y and up[x[0]] != x and up[y[0]] != y:
                    b = 1 << len(arcs)
                    arcs[b] = x
                    acc[x[0]] ^= b
                    acc[y[0]] ^= b
            for c in reversed(order[1:]):
                acc[adj[up[c]][0]] ^= acc[c]
                if acc[c] in arcs:
                    x = arcs[acc[c]]
                    side = set(_tree(adj, c, (up[c], adj[up[c]], x, adj[x]))[0])
                    break
                arcs[acc[c]] = up[c]
        if side is None:
            pieces.append(TupleDiagram({c: d.crossings[c] for c in order}, adj))
        for part in (side, keep - side) if side else ():
            part_adj = {x: y for x, y in adj.items() if x[0] in part}
            loose = [x for x, y in part_adj.items() if y[0] not in part]
            part_adj.update(zip(loose, loose[::-1]))
            todo.append((part, part_adj))
    return pieces, components


def _tree(adj, root, cut=()):
    order, up = [root], {root: None}
    for c in order:
        for x in [(c, p) for p in range(4)]:
            if x not in cut and adj[x][0] not in up:
                up[adj[x][0]] = adj[x]
                order.append(adj[x][0])
    return order, up


def _rank_key(d):
    ids = sorted(d.crossings)
    rank = {c: 4 * i for i, c in enumerate(ids)}
    ends = [d.adj[(c, p)] for c in ids for p in range(4)]
    return tuple(d.crossings[c] for c in ids), tuple(rank[c] + p for c, p in ends)


def homfly(d: LinkDiagram) -> VZPoly:
    return _skein_sum(TupleDiagram.of(d), False)


def kauffman_dubrovnik(d: LinkDiagram) -> VZPoly:
    return _skein_sum(TupleDiagram.of(d), True)


def _skein_sum(d, kauffman):
    d = d.reduced()[0]
    delta = DUBROVNIK_DELTA if kauffman else HOMFLY_DELTA
    pieces, components = _pieces(d)
    total, memo = delta ** (components + d.loops - 1), {}
    for piece in pieces:
        total = total * _expanded(piece, kauffman, delta, memo)
    return total


def _expanded(d, kauffman, delta, memo):
    stack = []

    def branch(c, node, ev, ez, loops):
        node, curls = node.reduced()
        key = _rank_key(node)
        if key not in memo:
            stack.append((key, node, None))
        return c, ev - curls if kauffman else ev, ez, node.loops - loops, key

    root = branch(1, d.unoriented(), d.writhe(), 0, 0) if kauffman else branch(1, d, 0, 0, 0)
    while stack:
        key, cur, branches = stack.pop()
        if branches is not None:
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
            walks = cur._walks()
            memo[key] = {(-_leaf_writhe(cur, walks) if kauffman else 0, 0, len(walks)): 1}
            continue
        branches, loops = [], cur.loops
        stack.append((key, cur, branches))
        if kauffman:
            si = 1 if cur.crossings[bad].over02 else -1
            smooth_a, smooth_b = cur.smoothings_unoriented(bad)
            branches += [branch(1, cur.switched(bad), 0, 0, loops),
                         branch(si, smooth_a, 0, 1, loops), branch(-si, smooth_b, 0, 1, loops)]
        else:
            s = cur.sign(bad)
            branches += [branch(1, cur.switched(bad), 2 * s, 0, loops),
                         branch(s, cur.smoothed_oriented(bad), s, 1, loops)]
    _, ev, ez, n, key = root
    total = VZPoly(0)
    for m in {m for _, _, m in memo[key]}:
        terms = {(e + ev, f + ez): c for (e, f, k), c in memo[key].items() if k == m}
        total = total + VZPoly(terms) * delta ** (m + n - 1)
    return total


def seifert_circle_count(d: LinkDiagram) -> int:
    """Circles left after smoothing every crossing along orientation, one at a time."""
    t = TupleDiagram.of(d)
    for cid in list(t.crossings):
        t = t.smoothed_oriented(cid)
    return t.loops


def leaf(d: LinkDiagram | TupleDiagram) -> tuple[int, int]:
    """Walk-induced writhe and walk count of a descending diagram."""
    t = d if isinstance(d, TupleDiagram) else TupleDiagram.of(d)
    walks = t._walks()
    return _leaf_writhe(t, walks), len(walks)
