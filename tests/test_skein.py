import random
import re

import pytest

import skein_oracle
import tuple_reference
from conftest import nested_unlink, random_front, random_fronts, ruled_random_front
from legfronts import cli, corpus, diagram
from legfronts.fronts import (
    FrontDiagram,
    classical_invariants,
    components,
    connected_sum,
    front,
    render_front,
    sweep_front,
)
from legfronts.laurent import VZPoly, ZPoly, conway
from legfronts.diagram import Crossing
from legfronts.skein import (
    DUBROVNIK_DELTA,
    HOMFLY_DELTA,
    LinkDiagram,
    ResourceLimitError,
    _resolved,
    front_to_diagram,
    homfly,
    kauffman_dubrovnik,
    seifert_diagram_genus,
)

UNKNOT = front("L1 R1", name="unknot")
STAB = front("L1 L2 R1 R1", name="stab")
TREFOIL = front("L1 L3 X2 X2 X2 R1 R1", name="trefoil")
NEG_KINK = front("L1 X1 R1", name="kink")

V = VZPoly.monomial(1, 1, 0)
V_INV = VZPoly.monomial(1, -1, 0)
Z = VZPoly.monomial(1, 0, 1)


# -- front to diagram ---------------------------------------------------------


def test_unknot_diagram_is_bare_loop():
    d = front_to_diagram(UNKNOT)
    assert d.num_crossings == 0
    assert d.loops == 1
    assert d.num_components() == 1


def test_stabilized_unknot_diagram_has_no_crossings():
    d = front_to_diagram(STAB)
    assert d.num_crossings == 0
    assert d.num_components() == 1


def test_trefoil_diagram():
    d = front_to_diagram(TREFOIL)
    assert d.num_crossings == 3
    assert d.num_components() == 1
    assert d.writhe() == 3
    assert all(d.sign(c) == 1 for c in d.crossings)


def test_diagram_writhe_matches_front_writhe():
    for f in random_fronts(seed=31, count=30, max_crossings=10):
        assert front_to_diagram(f).writhe() == classical_invariants(f).writhe


def _connector_resolved(f, sweep):
    """Reference resolver: wire crossing ports and cusp sides into a
    connector graph, chase each port through the cusps to its far port,
    and count what is left as crossing-free loops."""
    edges, stack, xnum = [], [], 0
    for i, ev in enumerate(f.events):
        k = ev.height
        if ev.kind == "L":
            stack[k - 1:k - 1] = [("c", i, 0), ("c", i, 1)]
        elif ev.kind == "R":
            edges += [(stack[k - 1], ("c", i, 0)), (stack[k], ("c", i, 1))]
            del stack[k - 1:k + 1]
        else:
            xnum += 1
            edges += [(stack[k - 1], ("p", xnum, 0)), (stack[k], ("p", xnum, 1))]
            stack[k - 1], stack[k] = ("p", xnum, 3), ("p", xnum, 2)
    link = {}
    for a, b in edges:
        link[a], link[b] = b, a

    def sibling(node):
        return ("c", node[1], 1 - node[2])

    adj, loops, visited = {}, 0, set()
    for node in [n for n in link if n[0] == "p"]:
        if node in visited:
            continue
        visited.add(node)
        cur = link[node]
        while cur[0] == "c":
            visited |= {cur, sibling(cur)}
            cur = link[sibling(cur)]
        visited.add(cur)
        adj[node[1:]], adj[cur[1:]] = cur[1:], node[1:]
    for node in link:
        if node in visited:
            continue
        cur = node
        while cur not in visited:
            visited |= {cur, sibling(cur)}
            cur = link[sibling(cur)]
        loops += 1
    rightward = sweep.arc_rightward
    crossings = {
        c: Crossing(True, (0 if rightward[over] else 2, 1 if rightward[under] else 3))
        for c, (over, under) in enumerate(sweep.crossings, start=1)
    }
    return crossings, adj, loops


def test_one_pass_resolver_matches_the_connector_graph():
    rng = random.Random(36)
    cases = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=37, count=150)
    cases += [ruled_random_front(rng) for _ in range(150)]
    seen = {"loops": 0, "reversed": 0, "free arcs": 0}
    for f in cases:
        plain = sweep_front(f)
        comp = plain.arc_component
        crossed = {a for x in plain.crossings for a in x}
        linked = {comp[a] for a in crossed}
        # a component with crossings that also has a crossing-free arc
        seen["free arcs"] += any(c in linked for a, c in enumerate(comp) if a not in crossed)
        n = plain.num_components
        for rev in [()] + [(c,) for c in range(n)] * (n > 1):
            sweep = sweep_front(f, rev)
            d = _resolved(sweep)
            reference = _connector_resolved(f, sweep)
            assert (d.crossings, d.adj, d.loops) == reference, (str(f), rev)
            assert d.memo_key() == LinkDiagram(*reference).memo_key(), (str(f), rev)
            # the resolver reads the record's arcs, not the front's events
            blind = _resolved(sweep._replace(diagram=front("")))
            assert (blind.crossings, blind.adj, blind.loops) == reference, (str(f), rev)
            seen["loops"] += d.loops > 0 and d.num_crossings > 0
            seen["reversed"] += bool(rev)
    assert min(seen.values()) >= 20, seen


def test_diagram_component_count_matches_front():
    for f in random_fronts(seed=32, count=30, max_crossings=10):
        assert front_to_diagram(f).num_components() == components(f).num_components


# -- Homfly -------------------------------------------------------------------


def test_homfly_unknot():
    assert homfly(front_to_diagram(UNKNOT)) == VZPoly(1)


def test_homfly_unlinks():
    for n in range(1, 5):
        d = front_to_diagram(nested_unlink(n))
        assert homfly(d) == HOMFLY_DELTA ** (n - 1)


def test_homfly_kinks_are_invisible():
    assert homfly(front_to_diagram(NEG_KINK)) == VZPoly(1)


def test_homfly_right_trefoil():
    p = homfly(front_to_diagram(TREFOIL))
    assert p == VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})
    assert p.min_v_degree() == 2  # e = tb + 1
    assert p.coefficient_of_v(2) == ZPoly({2: 1, 0: 2})


def test_homfly_torus_51():
    p = homfly(front_to_diagram(corpus.load("51")))
    assert p == VZPoly({(4, 4): 1, (4, 2): 4, (4, 0): 3, (6, 2): -1, (6, 0): -2})


def test_homfly_skein_relation_residual_is_zero():
    rng = random.Random(33)
    checked = 0
    for f in random_fronts(seed=34, count=20, max_crossings=7):
        d = front_to_diagram(f)
        if d.num_crossings == 0:
            continue
        cid = rng.choice(sorted(d.crossings))
        pos = d if d.sign(cid) > 0 else d.switched(cid)
        neg = pos.switched(cid)
        smooth = d.smoothed_oriented(cid)
        residual = V_INV * homfly(pos) - V * homfly(neg) - Z * homfly(smooth)
        assert residual == VZPoly(0)
        checked += 1
    assert checked >= 10


def _ids_reversed(d: LinkDiagram) -> LinkDiagram:
    top = max(d.crossings, default=0) + 1
    return LinkDiagram(
        {top - c: cr for c, cr in d.crossings.items()},
        {(top - c, p): (top - c2, q) for (c, p), (c2, q) in d.adj.items()},
        d.loops,
    )


def test_skein_ignores_crossing_ids():
    # reversed ids move every walk's base point, so the expansion picks
    # other crossings at its nodes and cuts the memo keys in another order
    cases = 0
    for f in [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=35, count=50, max_crossings=9):
        for reverse in [()] if components(f).num_components == 1 else [(), (0,)]:
            d = front_to_diagram(f, reverse)
            r = _ids_reversed(d)
            assert homfly(r) == homfly(d), (str(f), reverse)
            assert kauffman_dubrovnik(r) == kauffman_dubrovnik(d), (str(f), reverse)
            cases += 1
    assert cases >= 70


def test_homfly_resource_limit():
    d = front_to_diagram(TREFOIL)
    with pytest.raises(ResourceLimitError):
        homfly(d, max_crossings=2)


def test_negative_ceiling_is_a_value_error():
    d = front_to_diagram(front("L1 R1", name="unknot"))
    for poly in (homfly, kauffman_dubrovnik):
        assert poly(d, max_crossings=0) == 1
        with pytest.raises(ValueError, match="ceiling must be non-negative, got -1") as exc:
            poly(d, max_crossings=-1)
        assert not isinstance(exc.value, ResourceLimitError)


def test_empty_front_has_no_skein_polynomial():
    d = front_to_diagram(front("", name="empty"))
    for poly in (homfly, kauffman_dubrovnik):
        with pytest.raises(ValueError, match="a front with no components has no Homfly or Kauffman polynomial"):
            poly(d)


def test_conway_is_homfly_at_v_one():
    nablas = {"unknot": {0: 1}, "trefoil": {0: 1, 2: 1}, "51": {0: 1, 2: 3, 4: 1}, "trefoil_sum": {0: 1, 2: 2, 4: 1}}
    for name, nabla in nablas.items():
        assert conway(homfly(front_to_diagram(corpus.load(name)))) == ZPoly(nabla)
    trefoil_nabla = conway(homfly(front_to_diagram(TREFOIL)))
    assert trefoil_nabla == ZPoly({2: 1, 0: 1})
    assert trefoil_nabla.degree() == 2


def test_conway_vanishes_on_split_links():
    p = homfly(front_to_diagram(corpus.load("unlink2")))
    assert conway(p) == ZPoly(0)


# -- Kauffman (Dubrovnik) -------------------------------------------------------


def test_kauffman_unknot():
    assert kauffman_dubrovnik(front_to_diagram(UNKNOT)) == VZPoly(1)


def test_kauffman_kink_normalizes_to_one():
    # one negative curl: the raw regular-isotopy value is a^{-1}, the
    # writhe normalization cancels it
    d = front_to_diagram(NEG_KINK)
    assert d.writhe() == -1
    assert kauffman_dubrovnik(d) == VZPoly(1)


def test_kauffman_unlinks():
    for n in range(1, 4):
        d = front_to_diagram(nested_unlink(n))
        assert kauffman_dubrovnik(d) == DUBROVNIK_DELTA ** (n - 1)


def test_kauffman_trefoil_slice_counts_ungraded_rulings():
    f = kauffman_dubrovnik(front_to_diagram(TREFOIL))
    assert f.coefficient_of_v(2) == ZPoly({2: 1, 0: 2})


def test_kauffman_resource_limit():
    with pytest.raises(ResourceLimitError):
        kauffman_dubrovnik(front_to_diagram(TREFOIL), max_crossings=1)


def test_kauffman_dominates_homfly_slice_on_corpus_knots():
    # coefficientwise 0 <= homfly slice <= kauffman slice at v^(tb+1)
    for name in ("unknot", "trefoil", "51", "trefoil_sum"):
        f = corpus.load(name)
        tb = classical_invariants(f).tb
        d = front_to_diagram(f)
        p_slice = homfly(d).coefficient_of_v(tb + 1)
        f_slice = kauffman_dubrovnik(d).coefficient_of_v(tb + 1)
        for exp in set(p_slice.terms) | set(f_slice.terms):
            assert 0 <= p_slice.coefficient(exp) <= f_slice.coefficient(exp)


# -- reductions and the unreduced oracle ----------------------------------------


def kinks(k: int, positive: bool):
    """k stacked curls on one unknot: the twisted eye L1 X1^k R1, mirrored
    for positive curls."""
    d = front_to_diagram(front("L1 " + "X1 " * k + "R1"))
    if positive:
        for cid in list(d.crossings):
            d = d.switched(cid)
    return d


@pytest.mark.parametrize("positive", [True, False])
def test_stacked_kinks_reduce_to_the_unknot(positive):
    for k in range(1, 5):
        d = kinks(k, positive)
        s = 1 if positive else -1
        assert d.writhe() == s * k
        bare, curls = d.unoriented().reduced()
        assert (bare.num_crossings, bare.loops, curls) == (0, 1, s * k)
        # the raw Dubrovnik value a^w D_normalized is a^{+-k} = v^{-+k}
        raw = VZPoly.monomial(1, -d.writhe(), 0) * kauffman_dubrovnik(d)
        assert raw == VZPoly.monomial(1, -s * k, 0)
        assert kauffman_dubrovnik(d) == VZPoly(1)
        assert homfly(d) == VZPoly(1)


def test_bigon_with_one_strand_over_is_removed():
    # the trefoil twist with its middle crossing switched: the bigon it
    # forms with the first crossing goes, the last crossing is then a curl
    d = front_to_diagram(TREFOIL).switched(2)
    bare, curls = d.reduced()
    assert (bare.num_crossings, bare.loops, curls) == (0, 1, 1)
    assert homfly(d) == VZPoly(1)
    assert kauffman_dubrovnik(d) == VZPoly(1)
    # in the four-crossing twist of T(2,4), switching two crossings lets
    # one bigon go and leaves the two-component unlink
    d = front_to_diagram(front("L1 L3 X2 X2 X2 X2 R1 R1")).switched(2).switched(3)
    assert d.reduced()[0].num_crossings == 2
    assert homfly(d) == HOMFLY_DELTA
    assert kauffman_dubrovnik(d) == DUBROVNIK_DELTA


def test_alternating_bigon_is_kept():
    hopf = front_to_diagram(front("L1 L2 X1 X3 R2 R1"))
    bare, curls = hopf.reduced()
    assert bare is hopf and curls == 0
    assert homfly(hopf) == skein_oracle.homfly(hopf)
    assert kauffman_dubrovnik(hopf) == skein_oracle.kauffman_dubrovnik(hopf)


def test_ceiling_counts_crossings_before_reduction():
    d = kinks(5, positive=False)
    with pytest.raises(ResourceLimitError):
        homfly(d, max_crossings=4)
    with pytest.raises(ResourceLimitError):
        kauffman_dubrovnik(d, max_crossings=4)


def test_skein_matches_unreduced_oracle():
    for f in random_fronts(seed=37, count=150, max_crossings=9):
        reversals = [()] if components(f).num_components == 1 else [(), (0,)]
        for reverse in reversals:
            d = front_to_diagram(f, reverse)
            p = skein_oracle.homfly(d)
            assert homfly(d) == p
            assert kauffman_dubrovnik(d) == skein_oracle.kauffman_dubrovnik(d)


# -- split components and connected summands ------------------------------------


def chain(factors) -> FrontDiagram:
    """The left-to-right connected sum of fronts."""
    f = factors[0]
    for g in factors[1:]:
        f = connected_sum(f, g)
    return f


def trefoil_power(k: int) -> FrontDiagram:
    return chain([TREFOIL] * k)


def test_composites_match_oracle_and_factor():
    # connected sums A # B and split unions A followed by B, of random
    # fronts with 1 to 6 crossings each; knot pairs also factor exactly
    rng = random.Random(39)
    pool = [f for f in random_fronts(seed=38, count=80, max_crossings=6) if f.num_crossings]
    knots = [f for f in random_fronts(seed=40, count=30, max_crossings=6, knots_only=True) if f.num_crossings]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(6)]
    pairs += [(rng.choice(knots), rng.choice(knots)) for _ in range(8)]
    for a, b in pairs:
        summed, split = connected_sum(a, b), FrontDiagram(a.events + b.events, name="split")
        for f in (summed, split) if summed.num_crossings <= 10 else ():
            reversals = [()] if components(f).num_components == 1 else [(), (0,)]
            for reverse in reversals:
                d = front_to_diagram(f, reverse)
                assert homfly(d) == skein_oracle.homfly(d)
                assert kauffman_dubrovnik(d) == skein_oracle.kauffman_dubrovnik(d)
        if components(a).num_components == components(b).num_components == 1:
            for poly, delta in ((homfly, HOMFLY_DELTA), (kauffman_dubrovnik, DUBROVNIK_DELTA)):
                pa, pb = poly(front_to_diagram(a)), poly(front_to_diagram(b))
                assert poly(front_to_diagram(summed)) == pa * pb
                assert poly(front_to_diagram(split)) == delta * pa * pb


def test_connected_summands_are_expanded_one_by_one(monkeypatch):
    calls = []
    first_bad = LinkDiagram.first_bad_crossing

    def counted(self, *args):
        calls.append(1)
        return first_bad(self, *args)

    monkeypatch.setattr(LinkDiagram, "first_bad_crossing", counted)

    def nodes(poly, f, **kw):
        calls.clear()
        value = poly(front_to_diagram(f), **kw)
        return value, len(calls)

    p1, n1 = nodes(homfly, TREFOIL)
    f1, m1 = nodes(kauffman_dubrovnik, TREFOIL)
    # the trefoil is one cyclic twist region: its root and the
    # crossing-free leaf that all its children reduce to
    assert (n1, m1) == (2, 2)
    # later summands hit the memo of the first ones; expanded one by one
    # without a memo, a crossing at a time, they take 20 and 28 nodes,
    # unfactored 197 and 1,327
    assert nodes(homfly, trefoil_power(4))[1] == 3
    assert nodes(kauffman_dubrovnik, trefoil_power(4))[1] == 2
    assert nodes(homfly, trefoil_power(6), max_crossings=18) == (p1 ** 6, 3)
    assert nodes(kauffman_dubrovnik, trefoil_power(6), max_crossings=18) == (f1 ** 6, 2)
    # the fixed fronts of the skein-deep benchmark; each twist region is
    # expanded in one step, so T(2,n) takes 2 nodes for every n >= 2
    twist = [front("L1 L3 " + "X2 " * n + "R1 R1") for n in range(14)]
    hopf = front("L1 L2 X1 X3 R2 R1")
    fixed = {
        "T(2,11)": (twist[11], (2, 2)),
        "T(2,13)": (twist[13], (2, 2)),
        "trefoil^#4": (trefoil_power(4), (3, 2)),
        "T(2,5)#T(2,7)": (connected_sum(twist[5], twist[7]), (3, 3)),
        "hopf^#3#trefoil^#2": (chain([hopf] * 3 + [TREFOIL] * 2), (4, 3)),
    }
    for name, (f, counts) in fixed.items():
        assert (nodes(homfly, f)[1], nodes(kauffman_dubrovnik, f)[1]) == counts, name


def test_both_polynomials_share_one_reduction_and_cut(monkeypatch):
    calls = []
    pieces = diagram._pieces

    def counted(d):
        calls.append(d)
        return pieces(d)

    monkeypatch.setattr(diagram, "_pieces", counted)
    d = front_to_diagram(chain([TREFOIL, front("L1 L2 X1 X3 R2 R1"), TREFOIL]))
    p, f = homfly(d), kauffman_dubrovnik(d)
    assert len(calls) == 1
    assert (homfly(d), kauffman_dubrovnik(d)) == (p, f) and len(calls) == 1
    # the kept cut cannot go stale: the loop count is read-only, and a
    # diagram built with one more free loop is cut again and gains delta
    with pytest.raises(AttributeError):
        d.loops += 1
    looped = LinkDiagram(d.crossings, d.adj, d.loops + 1)
    assert (homfly(looped), kauffman_dubrovnik(looped)) == (p * HOMFLY_DELTA, f * DUBROVNIK_DELTA)
    assert len(calls) == 2


def test_returned_polynomials_are_fresh():
    # the powers of delta are kept between calls; no caller may reach them
    for f in (UNKNOT, corpus.load("unlink2"), nested_unlink(3), TREFOIL, connected_sum(TREFOIL, TREFOIL)):
        d = front_to_diagram(f)
        for poly in (homfly, kauffman_dubrovnik):
            first = poly(d)
            expected = VZPoly(first.terms)
            first.terms[(99, 99)] = 1
            first.terms.pop(next(iter(expected.terms)))
            assert poly(d) == expected, (str(f), poly.__name__)
            assert poly(front_to_diagram(f)) == expected, (str(f), poly.__name__)
    assert homfly(front_to_diagram(nested_unlink(3))) == HOMFLY_DELTA * HOMFLY_DELTA


def test_ceiling_counts_the_input_not_its_pieces(tmp_path, capsys):
    d = front_to_diagram(trefoil_power(6))
    with pytest.raises(ResourceLimitError):
        homfly(d)
    with pytest.raises(ResourceLimitError):
        kauffman_dubrovnik(d)
    path = tmp_path / "trefoil6.front"
    path.write_text(render_front(trefoil_power(6)))
    assert cli.main(["homfly", str(path)]) == 2
    assert "18 crossings exceed the ceiling of 16" in capsys.readouterr().err


# -- twist regions and the memo -------------------------------------------------


def torus(n: int) -> LinkDiagram:
    """T(2,n) from its maximal front, oriented so that every crossing is positive."""
    return front_to_diagram(front("L1 L3 " + "X2 " * n + "R1 R1"), (0,) if n % 2 == 0 else ())


def twisted_fronts(seed: int, count: int, max_crossings: int):
    """Random fronts with each crossing widened to a run of 1 to 5 equal ``X k``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        events = [e for e in random_front(rng, max_events=10, max_strands=6).events
                  for _ in range(rng.randint(1, 5) if e.kind == "X" else 1)]
        f = FrontDiagram(tuple(events), name="twisted")
        if 0 < f.num_crossings <= max_crossings:
            out.append(f)
    return out


def test_twist_regions_match_oracle():
    fronts = [front("L1 L3 " + "X2 " * n + "R1 R1") for n in range(2, 10)]
    for f in fronts + twisted_fronts(seed=41, count=20, max_crossings=10):
        reversals = [()] if components(f).num_components == 1 else [(), (0,)]
        for reverse in reversals:
            d = front_to_diagram(f, reverse)
            assert homfly(d) == skein_oracle.homfly(d)
            assert kauffman_dubrovnik(d) == skein_oracle.kauffman_dubrovnik(d)


def test_twist_family_is_linear(monkeypatch):
    # P_n = v z P_{n-1} + v^2 P_{n-2} for the positive twist, far beyond the
    # oracle; the whole twist is one region, expanded in one step
    calls = []
    first_bad = LinkDiagram.first_bad_crossing

    def counted(self, *args):
        calls.append(1)
        return first_bad(self, *args)

    monkeypatch.setattr(LinkDiagram, "first_bad_crossing", counted)
    p = [homfly(torus(1)), homfly(torus(2))]
    for n in range(3, 26):
        calls.clear()
        p.append(homfly(torus(n), max_crossings=25))
        assert len(calls) <= 2
        assert p[-1] == V * Z * p[-2] + V * V * p[-3]
        calls.clear()
        kauffman_dubrovnik(torus(n), max_crossings=25)
        assert len(calls) <= 2


def test_twist_regions_expand_as_crossing_by_crossing(monkeypatch):
    # the tuple reference expands every region a crossing at a time; each
    # kind of region the one-step rule tells apart must be met often
    seen = dict.fromkeys(["parallel", "antiparallel", "kauffman h=1", "kauffman h=-1", "cyclic"], 0)
    region = LinkDiagram._twist_region

    def counted(self, cid):
        found = region(self, cid)
        if found is not None:
            k, h, parallel, _ = found
            seen[f"kauffman h={h}" if parallel is None else "parallel" if parallel else "antiparallel"] += 1
            seen["cyclic"] += k == self.num_crossings  # a reduced node: the region closes up
        return found

    monkeypatch.setattr(LinkDiagram, "_twist_region", counted)
    hopf = front("L1 L2 X1 X3 R2 R1")
    fronts = twisted_fronts(seed=49, count=100, max_crossings=14)
    fronts += [front("L1 L3 " + "X2 " * n + "R1 R1") for n in range(16)]
    fronts += [chain([hopf, TREFOIL, hopf]), FrontDiagram(hopf.events * 3, name="hopf3")]
    for f in fronts:
        n = components(f).num_components
        for reverse in [()] + [(c,) for c in range(n)] * (n > 1):
            d = front_to_diagram(f, reverse)
            mirror = d
            for cid in d.crossings:
                mirror = mirror.switched(cid)
            for x in (d, mirror):
                assert homfly(x) == tuple_reference.homfly(x), (str(f), reverse, x is mirror)
                assert kauffman_dubrovnik(x) == tuple_reference.kauffman_dubrovnik(x), (str(f), reverse, x is mirror)
    assert min(seen.values()) >= 20, seen


def split_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """The split union of two diagrams, with b's crossing ids moved past a's."""
    off = max(a.crossings) + 1
    crossings = {**a.crossings, **{c + off: cr for c, cr in b.crossings.items()}}
    adj = {**a.adj, **{(c + off, p): (c2 + off, p2) for (c, p), (c2, p2) in b.adj.items()}}
    return LinkDiagram(crossings, adj, a.loops + b.loops)


def test_memo_keeps_mirrors_and_reversals_apart():
    # each pair has one shape of diagram: one differs in every crossing's
    # over strand, the other in one component's orientation
    mirror = torus(5)
    for cid in list(mirror.crossings):
        mirror = mirror.switched(cid)
    parallel, antiparallel = torus(4), front_to_diagram(front("L1 L3 X2 X2 X2 X2 R1 R1"))
    for a, b in ((torus(5), mirror), (parallel, antiparallel)):
        for poly, delta in ((homfly, HOMFLY_DELTA), (kauffman_dubrovnik, DUBROVNIK_DELTA)):
            pa, pb = poly(a), poly(b)
            assert pa != pb
            assert poly(split_union(a, b)) == delta * pa * pb
            assert poly(split_union(b, a)) == delta * pa * pb


# -- Seifert circles ------------------------------------------------------------


def test_seifert_genus_examples():
    assert seifert_diagram_genus(front_to_diagram(UNKNOT)) == 0
    assert seifert_diagram_genus(front_to_diagram(TREFOIL)) == 1
    assert seifert_diagram_genus(front_to_diagram(corpus.load("trefoil_sum"))) == 2
    assert seifert_diagram_genus(front_to_diagram(corpus.load("51"))) == 2


def test_seifert_circles_trefoil():
    assert front_to_diagram(TREFOIL).seifert_circles() == 2


def test_seifert_circles_need_an_oriented_diagram():
    with pytest.raises(ValueError, match="Seifert smoothing needs an oriented diagram"):
        front_to_diagram(TREFOIL).unoriented().seifert_circles()


def test_seifert_genus_rejects_links():
    with pytest.raises(ValueError):
        seifert_diagram_genus(front_to_diagram(corpus.load("unlink2")))


def test_morton_bound_on_knot_fronts():
    fronts = [corpus.load(n) for n in ("unknot", "stabilized_unknot", "trefoil", "51", "trefoil_sum")]
    fronts += random_fronts(seed=36, count=15, max_crossings=8, knots_only=True)
    for f in fronts:
        d = front_to_diagram(f)
        p = homfly(d)
        assert p.max_z_degree() <= 2 * seifert_diagram_genus(d)


# -- export ---------------------------------------------------------------------


def test_pd_export_shape():
    d = front_to_diagram(TREFOIL)
    pd = d.to_pd()
    assert len(pd["crossings"]) == 3
    assert pd["free_loops"] == 0
    labels = sorted(x for row in pd["crossings"] for x in row)
    # 2c arc labels, each appearing at exactly two ports
    assert labels == sorted([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])


def test_pd_export_unknot():
    pd = front_to_diagram(UNKNOT).to_pd()
    assert pd == {"crossings": [], "free_loops": 1}


# -- the flat kernel against the tuple-port reference ---------------------------


def test_flat_kernel_matches_tuple_reference_beyond_the_oracle():
    # 11-13 crossings, past the unreduced oracle's reach; links also with
    # component 0 reversed
    rng = random.Random(43)
    cases = 0
    while cases < 150:
        f = random_front(rng, max_events=30, max_strands=6)
        if not 11 <= f.num_crossings <= 13:
            continue
        for reverse in [()] if components(f).num_components == 1 else [(), (0,)]:
            d = front_to_diagram(f, reverse)
            assert homfly(d) == tuple_reference.homfly(d), (str(f), reverse)
            assert kauffman_dubrovnik(d) == tuple_reference.kauffman_dubrovnik(d), (str(f), reverse)
        cases += 1


def test_diagram_round_trips_through_the_flat_format():
    # non-contiguous ids, a mix of over flags, one free loop
    trefoil = front_to_diagram(TREFOIL)
    ids = {1: 40, 2: -7, 3: 12}
    crossings = {ids[c]: Crossing(c != 2, cr.in_ports) for c, cr in trefoil.crossings.items()}
    adj = {(ids[c], p): (ids[c2], q) for (c, p), (c2, q) in trefoil.adj.items()}
    d = LinkDiagram(crossings, adj, 1)
    assert (d.crossings, d.adj, d.loops) == (crossings, adj, 1)
    assert d.num_crossings == 3 and d.num_components() == 2
    assert d.switched(-7).crossings == {**crossings, -7: Crossing(True, crossings[-7].in_ports)}
    assert d.unoriented().crossings == {c: Crossing(cr.over02, None) for c, cr in crossings.items()}
    smoothed = d.smoothed_oriented(12)
    reference = tuple_reference.TupleDiagram(crossings, adj, 1).smoothed_oriented(12)
    assert (smoothed.crossings, smoothed.adj, smoothed.loops) == (reference.crossings, reference.adj, reference.loops)
    asymmetric = dict(adj)
    asymmetric[(40, 0)], asymmetric[(40, 1)] = asymmetric[(40, 1)], asymmetric[(40, 0)]
    with pytest.raises(ValueError, match="arc matching is not symmetric"):
        LinkDiagram(crossings, asymmetric, 1)
    del asymmetric[(40, 0)]
    with pytest.raises(ValueError, match="arc matching is not symmetric"):
        LinkDiagram(crossings, asymmetric, 1)
    # every crossing port needs an arc, and every arc two crossing ports
    with pytest.raises(ValueError, match=r"crossing port \(1, 0\) has no arc"):
        LinkDiagram({1: Crossing(True, (0, 1))}, {})
    dangling = {(1, 0): (1, 1), (1, 1): (1, 0), (1, 2): (2, 0), (2, 0): (1, 2), (1, 3): (2, 1), (2, 1): (1, 3)}
    with pytest.raises(ValueError, match=r"the arc at port \(1, 2\) leads to \(2, 0\), which is no crossing port"):
        LinkDiagram({1: Crossing(True, (0, 1))}, dangling)
    with pytest.raises(ValueError, match=r"the arc at port \(1, 2\) leads to \(1, 5\)"):
        LinkDiagram({1: Crossing(True, (0, 1))}, {(1, 0): (1, 1), (1, 1): (1, 0), (1, 2): (1, 5),
                                                  (1, 5): (1, 2), (1, 3): (1, 4), (1, 4): (1, 3)})
    # the check runs on the flat fields of every diagram a move builds
    with pytest.raises(ValueError, match="arc matching is not symmetric"):
        diagram._diagram((1,), (True,), ((0, 1),), (1, 0, 3, 3), 0)


@pytest.mark.parametrize("cid", [99, True, 1.0], ids=repr)
def test_crossing_lookups_name_an_unknown_id(cid):
    # True and 1.0 equal crossing 1 in a tuple search, but are no crossing id
    d = front_to_diagram(TREFOIL)
    lookups = (d.over02, d.sign, d.switched, d.smoothed_oriented, d.smoothings_unoriented)
    for lookup in lookups:
        with pytest.raises(ValueError, match=f"link diagram has no crossing {cid}$"):
            lookup(cid)
    if type(cid) is not int:
        with pytest.raises(ValueError, match=f"crossing id {cid!r} is not an int"):
            LinkDiagram({cid: Crossing(True, (0, 1))}, {(cid, 0): (cid, 1), (cid, 1): (cid, 0),
                                                        (cid, 2): (cid, 3), (cid, 3): (cid, 2)})


@pytest.mark.parametrize("loops", [1.5, "2", True, -2], ids=repr)
def test_free_loop_count_must_be_a_non_negative_int(loops):
    # a bool passes as an int and a float or str failed only later, in the
    # skein sums; -2 was reported as a front with no components
    with pytest.raises(ValueError, match=re.escape(f"free loop count {loops!r} is not a non-negative int")):
        LinkDiagram({}, {}, loops)
    # nor can it be set later: the count is read-only
    d = LinkDiagram({}, {}, 2)
    with pytest.raises(AttributeError):
        d.loops = loops
    assert homfly(d) == HOMFLY_DELTA


def test_each_arc_of_an_oriented_diagram_flows_in_at_one_end():
    # the trefoil with strand 2 reversed at crossing 2 alone: homfly raised
    # RuntimeError and kauffman_dubrovnik returned a wrong polynomial
    trefoil = front_to_diagram(TREFOIL)
    crossings = trefoil.crossings
    crossings[2] = Crossing(True, (0, 3))
    message = "the arc between ports (1, 2) and (2, 1) flows in at neither of its ends"
    with pytest.raises(ValueError, match=re.escape(message)):
        LinkDiagram(crossings, trefoil.adj)
    curl = {(1, 0): (1, 1), (1, 1): (1, 0), (1, 2): (1, 3), (1, 3): (1, 2)}
    message = "the arc between ports (1, 0) and (1, 1) flows in at both of its ends"
    with pytest.raises(ValueError, match=re.escape(message)):
        LinkDiagram({1: Crossing(True, (0, 1))}, curl)
    # unoriented, the same matchings are diagrams; oriented the other way
    # round, the curl is one
    unoriented = {c: Crossing(x.over02, None) for c, x in crossings.items()}
    assert LinkDiagram(unoriented, trefoil.adj).num_crossings == 3
    assert LinkDiagram({1: Crossing(True, None)}, curl).num_crossings == 1
    assert homfly(LinkDiagram({1: Crossing(True, (0, 3))}, curl)) == 1


@pytest.mark.parametrize("ins", [(0, 2), (3, 1), (0, 5), (0, 1, 2), [0, 1], (True, 2), (0.0, 1)], ids=repr)
def test_each_oriented_crossing_has_one_inflow_port_per_strand(ins):
    # two inflow ports on the (0, 2) strand passed every other check, and
    # sign(1) returned 0
    curl = {(1, 0): (1, 3), (1, 3): (1, 0), (1, 1): (1, 2), (1, 2): (1, 1)}
    message = f"crossing 1 has inflow ports {ins!r}, not one even and one odd port of 0..3"
    with pytest.raises(ValueError, match=re.escape(message)):
        LinkDiagram({1: Crossing(True, ins)}, curl)
    # either order of the two strands' ports is accepted
    assert [LinkDiagram({1: Crossing(True, good)}, curl).sign(1) for good in ((0, 1), (1, 0))] == [1, 1]


def test_walks_leaves_and_exports_match_tuple_reference():
    rng = random.Random(44)
    fronts = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=45, count=120)
    for f in fronts + [ruled_random_front(rng) for _ in range(60)]:
        n = components(f).num_components
        for reverse in [()] + [(c,) for c in range(n)] * (n > 1):
            d = front_to_diagram(f, reverse)
            ref = tuple_reference.TupleDiagram.of(d)
            assert d.to_pd() == ref.to_pd()
            assert d.num_components() == ref.num_components()
            assert d.first_bad_crossing() == ref.first_bad_crossing()
            bare = d.unoriented()
            assert bare.walk_writhe() == tuple_reference.leaf(bare)
            assert bare.first_bad_crossing() == tuple_reference.TupleDiagram.of(bare).first_bad_crossing()


def test_seifert_circles_in_one_pass_match_smoothing_every_crossing():
    rng = random.Random(46)
    fronts = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=47, count=150)
    fronts += random_fronts(seed=48, count=50, knots_only=True) + [ruled_random_front(rng) for _ in range(50)]
    links = 0
    for f in fronts:
        n = components(f).num_components
        links += n > 1
        for reverse in [()] + [(c,) for c in range(n)] * (n > 1):
            d = front_to_diagram(f, reverse)
            assert d.seifert_circles() == tuple_reference.seifert_circle_count(d), (str(f), reverse)
    assert links >= 50
