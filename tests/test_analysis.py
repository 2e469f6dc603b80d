import itertools
import math
import random
from collections import Counter
from collections.abc import Hashable

import pytest

from conftest import random_fronts, ruled_random_front
from legfronts import analysis, corpus, fronts, laurent, rulings, skein
from legfronts.analysis import (
    FIRED,
    NOT_EVALUATED,
    QUIET,
    GenusTests,
    analyze,
    connsum_check,
    genus_tests,
    max_tb_certificate,
    no_ruling_tests,
    rho_report,
    rutherford_check,
)
from legfronts.fronts import classical_invariants, components, front
from legfronts.laurent import VZPoly, ZPoly
from legfronts.skein import ResourceLimitError

HOPF = front("L1 L2 X1 X3 R2 R1", name="hopf")


# -- Rutherford identity --------------------------------------------------------


def test_rutherford_on_corpus():
    for name in corpus.corpus_names():
        res = rutherford_check(corpus.load(name))
        assert res.passed, name


def test_rutherford_trefoil_witnesses():
    res = rutherford_check(corpus.load("trefoil"))
    assert res.homfly_slice == ZPoly({2: 1, 0: 2})
    assert res.two_graded_poly == ZPoly({2: 1, 0: 2})
    assert res.kauffman_slice == res.ungraded_poly == ZPoly({2: 1, 0: 2})


def test_rutherford_stabilized_unknot_both_sides_empty():
    res = rutherford_check(corpus.load("stabilized_unknot"))
    assert res.passed
    assert res.homfly_slice == ZPoly(0)
    assert res.two_graded_poly == ZPoly(0)


def test_rutherford_unlink2():
    res = rutherford_check(corpus.load("unlink2"))
    assert res.passed
    assert res.homfly_slice == ZPoly({-1: 1})


def test_rutherford_reversed_hopf_separates_classes():
    res = rutherford_check(HOPF, reverse=(1,))
    assert res.passed
    assert res.two_graded_poly == ZPoly({-1: 1})
    assert res.ungraded_poly == ZPoly({-1: 1, 1: 1})


def test_rutherford_resource_limit_propagates():
    with pytest.raises(ResourceLimitError):
        rutherford_check(corpus.load("trefoil"), max_crossings=1)


# -- maximality certificate -------------------------------------------------------


def test_max_tb_trefoil():
    cert = max_tb_certificate(corpus.load("trefoil"))
    assert (cert.tb, cert.e) == (1, 2)
    assert cert.is_maximal and cert.has_two_graded_ruling and cert.consistent


def test_max_tb_stabilized_unknot():
    cert = max_tb_certificate(corpus.load("stabilized_unknot"))
    assert (cert.tb, cert.e) == (-2, 0)
    assert not cert.is_maximal
    assert not cert.has_two_graded_ruling
    assert cert.consistent


def test_max_tb_unknot():
    cert = max_tb_certificate(corpus.load("unknot"))
    assert (cert.tb, cert.e) == (-1, 0)
    assert cert.is_maximal


# -- rho ---------------------------------------------------------------------------


def test_rho_trefoil():
    res = rho_report(corpus.load("trefoil"))
    assert res.kind == "value"
    assert res.value == 1
    assert res.genus_matches


def test_rho_unknot():
    res = rho_report(corpus.load("unknot"))
    assert (res.kind, res.value) == ("value", 0)


def test_rho_trefoil_sum():
    res = rho_report(corpus.load("trefoil_sum"))
    assert (res.kind, res.value) == ("value", 2)


def test_rho_stabilized_unknot_is_unknown():
    # the front has no ruling and no obstruction fires for the unknot type
    res = rho_report(corpus.load("stabilized_unknot"))
    assert res.kind == "unknown"


def test_rho_link_front():
    res = rho_report(corpus.load("unlink2"))
    assert res.kind == "unknown"


# -- no-ruling conditions -----------------------------------------------------------


def _trefoil_polys():
    p = VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})
    f = VZPoly(
        {(2, 2): 1, (2, 0): 2, (3, 1): 1, (4, 2): -1, (4, 0): -1, (5, 1): -1}
    )
    return p, f


def test_no_condition_fires_on_trefoil():
    p, f = _trefoil_polys()
    flags = no_ruling_tests(p, f)
    assert flags["khovanov"] == NOT_EVALUATED
    assert flags["kauffman"] == QUIET
    assert flags["negative_counts"] == QUIET
    assert flags["subset"] == QUIET


def test_khovanov_condition():
    p, f = _trefoil_polys()  # e = 2
    assert no_ruling_tests(p, f, khovanov_bound=0)["khovanov"] == FIRED
    assert no_ruling_tests(p, f, khovanov_bound=1)["khovanov"] == QUIET


def test_kauffman_beats_homfly_condition():
    p = VZPoly({(0, 2): 1, (0, 0): 1})
    f_low = VZPoly({(-2, 0): 1, (0, 0): 1})
    flags = no_ruling_tests(p, f_low)
    assert flags["kauffman"] == FIRED
    assert flags["subset"] == NOT_EVALUATED  # only meaningful when kauffman is quiet


def test_negative_counts_condition():
    p = VZPoly({(0, 2): 1, (0, 0): -1})
    f = VZPoly({(0, 2): 1, (0, 0): 1})
    assert no_ruling_tests(p, f)["negative_counts"] == FIRED


def test_subset_failure_condition():
    p = VZPoly({(0, 2): 1, (0, 0): 2})
    f = VZPoly({(0, 2): 1, (0, 0): 1})  # f_{e,0} = 1 < p_{e,0} = 2
    flags = no_ruling_tests(p, f)
    assert flags["kauffman"] == QUIET
    assert flags["subset"] == FIRED


# -- genus tests ----------------------------------------------------------------------


def test_genus_tests_trefoil():
    g = genus_tests(corpus.load("trefoil"))
    assert g.bennequin_ok  # M = 2 <= e = 2
    assert g.conway_ok  # deg conway = 2 >= M = 2
    assert g.max_two_graded_genus == 1
    assert g.half_homfly_z_degree == 1
    assert g.seifert_genus == 1
    assert g.chain_ok


def test_genus_tests_unknot():
    g = genus_tests(corpus.load("unknot"))
    assert g.bennequin_ok and g.conway_ok and g.chain_ok
    assert (g.max_two_graded_genus, g.half_homfly_z_degree, g.seifert_genus) == (0, 0, 0)


def test_genus_tests_trefoil_sum():
    g = genus_tests(corpus.load("trefoil_sum"))
    assert g.max_two_graded_genus == 2
    assert g.half_homfly_z_degree == 2
    assert g.seifert_genus == 2
    assert g.chain_ok


def test_genus_chain_fails_on_either_side():
    # a ruling genus above half the Homfly z-degree, then that above the Seifert genus
    assert not GenusTests(True, True, 2, 1, 1).chain_ok
    assert not GenusTests(True, True, 1, 2, 1).chain_ok
    assert GenusTests(True, True, None, 2, None).chain_ok


def test_a_result_passes_only_when_every_part_does(monkeypatch):
    one, two = ZPoly(1), ZPoly(2)
    assert not analysis.RutherfordResult(1, one, two, one, one).passed
    assert not analysis.RutherfordResult(1, one, one, one, two).passed
    assert not analysis.ConnSumResult(None, True, False, True).passed
    # a report with every check passing but the genus chain is not ok
    monkeypatch.setattr(analysis, "_genus", lambda ctx: GenusTests(True, True, 2, 1, 1))
    assert not analyze(corpus.load("trefoil")).ok


def test_genus_tests_on_corpus_knots():
    for name in ("unknot", "stabilized_unknot", "trefoil", "51", "trefoil_sum"):
        g = genus_tests(corpus.load(name))
        assert g.bennequin_ok and g.conway_ok and g.chain_ok, name


# -- connected-sum check -----------------------------------------------------------------


def test_connsum_check_unknots():
    res = connsum_check(corpus.load("unknot"), corpus.load("unknot"))
    assert res.passed
    assert res.genus_additive


def test_connsum_check_trefoils():
    res = connsum_check(corpus.load("trefoil"), corpus.load("trefoil"))
    assert res.passed
    assert res.counts_ok and res.polynomials_ok and res.genus_additive


def test_connsum_check_with_stabilized_factor():
    # empty censuses multiply to empty; genus additivity is then undefined
    res = connsum_check(corpus.load("stabilized_unknot"), corpus.load("trefoil"))
    assert res.counts_ok and res.polynomials_ok
    assert res.genus_additive is None


def test_connsum_check_orients_the_second_summand_as_the_composite_does(monkeypatch):
    # the composite runs f2's first arc rightward, against f2's own default
    # orientation of its first component, which splits the Hopf clasp's census
    trefoil = corpus.load("trefoil")
    composite = fronts.connected_sum(trefoil, HOPF)
    c1, c2, c12 = rulings.census(trefoil), rulings.census(HOPF), rulings.census(composite)
    assert c12.polynomials["two_graded"] != c1.polynomials["two_graded"] * c2.polynomials["two_graded"]
    walks = []
    real = fronts.sweep_geometry
    monkeypatch.setattr(fronts, "sweep_geometry", lambda d: walks.append(d.name) or real(d))
    res = connsum_check(trefoil, HOPF)
    assert res.counts_ok and res.polynomials_ok and res.passed
    assert sorted(walks) == sorted([trefoil.name, HOPF.name, composite.name])  # one sweep per front


def test_connsum_check_reports_bad_summands_as_connected_sum_does():
    # the splice check sweeps each summand once and splices unchecked, so
    # it must raise what connected_sum raises, in its order: an invalid
    # summand before an empty one, and the first of two invalid ones
    bad, worse, empty = front("L1 X2 R1", name="bad"), front("L1 L4 R1 R1", name="worse"), front("", name="empty")
    expected = {
        (bad, HOPF): "bad", (HOPF, worse): "worse", (bad, worse): "bad", (worse, bad): "worse",
        (empty, HOPF): "empty", (HOPF, empty): "empty", (bad, empty): "bad", (empty, bad): "bad",
    }
    for (f1, f2), name in expected.items():
        raised = []
        for call in (fronts.connected_sum, connsum_check):
            with pytest.raises((fronts.InvalidFrontError, fronts.NormalFormError)) as info:
                call(f1, f2)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1], (f1.name, f2.name)
        kind = fronts.NormalFormError if name == "empty" else fronts.InvalidFrontError
        assert raised[0][0] is kind and f"{name!r}" in raised[0][1], (f1.name, f2.name)


def test_connsum_check_shifts_the_second_summand_potential_as_the_composite_does():
    # reversing f2's first component fixes the orientation but leaves its
    # potential 2 above the composite's, which the z-graded class sees
    trefoil = corpus.load("trefoil")
    f2 = fronts.connected_sum(trefoil, HOPF)
    c1, c12 = rulings.census(trefoil), rulings.census(fronts.connected_sum(trefoil, f2))
    reversed_first = rulings.census(f2, (0,))
    for cls in rulings.GRADING_FILTERS:
        product = c1.polynomials[cls] * reversed_first.polynomials[cls]
        assert (c12.polynomials[cls] == product) == (cls != "z_graded"), cls
    res = connsum_check(trefoil, f2)
    assert res.counts_ok and res.polynomials_ok and res.passed


def _chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = fronts.connected_sum(out, f)
    return out


def test_connsum_check_passes_on_seeded_chains():
    # pairs of chains drawn as the census-sum benchmark draws them; every
    # third composite also has a component reversed
    torus = lambda n: front("L1 L3 " + "X2 " * n + "R1 R1", name=f"T(2,{n})")
    factors = [corpus.load("trefoil"), torus(5), torus(7), HOPF, front("L1 R1", name="unknot")]
    counts = {f.name: rulings.census(f).count("ungraded") for f in factors}
    rng = random.Random(7)
    checked = reversed_ = 0
    while checked < 300:
        fa = [rng.choice(factors) for _ in range(rng.randint(1, 3))]
        fb = [rng.choice(factors) for _ in range(rng.randint(1, 3))]
        if math.prod(counts[f.name] for f in fa + fb) > 500:
            continue
        a, b = _chain(fa), _chain(fb)
        rev = ()
        if checked % 3 == 0:
            n = components(fronts.connected_sum(a, b)).num_components
            rev = (rng.randrange(n),)
            reversed_ += n > 1
        res = connsum_check(a, b, rev)
        assert res.passed, (a.name, b.name, rev, res)
        checked += 1
    assert reversed_ > 20


def test_summand_records_agree_with_the_composite_when_r_is_nonzero():
    # each summand is swept under the direction and potential the composite
    # induces; its potential is the composite's reduced mod the summand's own
    # 2r, which is exact only when the composite's modulus is 0 or a multiple
    # of the summand's nonzero one
    pool = random_fronts(seed=5, count=300, max_crossings=8)
    n_comp = {id(f): components(f).num_components for f in pool}
    rng = random.Random(3)
    seen = Counter()
    for i in range(3000):
        f1, f2 = rng.choice(pool), rng.choice(pool)
        # the splice joins one component of each summand
        rev = (rng.randrange(n_comp[id(f1)] + n_comp[id(f2)] - 1),) if i % 2 else ()
        assert connsum_check(f1, f2, rev).passed, (str(f1), str(f2), rev)
        s1, s2, s12 = fronts._connected_sum_sweeps(f1, f2, rev)
        _, upper, lower = s1.cusps[-1]
        arcs2 = (upper, lower, *range(s1.num_arcs, s12.num_arcs))
        m12 = s12.modulus
        seen["r != 0"] += m12 > 0
        for s, arcs in ((s1, range(s1.num_arcs)), (s2, arcs2)):
            assert s.arc_rightward == tuple(s12.arc_rightward[a] for a in arcs)
            m = s.modulus
            if m12 == 0 or (m and m12 % m == 0):
                composite = (s12.potential[a] for a in arcs)
                assert s.potential == tuple(mu % m if m else mu for mu in composite)
                seen["exact, r != 0" if m12 else "exact, r = 0"] += 1
            else:
                seen["inexact"] += 1
    assert seen["r != 0"] >= 2000 and min(seen.values()) >= 100, seen


def _census_verdicts(s1, s2, s12):
    """The connected-sum verdicts from the three records' census polynomials."""
    c1, c2, c12 = map(rulings._census, (s1, s2, s12))
    counts_ok = all(c12.count(cls) == c1.count(cls) * c2.count(cls) for cls in rulings.GRADING_FILTERS)
    polynomials_ok = all(
        c12.polynomials[cls] == c1.polynomials[cls] * c2.polynomials[cls] for cls in rulings.GRADING_FILTERS
    )
    g1, g2, g12 = (c.max_genus("two_graded") for c in (c1, c2, c12))
    return counts_ok, polynomials_ok, None if g1 is None or g2 is None else g12 == g1 + g2


def test_connsum_verdicts_equal_the_census_polynomials_verdicts():
    # induced triples from seeded pairs, a component reversed in every other
    # one, and from census-sum chains; each is also fed with f2's own default
    # record in place of the induced one.  Fixed triples take another
    # composite of the same crossings and cusps: f1 # K' in place of f1 # K,
    # where the knot K' has another top 2-graded genus than K, and two
    # composites with the same class counts but other polynomials
    rng = random.Random(5)
    pool = random_fronts(seed=5, count=60, max_crossings=8)
    pool += [ruled_random_front(rng, max_events=14) for _ in range(150)]
    torus = lambda n: front("L1 L3 " + "X2 " * n + "R1 R1", name=f"T(2,{n})")
    unknot, trefoil = front("L1 R1", name="unknot"), corpus.load("trefoil")
    factors = [trefoil, torus(5), HOPF, unknot]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(150)]
    pairs += [(_chain(rng.sample(factors, 2)), _chain(rng.sample(factors, 2))) for _ in range(60)]
    triples = []
    for i, (f1, f2) in enumerate(pairs):
        rev = (rng.randrange(components(fronts.connected_sum(f1, f2)).num_components),) if i % 2 else ()
        s1, s2, s12 = fronts._connected_sum_sweeps(f1, f2, rev)
        triples += [(s1, s2, s12), (s1, fronts.sweep_front(f2), s12)]
    # genus 1 and 0 on 3 crossings, 2 and 0 on 5, all with two left cusps
    same_shape = [(trefoil, front("L1 L1 X2 X1 X1 R2 R1")), (torus(5), front("L1 L1 X2 X1 X1 X1 X2 R1 R1"))]
    sweep = fronts.sweep_front
    for f1, (k, k2) in itertools.product((unknot, trefoil), same_shape + [p[::-1] for p in same_shape]):
        triples.append((sweep(f1), sweep(k), sweep(fronts.connected_sum(f1, k2))))
    # one ruling in each class either way, but z^-2 for x # y and 1 for a # a
    x, y, a = front("L1 L1 R1 R1"), front("L1 L1 X2 X1 R2 R1"), front("L1 L1 X2 R1 R1")
    triples += [(sweep(x), sweep(y), sweep(fronts.connected_sum(a, a))),
                (sweep(a), sweep(a), sweep(fronts.connected_sum(x, y)))]
    seen = Counter()
    for triple in triples:
        verdicts = rulings._connsum_verdicts(*triple)
        assert verdicts == _census_verdicts(*triple), tuple(str(s.diagram) for s in triple)
        seen.update(zip(("counts_ok", "polynomials_ok", "genus_additive"), verdicts))
        seen["r != 0"] += triple[2].r != 0
        seen["counts only"] += verdicts[0] and not verdicts[1]
    assert seen["counts only"] >= 2, seen
    for name in ("counts_ok", "polynomials_ok", "genus_additive"):
        assert seen[name, False] >= 8 and seen[name, True] >= 20, seen
    assert seen["r != 0"] >= 100, seen


def test_connsum_verdicts_reject_records_that_are_no_splice():
    # the packed product is exact only at c12 = c1 + c2, and its z-offset
    # only at eyes12 = eyes1 + eyes2 - 1
    trefoil, unknot = (fronts.sweep_front(corpus.load(n)) for n in ("trefoil", "unknot"))
    for triple in ((trefoil, trefoil, trefoil), (unknot, unknot, fronts.sweep_front(front("L1 L2 R2 R1")))):
        with pytest.raises(RuntimeError, match="the splice must keep every crossing and remove two cusps"):
            rulings._connsum_verdicts(*triple)


def test_connsum_check_builds_no_census_and_no_polynomial(monkeypatch):
    calls = Counter()
    real_census, real_init = rulings._census, ZPoly.__init__
    monkeypatch.setattr(rulings, "_census", lambda s: calls.update(["census"]) or real_census(s))
    monkeypatch.setattr(ZPoly, "__init__", lambda self, *a: calls.update(["ZPoly"]) or real_init(self, *a))
    trefoil = corpus.load("trefoil")
    for f1, f2, rev in ((trefoil, trefoil, ()), (trefoil, HOPF, (1,)), (HOPF, trefoil, (0,))):
        assert connsum_check(f1, f2, rev).passed
    assert calls == Counter()
    rulings.census(trefoil)  # the wrappers count
    assert calls["ZPoly"] == 3


# -- full report ---------------------------------------------------------------------------


def test_analyze_ok_on_corpus():
    for name in corpus.corpus_names():
        report = analyze(corpus.load(name))
        assert report.ok, name


def test_analyze_trefoil_fields():
    report = analyze(corpus.load("trefoil"))
    data = report.to_json()
    assert data["tb"] == 1
    assert data["is_knot"] is True
    assert data["rutherford_two_graded"]["pass"] is True
    assert data["rutherford_ungraded"]["pass"] is True
    assert data["max_tb_certificate"]["maximal"] is True
    assert data["rho"] == {
        "kind": "value",
        "value": 1,
        "reason": "this front carries a 2-graded ruling",
        "genus_matches": True,
    }
    assert data["bennequin_test"] is True
    assert data["conway_test"] is True
    assert data["theorem1_check"]["chain_ok"] is True


def test_analyze_soundness_flags_quiet_when_rulings_exist():
    for name in ("unknot", "trefoil", "51", "trefoil_sum"):
        report = analyze(corpus.load(name))
        assert all(v != FIRED for v in report.noruling_flags.values()), name


# -- one computation per quantity ---------------------------------------------


@pytest.mark.parametrize("diagram, reverse", [
    (front("L1 L3 X2 X2 X2 X2 X2 X2 X2 R1 R1", name="T(2,7)"), ()),
    (HOPF, (0,)),
])
def test_analyze_computes_each_quantity_once(monkeypatch, diagram, reverse):
    calls = Counter()
    for module, name in ((skein, "homfly"), (skein, "kauffman_dubrovnik"), (rulings, "enumerate_rulings"),
                         (fronts, "sweep_geometry"), (laurent, "profile"), (analysis, "_no_ruling")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    min_v_degree = laurent.VZPoly.min_v_degree

    def counted_degree(p):
        calls["min_v_degree"] += 1
        return min_v_degree(p)
    monkeypatch.setattr(laurent.VZPoly, "min_v_degree", counted_degree)
    assert analyze(diagram, reverse=reverse, khovanov_bound=10).ok
    assert calls["homfly"] == calls["kauffman_dubrovnik"] == calls["sweep_geometry"] == 1
    assert calls["profile"] == calls["_no_ruling"] == 1
    # e is read off Homfly once, by its profile, and Kauffman's least
    # v-degree once, by the flags
    assert calls["min_v_degree"] == 2
    assert calls["enumerate_rulings"] == 0


def test_analyze_passes_the_khovanov_bound_to_flags_and_rho():
    fronts_ = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=42, count=20, max_crossings=7)
    for f in fronts_:
        d = skein.front_to_diagram(f)
        for bound in (None, -2, 0, 5):
            report = analyze(f, khovanov_bound=bound)
            assert report.noruling_flags == no_ruling_tests(skein.homfly(d), skein.kauffman_dubrovnik(d), bound)
            assert report.rho == rho_report(f, bound)._asdict()
    # no ruling on this front, and e = 0 >= 2 + (-2) fires the Khovanov condition
    rho = analyze(corpus.load("stabilized_unknot"), khovanov_bound=-2).rho
    assert (rho["kind"], rho["reason"]) == ("minus_infinity", "no-ruling condition(s) fired: ['khovanov']")


def test_analyze_agrees_with_standalone_checks_on_random_fronts():
    for f in random_fronts(seed=41, count=150, max_crossings=9):
        reversals = [()] + ([(0,)] if components(f).num_components > 1 else [])
        for rev in reversals:
            report = analyze(f, reverse=rev)
            assert report.ok, (str(f), rev)
            inv = classical_invariants(f, rev)
            assert (report.tb, report.r) == (inv.tb, inv.r)
            ruth = rutherford_check(f, reverse=rev).to_json()
            assert report.rutherford_two_graded == ruth["two_graded"]
            assert report.rutherford_ungraded == ruth["ungraded"]
            cert = max_tb_certificate(f, reverse=rev)
            assert cert.has_two_graded_ruling == bool(rulings.enumerate_rulings(f, "two_graded", rev))
            assert report.max_tb_certificate == {
                "tb": cert.tb,
                "e": cert.e,
                "maximal": cert.is_maximal,
                "has_two_graded_ruling": cert.has_two_graded_ruling,
                "consistent": cert.consistent,
            }
            assert report.rho == rho_report(f, reverse=rev)._asdict()
            gt = genus_tests(f, reverse=rev)
            assert (report.bennequin_test, report.conway_test) == (gt.bennequin_ok, gt.conway_ok)
            assert report.theorem1_check == {
                "max_two_graded_genus": gt.max_two_graded_genus,
                "half_homfly_z_degree": gt.half_homfly_z_degree,
                "seifert_genus": gt.seifert_genus,
                "chain_ok": gt.chain_ok,
            }


def test_records_state_their_hash_contract():
    # the sweep record holds only tuples, so equal records hash equal; the
    # census and the report hold dicts and say plainly that they do not hash
    for f in [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=44, count=20):
        for rev in [()] + [(c,) for c in range(components(f).num_components)]:
            a, b = fronts.sweep_front(f, rev), fronts.sweep_front(f, rev)
            assert a == b and a is not b and hash(a) == hash(b)
    assert len({fronts.sweep_front(HOPF), fronts.sweep_front(HOPF), fronts.sweep_front(HOPF, (1,))}) == 2
    for record in (rulings.census(HOPF), analyze(HOPF)):
        assert not isinstance(record, Hashable)
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)


def test_records_are_immutable_and_fronts_compare_by_events():
    a, b = front("L1 R1", name="a"), fronts.parse_front("L 1\nR 1\n", name="b")
    assert (a.name, a.lines, b.name, b.lines) == ("a", None, "b", (1, 2))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != front("L1 L1 R1 R1", name="a")
    assert a != tuple(a) and not tuple(a) == a  # a plain tuple hashes by every field
    records = (fronts.sweep_front(HOPF), rulings.enumerate_rulings(HOPF)[0], analyze(HOPF))
    for record, field in zip(records, ("tb", "switches", "ok")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


# -- Chekanov-type pairs ----------------------------------------------------------

# two pairs of knot fronts, each pair equal in tb, r, Homfly and Kauffman
# (one smooth knot type is not certified); only the Z-graded class tells
# the fronts of a pair apart
CHEKANOV_TYPE_PAIRS = [
    ("L1 L3 L5 X2 X2 X4 X3 X1 X2 X2 X2 R1 R1 R1",
     "L1 L3 L5 X4 X2 X2 X5 X5 X5 X1 X3 X3 X4 X1 X2 R1 R1 R1",
     ZPoly(1), ZPoly({0: 1, 2: 1})),
    ("L1 L3 L5 X4 X4 X5 X3 X4 X4 X4 X2 X4 X4 R1 R1 R1",
     "L1 L3 L5 X2 X4 X3 X3 X2 X5 X2 X2 X4 X2 R1 R1 R1",
     ZPoly(1), ZPoly({0: 1, 2: 3, 4: 1})),
]


@pytest.mark.parametrize("first, second, z_first, z_second", CHEKANOV_TYPE_PAIRS, ids=["tb=1", "tb=3"])
def test_chekanov_type_pairs_differ_only_in_the_z_graded_class(first, second, z_first, z_second):
    data = []
    for tokens in (first, second):
        f = front(tokens)
        sweep, link, cens = fronts.sweep_front(f), skein.front_to_diagram(f), rulings.census(f)
        assert sweep.num_components == 1 and analyze(f).ok
        data.append((sweep.tb, abs(sweep.r), skein.homfly(link), skein.kauffman_dubrovnik(link),
                     cens.polynomials["two_graded"], cens.polynomials["ungraded"], cens.polynomials["z_graded"]))
    assert data[0][:-1] == data[1][:-1]
    assert (data[0][-1], data[1][-1]) == (z_first, z_second)
