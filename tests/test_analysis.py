import math
import random
from collections import Counter
from collections.abc import Hashable
from dataclasses import asdict

import pytest

from conftest import random_fronts
from legfronts import analysis, corpus, fronts, rulings, skein
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
                         (fronts, "sweep_geometry"), (analysis, "profile"), (analysis, "_no_ruling")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert analyze(diagram, reverse=reverse, khovanov_bound=10).ok
    assert calls["homfly"] == calls["kauffman_dubrovnik"] == calls["sweep_geometry"] == 1
    assert calls["profile"] == calls["_no_ruling"] == 1
    assert calls["enumerate_rulings"] == 0


def test_analyze_passes_the_khovanov_bound_to_flags_and_rho():
    fronts_ = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=42, count=20, max_crossings=7)
    for f in fronts_:
        d = skein.front_to_diagram(f)
        for bound in (None, -2, 0, 5):
            report = analyze(f, khovanov_bound=bound)
            assert report.noruling_flags == no_ruling_tests(skein.homfly(d), skein.kauffman_dubrovnik(d), bound)
            assert report.rho == asdict(rho_report(f, bound))
    # no ruling on this front, and e = 0 >= 2 + (-2) fires the Khovanov condition
    assert analyze(corpus.load("stabilized_unknot"), khovanov_bound=-2).rho["kind"] == "minus_infinity"


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
            assert report.rho == asdict(rho_report(f, reverse=rev))
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
