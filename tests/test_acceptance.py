"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  All identities are exact; there are
no tolerances anywhere.
"""

import random
from contextlib import contextmanager

import tuple_reference
from conftest import nested_unlink, random_fronts
from test_rulings import oracle_switch_sets

from legfronts import corpus
from legfronts.analysis import (
    FIRED,
    connsum_check,
    genus_tests,
    max_tb_certificate,
    no_ruling_tests,
    rho_report,
    rutherford_check,
)
from legfronts.fronts import classical_invariants, components, connected_sum
from legfronts.laurent import VZPoly, ZPoly, conway
from legfronts.rulings import GradingClass, census, enumerate_rulings
from legfronts.skein import (
    DUBROVNIK_DELTA,
    HOMFLY_DELTA,
    front_to_diagram,
    homfly,
    kauffman_dubrovnik,
    seifert_diagram_genus,
)

V = VZPoly.monomial(1, 1, 0)
V_INV = VZPoly.monomial(1, -1, 0)
Z = VZPoly.monomial(1, 0, 1)

CORPUS_NAMES = ("unknot", "stabilized_unknot", "unlink2", "trefoil", "51", "trefoil_sum")
KNOT_NAMES = ("unknot", "stabilized_unknot", "trefoil", "51", "trefoil_sum")


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {text}")
        raise
    print(f"PASS  criterion {number}: {text}")


def test_criterion_1_rutherford_identity():
    with criterion(1, "Homfly v^(tb+1) slice equals the 2-graded ruling polynomial on the corpus"):
        for name in CORPUS_NAMES:
            f = corpus.load(name)
            tb = classical_invariants(f).tb
            slice_ = homfly(front_to_diagram(f)).coefficient_of_v(tb + 1)
            assert slice_ == census(f).polynomials["two_graded"], name


def test_criterion_2_ungraded_variant():
    with criterion(2, "Kauffman v^(tb+1) slice equals the ungraded ruling polynomial on the corpus"):
        for name in CORPUS_NAMES:
            f = corpus.load(name)
            tb = classical_invariants(f).tb
            slice_ = kauffman_dubrovnik(front_to_diagram(f)).coefficient_of_v(tb + 1)
            assert slice_ == census(f).polynomials["ungraded"], name


def test_criterion_3_trefoil_census():
    with criterion(3, "trefoil census: switch sets {1},{3},{1,2,3}, genera 0/0/1, all Z-graded, z^2 + 2"):
        f = corpus.load("trefoil")
        rulings = enumerate_rulings(f)
        assert {r.switches for r in rulings} == {(1,), (3,), (1, 2, 3)}
        assert sorted(r.genus for r in rulings) == [0, 0, 1]
        assert all(r.grading is GradingClass.Z_GRADED for r in rulings)
        assert census(f).polynomials["two_graded"] == ZPoly({2: 1, 0: 2})
        assert {r.switches for r in rulings} == oracle_switch_sets(f)


def test_criterion_4_torus_51():
    with criterion(4, "5_1 front has a genus-2 two-graded ruling; census matches the oracle"):
        f = corpus.load("51")
        rulings = enumerate_rulings(f, "two_graded")
        genera = sorted(r.genus for r in rulings)
        assert genera == [0, 0, 0, 1, 1, 1, 1, 2]
        assert max(genera) == 2
        assert {r.switches for r in rulings} == oracle_switch_sets(f, "two_graded")
        tb = classical_invariants(f).tb
        assert homfly(front_to_diagram(f)).coefficient_of_v(tb + 1) == census(f).polynomials[
            "two_graded"
        ]


def test_criterion_5_genus_chain():
    with criterion(5, "max ruling genus <= homfly z-degree / 2 <= Seifert genus on corpus knots"):
        for name in KNOT_NAMES:
            f = corpus.load(name)
            d = front_to_diagram(f)
            half_z = homfly(d).max_z_degree() / 2
            seifert = seifert_diagram_genus(d)
            max_g = census(f).max_genus("two_graded")
            if max_g is not None:
                assert max_g <= half_z, name
            assert half_z <= seifert, name


def test_criterion_6_connected_sum():
    with criterion(6, "trefoil # trefoil: 9 two-graded rulings, (z^2+2)^2, rho 2 = 1 + 1"):
        f1 = corpus.load("trefoil")
        res = connsum_check(f1, f1)
        assert res.passed
        composite = res.composite
        cens = census(composite)
        assert cens.count("two_graded") == 9
        assert cens.polynomials["two_graded"] == ZPoly({2: 1, 0: 2}) ** 2
        assert rho_report(composite).value == 2
        assert rho_report(f1).value == 1
        assert rutherford_check(composite).passed


def test_criterion_7_maximality():
    with criterion(7, "tb + 1 = e exactly on the corpus fronts possessing rulings"):
        for name in CORPUS_NAMES:
            f = corpus.load(name)
            cert = max_tb_certificate(f)
            has_ruling = bool(enumerate_rulings(f))
            if has_ruling:
                assert cert.is_maximal, name
            assert cert.consistent, name
        stab = max_tb_certificate(corpus.load("stabilized_unknot"))
        assert not enumerate_rulings(corpus.load("stabilized_unknot"))
        assert stab.tb + 1 < stab.e


def test_criterion_8_structural_invariants():
    with criterion(8, "oracle equality, positive 2-graded switches, disk rulings Z-graded, nested counts"):
        fronts = [corpus.load(name) for name in CORPUS_NAMES]
        fronts += random_fronts(seed=81, count=20, max_crossings=8)
        for f in fronts:
            assert f.num_crossings <= 12
            listed = enumerate_rulings(f)
            assert {r.switches for r in listed} == oracle_switch_sets(f)
            inv = classical_invariants(f)
            is_knot = components(f).num_components == 1
            cens = census(f)
            for r in listed:
                if is_knot and r.grading is not GradingClass.UNGRADED_ONLY:
                    assert all(inv.crossing_signs[c - 1] == 1 for c in r.switches)
                if is_knot and r.theta == 1:
                    assert r.grading is GradingClass.Z_GRADED
                    assert inv.r == 0
            by_theta = {cls: {1 - e: c for e, c in poly.terms.items()} for cls, poly in cens.polynomials.items()}
            for theta in set(by_theta["ungraded"]):
                c_u = by_theta["ungraded"].get(theta, 0)
                c_2 = by_theta["two_graded"].get(theta, 0)
                c_z = by_theta["z_graded"].get(theta, 0)
                assert c_z <= c_2 <= c_u


def test_criterion_9_skein_properties():
    with criterion(9, "skein residual is zero, unlink values, conway = homfly at v = 1"):
        rng = random.Random(91)
        checked = 0
        for f in random_fronts(seed=92, count=15, max_crossings=7):
            d = front_to_diagram(f)
            if d.num_crossings == 0:
                continue
            cid = rng.choice(sorted(d.crossings))
            t = tuple_reference.TupleDiagram.of(d)
            pos = t if t.sign(cid) > 0 else t.switched(cid)
            residual = (
                V_INV * homfly(pos.flat())
                - V * homfly(pos.switched(cid).flat())
                - Z * homfly(t.smoothed_oriented(cid).flat())
            )
            assert residual == VZPoly(0)
            checked += 1
        assert checked >= 8
        assert homfly(front_to_diagram(corpus.load("unknot"))) == VZPoly(1)
        for n in range(1, 5):
            assert homfly(front_to_diagram(nested_unlink(n))) == HOMFLY_DELTA ** (n - 1)
            assert kauffman_dubrovnik(front_to_diagram(nested_unlink(n))) == DUBROVNIK_DELTA ** (n - 1)
        p = homfly(front_to_diagram(corpus.load("trefoil")))
        assert conway(p) == ZPoly({2: 1, 0: 1})
        assert conway(p).degree() == 2


def test_criterion_10_noruling_and_genus_tests():
    with criterion(10, "no-ruling conditions quiet on ruled corpus knots, synthetic triggers fire, genus tests pass"):
        for name in KNOT_NAMES:
            f = corpus.load(name)
            d = front_to_diagram(f)
            flags = no_ruling_tests(homfly(d), kauffman_dubrovnik(d))
            if enumerate_rulings(f, "two_graded"):
                assert all(v != FIRED for v in flags.values()), name
            g = genus_tests(f)
            assert g.bennequin_ok and g.conway_ok, name
        # synthetic triggers, one condition each
        p = VZPoly({(0, 2): 1, (0, 0): 1})
        assert no_ruling_tests(p, VZPoly({(-2, 0): 1}))["kauffman"] == FIRED
        neg = VZPoly({(0, 2): 1, (0, 0): -1})
        assert no_ruling_tests(neg, VZPoly({(0, 0): 1}))["negative_counts"] == FIRED
        too_big = VZPoly({(0, 0): 2})
        assert no_ruling_tests(too_big, VZPoly({(0, 0): 1}))["subset"] == FIRED
