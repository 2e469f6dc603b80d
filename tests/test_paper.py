"""The claims of the source paper (arXiv 0711.3572), checked on explicit fronts.

For knots, a ruling is 2-graded exactly when its surface is orientable;
the surfaces are built from the switch sets alone, one disk per eye and
one half-twisted band per switch (``ruling_surfaces.py``).  For
homogeneous knots, the genus of every 2-graded ruling surface is at most
the knot's genus g(K); it holds on every 4-plat front up to 8 crossings,
whose knots are 2-bridge, so alternating (``plat_genus.py``).
The paper says that the bound fails in general.  Legendrian Whitehead
doubles show the failure.  Wh(K) bounds a band with one clasp, so
g(Wh(K)) <= 1, and its Conway polynomial 1 - tb(K) z^2 has degree 2
when tb(K) != 0, so g(Wh(K)) = 1.  Yet Wh(trefoil) carries a 2-graded
ruling of genus 2 and Wh(51) one of genus 4, and on the family
Wh(T(2,n)) the ruling genus n - 1 exceeds g by n - 2, with no bound.

Wh(51) is checked through the standalone checks only: they skip its
Kauffman tree, which ``analyze`` would expand.
"""

import pytest

from conftest import whitehead_double
from plat_genus import plat_genus_counts
from ruling_surfaces import sample_fronts, surface_counts
from legfronts import corpus
from legfronts.analysis import analyze, genus_tests, max_tb_certificate, rho_report
from legfronts.fronts import components, front
from legfronts.laurent import ZPoly, conway
from legfronts.rulings import census
from legfronts.skein import front_to_diagram, homfly


def test_for_knots_a_ruling_is_two_graded_iff_its_surface_is_orientable():
    # the corpus, 300 random fronts and 300 with a ruling, all from seed 11;
    # tests/ruling_surfaces.py runs 1,500 of each
    assert surface_counts(sample_fronts(300)) == {
        "knot rulings": 1159,
        "link rulings": 5862,
        "ungraded-only orientable link rulings": 1679,  # listed with orientable None
        # orientable != 2-graded, more than one piece, or a genus other than Ruling.genus
        "knot rulings against the claim": 0,
        "2-graded non-orientable link rulings": 0,
        "orientable with no genus": 0,  # (2k - theta - b) / 2 odd or negative
    }


def test_the_double_of_the_unknot_is_the_trefoil_front():
    assert whitehead_double(corpus.load("unknot")) == corpus.load("trefoil")


@pytest.mark.parametrize("name, tb", [("unknot", -1), ("trefoil", 1), ("51", 3)])
def test_doubles_are_knots_with_conway_one_minus_tb_z2(name, tb):
    knot = corpus.load(name)
    double = whitehead_double(knot)
    sweep = components(double)
    assert components(knot).tb == tb
    assert (sweep.num_components, sweep.tb) == (1, 1)
    assert components(whitehead_double(knot, clasps=1)).tb == 4 * tb
    # one clasp crossing or three give a 2-component link
    assert [components(whitehead_double(knot, c)).num_components for c in (1, 3)] == [2, 2]
    poly = conway(homfly(front_to_diagram(double), max_crossings=double.num_crossings))
    assert poly == ZPoly({0: 1, 2: -tb})
    # genus >= deg / 2 = 1, and the clasped band gives genus <= 1
    assert poly.degree() // 2 == 1


def test_ruling_genus_exceeds_the_knot_genus_on_the_double_of_the_trefoil():
    double = whitehead_double(corpus.load("trefoil"))
    assert double.num_crossings == 17
    report = analyze(double, max_crossings=17)
    assert report.ok
    chain = report.theorem1_check
    assert (chain["max_two_graded_genus"], chain["half_homfly_z_degree"], chain["seifert_genus"]) == (2, 3, 5)
    assert chain["max_two_graded_genus"] > 1  # the genus of Wh(trefoil)
    assert not report.bennequin_test and not report.conway_test


def test_ruling_genus_exceeds_the_knot_genus_on_the_double_of_51():
    double = whitehead_double(corpus.load("51"))
    assert double.num_crossings == 25
    genus = genus_tests(double, max_crossings=25)
    assert (genus.max_two_graded_genus, genus.half_homfly_z_degree, genus.seifert_genus) == (4, 5, 7)
    assert genus.chain_ok and not genus.bennequin_ok and not genus.conway_ok
    rho = rho_report(double, max_crossings=25)
    assert (rho.kind, rho.value, rho.genus_matches) == ("value", 4, True)
    cert = max_tb_certificate(double, max_crossings=25)
    assert (cert.tb, cert.e, cert.is_maximal, cert.consistent) == (1, 2, True, True)


def test_homogeneous_knots_every_two_graded_ruling_genus_is_at_most_g_on_4_plats():
    # L1 L3 w R1 R1 for every word w of at most 8 letters over X1, X2, X3:
    # 2-bridge knots, so alternating, with g = deg(Conway) / 2 (tests/plat_genus.py)
    knots, ruled, violations, gaps = plat_genus_counts(8)
    assert (knots, ruled, violations) == (6440, 116, [])
    assert gaps == {0: 68, 1: 48}


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_the_gap_grows_without_bound_on_doubles_of_torus_knots(n):
    # T(2,n) as the front L1 L3 X2^n R1 R1 has tb n - 2
    double = whitehead_double(front("L1 L3 " + "X2 " * n + "R1 R1", name=f"T(2,{n})"))
    sweep = components(double)
    assert (double.num_crossings, sweep.num_components, sweep.tb) == (4 * n + 5, 1, 1)
    if n <= 7:  # the Homfly tree of a larger double takes seconds
        poly = conway(homfly(front_to_diagram(double), max_crossings=double.num_crossings))
        assert poly == ZPoly({0: 1, 2: 2 - n})
    # g(Wh(K)) = 1, so the ruling genus exceeds g by n - 2
    assert census(double).max_genus("two_graded") == n - 1
