import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import random_fronts, ruled_random_front, whitehead_double
from legfronts import analysis, cli, corpus, fronts, rulings
from legfronts.fronts import (
    FrontEvent,
    classical_invariants,
    components,
    connected_sum,
    front,
)
from legfronts.laurent import ZPoly
from legfronts.rulings import (
    GRADING_FILTERS,
    GradingClass,
    census,
    enumerate_rulings,
)

UNKNOT = front("L1 R1", name="unknot")
STAB = front("L1 L2 R1 R1", name="stab")
UNLINK2 = front("L1 L2 R2 R1", name="unlink2")
TREFOIL = front("L1 L3 X2 X2 X2 R1 R1", name="trefoil")
HOPF = front("L1 L2 X1 X3 R2 R1", name="hopf")


# -- independent oracle -------------------------------------------------------
#
# Replays the eye-pairing sweep for a single switch subset, with its own
# height bookkeeping; the library's pruned search must agree with trying
# all 2^c subsets through this.


def _oracle_accepts(events, switches) -> bool:
    partner: dict[int, int] = {}
    xnum = 0
    for ev in events:
        k = ev.height
        if ev.kind == "L":
            partner = {
                (h + 2 if h >= k else h): (p + 2 if p >= k else p)
                for h, p in partner.items()
            }
            partner[k] = k + 1
            partner[k + 1] = k
        elif ev.kind == "R":
            if partner.get(k) != k + 1:
                return False
            del partner[k], partner[k + 1]
            partner = {
                (h - 2 if h > k else h): (p - 2 if p > k else p)
                for h, p in partner.items()
            }
        else:
            xnum += 1
            a, b = partner[k], partner[k + 1]
            if a == k + 1:
                return False  # the two arcs of one eye may not meet
            if xnum in switches:
                lo1, hi1 = min(k, a), max(k, a)
                lo2, hi2 = min(k + 1, b), max(k + 1, b)
                disjoint = hi1 < lo2 or hi2 < lo1
                nested = (lo1 < lo2 and hi2 < hi1) or (lo2 < lo1 and hi1 < hi2)
                if not (disjoint or nested):
                    return False
            else:
                swap = {k: k + 1, k + 1: k}
                partner = {
                    swap.get(h, h): swap.get(p, p) for h, p in partner.items()
                }
    return True


def oracle_switch_sets(diagram, class_filter="ungraded", reverse=()):
    indices = dict(enumerate(fronts.sweep_front(diagram, reverse).indices, start=1))
    ids = sorted(indices)
    out = set()
    for size in range(len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            if class_filter == "two_graded" and any(indices[c] % 2 for c in subset):
                continue
            if class_filter == "z_graded" and any(indices[c] != 0 for c in subset):
                continue
            if _oracle_accepts(diagram.events, set(subset)):
                out.add(subset)
    return out


# -- normality predicate ------------------------------------------------------


@pytest.mark.parametrize(
    "pairs, k, normal",
    [
        pytest.param([(1, 2), (3, 4)], 2, True, id="disjoint"),
        pytest.param([(1, 3), (2, 4)], 2, False, id="interleaved"),
        pytest.param([(1, 6), (2, 3), (4, 5)], 3, True, id="disjoint_after_repair"),
        pytest.param([(1, 4), (2, 3)], 1, True, id="nested"),
        pytest.param([(1, 2), (3, 4)], 1, None, id="rejects_partners"),
    ],
)
def test_normal_switch(pairs, k, normal):
    """The moves at a crossing between heights k and k + 1 of a pairing of
    heights 1..n: a switch only when normal, no move when the two strands
    are partners."""
    p = [0] * (2 * len(pairs))
    for a, b in pairs:
        p[a - 1], p[b - 1] = b - 1, a - 1
    moves = list(rulings._moves("X", k - 1, tuple(p)))
    if normal is None:
        assert moves == []
    else:
        assert [switched for _, switched in moves] == ([False, True] if normal else [False])
        assert all(q == tuple(p) for q, switched in moves if switched)


def _pairings(heights):
    """Every fixed-point-free involution of ``heights``, as {h: partner}."""
    if not heights:
        yield {}
        return
    first, rest = heights[0], heights[1:]
    for i, partner in enumerate(rest):
        for pairing in _pairings(rest[:i] + rest[i + 1:]):
            yield {first: partner, partner: first, **pairing}


def test_a_switch_is_offered_exactly_when_the_eyes_are_disjoint_or_nested():
    """Every pairing of up to 10 strands at every crossing height: the
    eyes at k and k + 1, read as sets of heights, are disjoint or one
    holds the other exactly when ``_moves`` offers a switch."""
    cases = Counter()
    for n in range(2, 11, 2):
        for pairing in _pairings(list(range(n))):
            p = tuple(pairing[h] for h in range(n))
            for k in range(n - 1):
                switches = [switched for _, switched in rulings._moves("X", k, p)]
                if p[k] == k + 1:
                    assert switches == []
                    continue
                a, b = (set(range(min(h, p[h]), max(h, p[h]) + 1)) for h in (k, k + 1))
                normal = a.isdisjoint(b) or a <= b or b <= a
                assert switches == ([False, True] if normal else [False]), (p, k)
                cases[normal] += 1
    assert cases == {True: 4128, False: 4128}


# -- census examples ----------------------------------------------------------


def test_unknot_single_empty_ruling():
    rulings = enumerate_rulings(UNKNOT)
    assert len(rulings) == 1
    assert rulings[0].switches == ()
    assert rulings[0].theta == 1
    assert rulings[0].genus == 0


def test_stabilized_unknot_has_no_rulings():
    for cls in ("ungraded", "two_graded", "z_graded"):
        assert enumerate_rulings(STAB, cls) == []


def test_trefoil_census():
    rulings = enumerate_rulings(TREFOIL)
    assert [r.switches for r in rulings] == [(1,), (1, 2, 3), (3,)]
    by_set = {r.switches: r for r in rulings}
    assert by_set[(1,)].genus == 0
    assert by_set[(3,)].genus == 0
    assert by_set[(1, 2, 3)].genus == 1
    assert by_set[(1, 2, 3)].theta == -1
    assert all(r.grading is GradingClass.Z_GRADED for r in rulings)
    assert all(r.orientable for r in rulings)


def test_unlink2_ruling():
    rulings = enumerate_rulings(UNLINK2)
    assert len(rulings) == 1
    assert rulings[0].theta == 2
    assert rulings[0].genus is None  # genus is a knot-front notion


def test_trefoil_polynomial():
    assert census(TREFOIL).polynomials["two_graded"] == ZPoly({2: 1, 0: 2})
    assert census(STAB).polynomials["ungraded"] == ZPoly(0)
    assert census(UNLINK2).polynomials["two_graded"] == ZPoly({-1: 1})


def test_hopf_orientation_splits_census():
    plain = census(HOPF)
    assert plain.count("ungraded") == plain.count("two_graded") == 2
    # reversing one component makes the clasp switches odd
    reversed_rulings = enumerate_rulings(HOPF, "ungraded", reverse=(1,))
    gradings = {r.switches: r.grading for r in reversed_rulings}
    assert gradings[()] is GradingClass.Z_GRADED
    assert gradings[(1, 2)] is GradingClass.UNGRADED_ONLY
    assert len(enumerate_rulings(HOPF, "two_graded", reverse=(1,))) == 1


# -- oracle equivalence and structural properties -----------------------------


def _library_switch_sets(diagram, class_filter, reverse=()):
    return {r.switches for r in enumerate_rulings(diagram, class_filter, reverse)}


def test_oracle_equivalence_on_corpus():
    for name in corpus.corpus_names():
        f = corpus.load(name)
        assert f.num_crossings <= 12
        for cls in ("ungraded", "two_graded", "z_graded"):
            assert _library_switch_sets(f, cls) == oracle_switch_sets(f, cls), (name, cls)


# a knot front with ungraded-only rulings, which random knot fronts seldom have
ODD_KNOT = front("L1 L2 X1 X3 X3 X2 X2 R1 R1", name="odd_knot")


def test_oracle_equivalence_on_random_fronts():
    # the census and the listing share one sweep, so each listed ruling's
    # grading, orientability and genus are recomputed here from the indices
    rng = random.Random(21)
    ruled = []
    while len(ruled) < 40:
        f = ruled_random_front(rng, max_strands=6)
        if f.num_crossings <= 9:
            ruled.append(f)
    cases = list(CLASS_SPLITTING)
    for f in random_fronts(seed=21, count=25, max_crossings=8) + ruled + [ODD_KNOT]:
        cases += [(f, ())] + ([(f, (0,))] if components(f).num_components > 1 else [])
    seen = Counter()
    for f, rev in cases:
        is_knot = components(f).num_components == 1
        indices = dict(enumerate(fronts.sweep_front(f, rev).indices, start=1))
        for cls in GRADING_FILTERS:
            listed = enumerate_rulings(f, cls, rev)
            assert {r.switches for r in listed} == oracle_switch_sets(f, cls, rev), (str(f), rev, cls)
            for r in listed:
                ix = [indices[c] for c in r.switches]
                two = all(i % 2 == 0 for i in ix)
                assert r.grading is (
                    GradingClass.Z_GRADED if not any(ix)
                    else GradingClass.TWO_GRADED if two else GradingClass.UNGRADED_ONLY
                ), (str(f), rev, r)
                assert r.orientable is (True if two else False if is_knot else None)
                assert r.genus == ((len(r.switches) - r.eyes + 1) // 2 if is_knot and two else None)
                seen[is_knot, r.grading] += cls == "ungraded"
    assert seen[True, GradingClass.UNGRADED_ONLY] and seen[False, GradingClass.UNGRADED_ONLY]
    assert seen[True, GradingClass.Z_GRADED] and seen[False, GradingClass.TWO_GRADED]


def test_oracle_equivalence_reversed_hopf():
    for cls in ("ungraded", "two_graded", "z_graded"):
        assert _library_switch_sets(HOPF, cls, (1,)) == oracle_switch_sets(HOPF, cls, (1,))


def test_theta_equals_left_cusps_minus_switches():
    for f in random_fronts(seed=22, count=20, max_crossings=8):
        for r in enumerate_rulings(f):
            assert r.theta == f.num_left_cusps - len(r.switches)
            assert r.eyes == f.num_left_cusps


def test_graded_counts_nest_per_theta():
    for f in random_fronts(seed=23, count=20, max_crossings=8):
        cens = census(f)
        by_theta = {cls: {1 - e: c for e, c in poly.terms.items()} for cls, poly in cens.polynomials.items()}
        thetas = set()
        for cls in ("ungraded", "two_graded", "z_graded"):
            thetas |= set(by_theta[cls])
        for theta in thetas:
            c_u = by_theta["ungraded"].get(theta, 0)
            c_2 = by_theta["two_graded"].get(theta, 0)
            c_z = by_theta["z_graded"].get(theta, 0)
            assert c_z <= c_2 <= c_u


def test_two_graded_knot_rulings_have_even_spread_and_positive_switches():
    for f in random_fronts(seed=24, count=20, max_crossings=8, knots_only=True):
        signs = classical_invariants(f).crossing_signs
        for r in enumerate_rulings(f, "two_graded"):
            assert (len(r.switches) - r.eyes + 1) % 2 == 0
            assert r.genus is not None and r.genus >= 0
            assert all(signs[c - 1] == 1 for c in r.switches)


def test_disk_rulings_are_z_graded_with_r_zero():
    seen_disk = False
    for f in random_fronts(seed=25, count=30, max_crossings=8, knots_only=True):
        inv = classical_invariants(f)
        for r in enumerate_rulings(f):
            if r.theta == 1:
                seen_disk = True
                assert r.grading is GradingClass.Z_GRADED
                assert inv.r == 0
    assert seen_disk


def test_census_multiplicativity_under_connected_sum():
    pairs = [("trefoil", "trefoil"), ("trefoil", "unknot"), ("51", "trefoil"), ("unknot", "unknot")]
    for n1, n2 in pairs:
        f1, f2 = corpus.load(n1), corpus.load(n2)
        c1, c2 = census(f1), census(f2)
        c12 = census(connected_sum(f1, f2))
        for cls in ("ungraded", "two_graded", "z_graded"):
            assert c12.polynomials[cls] == c1.polynomials[cls] * c2.polynomials[cls], (n1, n2, cls)
            assert c12.count(cls) == c1.count(cls) * c2.count(cls)


def test_trefoil_unknot_census_matches_trefoil():
    composite = connected_sum(corpus.load("trefoil"), corpus.load("unknot"))
    assert {r.switches for r in enumerate_rulings(composite)} == {
        r.switches for r in enumerate_rulings(TREFOIL)
    }


def test_links_report_theta_but_no_genus():
    for f in random_fronts(seed=26, count=20, max_crossings=6):
        is_knot = components(f).num_components == 1
        for r in enumerate_rulings(f):
            if not is_knot:
                assert r.genus is None
            if r.grading is GradingClass.UNGRADED_ONLY and is_knot:
                assert r.orientable is False


def test_class_filter_agrees_with_filtered_ungraded():
    for f in random_fronts(seed=27, count=15, max_crossings=8):
        all_rulings = enumerate_rulings(f, "ungraded")
        two = {r.switches for r in all_rulings if r.grading is not GradingClass.UNGRADED_ONLY}
        zg = {r.switches for r in all_rulings if r.grading is GradingClass.Z_GRADED}
        assert _library_switch_sets(f, "two_graded") == two
        assert _library_switch_sets(f, "z_graded") == zg


def test_bad_class_filter():
    cens, sweep = census(TREFOIL), fronts.sweep_front(TREFOIL)
    for bad in ("graded", "bogus", "ungraded_only"):
        for read in (
            lambda: enumerate_rulings(UNKNOT, bad),
            lambda: enumerate_rulings(front("L1 X2 R1"), bad),  # the filter is checked before the sweep
            lambda: rulings._listing(sweep, bad, None, None, None, None),  # a sweep that switched would fail otherwise
            lambda: cens.count(bad),
            lambda: cens.max_genus(bad),
        ):
            with pytest.raises(ValueError, match="class_filter must be one of"):
                read()
    # the census holds a polynomial for each class filter and for nothing else
    assert tuple(cens.polynomials) == GRADING_FILTERS


# -- merged sweep against the listed rulings ----------------------------------


# random fronts almost never separate the classes; these links do (the
# reversed Hopf clasp is ungraded only, and the 4-component link with its
# third component reversed has 2-graded rulings that are not Z-graded)
LINK4 = front("L1 L3 X2 R1 L3 X2 R3 L1 X2 L1 L1 X7 R6 X2 X4 X2 X5 R4 X2 X2 R3 R1", name="link4")
CLASS_SPLITTING = [(HOPF, (1,)), (connected_sum(TREFOIL, HOPF), ()), (LINK4, ()), (LINK4, (2,))]


def test_class_splitting_cases_split_the_classes():
    counts = [[census(f, rev).count(cls) for cls in GRADING_FILTERS] for f, rev in CLASS_SPLITTING]
    assert counts == [[2, 1, 1], [6, 3, 3], [5, 1, 1], [5, 5, 1]]


def test_sweep_census_matches_the_listed_rulings_on_random_fronts():
    cases = list(CLASS_SPLITTING)
    for f in random_fronts(seed=28, count=600, max_crossings=10):
        cases += [(f, ())] + ([(f, (0,))] if components(f).num_components > 1 else [])
    for f, rev in cases:
        cens = census(f, rev)
        for cls in GRADING_FILTERS:
            listed = enumerate_rulings(f, cls, rev)
            assert cens.polynomials[cls] == ZPoly(Counter(1 - r.theta for r in listed)), (str(f), rev, cls)
            assert cens.count(cls) == len(listed)
            assert {1 - e: c for e, c in cens.polynomials[cls].terms.items()} == Counter(r.theta for r in listed)
            genera = [r.genus for r in listed if r.genus is not None]
            assert cens.max_genus(cls) == (max(genera) if genera else None)


def test_sweep_counts_trefoil_power_without_listing(monkeypatch):
    power = TREFOIL
    for _ in range(7):
        power = connected_sum(power, TREFOIL)

    def no_listing(*args):
        raise AssertionError("the census listed rulings")

    monkeypatch.setattr(rulings, "_listing", no_listing)
    cens = census(power)
    assert cens.polynomials["two_graded"] == ZPoly({2: 1, 0: 2}) ** 8
    assert cens.count("ungraded") == 6561
    assert cens.max_genus() == 8


def _counter_polynomials(f, rev=()):
    """The class polynomials from a sweep whose values are switch-count Counters."""
    bump = lambda sw, cid: Counter({s + 1: c for s, c in sw.items()})
    ends = rulings._sweep(fronts.sweep_front(f, rev), 2, Counter({0: 1}), bump)
    out = {}
    for limit, cls in zip((2, 1, 0), GRADING_FILTERS):
        total = Counter()
        for tag, sw in ends.items():
            if tag <= limit:
                total.update(sw)
        out[cls] = ZPoly({1 - f.num_left_cusps + s: c for s, c in total.items()})
    return out


def test_packed_census_matches_counter_sweep():
    rng = random.Random(51)
    trefoil8 = TREFOIL
    for _ in range(7):
        trefoil8 = connected_sum(trefoil8, TREFOIL)
    fronts_ = random_fronts(seed=52, count=150, max_crossings=12)
    fronts_ += [ruled_random_front(rng) for _ in range(60)]
    fronts_ += [front("L1 L3 " + "X2 " * 21 + "R1 R1"), trefoil8]
    seen = Counter()
    for f in fronts_:
        links = components(f).num_components > 1
        for rev in [()] + [(0,)] * links:
            polys = census(f, rev).polynomials
            assert polys == _counter_polynomials(f, rev), (str(f), rev)
            seen["link" if links else "knot"] += 1
            seen["reversed"] += bool(rev)
            seen["ruled"] += bool(polys["ungraded"])
    assert min(seen.values()) >= 20, seen


def test_unpack_reads_full_and_zero_slots():
    w, full = 3, 7
    slots = [full, 0, full, 1, 0, 0, full]
    packed = sum(c << (w * s) for s, c in enumerate(slots))
    assert rulings._unpack(packed, w, -2) == {-2: 7, 0: 7, 1: 1, 4: 7}
    assert rulings._unpack(0, w, 5) == {}
    assert rulings._unpack((1 << 40) - 1, 8, 0) == {s: 255 for s in range(5)}


def _assert_rulings_cli_fails(capsys, name, message):
    for grading in GRADING_FILTERS:
        for fmt in ("json", "text"):
            assert cli.main(["rulings", name, f"--class={grading}", f"--format={fmt}"]) == 1
            assert capsys.readouterr() == ("", f"internal consistency check failed: {message}\n")


def _assert_connsum_fails(capsys, f1, f2, message):
    # the composite is the one record swept through fronts.sweep_front, so
    # the check fires in its census sweep
    with pytest.raises(RuntimeError, match=message):
        analysis.connsum_check(f1, f2)
    for fmt in ("json", "text"):
        assert cli.main(["connsum", f1.name, f2.name, f"--format={fmt}"]) == 1
        assert capsys.readouterr() == ("", f"internal consistency check failed: {message}\n")


def _pack(slots, w):
    return sum(c << (w * s) for s, c in enumerate(slots))


def _assert_packed_product_is_exact(a, b, o1, o2):
    # slot s of a summand with c_i crossings holds at most C(c_i, s): from the
    # composite's width c1 + c2 + 1 on, the int product is the polynomial
    # product, and from c1 + c2 + 2 on a slot sum is the packed value mod 2^w - 1
    c12 = len(a) + len(b) - 2
    for w in (c12 + 1, c12 + 2):
        pa, pb = _pack(a, w), _pack(b, w)
        product = ZPoly(rulings._unpack(pa, w, o1)) * ZPoly(rulings._unpack(pb, w, o2))
        assert rulings._unpack(pa * pb, w, o1 + o2) == product.terms
    m = (1 << w) - 1  # w = c12 + 2, the width connsum_check reads counts at
    assert (pa % m, pb % m, pa * pb % m) == (sum(a), sum(b), sum(a) * sum(b))


@st.composite
def _census_slots(draw):
    c = draw(st.integers(min_value=0, max_value=12))
    return [draw(st.integers(min_value=0, max_value=math.comb(c, s))) for s in range(c + 1)]


@given(_census_slots(), _census_slots(), st.integers(-12, 12), st.integers(-12, 12))
def test_packed_product_is_the_polynomial_product(a, b, o1, o2):
    _assert_packed_product_is_exact(a, b, o1, o2)


def test_packed_product_is_exact_at_the_census_bound():
    full = lambda c: [math.comb(c, s) for s in range(c + 1)]
    for c1, c2 in itertools.product(range(13), repeat=2):
        _assert_packed_product_is_exact(full(c1), full(c2), 1 - c1, -c2)


def test_packed_product_carries_at_a_summand_width():
    # two full 3-crossing censuses: the middle product slot is C(6, 3) = 20,
    # which a summand's 4-bit slot cannot hold, but the composite's 7 bits can
    full = [1, 3, 3, 1]
    true_product = {s: math.comb(6, s) for s in range(7)}
    for w, exact in ((4, False), (7, True)):
        assert (rulings._unpack(_pack(full, w) ** 2, w, 0) == true_product) is exact
    # with no crossing, the width c12 + 1 = 1 reads every count mod 1 as 0
    assert [_pack([1], w) % ((1 << w) - 1) for w in (1, 2)] == [0, 1]


def test_sweep_keeps_the_negative_switch_check(monkeypatch, capsys):
    real = fronts.sweep_front

    def flipped(diagram, reverse=()):
        sweep = real(diagram, reverse)
        signs = list(sweep.crossing_signs)
        c = min(c for c, ix in enumerate(sweep.indices, start=1) if ix == 0)
        signs[c - 1] = -signs[c - 1]
        return sweep._replace(crossing_signs=tuple(signs))

    # crossing 4, of index 0, is the only even-index crossing here, and no
    # ruling switches it: the front has no rulings at all
    unswitched = front("L1 X1 X1 R1 L1 X1 L3 X2 R3 L2 L1 R5 R1 R1", name="unswitched")
    assert census(unswitched).count("ungraded") == 0
    monkeypatch.setattr(fronts, "sweep_front", flipped)
    for compute in (census, enumerate_rulings):
        for f in (TREFOIL, unswitched):
            with pytest.raises(RuntimeError, match="2-graded switch at a negative crossing"):
                compute(f)
    _assert_rulings_cli_fails(capsys, "trefoil", "2-graded switch at a negative crossing")
    _assert_connsum_fails(capsys, TREFOIL, UNKNOT, "2-graded switch at a negative crossing")


def test_sweep_keeps_the_genus_integrality_check(monkeypatch, capsys):
    real = fronts.sweep_front

    def one_component(diagram, reverse=()):
        sweep = real(diagram, reverse)
        return sweep._replace(num_components=1)

    monkeypatch.setattr(fronts, "sweep_front", one_component)
    # the unlink's one ruling has no switches and two eyes: z-exponent -1
    for compute in (census, enumerate_rulings):
        with pytest.raises(RuntimeError, match="2-graded knot ruling with non-integral genus"):
            compute(UNLINK2)
    _assert_rulings_cli_fails(capsys, "unlink2", "2-graded knot ruling with non-integral genus")
    # unlink2 # unknot is unlink2 again
    _assert_connsum_fails(capsys, UNLINK2, UNKNOT, "2-graded knot ruling with non-integral genus")


def test_class_counts_check_the_genus_at_one_minus_the_eyes(monkeypatch):
    # a bad record: one 2-graded ruling of the 3-eye knot trefoil_sum with
    # no switches, so z-exponent 1 - 3 = -2 and no genus; read at 1 + 3 it
    # would give genus 2 and pass
    monkeypatch.setattr(rulings, "_sweep", lambda *args: {1: 1})
    with pytest.raises(RuntimeError, match="2-graded knot ruling with non-integral genus"):
        census(corpus.load("trefoil_sum"))


def test_class_counts_give_the_top_two_graded_genus(monkeypatch):
    # knots of no genus and of genus 0 to 12 (the corpus, seeded fronts,
    # the doubles Wh(T(2,n))) and links (the corpus, seeded fronts, a 2-copy)
    fs = [corpus.load(n) for n in corpus.corpus_names()] + random_fronts(seed=49, count=200, knots_only=True)
    fs += [whitehead_double(front("L1 L3 " + "X2 " * n + "R1 R1")) for n in (3, 5, 7, 9, 11, 13)]
    fs += random_fronts(seed=50, count=40) + [whitehead_double(TREFOIL, clasps=1)]
    links = 0
    for f in fs:
        sweep = fronts.sweep_front(f)
        genus = census(f).max_genus("two_graded")
        links += sweep.num_components > 1
        assert genus is None or sweep.num_components == 1
        # at the census width and at connsum_check's wider one
        for w in (len(sweep.crossings) + 1, len(sweep.crossings) + 2):
            assert rulings._class_counts(sweep, w)[1] == genus
    assert links >= 10
    # every 2-graded slot is checked, not only the top one: slot 0 of the
    # 3-eye trefoil_sum has no genus even when slot 4 gives genus 1
    sweep = fronts.sweep_front(corpus.load("trefoil_sum"))
    w = len(sweep.crossings) + 1
    monkeypatch.setattr(rulings, "_sweep", lambda *args: {1: 1 | 1 << 4 * w})
    with pytest.raises(RuntimeError, match="2-graded knot ruling with non-integral genus"):
        rulings._class_counts(sweep, w)


@pytest.mark.parametrize("exponent, genus", [(0, 0), (4, 2), (1, None), (3, None), (-2, None)])
def test_genus_is_half_an_even_non_negative_exponent(exponent, genus):
    # odd and positive, or even and negative: either alone is no genus
    if genus is None:
        with pytest.raises(RuntimeError, match="2-graded knot ruling with non-integral genus"):
            rulings._genus(exponent)
    else:
        assert rulings._genus(exponent) == genus


def test_listing_calls_moves_once_per_reachable_pairing(monkeypatch):
    real, calls = rulings._moves, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rulings, "_moves", counted)
    monkeypatch.setattr(rulings, "_TABLE", [rulings._Steps()])  # a fresh generation: every step is computed
    listed = enumerate_rulings(front("L1 L3 " + "X2 " * 21 + "R1 R1"), "ungraded")
    assert 0 < len(calls) <= 50
    assert len(listed) == 17711
    assert [r.switches for r in listed] == sorted(r.switches for r in listed)


def test_listing_pass_leaves_each_end_tag_in_switch_order(monkeypatch):
    """The right-to-left pass hands over each end tag's codes, and the
    renderings beside them, already sorted, so no caller sorts: on the
    corpus and on the seeded fronts of the command-line listing test, links
    under each single reversal, in all three classes."""
    real_sweep, real_add = rulings._sweep, rulings._Listed.__add__
    ends, interleaved = [], []

    def recorded_sweep(*args):
        out = real_sweep(*args)
        if isinstance(args[2], rulings._Listed):
            ends.append(list(out.values()))
        return out

    def counted_add(a, b):
        if a.codes and b.codes and b.codes[0] < a.codes[-1] and a.codes[0] < b.codes[-1]:
            interleaved.append(1)
        return real_add(a, b)

    monkeypatch.setattr(rulings, "_sweep", recorded_sweep)
    monkeypatch.setattr(rulings._Listed, "__add__", counted_add)
    rng = random.Random(29)
    fs = [corpus.load(name) for name in corpus.corpus_names()]
    fs += random_fronts(seed=29, count=30) + [ruled_random_front(rng, 22, 8) for _ in range(30)]
    listings = 0
    for f in fs:
        k = components(f).num_components
        for rev in [()] + [(c,) for c in range(k)] * (k > 1):
            sweep = fronts.sweep_front(f, rev)
            for cls in GRADING_FILTERS:
                where = (str(f), rev, cls)
                ends.clear()
                listed = enumerate_rulings(f, cls, rev)
                for run in ends[0]:
                    assert run.codes == sorted(run.codes), where
                    assert not run.codes or run.codes[0], where  # the empty set is the flag alone
                    assert run.shown == [tuple(map(ord, code)) for code in run.codes]
                text = rulings._listing(sweep, cls, str, ", ", lambda fields: None, lambda shown, _: shown)
                for ids_run, text_run in zip(*ends, strict=True):
                    assert ids_run.codes == text_run.codes and ids_run.empty == text_run.empty
                    assert text_run.shown == [", ".join(map(str, ids)) for ids in ids_run.shown]
                ids = [r.switches for r in listed]
                assert ids == sorted(ids) and len(set(ids)) == len(ids), where
                assert text == [", ".join(map(str, s)) for s in ids]
                assert [r.theta for r in listed] == [sweep.num_arcs // 2 - len(s) for s in ids]
                assert len(ids) == rulings._census(sweep).count(cls)
                listings += bool(ids)
    assert listings > 300
    # the merge by code runs where switched sets of different tags meet,
    # which no T(2, n) or trefoil power reaches
    assert interleaved


def _width(f):
    return max(itertools.accumulate({"L": 2, "R": -2, "X": 0}[ev.kind] for ev in f.events))


def test_move_table_is_the_same_cold_and_warm(monkeypatch):
    """The step table is one bounded table for the whole process: what a
    sweep reads from it may not depend on which fronts filled it, in which
    order, or on how often a pass starts a fresh generation."""
    rng = random.Random(61)
    cases = [(corpus.load(name), ()) for name in corpus.corpus_names()]
    for f in random_fronts(seed=62, count=100):
        cases += [(f, ())] + [(f, (0,))] * (components(f).num_components > 1)
    wide = [f for f in (ruled_random_front(rng, 40, 12) for _ in range(100)) if _width(f) == 12]
    assert len(wide) >= 2
    cases += [(f, ()) for f in wide[:2]]

    def results(f, rev):
        return census(f, rev).polynomials, [enumerate_rulings(f, cls, rev) for cls in GRADING_FILTERS]

    cold = []
    for f, rev in cases:
        monkeypatch.setattr(rulings, "_TABLE", [rulings._Steps()])
        cold.append(results(f, rev))
    monkeypatch.setattr(rulings, "_TABLE", [rulings._Steps()])
    warm = [results(f, rev) for f, rev in reversed(cases)][::-1]
    assert warm == cold
    assert 0 < rulings._BOUND <= 1 << 14  # a generation's entries: about 3.5 MB at the bound
    # every pass reads the same entries, so they must be immutable
    steps = rulings._TABLE[0]
    assert steps.entries == sum(map(len, steps.rows.values()))
    assert all(type(p) is tuple for p in steps.pairings)
    assert {type(step) for row in steps.rows.values() for step in row.values()} == {tuple}
    assert {type(x) for row in steps.rows.values() for step in row.values() for x in step} == {int, bool}
    # at bound 0 each pass but the first, which finds an empty table, starts a fresh generation
    passes = []
    real_sweep = rulings._sweep
    monkeypatch.setattr(rulings, "_sweep", lambda *args: passes.append(1) or real_sweep(*args))
    monkeypatch.setattr(rulings, "_BOUND", 0)
    monkeypatch.setattr(rulings, "_TABLE", [rulings._Steps()])
    fresh = [results(f, rev) for f, rev in cases]
    assert fresh == cold
    assert rulings._TABLE[0].generation == len(passes) == 4 * len(cases)


def test_a_pass_starts_a_fresh_generation_only_past_the_bound(monkeypatch):
    """A pass continues the current generation while it holds at most the
    bound, so a generation holds at most the bound plus what one pass adds."""
    bound, seen = 40, Counter()
    real_sweep = rulings._sweep

    def recorded(*args):
        before = rulings._TABLE[0]
        past = before.entries > bound
        out = real_sweep(*args)
        after = rulings._TABLE[0]
        assert (after is not before) == past
        assert after.generation == before.generation + past
        seen[past] += 1
        return out

    monkeypatch.setattr(rulings, "_sweep", recorded)
    monkeypatch.setattr(rulings, "_BOUND", bound)
    monkeypatch.setattr(rulings, "_TABLE", [rulings._Steps()])
    for f in random_fronts(seed=63, count=60):
        census(f)
        enumerate_rulings(f)
    assert min(seen[True], seen[False]) >= 5, seen


def test_rulings_keep_int_tuple_switches():
    # ids on both sides of 9 | 10; the listing's switch sets are strings inside
    f = front("L1 L3 " + "X2 " * 13 + "R1 R1")
    for cls in GRADING_FILTERS:
        listed = enumerate_rulings(f, cls)
        assert listed and all(type(r.switches) is tuple for r in listed)
        assert all(type(c) is int for r in listed for c in r.switches)
    assert max(max(r.switches) for r in enumerate_rulings(f)) == 13


# -- Legendrian moves ---------------------------------------------------------


_STRANDS_ADDED = {"L": 2, "R": -2, "X": 0}


def _stabilized(f, rng):
    """f with a zigzag (one left and one right cusp, no crossing) on a random strand."""
    counts = [0, *itertools.accumulate(_STRANDS_ADDED[ev.kind] for ev in f.events)]
    i = rng.choice([i for i, n in enumerate(counts) if n > 0])
    h = rng.randint(1, counts[i])
    zigzag = (FrontEvent("L", h + 1), FrontEvent("R", h)) if rng.random() < 0.5 else (
        FrontEvent("L", h), FrontEvent("R", h + 1))
    return f._replace(events=f.events[:i] + zigzag + f.events[i:])


def _far_commuted(f, i):
    """(g, arcs) for f with events i and i + 1 exchanged, or None unless they
    sit at least 2 heights apart; arc a of g continues arc arcs[a] of f.

    The lower event keeps its height; the upper one moves by the strands
    that the lower one adds or removes.  Arc ids follow the left cusps, so
    only two exchanged left cusps trade their pairs of arc ids.
    """
    a, b = f.events[i], f.events[i + 1]
    if b.height >= a.height + 2:
        swapped = (FrontEvent(b.kind, b.height - _STRANDS_ADDED[a.kind]), a)
    elif b.height <= a.height - 2:
        swapped = (b, FrontEvent(a.kind, a.height + _STRANDS_ADDED[b.kind]))
    else:
        return None
    arcs = list(range(2 * f.num_left_cusps))
    if a.kind == b.kind == "L":
        j = 2 * sum(ev.kind == "L" for ev in f.events[:i])
        arcs[j:j + 4] = arcs[j + 2:j + 4] + arcs[j:j + 2]
    return f._replace(events=f.events[:i] + swapped + f.events[i + 2:]), arcs


def _class_data(sweep):
    """tb, then each class polynomial with its listed count, under the sweep record."""
    cens = rulings._census(sweep)
    return [sweep.tb] + [
        (cens.polynomials[cls], len(rulings._listing(sweep, cls, str, "", cli._ruling_text, str.join)))
        for cls in GRADING_FILTERS
    ]


def test_far_commutation_keeps_link_gradings_under_the_induced_arc_map():
    # exchanging the first two left cusps moves each component's reference
    # arc, and with it the default offset between the components' potentials
    f = front("L1 L3 L4 X2 R4 R1 L3 X2 L4 R4 X2 X2 X2 R3 R1 L1 R1")
    g, arcs = _far_commuted(f, 0)
    assert str(g).startswith("L1 L1 L4 X2") and arcs[:4] == [2, 3, 0, 1]
    assert census(f).polynomials["two_graded"] == ZPoly({-4: 1, -2: 3, 0: 1})
    assert census(g).polynomials["two_graded"] == ZPoly({-4: 1})
    assert (classical_invariants(f).tb, classical_invariants(g).tb) == (-1, -9)
    sf = fronts.sweep_front(f)
    assert _class_data(fronts._sweep_front(g, (), (sf, arcs))) == _class_data(sf)


def test_legendrian_moves_on_random_fronts():
    rng = random.Random(31)
    knots, links = [], []
    while len(knots) < 30:
        f = ruled_random_front(rng, max_strands=6)
        if f.num_crossings >= 3:
            (knots if components(f).num_components == 1 else links).append(f)
    commuted = 0
    for f in knots + links[:30]:
        stab = _stabilized(f, rng)
        assert fronts.validate(stab).ok, str(stab)
        assert classical_invariants(stab).tb == classical_invariants(f).tb - 1
        assert all(census(stab).count(cls) == 0 and enumerate_rulings(stab, cls) == [] for cls in GRADING_FILTERS)

        sf = fronts.sweep_front(f)
        before = _class_data(sf)
        for i in range(len(f.events) - 1):
            moved = _far_commuted(f, i)
            if moved is None:
                continue
            g, arcs = moved
            assert fronts.validate(g).ok, (str(f), i)
            assert _class_data(fronts._sweep_front(g, (), (sf, arcs))) == before, (str(f), i)
            commuted += 1
    assert commuted > 200
