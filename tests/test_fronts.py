import math
import random
from collections import Counter

import pytest

from conftest import random_front, random_fronts
from legfronts import corpus
from legfronts.fronts import (
    FrontDiagram,
    FrontEvent,
    FrontFormatError,
    InvalidFrontError,
    NormalFormError,
    _sweep_front,
    classical_invariants,
    components,
    connected_sum,
    crossing_index,
    crossing_indices,
    front,
    maslov_potential,
    parse_front,
    render_front,
    sweep_front,
    sweep_geometry,
    validate,
)

UNKNOT = front("L1 R1", name="unknot")
STAB = front("L1 L2 R1 R1", name="stab")
UNLINK2 = front("L1 L2 R2 R1", name="unlink2")
TREFOIL = front("L1 L3 X2 X2 X2 R1 R1", name="trefoil")


# -- validation -------------------------------------------------------------


def test_validate_unknot_ok():
    assert validate(UNKNOT).ok


def test_validate_height_out_of_range():
    report = validate(front("L1 R2"))
    assert not report.ok
    assert report.violations[0].event_index == 2
    assert "out of range" in report.violations[0].message


def test_validate_trefoil_ok():
    assert validate(TREFOIL).ok


def test_validate_open_strands():
    report = validate(front("L1 L1"))
    assert not report.ok
    assert any(v.event_index is None for v in report.violations)


def test_validate_never_raises_on_negative_count():
    report = validate(front("L1 R1 R1 L1"))
    assert not report.ok


def test_sweep_raises_the_first_violation_validate_reports():
    # the sweep checks heights in its one pass; each failed check must
    # word the error as the first violation of a separate validation
    rng = random.Random(23)
    kinds = Counter()
    for i in range(3000):
        if i % 3 == 0:  # random events
            events = tuple(FrontEvent(rng.choice("LRX"), rng.randint(1, 5)) for _ in range(rng.randint(0, 9)))
        elif i % 3 == 1:  # a valid front cut short, mostly leaving strands open
            events = random_front(rng).events
            events = events[:rng.randint(0, len(events))]
        else:  # a valid front with one height one past its range
            events = list(random_front(rng).events)
            j = rng.randrange(len(events))
            n = sum(2 if ev.kind == "L" else -2 if ev.kind == "R" else 0 for ev in events[:j])
            events[j] = FrontEvent(events[j].kind, n + 2 if events[j].kind == "L" else max(n, 1))
        f = FrontDiagram(tuple(events), name="bad")
        report = validate(f)
        if report.ok:
            assert sweep_geometry(f).num_arcs == 2 * f.num_left_cusps
            continue
        first = report.violations[0]
        with pytest.raises(InvalidFrontError) as info:
            sweep_geometry(f)
        assert str(info.value) == f"invalid front 'bad': {first.message}"
        kinds["open" if first.event_index is None else first.message.split(" height")[0]] += 1
    # "strand count went negative" is never first: a right-cusp range
    # violation always comes before it
    assert set(kinds) == {"left cusp", "right cusp", "crossing", "open"}, kinds
    assert min(kinds.values()) >= 50, kinds


# -- parser -----------------------------------------------------------------


def test_parse_render_round_trip_corpus():
    for name in corpus.corpus_names():
        f = corpus.load(name)
        again = parse_front(render_front(f), name=name)
        assert again.events == f.events
        assert parse_front(render_front(again)).events == f.events


def test_parse_rejects_junk():
    with pytest.raises(FrontFormatError) as err:
        parse_front("L 1\nQ 2\n")
    assert err.value.line == 2
    with pytest.raises(FrontFormatError):
        parse_front("L 1 2\n")
    with pytest.raises(FrontFormatError):
        parse_front("L x\n")
    with pytest.raises(FrontFormatError):
        parse_front("L 0\n")


def test_parse_takes_a_height_only_as_decimal_digits():
    # int() would also take a sign and digit-group underscores: 'R 1_2' read as 12
    for height in ("+1", "0_1", "1_2", "-", "--1", "\u00b9"):
        with pytest.raises(FrontFormatError, match="is not an integer") as err:
            parse_front(f"L 1\nR {height}\n")
        assert err.value.line == 2
    for height, k in (("0", 0), ("-1", -1)):
        with pytest.raises(FrontFormatError, match=f"height must be >= 1, got {k}$"):
            parse_front(f"L {height}\n")
    assert parse_front("L 01\nR 1\n").events == front("L01 R1").events


def test_tokens_and_events_reject_junk():
    # a superscript digit passes str.isdigit but not int()
    for tokens in ("Q1", "L0", "X", "L\u00b2", "L1 R\u00b9"):
        with pytest.raises(ValueError, match="bad event token"):
            front(tokens)
    with pytest.raises(ValueError, match="unknown event kind"):
        FrontEvent("Q", 1)
    for height in (0, True, False, 1.0):
        with pytest.raises(ValueError, match="positive integer"):
            FrontEvent("L", height)


def test_parse_comments_and_blanks():
    f = parse_front("# a saucer\n\nL 1  # opens\nR 1\n")
    assert f.events == (FrontEvent("L", 1), FrontEvent("R", 1))
    assert f.lines == (3, 4)


# -- components -------------------------------------------------------------


def test_component_counts():
    assert components(UNKNOT).num_components == 1
    assert components(UNLINK2).num_components == 2
    assert components(TREFOIL).num_components == 1
    assert components(STAB).num_components == 1


def test_reverse_component_validation():
    with pytest.raises(ValueError):
        components(UNKNOT, reverse=(3,))


# -- classical invariants ----------------------------------------------------


def test_unknot_invariants():
    inv = classical_invariants(UNKNOT)
    assert inv.tb == -1
    assert inv.r == 0
    assert inv.writhe == 0


def test_stabilized_unknot_invariants():
    inv = classical_invariants(STAB)
    assert inv.tb == -2
    assert abs(inv.rot_per_component[0]) == 1
    assert inv.r == 1


def test_trefoil_invariants():
    inv = classical_invariants(TREFOIL)
    assert inv.writhe == 3
    assert inv.tb == 1
    assert inv.r == 0
    assert inv.crossing_signs == (1, 1, 1)


def test_tb_writhe_identity_random():
    for f in random_fronts(seed=11, count=40):
        inv = classical_invariants(f)
        assert inv.tb + inv.num_right_cusps == inv.writhe
        assert f.num_left_cusps == f.num_right_cusps


def test_rotation_negates_under_full_reversal():
    for f in random_fronts(seed=12, count=30):
        cmap = components(f)
        everything = tuple(range(cmap.num_components))
        inv = classical_invariants(f)
        rev = classical_invariants(f, reverse=everything)
        assert rev.rot_per_component == tuple(-x for x in inv.rot_per_component)
        assert rev.tb == inv.tb
        assert rev.writhe == inv.writhe


def test_knot_tb_plus_r_is_odd():
    for f in random_fronts(seed=13, count=30, knots_only=True):
        inv = classical_invariants(f)
        assert (inv.tb + abs(inv.rot_per_component[0])) % 2 == 1


# -- Maslov potential ---------------------------------------------------------


def test_unknot_potential():
    maslov = maslov_potential(UNKNOT)
    assert maslov.modulus == 0
    # arc 0 is the upper strand, arc 1 the lower (rightward, even) one
    assert maslov.potential == (1, 0)


def test_trefoil_indices_all_zero():
    assert crossing_indices(TREFOIL) == {1: 0, 2: 0, 3: 0}
    assert crossing_index(TREFOIL, 2) == 0


def test_stabilized_unknot_modulus():
    maslov = maslov_potential(STAB)
    assert maslov.modulus == 2
    assert all(0 <= mu < 2 for mu in maslov.potential)


def test_crossing_index_unknown_id():
    with pytest.raises(ValueError):
        crossing_index(UNKNOT, 1)
    # True and 1.0 hash like crossing id 1 but are not ids
    for crossing_id in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="has no crossing"):
            crossing_index(TREFOIL, crossing_id)


def test_even_index_iff_positive_crossing():
    for f in random_fronts(seed=14, count=40):
        inv = classical_invariants(f)
        for cid, index in crossing_indices(f).items():
            assert (index % 2 == 0) == (inv.crossing_signs[cid - 1] == 1)


def test_cusp_jump_and_even_right_hold():
    for f in random_fronts(seed=15, count=30):
        geom = sweep_geometry(f)
        cmap = components(f)
        maslov = maslov_potential(f)
        m = maslov.modulus
        for cusp in geom.cusps:
            jump = maslov.potential[cusp.upper_arc] - maslov.potential[cusp.lower_arc]
            assert (jump - 1) % m == 0 if m else jump == 1
        for arc, rightward in enumerate(cmap.arc_rightward):
            if rightward:
                assert maslov.potential[arc] % 2 == 0


def test_rightward_pairs_have_even_index():
    for f in random_fronts(seed=16, count=30):
        geom = sweep_geometry(f)
        cmap = components(f)
        for site, index in zip(geom.crossings, crossing_indices(f).values()):
            if cmap.arc_rightward[site.over_arc] and cmap.arc_rightward[site.under_arc]:
                assert index % 2 == 0


def test_sweep_record_matches_the_single_quantity_functions():
    for f in random_fronts(seed=41, count=150, max_crossings=9):
        reversals = [()] + ([(0,)] if components(f).num_components > 1 else [])
        for rev in reversals:
            sweep = sweep_front(f, rev)
            assert sweep.diagram is f
            assert sweep.geometry == sweep_geometry(f)
            left = [(c.upper_arc, c.lower_arc) for c in sweep.geometry.cusps if c.kind == "L"]
            assert left == [(a, a + 1) for a in range(0, sweep.geometry.num_arcs, 2)]
            assert sweep.components == components(f, rev)
            assert sweep.invariants == classical_invariants(f, rev)
            assert sweep.maslov == maslov_potential(f, rev)
            assert dict(enumerate(sweep.indices, start=1)) == crossing_indices(f, rev)


def test_an_anchor_on_the_fronts_own_record_keeps_each_reversal():
    # the seed rule flips and raises an anchored component as it does a default one
    seen = Counter()
    for f in random_fronts(seed=43, count=80, max_crossings=9):
        own = sweep_front(f)
        n = own.components.num_components
        for rev in [()] + [(c,) for c in range(n)]:
            assert _sweep_front(f, rev, (own, range(own.geometry.num_arcs))) == sweep_front(f, rev), (str(f), rev)
            seen["reversed link"] += n > 1 and bool(rev)
            seen["r != 0"] += own.maslov.modulus > 0
    assert min(seen.values()) >= 20, seen


def _arc_births(f):
    """(event index, birth height) per arc, read off the events: arcs 2j and
    2j + 1 are the upper and lower arcs of the j-th left cusp."""
    return [(i, ev.height + lower) for i, ev in enumerate(f.events) if ev.kind == "L" for lower in (0, 1)]


def _two_walk_maslov(f, rev=()):
    """Potential and indices by a second walk from each reference arc,
    anchored at 0 (1 when the arc runs leftward), reduced mod 2r."""
    sweep = sweep_front(f, rev)
    geom, cmap = sweep.geometry, sweep.components
    edges = [[] for _ in range(geom.num_arcs)]
    for cusp in geom.cusps:
        edges[cusp.lower_arc].append((cusp.upper_arc, +1))
        edges[cusp.upper_arc].append((cusp.lower_arc, -1))
    modulus = 2 * sweep.invariants.r
    births = _arc_births(f)
    potential = [None] * geom.num_arcs
    for c in range(cmap.num_components):
        members = [a for a, ca in enumerate(cmap.arc_component) if ca == c]
        rep = min(members, key=lambda a: (births[a][0], -births[a][1]))
        potential[rep] = 0 if cmap.arc_rightward[rep] else 1
        todo = [rep]
        while todo:
            a = todo.pop()
            for b, jump in edges[a]:
                if potential[b] is None:
                    potential[b] = potential[a] + jump
                    todo.append(b)
    reduce = lambda x: x % modulus if modulus else x
    potential = tuple(reduce(mu) for mu in potential)
    indices = tuple(reduce(potential[x.over_arc] - potential[x.under_arc]) for x in geom.crossings)
    return potential, indices


def test_one_walk_potential_matches_two_walks():
    seen = {"r != 0": 0, "reversed": 0, "r != 0, reversed": 0}
    for f in random_fronts(seed=43, count=300, max_crossings=12):
        n = components(f).num_components
        for rev in [()] + [(0,), (n - 1,)] * (n > 1):
            sweep = sweep_front(f, rev)
            assert (sweep.maslov.potential, sweep.indices) == _two_walk_maslov(f, rev), (str(f), rev)
            # each component's earliest-born bottommost arc runs rightward at
            # potential 0, or leftward at 1 when the component is reversed
            cmap, births = sweep.components, _arc_births(f)
            for c in range(n):
                members = [a for a, ca in enumerate(cmap.arc_component) if ca == c]
                ref = min(members, key=lambda a: (births[a][0], -births[a][1]))
                anchor = (False, 1) if c in rev else (True, 0)
                assert (cmap.arc_rightward[ref], sweep.maslov.potential[ref]) == anchor, (str(f), rev, c)
            seen["r != 0"] += sweep.maslov.modulus > 0
            seen["reversed"] += bool(rev)
            seen["r != 0, reversed"] += sweep.maslov.modulus > 0 and bool(rev)
    assert min(seen.values()) >= 20, seen


def test_sweep_front_rejects_invalid_front_and_unknown_component():
    with pytest.raises(ValueError, match="no such component"):
        sweep_front(TREFOIL, (1,))
    with pytest.raises(ValueError, match="invalid front"):
        sweep_front(front("L1 X2 R1"))


# -- connected sum ------------------------------------------------------------


def test_connected_sum_of_unknots_is_unknot():
    assert connected_sum(UNKNOT, UNKNOT).events == UNKNOT.events


def test_connected_sum_trefoils():
    both = connected_sum(TREFOIL, TREFOIL)
    assert validate(both).ok
    # the splice removes one left cusp of the second operand: 2 + 2 - 1
    assert both.num_left_cusps == 3
    assert both.num_right_cusps == 3
    inv = classical_invariants(both)
    assert inv.tb == 3


def test_connected_sum_tb_additivity():
    fronts_in_normal_form = [corpus.load(n) for n in corpus.corpus_names()]
    rng = random.Random(17)
    for _ in range(10):
        f1, f2 = rng.choice(fronts_in_normal_form), rng.choice(fronts_in_normal_form)
        tb1 = classical_invariants(f1).tb
        tb2 = classical_invariants(f2).tb
        assert classical_invariants(connected_sum(f1, f2)).tb == tb1 + tb2 + 1


def test_connected_sum_normal_form_errors():
    # a valid nonempty front always ends with R1 over two live strands, so
    # only the empty front can violate the splice normal form
    empty = front("", name="empty")
    assert validate(empty).ok
    with pytest.raises(NormalFormError):
        connected_sum(empty, UNKNOT)
    with pytest.raises(NormalFormError):
        connected_sum(UNKNOT, empty)


def test_connected_sum_rejects_an_invalid_operand():
    bad = front("L1 X2 R1", name="bad")
    for f1, f2 in ((bad, UNKNOT), (UNKNOT, bad)):
        with pytest.raises(InvalidFrontError, match="invalid front 'bad'"):
            connected_sum(f1, f2)


def test_unlink2_is_normal_form_operand():
    # ends with R1 on two strands, so it splices fine
    composite = connected_sum(UNLINK2, TREFOIL)
    assert validate(composite).ok
    assert components(composite).num_components == 2


def test_odd_tb_parity_examples():
    for name, f in (("unknot", UNKNOT), ("stab", STAB), ("trefoil", TREFOIL)):
        inv = classical_invariants(f)
        assert (inv.tb + inv.r) % 2 == 1, name


def test_math_gcd_of_rotations():
    inv = classical_invariants(UNLINK2)
    assert inv.rot_per_component == (0, 0)
    assert inv.r == 0
    assert math.gcd(0, 0) == 0
