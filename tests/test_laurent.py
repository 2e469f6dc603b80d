import pytest
from hypothesis import given, strategies as st

from legfronts.laurent import VZPoly, ZPoly, conway, profile


def zpolys():
    return st.builds(
        ZPoly,
        st.dictionaries(
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-9, max_value=9),
            max_size=5,
        ),
    )


def vzpolys():
    return st.builds(
        VZPoly,
        st.dictionaries(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=-5, max_value=5),
            ),
            st.integers(min_value=-9, max_value=9),
            max_size=5,
        ),
    )


def _convolve(t1, t2):
    # independent reference for multiplication
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_basic_identities():
    z2_plus_2 = ZPoly({2: 1, 0: 2})
    assert z2_plus_2 * ZPoly(1) == z2_plus_2
    assert z2_plus_2.coefficient(1) == 0
    assert ZPoly().terms == VZPoly().terms == {}
    zpm = ZPoly({1: 1, -1: 1})
    assert zpm * zpm == ZPoly({2: 1, 0: 2, -2: 1})


@given(zpolys(), zpolys())
def test_mul_commutes_and_matches_convolution(p, q):
    assert p * q == q * p
    assert (p * q).terms == _convolve(p.terms, q.terms)


@pytest.mark.parametrize("polys", [zpolys, vzpolys], ids=["ZPoly", "VZPoly"])
@given(data=st.data())
def test_ring_laws(polys, data):
    p, q, r = (data.draw(polys()) for _ in range(3))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == p - p == type(p)(0)


@given(zpolys())
def test_canonical_form_has_no_zero_coefficients(p):
    assert all(c != 0 for c in p.terms.values())
    assert (p + (-p)).terms == {}


@given(zpolys(), vzpolys(), st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_shift_is_monomial_multiplication(p, q, k, j):
    assert p.shifted(k) == p * ZPoly.monomial(1, k)
    assert q.shifted(k, j) == q * VZPoly.monomial(1, k, j)


def test_coefficient_of_v_examples():
    # the right trefoil Homfly polynomial, sliced at v^(tb+1) = v^2
    p = VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})
    assert p.coefficient_of_v(2) == ZPoly({2: 1, 0: 2})
    assert p.coefficient_of_v(-3) == ZPoly(0)
    unlink = VZPoly({(-1, -1): 1, (1, -1): -1})
    assert unlink.coefficient_of_v(-1) == ZPoly({-1: 1})


def test_profile_examples():
    trefoil = VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})
    prof = profile(trefoil)
    assert (prof.e, prof.M) == (2, 2)
    assert prof.Q == ZPoly({2: 1, 0: 2})

    unknot = profile(VZPoly(1))
    assert (unknot.e, unknot.M, unknot.Q) == (0, 0, ZPoly(1))

    with pytest.raises(ValueError):
        profile(VZPoly(0))


@given(vzpolys().filter(bool), st.integers(min_value=-3, max_value=3))
def test_profile_shifts_with_v_monomials(p, k):
    base = profile(p)
    moved = profile(p * VZPoly.monomial(1, k, 0))
    assert moved.e == base.e + k
    assert moved.M == base.M
    assert moved.Q == base.Q


def test_conway_examples():
    assert conway(VZPoly(1)) == ZPoly(1)
    trefoil = VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})
    assert conway(trefoil) == ZPoly({2: 1, 0: 1})
    unlink = VZPoly({(-1, -1): 1, (1, -1): -1})
    assert conway(unlink) == ZPoly(0)


def test_json_rendering_sorted():
    p = VZPoly({(1, 2): 3, (-1, 0): 1, (1, -2): -2})
    assert p.to_terms() == [
        {"v": -1, "z": 0, "c": 1},
        {"v": 1, "z": -2, "c": -2},
        {"v": 1, "z": 2, "c": 3},
    ]
    q = ZPoly({-1: 1, 2: -4})
    assert q.to_terms() == [{"z": -1, "c": 1}, {"z": 2, "c": -4}]


def test_text_rendering():
    assert str(ZPoly({2: 1, 0: 2})) == "z^2 + 2"
    assert str(VZPoly({(2, 2): 1, (2, 0): 2, (4, 0): -1})) == "-v^4 + v^2 z^2 + 2 v^2"
    assert str(ZPoly(0)) == "0"


def test_power():
    assert ZPoly({2: 1, 0: 2}) ** 2 == ZPoly({4: 1, 2: 4, 0: 4})
    assert VZPoly({(1, 1): 1}) ** 0 == VZPoly(1)
    with pytest.raises(ValueError):
        ZPoly(1) ** -1


@given(st.integers(min_value=-10**20, max_value=10**20))
def test_a_constant_hashes_as_the_int_it_equals(c):
    for poly in (ZPoly(c), VZPoly(c)):
        assert poly == c and hash(poly) == hash(c)
        assert {c: "int"}.get(poly) == "int"
        assert {poly: "poly"}.get(c) == "poly"
    assert hash(ZPoly(0)) == hash(VZPoly({})) == hash(0)
    # a non-constant polynomial still hashes by its terms
    assert hash(ZPoly({1: 3})) == hash(ZPoly({1: 3}))
    assert len({ZPoly({1: 3}), ZPoly({1: 3}), ZPoly(3), 3}) == 2



def test_exponents_must_be_ints():
    with pytest.raises(TypeError, match="expected an integer, got float"):
        ZPoly({0.5: 1})
    with pytest.raises(TypeError, match="expected an integer, got float"):
        VZPoly({(0, 1.0): 1})


@pytest.mark.parametrize("cls", [ZPoly, VZPoly])
def test_foreign_operands_raise_type_error(cls):
    p = cls(1)
    for foreign in (1.5, "1", None, ZPoly(1) if cls is VZPoly else VZPoly(1)):
        # equal to none of them, the other type's constant 1 included
        assert p.__eq__(foreign) is NotImplemented and p != foreign
        for combine in (
            lambda: p + foreign, lambda: foreign + p, lambda: p - foreign,
            lambda: foreign - p, lambda: p * foreign, lambda: foreign * p,
        ):
            with pytest.raises(TypeError):
                combine()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        assert name in cls.__dict__ and cls.__dict__[name](p, 1.5) is NotImplemented


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
def test_int_operands_mix_on_either_side(a, b):
    for cls in (ZPoly, VZPoly):
        p = cls(a)
        assert p + b == b + p == cls(a + b)
        assert p - b == cls(a - b) and b - p == cls(b - a)
        assert p * b == b * p == cls(a * b)
