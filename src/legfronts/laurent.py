"""Exact Laurent-polynomial arithmetic for link invariants.

Everything downstream works in the ring Z[v^{+-1}, z^{+-1}]: coefficients
are plain Python integers and all identities are checked with zero
tolerance.  ``ZPoly`` is the one-variable (z) flavor, keyed by int
exponents, ``VZPoly`` the two-variable (v, z) one, keyed by exponent
pairs.  Both keep a canonical sparse form, zero coefficients are never
stored, so equality is plain dict equality.

The private base ``_Laurent`` writes once each ring operation that never
reads inside a key: truth, equality, hashing, negation, sums, differences,
powers and ``repr``.  Each builds with ``type(self)``, takes a plain int as
a constant, and returns ``NotImplemented`` for anything else, the other
flavor included.  A flavor keeps its checked constructor, ``monomial``,
product loop, ``shifted``, ``to_terms``, rendering and degree read-outs.

Degree conventions used throughout the package:

* ``min_v_degree`` of a nonzero two-variable polynomial is the exponent
  ``e`` of the smallest power of v that occurs anywhere.
* ``profile`` packages ``e`` together with ``M``, the largest z-exponent
  among the ``v^e`` monomials, and ``Q``, the one-variable slice at ``v^e``.
* Substituting v = 1 collapses a two-variable polynomial to ``ZPoly``;
  applied to a Homfly polynomial this yields the Conway polynomial.
"""

from typing import NamedTuple


def _as_int(x):
    if not isinstance(x, int):
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


class _Laurent:
    """The ring operations of both flavors; ``_ONE`` keys the constant term."""

    __slots__ = ("terms",)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = type(self)(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as one; zero included
        if self.terms.keys() <= {self._ONE}:
            return hash(self.terms.get(self._ONE, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        cls = type(self)
        if not isinstance(other, cls):
            if not isinstance(other, int):
                return NotImplemented
            other = cls(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return cls(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (type(self), int)) else NotImplemented

    def __rsub__(self, other):
        return type(self)(other) - self if isinstance(other, int) else NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = type(self)(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"

    # bound in each flavor's own body, as bench/tracer.py wraps them there (FOUND 20, CHANGES.md)
    _TRACED = __neg__, __add__, __radd__, __sub__, __rsub__, __pow__


class ZPoly(_Laurent):
    """Laurent polynomial in z with integer coefficients."""

    __slots__ = ()
    _ONE = 0
    __neg__, __add__, __radd__, __sub__, __rsub__, __pow__ = _Laurent._TRACED

    def __init__(self, terms: dict[int, int] | int = 0):
        if isinstance(terms, int):
            terms = {0: terms} if terms else {}
        self.terms = {_as_int(e): c for e, c in terms.items() if c}

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "ZPoly":
        return cls({exp: coeff})

    def __mul__(self, other) -> "ZPoly":
        if isinstance(other, int):
            other = ZPoly(other)
        if not isinstance(other, ZPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return ZPoly(out)

    __rmul__ = __mul__

    def shifted(self, dz: int) -> "ZPoly":
        """Multiply by the monomial z**dz."""
        return ZPoly({e + dz: c for e, c in self.terms.items()})

    def degree(self) -> int | None:
        """Largest z-exponent, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def coefficient(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def to_terms(self) -> list[dict[str, int]]:
        """JSON-friendly term list, sorted by exponent."""
        return [{"z": e, "c": self.terms[e]} for e in sorted(self.terms)]

    def __str__(self) -> str:
        return _render([((e,), c) for e, c in self.terms.items()], ("z",))


class VZPoly(_Laurent):
    """Laurent polynomial in v and z with integer coefficients."""

    __slots__ = ()
    _ONE = (0, 0)
    __neg__, __add__, __radd__, __sub__, __rsub__, __pow__ = _Laurent._TRACED

    def __init__(self, terms: dict[tuple[int, int], int] | int = 0):
        if isinstance(terms, int):
            terms = {(0, 0): terms} if terms else {}
        self.terms = {
            (_as_int(ev), _as_int(ez)): c for (ev, ez), c in terms.items() if c
        }

    @classmethod
    def monomial(cls, coeff: int, ev: int, ez: int) -> "VZPoly":
        return cls({(ev, ez): coeff})

    def __mul__(self, other) -> "VZPoly":
        if isinstance(other, int):
            other = VZPoly(other)
        if not isinstance(other, VZPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (v1, z1), c1 in self.terms.items():
            for (v2, z2), c2 in other.terms.items():
                k = (v1 + v2, z1 + z2)
                out[k] = out.get(k, 0) + c1 * c2
        return VZPoly(out)

    __rmul__ = __mul__

    def shifted(self, dv: int, dz: int) -> "VZPoly":
        """Multiply by the monomial v**dv z**dz."""
        return VZPoly({(ev + dv, ez + dz): c for (ev, ez), c in self.terms.items()})

    def coefficient_of_v(self, k: int) -> ZPoly:
        """The z-polynomial multiplying v**k."""
        return ZPoly({ez: c for (ev, ez), c in self.terms.items() if ev == k})

    def min_v_degree(self) -> int | None:
        return min(ev for ev, _ in self.terms) if self.terms else None

    def max_z_degree(self) -> int | None:
        return max(ez for _, ez in self.terms) if self.terms else None

    def to_terms(self) -> list[dict[str, int]]:
        """JSON-friendly term list, sorted by (v, z) exponent."""
        return [{"v": ev, "z": ez, "c": self.terms[(ev, ez)]} for ev, ez in sorted(self.terms)]

    def __str__(self) -> str:
        return _render(list(self.terms.items()), ("v", "z"))


class HomflyProfile(NamedTuple):
    """The degree data the v^e slice of a two-variable polynomial carries.

    e is the minimum v-degree, M the maximum z-degree among v^e monomials,
    and Q the one-variable slice at v^e.
    """

    e: int
    M: int
    Q: ZPoly


def profile(p: VZPoly) -> HomflyProfile:
    """Extract (e, M, Q) from a nonzero two-variable polynomial."""
    if not p:
        raise ValueError("the zero polynomial has no degree profile")
    e = p.min_v_degree()
    M = max(ez for (ev, ez) in p.terms if ev == e)
    return HomflyProfile(e=e, M=M, Q=p.coefficient_of_v(e))


def conway(p: VZPoly) -> ZPoly:
    """Collapse a Homfly polynomial to the Conway polynomial via v = 1."""
    out: dict[int, int] = {}
    for (_, ez), c in p.terms.items():
        out[ez] = out.get(ez, 0) + c
    return ZPoly(out)


def _render(terms, names) -> str:
    if not terms:
        return "0"
    parts = []
    for exps, coeff in sorted(terms, reverse=True):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        body = " ".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag} {body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)
