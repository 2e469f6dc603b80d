"""Seeded front families used by the benchmark workloads.

Every generator takes the imported ``legfronts`` package as its first
argument and builds fronts only through its public API (``front`` and
``connected_sum``), so the program under test sees nothing but the
generated fronts.  Randomness comes from a ``random.Random`` the caller
seeds; the same seed always gives the same fronts.
"""

from __future__ import annotations


def torus(lf, n: int):
    """The maximal-tb (2, n) torus front ``L1 L3 X2^n R1 R1``."""
    return lf.front("L1 L3 " + "X2 " * n + "R1 R1", name=f"T(2,{n})")


def hopf(lf):
    return lf.front("L1 L2 X1 X3 R2 R1", name="hopf")


def unknot(lf):
    return lf.front("L1 R1", name="unknot")


def chain(lf, factors):
    """Left-to-right connected sum of fronts in splice normal form; the
    result is named ``a#b#c`` after its factors."""
    out = factors[0]
    for f in factors[1:]:
        out = lf.connected_sum(out, f)
    return out


def power(lf, f, k: int):
    """The k-fold connected sum f # ... # f."""
    return chain(lf, [f] * k)


def random_front(lf, rng, name: str, max_events: int, max_strands: int):
    """A front that is valid by construction: a random walk over events
    that keeps the live strand count between 0 and ``max_strands`` and
    closes every strand by ``max_events``.  It may be a knot or a link."""
    tokens = []
    n = 0
    while True:
        if n == 0:
            if tokens and (len(tokens) >= max_events or rng.random() < 0.35):
                break
            tokens.append("L1")
            n = 2
            continue
        if len(tokens) >= max_events:
            kind = "R"
        elif n >= max_strands:
            kind = rng.choice("RRXXX")
        else:
            kind = rng.choice("LRXX")
        if kind == "L":
            k = rng.randint(1, n + 1)
            n += 2
        elif kind == "R":
            k = rng.randint(1, n - 1)
            n -= 2
        else:
            k = rng.randint(1, n - 1)
        tokens.append(f"{kind}{k}")
    return lf.front(" ".join(tokens), name=name)


def random_fronts(lf, rng, prefix: str, min_crossings: int, max_crossings: int,
                  max_events: int, max_strands: int):
    """Endless stream of random fronts whose crossing count lies in
    [min_crossings, max_crossings], named ``<prefix><i>``."""
    i = 0
    while True:
        f = random_front(lf, rng, f"{prefix}{i}", max_events, max_strands)
        if min_crossings <= f.num_crossings <= max_crossings:
            yield f
            i += 1
