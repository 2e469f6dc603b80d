"""Reference skein recursions for tests: the raw descending-diagram loops.

These expand every node by the skein relation without simplifying the
diagram and multiply a full ``VZPoly`` per node.  They run on
``tuple_reference.TupleDiagram``'s dict moves, so they share no move with
the flat kernel of ``legfronts.diagram``.  They are slow but
straightforward, so the property tests compare ``legfronts.skein.homfly``
and ``kauffman_dubrovnik`` against them.
"""

import tuple_reference
from legfronts.laurent import VZPoly
from legfronts.skein import (
    DEFAULT_MAX_CROSSINGS,
    DUBROVNIK_DELTA,
    HOMFLY_DELTA,
    LinkDiagram,
    ResourceLimitError,
)
from tuple_reference import TupleDiagram


def homfly(
    d: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> VZPoly:
    if not d.is_oriented:
        raise ValueError("Homfly needs an oriented diagram")
    if d.num_crossings > max_crossings:
        raise ResourceLimitError(
            f"{d.num_crossings} crossings exceed the ceiling of {max_crossings}"
        )
    total = VZPoly(0)
    stack: list[tuple[TupleDiagram, VZPoly]] = [(TupleDiagram.of(d), VZPoly(1))]
    while stack:
        cur, coeff = stack.pop()
        bad = cur.first_bad_crossing()
        if bad is None:
            n = cur.num_components()
            total = total + coeff * HOMFLY_DELTA ** (n - 1)
            continue
        switched = cur.switched(bad)
        smoothed = cur.smoothed_oriented(bad)
        if cur.sign(bad) > 0:
            # P(L+) = v^2 P(L-) + v z P(L0)
            stack.append((switched, coeff * VZPoly.monomial(1, 2, 0)))
            stack.append((smoothed, coeff * VZPoly.monomial(1, 1, 1)))
        else:
            # P(L-) = v^{-2} P(L+) - v^{-1} z P(L0)
            stack.append((switched, coeff * VZPoly.monomial(1, -2, 0)))
            stack.append((smoothed, coeff * VZPoly.monomial(-1, -1, 1)))
    return total


def kauffman_dubrovnik(
    d: LinkDiagram,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> VZPoly:
    if not d.is_oriented:
        raise ValueError("the writhe normalization needs an oriented input diagram")
    if d.num_crossings > max_crossings:
        raise ResourceLimitError(
            f"{d.num_crossings} crossings exceed the ceiling of {max_crossings}"
        )
    w0 = d.writhe()
    z = VZPoly.monomial(1, 0, 1)
    total = VZPoly(0)
    stack: list[tuple[TupleDiagram, VZPoly]] = [(TupleDiagram.of(d).unoriented(), VZPoly(1))]
    while stack:
        cur, coeff = stack.pop()
        bad = cur.first_bad_crossing()
        if bad is None:
            wl, walks = tuple_reference.leaf(cur)
            n = walks + cur.loops
            leaf = VZPoly.monomial(1, -wl, 0) * DUBROVNIK_DELTA ** (n - 1)
            total = total + coeff * leaf
            continue
        switched = cur.switched(bad)
        smooth_a, smooth_b = cur.smoothings_unoriented(bad)
        # with ports in CCW order, over on (0,2) plays the role of L+
        # relative to the smoothing labels (L0 joins (1,2)/(0,3))
        si = 1 if cur.crossings[bad].over02 else -1
        stack.append((switched, coeff))
        stack.append((smooth_a, coeff * z * si))
        stack.append((smooth_b, coeff * z * (-si)))
    return VZPoly.monomial(1, w0, 0) * total
