"""The paper's bound for homogeneous knots, checked on 4-plat fronts.

Run from the repository root:

    PYTHONPATH=src python tests/plat_genus.py        # words of up to 12 letters
    PYTHONPATH=src python tests/plat_genus.py 10

A 4-plat front is ``L1 L3 w R1 R1`` for a word w over X1, X2 and X3.  A
front's x-coordinate is a height function with one minimum per left
cusp, so a knot with such a front has bridge number at most 2 (Schubert,
Math. Z. 1956): it is 2-bridge or the unknot, so alternating
(Burde-Zieschang, *Knots*, ch. 12), and its genus is g = deg Delta / 2
(Crowell, Annals 1959; Murasugi, J. Math. Soc. Japan 1958), which is
half the z-degree of its Conway polynomial.  For every knot front with a
2-graded ruling, the census's largest 2-graded ruling genus must be at
most g; the two sides come from the ruling sweep and the skein tree.

The script prints the counts of knot fronts, of those with a 2-graded
ruling and of violations, and how often g exceeds the ruling genus by
each amount.  ``tests/test_paper.py`` runs the same check up to 8
letters; pytest does not collect this file.
"""

import sys
import time
from collections import Counter
from itertools import product

from legfronts.fronts import front
from legfronts.laurent import conway
from legfronts.rulings import census
from legfronts.skein import front_to_diagram, homfly


def plat_genus_counts(max_letters: int) -> tuple[int, int, list[str], Counter]:
    """(knot fronts, those with a 2-graded ruling, the violating fronts,
    g - ruling genus -> fronts) over the words of at most ``max_letters``."""
    knots, ruled, violations, gaps = 0, 0, [], Counter()
    for n in range(max_letters + 1):
        for word in product(("X1", "X2", "X3"), repeat=n):
            f = front(" ".join(("L1 L3", *word, "R1 R1")))
            cens = census(f)
            knots += cens.is_knot
            genus = cens.max_genus("two_graded")
            if genus is None:  # a link, or no 2-graded ruling
                continue
            ruled += 1
            g = conway(homfly(front_to_diagram(f), max_crossings=n)).degree() // 2
            if genus > g:
                violations.append(str(f))
            gaps[g - genus] += 1
    return knots, ruled, violations, gaps


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    max_letters = int(args[0]) if args else 12
    start = time.perf_counter()
    knots, ruled, violations, gaps = plat_genus_counts(max_letters)
    print(f"words of at most {max_letters} letters: {knots} knot fronts, {ruled} with a 2-graded ruling, "
          f"{len(violations)} violations, {time.perf_counter() - start:.1f} s")
    print("g - ruling genus:", ", ".join(f"{gap}: {count}" for gap, count in sorted(gaps.items())))
    for f in violations:
        print("violation:", f)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
