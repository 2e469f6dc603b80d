"""The paper's first claim, checked on the ruling surfaces themselves.

Run from the repository root:

    PYTHONPATH=src python tests/ruling_surfaces.py        # 1,500 fronts of each kind
    PYTHONPATH=src python tests/ruling_surfaces.py 300

The surface of a normal ruling is one disk per eye, joined at each
switch by a half-twisted band.  ``ruling_surface`` builds it from the
front's events and the switch set alone, without the grading: it walks
the events with an eye id at each height, a left cusp opening an eye, a
crossing without a switch swapping the eye ids of its two heights, a
switch joining its two eyes by a band and a right cusp closing an eye.
Orient the disks in the plane of the front: a band keeps the orientation
across it when the two eyes are nested in that slice and reverses it
when they are disjoint, as the normality condition allows no other
position.  A union-find with the parity of each eye against its root
gives k, the number of pieces, and whether some cycle of bands is odd,
which makes the surface non-orientable.

A surface with k pieces, Euler characteristic theta = eyes - switches
and b boundary circles, one per component of the front, has genus
(2k - theta - b) / 2 when it is orientable.  The paper's first claim is
that a knot's ruling is 2-graded exactly when its surface is orientable;
its surface is then connected, and its genus is ``Ruling.genus``.  On
links a 2-graded ruling is orientable, but so are some ungraded-only
ones, whose ``orientable`` the listing leaves None.

The script prints the counts that ``surface_counts`` returns on the
corpus, ``random_fronts(seed=11)`` and as many fronts
``ruled_random_front(Random(11), 20, 8)``; ``tests/test_paper.py`` runs
the same check on a smaller set, and pytest does not collect this file.
"""

import random
import sys
import time

from conftest import random_fronts, ruled_random_front
from legfronts import corpus
from legfronts.fronts import FrontDiagram, sweep_front
from legfronts.rulings import GradingClass, enumerate_rulings


def ruling_surface(diagram: FrontDiagram, switches) -> tuple[bool, int]:
    """(orientable, pieces) of the surface of the ruling with these switch ids."""
    up, flip = [], []  # per eye: its parent in the union-find and its parity against it
    pieces, orientable, switched = 0, True, set(switches)

    def find(e: int) -> tuple[int, int]:
        parity = 0
        while up[e] != e:
            parity ^= flip[e]
            e = up[e]
        return e, parity

    eye_at, cid = [], 0  # eye_at[h]: the eye of the strand at height h + 1
    for kind, k in diagram.events:
        h = k - 1
        if kind == "L":
            eye_at[h:h] = [len(up)] * 2
            up.append(len(up))
            flip.append(0)
            pieces += 1
        elif kind == "R":
            assert eye_at[h] == eye_at[h + 1], "a right cusp closes one eye"
            del eye_at[h : h + 2]
        else:
            cid += 1
            a, b = eye_at[h], eye_at[h + 1]
            assert a != b, "the two arcs of one eye never meet at a crossing"
            if cid not in switched:
                eye_at[h], eye_at[h + 1] = b, a
                continue
            (lo_a, hi_a), (lo_b, hi_b) = ([i for i, x in enumerate(eye_at) if x == e] for e in (a, b))
            nested = lo_a < lo_b < hi_b < hi_a or lo_b < lo_a < hi_a < hi_b
            assert nested or hi_a < lo_b or hi_b < lo_a, "a switch of a normal ruling"
            (ra, pa), (rb, pb) = find(a), find(b)
            parity = pa ^ pb ^ (not nested)
            if ra == rb:
                orientable &= parity == 0
            else:
                up[ra], flip[ra] = rb, parity
                pieces -= 1
    return orientable, pieces


# the counts a ruling can fall in; those after the first three contradict a claim
KEYS = (
    "knot rulings",
    "link rulings",
    "ungraded-only orientable link rulings",
    "knot rulings against the claim",
    "2-graded non-orientable link rulings",
    "orientable with no genus",
)


def surface_counts(fronts) -> dict[str, int]:
    """The rulings of the fronts, each in the default orientation, counted
    by what their surfaces show, under ``KEYS``."""
    counts = dict.fromkeys(KEYS, 0)
    for f in fronts:
        b = sweep_front(f).num_components
        for ruling in enumerate_rulings(f):
            orientable, pieces = ruling_surface(f, ruling.switches)
            two_graded = ruling.grading is not GradingClass.UNGRADED_ONLY
            genus, odd = divmod(2 * pieces - ruling.theta - b, 2)
            if orientable and (odd or genus < 0):
                counts["orientable with no genus"] += 1
            if b > 1:
                counts["link rulings"] += 1
                counts["ungraded-only orientable link rulings"] += orientable and not two_graded
                counts["2-graded non-orientable link rulings"] += two_graded and not orientable
                continue
            counts["knot rulings"] += 1
            wrong = orientable != two_graded or pieces != 1 or two_graded and genus != ruling.genus
            counts["knot rulings against the claim"] += wrong
    return counts


def sample_fronts(count: int) -> list[FrontDiagram]:
    """The corpus, ``count`` seeded random fronts and ``count`` seeded fronts with a ruling."""
    rng = random.Random(11)
    return [
        *map(corpus.load, corpus.corpus_names()),
        *random_fronts(seed=11, count=count),
        *(ruled_random_front(rng, 20, 8) for _ in range(count)),
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    count = int(args[0]) if args else 1500
    start = time.perf_counter()
    counts = surface_counts(sample_fronts(count))
    print(f"corpus, {count} random and {count} ruled fronts, {time.perf_counter() - start:.1f} s")
    for key, n in counts.items():
        print(f"  {key}: {n}")
    return 1 if any(counts[key] for key in KEYS[3:]) else 0


if __name__ == "__main__":
    sys.exit(main())
