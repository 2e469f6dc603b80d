"""Enumerate the normal rulings of a front and their genus bookkeeping.

A ruling picks a set of switches so the front falls apart into eyes;
theta = eyes - switches is the Euler characteristic of the associated
surface, and for 2-graded rulings of knots the genus is (1 - theta)/2.
"""

from legfronts import census, corpus, enumerate_rulings, front

trefoil = corpus.load("trefoil")
print("rulings of the maximal-tb trefoil front:")
for r in enumerate_rulings(trefoil):
    print(f"   switches={list(r.switches)!s:12s} theta={r.theta:2d} genus={r.genus} {r.grading}")
print("ruling polynomial (2-graded):", census(trefoil).polynomials["two_graded"])

print()
stab = corpus.load("stabilized_unknot")
print("the stabilized unknot is not maximal-tb, so it has", len(enumerate_rulings(stab)), "rulings")

print()
torus = corpus.load("51")
cens = census(torus)
print("5_1 census:", cens.count("two_graded"), "two-graded rulings, by genus:",
      sorted(r.genus for r in enumerate_rulings(torus, "two_graded")))
print("   polynomial:", cens.polynomials["two_graded"], " (the z^4 term is the genus-2 ruling)")

print()
print("orientations matter for links: the same Hopf front, two orientations")
hopf = front("L1 L2 X1 X3 R2 R1", name="hopf")
for rev in ((), (1,)):
    cens = {cls: len(enumerate_rulings(hopf, cls, rev)) for cls in ("ungraded", "two_graded", "z_graded")}
    print(f"   reversed components {list(rev)}: counts {cens}")
