"""Build front diagrams and read off their classical invariants.

A front is a left-to-right event list: L k opens a cusp at height k,
R k closes one, X k crosses the strands at heights k and k+1.
"""

from legfronts import corpus, front, sweep_front, validate

unknot = front("L1 R1", name="unknot")
trefoil = corpus.load("trefoil")
bad = front("L1 R2", name="broken")

print("events of the trefoil front:", trefoil)
print("valid?", validate(trefoil).ok)
print("an invalid front reports where it breaks:")
for violation in validate(bad).violations:
    print("   event", violation.event_index, "->", violation.message)

print()
for f in (unknot, corpus.load("stabilized_unknot"), trefoil, corpus.load("unlink2")):
    s = sweep_front(f)
    print(f"{f.name:18s} components={s.num_components} tb={s.tb:3d} "
          f"writhe={s.writhe:3d} rotations={list(s.rot_per_component)} r={s.r}")

print()
print("Maslov data of the trefoil front (all crossings have index 0,")
print("which is why every one of its rulings is Z-graded):")
s = sweep_front(trefoil)
print("   modulus 2r =", s.modulus)
print("   potential per arc:", list(s.potential))
print("   crossing indices:", dict(enumerate(s.indices, start=1)))
