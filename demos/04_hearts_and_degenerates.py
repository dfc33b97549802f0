"""Walkthrough: hearts as coordinate systems, truncation, and the two
degenerate block shapes.

Run:  python demos/04_hearts_and_degenerates.py
"""

from collections import Counter

from derhed import (ObjRef, check_hereditary, classify_degenerate, cohomology,
                    directing_objects, gen_dynkin_an, gen_semisimple_block,
                    truncate)

graph = gen_dynkin_an(3, ">>")
block = sorted(graph.orbit_ids())
result = check_hereditary(graph, block)
heart = result.heart
print("A_3 heart offsets:", heart.offsets)

# A formal object splits along the heart into shifted cohomologies.
obj = Counter({ObjRef("M1_1", 2): 1, ObjRef("M1_3", 0): 2, ObjRef("M2_2", -1): 1})
print("\nFormal object:", {f"{r.orbit}[{r.offset}]": m for r, m in obj.items()})
for degree, part in cohomology(heart, obj).items():
    print(f"  H^{degree}:", {f"{r.orbit}[{r.offset}]": m for r, m in part.items()})

low = truncate(heart, obj, 0, "le")
high = truncate(heart, obj, 1, "ge")
print("tau<=0 + tau>=1 reassembles the object:", low + high == obj)

print("\nDirecting orbits of A_3:", sorted(directing_objects(graph)))

# Degenerate blocks: a single orbit whose every nonzero morphism is
# invertible.  Periodic ones are never hereditary.
ss = gen_semisimple_block(period=2, end_dim=1)
print("\nSemisimple block with X = X[2]:",
      classify_degenerate(ss, ["X"]).to_dict())
print("Verdict:", check_hereditary(ss, ["X"]).verdict)
