"""Walkthrough: two independent hom engines agree on A_2.

The abelian route knits the mesh category of ZA_2: Hom and Ext^1 between
the indecomposable modules are read off its dimension vectors, with no
linear algebra, and expanded into the derived-category shift-graph.  The
homotopy route never sees a module: it takes projective resolutions and
measures chain maps modulo homotopy, by ranks over GF(p).  The resulting
graphs coincide edge for edge.

Run:  python demos/03_cross_engine.py
"""

from derhed import gen_example_a2
from derhed.generators import gen_a2_from_complexes

abelian, _ = gen_example_a2()
homotopy = gen_a2_from_complexes(window=2)


def table(g):
    return {k: tuple((e.weight, e.dim, e.all_iso) for e in v)
            for k, v in sorted(g.homs.items())}


print("abelian engine  :", abelian.name)
print("homotopy engine :", homotopy.name)
print()
ta, th = table(abelian), table(homotopy)
for key in sorted(set(ta) | set(th)):
    match = "==" if ta.get(key) == th.get(key) else "!="
    print(f"  {key}: {ta.get(key)} {match} {th.get(key)}")

assert ta == th
print("\nAll hom edges agree.")
