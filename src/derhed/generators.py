"""Trusted generators of genuine shift-graph instances.

The abelian route knits the mesh category of ZQ for an A_n quiver Q (any
orientation).  One knitting gives the indecomposable modules with their
dimension vectors, and the vectors give every Hom and, by the
Auslander-Reiten formula, every Ext^1 dimension exactly, with no linear
algebra; expand_hereditary expands the tables to the derived-category
shift-graph.  The GF(p) Hom systems of quiver.Representation are the
tests' check on it.  The homotopy route builds perfect complexes over a
monomial algebra and measures homs in the homotopy category; the dual
numbers are its canonical non-hereditary instance.  Its functions import
complexes when called, and gen_example_a2 imports hereditary for its
Heart, so the abelian route loads neither.
"""

from __future__ import annotations

from graphlib import TopologicalSorter
from typing import TYPE_CHECKING, NamedTuple

from .linalg import DEFAULT_FIELD, PrimeField
from .quiver import Arrow, MonomialAlgebra, Quiver
from .shiftgraph import DEFAULT_PRIME, HomEdge, Orbit, ShiftGraph

if TYPE_CHECKING:
    from .complexes import ProjComplex
    from .hereditary import Heart


def _an_quiver(n: int, orientation: str) -> Quiver:
    if not 2 <= n <= 8:
        raise ValueError("n must be between 2 and 8")
    if len(orientation) != n - 1:
        raise ValueError(f"orientation word must have length {n - 1}")
    arrows = []
    for i, ch in enumerate(orientation, start=1):
        if ch == ">":
            arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        elif ch == "<":
            arrows.append(Arrow(f"a{i}", str(i + 1), str(i)))
        else:
            raise ValueError(f"orientation characters must be > or <, got {ch!r}")
    return Quiver(tuple(str(v) for v in range(1, n + 1)), tuple(arrows))


def _knit(quiver: Quiver) -> dict[tuple[str, int], tuple[int, ...]]:
    """The vector (h_i(z))_i of each object z of ZQ^op with h_i(z) = dim
    Hom(P_i, z) != 0 for some vertex i of the Dynkin quiver Q, in slice
    order, all from one knitting with no linear algebra (Ringel 1984, LNM
    1099).

    D^b(kQ) is the mesh category of ZQ (Happel 1987), written here as
    ZQ^op: an arrow s -> t of Q gives arrows (t, k) -> (s, k) and
    (s, k) -> (t, k + 1), tau (v, k) = (v, k - 1), and P_v = (v, 0).  The
    objects returned are the indecomposable modules, and each vector is a
    dimension vector, as dim Hom(P_i, M) = dim M_i.  The vectors are
    knitted one slice k at a time, coordinate by coordinate, by h(z) =
    max(0, sum_{y -> z} h(y) - h(tau z)) with the 1 of P_i at (i, 0), each
    slice ordered so that every arrow's target comes before its source.  A
    coordinate that reaches a zero slice stays zero, and the knitting ends
    at the first slice that is zero in every coordinate.  tau is an
    automorphism of ZQ, so Hom((i, k), (j, l)) = h_i(j, l - k) for every
    pair of objects.

    RuntimeError when a value exceeds 6, the largest coefficient of a
    positive root: on any other connected acyclic quiver the knitting would
    never end.  An oriented cycle raises graphlib's CycleError."""
    out_of: dict[str, list[str]] = {v: [] for v in quiver.vertices}
    into: dict[str, list[str]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        out_of[a.source].append(a.target)
        into[a.target].append(a.source)
    # the slice order: Q's sinks first, then each vertex once its targets are in
    order = list(TopologicalSorter(out_of).static_order())
    vertices = quiver.vertices
    index = {v: i for i, v in enumerate(vertices)}
    zero = (0,) * len(vertices)
    vectors: dict[tuple[str, int], tuple[int, ...]] = {}
    k, prev = 0, dict.fromkeys(order, zero)
    while True:
        cur: dict[str, tuple[int, ...]] = {}
        for v in order:
            # the sum of the middle terms of the mesh from (v, k - 1) to
            # (v, k): (t, k) for v -> t and (s, k - 1) for s -> v, the arrows
            # out of (v, k - 1) and into (v, k)
            mid = map(sum, zip(zero, *[cur[t] for t in out_of[v]],
                               *[prev[s] for s in into[v]]))
            vec = [m - x if m > x else 0 for m, x in zip(mid, prev[v])]
            if not k:
                vec[index[v]] = 1
            cur[v] = tuple(vec)
        top = max(map(max, cur.values()), default=0)
        if not top:
            return vectors
        if top > 6:
            i = next(i for i, col in zip(vertices, zip(*cur.values())) if max(col) > 6)
            raise RuntimeError(f"the hammock of {i} does not end: Q is not Dynkin")
        vectors.update(((v, k), vec) for v, vec in cur.items() if any(vec))
        k, prev = k + 1, cur


class AbelianData(NamedTuple):
    """Hom and Ext^1 dimension tables of finitely many indecomposables of
    a hereditary abelian category."""

    objects: tuple[str, ...]
    hom: dict[tuple[str, str], int]
    ext1: dict[tuple[str, str], int]


def expand_hereditary(data: AbelianData, name: str = "",
                      field_char: int = DEFAULT_PRIME) -> ShiftGraph:
    """Expand abelian hom/ext data to the shift-graph of the bounded
    derived category: weight-0 edges carry Hom, weight-1 edges carry
    Ext^1, and nothing else is nonzero because every object splits into
    shifted cohomologies over a hereditary abelian category.  A table
    entry that is not a non-negative int (a bool included) raises
    ValueError, and a nonzero one whose key names an object outside
    objects raises UnknownOrbit."""
    for kind, table in (("hom", data.hom), ("ext1", data.ext1)):
        for key, d in table.items():
            if type(d) is not int or d < 0:
                raise ValueError(f"{kind}{key} must be a non-negative int, not {d!r}")
    for x in data.objects:
        if data.hom.get((x, x), 0) < 1:
            raise ValueError(f"hom({x}, {x}) must be >= 1")
    orbits = [Orbit(x, period=None, end_dim=data.hom[(x, x)]) for x in data.objects]
    new_edge = tuple.__new__
    homs: dict[tuple[str, str], tuple[HomEdge, ...]] = {
        # the division-ring check beyond dimension 1 is out of reach of
        # dimension data; flag only the 1-dimensional case.
        (a, b): (new_edge(HomEdge, (0, h, a == b and h == 1)),)
        for (a, b), h in data.hom.items() if h > 0}
    for key, e1 in data.ext1.items():
        if e1 > 0:
            homs[key] = homs.get(key, ()) + (new_edge(HomEdge, (1, e1, False)),)
    return ShiftGraph(name=name, orbits=orbits, homs=homs,
                      genuine=True, windowed=False, field_char=field_char)


def gen_dynkin_an(n: int, orientation: str, fld: PrimeField = DEFAULT_FIELD,
                  names: dict[str, str] | None = None) -> ShiftGraph:
    """Shift-graph of the bounded derived category of the A_n path algebra
    with the given orientation word over {>, <}.

    The modules and their dimension vectors are the objects and vectors of
    _knit, and in the same pass each module is named M{a}_{b} after its
    support [a, b], the first and last nonzero coordinates of its vector.
    For each module X = (v, k) and each object (v, d) with h_u(v, d) = x
    != 0, Hom((u, k - d), X) = x and, by the Auslander-Reiten formula
    Ext^1(X, Y) = D Hom(Y, tau X), Ext^1(X, (u, k - 1 - d)) = x, each set
    when that object is a module.  No other pair of modules has a nonzero
    Hom or Ext^1 (the algebra is hereditary)."""
    q = _an_quiver(n, orientation)
    names = names or {}
    name_of = {}  # module -> its name
    # v -> each (u, d, x) with x = h_u(v, d) != 0
    at_vertex: dict[str, list[tuple[str, int, int]]] = {}
    for (v, d), dim in _knit(q).items():
        row = [(u, d, x) for u, x in zip(q.vertices, dim) if x]
        nm = f"M{row[0][0]}_{row[-1][0]}"
        name_of[(v, d)] = names.get(nm, nm)
        at_vertex.setdefault(v, []).extend(row)
    hom = {}
    ext1 = {}
    for (v, k), nm in name_of.items():
        for u, d, x in at_vertex[v]:
            if (nm_a := name_of.get((u, k - d))) is not None:
                hom[(nm_a, nm)] = x
            if (nm_b := name_of.get((u, k - 1 - d))) is not None:
                ext1[(nm, nm_b)] = x
    return expand_hereditary(AbelianData(tuple(name_of.values()), hom, ext1),
                             name=f"A{n}({orientation})", field_char=fld.p)


def gen_example_a2(fld: PrimeField = DEFAULT_FIELD) -> tuple[ShiftGraph, Heart]:
    """The A_2 instance with its three indecomposables named S1 (simple
    injective), I (length two), S2 (simple projective), together with the
    inadmissible heart {S1@0, S2@0, I@1}: shifting I up creates a nonzero
    morphism S2 -> (I[1])[-1]."""
    from .hereditary import Heart
    g = gen_dynkin_an(2, ">", fld,
                      names={"M1_1": "S1", "M1_2": "I", "M2_2": "S2"})
    g.name = "example_a2"
    bad_heart = Heart({"S1": 0, "S2": 0, "I": 1})
    return g, bad_heart


def dual_numbers_algebra():
    """k<a>/(a^2): one vertex, one loop, one monomial relation."""
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    return MonomialAlgebra(q, [("a", "a")])


def dual_numbers_chain(alg, length: int, name: str = "") -> ProjComplex:
    """The complex R -> R -> ... -> R (length terms, differential the
    loop) in degrees -(length-1)..0."""
    from .complexes import ProjComplex
    ai = alg.index["a"]
    degrees = {d: ["v"] for d in range(-(length - 1), 1)}
    diffs = {d: [[{ai: 1}]] for d in range(-(length - 1), 0)}
    return ProjComplex(alg, degrees, diffs, name=name or f"C{length}")


def gen_dual_numbers(max_length: int, window: int,
                     fld: PrimeField = DEFAULT_FIELD) -> ShiftGraph:
    """Shift-graph of the perfect derived category of the dual numbers,
    restricted to the alpha-differential chains C_1..C_max_length and the
    hom window |n| <= window.  Not hereditary: C_2 carries a weight -1
    self-edge."""
    from .complexes import build_shiftgraph_from_complexes
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    alg = dual_numbers_algebra()
    reps = [dual_numbers_chain(alg, l) for l in range(1, max_length + 1)]
    return build_shiftgraph_from_complexes(reps, window, fld,
                                           name=f"dual_numbers(L{max_length},w{window})")


def gen_semisimple_block(period: int, end_dim: int = 1,
                         fld: PrimeField = DEFAULT_FIELD) -> ShiftGraph:
    """Single orbit with X = X[period]: a semisimple category with
    cyclically twisted translation.  All hom edges are invertible."""
    if period < 1:
        raise ValueError("period must be >= 1")
    weights = sorted({-period, 0, period})
    edges = tuple(HomEdge(w, end_dim, all_iso=True) for w in weights)
    return ShiftGraph(
        name=f"semisimple(p{period},d{end_dim})",
        orbits=[Orbit("X", period=period, end_dim=end_dim)],
        homs={("X", "X"): edges},
        genuine=True, windowed=False, field_char=fld.p)


def a2_projective_resolutions():
    """The A_2 path algebra together with projective resolutions of its
    three indecomposables, named to match gen_example_a2: S2 = P_2 and
    I = P_1 are stalks, S1 resolves as P_2 -> P_1."""
    from .complexes import ProjComplex
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    alg = MonomialAlgebra(q, [])
    ai = alg.index["a"]
    s2 = ProjComplex(alg, {0: ["2"]}, {}, name="S2")
    i = ProjComplex(alg, {0: ["1"]}, {}, name="I")
    s1 = ProjComplex(alg, {-1: ["2"], 0: ["1"]}, {-1: [[{ai: 1}]]}, name="S1")
    return alg, [s1, i, s2]


def gen_a2_from_complexes(window: int = 2, fld: PrimeField = DEFAULT_FIELD) -> ShiftGraph:
    """The A_2 shift-graph recomputed through the homotopy engine; agrees
    with gen_example_a2 edge for edge."""
    from .complexes import build_shiftgraph_from_complexes
    _, reps = a2_projective_resolutions()
    return build_shiftgraph_from_complexes(reps, window, fld, name=f"a2_complexes(w{window})")
