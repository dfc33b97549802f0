"""Trusted generators of genuine shift-graph instances.

The abelian route knits the mesh category of ZQ for an A_n quiver Q (any
orientation).  One knitting of vectors gives the hammocks of all its
vertices, and at a module the vector is its dimension vector.  The
hammocks give the indecomposable modules with their Hom and Ext^1
dimensions exactly, with no linear algebra, and expand_hereditary expands
the tables to the derived-category shift-graph.  The GF(p) Hom systems of
quiver.Representation are the tests' check on it.  The homotopy route
builds perfect complexes over a monomial algebra and measures homs in the
homotopy category; the dual numbers are its canonical non-hereditary
instance.  Its functions import complexes when called, and gen_example_a2
imports hereditary for its Heart, so the abelian route loads neither.
"""

from __future__ import annotations

from graphlib import TopologicalSorter
from typing import TYPE_CHECKING, NamedTuple

from .linalg import PrimeField
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


def _knit(quiver: Quiver) -> dict[str, dict[tuple[str, int], int]]:
    """The hammock of each vertex of a Dynkin quiver Q, all from one
    knitting on ZQ^op with no linear algebra (Ringel 1984, LNM 1099).

    D^b(kQ) is the mesh category of ZQ (Happel 1987), written here as
    ZQ^op: an arrow s -> t of Q gives arrows (t, k) -> (s, k) and
    (s, k) -> (t, k + 1), tau (v, k) = (v, k - 1), and P_v = (v, 0).  The
    hammock of i maps each (j, k) with h_i(j, k) = dim Hom(P_i, (j, k)) != 0
    to that dimension.  Each object z carries the vector (h_i(z))_i over
    the vertices i of Q, which at a module M is its dimension vector, as
    dim Hom(P_i, M) = dim M_i.  The vectors are knitted one slice k at a
    time, coordinate by coordinate, by h(z) = max(0, sum_{y -> z} h(y) -
    h(tau z)) with the 1 of P_i at (i, 0), each slice ordered so that every
    arrow's target comes before its source.  A coordinate that reaches a
    zero slice stays zero, and the knitting ends at the first slice that is
    zero in every coordinate.  Each hammock's keys come in slice order, so
    its last key is its sink S P_i, the last nonzero entry of its last
    slice.  tau is an automorphism of ZQ, so Hom((i, k), (j, l)) =
    h_i(j, l - k) for every pair of objects.

    RuntimeError unless every support has exactly one sink, or when a
    value exceeds 6, the largest coefficient of a positive root: on any
    other acyclic quiver the hammocks would never end.  An oriented cycle
    raises graphlib's CycleError."""
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
    hammocks: list[dict[tuple[str, int], int]] = [{} for _ in vertices]
    sinks = [0] * len(vertices)
    k, prev = 0, dict.fromkeys(order, zero)
    while True:
        cur: dict[str, tuple[int, ...]] = {}
        for v in order:
            # the sum of the middle terms of the mesh from (v, k - 1) to
            # (v, k): (t, k) for v -> t and (s, k - 1) for s -> v, the arrows
            # out of (v, k - 1) and into (v, k)
            mid = list(map(sum, zip(zero, *[cur[t] for t in out_of[v]],
                                    *[prev[s] for s in into[v]])))
            last = prev[v]
            # (v, k - 1) is a sink of each hammock that holds it but none of
            # its middle terms
            if 0 in mid and any(last):
                for i, (x, m) in enumerate(zip(last, mid)):
                    if x and not m:
                        sinks[i] += 1
            vec = [m - x if m > x else 0 for m, x in zip(mid, last)]
            if not k:
                vec[index[v]] = 1
            cur[v] = tuple(vec)
        top = max(map(max, cur.values()), default=0)
        if not top:
            break
        if top > 6:
            i = next(i for i, col in zip(vertices, zip(*cur.values())) if max(col) > 6)
            raise RuntimeError(f"the hammock of {i} does not end: Q is not Dynkin")
        for v in order:
            if any(vec := cur[v]):
                z = (v, k)
                for h, x in zip(hammocks, vec):
                    if x:
                        h[z] = x
        k, prev = k + 1, cur
    for i, count in zip(vertices, sinks):
        if count != 1:
            raise RuntimeError(f"the hammock of {i} has {count} sinks")
    return dict(zip(vertices, hammocks))


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


def gen_dynkin_an(n: int, orientation: str, fld: PrimeField | None = None,
                  names: dict[str, str] | None = None) -> ShiftGraph:
    """Shift-graph of the bounded derived category of the A_n path algebra
    with the given orientation word over {>, <}.

    The tables come from the hammocks of _knit.  The modules are the
    objects of the projectives' hammocks, dim M_v = h_v(M), and each is
    named M{a}_{b} after its support [a, b]; RuntimeError unless they are
    the n(n+1)/2 distinct thin intervals.  For M = (j, k) and N = (l, m),
    Hom(M, N) = h_j(l, m - k), and Ext^1(M, N) = Hom(M, N[1]) with N[1] =
    tau^-1 S N, S N the sink of N's hammock (the algebra is hereditary).
    Both tables are filled from the support of each module's hammock."""
    fld = fld or PrimeField()
    q = _an_quiver(n, orientation)
    hammock = _knit(q)
    modules: dict[tuple[str, int], list[int]] = {}  # M -> dim M, in hammock order
    for i, v in enumerate(q.vertices):
        for z, x in hammock[v].items():
            modules.setdefault(z, [0] * n)[i] = x
    at: dict[tuple[int, int], tuple[str, int]] = {}
    for z, dim in modules.items():
        ones = [i for i, d in enumerate(dim, 1) if d == 1]
        if len(ones) == sum(dim) == ones[-1] - ones[0] + 1:
            at[(ones[0], ones[-1])] = z
    if not len(at) == len(modules) == n * (n + 1) // 2:
        raise RuntimeError("the modules are not the n(n+1)/2 distinct thin intervals")
    names = names or {}
    items = []  # (name, N = (l, m), N[1] = (s, m1)) per module, by support
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            l, m = at[(a, b)]
            s, m_s = next(reversed(hammock[l]))  # S N = (s, m_s + m)
            nm = f"M{a}_{b}"
            items.append((names.get(nm, nm), l, m, s, m_s + m + 1))
    objs = tuple(item[0] for item in items)
    module_at = {(l, m): nm for nm, l, m, _, _ in items}  # N -> its name
    shift_at = {(s, m1): nm for nm, _, _, s, m1 in items}  # N[1] -> N's name
    hom = {}
    ext1 = {}
    for nm_a, j, k, _, _ in items:
        # the support of Hom(M, -) is M's hammock, moved by tau^-k
        for (v, d), x in hammock[j].items():
            z = (v, d + k)
            if (nm_b := module_at.get(z)) is not None:
                hom[(nm_a, nm_b)] = x
            if (nm_b := shift_at.get(z)) is not None:
                ext1[(nm_a, nm_b)] = x
    return expand_hereditary(AbelianData(objs, hom, ext1),
                             name=f"A{n}({orientation})", field_char=fld.p)


def gen_example_a2(fld: PrimeField | None = None) -> tuple[ShiftGraph, Heart]:
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
                     fld: PrimeField | None = None) -> ShiftGraph:
    """Shift-graph of the perfect derived category of the dual numbers,
    restricted to the alpha-differential chains C_1..C_max_length and the
    hom window |n| <= window.  Not hereditary: C_2 carries a weight -1
    self-edge."""
    from .complexes import build_shiftgraph_from_complexes
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    fld = fld or PrimeField()
    alg = dual_numbers_algebra()
    reps = [dual_numbers_chain(alg, l) for l in range(1, max_length + 1)]
    return build_shiftgraph_from_complexes(reps, window, fld,
                                           name=f"dual_numbers(L{max_length},w{window})")


def gen_semisimple_block(period: int, end_dim: int = 1,
                         fld: PrimeField | None = None) -> ShiftGraph:
    """Single orbit with X = X[period]: a semisimple category with
    cyclically twisted translation.  All hom edges are invertible."""
    if period < 1:
        raise ValueError("period must be >= 1")
    fld = fld or PrimeField()
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


def gen_a2_from_complexes(window: int = 2, fld: PrimeField | None = None) -> ShiftGraph:
    """The A_2 shift-graph recomputed through the homotopy engine; agrees
    with gen_example_a2 edge for edge."""
    from .complexes import build_shiftgraph_from_complexes
    fld = fld or PrimeField()
    _, reps = a2_projective_resolutions()
    return build_shiftgraph_from_complexes(reps, window, fld, name=f"a2_complexes(w{window})")
