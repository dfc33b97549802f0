"""Trusted generators of genuine shift-graph instances.

The abelian route enumerates the interval representations of an A_n
quiver (any orientation), computes Hom and Ext^1 dimensions exactly, and
expands to the derived-category shift-graph.  The homotopy route builds
perfect complexes over a monomial algebra and measures homs in the
homotopy category; the dual numbers are its canonical non-hereditary
instance.
"""

from __future__ import annotations

from .complexes import ProjComplex, build_shiftgraph_from_complexes
from .hereditary import Heart
from .linalg import PrimeField
from .quiver import Arrow, Quiver, Representation, _hom_ext, build_algebra
from .shiftgraph import (AbelianData, HomEdge, Orbit, ShiftGraph,
                         expand_hereditary)

_ARROW_CHARS = {">": ">", "<": "<", "r": ">", "l": "<"}


def _an_quiver(n: int, orientation: str) -> Quiver:
    if not 2 <= n <= 8:
        raise ValueError("n must be between 2 and 8")
    if len(orientation) != n - 1:
        raise ValueError(f"orientation word must have length {n - 1}")
    arrows = []
    for i, ch in enumerate(orientation, start=1):
        c = _ARROW_CHARS.get(ch)
        if c is None:
            raise ValueError(f"orientation characters must be > or <, got {ch!r}")
        if c == ">":
            arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        else:
            arrows.append(Arrow(f"a{i}", str(i + 1), str(i)))
    return Quiver(tuple(str(v) for v in range(1, n + 1)), tuple(arrows))


def _interval_rep(alg, n: int, a: int, b: int) -> Representation:
    dims = {str(v): (1 if a <= v <= b else 0) for v in range(1, n + 1)}
    maps = {}
    for arrow in alg.quiver.arrows:
        s, t = int(arrow.source), int(arrow.target)
        if a <= s <= b and a <= t <= b:
            maps[arrow.id] = [[1]]
    return Representation(alg, dims, maps)


def _interval_names_and_reps(alg, n: int):
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            out.append((f"M{a}_{b}", _interval_rep(alg, n, a, b)))
    return out


def gen_dynkin_an(n: int, orientation: str, fld: PrimeField | None = None,
                  names: dict[str, str] | None = None) -> ShiftGraph:
    """Shift-graph of the bounded derived category of the A_n path algebra
    with the given orientation word over {>, <}.

    The n(n+1)/2 interval representations exhaust the indecomposables.
    One Hom system per ordered pair gives Hom and Ext^1 as its kernel and
    cokernel (the algebra is hereditary); the diagonal of the Hom table
    re-verifies each one indecomposable before the hereditary expansion."""
    fld = fld or PrimeField()
    q = _an_quiver(n, orientation)
    alg = build_algebra(q, [])
    items = _interval_names_and_reps(alg, n)
    if names:
        items = [(names.get(nm, nm), rep) for nm, rep in items]
    objs = tuple(nm for nm, _ in items)
    hom = {}
    ext1 = {}
    for nm_a, ra in items:
        for nm_b, rb in items:
            h, e = _hom_ext(ra, rb, fld)
            if ra is rb and h != 1:
                raise RuntimeError(f"interval module {nm_a} failed the indecomposability check")
            if h:
                hom[(nm_a, nm_b)] = h
            if e:
                ext1[(nm_a, nm_b)] = e
    return expand_hereditary(AbelianData(objs, hom, ext1),
                             name=f"A{n}({orientation})", field_char=fld.p)


def gen_example_a2(fld: PrimeField | None = None) -> tuple[ShiftGraph, Heart]:
    """The A_2 instance with its three indecomposables named S1 (simple
    injective), I (length two), S2 (simple projective), together with the
    inadmissible heart {S1@0, S2@0, I@1}: shifting I up creates a nonzero
    morphism S2 -> (I[1])[-1]."""
    g = gen_dynkin_an(2, ">", fld,
                      names={"M1_1": "S1", "M1_2": "I", "M2_2": "S2"})
    g.name = "example_a2"
    bad_heart = Heart({"S1": 0, "S2": 0, "I": 1})
    return g, bad_heart


def dual_numbers_algebra():
    """k<a>/(a^2): one vertex, one loop, one monomial relation."""
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    return build_algebra(q, [("a", "a")])


def dual_numbers_chain(alg, length: int, name: str = "") -> ProjComplex:
    """The complex R -> R -> ... -> R (length terms, differential the
    loop) in degrees -(length-1)..0."""
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
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    fld = fld or PrimeField()
    alg = dual_numbers_algebra()
    reps = [dual_numbers_chain(alg, l) for l in range(1, max_length + 1)]
    g = build_shiftgraph_from_complexes(alg, reps, window, fld,
                                        name=f"dual_numbers(L{max_length},w{window})")
    return g


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
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    alg = build_algebra(q, [])
    ai = alg.index["a"]
    s2 = ProjComplex(alg, {0: ["2"]}, {}, name="S2")
    i = ProjComplex(alg, {0: ["1"]}, {}, name="I")
    s1 = ProjComplex(alg, {-1: ["2"], 0: ["1"]}, {-1: [[{ai: 1}]]}, name="S1")
    return alg, [s1, i, s2]


def gen_a2_from_complexes(window: int = 2, fld: PrimeField | None = None) -> ShiftGraph:
    """The A_2 shift-graph recomputed through the homotopy engine; agrees
    with gen_example_a2 edge for edge."""
    fld = fld or PrimeField()
    alg, reps = a2_projective_resolutions()
    return build_shiftgraph_from_complexes(alg, reps, window, fld,
                                           name=f"a2_complexes(w{window})")
