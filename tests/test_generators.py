import itertools
import random

import pytest

from derhed.complexes import build_shiftgraph_from_complexes
from derhed.generators import (a2_projective_resolutions, dual_numbers_algebra,
                               dual_numbers_chain, expand_hereditary,
                               gen_a2_from_complexes, gen_dual_numbers,
                               gen_dynkin_an, gen_example_a2,
                               gen_semisimple_block, _knit)
from derhed.linalg import PrimeField
from derhed.quiver import Arrow, Quiver
from derhed.shiftgraph import validate

from oracles import an_tables, euler_form, ext_formula, hom_formula


def test_an_orbit_count_and_validity():
    for n in (2, 3, 4):
        for bits in itertools.product(">><", repeat=n - 1):
            orientation = "".join(bits)
            g = gen_dynkin_an(n, orientation)
            assert len(g.orbits) == n * (n + 1) // 2
            rep = validate(g)
            assert rep.ok and rep.warnings == []


def test_an_knits_without_linear_algebra(monkeypatch):
    import derhed.linalg
    import derhed.quiver

    def refuse(*args, **kwargs):
        raise AssertionError("gen_dynkin_an ran linear algebra")

    monkeypatch.setattr(derhed.quiver, "_hom_ext", refuse)
    monkeypatch.setattr(derhed.linalg, "_eliminate", refuse)
    g = gen_dynkin_an(8, "><<>><>")
    assert len(g.orbits) == 36


@pytest.mark.parametrize("p, top", [(32003, 8), (2, 5), (3, 5)])
def test_an_knitting_matches_linear_algebra(p, top):
    # every orientation, byte for byte against one GF(p) Hom system per
    # ordered pair of interval modules
    fld = PrimeField(p)
    for n in range(2, top + 1):
        for word in map("".join, itertools.product("><", repeat=n - 1)):
            want = expand_hereditary(an_tables(n, word, fld), name=f"A{n}({word})",
                                     field_char=p)
            assert gen_dynkin_an(n, word, fld).to_json() == want.to_json(), word


def _dynkin_quiver(kind, n, seed):
    """D_n or E_n with vertices "1".."n": the path 1 - ... - (n - 1) and the
    vertex n joined to n - 2 (D) or to 3 (E), each edge oriented by coin."""
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(1, n - 1)] + [(n - 2 if kind == "D" else 3, n)]
    arrows = []
    for i, (u, v) in enumerate(edges):
        u, v = (u, v) if rng.random() < 0.5 else (v, u)
        arrows.append(Arrow(f"a{i}", str(u), str(v)))
    return Quiver(tuple(str(v) for v in range(1, n + 1)), tuple(arrows))


@pytest.mark.parametrize("kind, n, roots", [("D", 4, 12), ("D", 5, 20), ("D", 7, 42),
                                            ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_knitting_beyond_an(kind, n, roots, seed):
    q = _dynkin_quiver(kind, n, seed)
    # the modules are the knitted objects, one per positive root (Gabriel
    # 1972), each with its dimension vector
    dims = _knit(q)
    assert len(dims) == roots
    vec = {z: dict(zip(q.vertices, dim)) for z, dim in dims.items()}
    # the hammock of i, read off the vectors, has one sink S P_i, its last key
    hammock = {i: {z: d[i] for z, d in vec.items() if d[i]} for i in q.vertices}
    for i, h in hammock.items():
        sinks = [(v, k) for v, k in h
                 if not any((a.source, k) in h for a in q.arrows if a.target == v)
                 and not any((a.target, k + 1) in h for a in q.arrows if a.source == v)]
        assert sinks == [next(reversed(h))], i
    # for M = (j, k) and N = (l, m), Ext^1(M, N) = D Hom(N, tau M) is the
    # Hom(M, N[1]) of N[1] = tau^-1 S N, and dim Hom(M, N) - dim Ext^1(M, N)
    # is the Euler form
    for j, k in dims:
        for l, m in dims:
            s, m_s = next(reversed(hammock[l]))
            hom = hammock[j].get((l, m - k), 0)
            ext = hammock[l].get((j, k - 1 - m), 0)
            assert ext == hammock[j].get((s, m_s + m + 1 - k), 0)
            assert hom - ext == euler_form(q, vec[j, k], vec[l, m])


@pytest.mark.parametrize("arrows", [
    [("a1", "1", "c"), ("a2", "2", "c"), ("a3", "3", "c"), ("a4", "4", "c")],  # D~4
    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "c"), ("d", "1", "c")],  # A~3
    [("a", "1", "c"), ("b", "1", "c")],  # the Kronecker quiver
    [("a", "1", "2"), ("b", "3", "4"), ("c", "3", "4")],  # A_2 beside the Kronecker quiver
])
def test_knitting_refuses_a_non_dynkin_quiver(arrows):
    # the preprojective dimension vectors grow without bound, so the
    # knitting would never reach a zero slice
    arrows = tuple(Arrow(*a) for a in arrows)
    q = Quiver(tuple(sorted({v for a in arrows for v in a[1:]})), arrows)
    with pytest.raises(RuntimeError, match="Q is not Dynkin"):
        _knit(q)


def test_knitting_a_disconnected_quiver():
    # each component knits as it would alone: the union's objects at its
    # vertices, their vectors cut to its coordinates, are its own knitting
    # in order, and their other coordinates are 0
    a2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    a3 = Quiver(("3", "4", "5"), (Arrow("b", "3", "4"), Arrow("c", "4", "5")))
    both = Quiver(a2.vertices + a3.vertices, a2.arrows + a3.arrows)
    union = _knit(both)
    last = []
    for c in (a2, a3):
        mine = [i for i, v in enumerate(both.vertices) if v in c.vertices]
        objs = [(z, d) for z, d in union.items() if z[0] in c.vertices]
        assert [(z, tuple(d[i] for i in mine)) for z, d in objs] == list(_knit(c).items())
        assert not any(x for _, d in objs for i, x in enumerate(d) if i not in mine)
        last.append(max(k for (_, k), _ in objs))
    # A_2's objects end at slice 1, while linear A_3's P_3 goes on to slice 2
    assert last == [1, 2]


def test_an_linear_matches_formulas():
    n = 4
    g = gen_dynkin_an(n, ">" * (n - 1))
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    for (a, b) in intervals:
        for (c, d) in intervals:
            edges = {e.weight: e.dim
                     for e in g.edges_between(f"M{a}_{b}", f"M{c}_{d}")}
            assert edges.get(0, 0) == hom_formula(a, b, c, d)
            assert edges.get(1, 0) == ext_formula(n, a, b, c, d)
            assert set(edges) <= {0, 1}


def test_an_bad_input():
    with pytest.raises(ValueError):
        gen_dynkin_an(1, "")
    with pytest.raises(ValueError):
        gen_dynkin_an(3, ">")
    with pytest.raises(ValueError):
        gen_dynkin_an(3, ">x")


def test_example_a2():
    g, bad = gen_example_a2()
    assert sorted(g.orbit_ids()) == ["I", "S1", "S2"]
    assert g.genuine and not g.windowed
    assert bad.offsets == {"S1": 0, "S2": 0, "I": 1}
    assert [e.weight for e in g.edges_between("S1", "S2")] == [1]
    assert [e.weight for e in g.edges_between("S2", "I")] == [0]


def test_dual_numbers_graph():
    g = gen_dual_numbers(3, 2)
    assert sorted(g.orbit_ids()) == ["C1", "C2", "C3"]
    assert g.genuine and g.windowed
    assert any(e.weight == -1 for e in g.edges_between("C2", "C2"))
    assert all(abs(e.weight) <= 2 for es in g.homs.values() for e in es)
    # the stalk orbit carries the two-dimensional local endomorphism ring
    assert g.orbit("C1").end_dim == 2
    with pytest.raises(ValueError):
        gen_dual_numbers(1, 2)


def test_dual_numbers_work_stops_at_the_degree_span(monkeypatch):
    # the chains lie in degrees -2..0, so Hom(X, Y[n]) = 0 for |n| > 2 and a
    # window of 1,000 assembles the same hom complexes, with the same block
    # tables and boundaries, as a window of 2
    import derhed.complexes

    calls = []
    assemble = derhed.complexes._hom_complex

    def counted(*args):
        blocks, d = out = assemble(*args)
        calls.append((args[2:4], sorted(blocks), sorted(d)))
        return out

    monkeypatch.setattr(derhed.complexes, "_hom_complex", counted)
    seen = []
    for window in (2, 1000):
        calls.clear()
        g = gen_dual_numbers(3, window)
        assert g.name == f"dual_numbers(L3,w{window})"
        seen.append((list(calls), g.homs))
    assert seen[0] == seen[1]
    with pytest.raises(ValueError, match="window must be >= 0"):
        gen_dual_numbers(3, -1)


def test_cone_warnings_on_windowed_instances():
    # window 0 keeps only the degree-0 homs, so no orbit in the data
    # completes a non-invertible edge at weight 0 and validate warns about
    # each pair of chains; from window 1 the shifted homs complete them all
    for length in range(2, 7):
        counts = [len(validate(gen_dual_numbers(length, w)).warnings) for w in range(4)]
        assert counts == [length ** 2, 0, 0, 0]
    reps = [validate(gen_a2_from_complexes(w)) for w in range(3)]
    assert all(rep.ok for rep in reps)
    assert [len(rep.warnings) for rep in reps] == [2, 0, 0]


def test_semisimple_block():
    g = gen_semisimple_block(4, end_dim=2)
    assert validate(g).ok
    o = g.orbit("X")
    assert o.period == 4 and o.end_dim == 2
    assert {e.weight for e in g.edges_between("X", "X")} == {-4, 0, 4}
    assert all(e.all_iso for e in g.edges_between("X", "X"))
    with pytest.raises(ValueError):
        gen_semisimple_block(0)


def test_cross_engine_a2_agreement():
    abelian, _ = gen_example_a2()
    homotopy = gen_a2_from_complexes(window=2)
    assert sorted(homotopy.orbit_ids()) == sorted(abelian.orbit_ids())
    assert homotopy.homs == abelian.homs
    for oid in abelian.orbit_ids():
        assert homotopy.orbit(oid).end_dim == abelian.orbit(oid).end_dim


def test_complex_builder_rejects_decomposables(fld):
    from derhed.complexes import ProjComplex

    alg = dual_numbers_algebra()
    double = ProjComplex(alg, {0: ["v", "v"]}, {}, name="D")
    with pytest.raises(ValueError):
        build_shiftgraph_from_complexes([double], 1, fld)


def test_complex_builder_rejects_shift_duplicates(fld):
    from derhed.complexes import ProjComplex

    alg = dual_numbers_algebra()
    c1 = dual_numbers_chain(alg, 1)
    c1_again = dual_numbers_chain(alg, 1, name="C1b")
    with pytest.raises(ValueError, match=r"^C1 and C1b are isomorphic up to shift 0$"):
        build_shiftgraph_from_complexes([c1, c1_again], 1, fld)
    # C1 plus a contractible summand in degrees 0, 1.  The builder's
    # normalization, shift_complex(x, top), moves it to degrees -1, 0,
    # where it is isomorphic to C1[1]: the shift found is n != 0
    c1plus = ProjComplex(alg, {0: ["v", "v"], 1: ["v"]},
                         {0: [[{}], [{alg.index["e_v"]: 1}]]}, name="C1plus")
    with pytest.raises(ValueError, match=r"^C1 and C1plus are isomorphic up to shift -1$"):
        build_shiftgraph_from_complexes([c1, c1plus], 1, fld)
    with pytest.raises(ValueError, match=r"^C1plus and C1 are isomorphic up to shift 1$"):
        build_shiftgraph_from_complexes([c1plus, c1], 1, fld)
    c2 = dual_numbers_chain(alg, 2)
    g = build_shiftgraph_from_complexes([c2, c1plus], 1, fld)
    assert sorted(g.orbit_ids()) == ["C1plus", "C2"]


def test_complex_builder_normalizes_top_degree_to_zero(fld):
    from derhed.complexes import shift_complex

    # C3 lives in degrees -2..0; C3[-1] in degrees -1..1 normalizes back
    # to C3 itself, so even window 0 finds the duplicate
    alg = dual_numbers_algebra()
    c3 = dual_numbers_chain(alg, 3)
    moved = shift_complex(c3, -1, fld.p)
    moved.name = "C3up"
    assert moved.top_degree() == 1
    with pytest.raises(ValueError, match=r"^C3 and C3up are isomorphic up to shift 0$"):
        build_shiftgraph_from_complexes([c3, moved], 0, fld)


def test_complex_builder_leaves_caller_names(fld):
    # nameless complexes are named X0, X1, ... in the graph, not in place
    alg = dual_numbers_algebra()
    reps = [dual_numbers_chain(alg, 1, name="X0"), dual_numbers_chain(alg, 2, name="X1")]
    want = build_shiftgraph_from_complexes(reps, 1, fld).to_json()
    for x in reps:
        x.name = ""
    assert build_shiftgraph_from_complexes(reps, 1, fld).to_json() == want
    assert [x.name for x in reps] == ["", ""]


def test_field_char_propagates():
    fld = PrimeField(101)
    g = gen_dynkin_an(2, ">", fld)
    assert g.field_char == 101
    _, reps = a2_projective_resolutions()
    g2 = build_shiftgraph_from_complexes(reps, 1, fld)
    assert g2.field_char == 101
