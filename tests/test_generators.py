import itertools

import pytest

from derhed.complexes import build_shiftgraph_from_complexes
from derhed.generators import (a2_projective_resolutions, dual_numbers_algebra,
                               dual_numbers_chain, gen_a2_from_complexes,
                               gen_dual_numbers, gen_dynkin_an, gen_example_a2,
                               gen_semisimple_block)
from derhed.linalg import PrimeField
from derhed.shiftgraph import validate

from oracles import ext_formula, hom_formula


def test_an_orbit_count_and_validity():
    for n in (2, 3, 4):
        for bits in itertools.product(">><", repeat=n - 1):
            orientation = "".join(bits)
            g = gen_dynkin_an(n, orientation)
            assert len(g.orbits) == n * (n + 1) // 2
            rep = validate(g)
            assert rep.ok and rep.warnings == []


def test_an_one_hom_solve_per_ordered_pair(monkeypatch):
    import derhed.generators
    import derhed.quiver

    calls = []
    hom_calls = []
    real, real_hom = derhed.quiver._hom_ext, derhed.quiver.rep_hom_dim

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counting_hom(*args, **kwargs):
        hom_calls.append(args)
        return real_hom(*args, **kwargs)

    monkeypatch.setattr(derhed.generators, "_hom_ext", counting)
    monkeypatch.setattr(derhed.quiver, "_hom_ext", counting)
    monkeypatch.setattr(derhed.quiver, "rep_hom_dim", counting_hom)
    g = gen_dynkin_an(4, ">><")
    assert len(g.orbits) == 10
    assert len(calls) == len(g.orbits) ** 2
    assert hom_calls == []


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
        build_shiftgraph_from_complexes(alg, [double], 1, fld)


def test_complex_builder_rejects_shift_duplicates(fld):
    from derhed.complexes import ProjComplex

    alg = dual_numbers_algebra()
    c1 = dual_numbers_chain(alg, 1)
    c1_again = dual_numbers_chain(alg, 1, name="C1b")
    with pytest.raises(ValueError, match=r"^C1 and C1b are isomorphic up to shift 0$"):
        build_shiftgraph_from_complexes(alg, [c1, c1_again], 1, fld)
    # C1 plus a contractible summand in degrees 0, 1.  The builder's
    # normalization, shift_complex(x, top), moves it to degrees -1, 0,
    # where it is isomorphic to C1[1]: the shift found is n != 0
    c1plus = ProjComplex(alg, {0: ["v", "v"], 1: ["v"]},
                         {0: [[{}], [{alg.index["e_v"]: 1}]]}, name="C1plus")
    with pytest.raises(ValueError, match=r"^C1 and C1plus are isomorphic up to shift -1$"):
        build_shiftgraph_from_complexes(alg, [c1, c1plus], 1, fld)
    with pytest.raises(ValueError, match=r"^C1plus and C1 are isomorphic up to shift 1$"):
        build_shiftgraph_from_complexes(alg, [c1plus, c1], 1, fld)
    c2 = dual_numbers_chain(alg, 2)
    g = build_shiftgraph_from_complexes(alg, [c2, c1plus], 1, fld)
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
        build_shiftgraph_from_complexes(alg, [c3, moved], 0, fld)


def test_complex_builder_leaves_caller_names(fld):
    # nameless complexes are named X0, X1, ... in the graph, not in place
    alg = dual_numbers_algebra()
    reps = [dual_numbers_chain(alg, 1, name="X0"), dual_numbers_chain(alg, 2, name="X1")]
    want = build_shiftgraph_from_complexes(alg, reps, 1, fld).to_json()
    for x in reps:
        x.name = ""
    assert build_shiftgraph_from_complexes(alg, reps, 1, fld).to_json() == want
    assert [x.name for x in reps] == ["", ""]


def test_field_char_propagates():
    fld = PrimeField(101)
    g = gen_dynkin_an(2, ">", fld)
    assert g.field_char == 101
    alg, reps = a2_projective_resolutions()
    g2 = build_shiftgraph_from_complexes(alg, reps, 1, fld)
    assert g2.field_char == 101
