import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derhed.linalg import PrimeField
from derhed.quiver import (Arrow, InfiniteDimensional, MonomialAlgebra, Quiver,
                           Representation, _hom_ext, algebra_from_dict,
                           algebra_to_dict, euler_ext1_dim, rep_hom_dim)
from derhed.generators import _an_quiver

from oracles import (concat_product, euler_form, ext_formula, hom_ext_oracle,
                     hom_formula, interval_reps, relation_free_path_of,
                     relation_free_paths)


def a2_algebra():
    return linear_an(2)


def linear_an(n):
    q = Quiver(tuple(str(v) for v in range(1, n + 1)),
               tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)))
    return MonomialAlgebra(q, [])


def interval(alg, n, a, b):
    dims = {str(v): (1 if a <= v <= b else 0) for v in range(1, n + 1)}
    maps = {f"a{i}": [[1]] for i in range(a, b)}
    return Representation(alg, dims, maps)


def test_constructor_checks():
    with pytest.raises(ValueError, match="duplicate vertex"):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError, match="duplicate arrow"):
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")))
    with pytest.raises(ValueError, match="undeclared vertex"):
        Quiver(("1",), (Arrow("a", "1", "2"),))
    alg = a2_algebra()
    with pytest.raises(ValueError, match="unknown vertices"):
        Representation(alg, {"3": 1})
    with pytest.raises(ValueError, match="unknown vertices"):
        Representation(alg, {"1": 1}, {"b": [[1]]})
    with pytest.raises(ValueError, match="shape"):
        Representation(alg, {"1": 1, "2": 1}, {"a1": [[1, 0]]})
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="non-negative int"):
            Representation(alg, {"1": bad})
    # an entry that is not an int is refused, not truncated: 0.4 read as 0
    # would turn the interval module k -> k into the sum of two simples
    for bad in (0.4, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            Representation(alg, {"1": 1, "2": 1}, {"a1": [[bad]]})
    m = Representation(alg, {"1": 1})
    assert m.dims == {"1": 1, "2": 0}
    assert m.maps["a1"] == []  # no rows: the target space is 0
    m = Representation(alg, {"1": 2, "2": 1}, {"a1": ((3, -1),)})
    assert m.maps["a1"] == [[3, -1]] and type(m.maps["a1"][0][0]) is int


def test_constructor_leaves_its_arguments_alone():
    """The constructor fills in and normalizes copies: the caller's dims
    and maps, and the matrices inside, are unchanged, so one dict can be
    reused for another representation."""
    alg = linear_an(3)
    dims, maps = {"1": 1}, {}
    m = Representation(alg, dims, maps)
    assert dims == {"1": 1} and maps == {}
    assert m.dims == {"1": 1, "2": 0, "3": 0} and m.maps["a1"] == []
    dims, maps = {"1": 1, "2": 2}, {"a1": [[1], [-1]]}
    before = copy.deepcopy((dims, maps))
    m = Representation(alg, dims, maps)
    assert (dims, maps) == before
    dims["2"] = 0
    maps["a1"][0][0] = 5
    assert m.dims["2"] == 2 and m.maps["a1"] == [[1], [-1]]
    assert rep_hom_dim(m, m) == 3  # k -> k^2 is the sum of k -> k and 0 -> k


def test_a2_basis():
    alg = a2_algebra()
    assert len(alg.basis) == 3
    assert sorted(bp.label for bp in alg.basis) == ["a1", "e_1", "e_2"]


def test_dual_numbers_basis():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = MonomialAlgebra(q, [("a", "a")])
    assert sorted(bp.label for bp in alg.basis) == ["a", "e_v"]


def test_free_loop_is_infinite_dimensional():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    with pytest.raises(InfiniteDimensional):
        MonomialAlgebra(q, [])
    q = Quiver(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    with pytest.raises(InfiniteDimensional, match="1-arrow windows close a cycle"):
        MonomialAlgebra(q, [])  # L = 1: refused at one arrow


def test_cyclic_quiver_without_relations_is_infinite_dimensional():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "3", "1")))
    with pytest.raises(InfiniteDimensional, match="1-arrow windows close a cycle"):
        MonomialAlgebra(q, [])
    # a*b*c = 0 bounds every path going round: the longest is b*c*a*b
    alg = MonomialAlgebra(q, [("a", "b", "c")])
    assert len(alg.basis) == 12 and "b*c*a*b" in alg.index
    # every path of two arrows is zero: radical square zero, dimension 6
    assert len(MonomialAlgebra(q, [("a", "b"), ("b", "c"), ("c", "a")]).basis) == 6


def test_two_loops_modulo_x_squared_is_infinite_dimensional():
    # x*y*x*y*... avoids x*x: the windows x*y and y*x close a cycle, and
    # the refusal comes at L = 2 arrows
    q = Quiver(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    with pytest.raises(InfiniteDimensional, match="2-arrow windows close a cycle"):
        MonomialAlgebra(q, [("x", "x")])


@pytest.mark.parametrize("seed", range(20))
def test_random_acyclic_quiver_is_finite_dimensional(seed):
    # 12 vertices in a random order, arrows only forward, some of them
    # parallel: accepted, and the basis is every path
    rng = random.Random(seed)
    nodes = [str(v) for v in range(12)]
    rng.shuffle(nodes)
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
             for _ in range(rng.randint(0, 2)) if rng.random() < 0.3]
    q = Quiver(tuple(sorted(nodes)),
               tuple(Arrow(f"a{i}", u, v) for i, (u, v) in enumerate(pairs)))
    alg = MonomialAlgebra(q, [])
    assert {(bp.source, bp.arrows) for bp in alg.basis} == relation_free_paths(q, [])


@pytest.mark.parametrize("n", [66, 100])
def test_long_linear_an_is_finite_dimensional(n):
    # its longest path has n - 1 arrows, beyond any fixed cap of 64
    alg = linear_an(n)
    assert len(alg.basis) == n * (n + 1) // 2
    assert max(len(bp.arrows) for bp in alg.basis) == n - 1


def test_stated_bound_is_exact():
    # without a cycle of windows no relation-free path has more than
    # c + L - 2 arrows, c the number of paths of L - 1 arrows, and finite
    # algebras reach it: linear A_n (c = n vertices, L = 1, n - 1 arrows),
    # the dual numbers (c = 1, L = 2, the path a) and the 3-cycle modulo
    # a*b*c (c = 3, L = 3, b*c*a*b)
    for n in range(2, 7):
        assert max(len(bp.arrows) for bp in linear_an(n).basis) == n - 1
    loop = Quiver(("v",), (Arrow("a", "v", "v"),))
    assert max(len(bp.arrows) for bp in MonomialAlgebra(loop, [("a", "a")]).basis) == 1
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "3", "1")))
    assert max(len(bp.arrows) for bp in MonomialAlgebra(q, [("a", "b", "c")]).basis) == 4
    # a cycle is refused at L arrows, however long the paths leading to it:
    # a loop at the end of A_n
    for n in range(2, 7):
        q = linear_an(n).quiver
        q = Quiver(q.vertices, q.arrows + (Arrow("z", str(n), str(n)),))
        with pytest.raises(InfiniteDimensional, match="1-arrow windows close a cycle"):
            MonomialAlgebra(q, [])
    # and a cycle x -> y -> x between s -> x and y -> z, with w apart
    q = Quiver(("s", "x", "y", "z", "w"), (Arrow("a", "s", "x"), Arrow("b", "x", "y"),
                                           Arrow("c", "y", "x"), Arrow("d", "y", "z")))
    with pytest.raises(InfiniteDimensional, match="1-arrow windows close a cycle"):
        MonomialAlgebra(q, [])
    # four loops modulo one relation of three arrows: refused at three
    # arrows, where c + L - 1 = 18 arrows would mean about 4**18 paths
    q = Quiver(("v",), tuple(Arrow(f"a{i}", "v", "v") for i in range(4)))
    with pytest.raises(InfiniteDimensional, match="3-arrow windows close a cycle"):
        MonomialAlgebra(q, [("a0", "a0", "a1")])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finite_dimension_matches_long_path_oracle(seed):
    """On random quivers with up to 3 vertices, 4 arrows (loops allowed)
    and relations of 2 or 3 arrows: InfiniteDimensional exactly when a
    relation-free path of 64 arrows exists, and otherwise the basis is
    every relation-free path."""
    rng = random.Random(seed)
    vertices = tuple(str(v) for v in range(1, rng.randint(1, 3) + 1))
    arrows = tuple(Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices))
                   for i in range(rng.randint(0, 4)))
    relations = []
    for _ in range(rng.randint(0, 3) if arrows else 0):
        rel = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 2)):
            nxt = [a for a in arrows if a.source == rel[-1].target]
            if nxt:
                rel.append(rng.choice(nxt))
        if len(rel) > 1:
            relations.append(tuple(a.id for a in rel))
    q = Quiver(vertices, arrows)
    if relation_free_path_of(q, relations, 64):
        with pytest.raises(InfiniteDimensional):
            MonomialAlgebra(q, relations)
    else:
        alg = MonomialAlgebra(q, relations)
        assert ({(bp.source, bp.arrows) for bp in alg.basis}
                == relation_free_paths(q, relations))


class CountedId(str):
    """A relation's arrow id that counts the comparisons made with it."""

    compared = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountedId.compared += 1
        return str.__eq__(self, other)


@pytest.mark.parametrize("n", [250, 500, 1000])
def test_relation_comparisons_grow_linearly(n):
    # linear A_n modulo all its n - 3 paths of three arrows: the basis is
    # the n vertices, n - 1 arrows and n - 2 paths of two arrows; a scan of
    # every relation for every path would compare about n**2 ids
    q = Quiver(tuple(str(v) for v in range(1, n + 1)),
               tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)))
    relations = [tuple(CountedId(f"a{j}") for j in (i, i + 1, i + 2))
                 for i in range(1, n - 2)]
    CountedId.compared = 0
    alg = MonomialAlgebra(q, relations)
    assert len(alg.basis) == 3 * n - 3
    assert CountedId.compared <= 12 * n


def test_basis_labels_are_unique():
    # an arrow named like the composite a*b, or like the idempotent e_1,
    # would make one label name two basis paths
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("a*b", "1", "3")))
    with pytest.raises(ValueError, match="share the label 'a\\*b'"):
        MonomialAlgebra(q, [])
    assert len(MonomialAlgebra(q, [("a", "b")]).basis) == 6  # a*b is zero
    q = Quiver(("1", "2"), (Arrow("e_1", "1", "2"),))
    with pytest.raises(ValueError, match="share the label 'e_1'"):
        MonomialAlgebra(q, [])
    with pytest.raises(ValueError, match="share the label"):
        algebra_from_dict({"vertices": ["1", "2"],
                           "arrows": [{"id": "e_2", "from": "1", "to": "2"}]})


def test_unknown_arrow_and_bad_relations_are_refused():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    with pytest.raises(KeyError, match="'c'"):
        MonomialAlgebra(q, [("a", "c")])
    with pytest.raises(ValueError, match="length >= 2"):
        MonomialAlgebra(q, [("a",)])
    with pytest.raises(ValueError, match="arrows b, a are not composable"):
        MonomialAlgebra(q, [("b", "a")])


def test_hom_ext_refuses_two_quivers():
    m, n = interval(linear_an(2), 2, 1, 2), interval(linear_an(3), 3, 1, 2)
    with pytest.raises(ValueError, match="different quivers"):
        rep_hom_dim(m, n)


def test_mul_basis():
    alg = a2_algebra()
    e1, e2, a = alg.index["e_1"], alg.index["e_2"], alg.index["a1"]
    assert alg._mul[e1].get(a) == a  # concatenation e_1 then a
    assert alg._mul[a].get(e2) == a
    assert alg._mul[a].get(a) is None
    assert alg._mul[e2].get(a) is None


def two_loops():
    """One vertex, loops x and y, modulo x^3, yx^2, yxy and y^3.  The
    relation-free words avoid those four, and the longest is xxyyx, so
    the products reach length 5 before they vanish."""
    q = Quiver(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    return MonomialAlgebra(q, [("x", "x", "x"), ("y", "x", "x"),
                             ("y", "x", "y"), ("y", "y", "y")])


def a3_with_shortcut():
    """1 -> 2 -> 3 (arrows a, b) plus 1 -> 3 (arrow c), modulo a*b."""
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "1", "3")))
    return MonomialAlgebra(q, [("a", "b")])


@pytest.mark.parametrize("make", [
    lambda: MonomialAlgebra(Quiver(("v",), (Arrow("a", "v", "v"),)), [("a", "a")]),
    lambda: linear_an(8),
    a3_with_shortcut,
    two_loops,
], ids=["dual", "a8", "a3-shortcut", "two-loops"])
def test_product_table_is_concatenation(make):
    """The product table built at construction equals the
    concatenation rule on every ordered pair of basis paths, None
    included, and the table stores the nonzero products only."""
    alg = make()
    nonzero = 0
    for i in range(len(alg.basis)):
        for j in range(len(alg.basis)):
            want = concat_product(alg, i, j)
            assert alg._mul[i].get(j) == want, (alg.basis[i], alg.basis[j])
            nonzero += want is not None
    assert sum(map(len, alg._mul)) == nonzero


def test_two_loops_basis():
    alg = two_loops()
    assert len(alg.basis) == 15
    assert max(len(bp.arrows) for bp in alg.basis) == 5
    xxyy, x = alg.index["x*x*y*y"], alg.index["x"]
    assert alg._mul[xxyy].get(x) == alg.index["x*x*y*y*x"]
    assert alg._mul[x].get(xxyy) is None  # contains x^3


def test_a2_hand_values(fld):
    alg = a2_algebra()
    s1 = interval(alg, 2, 1, 1)
    s2 = interval(alg, 2, 2, 2)
    i = interval(alg, 2, 1, 2)
    assert rep_hom_dim(s2, i, fld) == 1
    assert rep_hom_dim(i, s1, fld) == 1
    assert rep_hom_dim(s1, s2, fld) == 0
    assert rep_hom_dim(i, s2, fld) == 0
    assert euler_ext1_dim(s1, s2, fld) == 1
    assert euler_ext1_dim(s2, s1, fld) == 0
    assert euler_ext1_dim(i, i, fld) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linear_an_intervals_match_formulas(n, fld):
    alg = linear_an(n)
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    for (a, b) in intervals:
        for (c, d) in intervals:
            m, nn = interval(alg, n, a, b), interval(alg, n, c, d)
            assert rep_hom_dim(m, nn, fld) == hom_formula(a, b, c, d)
            assert euler_ext1_dim(m, nn, fld) == ext_formula(n, a, b, c, d)


def test_direct_sum_additivity(fld):
    alg = linear_an(3)
    m1 = interval(alg, 3, 1, 2)
    m2 = interval(alg, 3, 2, 3)
    target = interval(alg, 3, 2, 2)
    dims = {v: m1.dims[v] + m2.dims[v] for v in m1.dims}
    maps = {}
    for arrow in alg.quiver.arrows:
        a1, a2 = m1.maps[arrow.id], m2.maps[arrow.id]
        c1, c2 = m1.dims[arrow.source], m2.dims[arrow.source]
        maps[arrow.id] = ([row + [0] * c2 for row in a1]
                          + [[0] * c1 + row for row in a2])
    total = Representation(alg, dims, maps)
    assert (rep_hom_dim(total, target, fld)
            == rep_hom_dim(m1, target, fld) + rep_hom_dim(m2, target, fld))


def test_euler_form():
    alg = linear_an(3)
    d = {"1": 1, "2": 1, "3": 0}
    e = {"1": 0, "2": 1, "3": 1}
    # sum d_v e_v = 1; arrow terms: d_1 e_2 + d_2 e_3 = 2
    assert euler_form(alg.quiver, d, e) == -1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hom_minus_ext_is_euler_form(n, fld):
    # Hom and Ext^1 are the kernel and the cokernel of one map, whose
    # columns minus rows is the Euler form of the dimension vectors
    for word in itertools.product("><", repeat=n - 1):
        alg = MonomialAlgebra(_an_quiver(n, "".join(word)), [])
        reps = [rep for _, rep in interval_reps(alg, n)]
        for m in reps:
            for nn in reps:
                assert (rep_hom_dim(m, nn, fld) - euler_ext1_dim(m, nn, fld)
                        == euler_form(alg.quiver, m.dims, nn.dims))


def _algebra(vertices, arrows):
    """The path algebra when the quiver is acyclic, else the algebra with
    radical square zero."""
    q = Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))
    try:
        return MonomialAlgebra(q, [])
    except InfiniteDimensional:
        return MonomialAlgebra(q, [(a.id, b.id) for a in q.arrows for b in q.arrows
                                   if a.target == b.source])


def _check_hom_ext(vertices, arrows, m_data, n_data, p):
    """_hom_ext on the two representations against the dense oracle: Hom
    always, Ext^1 when the algebra has no relations.  Returns the
    engine's pair."""
    alg = _algebra(vertices, arrows)
    m, n = (Representation(alg, dims, maps) for dims, maps in (m_data, n_data))
    got = _hom_ext(m, n, PrimeField(p))
    want = hom_ext_oracle(vertices, arrows, *m_data, *n_data, p)
    assert got[0] == want[0]
    if not alg.relations:
        assert got[1] == want[1]
    return got


@st.composite
def hom_systems(draw):
    """A quiver on 1-4 vertices with up to 5 arrows (loops and parallel
    arrows allowed), two representations with dims 0-3, entries that
    include negatives and multiples of p, and p.  A representation may
    leave out a vertex of dim 0 and any arrow (the zero map)."""
    p = draw(st.sampled_from([3, 32003]))
    vertices = [str(v) for v in range(draw(st.integers(1, 4)))]
    vertex = st.sampled_from(vertices)
    arrows = [(f"a{i}", draw(vertex), draw(vertex))
              for i in range(draw(st.integers(0, 5)))]
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([p, -p, 2 * p, p + 1]))

    def rep():
        dims = {v: d for v in vertices if (d := draw(st.integers(0, 3))) or draw(st.booleans())}
        maps = {aid: [[draw(entry) for _ in range(dims.get(s, 0))]
                      for _ in range(dims.get(t, 0))]
                for aid, s, t in arrows if draw(st.booleans())}
        return dims, maps

    return vertices, arrows, rep(), rep(), p


@settings(max_examples=200, deadline=None)
@given(hom_systems())
def test_hom_ext_matches_dense_oracle(case):
    _check_hom_ext(*case)


PINNED_HOM_SYSTEMS = {
    # Hom(0, N) = Ext^1(0, N) = 0 over 1 -> 2
    "zero-representation": (["1", "2"], [("a", "1", "2")],
                            ({}, {}), ({"1": 1, "2": 1}, {"a": [[1]]}), 32003, (0, 0)),
    # the 2 x 2 nilpotent Jordan block on a loop: End is k[x]/x^2
    "loop-jordan-block": (["v"], [("x", "v", "v")],
                          ({"v": 2}, {"x": [[0, 0], [1, 0]]}),
                          ({"v": 2}, {"x": [[0, 0], [4, 0]]}), 3, (2, None)),
    # S1 + S2 over 1 -> 2 with the zero map: End = k^2, Ext^1(S1, S2) = k
    "all-maps-zero": (["1", "2"], [("a", "1", "2")],
                      ({"1": 1, "2": 1}, {"a": [[0]]}),
                      ({"1": 1, "2": 1}, {"a": [[3]]}), 3, (2, 1)),
}


@pytest.mark.parametrize("vertices, arrows, m_data, n_data, p, want",
                         PINNED_HOM_SYSTEMS.values(), ids=PINNED_HOM_SYSTEMS.keys())
def test_hom_ext_pinned(vertices, arrows, m_data, n_data, p, want):
    hom, ext = _check_hom_ext(vertices, arrows, m_data, n_data, p)
    assert hom == want[0]
    if want[1] is not None:
        assert ext == want[1]


def test_euler_ext_requires_no_relations(fld):
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = MonomialAlgebra(q, [("a", "a")])
    m = Representation(alg, {"v": 1}, {"a": [[0]]})
    with pytest.raises(ValueError):
        euler_ext1_dim(m, m, fld)


def test_algebra_dict_round_trip():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = MonomialAlgebra(q, [("a", "a")])
    d = algebra_to_dict(alg)
    alg2 = algebra_from_dict(d)
    assert algebra_to_dict(alg2) == d
    assert len(alg2.basis) == len(alg.basis)
    with pytest.raises(ValueError):
        algebra_from_dict({"vertices": ["v"]})


def _a3_dict(**changes):
    """The description of 1 -> 2 -> 3 (arrows a, b) modulo a*b, changed."""
    return dict({"vertices": ["1", "2", "3"],
                 "arrows": [{"id": "a", "from": "1", "to": "2"},
                            {"id": "b", "from": "2", "to": "3"}],
                 "relations": [["a", "b"]]}, **changes)


MALFORMED_ALGEBRAS = {
    "unknown-arrow": _a3_dict(relations=[["a", "zz"]]),
    "relation-string": _a3_dict(relations=["ab"]),
    "relation-string-long-ids": _a3_dict(
        arrows=[{"id": "a1", "from": "1", "to": "2"}, {"id": "a2", "from": "2", "to": "3"}],
        relations=["a1a2"]),
    "relation-not-list": _a3_dict(relations="ab"),
    "relation-nested-list": _a3_dict(relations=[["a", ["b"]]]),
    "integer-arrow-id": _a3_dict(arrows=[{"id": 5, "from": "1", "to": "2"}], relations=[]),
    "integer-vertex": _a3_dict(vertices=[1, "2", "3"]),
    "integer-endpoint": _a3_dict(arrows=[{"id": "a", "from": 1, "to": "2"}], relations=[]),
    "vertices-string": _a3_dict(vertices="123"),
}


@pytest.mark.parametrize("d", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS.keys())
def test_algebra_from_dict_refuses_malformed(d):
    """Ids that are not strings and relations that are not lists of known
    arrow ids are refused, not misread (the string "ab" as a*b, the vertex
    1 as "1") or left to fail later with KeyError or TypeError."""
    with pytest.raises(ValueError):
        algebra_from_dict(d)
    assert algebra_from_dict(_a3_dict()).relations == (("a", "b"),)
