import itertools

import pytest

from derhed.quiver import (Arrow, InfiniteDimensional, Quiver, Representation,
                           algebra_from_dict, algebra_to_dict, build_algebra,
                           euler_ext1_dim, rep_hom_dim)
from derhed.generators import _an_quiver, _interval_names_and_reps

from oracles import concat_product, euler_form, ext_formula, hom_formula


def a2_algebra():
    return linear_an(2)


def linear_an(n):
    q = Quiver(tuple(str(v) for v in range(1, n + 1)),
               tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)))
    return build_algebra(q, [])


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
    m = Representation(alg, {"1": 1})
    assert m.dims == {"1": 1, "2": 0}
    assert m.maps["a1"] == []  # no rows: the target space is 0
    m = Representation(alg, {"1": 2, "2": 1}, {"a1": ((3, -1),)})
    assert m.maps["a1"] == [[3, -1]] and type(m.maps["a1"][0][0]) is int


def test_a2_basis():
    alg = a2_algebra()
    assert alg.dim == 3
    assert sorted(bp.label for bp in alg.basis) == ["a1", "e_1", "e_2"]


def test_dual_numbers_basis():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = build_algebra(q, [("a", "a")])
    assert sorted(bp.label for bp in alg.basis) == ["a", "e_v"]


def test_free_loop_is_infinite_dimensional():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, [], bound=32)


def test_bound_allows_paths_of_exactly_bound_arrows():
    # the longest path of a linear A_n has n - 1 arrows
    q = Quiver(("1", "2", "3"), (Arrow("a1", "1", "2"), Arrow("a2", "2", "3")))
    assert build_algebra(q, [], bound=2).dim == 6
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, [], bound=1)
    assert linear_an(65).dim == 65 * 66 // 2  # the default bound is 64


def test_mul_basis():
    alg = a2_algebra()
    e1, e2, a = alg.index["e_1"], alg.index["e_2"], alg.index["a1"]
    assert alg.mul_basis(e1, a) == a  # concatenation e_1 then a
    assert alg.mul_basis(a, e2) == a
    assert alg.mul_basis(a, a) is None
    assert alg.mul_basis(e2, a) is None


def two_loops():
    """One vertex, loops x and y, modulo x^3, yx^2, yxy and y^3.  The
    relation-free words avoid those four, and the longest is xxyyx, so
    the products reach length 5 before they vanish."""
    q = Quiver(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    return build_algebra(q, [("x", "x", "x"), ("y", "x", "x"),
                             ("y", "x", "y"), ("y", "y", "y")])


def a3_with_shortcut():
    """1 -> 2 -> 3 (arrows a, b) plus 1 -> 3 (arrow c), modulo a*b."""
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "1", "3")))
    return build_algebra(q, [("a", "b")])


@pytest.mark.parametrize("make", [
    lambda: build_algebra(Quiver(("v",), (Arrow("a", "v", "v"),)), [("a", "a")]),
    lambda: linear_an(8),
    a3_with_shortcut,
    two_loops,
], ids=["dual", "a8", "a3-shortcut", "two-loops"])
def test_product_table_is_concatenation(make):
    """mul_basis, read from the table built at construction, equals the
    concatenation rule on every ordered pair of basis paths, None
    included, and the table stores the nonzero products only."""
    alg = make()
    nonzero = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            want = concat_product(alg, i, j)
            assert alg.mul_basis(i, j) == want, (alg.basis[i], alg.basis[j])
            nonzero += want is not None
    assert sum(map(len, alg._mul)) == nonzero


def test_two_loops_basis():
    alg = two_loops()
    assert alg.dim == 15
    assert max(len(bp.arrows) for bp in alg.basis) == 5
    xxyy, x = alg.index["x*x*y*y"], alg.index["x"]
    assert alg.mul_basis(xxyy, x) == alg.index["x*x*y*y*x"]
    assert alg.mul_basis(x, xxyy) is None  # contains x^3


def test_paths_between():
    alg = a2_algebra()
    assert [alg.basis[i].label for i in alg.paths_between("1", "2")] == ["a1"]
    assert alg.paths_between("2", "1") == []


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
        alg = build_algebra(_an_quiver(n, "".join(word)), [])
        reps = [rep for _, rep in _interval_names_and_reps(alg, n)]
        for m in reps:
            for nn in reps:
                assert (rep_hom_dim(m, nn, fld) - euler_ext1_dim(m, nn, fld)
                        == euler_form(alg.quiver, m.dims, nn.dims))


def test_euler_ext_requires_no_relations(fld):
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = build_algebra(q, [("a", "a")])
    m = Representation(alg, {"v": 1}, {"a": [[0]]})
    with pytest.raises(ValueError):
        euler_ext1_dim(m, m, fld)


def test_algebra_dict_round_trip():
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    alg = build_algebra(q, [("a", "a")])
    d = algebra_to_dict(alg)
    alg2 = algebra_from_dict(d)
    assert algebra_to_dict(alg2) == d
    assert alg2.dim == alg.dim
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
