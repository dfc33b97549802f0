import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from derhed.complexes import (AlgebraMismatch, EndAlgebra, FieldTooSmall,
                              ProjComplex, _hom_basis, _hom_complex,
                              _hom_dims, _isomorphic, are_isomorphic,
                              build_shiftgraph_from_complexes, check_complex,
                              hom_k_dim, is_indecomposable, shift_complex)
from derhed.generators import (a2_projective_resolutions,
                               dual_numbers_algebra, dual_numbers_chain,
                               gen_a2_from_complexes, gen_dual_numbers)
from derhed.linalg import PrimeField
from derhed.quiver import Arrow, MonomialAlgebra, Quiver
from derhed.shiftgraph import ShiftGraph

from oracles import (_coords_to_matrix, _diff_matrix, _map_coords, _matrix_to_coords,
                     _proj_basis, _space, cartan, hom_oracle, k0_class, rank_oracle)


@pytest.fixture(scope="module")
def dual():
    return dual_numbers_algebra()


def linear_an(n):
    q = Quiver(tuple(str(v) for v in range(1, n + 1)),
               tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)))
    return MonomialAlgebra(q, [])


def interval_resolution(alg, n, a, b, name=""):
    """0 -> P_{b+1} -> P_a over the linearly oriented A_n (P_{b+1} absent
    when b = n); the connecting map is the path b+1 <- a."""
    if b == n:
        return ProjComplex(alg, {0: [str(a)]}, {}, name=name)
    label = "*".join(f"a{i}" for i in range(a, b + 1))
    idx = alg.index[label]
    return ProjComplex(alg, {-1: [str(b + 1)], 0: [str(a)]},
                       {-1: [[{idx: 1}]]}, name=name)


# -- validation --

def test_check_complex_ok(dual, fld):
    for l in (1, 2, 3):
        assert check_complex(dual_numbers_chain(dual, l), fld.p) == []


def test_check_complex_rejects_nonzero_square(dual, fld):
    ei = dual.index["e_v"]
    # a single unit differential is a valid (contractible) complex
    c = ProjComplex(dual, {-1: ["v"], 0: ["v"]}, {-1: [[{ei: 1}]]})
    assert check_complex(c, fld.p) == []
    # two unit differentials compose to a unit, not zero
    c2 = ProjComplex(dual, {-2: ["v"], -1: ["v"], 0: ["v"]},
                     {-2: [[{ei: 1}]], -1: [[{ei: 1}]]})
    assert check_complex(c2, fld.p)


def oracle_faults(c, p):
    """The (degree d, summand i of d, summand k of d + 2) whose block of
    d_(d+1) d_d, as vector-space matrices, is nonzero mod p."""
    alg, out = c.algebra, []
    for d in sorted(c.degrees):
        dd = _diff_matrix(alg, c, d + 1, p) @ _diff_matrix(alg, c, d, p) % p
        src, _ = _space(alg, c, d)
        tgt, _ = _space(alg, c, d + 2)
        for i, (sv, so) in enumerate(src):
            for k, (tv, to) in enumerate(tgt):
                if dd[to:to + len(_proj_basis(alg, tv)), so:so + len(_proj_basis(alg, sv))].any():
                    out.append((d, i, k))
    return out


def messages(faults):
    return [f"degree {d}: d o d is nonzero at ({i}, {k})" for d, i, k in faults]


def test_check_complex_names_every_fault(dual):
    """Faults in degrees -3 and 0, a cancellation inside one entry sum,
    products a * a = 0, coefficients that vanish mod 2 or mod 3, and no
    d_(-1), so degrees -2 and -1 have nothing to check."""
    e, a = dual.index["e_v"], dual.index["a"]
    c = ProjComplex(dual, {d: ["v", "v"] for d in range(-3, 3)}, {
        -3: [[{e: 1}, {a: 1}], [{a: 1}, {a: 1}]],
        -2: [[{e: 1}, {a: 2}], [{e: -1}, {}]],
        0: [[{a: 1}, {e: 3}], [{}, {a: 1}]],
        1: [[{a: 1}, {e: 1}], [{a: 1}, {}]],
    })
    expected = {
        2: [(-3, 0, 0), (0, 0, 0), (0, 0, 1)],
        3: [(-3, 0, 0), (-3, 0, 1), (0, 0, 1)],
        32003: [(-3, 0, 0), (-3, 0, 1), (0, 0, 0), (0, 0, 1)],
    }
    for p, faults in expected.items():
        assert oracle_faults(c, p) == faults
        assert check_complex(c, p) == messages(faults)
    assert check_complex(c, 32003) == [
        "degree -3: d o d is nonzero at (0, 0)", "degree -3: d o d is nonzero at (0, 1)",
        "degree 0: d o d is nonzero at (0, 0)", "degree 0: d o d is nonzero at (0, 1)"]


def random_complexes(alg, rng, count):
    """Complexes over alg with random entries on up to four degrees, each
    differential left out with probability 0.15: many have d o d != 0."""
    vertices = list(alg.quiver.vertices)
    for _ in range(count):
        lo = rng.randrange(-3, 1)
        degs = {d: [rng.choice(vertices) for _ in range(rng.randrange(1, 4))]
                for d in range(lo, lo + rng.randrange(2, 5))}
        diffs = {d: [[{k: rng.randrange(-4, 5) for k in alg._between.get((b, a), ())
                       if rng.random() < 0.6} for b in degs[d + 1]] for a in degs[d]]
                 for d in degs if d + 1 in degs and rng.random() < 0.85}
        yield ProjComplex(alg, degs, diffs)


def test_check_complex_matches_oracle_on_random_complexes(dual):
    rng, seen = random.Random(43), 0
    for alg in (dual, linear_an(3), one_vertex_loop(3), a2_projective_resolutions()[0]):
        for c in random_complexes(alg, rng, 40):
            for p in (2, 3, 32003):
                faults = oracle_faults(c, p)
                assert check_complex(c, p) == messages(faults)
                seen += bool(faults)
    assert seen > 100


def test_check_complex_vertex_mismatch(fld):
    alg = linear_an(2)
    ai = alg.index["a1"]
    # a1 goes 1 -> 2; using it as a map P_1 -> P_2 is vertex-incompatible
    with pytest.raises(ValueError, match=r"^degree -1: entry \(0, 0\) not in e_2 A e_1$"):
        ProjComplex(alg, {-1: ["1"], 0: ["2"]}, {-1: [[{ai: 1}]]})
    ok = ProjComplex(alg, {-1: ["2"], 0: ["1"]}, {-1: [[{ai: 1}]]})
    assert check_complex(ok, fld.p) == []


def test_check_complex_shape_mismatch(dual):
    ai = dual.index["a"]
    with pytest.raises(ValueError, match="^degree -1: differential shape mismatch$"):
        ProjComplex(dual, {-1: ["v", "v"], 0: ["v"]}, {-1: [[{ai: 1}]]})


# -- hom dimensions --

def test_dual_numbers_c2_self_homs(dual, fld):
    c2 = dual_numbers_chain(dual, 2)
    # the load-bearing regression value, first confirmed by the
    # vector-space oracle: a weight -1 self-hom exists
    assert hom_oracle(dual, c2, c2, -1, fld.p) == 1
    assert hom_k_dim(c2, c2, -1, fld) == 1
    assert hom_k_dim(c2, c2, 0, fld) == 2
    assert hom_k_dim(c2, c2, 1, fld) == 1
    assert hom_k_dim(c2, c2, 2, fld) == 0


@pytest.mark.parametrize("n", range(-3, 4))
def test_dual_numbers_match_oracle(dual, fld, n):
    chains = [dual_numbers_chain(dual, l) for l in (1, 2, 3)]
    for x in chains:
        for y in chains:
            assert hom_k_dim(x, y, n, fld) == hom_oracle(dual, x, y, n, fld.p)


def test_hom_k_dim_builds_outer_blocks_only_beside_maps(monkeypatch, dual, fld):
    # d_(n-1) ends in the degree-n maps and d_n starts there, so without
    # them hom_k_dim builds one block table, not three: 612 tables, not
    # 756, over the 252 homs of the dual-numbers chains 1..6 at shifts
    # -3..3, with every dimension the oracle's
    import derhed.complexes

    assembled = []
    assemble = derhed.complexes._hom_complex
    monkeypatch.setattr(derhed.complexes, "_hom_complex",
                        lambda *args: assembled.append(out := assemble(*args)) or out)
    chains = [dual_numbers_chain(dual, l) for l in range(1, 7)]
    built = 0
    for x in chains:
        for y in chains:
            for n in range(-3, 4):
                assembled.clear()
                assert hom_k_dim(x, y, n, fld) == hom_oracle(dual, x, y, n, fld.p)
                [(blocks, _)] = assembled
                assert sorted(blocks) == ([n - 1, n, n + 1] if blocks[n][1] else [n])
                built += len(blocks)
    assert built == 612


@pytest.mark.parametrize("family", ["dual", "a2"])
def test_window_table_matches_per_call_dims(dual, fld, family):
    """The builder's one table per pair equals the per-call hom_k_dim,
    the oracle, and Hom(X, Y[n]) computed as Hom(X, shift(Y, n)) in
    degree 0."""
    if family == "dual":
        xs = [dual_numbers_chain(dual, l) for l in (1, 2, 3, 4)]
    else:
        xs = a2_projective_resolutions()[1]
    window = 3
    for x in xs:
        for y in xs:
            table = _hom_dims(x, y, -window, window, fld)
            assert sorted(table) == list(range(-window, window + 1))
            for n, dim in table.items():
                assert dim == hom_k_dim(x, y, n, fld)
                assert dim == hom_oracle(x.algebra, x, y, n, fld.p)
                assert dim == hom_k_dim(x, shift_complex(y, n, fld.p), 0, fld)


def a3_shortcut_complexes():
    """ROADMAP item 1's seven complexes over 1 -> 2 -> 3 (arrows a, b)
    plus 1 -> 3 (arrow c) modulo a*b: P1, P2, P3, P2->P1, P3->P1, P3->P2
    and P3->P2->P1, each with top degree 0."""
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "1", "3")))
    alg = MonomialAlgebra(q, [("a", "b")])
    a, b, c = (alg.index[x] for x in "abc")

    def cx(name, *vs_and_maps):
        vs, maps = vs_and_maps[::2], vs_and_maps[1::2]
        top = len(vs) - 1
        return ProjComplex(alg, {d - top: [v] for d, v in enumerate(vs)},
                           {d - top: [[{m: 1}]] for d, m in enumerate(maps)}, name=name)

    return alg, [cx("P1", "1"), cx("P2", "2"), cx("P3", "3"),
                 cx("P2P1", "2", a, "1"), cx("P3P1", "3", c, "1"),
                 cx("P3P2", "3", b, "2"), cx("P3P2P1", "3", b, "2", a, "1")]


def test_a3_shortcut_matches_oracle(fld):
    """hom_k_dim, the window table and the vector-space oracle agree on
    every ordered pair of the seven complexes and every n in -3..3."""
    alg, xs = a3_shortcut_complexes()
    for x in xs:
        assert check_complex(x, fld.p) == [], x.name
    nonzero = 0
    for x in xs:
        for y in xs:
            table = _hom_dims(x, y, -3, 3, fld)
            for n in range(-3, 4):
                want = hom_oracle(alg, x, y, n, fld.p)
                assert hom_k_dim(x, y, n, fld) == want == table[n], (x.name, y.name, n)
                nonzero += want > 0
    assert nonzero > 0
    # the weight-2 self-extension of P3->P2->P1 (its Ext^2)
    assert hom_k_dim(xs[-1], xs[-1], 2, fld) == 1


def test_oracle_reads_no_engine_index(fld):
    """The oracle lists the paths between two vertices from alg.basis, not
    from the (source, target) index that hom_k_dim reads: with the arrow a
    dropped from that index, the two disagree on Hom(P2, P1), where no
    differential is involved."""
    alg, xs = a3_shortcut_complexes()
    p1, p2 = xs[:2]
    alg._between[("1", "2")].remove(alg.index["a"])
    assert hom_k_dim(p2, p1, 0, fld) == 0
    assert hom_oracle(alg, p2, p1, 0, fld.p) == 1


def test_missing_differential_is_zero(fld):
    """Adjacent nonempty degrees with no differential between them: P2[1]
    + P1 over A_2, and P2 -> P2 -> P1 with only the last map given."""
    alg, reps = a2_projective_resolutions()
    split = ProjComplex(alg, {-1: ["2"], 0: ["1"]}, name="split")
    gap = ProjComplex(alg, {-2: ["2"], -1: ["2"], 0: ["1"]},
                      {-1: [[{alg.index["a"]: 1}]]}, name="gap")
    xs = reps + [split, gap]
    for x in xs:
        assert check_complex(x, fld.p) == [], x.name
        for y in xs:
            for n in range(-3, 4):
                assert hom_k_dim(x, y, n, fld) == hom_oracle(alg, x, y, n, fld.p), (
                    x.name, y.name, n)
    # End(P2) + End(P1), and the arrow P2 -> P1 as a degree-1 map
    assert hom_k_dim(split, split, 0, fld) == 2
    assert hom_k_dim(split, split, 1, fld) == 1


@pytest.mark.parametrize("p", [32003, 3])
@pytest.mark.parametrize("family", ["dual", "a2", "a3"])
def test_hom_complex_squares_to_zero(dual, family, p):
    """d_(n+1) d_n = 0 on the total hom complex, and the window table
    equals the per-degree hom_k_dim, over C_1..C_6, the A_2 resolutions
    and the interval resolutions of the linear A_3.  Only A_3 has nonzero
    composites d_Y f d_X (a^2 = 0 in the dual numbers, and A_2 has no
    path of length 2), so only there does a sign slip in the boundary
    assembly break d^2 = 0."""
    f = PrimeField(p)
    if family == "dual":
        xs = [dual_numbers_chain(dual, l) for l in range(1, 7)]
    elif family == "a2":
        xs = a2_projective_resolutions()[1]
    else:
        alg = linear_an(3)
        xs = [interval_resolution(alg, 3, a, b) for a in range(1, 4) for b in range(a, 4)]
    for x in xs:
        for y in xs:
            blocks, d = _hom_complex(x, y, -3, 5, p)
            size = {m: blocks[m][1] for m in blocks}
            # degrees -3..5 are numbered, -4 and 6 only beside maps; each
            # table runs (i, a, b) ascending with its blocks end to end
            assert set(blocks) == set(range(-3, 6)) | {m for m, inner in ((-4, -3), (6, 5))
                                                        if size[inner]}
            for table, n_coords in blocks.values():
                assert list(table) == sorted(table)
                ends = [off + len(paths) for off, paths in table.values()]
                assert [off for off, _ in table.values()] == ([0] + ends)[:len(ends)]
                assert n_coords == (ends[-1] if ends else 0)
            # a boundary exactly where both degrees have maps, as sparse
            # rows {target: {source: entry}}, none empty, entries in [1, p)
            assert set(d) == {m for m in range(-4, 6) if size.get(m) and size.get(m + 1)}
            for m, rows in d.items():
                assert all(row and 0 <= t < size[m + 1] for t, row in rows.items())
                assert all(0 <= c < size[m] and 0 < v < p
                           for row in rows.values() for c, v in row.items())
            for n in range(-4, 5):
                d_n, d_next = d.get(n, {}), d.get(n + 1, {})
                # (d_next d_n)[i][j] = sum_k d_next[i][k] d_n[k][j] = 0 mod p
                assert all(sum(c * d_n.get(k, {}).get(j, 0) for k, c in row.items()) % p == 0
                           for row in d_next.values() for j in range(size.get(n, 0)))
            assert _hom_dims(x, y, -3, 3, f) == {n: hom_k_dim(x, y, n, f)
                                                  for n in range(-3, 4)}


def direct_sum(x, y, name=""):
    """X + Y: in every degree the summands of Y after those of X, and the
    differentials block-diagonal (a missing one is zero)."""
    degs = sorted(set(x.degrees) | set(y.degrees))

    def rows(c, d, before, after):
        m = c.diffs.get(d) or [[{} for _ in c.summands(d + 1)] for _ in c.summands(d)]
        return [[{} for _ in range(before)] + list(row) + [{} for _ in range(after)]
                for row in m]

    return ProjComplex(
        x.algebra, {d: x.summands(d) + y.summands(d) for d in degs},
        {d: rows(x, d, 0, len(y.summands(d + 1))) + rows(y, d, len(x.summands(d + 1)), 0)
         for d in degs if d + 1 in degs}, name=name)


def assert_homs_match_oracle(alg, xs, fld):
    """hom_k_dim, the window table and the oracle agree on every ordered
    pair of xs at shifts -3..3; returns how many of those homs are nonzero."""
    nonzero = 0
    for x in xs:
        for y in xs:
            table = _hom_dims(x, y, -3, 3, fld)
            for n in range(-3, 4):
                want = hom_oracle(alg, x, y, n, fld.p)
                assert hom_k_dim(x, y, n, fld) == table[n] == want, (x.name, y.name, n)
                nonzero += want > 0
    return nonzero


@pytest.mark.parametrize("p", [3, 32003])
def test_kronecker_band_homs_match_oracle(p):
    """Two summands in each degree and two paths (a and b) in each block,
    so a coordinate is found at a nonzero offset plus a nonzero slot."""
    alg, fld = kronecker(), PrimeField(p)
    coeffs = ([(c0, c1) for c0 in range(p) for c1 in range(p)] if p == 3
              else [(0, 0), (1, 0), (2, 3), (p - 1, 5)])
    xs = [kronecker_band(alg, p, c0, c1) for c0, c1 in coeffs]
    assert assert_homs_match_oracle(alg, xs, fld) > 0


# (X, Y, k) for the sums X + Y[k], as indices into the family
SUM_PLAN = [(0, 1, 1), (1, 2, -1), (2, 0, 0), (1, 1, 2)]


@pytest.mark.parametrize("p", [3, 32003])
@pytest.mark.parametrize("family", ["dual", "a2", "a3"])
def test_direct_sum_homs_match_oracle(dual, family, p):
    """Direct sums X + Y[k] put summands of two complexes side by side in
    one degree.  hom_k_dim and the window table agree with the oracle on
    the family and the sums; each sum is decomposable, and are_isomorphic
    finds exactly its summands among the family."""
    fld = PrimeField(p)
    if family == "dual":
        xs = [dual_numbers_chain(dual, l, name=f"C{l}") for l in (1, 2, 3)]
    elif family == "a2":
        xs = a2_projective_resolutions()[1]
    else:
        xs = a3_shortcut_complexes()[1][3:6]
    alg = xs[0].algebra
    sums = [direct_sum(xs[i], shift_complex(xs[j], k, p), f"{xs[i].name}+{xs[j].name}[{k}]")
            for i, j, k in SUM_PLAN]
    for s in sums:
        assert check_complex(s, p) == [], s.name
    assert assert_homs_match_oracle(alg, xs + sums, fld) > 0
    for s, (i, j, k) in zip(sums, SUM_PLAN):
        if p > 3:  # the trace-form radical needs p > dim End
            assert not is_indecomposable(s, fld), s.name
        for z, x in enumerate(xs):
            assert are_isomorphic(x, s, fld) == (z == i or (z == j and k == 0)), (x.name, s.name)


def euler_families(p):
    """C1..C6, the A_2 resolutions, the A_3 shortcut complexes and Kronecker
    bands, each family with its direct sums X + Y[k] (SUM_PLAN)."""
    dual, kr = dual_numbers_algebra(), kronecker()
    families = [
        [dual_numbers_chain(dual, l) for l in range(1, 7)],
        a2_projective_resolutions()[1],
        a3_shortcut_complexes()[1],
        [kronecker_band(kr, p, c0, c1) for c0, c1 in ((0, 0), (1, 0), (2, 3), (p - 1, 5))],
    ]
    for xs in families:
        yield xs + [direct_sum(xs[i], shift_complex(xs[j], k, p), f"{xs[i].name}+{xs[j].name}[{k}]")
                    for i, j, k in SUM_PLAN]


def test_euler_form_of_the_hom_tables(fld):
    """sum_n (-1)^n dim Hom(X, Y[n]) over the whole support of the hom
    complex equals [X]^T C [Y], which reads only the terms of X and Y and
    the path counts C: the hom tables agree with it in aggregate, the
    differentials aside.  C transposed misses on some pairs, so the
    orientation is checked too."""
    cases = transposed_misses = 0
    for xs in euler_families(fld.p):
        c = cartan(xs[0].algebra)
        for x in xs:
            for y in xs:
                dims = _hom_dims(x, y, min(y.degrees) - max(x.degrees),
                                 max(y.degrees) - min(x.degrees), fld)
                chi = sum((-1) ** n * d for n, d in dims.items())
                kx, ky = k0_class(x), k0_class(y)
                assert chi == sum(kx[a] * c[a, b] * ky[b] for a in kx for b in ky), (
                    x.name, y.name)
                transposed_misses += chi != sum(kx[a] * c[b, a] * ky[b] for a in kx for b in ky)
                cases += 1
    assert cases == 10**2 + 7**2 + 11**2 + 8**2
    assert transposed_misses > 0


@pytest.mark.parametrize("p", [5, 101])
def test_hom_basis_at_every_degree(p):
    """_hom_basis(x, y, n) gives hom_k_dim(x, y, n) reps at every degree
    n, not only the End's n = 0, and each rep is a cycle: the boundary
    d_n maps it to 0."""
    fld, off_zero = PrimeField(p), 0
    for xs in euler_families(p):
        for x in xs:
            for y in xs:
                for n in range(-3, 4):
                    _, _, reps = _hom_basis(x, y, n, fld)
                    assert len(reps) == hom_k_dim(x, y, n, fld), (x.name, y.name, n)
                    d_n = _hom_complex(x, y, n, n, p)[1].get(n, {})
                    assert all(sum(c * r.get(s, 0) for s, c in row.items()) % p == 0
                               for row in d_n.values() for r in reps), (x.name, y.name, n)
                    off_zero += len(reps) if n else 0
    assert off_zero > 0


def test_one_assembly_per_hom_computation(monkeypatch, dual, fld):
    """hom_k_dim, the window table and an End algebra each assemble the
    hom complex once, over the degrees they read."""
    import derhed.complexes

    calls = []
    assemble = derhed.complexes._hom_complex
    monkeypatch.setattr(derhed.complexes, "_hom_complex",
                        lambda *args: calls.append(args[2:4]) or assemble(*args))
    x, y = dual_numbers_chain(dual, 3), dual_numbers_chain(dual, 4)
    for compute, want in ((lambda: hom_k_dim(x, y, 1, fld), [(1, 1)]),
                          (lambda: _hom_dims(x, y, -3, 3, fld), [(-3, 3)]),
                          (lambda: EndAlgebra(x, fld), [(0, 0)])):
        calls.clear()
        compute()
        assert calls == want


@pytest.mark.parametrize("lo, hi", [(0, 0), (-1, 1), (-3, 3), (1, 4)])
def test_hom_dims_ranks_each_boundary_between_maps_once(monkeypatch, fld, lo, hi):
    """_hom_dims(x, y, lo, hi) makes one _eliminate call for each
    boundary d_m, lo - 1 <= m <= hi, whose two degrees both have maps,
    and no more; the maps of a degree are counted with the oracle's
    coordinates, not the engine's blocks.  Each call takes the rows
    _hom_complex built for its boundary, the very dicts, uncopied."""
    import derhed.complexes

    built, calls = [], []
    assemble, eliminate = derhed.complexes._hom_complex, derhed.complexes._eliminate
    monkeypatch.setattr(derhed.complexes, "_hom_complex",
                        lambda *args: built.append(out := assemble(*args)) or out)

    def spying(m, *args):
        rows = list(m)
        calls.append(rows)
        return eliminate(rows, *args)

    monkeypatch.setattr(derhed.complexes, "_eliminate", spying)
    ranked = 0
    for xs in euler_families(fld.p):
        alg = xs[0].algebra
        for x in xs:
            for y in xs:
                maps = {m: sum(len(_map_coords(alg, x, y, d, d + m)) for d in x.degrees)
                        for m in range(lo - 1, hi + 2)}
                built.clear()
                calls.clear()
                _hom_dims(x, y, lo, hi, fld)
                assert len(calls) == sum(1 for m in range(lo - 1, hi + 1)
                                         if maps[m] and maps[m + 1]), (x.name, y.name)
                [(_, d)] = built
                boundaries = [list(rows.values()) for rows in d.values()]
                assert len(boundaries) == len(calls)
                assert all(len(got) == len(rows) and all(a is b for a, b in zip(got, rows))
                           for got, rows in zip(calls, boundaries))
                ranked += len(calls)
    assert ranked > 0


def test_window_tables_match_oracle_across_the_hom_support():
    """On euler_families(5), each window table equals the per-degree
    hom_k_dim and the oracle, for windows that end below, at and past
    each edge of the hom support (Hom(X, Y[n]) = 0 unless min Y - max X
    <= n <= max Y - min X), one over all of it and one wholly past it."""
    fld, nonzero = PrimeField(5), 0
    for xs in euler_families(fld.p):
        alg = xs[0].algebra
        for x in xs:
            for y in xs:
                s_lo, s_hi = min(y.degrees) - max(x.degrees), max(y.degrees) - min(x.degrees)
                want: dict[int, int] = {}
                for lo, hi in ((s_lo - 2, s_lo), (s_lo - 1, s_lo + 1), (s_hi - 1, s_hi + 1),
                               (s_hi, s_hi + 2), (s_lo - 1, s_hi + 1), (s_hi + 1, s_hi + 3)):
                    table = _hom_dims(x, y, lo, hi, fld)
                    assert sorted(table) == list(range(lo, hi + 1))
                    for n, dim in table.items():
                        if n not in want:
                            want[n] = hom_oracle(alg, x, y, n, fld.p)
                        assert dim == hom_k_dim(x, y, n, fld) == want[n], (x.name, y.name, lo, hi)
                assert all(want[n] == 0 for n in want if not s_lo <= n <= s_hi)
                nonzero += sum(d > 0 for d in want.values())
    assert nonzero > 0


@pytest.mark.parametrize("p", [5, 101])
def test_isomorphic_at_degree_n_matches_shifted_copy(p):
    """The builder's iso test, _isomorphic(End X, Y, n) on the degree-n
    maps, answers as are_isomorphic(X, Y[n]) on a shifted copy, for every
    X with a local End and every Y of its family at n = -2..2."""
    fld, answers = PrimeField(p), set()
    for xs in euler_families(p):
        for x in xs:
            end = EndAlgebra(x, fld)
            if end.dim >= p or not end.is_local():  # the radical needs p > dim End
                continue
            for y in xs:
                for n in range(-2, 3):
                    iso = _isomorphic(end, y, n)
                    assert iso == are_isomorphic(x, shift_complex(y, n, p), fld), (
                        x.name, y.name, n)
                    answers.add((iso, n == 0))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


def test_dual_numbers_graph_matches_per_call_dims(dual, fld):
    g = gen_dual_numbers(5, 2, fld)
    chains = {f"C{l}": dual_numbers_chain(dual, l) for l in range(1, 6)}
    for a, x in chains.items():
        assert g.orbit(a).end_dim == hom_k_dim(x, x, 0, fld)
        for b, y in chains.items():
            edges = {e.weight: e.dim for e in g.edges_between(a, b)}
            for n in range(-2, 3):
                assert edges.get(n, 0) == hom_k_dim(x, y, n, fld)


def test_homotopy_route_bytes_are_pinned():
    # gen dual over a grid of lengths, windows and fields, and gen a2 from
    # complexes at every window; each text must survive its own round trip
    digest = hashlib.sha256()
    texts = [gen_dual_numbers(length, window, PrimeField(p)).to_json()
             for length in range(2, 11) for window in range(4) for p in (3, 5, 101, 32003)]
    texts += [gen_a2_from_complexes(window).to_json() for window in range(4)]
    for text in texts:
        assert ShiftGraph.from_dict(json.loads(text)).to_json() == text
        digest.update(text.encode() + b"\n")
    assert len(texts) == 148
    assert digest.hexdigest() == (
        "f20044b2d9497f1c133489a639b2309ab0fb9575c0cfd8f330424d9daf5871ac")


def test_a2_projectives(fld):
    alg, (s1, i, s2) = a2_projective_resolutions()
    # i is the stalk of P_1, s2 the stalk of P_2
    assert hom_k_dim(s2, i, 0, fld) == 1
    assert hom_k_dim(i, s2, 0, fld) == 0
    assert hom_k_dim(s1, s2, 1, fld) == 1
    assert hom_k_dim(s1, s2, 0, fld) == 0
    assert hom_k_dim(i, s1, 0, fld) == 1
    for x in (s1, i, s2):
        assert hom_k_dim(x, x, 0, fld) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interval_resolutions_concentrated(fld, n):
    """Over a hereditary algebra homs between module resolutions live in
    shifts 0 and 1 only, and match the abelian computation."""
    alg = linear_an(n)
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    res = {ab: interval_resolution(alg, n, *ab) for ab in intervals}
    for ab in intervals:
        for cd in intervals:
            for k in (-2, -1, 2, 3):
                assert hom_k_dim(res[ab], res[cd], k, fld) == 0


def test_shift_invariance(dual, fld):
    c2 = dual_numbers_chain(dual, 2)
    c3 = dual_numbers_chain(dual, 3)
    for k in (-2, -1, 1, 2):
        xs = shift_complex(c2, k, fld.p)
        ys = shift_complex(c3, k, fld.p)
        assert check_complex(xs, fld.p) == []
        for nn in (-1, 0, 1):
            assert hom_k_dim(xs, ys, nn, fld) == hom_k_dim(c2, c3, nn, fld)
            assert hom_k_dim(c2, ys, nn, fld) == hom_k_dim(c2, c3, nn + k, fld)


def test_shift_round_trip(dual, fld):
    c3 = dual_numbers_chain(dual, 3)
    back = shift_complex(shift_complex(c3, 1, fld.p), -1, fld.p)
    assert back.to_dict()["degrees"] == c3.to_dict()["degrees"]
    assert back.to_dict()["differentials"] == c3.to_dict()["differentials"]


# -- indecomposability and isomorphism --

def test_is_indecomposable(dual, fld):
    c1 = dual_numbers_chain(dual, 1)
    c2 = dual_numbers_chain(dual, 2)
    assert is_indecomposable(c1, fld)
    assert is_indecomposable(c2, fld)
    double = ProjComplex(dual, {0: ["v", "v"]}, {})
    assert not is_indecomposable(double, fld)


def test_is_indecomposable_a2(fld):
    alg, reps = a2_projective_resolutions()
    for x in reps:
        assert is_indecomposable(x, fld)


def kronecker_band(alg, p, c0, c1):
    """Over the Kronecker quiver 1 => 2 (arrows a, b), X = P2^2 -> P1^2
    with differential a*I + b*C, C the companion matrix of f = x^2 + c1*x
    + c0; it resolves the module k[x]/(f)."""
    a, b = alg.index["a"], alg.index["b"]
    comp = [[0, -c0 % p], [1, -c1 % p]]
    diff = [[{k: v for k, v in ((a, int(i == j)), (b, comp[i][j])) if v}
             for j in range(2)] for i in range(2)]
    return ProjComplex(alg, {-1: ["2", "2"], 0: ["1", "1"]}, {-1: diff}, name=f"B{c0},{c1}")


def kronecker():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    return MonomialAlgebra(q, [])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_is_indecomposable_kronecker_bands(p):
    """The band complex of f is indecomposable unless f has two distinct
    roots mod p; an irreducible f makes End(X)/J the field GF(p^2), which
    the Frobenius step tells from GF(p) x GF(p)."""
    alg = kronecker()
    fld = PrimeField(p)
    for c0 in range(p):
        for c1 in range(p):
            x = kronecker_band(alg, p, c0, c1)
            roots = {r for r in range(p) if (r * r + c1 * r + c0) % p == 0}
            assert is_indecomposable(x, fld) == (len(roots) != 2), (c0, c1)


def test_field_too_small(dual):
    tiny = PrimeField(2)
    c1 = dual_numbers_chain(dual, 1)  # End has dimension 2 = p
    with pytest.raises(FieldTooSmall):
        is_indecomposable(c1, tiny)


def test_radical_computed_once(dual, fld):
    end = EndAlgebra(dual_numbers_chain(dual, 2), fld)
    rad = end.radical()
    assert len(rad) == 1 and len(rad[0]) == end.dim
    assert end.radical() is rad
    assert end.is_local()
    small = EndAlgebra(dual_numbers_chain(dual, 1), PrimeField(2))
    for _ in range(2):
        with pytest.raises(FieldTooSmall):
            small.radical()


def test_are_isomorphic(dual, fld):
    c1 = dual_numbers_chain(dual, 1)
    c2 = dual_numbers_chain(dual, 2)
    other_c1 = dual_numbers_chain(dual, 1, name="again")
    assert are_isomorphic(c1, other_c1, fld)
    assert not are_isomorphic(c1, c2, fld)
    assert not are_isomorphic(c1, shift_complex(c1, 1, fld.p), fld)
    # the test reads no radical, so a field too small for the trace form
    # of End(C1) (p = 2 = dim End) still gives every answer
    tiny = PrimeField(2)
    assert are_isomorphic(c1, other_c1, tiny)
    assert not are_isomorphic(c1, c2, tiny)
    assert not are_isomorphic(c1, shift_complex(c1, 1, 2), tiny)


def oracle_composite(end, i, j, p):
    """The coordinates of b_i o b_j (b_j applied first) on end.blocks, from
    the product of the two maps as per-degree vector-space matrices."""
    x, alg, out = end.x, end.x.algebra, {}
    for d in x.degrees:
        coords = _map_coords(alg, x, x, d, d)
        cols = [end.blocks[0][d, a, b][0] + end.blocks[0][d, a, b][1].index(g)
                for a, b, g in coords]

        def matrix(rep):
            return _coords_to_matrix(alg, x, x, d, d, coords, [rep.get(c, 0) for c in cols], p)

        prod = matrix(end.reps[i]) @ matrix(end.reps[j]) % p
        out.update(zip(cols, _matrix_to_coords(alg, x, x, d, d, coords, prod, p)))
    return out


def assert_structure_matches_oracle(end):
    st = end.structure()
    assert sorted(st) == [(i, j) for i in range(end.dim) for j in range(end.dim)]
    for (i, j), prod in st.items():
        assert prod == end.to_quotient([oracle_composite(end, i, j, end.fld.p)])[0]


def test_structure_table_of_noncommutative_end(fld):
    """End(P_1 + P_2) over A_2 is the 3-dimensional upper triangular
    algebra.  The table must give, for every pair, the End coordinates of
    the product b_i o b_j (b_j applied first) composed by the oracle."""
    alg, _ = a2_projective_resolutions()
    end = EndAlgebra(ProjComplex(alg, {0: ["1", "2"]}), fld)
    assert end.dim == 3
    assert_structure_matches_oracle(end)
    st = end.structure()
    assert any(st[(i, j)] != st[(j, i)] for i in range(3) for j in range(i))
    rad = end.radical()
    assert len(rad) == 1 and len(rad[0]) == 3
    assert not end.is_local()


def one_vertex_loop(relation_length):
    """k<a>/(a^relation_length): one vertex, one loop, one monomial relation."""
    q = Quiver(("v",), (Arrow("a", "v", "v"),))
    return MonomialAlgebra(q, [("a",) * relation_length])


def no_arrows(n):
    return MonomialAlgebra(Quiver(tuple(str(v) for v in range(1, n + 1)), ()), [])


def structure_cases():
    dual = dual_numbers_algebra()
    return ([dual_numbers_chain(dual, l, name=f"C{l}") for l in (1, 2, 3, 4)]
            + a2_projective_resolutions()[1]
            + [ProjComplex(one_vertex_loop(3), {0: ["v"]}, name="P over k[a]/(a^3)")])


@pytest.mark.parametrize("p", [5, 32003])
@pytest.mark.parametrize("x", structure_cases(), ids=lambda x: x.name)
def test_structure_table_matches_oracle(x, p):
    assert_structure_matches_oracle(EndAlgebra(x, PrimeField(p)))


# name -> (the complex, dim End, dim J, whether End is local)
END_CASES = {
    **{f"C{l}": (lambda l=l: dual_numbers_chain(dual_numbers_algebra(), l), 2, 1, True)
       for l in (1, 2, 3, 4)},
    "P over k[a]/(a^3)": (lambda: ProjComplex(one_vertex_loop(3), {0: ["v"]}), 3, 2, True),
    **{f"A2 {x.name}": (lambda x=x: x, 1, 0, True) for x in a2_projective_resolutions()[1]},
    # upper triangular: E/J = k x k
    "P1+P2 over A2": (lambda: ProjComplex(a2_projective_resolutions()[0], {0: ["1", "2"]}),
                      3, 1, False),
    # M_2(k): E/J is not commutative
    "P1+P1, no arrow": (lambda: ProjComplex(no_arrows(1), {0: ["1", "1"]}), 4, 0, False),
    # k x k: the Frobenius kernel has dimension 2
    "P1+P2, no arrow": (lambda: ProjComplex(no_arrows(2), {0: ["1", "2"]}), 2, 0, False),
}


def brute_force_local(end, p):
    """Whether every element x of End is a unit (L_x of full rank) or
    nilpotent (L_x^dim = 0), L_x its left multiplication."""
    st, n = end.structure(), end.dim
    left = [np.array([[st[(i, l)][k] for l in range(n)] for k in range(n)], dtype=object)
            for i in range(n)]
    for x in itertools.product(range(p), repeat=n):
        lx = sum(c * m for c, m in zip(x, left)) % p
        power = np.identity(n, dtype=object)
        for _ in range(n):
            power = power.dot(lx) % p
        if rank_oracle(lx, p) < n and power.any():
            return False
    return True


@pytest.mark.parametrize("case", END_CASES)
def test_is_local_matches_brute_force(case):
    """At p = 5 every element of End can be listed: End is local exactly
    when each one is a unit or nilpotent."""
    make, dim, rad_dim, local = END_CASES[case]
    end = EndAlgebra(make(), PrimeField(5))
    assert (end.dim, len(end.radical())) == (dim, rad_dim)
    assert end.is_local() == brute_force_local(end, 5) == local


def test_noncommutative_quotient_is_not_local():
    """End(P1 + P1) = M_2(k) read in the basis 1, E12, E21, X = E11 + E12 +
    E21: there x -> x^p - x, not additive on M_2(k), sends the basis to a
    rank 3 family, one short of dim, so only the commutator check tells
    this E/J from a field."""
    p = 5
    end = EndAlgebra(ProjComplex(no_arrows(1), {0: ["1", "1"]}), PrimeField(p))
    basis = [np.array(m, dtype=object)
             for m in ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [1, 0]])]
    coords = {tuple((sum(c * m for c, m in zip(x, basis)) % p).flat): list(x)
              for x in itertools.product(range(p), repeat=4)}
    end._struct = {(i, j): coords[tuple((basis[i].dot(basis[j]) % p).flat)]
                   for i in range(4) for j in range(4)}
    frob = [coords[tuple(((np.linalg.matrix_power(m, p) - m) % p).flat)] for m in basis]
    assert rank_oracle(np.array(frob), p) == 3 and end.radical() == []
    assert not end.is_local() and not brute_force_local(end, p)


def test_zero_complex_is_not_local(dual):
    """The zero algebra has no field factor; listing its one element would
    call it local."""
    end = EndAlgebra(ProjComplex(dual, {}), PrimeField(5))
    assert end.dim == 0 and not end.is_local()


def test_end_algebra_makes_no_solve_and_no_matrix_power(monkeypatch, dual, fld):
    """One echelon serves the End basis and every to_quotient, and the
    p-th powers are taken in E/J, not as dense matrix powers."""
    assert not hasattr(PrimeField, "matmul")
    calls = []
    real = PrimeField.solve
    monkeypatch.setattr(PrimeField, "solve",
                        lambda self, *args: calls.append("solve") or real(self, *args))
    end = EndAlgebra(dual_numbers_chain(dual, 5), fld)
    end.structure()
    end.radical()
    assert end.is_local() and calls == []


def round_trip_complexes():
    dual = dual_numbers_algebra()
    xs = a2_projective_resolutions()[1]
    return ([dual_numbers_chain(dual, l) for l in (1, 2, 3, 4)]
            + [direct_sum(xs[i], shift_complex(xs[j], k, 7), f"{xs[i].name}+{xs[j].name}[{k}]")
               for i, j, k in SUM_PLAN])


@pytest.mark.parametrize("x", round_trip_complexes(), ids=lambda x: x.name or "C")
def test_to_quotient_round_trip(x):
    """sum a_i rep_i plus the image of a random degree -1 map has End
    coordinates a; adding a vector that is not a cycle raises."""
    fld, rng = PrimeField(7), random.Random(x.name)
    end = EndAlgebra(x, fld)
    blocks, d = _hom_complex(x, x, 0, 0, fld.p)
    d_prev, d_0 = d.get(-1, {}), d.get(0, {})
    for _ in range(5):
        alpha = [rng.randrange(fld.p) for _ in range(end.dim)]
        h = [rng.randrange(fld.p) for _ in range(blocks[-1][1])]
        v = {t: sum(h[s] * c for s, c in row.items()) for t, row in d_prev.items()}
        for a, rep in zip(alpha, end.reps):
            for c, e in rep.items():
                v[c] = v.get(c, 0) + a * e
        assert end.to_quotient([v]) == [alpha]
        for c in sorted({c for row in d_0.values() for c in row}):  # e_c is not a cycle
            with pytest.raises(RuntimeError, match="not a cycle"):
                end.to_quotient([{**v, c: v.get(c, 0) + 1}])


def test_are_isomorphic_with_empty_radical(fld):
    _, (_, _, s2) = a2_projective_resolutions()
    assert EndAlgebra(s2, fld).radical() == []  # End(P_2) = k
    renamed = ProjComplex(s2.algebra, s2.degrees, s2.diffs, name="again")
    assert are_isomorphic(s2, renamed, fld)
    assert not are_isomorphic(s2, shift_complex(s2, 1, fld.p), fld)


def test_constructor_normalizes_degrees(dual):
    c = ProjComplex(dual, {"-1": ("v",), "0": ["v"], "3": []})
    assert c.degrees == {-1: ["v"], 0: ["v"]} and c.diffs == {}
    with pytest.raises(ValueError, match="unknown vertices"):
        ProjComplex(dual, {0: ["w"]})


def test_json_round_trip(dual):
    c3 = dual_numbers_chain(dual, 3)
    d = c3.to_dict()
    back = ProjComplex.from_dict(dual, d)
    assert back.to_dict() == d
    with pytest.raises((ValueError, KeyError)):
        ProjComplex.from_dict(dual, {"degrees": {"0": ["nope"]}})


@pytest.mark.parametrize("summands", ["vv", {"v": 1}, None, [["v"]], ["v", 1]],
                         ids=["string", "object", "null", "nested", "number"])
def test_from_dict_refuses_non_list_degree(dual, summands):
    """A degree value must be a list of vertex names; a string used to
    be split into one summand per character."""
    with pytest.raises(ValueError, match="list of vertex names"):
        ProjComplex.from_dict(dual, {"degrees": {"0": summands}})


@pytest.mark.parametrize("coeff", [1.7, 1.0, "1", True, None])
def test_from_dict_refuses_non_integer_coefficient(dual, coeff):
    """A coefficient must be a JSON integer; a float used to be
    truncated by int()."""
    d = dual_numbers_chain(dual, 2).to_dict()
    d["differentials"]["-1"] = [[[["a", coeff]]]]
    with pytest.raises(ValueError, match="is not an integer"):
        ProjComplex.from_dict(dual, d)
    d["differentials"]["-1"] = [[[["a", -1]]]]
    assert ProjComplex.from_dict(dual, d).diffs == {-1: [[{dual.index["a"]: -1}]]}


@pytest.mark.parametrize("keys", [(" 0", "+0"), ("0", "00"), ("-1", " -1 ")],
                         ids=["space-plus", "leading-zero", "spaces"])
def test_from_dict_refuses_repeated_degree(keys):
    """Two keys that name the same integer are refused in degrees and in
    differentials; they used to merge, the last one silently winning."""
    alg = linear_an(2)
    first, second = keys
    with pytest.raises(ValueError, match="name the same degree"):
        ProjComplex.from_dict(alg, {"degrees": {first: ["1"], second: ["2"]}})
    a = [[[["a1", 1]]]]
    good = {"degrees": {"-1": ["2"], "0": ["1"]}, "differentials": {"-1": a}}
    assert ProjComplex.from_dict(alg, good).diffs == {-1: [[{alg.index["a1"]: 1}]]}
    with pytest.raises(ValueError, match="name the same degree"):
        ProjComplex.from_dict(alg, dict(good, differentials={first: a, second: a}))


@pytest.mark.parametrize("name", [5, None, True, ["P"], {"n": "P"}])
def test_from_dict_refuses_non_string_name(name):
    alg = linear_an(2)
    with pytest.raises(ValueError, match="is not a string"):
        ProjComplex.from_dict(alg, {"name": name, "degrees": {"0": ["1"]}})
    assert ProjComplex.from_dict(alg, {"degrees": {"0": ["1"]}}).name == ""
    assert ProjComplex.from_dict(alg, {"name": "P", "degrees": {"0": ["1"]}}).name == "P"


def test_constructor_copies_differentials(dual):
    """The constructor copies the differentials, as Representation copies
    its maps: setting the caller's entry to 0 afterwards would turn C2
    into P + P[1], whose End has dimension 4."""
    ai = dual.index["a"]
    diffs = {-1: [[{ai: 1}]]}
    c2 = ProjComplex(dual, {-1: ["v"], 0: ["v"]}, diffs, name="C2")
    assert hom_k_dim(c2, c2, 0) == 2
    diffs[-1][0][0][ai] = 0
    assert c2.diffs == {-1: [[{ai: 1}]]}
    assert hom_k_dim(c2, c2, 0) == 2


def test_from_dict_refuses_unknown_basis_path(dual):
    d = dual_numbers_chain(dual, 2).to_dict()
    d["differentials"]["-1"] = [[[["b", 1]]]]
    with pytest.raises(ValueError, match="unknown basis path 'b'"):
        ProjComplex.from_dict(dual, d)


def test_complexes_over_two_algebras_are_refused(dual, fld):
    # equal algebras built twice are still two algebras
    x, y = dual_numbers_chain(dual, 1), dual_numbers_chain(dual_numbers_algebra(), 2)
    with pytest.raises(AlgebraMismatch):
        hom_k_dim(x, y, 0, fld)
    with pytest.raises(AlgebraMismatch):
        are_isomorphic(x, y, fld)
    with pytest.raises(AlgebraMismatch):
        build_shiftgraph_from_complexes([x, y], 1, fld)


def square_of_units(alg, name=""):
    """P -> P -> P with both maps the unit: d o d is the unit, not 0."""
    ei = alg.index["e_v"]
    return ProjComplex(alg, {-2: ["v"], -1: ["v"], 0: ["v"]},
                       {-2: [[{ei: 1}]], -1: [[{ei: 1}]]}, name=name)


def test_is_indecomposable_refuses_invalid_complex(dual, fld):
    with pytest.raises(ValueError, match="^invalid complex: degree -2: d o d is nonzero"):
        is_indecomposable(square_of_units(dual), fld)


def test_builder_refuses_invalid_zero_and_same_named_complexes(dual, fld):
    c1 = dual_numbers_chain(dual, 1)
    with pytest.raises(ValueError, match="^invalid complex Sq: degree -2"):
        build_shiftgraph_from_complexes([c1, square_of_units(dual, "Sq")], 1, fld)
    with pytest.raises(ValueError, match="^zero complex has no orbit$"):
        build_shiftgraph_from_complexes([c1, ProjComplex(dual, {})], 1, fld)
    with pytest.raises(ValueError, match="^duplicate complex names$"):
        build_shiftgraph_from_complexes([c1, dual_numbers_chain(dual, 2, name="C1")], 1, fld)
