import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derhed.generators import (gen_dual_numbers, gen_example_a2,
                               gen_semisimple_block)
from derhed.paths import (NEG_INF, POS_INF, DegenerateAperiodic,
                          DegeneratePeriodic, NonDegenerate, PathEngine,
                          classify_degenerate, directing_objects)
from derhed.shiftgraph import (AbelianData, HomEdge, ObjRef, Orbit, ShiftGraph,
                               expand_hereditary, validate)

import oracles


@pytest.fixture(scope="module")
def a2():
    return gen_example_a2()[0]


@pytest.fixture(scope="module")
def dual():
    return gen_dual_numbers(3, 2)


def test_a2_min_weights(a2):
    eng = PathEngine(a2)
    assert eng.min_weight("S2", "S1") == 0  # S2 -> I -> S1
    assert eng.min_weight("S1", "S2") == 1
    assert eng.min_weight("I", "S2") == 1
    assert eng.min_weight("S1", "I") == 1
    for x in a2.orbit_ids():
        assert eng.min_weight(x, x) == 0


def test_a2_path_exists(a2):
    eng = PathEngine(a2)
    assert eng.path_report(ObjRef("S2", 0), ObjRef("S1", 0)).exists
    assert eng.path_report(ObjRef("S2", 0), ObjRef("S1", 2)).exists
    assert not eng.path_report(ObjRef("S1", 1), ObjRef("S1", 0)).exists
    assert not eng.path_report(ObjRef("S2", 0), ObjRef("S1", -1)).exists
    assert eng.path_report(ObjRef("S1", 0), ObjRef("S2", 1)).exists


def test_a2_no_negative_walks(a2):
    assert PathEngine(a2).negative_walk_objects() == set()


def test_a2_blocks(a2):
    assert PathEngine(a2).blocks() == [["I", "S1", "S2"]]


def test_two_blocks():
    g = ShiftGraph("two", [Orbit("X"), Orbit("Y")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True),),
        ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
    })
    eng = PathEngine(g)
    assert eng.blocks() == [["X"], ["Y"]]
    assert eng.min_weight("X", "Y") == POS_INF


def test_dual_negative_everywhere(dual):
    eng = PathEngine(dual)
    assert eng.negative_walk_objects() == {"C1", "C2", "C3"}
    for x in dual.orbit_ids():
        for y in dual.orbit_ids():
            assert eng.min_weight(x, y) == NEG_INF


def test_dual_path_report_witness(dual):
    eng = PathEngine(dual)
    src, dst = ObjRef("C2", 1), ObjRef("C2", 0)
    rep = eng.path_report(src, dst)
    assert rep.exists and rep.min_weight == NEG_INF
    assert oracles.check_witness(dual, rep.witness, src, dst)


def test_periodic_short_circuit():
    g = gen_semisimple_block(2)
    eng = PathEngine(g)
    assert eng.min_weight("X", "X") == NEG_INF
    src, dst = ObjRef("X", 0), ObjRef("X", -5)
    rep = eng.path_report(src, dst)
    assert rep.exists
    assert oracles.check_witness(g, rep.witness, src, dst)


def test_periodic_sink():
    # only walks that enter the periodic orbit P can be pumped down
    g = oracles.periodic_sink()
    assert validate(g).ok
    eng = PathEngine(g)
    assert eng.min_weight("A", "B") == 5
    assert eng.min_weight("B", "A") == POS_INF
    assert eng.min_weight("A", "P") == NEG_INF
    assert eng.negative_walk_objects() == {"P"}
    rep = eng.path_report(ObjRef("A", 0), ObjRef("B", 0))
    assert not rep.exists and rep.min_weight == 5 and rep.witness is None
    src, dst = ObjRef("A", 0), ObjRef("P", -7)
    rep = eng.path_report(src, dst)
    assert rep.exists and oracles.check_witness(g, rep.witness, src, dst)


def test_classify_degenerate(a2):
    ss = gen_semisimple_block(3, end_dim=2)
    cls = classify_degenerate(ss, ["X"])
    assert isinstance(cls, DegeneratePeriodic)
    assert cls.period == 3 and cls.end_dim == 2

    single = expand_hereditary(AbelianData(("X",), {("X", "X"): 1}, {}))
    cls2 = classify_degenerate(single, ["X"])
    assert isinstance(cls2, DegenerateAperiodic)
    assert cls2.end_dim == 1

    assert isinstance(classify_degenerate(a2, ["I", "S1", "S2"]), NonDegenerate)


def test_directing(a2, dual):
    assert directing_objects(a2) == {"I", "S1", "S2"}
    assert directing_objects(dual) == set()


def test_directing_zero_weight_proper_cycle():
    g = ShiftGraph("cyc", [Orbit("X"), Orbit("Y")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True),),
        ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
        ("X", "Y"): (HomEdge(0, 1),),
        ("Y", "X"): (HomEdge(0, 1),),
    })
    assert directing_objects(g) == set()


def test_directing_ignores_invertible_loops():
    # the only closed walks use identity edges, which are not proper
    g, _ = gen_example_a2()
    assert "S1" in directing_objects(g)


def test_directing_periodic_orbit_not_directing():
    g = gen_semisimple_block(1)
    assert directing_objects(g) == set()


# -- randomized cross-checks against the brute-force oracle --

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_min_weight_matches_oracle(seed):
    # one graph with periodic orbits, and a disjoint union of two, whose
    # cross pairs lie in different blocks and must come out +inf
    rng = np.random.default_rng(seed)
    single = oracles.random_graph(rng, max_orbits=5, periodic_prob=0.2)
    union = oracles.disjoint_union(
        oracles.random_graph(rng, max_orbits=3, periodic_prob=0.2, prefix="L"),
        oracles.random_graph(rng, max_orbits=3, periodic_prob=0.2, prefix="R"))
    assert PathEngine(union).min_weight("L0", "R0") == POS_INF
    for g in (single, union):
        assert validate(g).ok
        eng = PathEngine(g)
        for x in g.orbit_ids():
            for y in g.orbit_ids():
                assert eng.min_weight(x, y) == oracles.min_weight_oracle(g, x, y), (
                    g.to_json(), x, y)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_directing_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    g = oracles.disjoint_union(*(
        oracles.random_graph(rng, max_orbits=4, w_lo=-1 - k, edge_prob=0.5,
                             periodic_prob=0.2, prefix=f"B{k}_")
        for k in range(3)))
    assert directing_objects(g) == oracles.directing_oracle(g), g.to_json()


def test_directing_long_cycles():
    # a 100-orbit proper cycle is directing iff its weight is positive
    ids = [f"c{i:03d}" for i in range(100)]
    for last, expected in ((-1, set()), (0, set()), (1, set(ids))):
        homs = {(x, x): (HomEdge(0, 1, all_iso=True),) for x in ids}
        homs.update({(ids[i], ids[(i + 1) % 100]): (HomEdge(last if i == 99 else 0, 1),)
                     for i in range(100)})
        g = ShiftGraph("cycle", [Orbit(x) for x in ids], homs)
        assert directing_objects(g) == expected


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
def test_padding_law_and_shift_equivariance(seed, i, j, k):
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=4,
                             periodic_prob=0.2)
    eng = PathEngine(g)
    ids = g.orbit_ids()
    for x in ids:
        for y in ids:
            mw = eng.min_weight(x, y)
            ex = eng.path_report(ObjRef(x, i), ObjRef(y, j)).exists
            assert ex == (mw <= j - i)
            assert ex == eng.path_report(ObjRef(x, i + k), ObjRef(y, j + k)).exists


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_reported_witnesses_are_walks(seed):
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=4,
                             periodic_prob=0.2)
    eng = PathEngine(g)
    for x in g.orbit_ids():
        for y in g.orbit_ids():
            for off in (-1, 0, 2):
                src, dst = ObjRef(x, 0), ObjRef(y, off)
                rep = eng.path_report(src, dst)
                if rep.exists:
                    assert oracles.check_witness(g, rep.witness, src, dst)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_triangle_inequality(seed):
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=5)
    eng = PathEngine(g)
    ids = g.orbit_ids()
    for x in ids:
        for y in ids:
            for z in ids:
                a, b, c = (eng.min_weight(x, y), eng.min_weight(y, z),
                           eng.min_weight(x, z))
                if a < POS_INF and b < POS_INF:
                    assert c <= a + b


def _pinned_block():
    # X reaches Y only through the negative cycle P <-> Q; the tail T1 -> T2
    # and the heavier cycle D1 <-> D2 hang off X without reaching Y, W reaches
    # Y without being reached from X, and several pairs carry parallel edges
    ident = (HomEdge(0, 1, all_iso=True),)
    ids = ["D1", "D2", "P", "Q", "T1", "T2", "W", "X", "Y"]
    homs = {(v, v): ident for v in ids}
    for (a, b), ws in {
        ("X", "D1"): (0,), ("D1", "D2"): (-5,), ("D2", "D1"): (0,),
        ("X", "T1"): (-1, 2), ("T1", "T2"): (0,),
        ("X", "P"): (1, 4), ("P", "Q"): (-2, 1), ("Q", "P"): (0,),
        ("Q", "Y"): (0, 3), ("P", "T2"): (0,), ("Y", "T1"): (0,),
        ("W", "P"): (0,), ("W", "Y"): (1,),
    }.items():
        homs[(a, b)] = tuple(HomEdge(w, 1) for w in ws)
    return ShiftGraph("pinned", [Orbit(v) for v in ids], homs)


# (source, target, target offset) -> witness as (kind, orbit, offset) steps
PINNED_WITNESSES = {
    ("X", "Y", -3): [("start", "X", 0), ("hom", "P", 1), ("hom", "Q", -1),
                     ("hom", "P", -1), ("hom", "Q", -3), ("hom", "Y", -3)],
    ("X", "T2", 0): [("start", "X", 0), ("hom", "P", 1), ("hom", "Q", -1),
                     ("hom", "P", -1), ("hom", "Q", -3), ("hom", "P", -3),
                     ("hom", "T2", -3)] + [("shift", "T2", k) for k in (-2, -1, 0)],
    ("X", "D2", -1): [("start", "X", 0), ("hom", "D1", 0), ("hom", "D2", -5),
                      ("hom", "D1", -5), ("hom", "D2", -10)]
                     + [("shift", "D2", k) for k in range(-9, 0)],
    ("P", "Y", 2): [("start", "P", 0), ("hom", "Q", -2), ("hom", "P", -2),
                    ("hom", "Q", -4), ("hom", "Y", -4)]
                   + [("shift", "Y", k) for k in range(-3, 3)],
    ("W", "T2", -4): [("start", "W", 0), ("hom", "P", 0), ("hom", "Q", -2),
                      ("hom", "P", -2), ("hom", "Q", -4), ("hom", "P", -4),
                      ("hom", "T2", -4)],
}


def test_pinned_negative_infinity_witnesses():
    g = _pinned_block()
    eng = PathEngine(g)
    assert eng.blocks() == [sorted(g.orbit_ids())]
    for (x, y, off), steps in PINNED_WITNESSES.items():
        src, dst = ObjRef(x, 0), ObjRef(y, off)
        rep = eng.path_report(src, dst)
        assert rep.to_dict() == {
            "exists": True, "min_weight": "-inf",
            "witness": [{"kind": k, "orbit": o, "offset": n} for (k, o, n) in steps]}
        assert oracles.check_witness(g, rep.witness, src, dst)
