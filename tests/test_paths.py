import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derhed import paths
from derhed.degenerate import (DegenerateAperiodic, DegeneratePeriodic,
                               NonDegenerate, classify_degenerate)
from derhed.generators import (expand_hereditary, gen_dual_numbers,
                               gen_dynkin_an, gen_example_a2, gen_semisimple_block)
from derhed.hereditary import check_hereditary, extract_heart
from derhed.paths import NEG_INF, POS_INF, PathEngine, directing_objects
from derhed.shiftgraph import (HomEdge, ObjRef, Orbit, ShiftGraph, UnknownOrbit,
                               UnreachableOrbit, validate)

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
    # a stored pair with no edges links nothing
    for extra in ({}, {("X", "Y"): ()}):
        g = ShiftGraph("two", [Orbit("X"), Orbit("Y")], {
            ("X", "X"): (HomEdge(0, 1, all_iso=True),),
            ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
            **extra,
        })
        eng = PathEngine(g)
        assert eng.blocks() == [["X"], ["Y"]]
        assert eng.min_weight("X", "Y") == POS_INF


def test_row_is_the_cached_block_row(solves, a2):
    # one solve per source: its row covers its block alone, in block
    # order, and min_weight, walks and hearts read that same row
    eng = PathEngine(a2)
    row = eng.row("S1")
    assert list(row) == eng.blocks()[0] and solves == ["S1"]
    assert row == {y: eng.min_weight("S1", y) for y in row}
    assert eng.row("S1") is row
    assert eng.path_report(ObjRef("S1", 0), ObjRef("S2", 1)).exists
    assert extract_heart(a2, "S1", engine=eng).offsets == row
    assert solves == ["S1"]
    with pytest.raises(UnknownOrbit):
        eng.row("nope")


def test_dual_negative_everywhere(dual):
    eng = PathEngine(dual)
    assert eng.negative_walk_objects() == {"C1", "C2", "C3"}
    for x in dual.orbit_ids():
        for y in dual.orbit_ids():
            assert eng.min_weight(x, y) == NEG_INF


def test_block_with_a_potential_runs_no_reach_search(monkeypatch, dual):
    # with no negative orbit in the block, the -inf closure is empty
    # without a breadth-first search from the source
    calls = []
    real = paths._bfs_tree

    def counting(adj, *starts):
        calls.append(starts)
        return real(adj, *starts)

    monkeypatch.setattr(paths, "_bfs_tree", counting)
    eng = PathEngine(gen_dynkin_an(4, "><>"))
    calls.clear()  # the engine found its blocks breadth first
    assert eng.min_weight("M1_1", "M4_4") == 2
    assert calls == []
    eng = PathEngine(dual)
    calls.clear()
    assert eng.min_weight("C2", "C1") == NEG_INF
    # from C2, then from the negative orbits it reaches
    assert calls[0] == ("C2",) and sorted(calls[1]) == ["C1", "C2", "C3"]


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

    single = expand_hereditary(("X",), {("X", "X"): 1}, {})
    cls2 = classify_degenerate(single, ["X"])
    assert isinstance(cls2, DegenerateAperiodic)
    assert cls2.end_dim == 1

    assert isinstance(classify_degenerate(a2, ["I", "S1", "S2"]), NonDegenerate)


def test_classify_single_orbit_with_a_proper_self_edge():
    # one orbit, but its weight-1 self-edge is not invertible
    g = ShiftGraph("loop", [Orbit("X")], {("X", "X"): (HomEdge(0, 1, all_iso=True),
                                                     HomEdge(1, 1))})
    cls = classify_degenerate(g, ["X"])
    assert isinstance(cls, NonDegenerate)
    assert cls.to_dict() == {"kind": "non-degenerate"}


def test_unknown_orbits_and_missing_walks(a2):
    eng = PathEngine(a2)
    with pytest.raises(UnknownOrbit):
        eng.min_weight("nope", "S1")  # an unknown source
    with pytest.raises(UnknownOrbit):
        eng.min_weight("S1", "nope")  # an unknown target
    # the least walk from S1 to S2 weighs 1, so none weighs 0 or less
    assert eng.min_weight("S1", "S2") == 1
    assert eng.walk_with_weight("S1", "S2", 0) is None
    assert eng.walk_with_weight("S1", "S2", 1) is not None


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


def proper_graph(*edges, periods=None, self_edges=None):
    """Orbits with identity self-edges (or the given self-edges; a periodic
    orbit's at -p, 0 and +p) and the non-invertible edges (a, b, w)."""
    periods = periods or {}
    self_edges = self_edges or {}
    ids = sorted({x for e in edges for x in e[:2]} | set(periods) | set(self_edges))
    homs = {}
    for x in ids:
        p = periods.get(x, 0)
        homs[(x, x)] = self_edges.get(
            x, tuple(HomEdge(w, 1, all_iso=True) for w in sorted({-p, 0, p})))
    for (a, b, w) in edges:
        homs[(a, b)] = homs.get((a, b), ()) + (HomEdge(w, 1),)
    return ShiftGraph("proper", [Orbit(x, periods.get(x)) for x in ids], homs)


def test_directing_proper_self_edges():
    # a non-invertible weight-0 endomorphism closes up at once; a lone
    # positive one needs negative shift steps, which do not exist
    g = proper_graph(("A", "B", 1), self_edges={"A": (HomEdge(0, 2),),
                                                "B": (HomEdge(0, 1, all_iso=True),
                                                      HomEdge(2, 1))})
    assert directing_objects(g) == {"B"}


def test_directing_reaching_a_negative_cycle():
    # A and Z only reach, or are only reached from, the negative cycle
    # P <-> Q: they lie on no closed walk at all
    g = proper_graph(("A", "P", 0), ("P", "Q", -2), ("Q", "P", 0), ("Q", "Z", -5))
    assert directing_objects(g) == {"A", "Z"}


def test_directing_strongly_connected_to_a_periodic_orbit():
    # A and B share a component with the periodic X through heavy edges;
    # C only reaches X and D is only reached from it
    g = proper_graph(("A", "X", 3), ("X", "B", 3), ("B", "A", 3), ("C", "X", 1),
                     ("X", "D", 1), periods={"X": 2})
    assert directing_objects(g) == {"C", "D"}


def test_directing_runs_no_solve(solves, a2, dual):
    for g in (a2, dual, _pinned_block()):
        directing_objects(g)
    assert solves == []
    check_hereditary(a2, PathEngine(a2).blocks()[0])  # the counter does see a solve
    assert solves


def test_refuted_blocks_solve_only_their_witness_source(solves):
    # negativity is read off the components, so a block with a negative
    # orbit solves only the least one, the source of its witness, and check
    # still gives the oracle's indicator; a block with none solves only
    # rows for its heart.  Either way the engine keeps exactly those rows
    rng = np.random.default_rng(20261018)
    refuted = 0
    for _ in range(40):
        g = oracles.random_graph(rng, max_orbits=5, periodic_prob=0.2)
        eng = PathEngine(g)
        fields = set(vars(eng))
        for blk in eng.blocks():
            negative = {x for x in blk if oracles.min_weight_oracle(g, x, x) == NEG_INF}
            solves.clear()
            cached = set(eng._dist_cache)
            try:
                rep = check_hereditary(g, blk, engine=eng)
            except UnreachableOrbit:
                assert not negative
            if negative:
                refuted += 1
                assert rep.indicator == {x: x in negative for x in blk}
                assert solves == [min(negative)]
            else:
                assert solves and set(solves) <= set(blk)
            assert set(eng._dist_cache) == cached | set(solves)
        for x in g.orbit_ids():
            for y in g.orbit_ids():
                eng.min_weight(x, y)
        assert set(vars(eng)) == fields
    assert refuted


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


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_directing_matches_oracle_six_orbit_blocks(seed):
    rng = np.random.default_rng(seed)
    g = oracles.disjoint_union(*(
        oracles.random_graph(rng, max_orbits=6, w_lo=-1 - k, edge_prob=(0.25, 0.45)[k],
                             periodic_prob=0.15, prefix=f"B{k}_")
        for k in range(2)))
    assert directing_objects(g) == oracles.directing_oracle(g), g.to_json()


def _proper_cycle(n: int, last: int, reverse: bool = False):
    """One proper cycle through n orbits, weight 0 on every edge but the
    last, which weighs `last`.  Its edges go from c(i) to c(i+1), or with
    reverse from c(i+1) to c(i), listed by i either way."""
    ids = [f"c{i:04d}" for i in range(n)]
    edges = [(ids[i], ids[(i + 1) % n], last if i == n - 1 else 0) for i in range(n)]
    return ids, proper_graph(*((b, a, w) if reverse else (a, b, w) for (a, b, w) in edges))


def test_directing_long_cycles():
    # a 100-orbit proper cycle is directing iff its weight is positive
    for last in (-1, 0, 1):
        ids, g = _proper_cycle(100, last)
        assert directing_objects(g) == (set(ids) if last > 0 else set())


def test_directing_very_long_cycle():
    # 5,000 orbits in one component: no recursion and no all-pairs table;
    # with the edges listed against the cycle, a pass-based Bellman-Ford
    # would move a label only one hop per pass
    for reverse in (False, True):
        for last in (-1, 0, 1):
            ids, g = _proper_cycle(5000, last, reverse)
            assert directing_objects(g) == (set(ids) if last > 0 else set())


class CountedWeight(int):
    """An edge weight that counts the labels added to it: each is one edge
    scan of the relaxation."""

    scans = 0

    def __radd__(self, label):
        CountedWeight.scans += 1
        return label + int(self)


def succ_of(nodes, edges):
    """The successor lists {u: [(v, w), ...]} of the edges (u, v, w),
    keyed by nodes in the given order, each list in edge order."""
    succ = {v: [] for v in nodes}
    for (u, v, w) in edges:
        succ[u].append((v, w))
    return succ


def assert_negative_cycle(cycle, edges):
    """cycle is a closed walk of negative weight along edges, as a list of
    edges (u, v, w) from its least orbit."""
    assert isinstance(cycle, list) and cycle
    assert all(e in edges for e in cycle)
    assert all(cycle[k][1] == cycle[(k + 1) % len(cycle)][0] for k in range(len(cycle)))
    assert sum(w for (_u, _v, w) in cycle) < 0
    assert cycle[0][0] == min(u for (u, _v, _w) in cycle)


def test_negative_cycle_in_tarjan_order_is_decided_in_linear_scans():
    # a 2,000-orbit cycle of weight -1 per edge, with its orbits in the
    # order _components hands them over, against the cycle: the labels go
    # round once per 2,000 pops, so the hop bound alone would need about
    # 2,000 laps; the parent pointers close into a cycle within the first
    n = 2000
    ids = [f"c{i:04d}" for i in range(n)]
    edges = [(ids[i], ids[(i + 1) % n], CountedWeight(-1)) for i in range(n)]
    (comp,) = paths._sccs(succ_of(ids, edges))
    assert comp[0] == ids[-1]
    CountedWeight.scans = 0
    cycle = paths._potential(succ_of(comp, edges))
    assert CountedWeight.scans <= n
    assert_negative_cycle(cycle, edges)
    # with the last edge at +(n - 1) the cycle weighs 0, and the parent
    # checks must not stop the run: the walk of i edges from the first
    # orbit into the i-th is the lightest walk into it
    n = 200
    ids = [f"c{i:04d}" for i in range(n)]
    edges = [(ids[i], ids[i + 1], -1) for i in range(n - 1)] + [(ids[-1], ids[0], n - 1)]
    (comp,) = paths._sccs(succ_of(ids, edges))
    assert paths._potential(succ_of(comp, edges)) == {v: -i for i, v in enumerate(ids)}


def test_refuting_a_long_cycle_takes_linear_scans():
    # the whole refutation of a 2,000-orbit cycle of weight -1 per edge,
    # its witness included (the cycle once, then 1,999 shift steps back
    # up): the cycle the deciding run hands back is the one the witness
    # pumps, so no second Bellman-Ford runs
    n = 2000
    ids = [f"c{i:04d}" for i in range(n)]
    g = proper_graph(*((ids[i], ids[(i + 1) % n], CountedWeight(-1)) for i in range(n)))
    CountedWeight.scans = 0
    rep = check_hereditary(g, ids)
    assert CountedWeight.scans <= 4 * n
    assert rep.verdict == "not-hereditary" and rep.indicator == dict.fromkeys(ids, True)
    assert len(rep.witness) == 2 * n
    assert oracles.check_witness(g, rep.witness, ObjRef(ids[0], 1), ObjRef(ids[0], 0))


# A component found by counting the exits of _relax over seeded random
# graphs: in the order _components hands it over, its run walks the
# parent pointers after its 4th relaxation and finds no cycle, and the
# label walk reaches 4 edges at the 7th, on the hop bound
HOP_BOUND_COMPONENT = (["O1", "O3", "O2", "O0"], [
    ("O0", "O0", 0), ("O0", "O0", 1), ("O0", "O2", -2), ("O0", "O2", 2),
    ("O1", "O0", -2), ("O1", "O1", 0), ("O1", "O1", 3), ("O1", "O2", -3),
    ("O1", "O2", 1), ("O2", "O2", 0), ("O2", "O2", 1), ("O2", "O2", 2),
    ("O2", "O3", 0), ("O3", "O1", 0), ("O3", "O3", 0)])


def test_hop_bound_exit_hands_back_a_cycle(monkeypatch):
    walks = []
    real = paths._parent_cycle

    def recording(parent, v):
        walks.append(real(parent, v))
        return walks[-1]

    monkeypatch.setattr(paths, "_parent_cycle", recording)
    comp, edges = HOP_BOUND_COMPONENT
    cycle = paths._potential(succ_of(comp, edges))
    assert_negative_cycle(cycle, edges)
    assert walks == [[], cycle]
    assert cycle == [("O0", "O2", -2), ("O2", "O3", 0), ("O3", "O1", 0), ("O1", "O0", -2)]


def parent_cycle_oracle(parent, v):
    """Follow the parent pointers from v: [] on reaching a node with no
    parent, else the edges (parent[x][0], x, parent[x][1]) of the cycle
    the walk enters, in the order they close up, from the least edge."""
    walk = []
    while v not in walk:
        if v not in parent:
            return []
        walk.append(v)
        v = parent[v][0]
    nodes = walk[walk.index(v):]
    cycle = [(parent[x][0], x, parent[x][1]) for x in reversed(nodes)]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@st.composite
def parent_maps(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    parent = {x: (draw(st.sampled_from(nodes)), draw(st.integers(-3, 3)))
              for x in nodes if draw(st.booleans())}
    return parent, draw(st.sampled_from(nodes))


@settings(max_examples=300, deadline=None)
@given(parent_maps())
def test_parent_cycle_matches_oracle(case):
    parent, v = case
    cycle = paths._parent_cycle(parent, v)
    assert cycle == parent_cycle_oracle(parent, v)
    assert all(parent[x] == (u, w) for (u, x, w) in cycle)
    assert all(cycle[k][1] == cycle[(k + 1) % len(cycle)][0] for k in range(len(cycle)))


def test_parent_cycle_pins():
    assert paths._parent_cycle({"a": ("a", -1)}, "a") == [("a", "a", -1)]
    # a tail t -> c into the two-cycle b <-> c, entered at c
    parent = {"t": ("c", 2), "c": ("b", -1), "b": ("c", 0)}
    assert paths._parent_cycle(parent, "t") == [("b", "c", -1), ("c", "b", 0)]
    assert paths._parent_cycle({"x": ("y", 1)}, "x") == []


def test_walk_skips_orbits_at_infinity_before_a_weight_beyond_float_range():
    # C -> A at 10**400 with C out of A's reach: C's label stays +inf, and a
    # tight-edge test there would take inf + 10**400, an OverflowError
    g = proper_graph(("A", "B", 0), ("C", "A", 10**400))
    rep = PathEngine(g).path_report(ObjRef("A", 0), ObjRef("B", 0)).to_dict()
    assert rep == {"exists": True, "min_weight": 0, "witness": [
        {"kind": "start", "orbit": "A", "offset": 0},
        {"kind": "hom", "orbit": "B", "offset": 0}]}


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


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([-1, 0]), st.sampled_from([0.0, 0.3]))
@example(45, 0, 0.0)
@example(427, 0, 0.3)
@example(832, -1, 0.3)
def test_finite_witnesses_take_fewest_hom_steps(seed, w_lo, periodic_prob):
    # a finite witness is a walk of least weight, and no walk of that
    # weight has fewer hom steps; on the three seeds above a label of
    # weight alone keeps, among tied walks, one with more hom steps
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=8, w_lo=w_lo,
                             periodic_prob=periodic_prob)
    eng = PathEngine(g)
    for x in g.orbit_ids():
        for y in g.orbit_ids():
            mw = eng.min_weight(x, y)
            if mw in (NEG_INF, POS_INF):
                continue
            src, dst = ObjRef(x, 0), ObjRef(y, mw + 1)
            rep = eng.path_report(src, dst)
            assert oracles.check_witness(g, rep.witness, src, dst)
            steps = sum(s.kind == "hom" for s in rep.witness)
            assert steps == oracles.min_steps_oracle(g, x, y, mw), (g.to_json(), x, y)


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
                     ("hom", "P", -1), ("hom", "T2", -1), ("shift", "T2", 0)],
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


# (graph, source, target, target offset) -> (min_weight, witness as
# (kind, orbit, offset) steps), on _pinned_block(), on A_4 oriented "><>"
# and on the seed-511 random graph; M2_2 -> M3_3, M1_3 -> M1_4, M1_2 ->
# M2_2 and O3 -> O0 each tie with other walks of the same weight and the
# same number of hom steps, and breadth-first search over the tight edges
# picks the first in successor order (O2 -> O1 before O2 -> O4)
PINNED_FINITE_WITNESSES = {
    ("pinned", "Y", "T2", 0): (0, [("start", "Y", 0), ("hom", "T1", 0), ("hom", "T2", 0)]),
    ("pinned", "T1", "T2", 2): (0, [("start", "T1", 0), ("hom", "T2", 0),
                                    ("shift", "T2", 1), ("shift", "T2", 2)]),
    ("pinned", "X", "X", 1): (0, [("start", "X", 0), ("shift", "X", 1)]),
    ("A4(><>)", "M2_2", "M3_3", 0): (0, [("start", "M2_2", 0), ("hom", "M1_3", 0),
                                         ("hom", "M3_3", 0)]),
    ("A4(><>)", "M1_3", "M1_4", 1): (1, [("start", "M1_3", 0), ("hom", "M2_2", 1),
                                         ("hom", "M1_4", 1)]),
    ("A4(><>)", "M1_2", "M2_2", 3): (1, [("start", "M1_2", 0), ("hom", "M1_1", 0),
                                         ("hom", "M2_2", 1), ("shift", "M2_2", 2),
                                         ("shift", "M2_2", 3)]),
    ("A4(><>)", "M1_1", "M4_4", 2): (2, [("start", "M1_1", 0), ("hom", "M2_3", 1),
                                         ("hom", "M4_4", 2)]),
    ("random", "O3", "O0", 1): (1, [("start", "O3", 0), ("hom", "O2", -1),
                                    ("hom", "O1", 0), ("hom", "O0", 1)]),
}


def test_pinned_finite_witnesses():
    seed511 = oracles.random_graph(np.random.default_rng(511), max_orbits=6, w_lo=-1, w_hi=3)
    engines = {g.name: PathEngine(g)
               for g in (_pinned_block(), gen_dynkin_an(4, "><>"), seed511)}
    for (name, x, y, off), (mw, steps) in PINNED_FINITE_WITNESSES.items():
        eng = engines[name]
        src, dst = ObjRef(x, 0), ObjRef(y, off)
        rep = eng.path_report(src, dst)
        assert rep.to_dict() == {
            "exists": True, "min_weight": mw,
            "witness": [{"kind": k, "orbit": o, "offset": n} for (k, o, n) in steps]}
        assert oracles.check_witness(eng.g, rep.witness, src, dst)
