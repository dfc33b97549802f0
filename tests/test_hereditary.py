import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derhed import hereditary, paths
from derhed.complexes import build_shiftgraph_from_complexes
from derhed.generators import (AbelianData, expand_hereditary,
                               gen_a2_from_complexes, gen_dual_numbers,
                               gen_dynkin_an, gen_example_a2,
                               gen_semisimple_block)
from derhed.hereditary import (Heart, IncompleteHeart, NegativeWalkAtSource,
                               NotABlock, UnreachableOrbit, _constraint_edges,
                               _degree_witness, check_hereditary, cohomology,
                               extract_heart, truncate, verify_heart)
from derhed.paths import NEG_INF, POS_INF, PathEngine, _potential
from derhed.shiftgraph import HomEdge, ObjRef, Orbit, ShiftGraph, UnknownOrbit

import oracles
from test_complexes import a3_shortcut_complexes


@pytest.fixture(scope="module")
def a2():
    return gen_example_a2()[0]


A2_BLOCK = ["I", "S1", "S2"]


def test_check_a2(a2):
    rep = check_hereditary(a2, A2_BLOCK)
    assert rep.verdict == "hereditary"
    assert rep.heart.offsets == {"I": 0, "S1": 0, "S2": 0}
    assert rep.heart_check.ok
    assert set(rep.heart_check.m_values) <= {0, 1}
    assert rep.indicator == {"I": False, "S1": False, "S2": False}


def test_extract_heart_sources(a2):
    assert extract_heart(a2, "S2").offsets == {"I": 0, "S1": 0, "S2": 0}
    assert extract_heart(a2, "I").offsets == {"I": 0, "S1": 0, "S2": 1}
    assert extract_heart(a2, "S1").offsets == {"I": 1, "S1": 0, "S2": 1}


def test_every_extracted_a2_heart_verifies(a2):
    for src in A2_BLOCK:
        heart = extract_heart(a2, src)
        check = verify_heart(a2, heart)
        assert check.ok and set(check.m_values) <= {0, 1}


def test_bad_heart_single_violation():
    a2, bad = gen_example_a2()
    check = verify_heart(a2, bad)
    assert not check.ok
    assert check.violations == [(ObjRef("S2", 0), ObjRef("I", 1), -1)]


def test_check_dual_not_hereditary():
    g = gen_dual_numbers(3, 2)
    rep = check_hereditary(g, ["C1", "C2", "C3"])
    assert rep.verdict == "not-hereditary"
    assert rep.heart is None
    assert all(rep.indicator.values())
    # witness: a legal walk from X[1] down to X of total weight -1
    steps = rep.witness
    first, last = steps[0].at, steps[-1].at
    assert first.orbit == last.orbit
    assert first.offset - last.offset == 1
    assert oracles.check_witness(g, steps, first, last)


def test_windowed_verdict():
    g = gen_dynkin_an(2, ">")
    g.windowed = True
    rep = check_hereditary(g, sorted(g.orbit_ids()))
    assert rep.verdict == "hereditary-within-window"


def test_not_a_block(a2):
    with pytest.raises(NotABlock):
        check_hereditary(a2, ["S1"])
    with pytest.raises(UnknownOrbit):
        extract_heart(a2, "nope")


def test_negative_walk_at_source():
    g = gen_dual_numbers(2, 2)
    with pytest.raises(NegativeWalkAtSource):
        extract_heart(g, "C1")
    # the source itself is on no negative walk, but reaches one
    with pytest.raises(NegativeWalkAtSource):
        extract_heart(oracles.periodic_sink(), "A")


def one_way(*edges):
    """Aperiodic orbits with identities plus the given (a, b, weight) edges."""
    ids = sorted({x for (a, b, _w) in edges for x in (a, b)})
    homs = {(x, x): (HomEdge(0, 1, all_iso=True),) for x in ids}
    homs.update({(a, b): (HomEdge(w, 1),) for (a, b, w) in edges})
    return ShiftGraph("one_way", [Orbit(x) for x in ids], homs)


def test_heart_from_the_source_reaching_the_block():
    # B reaches nothing, so only A can anchor the heart
    g = one_way(("A", "B", 1))
    rep = check_hereditary(g, ["A", "B"])
    assert rep.verdict == "hereditary"
    assert rep.heart.offsets == {"A": 0, "B": 1}
    assert rep.heart_check.ok
    with pytest.raises(UnreachableOrbit):
        extract_heart(g, "B")
    # A -> C <- B: no orbit reaches the whole block
    with pytest.raises(UnreachableOrbit):
        check_hereditary(one_way(("A", "C", 0), ("B", "C", 0)), ["A", "B", "C"])


def test_incomplete_heart(a2):
    # a heart checks the edges between its own orbits: S1 -> S2 and I -> S1
    # leave {S1}, and its self-edge is its identity
    check = verify_heart(a2, Heart({"S1": 0}))
    assert check.ok and check.m_values == Counter({0: 1})
    # splitting an object needs the heart at each of its orbits
    with pytest.raises(IncompleteHeart):
        truncate(Heart({"S1": 0}), Counter({ObjRef("I", 0): 1}), 0, "le")


def test_semisimple_not_hereditary():
    for p in (1, 2, 3):
        g = gen_semisimple_block(p)
        rep = check_hereditary(g, ["X"])
        assert rep.verdict == "not-hereditary"


def test_single_aperiodic_orbit_hereditary():
    g = expand_hereditary(AbelianData(("X",), {("X", "X"): 1}, {}))
    rep = check_hereditary(g, ["X"])
    assert rep.verdict == "hereditary"
    assert rep.heart.offsets == {"X": 0}


def test_heart_json_round_trip(a2):
    h = extract_heart(a2, "I")
    assert Heart.from_dict(h.to_dict()).offsets == h.offsets


def test_cohomology(a2):
    heart = Heart({"I": 0, "S1": 0, "S2": 0})
    obj = Counter({ObjRef("S1", 0): 1, ObjRef("I", -2): 3})
    parts = cohomology(heart, obj)
    assert parts == {0: Counter({ObjRef("S1", 0): 1}),
                     2: Counter({ObjRef("I", 0): 3})}
    ref = ObjRef("I", -2)
    assert heart.offsets[ref.orbit] - ref.offset == 2  # heart degree of I[-2]


def test_cohomology_unknown_orbit(a2):
    with pytest.raises(IncompleteHeart):
        cohomology(Heart({"S1": 0}), Counter({ObjRef("I", 0): 1}))


def test_truncate_sides(a2):
    heart = Heart({"I": 0, "S1": 0, "S2": 0})
    obj = Counter({ObjRef("S1", 2): 1, ObjRef("I", 0): 2, ObjRef("S2", -1): 1})
    low = truncate(heart, obj, 0, "le")
    high = truncate(heart, obj, 1, "ge")
    assert low + high == obj
    assert low == Counter({ObjRef("S1", 2): 1, ObjRef("I", 0): 2})
    with pytest.raises(ValueError):
        truncate(heart, obj, 0, "lt")


def test_truncate_refuses_a_bad_side_before_a_missing_orbit():
    # truncate reads its side first; both read the heart degrees through
    # one check, which names the missing orbits sorted
    heart = Heart({"S1": 0})
    obj = Counter({ObjRef("S2", 0): 1, ObjRef("I", 1): 1, ObjRef("S1", 0): 1})
    with pytest.raises(ValueError):
        truncate(heart, obj, 0, "lt")
    for split in (lambda: cohomology(heart, obj), lambda: truncate(heart, obj, 0, "ge")):
        with pytest.raises(IncompleteHeart) as exc:
            split()
        assert exc.value.missing == ["I", "S2"]


AN4 = sorted(gen_dynkin_an(4, ">><").orbit_ids())


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({x: st.integers(-3, 3) for x in AN4}),
       st.dictionaries(st.builds(ObjRef, st.sampled_from(AN4), st.integers(-5, 5)),
                       st.integers(1, 3)))
def test_truncate_agrees_with_cohomology(offsets, parts):
    # the part in heart degrees <= n is as large as cohomology's parts
    # there, and it and the part in degrees >= n + 1 make up the object
    heart, obj = Heart(offsets), Counter(parts)
    full = cohomology(heart, obj)
    for n in range(-8, 9):
        low = truncate(heart, obj, n, "le")
        assert sum(low.values()) == sum(sum(c.values()) for p, c in full.items() if p <= n)
        assert low + truncate(heart, obj, n + 1, "ge") == obj


# random non-negative-weight graphs are always heart-extractable, and the
# shortest-walk triangle inequality forces every extracted heart to verify

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extracted_hearts_always_verify(seed):
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=5,
                             w_lo=0, w_hi=3)
    eng = PathEngine(g)
    for blk in eng.blocks():
        for src in blk:
            try:
                heart = extract_heart(g, src, engine=eng)
            except UnreachableOrbit:
                continue  # random graphs need not be mutually reachable
            assert verify_heart(g, heart).ok


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except UnreachableOrbit as exc:
        return str(exc)


def test_many_small_blocks_match_one_block_graphs():
    # per-block checks see only their block: a graph of many small blocks
    # reports, block by block, exactly what each block alone reports, also
    # for hearts with violations
    rng = np.random.default_rng(20261018)
    parts = [oracles.random_graph(rng, max_orbits=4, w_lo=-3 * (k % 2),
                                  periodic_prob=0.3, prefix=f"B{k:02d}_")
             for k in range(40)]
    union = oracles.disjoint_union(*parts)
    eng = PathEngine(union)
    verdicts = Counter()
    for blk in eng.blocks():
        alone = ShiftGraph("alone", [union.orbit(x) for x in blk],
                           {(a, b): union.homs[(a, b)]
                            for a in blk for b in union.targets(a)})
        assert PathEngine(alone).blocks() == [blk]
        got = _outcome(check_hereditary, union, blk, engine=eng)
        assert got == _outcome(check_hereditary, alone, blk)
        verdicts[got["verdict"] if isinstance(got, dict) else "unreachable"] += 1
        heart = Heart({x: int(rng.integers(-2, 3)) for x in blk})
        assert (verify_heart(union, heart).to_dict()
                == verify_heart(alone, heart).to_dict())
    assert verdicts["hereditary"] and verdicts["not-hereditary"]


def random_blocks(seed):
    """Three random graphs side by side, negative weights in every other
    one, sparse to dense, periodic orbits anywhere: blocks of every kind,
    including some that no orbit reaches in full."""
    rng = np.random.default_rng(seed)
    return oracles.disjoint_union(*(
        oracles.random_graph(rng, max_orbits=4, w_lo=-3 * (k % 2),
                             edge_prob=(0.15, 0.3, 0.5)[k], periodic_prob=0.2,
                             prefix=f"B{k}_")
        for k in range(3)))


def pruning_shapes(seed):
    """Graphs of at most 8 orbits in the shapes where check_hereditary
    solves from few sources: all weights 0; a star of tight sources into
    one hub; a chain of components whose top one alone reaches the block;
    and sources that no other orbit reaches."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):  # an int in [lo, hi]
        return int(rng.integers(lo, hi + 1))

    zeros = oracles.random_graph(rng, max_orbits=8, w_lo=0, w_hi=0, edge_prob=0.2,
                                 prefix="Z")
    # k sources into the hub H at one weight w <= 0, all tight, and heavier
    # edges back, some missing
    k, w = draw(1, 7), draw(-2, 0)
    star = one_way(*((f"S{j}", "H", w) for j in range(k)),
                   *(("H", f"S{j}", draw(1 - w, 3 - w)) for j in range(k)
                     if rng.random() < 0.8))
    # components C0 -> C1 -> C2, each a cycle of weight >= 0, with edges
    # downwards only
    comps = [[f"C{c}{j}" for j in range(draw(1, 2))] for c in range(3)]
    chain = []
    for comp in comps:
        ws = [draw(-1, 2) for _ in comp]
        ws[-1] = max(ws[-1], -sum(ws[:-1]))
        chain += [(a, b, x) for a, b, x in zip(comp, comp[1:] + comp[:1], ws) if a != b]
    for upper, lower in zip(comps, comps[1:]):
        chain += [(upper[draw(0, len(upper) - 1)], lower[draw(0, len(lower) - 1)],
                   draw(-2, 2)) for _ in range(draw(1, 2))]
    # sources U into a path R0 -> R1 -> ... with shortcuts down the path
    rest = [f"R{j}" for j in range(draw(1, 4))]
    fan = ([(f"U{j}", rest[draw(0, len(rest) - 1)], draw(-2, 2)) for j in range(draw(2, 3))]
           + [(a, b, draw(-2, 2)) for a, b in zip(rest, rest[1:])]
           + [(rest[a], rest[b], draw(-2, 2)) for a in range(len(rest))
              for b in range(a + 2, len(rest)) if rng.random() < 0.5])
    return [zeros, star, one_way(*chain), one_way(*fan)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_check_matches_oracle(seed):
    for g in (random_blocks(seed), *pruning_shapes(seed)):
        _check_matches_oracle(g)


def _check_matches_oracle(g):
    """check_hereditary on every block of g against the brute-force rule:
    the least (sorted row, orbit) over the oracle's rows with no +inf."""
    eng = PathEngine(g)
    for blk in eng.blocks():
        rows = {s: [oracles.min_weight_oracle(g, s, y) for y in blk] for s in blk}
        negative = {x for x in blk if rows[x][blk.index(x)] == NEG_INF}
        reaching = [(sorted(r), s) for s, r in rows.items() if POS_INF not in r]
        if not negative and not reaching:
            with pytest.raises(UnreachableOrbit) as exc:
                check_hereditary(g, blk, engine=eng)
            assert str(exc.value) == f"no orbit of {blk} reaches every other orbit"
            continue
        rep = check_hereditary(g, blk, engine=eng)
        assert rep.indicator == {x: x in negative for x in blk}
        if negative:
            x = min(negative)
            assert rep.verdict == "not-hereditary" and rep.heart is None
            assert oracles.check_witness(g, rep.witness, ObjRef(x, 1), ObjRef(x, 0))
        else:
            assert rep.verdict == "hereditary"
            assert rep.heart.offsets == dict(zip(blk, rows[min(reaching)[1]]))
    assert eng.negative_walk_objects() == {
        x for x in g.orbit_ids() if oracles.min_weight_oracle(g, x, x) == NEG_INF}


def test_long_negative_cycle(solves):
    # one cycle of 100 orbits and total weight -1: every orbit is on it,
    # and the refuted block solves only the source of its witness
    ids = [f"c{i:03d}" for i in range(100)]
    g = one_way(*((ids[i], ids[(i + 1) % 100], -1 if i == 99 else 0)
                  for i in range(100)))
    eng = PathEngine(g)
    fields = set(vars(eng))
    rep = check_hereditary(g, ids, engine=eng)
    assert rep.verdict == "not-hereditary"
    assert rep.indicator == {x: True for x in ids}
    assert oracles.check_witness(g, rep.witness, ObjRef("c000", 1), ObjRef("c000", 0))
    assert eng.negative_walk_objects() == set(ids)
    # every pair at weight -1
    ids = [f"k{i:02d}" for i in range(40)]
    g = one_way(*((a, b, -1) for a in ids for b in ids if a != b))
    eng = PathEngine(g)
    assert check_hereditary(g, ids, engine=eng).indicator == {x: True for x in ids}
    assert eng.min_weight("k00", "k39") == NEG_INF
    assert solves == ["c000", "k00"] and set(vars(eng)) == fields


def test_heart_solves_only_from_tight_sources(solves):
    # a chain at weight 0 with heavier edges back: A reaches every other
    # orbit along tight edges, so one solve settles the heart
    g = one_way(("A", "B", 0), ("B", "C", 0), ("C", "D", 0),
                ("B", "A", 1), ("C", "B", 1), ("D", "C", 1))
    rep = check_hereditary(g, ["A", "B", "C", "D"])
    assert solves == ["A"]
    assert rep.heart.offsets == {"A": 0, "B": 0, "C": 0, "D": 0}
    # a star of four tight sources into H, with edges back at weight
    # `back`: the rows tie, so the least id gives the heart.  Each source
    # bounds its row by 0 at itself and H and by 1 elsewhere; at back = 1
    # the first row meets the other bounds, at back = 2 it passes them
    star = [f"S{j}" for j in range(4)]
    for back, solved in ((1, ["S0"]), (2, star)):
        solves.clear()
        g = one_way(*((s, "H", 0) for s in star), *(("H", s, back) for s in star))
        rep = check_hereditary(g, ["H", *star])
        assert solves == solved
        assert rep.heart.offsets == {"H": 0, "S0": 0, "S1": back, "S2": back, "S3": back}
    # two tight components {A, D} and {B, C} whose sorted rows tie: the
    # heart comes from A, the least orbit of either, not from C
    solves.clear()
    g = one_way(("A", "D", 0), ("D", "A", 0), ("B", "C", 0), ("C", "B", 0),
                ("A", "B", 1), ("B", "A", 1))
    rep = check_hereditary(g, ["A", "B", "C", "D"])
    assert solves == ["A"]
    assert rep.heart.offsets == {"A": 0, "B": 1, "C": 1, "D": 0}
    # X, Y and Z each bound their rows; X and Z reach M at pi(M) = -2
    # along tight edges and Y does not, so Y's bound passes Z's row and
    # Y is never solved, while X's row stays above Z's bound
    solves.clear()
    g = one_way(("X", "M", -2), ("Y", "M", -1), ("Z", "M", -2),
                ("M", "X", 3), ("M", "Y", 3), ("M", "Z", 5))
    rep = check_hereditary(g, ["M", "X", "Y", "Z"])
    assert solves == ["X", "Z"]
    assert rep.heart.offsets == {"M": -2, "X": 1, "Y": 1, "Z": 0}


def test_heart_rows_stay_with_the_engine(solves):
    # the rows that check solves for its heart are the engine's own: the
    # heart, the weights and the paths from the canonical source Z solve
    # nothing more, and the heart from Z is the one check reports
    g = one_way(("X", "M", -2), ("Y", "M", -1), ("Z", "M", -2),
                ("M", "X", 3), ("M", "Y", 3), ("M", "Z", 5))
    eng = PathEngine(g)
    rep = check_hereditary(g, ["M", "X", "Y", "Z"], engine=eng)
    assert solves == ["X", "Z"]
    assert extract_heart(g, "Z", engine=eng).offsets == rep.heart.offsets
    for y in rep.heart.offsets:
        assert eng.min_weight("Z", y) == rep.heart.offsets[y]
        assert eng.path_report(ObjRef("Z", 0), ObjRef(y, rep.heart.offsets[y])).exists
        assert not eng.path_report(ObjRef("Z", 1), ObjRef(y, rep.heart.offsets[y])).exists
    assert solves == ["X", "Z"]


@pytest.mark.parametrize("falling", [True, False], ids=["falling", "rising"])
def test_heart_search_is_linear_on_a_long_chain(monkeypatch, solves, falling):
    # a chain of 2,000 orbits at weight 0: every edge is tight and pi is 0
    # throughout, so every orbit is a pi = 0 candidate.  Taking the tight
    # components in Tarjan's topological order reaches the whole chain from
    # its head in one search and one solve, whichever way the ids run
    # along the edges; taking the candidates in id order instead searches
    # once from each orbit of the falling chain
    ids = [f"o{i:04d}" for i in range(2000)]
    g = one_way(*((b, a, 0) if falling else (a, b, 0) for a, b in zip(ids, ids[1:])))
    eng = PathEngine(g)
    searches = []
    real = paths._bfs_tree
    monkeypatch.setattr(paths, "_bfs_tree",
                        lambda adj, *starts: searches.append(starts) or real(adj, *starts))
    rep = check_hereditary(g, ids, engine=eng)
    head = ids[-1] if falling else ids[0]
    assert searches == [(head,)] and solves == [head]
    assert rep.verdict == "hereditary" and set(rep.heart.offsets.values()) == {0}


def test_walks_of_length_zero_count():
    # without identity edges (validate refuses such a graph, check does not
    # run validate) every orbit still reaches itself at weight 0
    g = ShiftGraph("bare", [Orbit("A"), Orbit("B")], {("A", "B"): (HomEdge(1, 1),)})
    rep = check_hereditary(g, ["A", "B"])
    assert rep.heart.offsets == {"A": 0, "B": 1}
    assert rep.indicator == {"A": False, "B": False}


@pytest.mark.parametrize("window", [2, 3, 5])
def test_ext2_refutes_the_seven_complexes(window):
    # 1 -> 2 -> 3 plus 1 -> 3 modulo a*b is derived-discrete and not
    # piecewise hereditary.  No walk is negative, but P3->P2->P1 has a
    # weight-2 self-edge (its Ext^2), so no heart has every m in {0, 1}
    _, xs = a3_shortcut_complexes()
    g = build_shiftgraph_from_complexes(xs, window)
    assert g.genuine
    eng = PathEngine(g)
    [blk] = eng.blocks()
    rep = check_hereditary(g, blk, engine=eng)
    assert rep.verdict == "not-hereditary"
    assert not any(rep.indicator.values()) and rep.witness is None
    assert rep.heart_check.ok and max(rep.heart_check.m_values) == 2
    assert oracles.check_degree_witness(g, rep.degree_witness)
    assert rep.to_dict()["degree_witness"] == rep.degree_witness
    assert "witness" not in rep.to_dict()


def test_ext2_refutation_reads_the_constraints_once(monkeypatch):
    # one relaxation run over the constraint edges decides the degree
    # check and hands back the cycle that the degree witness lists
    reads = []
    real = hereditary._constraint_edges

    class Reads(dict):
        def __iter__(self):
            reads.append(len(self))
            return super().__iter__()

    def counted(succ, blk):
        return Reads(real(succ, blk))

    monkeypatch.setattr(hereditary, "_constraint_edges", counted)
    g = build_shiftgraph_from_complexes(a3_shortcut_complexes()[1], 3)
    [blk] = PathEngine(g).blocks()
    rep = check_hereditary(g, blk)
    assert rep.verdict == "not-hereditary"
    assert oracles.check_degree_witness(g, rep.degree_witness)
    assert len(reads) == 1


def test_degree_witness_reads_direction_off_succ():
    # a step that is a stored hom edge is written forward, even when it
    # also reverses one: B -> A at 1 is stored, and reverses A -> B at 0
    succ = {"A": [("A", 0), ("B", 0)], "B": [("A", 1), ("B", 0)]}
    assert _degree_witness(succ, [("B", "A", 1)]) == [
        {"from": "B", "to": "A", "weight": 1, "direction": "forward"}]
    # B -> A at -1 is stored nowhere: it reverses A -> B at 2
    assert _degree_witness({"A": [("B", 2)], "B": []}, [("B", "A", -1)]) == [
        {"from": "A", "to": "B", "weight": 2, "direction": "reversed"}]


def count_potentials(monkeypatch) -> list[list[str]]:
    """The sorted nodes of each _potential call from here on; hereditary
    reads the name from paths when it runs."""
    calls = []
    real = paths._potential

    def counting(succ):
        calls.append(sorted(succ))
        return real(succ)

    monkeypatch.setattr(paths, "_potential", counting)
    return calls


def test_one_potential_per_hereditary_block(monkeypatch):
    # the potential that finds no negative orbit in a block is the one its
    # heart reads; only a block with a negative orbit is split into its
    # strongly connected components
    calls = count_potentials(monkeypatch)
    g = one_way(("A", "B", 0), ("B", "C", -1), ("C", "A", 2))
    rep = check_hereditary(g, ["A", "B", "C"])
    assert rep.verdict == "hereditary" and calls == [["A", "B", "C"]]
    assert rep.heart.offsets == {"A": 0, "B": 0, "C": -1}
    calls.clear()
    g = one_way(("A", "B", 0), ("B", "A", -1), ("B", "C", 0))
    rep = check_hereditary(g, ["A", "B", "C"])
    assert rep.indicator == {"A": True, "B": True, "C": False}
    assert calls[0] == ["A", "B", "C"] and sorted(calls[1:]) == [["A", "B"], ["C"]]


def test_degree_check_on_genuine_blocks_only():
    # the canonical heart puts B -> C in degree 2, but B moved down by one
    # gives degrees 1, 0 and 1: hereditary, no degree witness, and that
    # heart is the one reported
    g = one_way(("A", "B", 0), ("A", "C", 0), ("B", "C", 2))
    g.genuine = True
    rep = check_hereditary(g, ["A", "B", "C"])
    assert set(rep.heart_check.m_values) <= {0, 1}
    assert rep.verdict == "hereditary" and rep.degree_witness is None
    assert rep.heart.offsets == {"A": 0, "B": -1, "C": 0}
    assert rep.heart_check.m_values == Counter({0: 4, 1: 2})
    # not genuine, the canonical heart stands, degree 2 included
    g.genuine = False
    assert max(check_hereditary(g, ["A", "B", "C"]).heart_check.m_values) == 2
    # with A -> C in degree 2 over A -> B -> C in degree 0, every heart
    # puts C at least one above A and at most B, which is at most A; only
    # a genuine instance promises the m <= 1 half
    g = one_way(("A", "B", 0), ("B", "C", 0), ("A", "C", 2))
    assert check_hereditary(g, ["A", "B", "C"]).verdict == "hereditary"
    g.genuine = True
    rep = check_hereditary(g, ["A", "B", "C"])
    assert rep.verdict == "not-hereditary" and rep.heart_check.ok
    assert oracles.check_degree_witness(g, rep.degree_witness)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(-3, 3, 0.35), (0, 2, 0.2)]))
@example(3, (0, 2, 0.2)).via("a canonical heart with m = 2 on a hereditary block")
@example(17, (0, 2, 0.2)).via("a canonical heart with m = 2 on a hereditary block")
def test_hereditary_verdict_shows_hereditary_heart(seed, weights):
    # on a genuine instance a hereditary verdict carries a heart with every
    # degree in {0, 1}, and a degree refutation a checkable witness
    w_lo, w_hi, edge_prob = weights
    g = oracles.random_graph(np.random.default_rng(seed), max_orbits=6,
                             w_lo=w_lo, w_hi=w_hi, edge_prob=edge_prob)
    g.genuine = True
    eng = PathEngine(g)
    for blk in eng.blocks():
        try:
            rep = check_hereditary(g, blk, engine=eng)
        except UnreachableOrbit:
            continue
        if rep.verdict == "hereditary":
            assert set(rep.heart_check.m_values) <= {0, 1} and rep.heart_check.ok
            assert rep.heart_check.to_dict() == verify_heart(g, rep.heart).to_dict()
        elif rep.degree_witness is not None:
            assert oracles.check_degree_witness(g, rep.degree_witness)


def test_degree_check_refutes_no_genuine_generator():
    # forced past its m >= 2 gate, the m <= 1 check still finds a heart
    # with every degree in {0, 1} on every hereditary generator instance
    graphs = [gen_dynkin_an(n, "".join(word)) for n in range(2, 6)
              for word in itertools.product("<>", repeat=n - 1)]
    graphs += [gen_a2_from_complexes(w) for w in range(4)] + [gen_example_a2()[0]]
    for g in graphs:
        assert g.genuine
        eng = PathEngine(g)
        for blk in eng.blocks():
            assert check_hereditary(g, blk, engine=eng).degree_witness is None
            assert isinstance(_potential(_constraint_edges(eng.succ, blk)), dict)


def _report(verdict, offsets, m_values, degree_witness=None):
    """The to_dict of a check_hereditary report on a block with no
    negative orbit, whose heart_check finds no violation."""
    out = {"verdict": verdict, "negative_walk_indicator": dict.fromkeys(offsets, False),
           "heart": {"block": sorted(offsets), "offsets": offsets},
           "heart_check": {"ok": True, "violations": [], "m_values": m_values}}
    if degree_witness is not None:
        out["degree_witness"] = [{"from": u, "to": v, "weight": w, "direction": d}
                                 for (u, v, w, d) in degree_witness]
    return out


# Full reports on genuine random blocks, keyed by k in the seed 10**6 + k,
# whose bytes rest on the order of the degree check's relaxation: the
# cycle behind a degree witness (k = 35 and 44), and the constraint
# potential that replaces a canonical heart with a degree m >= 2 (k = 1
# and 133)
PINNED_DEGREE_REPORTS = {
    35: _report("not-hereditary", {"O0": 1, "O1": 0, "O2": 0, "O3": 0, "O4": 0, "O5": 0},
                {0: 13, 1: 6, 2: 6, 3: 2, 4: 1},
                [("O1", "O0", 2, "reversed"), ("O4", "O1", 2, "reversed"),
                 ("O2", "O4", 2, "reversed"), ("O5", "O2", 3, "reversed"),
                 ("O0", "O5", 3, "reversed")]),
    44: _report("not-hereditary", {"O0": 2, "O1": 2, "O2": 0, "O3": 3, "O4": 0, "O5": 0},
                {0: 13, 1: 3, 2: 4, 3: 3, 4: 1, 5: 1},
                [("O3", "O0", 2, "reversed"), ("O4", "O3", 3, "reversed"),
                 ("O4", "O1", 2, "forward"), ("O0", "O1", 2, "reversed")]),
    1: _report("hereditary", {"O0": -1, "O1": 0, "O2": -2}, {0: 4, 1: 3}),
    133: _report("hereditary", {"O0": 2, "O1": 0, "O2": 4, "O3": 4}, {0: 5, 1: 5}),
}


def test_degree_check_reports_are_pinned():
    for k, want in PINNED_DEGREE_REPORTS.items():
        g = oracles.random_graph(np.random.default_rng(10**6 + k), max_orbits=6,
                                 periodic_prob=0.0, w_lo=0)
        g.genuine = True
        blk = want["heart"]["block"]
        assert PathEngine(g).blocks() == [blk]
        rep = check_hereditary(g, blk)
        assert rep.to_dict() == want
        if rep.degree_witness is not None:
            assert oracles.check_degree_witness(g, rep.degree_witness)
        # the canonical heart, which a graph that is not genuine keeps, has a
        # degree m >= 2 on each of them
        g.genuine = False
        canonical = check_hereditary(g, blk)
        assert canonical.verdict == "hereditary" and max(canonical.heart_check.m_values) >= 2
