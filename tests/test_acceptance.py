"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

The per-criterion lines are printed straight to the terminal (outside
pytest's capture) so the gate is readable in any run.
"""

import itertools
import json
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from derhed.complexes import hom_k_dim
from derhed.degenerate import (DegenerateAperiodic, DegeneratePeriodic,
                               NonDegenerate, classify_degenerate)
from derhed.generators import (dual_numbers_algebra, dual_numbers_chain,
                               expand_hereditary, gen_a2_from_complexes,
                               gen_dual_numbers, gen_dynkin_an, gen_example_a2,
                               gen_semisimple_block)
from derhed.hereditary import check_hereditary, cohomology, truncate
from derhed.linalg import PrimeField
from derhed.paths import POS_INF, PathEngine, directing_objects
from derhed.shiftgraph import ObjRef, validate
from derhed.cli import main as cli_main

import oracles

FLD = PrimeField()


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _criterion(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} [{label}]: PASS")

    return _criterion


@pytest.fixture(scope="module")
def dynkin_instances():
    out = []
    for n in range(2, 7):
        for bits in itertools.product("><", repeat=n - 1):
            out.append(gen_dynkin_an(n, "".join(bits), FLD.p))
    return out


@pytest.fixture(scope="module")
def dual_graph():
    return gen_dual_numbers(3, 2, FLD)


def all_genuine_instances(dynkin_instances, dual_graph):
    insts = list(dynkin_instances)
    insts.append(gen_example_a2(FLD.p)[0])
    insts.append(dual_graph)
    insts.extend(gen_semisimple_block(p) for p in (1, 2, 3, 4))
    return insts


def test_criterion_1_a2_golden(announce, tmp_path, capsys):
    with announce(1, "A_2 golden check + inadmissible heart"):
        inst = tmp_path / "a2.json"
        heart = tmp_path / "bad_heart.json"
        assert cli_main(["gen", "a2", "--out", str(inst),
                         "--bad-heart-out", str(heart)]) == 0
        capsys.readouterr()
        assert cli_main(["check", str(inst)]) == 0
        rep = json.loads(capsys.readouterr().out)
        blk = rep["report"]["blocks"][0]
        assert rep["report"]["verdict"] == "hereditary"
        assert blk["heart"]["offsets"] == {"S1": 0, "I": 0, "S2": 0}
        assert cli_main(["verify-heart", str(inst), "--heart", str(heart)]) == 0
        rep = json.loads(capsys.readouterr().out)
        hc = rep["report"]["heart_check"]
        assert hc["violations"] == [{"from": {"orbit": "S2", "offset": 0},
                                     "to": {"orbit": "I", "offset": 1},
                                     "m": -1}]


def test_criterion_2_dynkin_family(announce, dynkin_instances):
    with announce(2, "A_n all orientations hereditary"):
        assert len(dynkin_instances) == sum(2 ** (n - 1) for n in range(2, 7))
        for g in dynkin_instances:
            n = max(int(o.id.split("_")[1]) for o in g.orbits)
            assert len(g.orbits) == n * (n + 1) // 2
            vrep = validate(g)
            assert vrep.ok and vrep.warnings == []
            eng = PathEngine(g)
            for blk in eng.blocks():
                rep = check_hereditary(g, blk, engine=eng)
                assert rep.verdict == "hereditary"
                assert set(rep.heart_check.m_values) <= {0, 1}


def test_criterion_3_dual_numbers(announce, dual_graph):
    with announce(3, "dual numbers non-hereditary"):
        alg = dual_numbers_algebra()
        c2 = dual_numbers_chain(alg, 2)
        assert oracles.hom_oracle(alg, c2, c2, -1, FLD.p) == 1
        assert hom_k_dim(c2, c2, -1, FLD) == 1
        rep = check_hereditary(dual_graph, sorted(dual_graph.orbit_ids()))
        assert rep.verdict == "not-hereditary"
        steps = rep.witness
        assert steps[0].at.orbit == steps[-1].at.orbit
        assert steps[0].at.offset - steps[-1].at.offset == 1
        assert oracles.check_witness(dual_graph, steps,
                                     steps[0].at, steps[-1].at)
        assert directing_objects(dual_graph) == set()


def test_criterion_4_indicator_homogeneity(announce, dynkin_instances,
                                           dual_graph):
    with announce(4, "negative-walk indicator constant per block"):
        for g in all_genuine_instances(dynkin_instances, dual_graph):
            eng = PathEngine(g)
            neg = eng.negative_walk_objects()
            for blk in eng.blocks():
                hits = {x for x in blk if x in neg}
                assert hits == set() or hits == set(blk)


def test_criterion_5_pairwise_finiteness(announce, dynkin_instances,
                                         dual_graph):
    with announce(5, "min_weight finite and symmetric per block"):
        for g in all_genuine_instances(dynkin_instances, dual_graph):
            eng = PathEngine(g)
            for blk in eng.blocks():
                for x in blk:
                    for y in blk:
                        assert eng.min_weight(x, y) < POS_INF
                        assert ((eng.min_weight(x, y) < POS_INF)
                                == (eng.min_weight(y, x) < POS_INF))


def _has_weight_one_return(g, x, max_steps=3):
    """Hom-edge-only closed walk x -> x of total weight 1 within
    max_steps steps, by bounded (node, weight) state search."""
    states = {(x, 0)}
    for _ in range(max_steps):
        nxt = set(states)
        for (u, w) in states:
            for (a, b), edges in g.homs.items():
                if a != u:
                    continue
                for e in edges:
                    w2 = w + e.weight
                    if -8 <= w2 <= 8:
                        nxt.add((b, w2))
        states = nxt
        if (x, 1) in states:
            return True
    return False


def test_criterion_6_weight_one_returns(announce, dynkin_instances,
                                        dual_graph):
    with announce(6, "weight-1 closed walk in <= 3 hom steps"):
        for g in all_genuine_instances(dynkin_instances, dual_graph):
            eng = PathEngine(g)
            for blk in eng.blocks():
                if not isinstance(classify_degenerate(g, blk), NonDegenerate):
                    continue
                for x in blk:
                    assert _has_weight_one_return(g, x), (g.name, x)


def test_criterion_7_oracle_equivalence(announce):
    with announce(7, "min_weight equals brute-force oracle on 500 graphs"):
        checked = 0
        for seed in range(500):
            g = oracles.random_graph(np.random.default_rng(seed),
                                     max_orbits=6)
            eng = PathEngine(g)
            for x in g.orbit_ids():
                for y in g.orbit_ids():
                    assert (eng.min_weight(x, y)
                            == oracles.min_weight_oracle(g, x, y)), (seed, x, y)
                    checked += 1
        assert checked >= 500


def test_criterion_8_truncation_partition(announce):
    with announce(8, "truncation partition on A_3"):
        g = gen_dynkin_an(3, ">>", FLD.p)
        rep = check_hereditary(g, sorted(g.orbit_ids()))
        heart = rep.heart
        rng = np.random.default_rng(42)
        ids = g.orbit_ids()
        for _ in range(100):
            obj = Counter()
            for _ in range(int(rng.integers(1, 5))):
                ref = ObjRef(ids[int(rng.integers(len(ids)))],
                             int(rng.integers(-3, 4)))
                obj[ref] += int(rng.integers(1, 4))
            full = cohomology(heart, obj)
            for n in range(-2, 3):
                low = truncate(heart, obj, n, "le")
                high = truncate(heart, obj, n + 1, "ge")
                assert low + high == obj
                lc = cohomology(heart, low)
                hc = cohomology(heart, high)
                assert all(p <= n for p in lc)
                assert all(p >= n + 1 for p in hc)
                merged = {}
                for part in (lc, hc):
                    for p, c in part.items():
                        merged[p] = merged.get(p, Counter()) + c
                assert merged == full


def test_criterion_9_cross_engine_agreement(announce):
    with announce(9, "abelian and homotopy A_2 graphs agree"):
        abelian, _ = gen_example_a2(FLD.p)
        homotopy = gen_a2_from_complexes(window=2, fld=FLD)
        assert sorted(homotopy.orbit_ids()) == sorted(abelian.orbit_ids())
        assert homotopy.homs == abelian.homs
        for oid in abelian.orbit_ids():
            assert (homotopy.orbit(oid).end_dim
                    == abelian.orbit(oid).end_dim)


def test_criterion_10_degenerate_classification(announce):
    with announce(10, "degenerate block classification"):
        for n in (1, 2, 3, 4):
            for d in (1, 2):
                g = gen_semisimple_block(n, d)
                cls = classify_degenerate(g, ["X"])
                assert isinstance(cls, DegeneratePeriodic)
                assert cls.period == n and cls.end_dim == d
                assert check_hereditary(g, ["X"]).verdict == "not-hereditary"
        single = expand_hereditary(("X",), {("X", "X"): 1}, {})
        cls = classify_degenerate(single, ["X"])
        assert isinstance(cls, DegenerateAperiodic)
        rep = check_hereditary(single, ["X"])
        assert rep.verdict == "hereditary"
        assert rep.heart.offsets == {"X": 0}
