"""The reference checker accepts derhed's answers and rejects broken ones.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import derhed  # noqa: E402
import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from pace import Pace  # noqa: E402
from run import Record, at_pace, tail_percentile  # noqa: E402


def _instance(seed=0):
    b = W.Synthetic(random.Random(seed))
    b.chain(6)
    b.negative_block(5, extra=3, tails=1)
    b.degenerate(2)
    inst, ref = W.planted(b, "t")
    return inst, ref()


def _reports(inst):
    g = derhed.ShiftGraph.from_dict(inst)
    eng = derhed.PathEngine(g)
    return {tuple(b): derhed.check_hereditary(g, b, engine=eng).to_dict() for b in eng.blocks()}


def _split(g, reps):
    her = next(b for b in reps if reps[b]["verdict"] == "hereditary" and len(b) > 1)
    neg = next(b for b in reps if reps[b]["verdict"] == "not-hereditary" and len(b) > 1)
    return list(her), reps[her], list(neg), reps[neg]


def test_accepts_derhed_answers():
    inst, g = _instance()
    reps = _reports(inst)
    assert [list(b) for b in reps] == g.blocks
    verdicts = [R.check_block(g, list(b), rep) for b, rep in reps.items()]
    assert verdicts.count(True) == 1 and verdicts.count(False) == 2


@pytest.mark.parametrize("seed", range(6))
def test_planted_negative_orbits_match_floyd_warshall(seed):
    inst, g = _instance(seed)
    assert g.negative and len(g.negative) < len(g.nodes)


def test_rejects_flipped_verdict():
    inst, g = _instance()
    her_b, her, neg_b, neg = _split(g, _reports(inst))
    flipped = dict(her, verdict="not-hereditary")
    with pytest.raises(R.Mismatch, match="verdict"):
        R.check_block(g, her_b, flipped)
    flipped = dict(neg, verdict="hereditary")
    with pytest.raises(R.Mismatch, match="verdict"):
        R.check_block(g, neg_b, flipped)


def test_rejects_flipped_indicator():
    inst, g = _instance()
    _, _, neg_b, neg = _split(g, _reports(inst))
    bad = copy.deepcopy(neg)
    x = next(iter(bad["negative_walk_indicator"]))
    bad["negative_walk_indicator"][x] = not bad["negative_walk_indicator"][x]
    with pytest.raises(R.Mismatch, match="indicator"):
        R.check_block(g, neg_b, bad)


def test_rejects_heart_offset_off_by_one():
    inst, g = _instance()
    her_b, her, _, _ = _split(g, _reports(inst))
    for y in her_b:
        bad = copy.deepcopy(her)
        bad["heart"]["offsets"][y] += 1
        with pytest.raises(R.Mismatch, match="heart offset"):
            R.check_block(g, her_b, bad)


def test_rejects_truncated_witness():
    inst, g = _instance()
    _, _, neg_b, neg = _split(g, _reports(inst))
    bad = copy.deepcopy(neg)
    bad["witness"] = bad["witness"][:-1]
    with pytest.raises(R.Mismatch, match="witness"):
        R.check_block(g, neg_b, bad)


def test_rejects_witness_step_without_edge():
    inst, g = _instance()
    _, _, neg_b, neg = _split(g, _reports(inst))
    bad = copy.deepcopy(neg)
    hom = next(s for s in bad["witness"] if s["kind"] == "hom")
    hom["offset"] -= 1
    with pytest.raises(R.Mismatch, match="witness"):
        R.check_block(g, neg_b, bad)


def test_rejects_truncated_path_witness():
    inst, g = _instance()
    sg = derhed.ShiftGraph.from_dict(inst)
    _, _, neg_b, _ = _split(g, _reports(inst))
    ring = [x for x in neg_b if x in g.negative]
    src, dst = (ring[0], 0), (ring[-1], -5)
    rep = derhed.PathEngine(sg).path_report(derhed.ObjRef(*src), derhed.ObjRef(*dst)).to_dict()
    R.check_path(g, src, dst, rep)
    rep["witness"] = rep["witness"][:-1]
    with pytest.raises(R.Mismatch, match="witness"):
        R.check_path(g, src, dst, rep)


def test_rejects_wrong_hom_dim():
    alg = derhed.algebra_from_dict(R.dual_algebra_dict())
    chains = {m: derhed.ProjComplex.from_dict(alg, R.dual_chain_dict(m)) for m in range(1, 5)}
    op = W._sweep_op(chains, [(2, 2), (1, 4), (3, 2)], 2)
    dims = op.run()
    op.check(dims)
    for k in range(len(dims)):
        bad = list(dims)
        bad[k] += 1
        with pytest.raises(R.Mismatch, match="hom_k_dim"):
            op.check(bad)


def test_rejects_wrong_hom_dim_from_cli():
    check = W._check_hom(2, 2, -1)
    assert check({"dim": 1}) == (0, 0)
    with pytest.raises(R.Mismatch, match="expected 1"):
        check({"dim": 2})


def test_rejects_wrong_edge_tables():
    g = derhed.gen_dynkin_an(4, "><>")
    table = R.edge_table(g.to_dict())
    R.check_edges(table, R.an_edges(4, "><>"), "A4")
    assert len(g.orbits) == 4 * 5 // 2
    key = next(iter(table))
    bad = dict(table)
    bad[key] = tuple((w, d + 1, iso) for (w, d, iso) in table[key])
    with pytest.raises(R.Mismatch, match="differ"):
        R.check_edges(bad, R.an_edges(4, "><>"), "A4")


def test_reference_tables_agree_with_textbook_values():
    a2 = R.an_edges(2, ">")  # 1 -> 2: S2 = P2 inside I = P1, I onto S1
    assert a2[("M2_2", "M1_2")] == ((0, 1, False),)
    assert a2[("M1_2", "M1_1")] == ((0, 1, False),)
    assert a2[("M1_1", "M2_2")] == ((1, 1, False),)
    assert ("M1_1", "M1_2") not in a2
    assert R.dual_hom_dim(1, 1, 0) == 2  # End(R) is the dual numbers
    assert R.dual_hom_dim(2, 2, -1) == 1  # the weight -1 self-edge of C_2


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert tail_percentile([1.0] * 5) == (100, 1.0, 0)


def test_at_pace_scales_each_op_by_the_pieces_around_it():
    pace = Pace("in_process")  # reference piece time 1 ms
    recs = [Record(0.5, True, None, pace=((0, 0.0), 0.002)),  # host at half speed
            Record(0.3, True, None, pace=((3, 0.006), 0.002)),
            Record(0.2, True, None, pace=((0, 0.0), 0.001))]
    # 1 piece in 2 ms; 5 pieces in 10 ms; 2 pieces in 3 ms
    assert at_pace(recs, pace) == pytest.approx([0.25, 0.15, 0.2 * 2 / 3])


def test_pace_pieces_run_during_the_body_only_when_asked():
    pace = Pace("in_process")
    with pace.during(False) as got:
        sum(range(2_000_000))
    assert got == [0, 0.0]
    old = signal.getsignal(signal.SIGALRM)
    with pace.during(True) as got:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert got[0] >= 3 and got[1] > 0
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric_of_benchmark_json(trace):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blocks", "--seed", "3",
                          "--seconds", "0.5", "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert res["correct"] is True and res["attempted"] >= 1
