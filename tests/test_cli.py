import argparse
import importlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import derhed
from derhed import cli
from derhed.cli import main
from derhed.paths import PathStep
from derhed.shiftgraph import HomEdge, ObjRef, Orbit, ShiftGraph

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def a2_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("a2")
    inst = d / "a2.json"
    heart = d / "bad_heart.json"
    assert main(["gen", "a2", "--out", str(inst),
                 "--bad-heart-out", str(heart)]) == 0
    return inst, heart


@pytest.fixture(scope="module")
def dual_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("dual")
    inst = d / "dual.json"
    assert main(["gen", "dual", "--max-length", "3", "--window", "2",
                 "--out", str(inst)]) == 0
    return inst


def test_envelope_fields(capsys, a2_files):
    code, rep = run_cli(capsys, "validate", str(a2_files[0]))
    assert code == 0
    assert rep["tool"] == "derhed"
    assert rep["instance"] == "example_a2"
    assert rep["genuine"] is True and rep["windowed"] is False
    assert rep["version"]
    assert rep["report"]["ok"] and rep["report"]["warnings"] == []


def test_check_a2(capsys, a2_files):
    code, rep = run_cli(capsys, "check", str(a2_files[0]))
    assert code == 0
    assert rep["report"]["verdict"] == "hereditary"
    blk = rep["report"]["blocks"][0]
    assert blk["heart"]["offsets"] == {"I": 0, "S1": 0, "S2": 0}


def test_check_assert_hereditary_exit_codes(capsys, a2_files, dual_file):
    code, _ = run_cli(capsys, "check", str(a2_files[0]), "--assert-hereditary")
    assert code == 0
    # exit 1 only when some block is not-hereditary: within-window exits 0
    win = a2_files[0].parent / "a2_windowed.json"
    win.write_text(json.dumps({**json.loads(a2_files[0].read_text()), "windowed": True}))
    code, rep = run_cli(capsys, "check", str(win), "--assert-hereditary")
    assert code == 0 and rep["report"]["verdict"] == "hereditary-within-window"
    code, rep = run_cli(capsys, "check", str(dual_file), "--assert-hereditary")
    assert code == 1
    blk = rep["report"]["blocks"][0]
    assert blk["verdict"] == "not-hereditary"
    assert blk["witness"]


def test_check_rejects_jobs(capsys, dual_file):
    # --jobs is gone: argparse refuses it with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["check", str(dual_file), "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_byte_identical_reports(capsys, a2_files):
    main(["check", str(a2_files[0])])
    first = capsys.readouterr().out
    main(["check", str(a2_files[0])])
    assert capsys.readouterr().out == first


def test_verify_heart_violation(capsys, a2_files):
    inst, heart = a2_files
    code, rep = run_cli(capsys, "verify-heart", str(inst), "--heart", str(heart))
    assert code == 0
    hc = rep["report"]["heart_check"]
    assert not hc["ok"]
    assert hc["violations"] == [{"from": {"orbit": "S2", "offset": 0},
                                 "to": {"orbit": "I", "offset": 1}, "m": -1}]


@pytest.mark.parametrize("offsets", [
    {"S1": 1.7, "S2": "0", "I": True},
    {"I": 0, "S1": 1.0, "S2": 0},
    {"I": 0, "S1": 0, "S2": "0"},
    {"I": False, "S1": 0, "S2": 0},
    [["I", 0], ["S1", 0], ["S2", 0]],
    "I",
], ids=["mixed", "float", "string", "bool", "list", "not-an-object"])
def test_verify_heart_non_integer_offsets_exit_2(capsys, tmp_path, a2_files, offsets):
    heart = tmp_path / "heart.json"
    heart.write_text(json.dumps({"block": ["I", "S1", "S2"], "offsets": offsets}))
    code, rep = run_cli(capsys, "verify-heart", str(a2_files[0]), "--heart", str(heart))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "malformed heart file" in rep["error"]["message"]


@pytest.mark.parametrize("block", [5, ["I", "S1"], ["S1", "I", "S2"],
                                   ["I", "S1", "S2", "S2"], None],
                         ids=["number", "short", "unsorted", "repeated", "null"])
def test_verify_heart_inconsistent_block_exit_2(capsys, tmp_path, a2_files, block):
    # a present block must list the offsets' orbits, sorted; an absent one
    # is allowed
    offsets = {"I": 0, "S1": 0, "S2": 0}
    heart = tmp_path / "heart.json"
    heart.write_text(json.dumps({"block": block, "offsets": offsets}))
    code, rep = run_cli(capsys, "verify-heart", str(a2_files[0]), "--heart", str(heart))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "malformed heart file: block must be the sorted orbits" in rep["error"]["message"]
    heart.write_text(json.dumps({"offsets": offsets}))
    code, rep = run_cli(capsys, "verify-heart", str(a2_files[0]), "--heart", str(heart))
    assert code == 0 and rep["report"]["heart"]["block"] == ["I", "S1", "S2"]


def test_check_refutes_the_seven_complexes(capsys, tmp_path):
    # no negative walk, but no heart with every degree in {0, 1}: the
    # block is not hereditary, --assert-hereditary exits 1, and the
    # degree witness replays against the instance's edges
    from derhed.complexes import build_shiftgraph_from_complexes
    from test_complexes import a3_shortcut_complexes

    g = build_shiftgraph_from_complexes(a3_shortcut_complexes()[1], 3)
    inst = tmp_path / "a3.json"
    inst.write_text(g.to_json())
    code, rep = run_cli(capsys, "check", str(inst), "--assert-hereditary")
    assert code == 1
    [blk] = rep["report"]["blocks"]
    assert rep["report"]["verdict"] == blk["verdict"] == "not-hereditary"
    assert blk["heart_check"]["m_values"] == {"0": 20, "1": 12, "2": 4}
    assert "witness" not in blk
    assert oracles.check_degree_witness(g, blk["degree_witness"])
    code, _ = run_cli(capsys, "check", str(inst))
    assert code == 0


def test_blocks_and_dist_and_path(capsys, a2_files):
    inst = str(a2_files[0])
    code, rep = run_cli(capsys, "blocks", inst)
    assert rep["report"]["blocks"] == [["I", "S1", "S2"]]
    code, rep = run_cli(capsys, "dist", inst, "S1", "S2")
    assert rep["report"]["min_weight"] == 1
    code, rep = run_cli(capsys, "dist", inst, "S1", "S1")
    assert rep["report"]["min_weight"] == 0
    code, rep = run_cli(capsys, "path", inst, "S2@0", "S1@2")
    assert rep["report"]["exists"] is True
    code, rep = run_cli(capsys, "path", inst, "S1@1", "S1@0")
    assert rep["report"]["exists"] is False


def test_dist_unreachable_encoding(capsys, tmp_path):
    g = ShiftGraph("two", [Orbit("X"), Orbit("Y")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True),),
        ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
    })
    f = tmp_path / "two.json"
    f.write_text(g.to_json())
    _, rep = run_cli(capsys, "dist", str(f), "X", "Y")
    assert rep["report"]["min_weight"] == "+inf"


def test_periodic_sink(capsys, tmp_path):
    g = oracles.periodic_sink()
    f = tmp_path / "sink.json"
    f.write_text(g.to_json())
    _, rep = run_cli(capsys, "dist", str(f), "A", "B")
    assert rep["report"]["min_weight"] == 5
    _, rep = run_cli(capsys, "path", str(f), "A@0", "B@0")
    assert rep["report"]["exists"] is False
    code, rep = run_cli(capsys, "check", str(f))
    assert code == 0
    blk = rep["report"]["blocks"][0]
    assert blk["verdict"] == "not-hereditary"
    assert blk["negative_walk_indicator"] == {"A": False, "B": False, "P": True}
    steps = [PathStep(s["kind"], ObjRef(s["orbit"], s["offset"]))
             for s in blk["witness"]]
    first, last = steps[0].at, steps[-1].at
    assert first.orbit == last.orbit and first.offset - last.offset == 1
    assert oracles.check_witness(g, steps, first, last)
    # A is on no negative walk, but its walks reach one: no heart
    code, rep = run_cli(capsys, "heart", str(f), "--from", "A")
    assert code == 2 and rep["error"]["type"] == "NegativeWalkAtSource"


def test_path_with_weights_beyond_float_range(capsys, tmp_path):
    # labels are exact ints, so a weight no float can hold still gives a
    # witness: exact, and padded by two shift steps
    big = 10**400
    g = ShiftGraph("big", [Orbit("A"), Orbit("B")], {
        ("A", "A"): (HomEdge(0, 1, all_iso=True),), ("B", "B"): (HomEdge(0, 1, all_iso=True),),
        ("A", "B"): (HomEdge(big, 1),)})
    f = tmp_path / "big.json"
    f.write_text(g.to_json())
    _, rep = run_cli(capsys, "dist", str(f), "A", "B")
    assert rep["report"]["min_weight"] == big
    for offset in (big, big + 2):
        code, rep = run_cli(capsys, "path", str(f), "A@0", f"B@{offset}")
        assert code == 0 and rep["report"]["exists"] is True
        steps = [PathStep(s["kind"], ObjRef(s["orbit"], s["offset"]))
                 for s in rep["report"]["witness"]]
        assert oracles.check_witness(g, steps, ObjRef("A", 0), ObjRef("B", offset))
    code, rep = run_cli(capsys, "path", str(f), "A@0", f"B@{big - 1}")
    assert code == 0 and rep["report"]["exists"] is False


def test_negative_cycle_before_a_weight_beyond_float_range(capsys, tmp_path):
    # A <-> B at -1 each puts C at -inf behind an edge no float can hold;
    # the -inf labels take no turn, so no int meets a float
    ident = (HomEdge(0, 1, all_iso=True),)
    g = ShiftGraph("ovf", [Orbit(x) for x in "ABC"], {
        **{(x, x): ident for x in "ABC"}, ("A", "B"): (HomEdge(-1, 1),),
        ("B", "A"): (HomEdge(-1, 1),), ("B", "C"): (HomEdge(10**400, 1),)})
    f = tmp_path / "ovf.json"
    f.write_text(g.to_json())
    code, rep = run_cli(capsys, "dist", str(f), "A", "C")
    assert code == 0 and rep["report"]["min_weight"] == "-inf"
    code, rep = run_cli(capsys, "check", str(f))
    assert code == 0 and rep["report"]["verdict"] == "not-hereditary"
    blk = rep["report"]["blocks"][0]
    steps = [PathStep(s["kind"], ObjRef(s["orbit"], s["offset"]))
             for s in blk["witness"]]
    first, last = steps[0].at, steps[-1].at
    assert first.orbit == last.orbit and first.offset - last.offset == 1
    assert oracles.check_witness(g, steps, first, last)


def test_reports_past_the_int_digit_limit(capsys, tmp_path):
    # each weight has 4,300 digits, which json.load reads; their sum has
    # 4,301, which the reports print in full
    big = 5 * 10**4299
    ident = (HomEdge(0, 1, all_iso=True),)
    g = ShiftGraph("long", [Orbit(x) for x in "ABC"], {
        **{(x, x): ident for x in "ABC"}, ("A", "B"): (HomEdge(big, 1),),
        ("B", "C"): (HomEdge(big, 1),)})
    f = tmp_path / "long.json"
    f.write_text(g.to_json())
    limit = sys.get_int_max_str_digits()
    total = "1" + "0" * 4300
    for argv, text in ((["dist", str(f), "A", "C"], f'"min_weight": {total},\n'),
                       (["path", str(f), "A@0", "C@0"], f'"min_weight": {total},\n'),
                       (["check", str(f), "--pretty"], f"C: {total}\n")):
        assert main(argv) == 0
        assert text in capsys.readouterr().out
        assert sys.get_int_max_str_digits() == limit


def test_path_to_an_orbit_id_with_at(capsys, tmp_path):
    # the offset follows the last @
    ident = (HomEdge(0, 1, all_iso=True),)
    f = tmp_path / "at.json"
    f.write_text(ShiftGraph("at", [Orbit("A@x"), Orbit("B")], {
        ("A@x", "A@x"): ident, ("B", "B"): ident, ("A@x", "B"): (HomEdge(1, 1),),
    }).to_json())
    code, rep = run_cli(capsys, "path", str(f), "A@x@0", "B@1")
    assert code == 0 and rep["report"]["exists"] is True
    assert rep["report"]["witness"][0] == {"kind": "start", "orbit": "A@x", "offset": 0}
    code, rep = run_cli(capsys, "path", str(f), "A@x", "B")
    assert code == 2 and "offset must be an integer" in rep["error"]["message"]


def test_gen_semisimple_refuses_end_dim_0(capsys, tmp_path):
    # the edges are checked before the orbit, so the message is the edge's
    out = tmp_path / "ss.json"
    code, rep = run_cli(capsys, "gen", "semisimple", "--period", "2", "--end-dim", "0",
                        "--out", str(out))
    assert code == 2 and rep["error"] == {
        "type": "input", "message": "hom edges record nonzero hom-spaces: dim >= 1"}
    assert not out.exists()


def test_gen_semisimple_refuses_period_0(capsys, tmp_path):
    # ShiftGraph's orbit check is the one gate
    out = tmp_path / "ss.json"
    code, rep = run_cli(capsys, "gen", "semisimple", "--period", "0", "--out", str(out))
    assert code == 2 and rep["error"] == {
        "type": "input", "message": "period must be a positive integer"}
    assert not out.exists()


def test_heart_from_negative_source_exit_2(capsys, dual_file):
    code, rep = run_cli(capsys, "heart", str(dual_file), "--from", "C1")
    assert code == 2
    assert rep["error"]["type"] == "NegativeWalkAtSource"


def test_check_one_way_block(capsys, tmp_path):
    ident = (HomEdge(0, 1, all_iso=True),)
    f = tmp_path / "one_way.json"
    # only A reaches the whole block A -> B
    f.write_text(ShiftGraph("one_way", [Orbit("A"), Orbit("B")], {
        ("A", "A"): ident, ("B", "B"): ident, ("A", "B"): (HomEdge(1, 1),),
    }).to_json())
    code, rep = run_cli(capsys, "check", str(f))
    assert code == 0
    blk = rep["report"]["blocks"][0]
    assert blk["heart"]["offsets"] == {"A": 0, "B": 1}
    assert blk["heart_check"]["ok"]
    code, rep = run_cli(capsys, "heart", str(f), "--from", "B")
    assert code == 2 and rep["error"]["type"] == "UnreachableOrbit"
    # A -> B <- C: no orbit reaches the whole block
    homs = {(x, x): ident for x in "ABC"}
    f.write_text(ShiftGraph("two_sources", [Orbit(x) for x in "ABC"], {
        **homs, ("A", "B"): (HomEdge(0, 1),), ("C", "B"): (HomEdge(0, 1),),
    }).to_json())
    code, rep = run_cli(capsys, "check", str(f))
    assert code == 2 and rep["error"]["type"] == "UnreachableOrbit"


def test_classify_and_directing(capsys, dual_file, tmp_path):
    _, rep = run_cli(capsys, "directing", str(dual_file))
    assert rep["report"]["directing"] == []
    ss = tmp_path / "ss.json"
    assert main(["gen", "semisimple", "--period", "2", "--end-dim", "1",
                 "--out", str(ss)]) == 0
    capsys.readouterr()
    _, rep = run_cli(capsys, "classify", str(ss))
    assert rep["report"]["blocks"][0]["class"]["kind"] == "degenerate-periodic"
    # one aperiodic orbit with only its identity edge: a division ring
    dr = tmp_path / "division_ring.json"
    dr.write_text(ShiftGraph("division_ring", [Orbit("X", end_dim=2)], {
        ("X", "X"): (HomEdge(0, 2, all_iso=True),)}).to_json())
    _, rep = run_cli(capsys, "classify", str(dr))
    assert rep["report"]["blocks"][0]["class"] == {
        "kind": "degenerate-aperiodic", "end_dim": 2,
        "model": "derived category of a division ring"}


def test_gen_an(capsys, tmp_path):
    out = tmp_path / "a3.json"
    code, rep = run_cli(capsys, "gen", "an", "--n", "3",
                        "--orientation", "><", "--out", str(out))
    assert code == 0 and rep["report"]["orbits"] == 6
    data = json.loads(out.read_text())
    assert len(data["orbits"]) == 6


def test_gen_a2_writes_all_files_or_none(capsys, tmp_path, monkeypatch):
    """An --out that is a directory refuses the command before anything is
    written, a failure after the texts are written leaves neither file nor
    temporary file, and one path given for both keeps the graph."""
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    heart = tmp_path / "h.json"
    code, rep = run_cli(capsys, "gen", "a2", "--out", str(outdir),
                        "--bad-heart-out", str(heart))
    assert code == 2 and rep["error"]["message"] == f"cannot write {outdir}: it is a directory"
    assert sorted(os.listdir(tmp_path)) == ["outdir"] and not os.listdir(outdir)

    def refuse(src, dst):
        raise OSError("no room")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "a2.json"
    code, rep = run_cli(capsys, "gen", "a2", "--out", str(out), "--bad-heart-out", str(heart))
    assert code == 2 and rep["error"]["message"].endswith("no room")
    assert sorted(os.listdir(tmp_path)) == ["outdir"]
    monkeypatch.undo()

    code, _ = run_cli(capsys, "gen", "a2", "--out", str(out), "--bad-heart-out", str(out))
    assert code == 0 and sorted(os.listdir(tmp_path)) == ["a2.json", "outdir"]
    assert json.loads(out.read_text())["name"] == "example_a2"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_gen_refuses_a_path_that_is_not_a_regular_file(capsys, tmp_path):
    """A FIFO as --out or as --bad-heart-out refuses the command before
    anything is written, and stays a FIFO; a symlink to a regular file is
    replaced, and its target kept."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    refusal = f"cannot write {fifo}: it is not a regular file"
    code, rep = run_cli(capsys, "gen", "an", "--n", "3", "--orientation", "><",
                        "--out", str(fifo))
    assert code == 2 and rep["error"]["message"] == refusal
    out = tmp_path / "a2.json"
    code, rep = run_cli(capsys, "gen", "a2", "--out", str(out), "--bad-heart-out", str(fifo))
    assert code == 2 and rep["error"]["message"] == refusal
    assert os.listdir(tmp_path) == ["fifo"] and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("kept")
    link.symlink_to(target)
    code, _ = run_cli(capsys, "gen", "an", "--n", "2", "--orientation", ">", "--out", str(link))
    assert code == 0 and not link.is_symlink() and target.read_text() == "kept"


@pytest.mark.parametrize("before_family", [True, False])
def test_gen_pretty_either_placement(capsys, tmp_path, before_family):
    """`gen --pretty an ...` and `gen an ... --pretty` both print text."""
    out = tmp_path / "a2.json"
    family = ["an", "--n", "2", "--orientation", ">", "--out", str(out)]
    argv = ["gen", "--pretty", *family] if before_family else ["gen", *family, "--pretty"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith('tool: "derhed"\n')
    assert "  orbits: 3\n" in text
    assert main(["gen", *family]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["orbits"] == 3


def write_a2_projectives(d):
    """The path algebra of 1 -> 2 and its projectives P1, P2 as files."""
    alg = d / "alg.json"
    alg.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"id": "a", "from": "1", "to": "2"}],
        "relations": [],
    }))
    p1 = d / "p1.json"
    p1.write_text(json.dumps({"name": "P1", "degrees": {"0": ["1"]},
                              "differentials": {}}))
    p2 = d / "p2.json"
    p2.write_text(json.dumps({"name": "P2", "degrees": {"0": ["2"]},
                              "differentials": {}}))
    return alg, p1, p2


def test_hom_subcommand(capsys, tmp_path):
    alg, p1, p2 = write_a2_projectives(tmp_path)
    code, rep = run_cli(capsys, "hom", str(alg), str(p2), str(p1), "--shift", "0")
    assert code == 0 and rep["report"]["dim"] == 1
    code, rep = run_cli(capsys, "hom", str(alg), str(p1), str(p2), "--shift", "0")
    assert rep["report"]["dim"] == 0


def test_field_char_env(capsys, tmp_path, monkeypatch):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"vertices": ["v"], "arrows": [], "relations": []}))
    pv = tmp_path / "pv.json"
    pv.write_text(json.dumps({"name": "P", "degrees": {"0": ["v"]},
                              "differentials": {}}))
    monkeypatch.setenv("DERHED_FIELD_CHAR", "101")
    code, rep = run_cli(capsys, "hom", str(alg), str(pv), str(pv))
    assert code == 0 and rep["report"]["field_char"] == 101
    monkeypatch.setenv("DERHED_FIELD_CHAR", "100")
    code, rep = run_cli(capsys, "hom", str(alg), str(pv), str(pv))
    assert code == 2 and rep["error"]["type"] == "input"


def test_input_errors_exit_2(capsys, tmp_path, a2_files):
    code, rep = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2 and rep["error"]["type"] == "input"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run_cli(capsys, "validate", str(bad))
    assert code == 2
    code, rep = run_cli(capsys, "dist", str(a2_files[0]), "S1", "ZZ")
    assert code == 2
    code, rep = run_cli(capsys, "heart", str(a2_files[0]), "--from", "ZZ")
    assert code == 2
    code, rep = run_cli(capsys, "path", str(a2_files[0]), "S1@x", "S1@0")
    assert code == 2


def _input_error(fragment):
    return lambda rep, run: (rep["error"]["type"] == "input"
                             and fragment in rep["error"]["message"])


# argv with {name} standing for a file of the branch_files fixture, the
# exit code, and a check of the printed envelope (run repeats the CLI)
CLI_BRANCHES = {
    "check-within-window": (
        ["check", "{win}"], 0,
        lambda rep, run: rep["report"]["verdict"] == "hereditary-within-window"),
    "path-bare-orbit": (
        ["path", "{a2}", "S1", "S2@1"], 0,
        lambda rep, run: rep == run("path", "{a2}", "S1@0", "S2@1")),
    "path-unknown-orbit": (
        ["path", "{a2}", "S1@0", "ZZ@1"], 2, _input_error("unknown orbit 'ZZ'")),
    "verify-heart-unknown-orbit": (
        ["verify-heart", "{a2}", "--heart", "{heart}"], 2,
        _input_error("heart names unknown orbits: ['ZZ']")),
    "gen-an-n-9": (
        ["gen", "an", "--n", "9", "--orientation", ">" * 8, "--out", "{dir}/a9.json"], 2,
        _input_error("n must be between 2 and 8")),
    "gen-an-letter-orientation": (
        ["gen", "an", "--n", "3", "--orientation", "rl", "--out", "{dir}/a3.json"], 2,
        _input_error("orientation characters must be > or <, got 'r'")),
    "gen-out-missing-dir": (
        ["gen", "semisimple", "--period", "2", "--out", "{dir}/missing/g.json"], 2,
        _input_error("cannot write")),
    "gen-bad-heart-out-missing-dir": (
        ["gen", "a2", "--out", "{dir}/a2.json", "--bad-heart-out", "{dir}/missing/h.json"], 2,
        _input_error("cannot write")),
    "gen-a2-out-missing-dir": (
        ["gen", "a2", "--out", "{dir}/missing/a2.json", "--bad-heart-out", "{dir}/h.json"], 2,
        _input_error("cannot write")),
    "hom-rejected-complex": (
        ["hom", "{alg}", "{bad}", "{p1}"], 2,
        _input_error("not in e_1 A e_1")),
}


@pytest.fixture(scope="module")
def branch_files(tmp_path_factory, a2_files):
    from derhed.generators import gen_a2_from_complexes

    d = tmp_path_factory.mktemp("branches")
    win = d / "a2_win.json"
    win.write_text(gen_a2_from_complexes(2).to_json() + "\n")
    heart = d / "heart.json"
    heart.write_text(json.dumps({"offsets": {"I": 0, "S1": 0, "S2": 0, "ZZ": 0}}))
    alg, p1, _ = write_a2_projectives(d)
    # a map P1 -> P1 must lie in e_1 A e_1, which does not hold the arrow
    bad = d / "bad.json"
    bad.write_text(json.dumps({"name": "B", "degrees": {"-1": ["1"], "0": ["1"]},
                               "differentials": {"-1": [[[["a", 1]]]]}}))
    return {"a2": a2_files[0], "win": win, "heart": heart, "alg": alg,
            "p1": p1, "bad": bad, "dir": d}


@pytest.mark.parametrize("argv, code, check", CLI_BRANCHES.values(),
                         ids=list(CLI_BRANCHES))
def test_cli_branches(capsys, branch_files, argv, code, check):
    def run(*argv):
        return run_cli(capsys, *(a.format(**branch_files) for a in argv))

    got, rep = run(*argv)
    assert got == code
    assert check(rep, lambda *argv: run(*argv)[1])
    if code == 2:  # a refused command writes no file
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--out", "--bad-heart-out"):
                assert not os.path.exists(path.format(**branch_files)), path


@pytest.mark.parametrize("field,value", oracles.WRONG_FIELD_TYPES,
                         ids=[f for f, _ in oracles.WRONG_FIELD_TYPES])
def test_validate_wrong_field_type_exit_2(capsys, tmp_path, field, value):
    inst = derhed.gen_semisimple_block(2).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(oracles.with_field(inst, field, value)))
    code, rep = run_cli(capsys, "validate", str(bad))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "malformed shift-graph instance" in rep["error"]["message"]


@pytest.mark.parametrize("field,value,message", oracles.REFUSED_FIELD_VALUES,
                         ids=[f"{f}={v}" for f, v, _ in oracles.REFUSED_FIELD_VALUES])
def test_validate_refused_field_value_exit_2(capsys, tmp_path, field, value, message):
    inst = derhed.gen_semisimple_block(2).to_dict()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(oracles.with_field(inst, field, value)))
    code, rep = run_cli(capsys, "validate", str(bad))
    assert code == 2 and rep["error"]["type"] == "input"
    assert rep["error"]["message"] == message


def test_validate_duplicate_hom_pair_exit_2(capsys, tmp_path, a2_files):
    inst = json.loads(a2_files[0].read_text())
    inst["homs"].append(inst["homs"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    code, rep = run_cli(capsys, "validate", str(bad))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "is listed twice" in rep["error"]["message"]


def _instance(orbits, homs):
    """An instance file's JSON: orbits as (id, period), homs as
    {(from, to): [(weight, all_iso), ...]} with every dim 1."""
    return {"orbits": [{"id": o, "period": p} for o, p in orbits],
            "homs": [{"from": a, "to": b,
                      "edges": [{"weight": w, "dim": 1, "all_iso": iso} for w, iso in edges]}
                     for (a, b), edges in homs.items()]}


IDENTITIES = {("A", "A"): [(0, True)], ("B", "B"): [(0, True)]}

# one instance per kind of validate error, with the first error validate
# gives on it; the last is periodic with no edges at all, three errors
REJECTED = {
    "missing-identity": (
        _instance([("A", None), ("B", None)], {("A", "A"): [(0, True)]}),
        "missing identity: orbit B has no (X, X, 0) edge"),
    "periodic-without-closure": (
        _instance([("A", 2)], {("A", "A"): [(0, True), (2, True)]}),
        "periodicity closure: orbit A with period 2 lacks an all_iso edge at weight -2"),
    "duplicate-weights": (
        _instance([("A", None), ("B", None)],
                  {**IDENTITIES, ("A", "B"): [(1, False), (1, False)]}),
        "duplicate weights on hom edges A -> B"),
    "cross-orbit-all-iso": (
        _instance([("A", None), ("B", None)], {**IDENTITIES, ("A", "B"): [(0, True)]}),
        "all_iso on cross-orbit edge A -> B (weight 0)"),
    "all-iso-off-period": (
        _instance([("A", 2)], {("A", "A"): [(-2, True), (0, True), (1, True), (2, True)]}),
        "all_iso edge A -> A at weight 1 is not a multiple of the period"),
    "periodic-no-edges": (
        {"orbits": [{"id": "A", "period": 2}], "homs": []},
        "missing identity: orbit A has no (X, X, 0) edge"),
}

# every command that reads an instance, with arguments it would accept on
# a valid instance with these orbits
READING_COMMANDS = [["blocks"], ["check"], ["heart", "--from", "A"],
                    ["verify-heart", "--heart", "{heart}"], ["dist", "A", "A"],
                    ["path", "A@1", "A@0"], ["classify"], ["directing"]]


def test_reading_commands_are_every_gated_command():
    # every command that takes the instance file, but validate, is listed,
    # so the gate tests run each of them
    takes_file = {name for name, (_, _, arguments) in cli._COMMANDS.items()
                  if cli._FILE in arguments}
    assert sorted(cmd for cmd, *_ in READING_COMMANDS) == sorted(takes_file - {"validate"})


@pytest.mark.parametrize("inst, first", REJECTED.values(), ids=list(REJECTED))
def test_reading_commands_refuse_what_validate_rejects(capsys, tmp_path, inst, first):
    path, heart = tmp_path / "inst.json", tmp_path / "heart.json"
    path.write_text(json.dumps(inst))
    heart.write_text(json.dumps({"offsets": {o["id"]: 0 for o in inst["orbits"]}}))
    code, rep = run_cli(capsys, "validate", str(path))
    assert code == 0 and rep["report"]["ok"] is False
    assert rep["report"]["errors"][0] == first
    if not inst["homs"]:
        assert len(rep["report"]["errors"]) == 3
    for cmd, *args in READING_COMMANDS:
        code, rep = run_cli(capsys, cmd, str(path), *(a.format(heart=heart) for a in args))
        assert code == 2, cmd
        assert rep["error"]["type"] == "input" and first in rep["error"]["message"], cmd


def test_cone_warnings_refuse_no_command(capsys, tmp_path, monkeypatch):
    # the gate does not even look for the warnings: only validate runs the
    # cone-closure scan
    from derhed import shiftgraph

    calls = []
    scan = shiftgraph._cone_warnings
    monkeypatch.setattr(shiftgraph, "_cone_warnings",
                        lambda *a: calls.append(a) or scan(*a))
    inst = _instance([("A", None), ("B", None)], {**IDENTITIES, ("A", "B"): [(0, False)]})
    path, heart = tmp_path / "inst.json", tmp_path / "heart.json"
    path.write_text(json.dumps({**inst, "genuine": True}))
    heart.write_text(json.dumps({"offsets": {"A": 0, "B": 0}}))
    code, rep = run_cli(capsys, "validate", str(path))
    assert code == 0 and rep["report"]["ok"] and rep["report"]["warnings"]
    assert calls
    for cmd, *args in READING_COMMANDS:
        calls.clear()
        code, rep = run_cli(capsys, cmd, str(path), *(a.format(heart=heart) for a in args))
        assert code == 0 and "report" in rep, cmd
        assert not calls, cmd


def test_heart_subcommand(capsys, a2_files):
    code, rep = run_cli(capsys, "heart", str(a2_files[0]), "--from", "I")
    assert code == 0
    assert rep["report"]["heart"]["offsets"] == {"I": 0, "S1": 0, "S2": 1}
    assert rep["report"]["heart_check"]["ok"]


def test_pretty_mode(capsys, a2_files):
    code = main(["check", str(a2_files[0]), "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert 'verdict: "hereditary"' in out


def test_hom_non_object_complex_exit_2(capsys, tmp_path):
    alg, p1, _ = write_a2_projectives(tmp_path)
    for text in ("[]", "[1, 2]", '"P1"', '{"degrees": ["1"]}',
                 '{"degrees": {"0": ["1"]}, "differentials": []}'):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for x, y in ((bad, p1), (p1, bad)):
            code, rep = run_cli(capsys, "hom", str(alg), str(x), str(y))
            assert code == 2 and rep["error"]["type"] == "input", text
            assert "malformed complex file" in rep["error"]["message"]


def test_hom_misread_complex_exit_2(capsys, tmp_path):
    """A degree given as a string and a float coefficient are refused,
    not read as P_v + P_v or truncated to 1."""
    alg = tmp_path / "dual.json"
    alg.write_text(json.dumps({"vertices": ["v"],
                               "arrows": [{"id": "a", "from": "v", "to": "v"}],
                               "relations": [["a", "a"]]}))
    c1 = tmp_path / "c1.json"
    c1.write_text(json.dumps({"name": "C1", "degrees": {"0": ["v"]}}))
    string_degree = {"name": "S", "degrees": {"0": "vv"}}
    float_coeff = {"name": "C2", "degrees": {"-1": ["v"], "0": ["v"]},
                   "differentials": {"-1": [[[["a", 1.7]]]]}}
    for bad_dict, msg in ((string_degree, "list of vertex names"),
                          (float_coeff, "is not an integer")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_dict))
        for x, y in ((bad, c1), (c1, bad)):
            code, rep = run_cli(capsys, "hom", str(alg), str(x), str(y))
            assert code == 2 and rep["error"]["type"] == "input"
            assert msg in rep["error"]["message"]
    bad.write_text(json.dumps(dict(float_coeff, differentials={"-1": [[[["a", 1]]]]})))
    code, rep = run_cli(capsys, "hom", str(alg), str(bad), str(c1))
    assert code == 0 and rep["report"]["dim"] == 1


def test_hom_nonzero_square_exit_2(capsys, tmp_path):
    """Over k[a]/(a^3), the chain P -a-> P -a-> P has d o d = a^2 != 0:
    hom refuses it in either position, naming the file and the fault."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"vertices": ["v"],
                               "arrows": [{"id": "a", "from": "v", "to": "v"}],
                               "relations": [["a", "a", "a"]]}))
    c1 = tmp_path / "c1.json"
    c1.write_text(json.dumps({"name": "C1", "degrees": {"0": ["v"]}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "B", "degrees": {"-2": ["v"], "-1": ["v"], "0": ["v"]},
                               "differentials": {"-2": [[[["a", 1]]]], "-1": [[[["a", 1]]]]}}))
    for x, y in ((bad, c1), (c1, bad)):
        code, rep = run_cli(capsys, "hom", str(alg), str(x), str(y))
        assert code == 2
        assert rep["error"] == {"type": "input", "message": f"invalid complex {bad}: "
                                "degree -2: d o d is nonzero at (0, 0)"}


@pytest.mark.parametrize("bad_dict, msg", [
    ({"name": "X", "degrees": {" 0": ["1"], "+0": ["2"]}}, "name the same degree"),
    ({"name": "X", "degrees": {"-1": ["2"], "0": ["1"]},
      "differentials": {"-1": [[[["a", 1]]]], "-01": [[[["a", 1]]]]}},
     "name the same degree"),
    ({"name": 5, "degrees": {"0": ["1"]}}, "is not a string"),
    ({"name": None, "degrees": {"0": ["1"]}}, "is not a string"),
], ids=["repeated-degree", "repeated-differential", "number-name", "null-name"])
def test_hom_ambiguous_complex_exit_2(capsys, tmp_path, bad_dict, msg):
    """Degree keys that name one integer twice and a name that is not a
    string are refused, not merged into P2 alone or reported as "x": 5."""
    alg, p1, _ = write_a2_projectives(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_dict))
    for x, y in ((bad, p1), (p1, bad)):
        code, rep = run_cli(capsys, "hom", str(alg), str(x), str(y))
        assert code == 2 and rep["error"]["type"] == "input"
        assert msg in rep["error"]["message"]


@pytest.mark.parametrize("kind", ["instance", "heart", "algebra", "complex"])
def test_repeated_key_exit_2(capsys, tmp_path, a2_files, kind):
    """A key given twice in one object is refused in every file kind,
    where JSON parsing alone would keep the last value and accept it."""
    alg, p1, _ = write_a2_projectives(tmp_path)
    bad = tmp_path / "bad.json"
    if kind == "instance":
        bad.write_text('{"genuine": false,' + a2_files[0].read_text()[1:])
        argv = ["validate", str(bad)]
    elif kind == "heart":
        bad.write_text('{"block": ["S1", "S2"], "offsets": {"S1": 0, "S1": 1, "S2": 0}}')
        argv = ["verify-heart", str(a2_files[0]), "--heart", str(bad)]
    elif kind == "algebra":
        bad.write_text('{"vertices": ["1"], "vertices": ["1", "2"], '
                       '"arrows": [{"id": "a", "from": "1", "to": "2"}], "relations": []}')
        argv = ["hom", str(bad), str(p1), str(p1)]
    else:
        bad.write_text('{"name": "X", "degrees": {"0": ["1"], "0": ["2"]}}')
        argv = ["hom", str(alg), str(bad), str(p1)]
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["error"]["type"] == "input"
    assert "repeats the key" in rep["error"]["message"]


def test_repeated_key_names_the_first_repeated_key(tmp_path):
    # the first key in file order that occurs twice: "a", though the second
    # "b" comes before the second "a"
    from derhed.shiftgraph import InputError, _load_json

    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1, "b": 2, "b": 3, "a": 4}')
    with pytest.raises(InputError, match=r"repeats the key 'a' in one object$"):
        _load_json(str(bad))


def test_deeply_nested_json_exit_2(capsys, tmp_path, a2_files):
    """A file nested deeper than the JSON parser can recurse is an input
    error naming it, in every file argument of every command."""
    alg, p1, _ = write_a2_projectives(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    inst, heart = a2_files
    runs = [["validate", deep],
            *([cmd, deep, *(a.format(heart=heart) for a in args)]
              for cmd, *args in READING_COMMANDS),
            ["verify-heart", inst, "--heart", deep],
            ["hom", deep, p1, p1], ["hom", alg, deep, p1], ["hom", alg, p1, deep]]
    for argv in runs:
        code, rep = run_cli(capsys, *map(str, argv))
        assert code == 2 and rep["error"]["type"] == "input", argv
        assert str(deep) in rep["error"]["message"], argv


def test_hom_malformed_algebra_exit_2(capsys, tmp_path):
    """A malformed algebra file exits 2 as an input error, with no traceback
    and no silent misreading."""
    _, p1, p2 = write_a2_projectives(tmp_path)
    arrows = [{"id": "a", "from": "1", "to": "2"}]
    for bad_dict in ({"vertices": ["1", "2"], "arrows": arrows, "relations": [["a", "zz"]]},
                     {"vertices": ["1", "2"], "arrows": arrows, "relations": ["aa"]},
                     {"vertices": ["1", "2"], "arrows": [{"id": 5, "from": "1", "to": "2"}]},
                     {"vertices": [1, "2"], "arrows": arrows, "relations": []}):
        bad = tmp_path / "bad_alg.json"
        bad.write_text(json.dumps(bad_dict))
        code, rep = run_cli(capsys, "hom", str(bad), str(p2), str(p1))
        assert code == 2 and rep["error"]["type"] == "input", bad_dict


def test_hom_colliding_labels_exit_2(capsys, tmp_path):
    """An arrow whose id is also the label of another basis path is
    refused: with an arrow a*b beside a*b, the complex file's "a*b" would
    name either, and with an arrow e_1, the idempotent e_1 is hidden."""
    arrows = [{"id": "a", "from": "1", "to": "2"}, {"id": "b", "from": "2", "to": "3"},
              {"id": "a*b", "from": "1", "to": "3"}]
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"vertices": ["1", "2", "3"], "arrows": arrows}))
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(json.dumps({"name": "X", "degrees": {"-1": ["3"], "0": ["1"]},
                             "differentials": {"-1": [[[["a*b", 1]]]]}}))
    y.write_text(json.dumps({"name": "Y", "degrees": {"-1": ["2"], "0": ["1"]},
                             "differentials": {"-1": [[[["a", 1]]]]}}))
    code, rep = run_cli(capsys, "hom", str(alg), str(x), str(y))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "share the label 'a*b'" in rep["error"]["message"]
    alg.write_text(json.dumps({"vertices": ["1", "2"],
                               "arrows": [{"id": "e_1", "from": "1", "to": "2"}]}))
    x.write_text(json.dumps({"name": "P1", "degrees": {"0": ["1"]}}))
    code, rep = run_cli(capsys, "hom", str(alg), str(x), str(x))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "share the label 'e_1'" in rep["error"]["message"]


def test_gen_dual_field_too_small_exit_2(capsys, tmp_path, monkeypatch):
    # End(C_1) over the dual numbers has dimension 2, so p = 2 is too small
    monkeypatch.setenv("DERHED_FIELD_CHAR", "2")
    out = tmp_path / "dual.json"
    code, rep = run_cli(capsys, "gen", "dual", "--max-length", "3", "--window", "1",
                        "--out", str(out))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "characteristic 2" in rep["error"]["message"]
    assert not out.exists()


def test_gen_dual_max_length_cap(capsys, tmp_path, monkeypatch):
    # the work grows with max_length's value: the cap is written, and
    # anything past it exits 2 before a complex is built
    from derhed import generators
    out = tmp_path / "dual.json"
    cap = generators.MAX_DUAL_LENGTH
    code, rep = run_cli(capsys, "gen", "dual", "--max-length", str(cap), "--window", "0",
                        "--out", str(out))
    assert code == 0 and rep["report"]["orbits"] == cap
    out.unlink()

    def refuse():
        raise AssertionError("gen dual built its algebra past the cap")

    monkeypatch.setattr(generators, "dual_numbers_algebra", refuse)
    for length in (cap + 1, 10**6):
        code, rep = run_cli(capsys, "gen", "dual", "--max-length", str(length),
                            "--window", "0", "--out", str(out))
        assert code == 2 and rep["error"] == {
            "type": "input", "message": f"max_length must be <= {cap}"}
        assert not out.exists()


def test_gen_dual_negative_window_exit_2(capsys, tmp_path):
    out = tmp_path / "dual.json"
    code, rep = run_cli(capsys, "gen", "dual", "--max-length", "2", "--window", "-1",
                        "--out", str(out))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "window must be >= 0" in rep["error"]["message"]
    assert not out.exists()


def test_field_char_above_bound_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DERHED_FIELD_CHAR", "2147483647")
    code, rep = run_cli(capsys, "gen", "an", "--n", "3", "--orientation", "><",
                        "--out", str(tmp_path / "a3.json"))
    assert code == 2 and rep["error"]["type"] == "input"
    assert "DERHED_FIELD_CHAR" in rep["error"]["message"]
    assert not (tmp_path / "a3.json").exists()


# a complete argv per command, after the command's name; argparse answers
# each with its first word dropped (a missing positional) or with a word
# added (an extra one) by itself, before any file is read
COMMAND_SHAPES = {
    "validate": ["a2.json"], "blocks": ["a2.json"], "check": ["a2.json"],
    "heart": ["a2.json", "--from", "I"], "verify-heart": ["a2.json", "--heart", "h.json"],
    "dist": ["a2.json", "S1", "S2"], "path": ["a2.json", "S1@0", "S2@1"],
    "classify": ["a2.json"], "directing": ["a2.json"],
    "gen": ["semisimple", "--period", "2", "--out", "g.json"],
    "hom": ["alg.json", "x.json", "y.json"],
}
PARSER_ARGVS = [
    [], ["--help"], ["--version"], ["bogus"], ["dis"],
    *([command, "--help"] for command in COMMAND_SHAPES),
    *(["gen", family, "--help"] for family in ("an", "a2", "dual", "semisimple")),
    *([command, *shape[1:]] for command, shape in COMMAND_SHAPES.items()),
    *([command, *shape, "extra"] for command, shape in COMMAND_SHAPES.items()),
    ["gen", "an", "--n", "x", "--orientation", ">", "--out", "a.json"],
    ["hom", "alg.json", "x.json", "y.json", "--shift", "x"],
    ["--pretty", "dist", "a2.json", "S1", "S2"],
    ["gen", "--pretty", "an", "-h"],
]


def answer(capsys, argv):
    """main's exit code, stdout and stderr on argv."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=[" ".join(argv) or "(none)" for argv in PARSER_ARGVS])
def test_one_command_parser_answers_as_every_command_parser(capsys, monkeypatch, argv):
    # a process builds only the parser of the command argv[0] names, and
    # prints the same bytes and exits with the same code as the parser of
    # every command, usage lines included
    names = argv[:1] if argv[:1] and argv[0] in COMMAND_SHAPES else list(COMMAND_SHAPES)
    commands = next(a.choices for a in cli._build_parser(argv)._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert list(commands) == names
    got = answer(capsys, argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
    assert got == answer(capsys, argv)


def test_usage_errors_name_every_command(capsys, monkeypatch):
    # the top-level usage lists every command in both builds, and the
    # error for an unknown one names the argument `command`
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: derhed [-h] [--version]\n"
             "              {validate,blocks,check,heart,verify-heart,dist,path,"
             "classify,directing,gen,hom}\n"
             "              ...\n")
    choices = ", ".join(map(repr, COMMAND_SHAPES))
    assert answer(capsys, ["bogus"]) == (2, "", usage + (
        f"derhed: error: argument command: invalid choice: 'bogus' (choose from {choices})\n"))
    assert answer(capsys, ["dist", "a2.json", "S1", "S2", "extra"]) == (
        2, "", usage + "derhed: error: unrecognized arguments: extra\n")


def run_child(*argv, cwd=None, timeout=None, **run):
    """A fresh interpreter that imports the same derhed as this test,
    installed or not; run holds more subprocess.run arguments."""
    src = os.path.dirname(os.path.dirname(derhed.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=cwd, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path}, **run)


def test_hom_two_free_loops_exit_2(tmp_path):
    """Two free loops give paths of every length: a fresh `hom` process
    refuses the algebra at once, where enumerating its 2**k paths of
    each length k up to a fixed cap ran out of memory."""
    alg = tmp_path / "loops.json"
    alg.write_text(json.dumps({"vertices": ["v"],
                               "arrows": [{"id": "x", "from": "v", "to": "v"},
                                          {"id": "y", "from": "v", "to": "v"}]}))
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"name": "P", "degrees": {"0": ["v"]}}))
    proc = run_child("-m", "derhed.cli", "hom", str(alg), str(p), str(p), timeout=60)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "input" and "every length" in err["message"]


def test_hom_linear_a66_exit_0(tmp_path):
    """The linear A_66 is finite dimensional, with a path of 65 arrows:
    a fresh `hom` process accepts it, and Hom(P_66, P_1) is spanned by
    that path."""
    n = 66
    alg = tmp_path / "a66.json"
    alg.write_text(json.dumps({
        "vertices": [str(v) for v in range(1, n + 1)],
        "arrows": [{"id": f"a{i}", "from": str(i), "to": str(i + 1)} for i in range(1, n)]}))
    for v in (1, n):
        (tmp_path / f"p{v}.json").write_text(json.dumps({"name": f"P{v}",
                                                         "degrees": {"0": [str(v)]}}))
    proc = run_child("-m", "derhed.cli", "hom", str(alg), str(tmp_path / f"p{n}.json"),
                     str(tmp_path / "p1.json"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["dim"] == 1


def test_console_script_entry_point(a2_files):
    proc = run_child("-m", "derhed.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("derhed ")
    proc = run_child("-m", "derhed.cli", "check", str(a2_files[0]))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["tool"] == "derhed" and rep["command"] == "check"
    assert rep["instance"] == "example_a2"
    assert rep["report"]["verdict"] == "hereditary"


# Each command's argv, run with the files of a2_files and
# write_a2_projectives in the working directory, and the derhed modules
# besides the package that it leaves in sys.modules, exactly.  So the walk
# commands load no heart code (hereditary), gen an and gen semisimple no
# homotopy engine (complexes), and the commands that walk no path never
# load the path engine (paths).
WALK = "cli shiftgraph paths"
GEN = "algebra_cli cli generators linalg quiver shiftgraph"
COMMAND_MODULES = {
    "validate": ("validate a2.json", "cli shiftgraph"),
    "blocks": ("blocks a2.json", WALK),
    "dist": ("dist a2.json S1 S2", WALK),
    "path": ("path a2.json S1@0 S2@1", WALK),
    "classify": ("classify a2.json", WALK + " degenerate"),
    "directing": ("directing a2.json", WALK),
    "check": ("check a2.json", WALK + " hereditary"),
    "heart": ("heart a2.json --from I", WALK + " hereditary"),
    "verify-heart": ("verify-heart a2.json --heart bad_heart.json", "cli shiftgraph hereditary"),
    "gen an": ("gen an --n 3 --orientation >< --out an.json", GEN),
    "gen a2": ("gen a2 --out x.json", GEN + " hereditary"),
    "gen dual": ("gen dual --max-length 3 --window 1 --out d.json", GEN + " complexes"),
    "gen semisimple": ("gen semisimple --period 2 --out s.json", GEN),
    "hom": ("hom alg.json p2.json p1.json",
            "algebra_cli cli complexes linalg quiver shiftgraph"),
}

# The snapshot comes first, so a module that a .pth file loads at startup
# does not count against derhed, which loads neither numpy nor dataclasses.
MODULES_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from derhed.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0, sys.argv
heavy = sorted({"numpy", "dataclasses"} & (set(sys.modules) - before))
assert not heavy, f"{sys.argv[1:]} imported {heavy}"
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "derhed")))
"""


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_exactly_its_modules(command, a2_files, tmp_path):
    # a fresh process of each command loads the derhed modules it runs and
    # no other, so an eager import cannot quietly slow every process down
    for f in a2_files:
        (tmp_path / f.name).write_text(f.read_text())
    write_a2_projectives(tmp_path)
    argv, modules = COMMAND_MODULES[command]
    proc = run_child("-c", MODULES_CHILD, *argv.split(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(["derhed", *(f"derhed.{m}" for m in modules.split())])


# `python -m derhed.cli` runs the CLI as __main__, as run_module does here,
# so an import of derhed.cli would load a second copy of the CLI beside it
RUN_AS_MAIN_CHILD = """
import runpy, sys
try:
    runpy.run_module("derhed.cli", run_name="__main__", alter_sys=True)
finally:
    assert "derhed.cli" not in sys.modules, "derhed.cli imported beside __main__"
"""


@pytest.mark.parametrize("how", [("-m", "derhed.cli"), ("-c", RUN_AS_MAIN_CHILD)],
                         ids=["-m", "run_module"])
def test_gen_input_error_as_main_exit_2(how, tmp_path):
    proc = run_child(*how, "gen", "dual", "--max-length", "1", "--window", "1",
                     "--out", "x.json", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "gen"
    assert rep["error"] == {"type": "input", "message": "max_length must be >= 2"}
    assert not (tmp_path / "x.json").exists()


def test_gen_and_hom_in_a_fresh_process(tmp_path):
    # gen and hom import the GF(p) modules on first use
    proc = run_child("-m", "derhed.cli", "gen", "an", "--n", "3",
                     "--orientation", "><", "--out", "a3.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["orbits"] == 6
    assert len(json.loads((tmp_path / "a3.json").read_text())["orbits"]) == 6
    write_a2_projectives(tmp_path)
    proc = run_child("-m", "derhed.cli", "hom", "alg.json", "p2.json", "p1.json",
                     cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["dim"] == 1


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_child(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_package_namespace(monkeypatch):
    # forget the lazily resolved names, so each goes through __getattr__
    for name in derhed._LAZY:
        monkeypatch.delitem(vars(derhed), name, raising=False)
    assert set(derhed.__all__) <= set(dir(derhed))
    for name in derhed.__all__:
        value = getattr(derhed, name)
        assert vars(derhed)[name] is value  # cached as a plain attribute
        if name in derhed._LAZY:
            module = importlib.import_module(f"derhed.{derhed._LAZY[name]}")
            assert getattr(module, name) is value
    star: dict = {}
    exec("from derhed import *", star)
    assert set(derhed.__all__) <= set(star)
    with pytest.raises(AttributeError):
        derhed.no_such_name
