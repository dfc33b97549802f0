"""The resource contract of the command line.  A fresh `python -m
derhed.cli` process exits 0, 1 or 2 and prints one JSON envelope of at
most C0 + C1 * (input bytes + argv bytes), the input bytes being the
sizes of the files that argv names.

The xfail cases break the contract today: each ends in a traceback or
prints a witness that grows with a weight or an offset, not with the
input.  ROADMAP item 11 (run-length witnesses) mends the witnesses, and
item 1 (count the algebra, refuse above a cap) the algebra that `hom`
builds whole.  Each is strict, so it fails once it passes.  The README's
command lines are the control, and they must hold to the same bound, as
must the gates that refuse a large number at once."""

import json
import resource
import shlex
from pathlib import Path

import pytest

from test_cli import run_child

C0, C1 = 4096, 8  # bytes: one envelope, plus 8 per byte of input and argv
CHILD_AS, CHILD_CPU_S = 2**30, 30  # the child's own limits: a runaway fails, it cannot hang

ITEM_11 = "ROADMAP item 11: a witness is written step by step"
ITEM_1 = "ROADMAP item 1: hom builds the whole algebra before it answers"


def identity(x: str) -> dict:
    return {"from": x, "to": x, "edges": [{"weight": 0, "dim": 1, "all_iso": True}]}


def edge(a: str, b: str, weight: int) -> dict:
    return {"from": a, "to": b, "edges": [{"weight": weight, "dim": 1, "all_iso": False}]}


def instance(name: str, orbits: str, homs: list[dict]) -> dict:
    return {"name": name, "field_char": 32003, "genuine": False, "windowed": False,
            "orbits": [{"id": x, "period": None, "end_dim": 1} for x in orbits],
            "homs": homs}


# A <-> B at -1 each, B -> C at 10**400: the pumped cycle repeats about
# 5 * 10**399 times, past any list's index range
OVERFLOW = instance("F", "ABC", [identity("A"), identity("B"), identity("C"),
                                 edge("A", "B", -1), edge("B", "A", -1),
                                 edge("B", "C", 10**400)])
# one orbit X with its identity and a non-invertible X -> X at -10**4: the
# witness from X[1] back to X climbs 10**4 shift steps
SELF_EDGE = instance("W", "X", [{"from": "X", "to": "X", "edges": [
    {"weight": -10**4, "dim": 1, "all_iso": False},
    {"weight": 0, "dim": 1, "all_iso": True}]}])

BROKEN = {
    "path-overflow": ({"F.json": OVERFLOW}, ["path F.json A@0 C@0"]),
    "check-negative-self-edge": ({"W.json": SELF_EDGE}, ["check W.json"]),
    "check-long-period": ({}, ["gen semisimple --period 10000 --out ss.json",
                               "check ss.json"]),
    "path-long-offset": ({}, ["gen a2 --out a2.json", "path a2.json S2@0 S1@10000"]),
}

# the complete acyclic quiver on 26 vertices, i -> j for i < j and no
# relations (13,989 bytes): its dimension 2**26 - 1 is finite, but hom
# builds every basis path and product before it answers
COMPLETE_QUIVER = {
    "vertices": [str(i) for i in range(26)],
    "arrows": [{"id": f"a{i}_{j}", "from": str(i), "to": str(j)}
               for i in range(26) for j in range(i + 1, 26)],
    "relations": []}
# under a 1.5 GB limit the child ran 13.9 s before its MemoryError; under
# this one it fails the same way, exit 1 and no report, in about 2.4 s
COMPLETE_QUIVER_AS = 256 * 2**20

# lines that name a number far past a command's bound: each exits 2 at once
BOUNDED = ["gen dual --max-length 1000000 --window 0 --out d.json",
           "gen an --n 1000000 --orientation '>' --out an.json"]

# the README's hom files: the A_2 algebra 1 -> 2, S1 = P_2 -> P_1 and P_2
HOM_FILES = {
    "alg.json": {"vertices": ["1", "2"], "arrows": [{"id": "a", "from": "1", "to": "2"}],
                 "relations": []},
    "X.json": {"name": "X", "degrees": {"-1": ["2"], "0": ["1"]},
               "differentials": {"-1": [[[["a", 1]]]]}},
    "Y.json": {"name": "Y", "degrees": {"0": ["2"]}, "differentials": {}},
}


def readme_lines() -> list[str]:
    """The command lines of the README's sh blocks, without the `derhed`."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```sh\n")[1:]]
    return [line.split(None, 1)[1] for block in blocks for line in block.splitlines()
            if line.startswith("derhed ")]


def run_contract(line: str, cwd: Path, address_space: int = CHILD_AS) -> int:
    """Run `python -m derhed.cli` on one command line in cwd, with at most
    address_space bytes of memory, assert the contract on what it prints,
    and return its exit code."""
    def limit_child() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))

    argv = shlex.split(line, comments=True)
    inputs = sum((cwd / a).stat().st_size for a in argv if (cwd / a).is_file())
    proc = run_child("-m", "derhed.cli", *argv, cwd=cwd, timeout=60, preexec_fn=limit_child)
    stderr = proc.stderr[-500:]
    assert proc.returncode in (0, 1, 2), (line, proc.returncode, stderr)
    try:
        envelope = json.loads(proc.stdout)
    except ValueError:
        envelope = None
    assert isinstance(envelope, dict) and envelope.get("command") == argv[0], (line, stderr)
    size = len(proc.stdout.encode())
    budget = C0 + C1 * (inputs + sum(len(a.encode()) for a in argv))
    assert size <= budget, (line, size, budget)
    return proc.returncode


def write_files(files: dict, cwd: Path) -> None:
    for name, obj in files.items():
        (cwd / name).write_text(json.dumps(obj))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_11)
@pytest.mark.parametrize("case", BROKEN)
def test_known_contract_violations(case, tmp_path):
    files, lines = BROKEN[case]
    write_files(files, tmp_path)
    for line in lines:
        run_contract(line, tmp_path)


def test_readme_command_lines_hold_to_the_contract(tmp_path):
    lines = readme_lines()
    assert len(lines) == 15 and lines[0].startswith("gen a2")
    write_files(HOM_FILES, tmp_path)
    for line in lines:
        run_contract(line, tmp_path)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
def test_hom_on_the_complete_quiver_holds_to_the_contract(tmp_path):
    files = {"alg.json": COMPLETE_QUIVER,
             "P0.json": {"name": "P0", "degrees": {"0": ["0"]}, "differentials": {}}}
    write_files(files, tmp_path)
    run_contract("hom alg.json P0.json P0.json", tmp_path, address_space=COMPLETE_QUIVER_AS)


@pytest.mark.parametrize("line", BOUNDED)
def test_bounded_arguments_hold_to_the_contract(line, tmp_path):
    assert run_contract(line, tmp_path) == 2
    assert not any(tmp_path.iterdir())


def test_repeated_key_in_a_large_object_holds_to_the_contract(tmp_path):
    # about 1 MB in one object whose last key is given twice: finding the
    # repeated key takes one pass over the keys, not one count per key
    keys = ", ".join(f'"k{i}": 0' for i in range(80_000))
    (tmp_path / "big.json").write_text("{" + keys + ', "k79999": 1}')
    assert (tmp_path / "big.json").stat().st_size > 10**6
    assert run_contract("validate big.json", tmp_path) == 2
