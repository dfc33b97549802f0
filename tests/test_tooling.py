import importlib
import re
import runpy
import shlex
from pathlib import Path

from test_cli import run_child, write_a2_projectives

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # the tracer wraps each TARGETS entry without a fallback, so a renamed
    # or deleted function would break a traced benchmark run; run_path
    # compiles spans.py in memory and writes nothing next to it
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for name, modname, attr in targets:
        mod = importlib.import_module(modname)
        owner, _, leaf = attr.rpartition(".")
        if owner:
            assert leaf in vars(getattr(mod, owner)), name
        else:
            assert callable(getattr(mod, leaf, None)), name


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's one python block, the Library example, runs as written
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path):
    # each derhed line of the README's command block runs as written, in a
    # directory holding the hand-written alg.json, X.json and Y.json; it
    # exits 0 unless its comment says exit 1
    _, p1, p2 = write_a2_projectives(tmp_path)
    p1.rename(tmp_path / "X.json")
    p2.rename(tmp_path / "Y.json")
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for b in blocks for line in b.splitlines() if line.startswith("derhed ")]
    assert len(lines) == 15
    for line in lines:
        proc = run_child("-m", "derhed.cli", *shlex.split(line, comments=True)[1:],
                         cwd=tmp_path)
        expected = 1 if "exit 1" in line.partition("#")[2] else 0
        assert proc.returncode == expected, (line, proc.stderr)
