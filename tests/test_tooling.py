import importlib
import re
import runpy
from pathlib import Path

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
