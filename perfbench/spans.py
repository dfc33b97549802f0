"""Spans around the public functions of each derhed module.

The tracer replaces each function or method listed in TARGETS, in every
loaded ``derhed`` module that holds it, with a wrapper that records a span
(op id, span id, parent span id, name, start, end).  Nothing inside
derhed changes.  Spans stay in memory; ``summarize`` turns them into
per-name call counts, total time and self time (duration minus the time
of direct child spans), which merge by addition across processes.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, module, attribute path)
TARGETS = [
    ("linalg.rref", "derhed.linalg", "PrimeField.rref"),
    ("linalg.rank", "derhed.linalg", "PrimeField.rank"),
    ("linalg.nullspace", "derhed.linalg", "PrimeField.nullspace"),
    ("linalg.solve", "derhed.linalg", "PrimeField.solve"),
    ("quiver.rep_hom_dim", "derhed.quiver", "rep_hom_dim"),
    ("quiver.euler_ext1_dim", "derhed.quiver", "euler_ext1_dim"),
    ("complexes.hom_k_dim", "derhed.complexes", "hom_k_dim"),
    ("complexes.are_isomorphic", "derhed.complexes", "are_isomorphic"),
    ("complexes.is_local", "derhed.complexes", "EndAlgebra.is_local"),
    ("shiftgraph.from_dict", "derhed.shiftgraph", "ShiftGraph.from_dict"),
    ("shiftgraph.to_json", "derhed.shiftgraph", "ShiftGraph.to_json"),
    ("shiftgraph.validate", "derhed.shiftgraph", "validate"),
    ("paths.engine_init", "derhed.paths", "PathEngine.__init__"),
    ("paths.min_weight", "derhed.paths", "PathEngine.min_weight"),
    ("paths.walk_with_weight", "derhed.paths", "PathEngine.walk_with_weight"),
    ("paths.path_report", "derhed.paths", "PathEngine.path_report"),
    ("paths.directing", "derhed.paths", "directing_objects"),
    ("hereditary.check_hereditary", "derhed.hereditary", "check_hereditary"),
    ("hereditary.extract_heart", "derhed.hereditary", "extract_heart"),
    ("hereditary.verify_heart", "derhed.hereditary", "verify_heart"),
    ("generators.gen_dynkin_an", "derhed.generators", "gen_dynkin_an"),
    ("generators.gen_dual_numbers", "derhed.generators", "gen_dual_numbers"),
    ("cli.main", "derhed.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, t0, t1, cells)
        self.op = 0
        self.enabled = True  # off while the benchmark checks an answer
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        tracer = self
        cells = name == "linalg.rref"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, t0, t1,
                                     getattr(args[1], "size", 0) if cells else 0))
        return traced

    def install(self):
        """Wrap every target in every loaded derhed module; returns a
        function that restores the originals."""
        undo = []
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "derhed" or k.startswith("derhed."))]
        for name, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            new = self.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        undo.append((m, key, orig))

        def restore():
            for owner, key, val in reversed(undo):
                setattr(owner, key, val)
        return restore


def summarize(spans: list[tuple]) -> dict:
    """Per-name [calls, total_s, self_s], the largest rref input in cells,
    rref calls below a hom_k_dim span and extract_heart calls below a
    check_hereditary span."""
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] >= 0:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    names: dict[str, list] = {}
    out = {"names": names, "rref_max_cells": 0,
           "rref_in_hom_k_dim": 0, "heart_in_check": 0}

    def below(s, ancestor: str) -> bool:
        p = s[2]
        while p >= 0:
            if by_id[p][3] == ancestor:
                return True
            p = by_id[p][2]
        return False

    for s in spans:
        dur = s[5] - s[4]
        acc = names.setdefault(s[3], [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child_time.get(s[1], 0.0)
        if s[3] == "linalg.rref":
            out["rref_max_cells"] = max(out["rref_max_cells"], s[6])
            out["rref_in_hom_k_dim"] += below(s, "complexes.hom_k_dim")
        elif s[3] == "hereditary.extract_heart":
            out["heart_in_check"] += below(s, "hereditary.check_hereditary")
    return out


def merge(into: dict, other: dict) -> dict:
    for name, (c, t, s) in other["names"].items():
        acc = into["names"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += c
        acc[1] += t
        acc[2] += s
    into["rref_max_cells"] = max(into["rref_max_cells"], other["rref_max_cells"])
    into["rref_in_hom_k_dim"] += other["rref_in_hom_k_dim"]
    into["heart_in_check"] += other["heart_in_check"]
    return into


def empty() -> dict:
    return {"names": {}, "rref_max_cells": 0, "rref_in_hom_k_dim": 0, "heart_in_check": 0}
