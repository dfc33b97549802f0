"""Command-line front end.

Every command reads flat JSON files, writes one JSON report to stdout
(`--pretty` switches to an indented human-readable rendering), and exits 0
on successful execution regardless of verdict.  Input problems exit 2 with
a machine-readable error object; `check --assert-hereditary` exits 1 when
the verdict is not hereditary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .paths import (PathEngine, _encode_weight, classify_degenerate,
                    directing_objects)
from .shiftgraph import (IncompleteHeart, NegativeWalkAtSource, NotABlock,
                         ObjRef, ShiftGraph, UnknownOrbit, UnreachableOrbit,
                         validate)

# Each command imports only what it runs: hereditary inside `check`, `heart`
# and `verify-heart`, and the GF(p) modules (linalg, quiver, complexes,
# generators) inside `gen` and `hom`.  No command loads numpy.


class InputError(Exception):
    pass


def _field():
    from .linalg import PrimeField

    raw = os.environ.get("DERHED_FIELD_CHAR")
    if raw is None:
        return PrimeField()
    try:
        return PrimeField(int(raw))
    except ValueError as exc:
        raise InputError(f"DERHED_FIELD_CHAR: {exc}") from exc


def _load_json(path: str) -> dict:
    """The JSON file at path; a key given twice in one object is refused,
    where json.load would keep the last value."""
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise InputError(f"{path} repeats the key {key!r} in one object")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_graph(path: str) -> ShiftGraph:
    try:
        return ShiftGraph.from_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _known_orbit(g: ShiftGraph, orbit: str) -> str:
    if orbit not in g.orbit_ids():
        raise InputError(f"unknown orbit {orbit!r}")
    return orbit


def _parse_ref(g: ShiftGraph, text: str) -> ObjRef:
    orbit, sep, off = text.partition("@")
    if not sep:
        orbit, off = text, "0"
    try:
        offset = int(off)
    except ValueError as exc:
        raise InputError(f"bad object reference {text!r}: offset must be an integer") from exc
    return ObjRef(_known_orbit(g, orbit), offset)


def _write(*files: tuple[str, str]) -> None:
    """Write each (path, text), all of them or none.  A missing or read-only
    directory, or a path that is a directory, refuses all.  Each text goes
    to a temporary file beside its path, and the temporary files replace
    their paths, in order, only once every one is written; on any failure
    they are deleted.  So when two paths are the same, the last text wins."""
    for path, _ in files:
        if not os.access(os.path.dirname(path) or ".", os.W_OK):
            raise InputError(f"cannot write {path}: its directory is missing or read-only")
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: it is a directory")
    temps: list[str] = []
    try:
        for i, (path, text) in enumerate(files):
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            with open(tmp, "x", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _envelope(command: str, report: dict, g: ShiftGraph | None = None) -> dict:
    return {
        "tool": "derhed",
        "version": __version__,
        "command": command,
        "instance": g.name if g is not None else "",
        "genuine": g.genuine if g is not None else None,
        "windowed": g.windowed if g is not None else None,
        "report": report,
    }


def _render_text(value, indent: int = 0, key: str | None = None) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{key}: " if key is not None else pad
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k, v in value.items():
            lines.extend(_render_text(v, indent + (key is not None), str(k)))
        return lines
    if isinstance(value, list):
        lines = [f"{pad}{key}:"] if key is not None else []
        for v in value:
            sub = _render_text(v, indent + (key is not None))
            if sub:
                sub[0] = sub[0][: len("  " * (indent + (key is not None)))] + "- " + sub[0].lstrip()
            lines.extend(sub)
        return lines
    return [head + json.dumps(value)]


def _emit(envelope: dict, pretty: bool) -> None:
    if pretty:
        sys.stdout.write("\n".join(_render_text(envelope)) + "\n")
    else:
        sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")


# -- command implementations --


def _cmd_validate(args) -> tuple[dict, ShiftGraph, int]:
    g = _load_graph(args.file)
    return validate(g).to_dict(), g, 0


def _cmd_blocks(args):
    g = _load_graph(args.file)
    return {"blocks": PathEngine(g).blocks()}, g, 0


def _cmd_check(args):
    from .hereditary import check_hereditary

    g = _load_graph(args.file)
    engine = PathEngine(g)
    blks = engine.blocks()
    per_block = [check_hereditary(g, b, engine=engine).to_dict() for b in blks]
    verdicts = [r["verdict"] for r in per_block]
    if "not-hereditary" in verdicts:
        overall = "not-hereditary"
    elif "hereditary-within-window" in verdicts:
        overall = "hereditary-within-window"
    else:
        overall = "hereditary"
    report = {
        "verdict": overall,
        "blocks": [{"orbits": b, **r} for b, r in zip(blks, per_block)],
    }
    code = 1 if (args.assert_hereditary and overall == "not-hereditary") else 0
    return report, g, code


def _cmd_heart(args):
    from .hereditary import extract_heart, verify_heart

    g = _load_graph(args.file)
    source = _known_orbit(g, args.source)
    heart = extract_heart(g, source)
    check = verify_heart(g, heart)
    return {"source": source, "heart": heart.to_dict(),
            "heart_check": check.to_dict()}, g, 0


def _cmd_verify_heart(args):
    from .hereditary import Heart, verify_heart

    g = _load_graph(args.file)
    try:
        heart = Heart.from_dict(_load_json(args.heart))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed heart file: {exc}") from exc
    unknown = sorted(set(heart.offsets) - set(g.orbit_ids()))
    if unknown:
        raise InputError(f"heart names unknown orbits: {unknown}")
    check = verify_heart(g, heart)
    return {"heart": heart.to_dict(), "heart_check": check.to_dict()}, g, 0


def _cmd_dist(args):
    g = _load_graph(args.file)
    w = PathEngine(g).min_weight(_known_orbit(g, args.src), _known_orbit(g, args.dst))
    return {"from": args.src, "to": args.dst,
            "min_weight": _encode_weight(w)}, g, 0


def _cmd_path(args):
    g = _load_graph(args.file)
    src = _parse_ref(g, args.src)
    dst = _parse_ref(g, args.dst)
    report = PathEngine(g).path_report(src, dst)
    return report.to_dict(), g, 0


def _cmd_classify(args):
    g = _load_graph(args.file)
    engine = PathEngine(g)
    out = []
    for blk in engine.blocks():
        out.append({"orbits": blk,
                    "class": classify_degenerate(g, blk).to_dict()})
    return {"blocks": out}, g, 0


def _cmd_directing(args):
    g = _load_graph(args.file)
    return {"directing": sorted(directing_objects(g))}, g, 0


def _cmd_gen(args):
    from .complexes import FieldTooSmall
    from .generators import (gen_dual_numbers, gen_dynkin_an, gen_example_a2,
                             gen_semisimple_block)
    from .quiver import InfiniteDimensional

    fld, heart = _field(), []
    try:
        if args.family == "an":
            g = gen_dynkin_an(args.n, args.orientation, fld)
        elif args.family == "a2":
            g, bad = gen_example_a2(fld)
            if args.bad_heart_out:
                heart = [(args.bad_heart_out,
                          json.dumps(bad.to_dict(), indent=2, sort_keys=True) + "\n")]
        elif args.family == "dual":
            g = gen_dual_numbers(args.max_length, args.window, fld)
        else:
            g = gen_semisimple_block(args.period, args.end_dim, fld)
    except (ValueError, InfiniteDimensional) as exc:
        raise InputError(str(exc)) from exc
    except FieldTooSmall as exc:
        raise InputError(f"{exc}; set DERHED_FIELD_CHAR to a larger prime") from exc
    _write(*heart, (args.out, g.to_json() + "\n"))
    return {"written": args.out, "orbits": len(g.orbits)}, g, 0


def _cmd_hom(args):
    from .complexes import ProjComplex, check_complex, hom_k_dim
    from .quiver import InfiniteDimensional, algebra_from_dict

    fld = _field()
    try:
        alg = algebra_from_dict(_load_json(args.algfile))
    except (ValueError, InfiniteDimensional) as exc:
        raise InputError(str(exc)) from exc
    complexes = []
    for path in (args.x, args.y):
        try:
            c = ProjComplex.from_dict(alg, _load_json(path))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed complex file {path}: {exc}") from exc
        errors = check_complex(c, fld.p)
        if errors:
            raise InputError(f"invalid complex {path}: {'; '.join(errors)}")
        complexes.append(c)
    x, y = complexes
    dim = hom_k_dim(x, y, args.shift, fld)
    return {"x": x.name, "y": y.name, "shift": args.shift,
            "dim": dim, "field_char": fld.p}, None, 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="derhed",
        description="hereditary decision toolkit for shift-graph instances")
    ap.add_argument("--version", action="version", version=f"derhed {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--pretty", action="store_true",
                       help="human-readable text instead of JSON")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="structural validation of an instance")
    p.add_argument("file")
    p = add("blocks", _cmd_blocks, help="connected blocks of the shift-graph")
    p.add_argument("file")
    p = add("check", _cmd_check, help="hereditary decision per block")
    p.add_argument("file")
    p.add_argument("--assert-hereditary", action="store_true",
                   help="exit 1 unless every block is hereditary")
    p = add("heart", _cmd_heart, help="extract a heart from a source orbit")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True, metavar="ORBIT")
    p = add("verify-heart", _cmd_verify_heart, help="check a candidate heart")
    p.add_argument("file")
    p.add_argument("--heart", required=True, metavar="HEARTFILE")
    p = add("dist", _cmd_dist, help="minimum walk weight between two orbits")
    p.add_argument("file")
    p.add_argument("src", metavar="FROM")
    p.add_argument("dst", metavar="TO")
    p = add("path", _cmd_path, help="path existence between shifted objects")
    p.add_argument("file")
    p.add_argument("src", metavar="FROM@OFFSET")
    p.add_argument("dst", metavar="TO@OFFSET")
    p = add("classify", _cmd_classify, help="degenerate/non-degenerate block classes")
    p.add_argument("file")
    p = add("directing", _cmd_directing, help="orbits with no proper weight-0 closed walk")
    p.add_argument("file")

    p = add("gen", _cmd_gen, help="write a generated instance file")
    fam = p.add_subparsers(dest="family", required=True)
    pa = fam.add_parser("an")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--orientation", required=True, metavar="WORD")
    pb = fam.add_parser("a2")
    pb.add_argument("--bad-heart-out", metavar="FILE",
                    help="also write the inadmissible heart {S1@0, S2@0, I@1}")
    pc = fam.add_parser("dual")
    pc.add_argument("--max-length", type=int, required=True, dest="max_length")
    pc.add_argument("--window", type=int, required=True)
    pd = fam.add_parser("semisimple")
    pd.add_argument("--period", type=int, required=True)
    pd.add_argument("--end-dim", type=int, default=1, dest="end_dim")
    for q in (pa, pb, pc, pd):
        q.add_argument("--out", required=True, metavar="FILE")
        # SUPPRESS keeps `gen --pretty FAMILY` from being reset to False
        q.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_gen)

    p = add("hom", _cmd_hom, help="hom dimension between two perfect complexes")
    p.add_argument("algfile", metavar="ALGFILE")
    p.add_argument("x", metavar="X.json")
    p.add_argument("y", metavar="Y.json")
    p.add_argument("--shift", type=int, default=0, metavar="N")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, g, code = args.fn(args)
    except (InputError, UnknownOrbit, NotABlock, IncompleteHeart,
            NegativeWalkAtSource, UnreachableOrbit) as exc:
        kind = "input" if isinstance(exc, InputError) else type(exc).__name__
        err = {"tool": "derhed", "version": __version__, "command": args.command,
               "error": {"type": kind, "message": str(exc)}}
        _emit(err, args.pretty)
        return 2
    _emit(_envelope(args.command, report, g), args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
