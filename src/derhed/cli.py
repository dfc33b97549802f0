"""Command-line front end.

Every command reads flat JSON files, writes one JSON report to stdout
(`--pretty` switches to an indented human-readable rendering), and exits 0
on successful execution regardless of verdict.  Input problems exit 2 with
a machine-readable error object; `check --assert-hereditary` exits 1 when
some block is not-hereditary.  `main` loads the instance of every
command that reads one and hands it to the command's handler; except for
`validate`, it first refuses an instance that `validate` rejects as an
input problem, with the first of its errors.  `validate` reports them
all and exits 0.  A malformed file, of any shape or depth, is an input
problem too.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .shiftgraph import (InputError, NegativeWalkAtSource, ObjRef, ShiftGraph, UnknownOrbit,
                         UnreachableOrbit, _load_json, _structural_errors, validate)

# Each command imports only what it runs, and each process builds only its
# own command's parser (_build_parser).  `validate` needs shiftgraph alone;
# paths is imported by the commands that walk (`blocks`, `check`, `dist`,
# `path`, `classify`, `directing`, `heart`), degenerate by `classify`, and
# hereditary by `check`, `heart` and `verify-heart`.  `gen` and `hom` run
# from algebra_cli, with linalg: quiver and generators for `gen`
# (hereditary too for `gen a2`, complexes for `gen dual`), and quiver and
# complexes for `hom`.  No numpy.


def _load_graph(path: str, gate: bool) -> ShiftGraph:
    """The instance at path; with gate set, one that validate rejects is
    refused with its first error.  Warnings refuse nothing, so the gate
    skips validate's cone-closure scan."""
    try:
        g = ShiftGraph.from_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    errors = _structural_errors(g) if gate else ()
    if errors:
        raise InputError(errors[0])
    return g


def _known_orbit(g: ShiftGraph, orbit: str) -> str:
    if orbit not in g.orbit_ids():
        raise InputError(f"unknown orbit {orbit!r}")
    return orbit


def _parse_ref(g: ShiftGraph, text: str) -> ObjRef:
    orbit, sep, off = text.rpartition("@")  # the offset follows the last @
    if not sep:
        orbit, off = text, "0"
    try:
        offset = int(off)
    except ValueError as exc:
        raise InputError(f"bad object reference {text!r}: offset must be an integer") from exc
    return ObjRef(_known_orbit(g, orbit), offset)


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
    # every int of a report is a sum of at most n ints that json.load read
    # within Python's int-to-str digit limit, so the limit is lifted while
    # the report is written, and input parsing keeps it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if pretty:
            sys.stdout.write("\n".join(_render_text(envelope)) + "\n")
        else:
            sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    finally:
        sys.set_int_max_str_digits(limit)


# -- command implementations --


def _cmd_validate(args, g: ShiftGraph) -> tuple[dict, ShiftGraph, int]:
    return validate(g).to_dict(), g, 0


def _cmd_blocks(args, g):
    from .paths import PathEngine

    return {"blocks": PathEngine(g).blocks()}, g, 0


def _cmd_check(args, g):
    from .hereditary import check_hereditary
    from .paths import PathEngine

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


def _cmd_heart(args, g):
    from .hereditary import extract_heart, verify_heart

    source = _known_orbit(g, args.source)
    heart = extract_heart(g, source)
    check = verify_heart(g, heart)
    return {"source": source, "heart": heart.to_dict(),
            "heart_check": check.to_dict()}, g, 0


def _cmd_verify_heart(args, g):
    from .hereditary import Heart, verify_heart

    try:
        heart = Heart.from_dict(_load_json(args.heart))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed heart file: {exc}") from exc
    unknown = sorted(set(heart.offsets) - set(g.orbit_ids()))
    if unknown:
        raise InputError(f"heart names unknown orbits: {unknown}")
    check = verify_heart(g, heart)
    return {"heart": heart.to_dict(), "heart_check": check.to_dict()}, g, 0


def _cmd_dist(args, g):
    from .paths import PathEngine, _encode_weight

    w = PathEngine(g).min_weight(_known_orbit(g, args.src), _known_orbit(g, args.dst))
    return {"from": args.src, "to": args.dst,
            "min_weight": _encode_weight(w)}, g, 0


def _cmd_path(args, g):
    from .paths import PathEngine

    src = _parse_ref(g, args.src)
    dst = _parse_ref(g, args.dst)
    report = PathEngine(g).path_report(src, dst)
    return report.to_dict(), g, 0


def _cmd_classify(args, g):
    from .degenerate import classify_degenerate
    from .paths import PathEngine

    engine = PathEngine(g)
    out = []
    for blk in engine.blocks():
        out.append({"orbits": blk,
                    "class": classify_degenerate(g, blk).to_dict()})
    return {"blocks": out}, g, 0


def _cmd_directing(args, g):
    from .paths import directing_objects

    return {"directing": sorted(directing_objects(g))}, g, 0


def _cmd_gen(args, g):
    from .algebra_cli import gen

    return gen(args)


def _cmd_hom(args, g):
    from .algebra_cli import hom

    return hom(args)


_FILE = (("file",), {})

# Each command's handler, help and arguments, in the order of the usage
# line; an argument is (flags, keywords) for add_argument.  A handler gets
# the instance of _FILE that main loaded and gated, or None without one.
_COMMANDS = {
    "validate": (_cmd_validate, "structural validation of an instance", [_FILE]),
    "blocks": (_cmd_blocks, "connected blocks of the shift-graph", [_FILE]),
    "check": (_cmd_check, "hereditary decision per block", [
        _FILE, (("--assert-hereditary",), {
            "action": "store_true", "help": "exit 1 when some block is not-hereditary"})]),
    "heart": (_cmd_heart, "extract a heart from a source orbit", [
        _FILE, (("--from",), {"dest": "source", "required": True, "metavar": "ORBIT"})]),
    "verify-heart": (_cmd_verify_heart, "check a candidate heart", [
        _FILE, (("--heart",), {"required": True, "metavar": "HEARTFILE"})]),
    "dist": (_cmd_dist, "minimum walk weight between two orbits", [
        _FILE, (("src",), {"metavar": "FROM"}), (("dst",), {"metavar": "TO"})]),
    "path": (_cmd_path, "path existence between shifted objects", [
        _FILE, (("src",), {"metavar": "FROM@OFFSET"}), (("dst",), {"metavar": "TO@OFFSET"})]),
    "classify": (_cmd_classify, "degenerate/non-degenerate block classes", [_FILE]),
    "directing": (_cmd_directing, "orbits with no proper weight-0 closed walk", [_FILE]),
    "gen": (_cmd_gen, "write a generated instance file", []),
    "hom": (_cmd_hom, "hom dimension between two perfect complexes", [
        (("algfile",), {"metavar": "ALGFILE"}), (("x",), {"metavar": "X.json"}),
        (("y",), {"metavar": "Y.json"}),
        (("--shift",), {"type": int, "default": 0, "metavar": "N"})]),
}

# `gen`'s families and their arguments; each family takes --out and
# --pretty too.
_GEN_FAMILIES = {
    "an": [(("--n",), {"type": int, "required": True}),
           (("--orientation",), {"required": True, "metavar": "WORD"})],
    "a2": [(("--bad-heart-out",), {
        "metavar": "FILE", "help": "also write the inadmissible heart {S1@0, S2@0, I@1}"})],
    "dual": [(("--max-length",), {"type": int, "required": True, "dest": "max_length"}),
             (("--window",), {"type": int, "required": True})],
    "semisimple": [(("--period",), {"type": int, "required": True}),
                   (("--end-dim",), {"type": int, "default": 1, "dest": "end_dim"})],
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: when argv[0] names a command, with that
    command's subparser alone, otherwise (no arguments, -h, --version, an
    unknown command) with every command's.  The usage line lists every
    command either way."""
    ap = argparse.ArgumentParser(
        prog="derhed",
        description="hereditary decision toolkit for shift-graph instances")
    ap.add_argument("--version", action="version", version=f"derhed {__version__}")
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # the one-command build names every command in its usage line by a
    # metavar; the full build sets none, since a metavar would also rename
    # the argument in its "invalid choice" error
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true",
                       help="human-readable text instead of JSON")
        p.set_defaults(fn=fn)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
    if "gen" in names:
        fam = sub.choices["gen"].add_subparsers(dest="family", required=True)
        for family, arguments in _GEN_FAMILIES.items():
            q = fam.add_parser(family)
            for flags, kw in arguments:
                q.add_argument(*flags, **kw)
            q.add_argument("--out", required=True, metavar="FILE")
            # SUPPRESS keeps `gen --pretty FAMILY` from being reset to False
            q.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        g = (_load_graph(args.file, gate=args.command != "validate")
             if "file" in vars(args) else None)
        report, g, code = args.fn(args, g)
    except (InputError, UnknownOrbit, NegativeWalkAtSource, UnreachableOrbit) as exc:
        kind = "input" if isinstance(exc, InputError) else type(exc).__name__
        err = {"tool": "derhed", "version": __version__, "command": args.command,
               "error": {"type": kind, "message": str(exc)}}
        _emit(err, args.pretty)
        return 2
    _emit(_envelope(args.command, report, g), args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
