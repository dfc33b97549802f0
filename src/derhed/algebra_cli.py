"""The front ends of `gen` and `hom`, the commands that run the GF(p)
modules.

derhed.cli imports this module only when one of the two runs, so the
commands that read an instance never load it.  It takes its input errors
and its JSON file reader from shiftgraph, not from derhed.cli: under
`python -m derhed.cli` the CLI runs as __main__, so an import of
derhed.cli here would load a second copy of the CLI.
"""

from __future__ import annotations

import json
import os

from .linalg import DEFAULT_FIELD, FieldTooSmall, PrimeField
from .shiftgraph import InputError, _load_json


def _field() -> PrimeField:
    raw = os.environ.get("DERHED_FIELD_CHAR")
    if raw is None:
        return DEFAULT_FIELD
    try:
        return PrimeField(int(raw))
    except ValueError as exc:
        raise InputError(f"DERHED_FIELD_CHAR: {exc}") from exc


def _write(*files: tuple[str, str]) -> None:
    """Write each (path, text), all of them or none.  A missing or read-only
    directory refuses all, and so does a path that is a directory or that
    is not a regular file (a FIFO, a device); a symlink to a regular file,
    not its target, is replaced.  Each text goes to a temporary file beside
    its path, and the temporary files replace their paths, in order, only
    once every one is written; on any failure they are deleted.  So when
    two paths are the same, the last text wins."""
    for path, _ in files:
        if not os.access(os.path.dirname(path) or ".", os.W_OK):
            raise InputError(f"cannot write {path}: its directory is missing or read-only")
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: it is a directory")
        if os.path.exists(path) and not os.path.isfile(path):
            raise InputError(f"cannot write {path}: it is not a regular file")
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


def gen(args):
    from .generators import (gen_dual_numbers, gen_dynkin_an, gen_example_a2,
                             gen_semisimple_block)

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
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except FieldTooSmall as exc:
        raise InputError(f"{exc}; set DERHED_FIELD_CHAR to a larger prime") from exc
    _write(*heart, (args.out, g.to_json() + "\n"))
    return {"written": args.out, "orbits": len(g.orbits)}, g, 0


def hom(args):
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
