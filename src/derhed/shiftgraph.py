"""Shift-graphs: a finite presentation of the indecomposables of a
triangulated category modulo the translation functor.

Nodes are shift-orbits {X[s] : s in Z}; an edge of weight n from orbit X
to orbit Y records that Hom(X, Y[n]) is nonzero, together with its
dimension and whether every nonzero morphism in that hom-space is
invertible.  Only nonvanishing data is stored: no composition maps, since
the hereditary criteria downstream never read them.

Periodic orbits (X isomorphic to X[p]) store their hom supports as
canonical residues; the mandatory iso edges at weights -p and +p stand in
for the infinite effective support.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

# The instance schema's default field_char; derhed.linalg imports it from
# here, so path-only code never loads the GF(p) modules.
DEFAULT_PRIME = 32003


# The input errors that the CLI reports with exit code 2: those of the path
# and heart layers, and InputError for the rest.  They live here, with the
# CLI's JSON file reader, so that handling them loads no hereditary, and so
# that the gen and hom front ends (algebra_cli) share them without
# importing derhed.cli, which `python -m derhed.cli` runs as __main__.


class UnknownOrbit(Exception):
    pass


class NegativeWalkAtSource(Exception):
    pass


class UnreachableOrbit(Exception):
    pass


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    """The JSON file at path; a key given twice in one object is refused,
    where json.load would keep the last value."""
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            count = Counter(k for k, _ in pairs)
            key = next(k for k, _ in pairs if count[k] > 1)
            raise InputError(f"{path} repeats the key {key!r} in one object")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests its JSON too deeply to read") from exc


# Records are plain NamedTuples that check nothing: ShiftGraph refuses a
# graph holding a bad one, and the bulk builders (from_dict and
# generators.expand_hereditary) make each HomEdge with tuple.__new__,
# skipping the Python-level __new__ that NamedTuple writes.


class HomEdge(NamedTuple):
    weight: int
    dim: int
    all_iso: bool = False


class Orbit(NamedTuple):
    id: str
    period: int | None = None
    end_dim: int = 1


class ObjRef(NamedTuple):
    """A shifted indecomposable: (orbit id, shift offset)."""

    orbit: str
    offset: int


_JSON_BOOL = {True: "true", False: "false"}


def _json_array(items: list[str], indent: str) -> str:
    """The indented JSON array of the given item texts, closed at indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


class ShiftGraph:
    """An instance.  It refuses duplicate orbit ids, an edge with dim < 1,
    an orbit with end_dim < 1 or period < 1 and a field_char that is not
    an int (a bool is not) with ValueError, and an edge between undeclared
    orbits with UnknownOrbit."""

    def __init__(self, name: str, orbits: list[Orbit],
                 homs: dict[tuple[str, str], tuple[HomEdge, ...]],
                 genuine: bool = False, windowed: bool = False,
                 field_char: int = DEFAULT_PRIME):
        self.name = name
        self.orbits = orbits
        self.genuine = genuine
        self.windowed = windowed
        self.field_char = field_char
        self._by_id = {o.id: o for o in orbits}
        if len(self._by_id) != len(orbits):
            raise ValueError("duplicate orbit ids")
        norm = {}
        for (a, b), edges in homs.items():
            if a not in self._by_id or b not in self._by_id:
                raise UnknownOrbit(f"hom edge between undeclared orbits {a}, {b}")
            edges = tuple(edges)
            # a stable sort by weight (field 0); one edge is already in order
            norm[(a, b)] = edges if len(edges) < 2 else tuple(sorted(edges, key=itemgetter(0)))
        if min(map(itemgetter(1), chain.from_iterable(norm.values())), default=1) < 1:
            raise ValueError("hom edges record nonzero hom-spaces: dim >= 1")
        for o in orbits:
            if o.end_dim < 1:
                raise ValueError("end_dim >= 1 (identity morphism)")
            if o.period is not None and o.period < 1:
                raise ValueError("period must be a positive integer")
        if type(field_char) is not int:
            raise ValueError(f"field_char must be an int, not {field_char!r}")
        self.homs = norm
        self._targets: dict[str, list[str]] = {o.id: [] for o in orbits}
        for (a, b) in sorted(norm):
            self._targets[a].append(b)

    def orbit(self, orbit_id: str) -> Orbit:
        try:
            return self._by_id[orbit_id]
        except KeyError:
            raise UnknownOrbit(orbit_id) from None

    def orbit_ids(self) -> list[str]:
        return [o.id for o in self.orbits]

    def edges_between(self, a: str, b: str) -> tuple[HomEdge, ...]:
        return self.homs.get((a, b), ())

    def targets(self, a: str) -> list[str]:
        """The orbits b with a stored hom pair (a, b), sorted."""
        return self._targets.get(a, [])

    # -- serialization (the authoritative instance JSON schema) --

    def to_json(self) -> str:
        """The instance JSON, the one writer of the format; to_dict is its
        parsed form.  The text is json.dumps(self.to_dict(), indent=2,
        sort_keys=True), written out field by field: with indent set, json
        drops its C encoder for the pure-Python one.  Strings go through
        the C escaper that json.dumps itself uses.  Each distinct edge list
        is written once: pairs with equal lists share its text."""
        q = encode_basestring_ascii
        orbits = [
            f'    {{\n      "end_dim": {o.end_dim},\n      "id": {q(o.id)},\n'
            f'      "period": {"null" if o.period is None else o.period}\n    }}'
            for o in sorted(self.orbits, key=lambda o: o.id)
        ]
        homs = []
        written: dict[tuple[HomEdge, ...], str] = {}
        for (a, b) in sorted(self.homs):
            hom = self.homs[(a, b)]
            if (edges := written.get(hom)) is None:
                edges = written[hom] = _json_array([
                    f'        {{\n          "all_iso": {_JSON_BOOL[iso]},\n'
                    f'          "dim": {dim},\n          "weight": {w}\n        }}'
                    for w, dim, iso in hom
                ], "      ")
            homs.append(f'    {{\n      "edges": {edges},\n      "from": {q(a)},\n'
                        f'      "to": {q(b)}\n    }}')
        return (f'{{\n  "field_char": {self.field_char},\n'
                f'  "genuine": {_JSON_BOOL[self.genuine]},\n'
                f'  "homs": {_json_array(homs, "  ")},\n'
                f'  "name": {q(self.name)},\n'
                f'  "orbits": {_json_array(orbits, "  ")},\n'
                f'  "windowed": {_JSON_BOOL[self.windowed]}\n}}')

    def to_dict(self) -> dict:
        """The parsed form of to_json."""
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, d: dict) -> "ShiftGraph":
        """Read an instance, refusing with ValueError a missing field, a
        field of the wrong JSON type or a (from, to) pair listed twice:
        name, id, from and to are strings; weight, dim, end_dim, field_char
        and a non-null period are integers (a bool is not); all_iso,
        genuine and windowed are bools."""
        bad = "malformed shift-graph instance"
        new_edge = tuple.__new__
        try:
            orbits = []
            for o in d["orbits"]:
                oid, period, end_dim = o["id"], o.get("period"), o.get("end_dim", 1)
                if (type(oid) is not str or type(end_dim) is not int
                        or (period is not None and type(period) is not int)):
                    raise ValueError(
                        f"{bad}: orbit {o!r} needs a string id, an integer end_dim "
                        f"and an integer or null period")
                orbits.append(Orbit(oid, period, end_dim))
            homs = {}
            for h in d["homs"]:
                a, b = h["from"], h["to"]
                if type(a) is not str or type(b) is not str:
                    raise ValueError(f"{bad}: hom from {a!r} to {b!r}: from and to "
                                     f"must be orbit id strings")
                if (a, b) in homs:
                    raise ValueError(f"{bad}: hom from {a} to {b} is listed twice")
                edges = []
                for e in h["edges"]:
                    w, dim, iso = e["weight"], e["dim"], e.get("all_iso", False)
                    if type(w) is not int or type(dim) is not int or type(iso) is not bool:
                        raise ValueError(
                            f"{bad}: edge {e!r} from {a} to {b} needs an integer "
                            f"weight and dim and a bool all_iso")
                    edges.append(new_edge(HomEdge, (w, dim, iso)))
                homs[(a, b)] = edges
            name = d.get("name", "")
            if type(name) is not str:
                raise ValueError(f"{bad}: name {name!r} is not a string")
            genuine, windowed = d.get("genuine", False), d.get("windowed", False)
            field_char = d.get("field_char", DEFAULT_PRIME)
            if (type(genuine) is not bool or type(windowed) is not bool
                    or type(field_char) is not int):
                raise ValueError(f"{bad}: genuine {genuine!r} and windowed {windowed!r} "
                                 f"must be bools and field_char {field_char!r} an integer")
            return cls(name=name, orbits=orbits, homs=homs, genuine=genuine,
                       windowed=windowed, field_char=field_char)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{bad}: {exc}") from exc


class ValidationReport:
    def __init__(self, errors: list[str] | None = None):
        self.errors = errors or []
        self.warnings: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {"ok": self.ok, "errors": self.errors, "warnings": self.warnings}


def _cone_witness_exists(g: ShiftGraph, period: dict[str, int], a: str, b: str,
                         n: int) -> bool:
    """Whether some orbit Z admits non-invertible hom edges (b, Z, m) and
    (Z, a, n') with m + n' = 1 - n modulo the gcd of the periods of a, b
    and Z, where that gcd is nonzero; period maps each orbit to its period,
    0 if it has none.  This is validate's residue walk: its bitsets have
    tested the exact matches (u + v = 1 - n), so a Z whose gcd is 0 is
    skipped.

    This is the shape forced by forming the cone of a nonzero
    non-invertible morphism X -> Y[n]: the triangle provides nonzero
    non-invertible maps Y[n] -> Z' and Z' -> X[1] for some indecomposable
    Z'."""
    target = 1 - n
    for z in g.targets(b):  # an orbit z without a (b, z) pair has no weights
        mod, back = math.gcd(period[a], period[b], period[z]), g.homs.get((z, a))
        if not mod or back is None:  # nor one without a (z, a) pair
            continue
        for u, _, iso in g.homs[(b, z)]:
            if not iso and any(not iso2 and (u + v - target) % mod == 0
                               for v, _, iso2 in back):
                return True
    return False


def _structural_errors(g: ShiftGraph) -> list[str]:
    """The errors of validate, without its cone-closure scan: the whole
    check that the CLI gates an instance with."""
    errors = []
    homs, period = g.homs, {}
    for o in g.orbits:
        p = period[o.id] = o.period
        self_edges = homs.get((o.id, o.id), ())
        if not any(w == 0 for w, _, _ in self_edges):
            errors.append(f"missing identity: orbit {o.id} has no (X, X, 0) edge")
        if p is not None:
            for w in (-p, p):
                if not any(v == w and iso for v, _, iso in self_edges):
                    errors.append(
                        f"periodicity closure: orbit {o.id} with period {p} "
                        f"lacks an all_iso edge at weight {w}")
    for (a, b), edges in homs.items():
        if len(edges) > 1 and len({w for w, _, _ in edges}) < len(edges):
            errors.append(f"duplicate weights on hom edges {a} -> {b}")
        for w, _, iso in edges:
            if not iso:
                continue
            p = period[a]
            if a != b:
                errors.append(f"all_iso on cross-orbit edge {a} -> {b} (weight {w})")
            elif (p is None and w != 0) or (p is not None and w % p != 0):
                errors.append(
                    f"all_iso edge {a} -> {a} at weight {w} is not a "
                    f"multiple of the period")
    return errors


def _cone_warnings(g: ShiftGraph) -> list[str]:
    """validate's cone-closure scan of a structurally valid g, by the
    bitset test that validate's docstring states."""
    bit = {o.id: 1 << i for i, o in enumerate(g.orbits)}
    out = {o.id: {} for o in g.orbits}
    into = {o.id: {} for o in g.orbits}
    for (a, b), hom in g.homs.items():
        fwd, back, bit_a, bit_b = out[a], into[b], bit[a], bit[b]
        for w, _, iso in hom:
            if not iso:
                fwd[w] = fwd.get(w, 0) | bit_b
                back[w] = back.get(w, 0) | bit_a
    period = {o.id: o.period or 0 for o in g.orbits}
    periodic = any(period.values())
    missing = []
    for (a, b), hom in g.homs.items():
        back, fwd = into[a], out[b].items()
        for n, _, iso in hom:
            if iso:
                continue
            for m, z in fwd:
                if z & back.get(1 - n - m, 0):
                    break
            else:
                if not (periodic and _cone_witness_exists(g, period, a, b, n)):
                    missing.append((a, b, n))
    missing.sort()  # the pairs in order, each pair's edges by weight
    return [f"cone closure: no orbit completes the non-invertible edge "
            f"{a} -> {b} (weight {n}) to a triangle path" for a, b, n in missing]


def validate(g: ShiftGraph) -> ValidationReport:
    """Structural validation; cone-closure violations are
    reported as warnings only when the graph claims to be genuine, since
    windowing can hide the witness.

    The cone scan is a bitset test.  One pass over the hom pairs builds,
    per orbit b and weight m, the int OUT[b][m] whose bit z is set when
    b -> z is a non-invertible edge of weight m, and IN[a][m] for the edges
    z -> a.  A second pass tests each non-invertible edge (a, b, n): it has
    a witness when OUT[b][m] & IN[a][1 - n - m] is nonzero for some m.  An
    exact match is a witness under any modulus, so only on a graph with a
    periodic orbit do the edges this leaves open go on to the residue walk
    of _cone_witness_exists; on an aperiodic graph the walk never runs."""
    rep = ValidationReport(_structural_errors(g))
    if g.genuine and rep.ok:
        rep.warnings = _cone_warnings(g)
    return rep
