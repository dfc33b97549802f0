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
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

# The instance schema's default field_char; derhed.linalg imports it from
# here, so path-only code never loads the GF(p) modules.
DEFAULT_PRIME = 32003


# The input errors of the path and heart layers, which the CLI reports with
# exit code 2.  They live here so that handling them loads no hereditary.


class UnknownOrbit(Exception):
    pass


class NegativeWalkAtSource(Exception):
    pass


class UnreachableOrbit(Exception):
    pass


# Value records are NamedTuples and mutable records plain classes, which
# need no module beyond typing: every CLI call pays for its own startup.
# A value record that validates its fields does so in __new__ on a thin
# subclass, since a NamedTuple body cannot define __new__.  The bulk
# builders (from_dict, expand_hereditary) make each HomEdge with
# tuple.__new__, which skips that Python-level call, and check dim >= 1
# themselves: a new check in HomEdge.__new__ belongs in them too.


class _HomEdge(NamedTuple):
    weight: int
    dim: int
    all_iso: bool


class HomEdge(_HomEdge):
    __slots__ = ()

    def __new__(cls, weight: int, dim: int, all_iso: bool = False):
        if dim < 1:
            raise ValueError("hom edges record nonzero hom-spaces: dim >= 1")
        return super().__new__(cls, weight, dim, all_iso)


class _Orbit(NamedTuple):
    id: str
    period: int | None
    end_dim: int


class Orbit(_Orbit):
    __slots__ = ()

    def __new__(cls, id: str, period: int | None = None, end_dim: int = 1):
        if end_dim < 1:
            raise ValueError("end_dim >= 1 (identity morphism)")
        if period is not None and period < 1:
            raise ValueError("period must be a positive integer")
        return super().__new__(cls, id, period, end_dim)


class ObjRef(NamedTuple):
    """A shifted indecomposable: (orbit id, shift offset)."""

    orbit: str
    offset: int


_JSON_BOOL = {True: "true", False: "false"}


def _json_array(items: list[str], indent: str) -> str:
    """The indented JSON array of the given item texts, closed at indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


class ShiftGraph:
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
        the C escaper that json.dumps itself uses."""
        q = encode_basestring_ascii
        orbits = [
            f'    {{\n      "end_dim": {o.end_dim},\n      "id": {q(o.id)},\n'
            f'      "period": {"null" if o.period is None else o.period}\n    }}'
            for o in sorted(self.orbits, key=lambda o: o.id)
        ]
        homs = []
        for (a, b) in sorted(self.homs):
            edges = _json_array([
                f'        {{\n          "all_iso": {_JSON_BOOL[iso]},\n'
                f'          "dim": {dim},\n          "weight": {w}\n        }}'
                for w, dim, iso in self.homs[(a, b)]
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
        genuine and windowed are bools.  It refuses dim < 1 itself, with
        HomEdge's message, and builds each edge without HomEdge.__new__."""
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
                    if dim < 1:
                        raise ValueError("hom edges record nonzero hom-spaces: dim >= 1")
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
    def __init__(self):
        self.errors: list[str] = []
        self.warnings: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {"ok": self.ok, "errors": self.errors, "warnings": self.warnings}


def _cone_residues(g: ShiftGraph) -> dict[tuple[str, str], tuple[list[int], int]]:
    """(a, b) -> (non-invertible stored weights from a to b, the modulus
    under which the effective, periodicity-translated support repeats) for
    every stored pair.  The modulus is the gcd of the periods of a and b;
    0 means no periodic translation applies."""
    period = {o.id: o.period or 0 for o in g.orbits}
    return {
        (a, b): ([w for w, _, iso in edges if not iso],
                 math.gcd(period[a], period[b]))
        for (a, b), edges in g.homs.items()
    }


def _cone_witness_exists(g: ShiftGraph, residues, a: str, b: str, n: int) -> bool:
    """Whether some orbit Z admits non-invertible hom edges (b, Z, m) and
    (Z, a, n') with m + n' = 1 - n up to periodicity translation; residues
    is the table of _cone_residues.

    This is the shape forced by forming the cone of a nonzero
    non-invertible morphism X -> Y[n]: the triangle provides nonzero
    non-invertible maps Y[n] -> Z' and Z' -> X[1] for some indecomposable
    Z'."""
    target = 1 - n
    for z in g.targets(b):  # an orbit z without a (b, z) pair has no weights
        back = residues.get((z, a))
        if back is None:  # nor one without a (z, a) pair
            continue
        (w1, m1), (w2, m2) = residues[(b, z)], back
        mod = math.gcd(m1, m2)
        for u in w1:
            for v in w2:
                if mod == 0:
                    if u + v == target:
                        return True
                elif (u + v - target) % mod == 0:
                    return True
    return False


def validate(g: ShiftGraph) -> ValidationReport:
    """Structural validation; cone-closure violations are
    reported as warnings only when the graph claims to be genuine, since
    windowing can hide the witness."""
    rep = ValidationReport()
    for o in g.orbits:
        ident = [e for e in g.edges_between(o.id, o.id) if e.weight == 0]
        if not ident:
            rep.errors.append(f"missing identity: orbit {o.id} has no (X, X, 0) edge")
        if o.period is not None:
            self_edges = g.edges_between(o.id, o.id)
            for w in (-o.period, o.period):
                if not any(e.weight == w and e.all_iso for e in self_edges):
                    rep.errors.append(
                        f"periodicity closure: orbit {o.id} with period {o.period} "
                        f"lacks an all_iso edge at weight {w}")
    for (a, b), edges in g.homs.items():
        weights = [e.weight for e in edges]
        if len(set(weights)) != len(weights):
            rep.errors.append(f"duplicate weights on hom edges {a} -> {b}")
        for e in edges:
            if e.all_iso and a != b:
                rep.errors.append(
                    f"all_iso on cross-orbit edge {a} -> {b} (weight {e.weight})")
            if e.all_iso and a == b:
                p = g.orbit(a).period
                if (p is None and e.weight != 0) or (p is not None and e.weight % p != 0):
                    rep.errors.append(
                        f"all_iso edge {a} -> {a} at weight {e.weight} is not a "
                        f"multiple of the period")
    if g.genuine and rep.ok:
        residues = _cone_residues(g)
        for (a, b) in sorted(residues):
            for w in residues[(a, b)][0]:
                if not _cone_witness_exists(g, residues, a, b, w):
                    rep.warnings.append(
                        f"cone closure: no orbit completes the non-invertible edge "
                        f"{a} -> {b} (weight {w}) to a triangle path")
    return rep


class AbelianData(NamedTuple):
    """Hom and Ext^1 dimension tables of finitely many indecomposables of
    a hereditary abelian category."""

    objects: tuple[str, ...]
    hom: dict[tuple[str, str], int]
    ext1: dict[tuple[str, str], int]


def expand_hereditary(data: AbelianData, name: str = "",
                      field_char: int = DEFAULT_PRIME) -> ShiftGraph:
    """Expand abelian hom/ext data to the shift-graph of the bounded
    derived category: weight-0 edges carry Hom, weight-1 edges carry
    Ext^1, and nothing else is nonzero because every object splits into
    shifted cohomologies over a hereditary abelian category.  A table
    entry that is not a non-negative int (a bool included) raises
    ValueError, and a nonzero one whose key names an object outside
    objects raises UnknownOrbit."""
    for kind, table in (("hom", data.hom), ("ext1", data.ext1)):
        for key, d in table.items():
            if type(d) is not int or d < 0:
                raise ValueError(f"{kind}{key} must be a non-negative int, not {d!r}")
    for x in data.objects:
        if data.hom.get((x, x), 0) < 1:
            raise ValueError(f"hom({x}, {x}) must be >= 1")
    orbits = [Orbit(x, period=None, end_dim=data.hom[(x, x)]) for x in data.objects]
    # the entries are ints, checked above, and the tests h > 0 and e1 > 0
    # below are HomEdge's dim >= 1, so each edge is built with
    # tuple.__new__, without HomEdge.__new__
    new_edge = tuple.__new__
    homs: dict[tuple[str, str], tuple[HomEdge, ...]] = {
        # the division-ring check beyond dimension 1 is out of reach of
        # dimension data; flag only the 1-dimensional case.
        (a, b): (new_edge(HomEdge, (0, h, a == b and h == 1)),)
        for (a, b), h in data.hom.items() if h > 0}
    for key, e1 in data.ext1.items():
        if e1 > 0:
            homs[key] = homs.get(key, ()) + (new_edge(HomEdge, (1, e1, False)),)
    return ShiftGraph(name=name, orbits=orbits, homs=homs,
                      genuine=True, windowed=False, field_char=field_char)
