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
from dataclasses import dataclass, field
from typing import NamedTuple

# The instance schema's default field_char; derhed.linalg imports it from
# here, so path-only code never loads numpy.
DEFAULT_PRIME = 32003


class UnknownOrbit(Exception):
    pass


@dataclass(frozen=True)
class HomEdge:
    weight: int
    dim: int
    all_iso: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("hom edges record nonzero hom-spaces: dim >= 1")


@dataclass(frozen=True)
class Orbit:
    id: str
    period: int | None = None
    end_dim: int = 1

    def __post_init__(self):
        if self.end_dim < 1:
            raise ValueError("end_dim >= 1 (identity morphism)")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be a positive integer")


class ObjRef(NamedTuple):
    """A shifted indecomposable: (orbit id, shift offset)."""

    orbit: str
    offset: int


# A formal direct sum of shifted indecomposables.
FormalObject = Counter


@dataclass
class ShiftGraph:
    name: str
    orbits: list[Orbit]
    homs: dict[tuple[str, str], tuple[HomEdge, ...]]
    genuine: bool = False
    windowed: bool = False
    field_char: int = DEFAULT_PRIME
    _by_id: dict[str, Orbit] = field(default_factory=dict, repr=False)
    _targets: dict[str, list[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_id = {o.id: o for o in self.orbits}
        if len(self._by_id) != len(self.orbits):
            raise ValueError("duplicate orbit ids")
        norm = {}
        for (a, b), edges in self.homs.items():
            if a not in self._by_id or b not in self._by_id:
                raise UnknownOrbit(f"hom edge between undeclared orbits {a}, {b}")
            norm[(a, b)] = tuple(sorted(edges, key=lambda e: e.weight))
        self.homs = norm
        self._targets = {o.id: [] for o in self.orbits}
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

    def ref(self, orbit_id: str, offset: int) -> ObjRef:
        """ObjRef with the offset reduced mod the orbit period."""
        o = self.orbit(orbit_id)
        if o.period is not None:
            offset %= o.period
        return ObjRef(orbit_id, offset)

    # -- serialization (the authoritative instance JSON schema) --

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "field_char": self.field_char,
            "genuine": self.genuine,
            "windowed": self.windowed,
            "orbits": [
                {"id": o.id, "period": o.period, "end_dim": o.end_dim}
                for o in sorted(self.orbits, key=lambda o: o.id)
            ],
            "homs": [
                {
                    "from": a,
                    "to": b,
                    "edges": [
                        {"weight": e.weight, "dim": e.dim, "all_iso": e.all_iso}
                        for e in self.homs[(a, b)]
                    ],
                }
                for (a, b) in sorted(self.homs)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ShiftGraph":
        try:
            orbits = [
                Orbit(o["id"], o.get("period"), o.get("end_dim", 1))
                for o in d["orbits"]
            ]
            homs = {
                (h["from"], h["to"]): tuple(
                    HomEdge(e["weight"], e["dim"], e.get("all_iso", False))
                    for e in h["edges"]
                )
                for h in d["homs"]
            }
            return cls(
                name=d.get("name", ""),
                orbits=orbits,
                homs=homs,
                genuine=bool(d.get("genuine", False)),
                windowed=bool(d.get("windowed", False)),
                field_char=int(d.get("field_char", DEFAULT_PRIME)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed shift-graph instance: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ShiftGraph":
        return cls.from_dict(json.loads(text))


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {"ok": self.ok, "errors": self.errors, "warnings": self.warnings}


def _effective_weight_residues(g: ShiftGraph, a: str, b: str):
    """Non-invertible stored weights between a and b plus the modulus under
    which the effective (periodicity-translated) support repeats:
    (weights, modulus).  modulus 0 means no periodic translation applies."""
    pa = g.orbit(a).period or 0
    pb = g.orbit(b).period or 0
    mod = math.gcd(pa, pb)
    weights = [e.weight for e in g.edges_between(a, b) if not e.all_iso]
    return weights, mod


def _cone_witness_exists(g: ShiftGraph, a: str, b: str, n: int) -> bool:
    """Whether some orbit Z admits non-invertible hom edges (b, Z, m) and
    (Z, a, n') with m + n' = 1 - n up to periodicity translation.

    This is the shape forced by forming the cone of a nonzero
    non-invertible morphism X -> Y[n]: the triangle provides nonzero
    non-invertible maps Y[n] -> Z' and Z' -> X[1] for some indecomposable
    Z'."""
    target = 1 - n
    for z in g.targets(b):  # an orbit z without a (b, z) pair has no weights
        w1, m1 = _effective_weight_residues(g, b, z)
        w2, m2 = _effective_weight_residues(g, z, a)
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
        for (a, b), edges in sorted(g.homs.items()):
            for e in edges:
                if e.all_iso:
                    continue
                if not _cone_witness_exists(g, a, b, e.weight):
                    rep.warnings.append(
                        f"cone closure: no orbit completes the non-invertible edge "
                        f"{a} -> {b} (weight {e.weight}) to a triangle path")
    return rep


@dataclass(frozen=True)
class AbelianData:
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
    shifted cohomologies over a hereditary abelian category."""
    for x in data.objects:
        if data.hom.get((x, x), 0) < 1:
            raise ValueError(f"hom({x}, {x}) must be >= 1")
    orbits = [Orbit(x, period=None, end_dim=data.hom[(x, x)]) for x in data.objects]
    homs: dict[tuple[str, str], tuple[HomEdge, ...]] = {}
    for a in data.objects:
        for b in data.objects:
            edges = []
            h = data.hom.get((a, b), 0)
            if h > 0:
                # the division-ring check beyond dimension 1 is out of
                # reach of dimension data; flag only the 1-dimensional case.
                iso = a == b and h == 1
                edges.append(HomEdge(0, h, all_iso=iso))
            e1 = data.ext1.get((a, b), 0)
            if e1 > 0:
                edges.append(HomEdge(1, e1))
            if edges:
                homs[(a, b)] = tuple(edges)
    return ShiftGraph(name=name, orbits=orbits, homs=homs,
                      genuine=True, windowed=False, field_char=field_char)
