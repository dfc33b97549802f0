"""Hereditary decision procedures on a shift-graph block.

The decision is negative-walk detection: a block is refuted when some
orbit lies on a closed walk of total weight <= -1.  Otherwise a heart is
extracted constructively: fixing a source orbit X with no negative closed
walk, the offset of every orbit Y is the minimum walk weight from X to Y.
The membership (Y, n) in the reachability class of X holds exactly for
n >= d_Y, so the intersection defining the heart picks each orbit at its
minimal reachable shift, and the shortest-walk triangle inequality
d_Z <= d_Y + w makes every hom edge land in non-negative heart degree.
On genuine instances the other half of the heart condition, every degree
at most 1, is then tested too: where that heart has a degree m >= 2, a
heart with every degree in {0, 1} takes its place, or the block is
refuted when there is none (see _degree_witness).
"""

from __future__ import annotations

from collections import Counter

from .paths import NEG_INF, POS_INF, PathEngine, PathStep, _negative_cycle, _potential
from .shiftgraph import (FormalObject, IncompleteHeart, NegativeWalkAtSource,
                         NotABlock, ObjRef, ShiftGraph, UnreachableOrbit)


class Heart:
    """One shift offset per orbit: the object Y[offsets[Y]] belongs to the
    candidate heart."""

    def __init__(self, offsets: dict[str, int]):
        self.offsets = offsets

    def to_dict(self) -> dict:
        return {"block": sorted(self.offsets), "offsets": dict(sorted(self.offsets.items()))}

    @classmethod
    def from_dict(cls, d: dict) -> "Heart":
        offsets = d["offsets"]
        if not isinstance(offsets, dict):
            raise TypeError("offsets must be an object")
        for k, v in offsets.items():
            if type(v) is not int:
                raise TypeError(f"offset of {k} must be an integer, not {v!r}")
        return cls(offsets=dict(offsets))


class HeartCheck:
    def __init__(self, ok: bool, violations: list[tuple[ObjRef, ObjRef, int]],
                 m_values: Counter):
        self.ok = ok
        self.violations = violations
        self.m_values = m_values

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"from": {"orbit": a.orbit, "offset": a.offset},
                 "to": {"orbit": b.orbit, "offset": b.offset}, "m": m}
                for (a, b, m) in self.violations
            ],
            "m_values": dict(sorted(self.m_values.items())),
        }


class HereditaryReport:
    def __init__(self, verdict: str, indicator: dict[str, bool],
                 heart: Heart | None = None, witness: list[PathStep] | None = None,
                 heart_check: HeartCheck | None = None,
                 degree_witness: list[dict] | None = None):
        # "hereditary" | "not-hereditary" | "hereditary-within-window"
        self.verdict = verdict
        self.indicator = indicator  # orbit -> lies on a negative closed walk
        self.heart = heart
        self.witness = witness
        self.heart_check = heart_check
        self.degree_witness = degree_witness

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "negative_walk_indicator": dict(sorted(self.indicator.items())),
        }
        if self.heart is not None:
            out["heart"] = self.heart.to_dict()
        if self.heart_check is not None:
            out["heart_check"] = self.heart_check.to_dict()
        if self.witness is not None:
            out["witness"] = [s.to_dict() for s in self.witness]
        if self.degree_witness is not None:
            out["degree_witness"] = self.degree_witness
        return out


def _require_block(engine: PathEngine, block: list[str]) -> list[str]:
    blk = sorted(block)
    i = engine._block_of.get(blk[0]) if blk else None
    if i is None or engine._blocks[i] != blk:
        raise NotABlock(f"{blk} is not a block of this graph")
    return blk


def extract_heart(g: ShiftGraph, block: list[str], source: str,
                  engine: PathEngine | None = None) -> Heart:
    """Heart offsets d_Y = min walk weight from the source orbit."""
    eng = engine or PathEngine(g)
    blk = _require_block(eng, block)
    if source not in blk:
        raise NotABlock(f"source {source} does not lie in the block")
    if eng.min_weight(source, source) == NEG_INF:
        raise NegativeWalkAtSource(f"{source} lies on a negative closed walk")
    offsets = {}
    for y in blk:
        d = eng.min_weight(source, y)
        if d == NEG_INF:
            raise NegativeWalkAtSource(
                f"walks from {source} to {y} can pass a negative closed walk")
        if d == POS_INF:
            raise UnreachableOrbit(
                f"{y} unreachable from {source}"
                + ("; genuine blocks must be mutually reachable" if g.genuine else ""))
        offsets[y] = int(d)
    return Heart(offsets)


def verify_heart(g: ShiftGraph, heart: Heart, block: list[str] | None = None) -> HeartCheck:
    """Admissibility condition on the candidate heart: every hom edge
    (Y, Z, w) gives a nonzero element of Hom(heart, heart[m]) with
    m = w + d_Y - d_Z, and the heart is admissible iff every m >= 0.

    The multiset of occurring m values is reported; on genuine hereditary
    instances it is contained in {0, 1}."""
    scope = sorted(heart.offsets) if block is None else sorted(block)
    missing = [x for x in scope if x not in heart.offsets]
    if missing:
        raise IncompleteHeart(missing)
    in_scope = set(scope)
    violations = []
    ms: Counter = Counter()
    # the hom pairs inside the scope, in (a, b)-sorted order
    for a in sorted(in_scope):
        for b in g.targets(a):
            if b not in in_scope:
                continue
            for e in g.homs[(a, b)]:
                m = e.weight + heart.offsets[a] - heart.offsets[b]
                ms[m] += 1
                if m < 0:
                    violations.append((
                        ObjRef(a, heart.offsets[a]),
                        ObjRef(b, heart.offsets[b]),
                        m,
                    ))
    return HeartCheck(ok=not violations, violations=violations, m_values=ms)


def check_hereditary(g: ShiftGraph, block: list[str],
                     engine: PathEngine | None = None) -> HereditaryReport:
    """The main decision: not-hereditary iff some orbit of the block lies
    on a negative closed walk (equivalently, admits a path from X[1] back
    to X), with the homogeneity of that indicator observable per orbit;
    otherwise the heart with the least offsets over all sources that reach
    the whole block is extracted and verified.  On a genuine instance
    where that heart has a degree m >= 2, the block is refuted when no
    heart has every degree in {0, 1} (see _degree_witness); otherwise a
    potential of the constraint edges, shifted to put the canonical source
    at 0, is reported as the heart, with every degree in {0, 1}."""
    eng = engine or PathEngine(g)
    blk = _require_block(eng, block)
    i = eng._block_of[blk[0]]
    negative = eng._negative_in(i)
    indicator = {x: (x in negative) for x in blk}
    if negative:
        x = min(negative)
        witness = eng.path_report(ObjRef(x, 1), ObjRef(x, 0)).witness
        return HereditaryReport(verdict="not-hereditary", indicator=indicator,
                                witness=witness)
    # the admissible sources are the rows of the block's walk table with no
    # +inf, those reaching every orbit; the one with the least sorted
    # offsets (ties broken by orbit id) gives the canonical heart
    rows = [(sorted(row), x, row) for x, row in zip(blk, eng._table(i))
            if POS_INF not in row]
    if not rows:
        raise UnreachableOrbit(f"no orbit of {blk} reaches every other orbit")
    _, source, row = min(rows)
    heart = Heart({y: int(w) for y, w in zip(blk, row)})
    check = verify_heart(g, heart, blk)
    verdict = "hereditary-within-window" if g.windowed else "hereditary"
    degree_witness = None
    if g.genuine and max(check.m_values, default=0) >= 2:
        pi = _potential(blk, _constraint_edges(g, blk)[1])
        if pi is None:
            degree_witness = _degree_witness(g, blk)
            verdict = "not-hereditary"
        else:
            heart = Heart({y: pi[y] - pi[source] for y in blk})
            check = verify_heart(g, heart, blk)
    return HereditaryReport(verdict=verdict, indicator=indicator, heart=heart,
                            heart_check=check, degree_witness=degree_witness)


def _constraint_edges(g: ShiftGraph, blk: list[str]):
    """The hom edges (a, b, w) of the block, and with them the constraint
    edges (a, b, w) and (b, a, 1 - w): offsets d put every hom edge in
    heart degree m = w + d_a - d_b in {0, 1} exactly when they are a
    potential of the constraint edges."""
    hom = [(a, b, e.weight) for a in blk for b in g.targets(a) for e in g.homs[(a, b)]]
    return hom, hom + [(b, a, 1 - w) for (a, b, w) in hom]


def _degree_witness(g: ShiftGraph, blk: list[str]) -> list[dict] | None:
    """The m <= 1 half of the heart condition: in a hereditary category
    every hom edge lands in heart degree 0 or 1, since Ext^2 vanishes.  A
    negative cycle of the constraint edges (see _constraint_edges) proves
    that no heart has every m in {0, 1}, and it is returned as its hom
    edges, each traversed "forward" or "reversed".  A partial object list
    or hom window only drops constraints, so the proof stays sound."""
    hom, constraints = _constraint_edges(g, blk)
    cycle = _negative_cycle(blk, constraints)
    if cycle is None:
        return None
    forward = set(hom)
    return [{"from": u, "to": v, "weight": w, "direction": "forward"}
            if (u, v, w) in forward else
            {"from": v, "to": u, "weight": 1 - w, "direction": "reversed"}
            for (u, v, w) in cycle]


def cohomology(g: ShiftGraph, heart: Heart, obj: FormalObject) -> dict[int, FormalObject]:
    """Split a formal object along the heart: the component (Y, n)
    contributes the heart object (Y, d_Y) in degree p = d_Y - n."""
    missing = sorted({r.orbit for r in obj if r.orbit not in heart.offsets})
    if missing:
        raise IncompleteHeart(missing)
    out: dict[int, FormalObject] = {}
    for ref, mult in obj.items():
        d = heart.offsets[ref.orbit]
        p = d - ref.offset
        out.setdefault(p, Counter())[ObjRef(ref.orbit, d)] += mult
    return {p: c for p, c in sorted(out.items())}


def truncate(g: ShiftGraph, heart: Heart, obj: FormalObject, n: int,
             side: str) -> FormalObject:
    """Keep the components in heart degrees <= n (side "le") or >= n
    (side "ge"); truncations partition the object degreewise."""
    if side not in ("le", "ge"):
        raise ValueError('side must be "le" or "ge"')
    missing = sorted({r.orbit for r in obj if r.orbit not in heart.offsets})
    if missing:
        raise IncompleteHeart(missing)
    kept: FormalObject = Counter()
    for ref, mult in obj.items():
        p = heart.offsets[ref.orbit] - ref.offset
        if (side == "le" and p <= n) or (side == "ge" and p >= n):
            kept[ref] += mult
    return kept
