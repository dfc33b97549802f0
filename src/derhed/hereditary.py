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
from typing import TYPE_CHECKING

from .shiftgraph import NegativeWalkAtSource, ObjRef, ShiftGraph, UnreachableOrbit

if TYPE_CHECKING:  # paths loads only where a walk runs: extract_heart, check_hereditary
    from .paths import PathEngine, PathStep


class NotABlock(Exception):
    pass


class IncompleteHeart(Exception):
    def __init__(self, missing: list[str]):
        super().__init__(f"heart offsets missing for orbits: {missing}")
        self.missing = missing


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
        if "block" in d and d["block"] != sorted(offsets):
            raise ValueError(f"block must be the sorted orbits of offsets, "
                             f"{sorted(offsets)}, not {d['block']!r}")
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


def extract_heart(g: ShiftGraph, source: str, engine: PathEngine | None = None) -> Heart:
    """Heart offsets d_Y = min walk weight from the source orbit, over the
    orbits Y of its block: the source's row (PathEngine.row)."""
    from .paths import NEG_INF, POS_INF, PathEngine
    row = (engine or PathEngine(g)).row(source)  # UnknownOrbit for an unknown source
    if row[source] == NEG_INF:
        raise NegativeWalkAtSource(f"{source} lies on a negative closed walk")
    offsets = {}
    for y, d in row.items():
        if d == NEG_INF:
            raise NegativeWalkAtSource(
                f"walks from {source} to {y} can pass a negative closed walk")
        if d == POS_INF:
            raise UnreachableOrbit(
                f"{y} unreachable from {source}"
                + ("; genuine blocks must be mutually reachable" if g.genuine else ""))
        offsets[y] = int(d)
    return Heart(offsets)


def verify_heart(g: ShiftGraph, heart: Heart) -> HeartCheck:
    """Admissibility condition on the candidate heart: every hom edge
    (Y, Z, w) between orbits of the heart gives a nonzero element of
    Hom(heart, heart[m]) with m = w + d_Y - d_Z, and the heart is
    admissible iff every m >= 0.

    The multiset of occurring m values is reported; on genuine hereditary
    instances it is contained in {0, 1}."""
    violations = []
    ms: Counter = Counter()
    # the hom pairs between the heart's orbits, in (a, b)-sorted order
    for a in sorted(heart.offsets):
        for b in g.targets(a):
            if b not in heart.offsets:
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
    from .paths import POS_INF, PathEngine, _bfs_tree, _potential, _sccs, _tight
    eng = engine or PathEngine(g)
    blk = sorted(block)
    i = eng._block_of.get(blk[0]) if blk else None
    if i is None or eng._blocks[i] != blk:
        raise NotABlock(f"{blk} is not a block of this graph")
    negative = eng._negative_in(i)
    indicator = {x: (x in negative) for x in blk}
    if negative:
        x = min(negative)
        witness = eng.path_report(ObjRef(x, 1), ObjRef(x, 0)).witness
        return HereditaryReport(verdict="not-hereditary", indicator=indicator,
                                witness=witness)
    # The admissible sources are those whose row of walk weights d(x, .)
    # has no +inf; the one with the least sorted row (ties broken by orbit
    # id) gives the canonical heart.  Few rows need solving.  pi, kept by
    # the engine, is the least weight of a walk into each orbit, so pi <= 0 and
    # d(x, y) >= pi(y) - pi(x); an edge is tight when pi(u) + w = pi(v),
    # and d(x, y) = pi(y) - pi(x) exactly when tight edges lead from x to y.
    # - Non-zero pi never wins: pi(z) < 0 means d(x, z) < 0 for some x,
    #   and if z is admissible so is x, which reaches z, with
    #   row_x <= row_z + d(x, z) < row_z entrywise.
    # - For pi(x) = pi(z) = 0, if tight edges lead from x to z then
    #   row_x <= row_z entrywise, strictly at x unless they also lead back;
    #   then the rows are equal and the least id wins.  So the candidates
    #   are the least pi = 0 orbit of each component of the tight edges
    #   that no earlier candidate reaches along them, taking the
    #   components in topological order.
    # - A candidate's row is at least its bound: pi(y) where tight edges
    #   lead from x to y, pi(y) + 1 elsewhere (weights are ints).  So the
    #   candidates are solved in the order of (sorted bound, id), until
    #   that passes the best (sorted row, id) found.
    # The winner is a candidate, so when no solved row is admissible, no
    # row is.
    pi = eng._pi[i]
    tight = _tight(eng.succ, pi, blk)
    bounds, reached = [], set()
    for comp in reversed(_sccs(tight)):
        x = min((v for v in comp if pi[v] == 0), default=None)
        if x is None or x in reached:
            continue
        ahead = _bfs_tree(tight, x)
        reached.update(ahead)
        bounds.append((sorted(pi[y] if y in ahead else pi[y] + 1 for y in blk), x))
    best = None  # ((sorted row, id), row) of the least admissible row so far
    for bound, x in sorted(bounds):
        if best and (bound, x) > best[0]:
            break
        row = list(eng.row(x).values())
        if POS_INF not in row and (best is None or (sorted(row), x) < best[0]):
            best = ((sorted(row), x), row)
    if best is None:
        raise UnreachableOrbit(f"no orbit of {blk} reaches every other orbit")
    (_, source), row = best
    heart = Heart({y: int(w) for y, w in zip(blk, row)})
    check = verify_heart(g, heart)
    verdict = "hereditary-within-window" if g.windowed else "hereditary"
    degree_witness = None
    if g.genuine and max(check.m_values, default=0) >= 2:
        pi = _potential(_constraint_edges(eng.succ, blk))
        if isinstance(pi, list):
            degree_witness = _degree_witness(eng.succ, pi)
            verdict = "not-hereditary"
        else:
            heart = Heart({y: pi[y] - pi[source] for y in blk})
            check = verify_heart(g, heart)
    return HereditaryReport(verdict=verdict, indicator=indicator, heart=heart,
                            heart_check=check, degree_witness=degree_witness)


def _constraint_edges(succ: dict[str, list[tuple[str, int]]], blk: list[str]):
    """The successor lists, built off succ, of the constraint edges (a, b,
    w) and (b, a, 1 - w) of each hom edge (b, w) in succ[a], a in blk:
    offsets d put every hom edge in heart degree m = w + d_a - d_b in
    {0, 1} exactly when they are a potential of them.  Each list holds the
    orbit's own hom edges, then the reversed ones in blk and succ order."""
    constraints = {a: list(succ[a]) for a in blk}
    for a in blk:
        for (b, w) in succ[a]:
            constraints[b].append((a, 1 - w))
    return constraints


def _degree_witness(succ: dict[str, list[tuple[str, int]]], cycle: list) -> list[dict]:
    """The m <= 1 half of the heart condition: in a hereditary category
    every hom edge lands in heart degree 0 or 1, since Ext^2 vanishes.  A
    negative cycle of the constraint edges (see _constraint_edges), from
    their _potential, proves that no heart has every m in {0, 1}.  Each
    step (u, v, w) is written as a hom edge of succ: "forward" if (v, w) is
    in succ[u], even when it also reverses one, else "reversed".  Dropped
    constraints (a partial object list or hom window) keep the proof sound."""
    return [{"from": u, "to": v, "weight": w, "direction": "forward"}
            if (v, w) in succ[u] else
            {"from": v, "to": u, "weight": 1 - w, "direction": "reversed"}
            for (u, v, w) in cycle]


def _degrees(heart: Heart, obj: Counter) -> list[tuple[ObjRef, int, int]]:
    """Each component (Y, n) of obj as (ref, mult, heart degree d_Y - n)."""
    missing = sorted({r.orbit for r in obj if r.orbit not in heart.offsets})
    if missing:
        raise IncompleteHeart(missing)
    return [(ref, mult, heart.offsets[ref.orbit] - ref.offset) for ref, mult in obj.items()]


def cohomology(heart: Heart, obj: Counter) -> dict[int, Counter]:
    """Split a formal object (a Counter of ObjRefs) along the heart: its
    (Y, n) contributes the heart object (Y, d_Y) in degree p = d_Y - n."""
    out: dict[int, Counter] = {}
    for ref, mult, p in _degrees(heart, obj):
        out.setdefault(p, Counter())[ObjRef(ref.orbit, heart.offsets[ref.orbit])] += mult
    return {p: c for p, c in sorted(out.items())}


def truncate(heart: Heart, obj: Counter, n: int, side: str) -> Counter:
    """Keep the components in heart degrees <= n (side "le") or >= n
    (side "ge"); truncations partition the object degreewise."""
    if side not in ("le", "ge"):
        raise ValueError('side must be "le" or "ge"')
    kept: Counter = Counter()
    for ref, mult, p in _degrees(heart, obj):
        if (side == "le" and p <= n) or (side == "ge" and p >= n):
            kept[ref] += mult
    return kept
