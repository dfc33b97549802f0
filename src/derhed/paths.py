"""Path calculus on shift-graphs.

A path in the triangulated category steps along nonzero morphisms or
single shifts X -> X[1].  On the shift-graph this becomes a walk in a
weighted multidigraph: a hom edge of weight n moves from (X, a) to
(Y, a + n), and every node carries an implicit shift self-edge of weight
+1.  "A path from X[1] to X exists" is then exactly "some closed walk
through X has total weight <= -1", which Bellman-Ford style relaxation
detects as a reachable negative cycle.

Walks never leave the block they start in (the connected component of the
hom-edge graph), so every solve relaxes only the edges of the source's
block.  Periodic orbits need no special case: their mandatory invertible
self-edges at weights -p and +p already form a negative closed walk.

Block-wide questions (which orbits lie on a negative closed walk, the
canonical heart, the directing orbits) are read off one all-pairs walk
table per block, a Floyd-Warshall over the lightest edge of each ordered
pair.  An orbit lies on a negative closed walk exactly when it reaches,
and is reached from, an orbit whose diagonal entry went negative; such
entries are clamped to -inf.  Single-source questions (min_weight and the
witnesses) keep a Bellman-Ford per source, whose predecessor labels give
the witness walks.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .shiftgraph import ObjRef, ShiftGraph, UnknownOrbit

NEG_INF = -math.inf
POS_INF = math.inf


class PathStep(NamedTuple):
    kind: str  # "start" | "hom" | "shift"
    at: ObjRef


class PathReport:
    def __init__(self, exists: bool, min_weight: float,
                 witness: list[PathStep] | None = None):
        self.exists = exists
        self.min_weight = min_weight  # int, or +-inf
        self.witness = witness

    def to_dict(self) -> dict:
        return {
            "exists": self.exists,
            "min_weight": _encode_weight(self.min_weight),
            "witness": None if self.witness is None else [
                {"kind": s.kind, "orbit": s.at.orbit, "offset": s.at.offset}
                for s in self.witness
            ],
        }


def _encode_weight(w) -> int | str:
    if w == POS_INF:
        return "+inf"
    if w == NEG_INF:
        return "-inf"
    return int(w)


class NonDegenerate(NamedTuple):
    def to_dict(self):
        return {"kind": "non-degenerate"}


class DegenerateAperiodic(NamedTuple):
    """Shifts of a single object, never self-isomorphic: the derived
    category of a division ring."""

    end_dim: int

    def to_dict(self):
        return {"kind": "degenerate-aperiodic", "end_dim": self.end_dim,
                "model": "derived category of a division ring"}


class DegeneratePeriodic(NamedTuple):
    """Shifts of a single object with X = X[period]: semisimple module
    category with a twisted translation."""

    period: int
    end_dim: int

    def to_dict(self):
        return {"kind": "degenerate-periodic", "period": self.period,
                "end_dim": self.end_dim,
                "model": "semisimple category with cyclically twisted translation"}


class PathEngine:
    """Shortest-walk machinery over one immutable shift-graph.

    Each source is solved once, by Bellman-Ford over the edges of its own
    block; targets in other blocks are at +inf.  The -inf pairs are the
    forward closure of the vertices still relaxable after the passes,
    which covers periodic orbits through their -p self-edges.  Each block
    also gets one walk table (see _walk_table), built on first use, for
    the negative-walk orbits and the canonical heart.
    """

    def __init__(self, g: ShiftGraph):
        self.g = g
        self.nodes = sorted(g.orbit_ids())
        self.edges = sorted((a, b, e.weight)
                            for (a, b), hom_edges in g.homs.items() for e in hom_edges)
        self.succ: dict[str, list[tuple[str, int]]] = {v: [] for v in self.nodes}
        for (a, b, w) in self.edges:
            self.succ[a].append((b, w))
        self._blocks = _blocks_of(g)
        self._block_of = {v: i for i, blk in enumerate(self._blocks) for v in blk}
        self._block_edges: list[list[tuple[str, str, int]]] = [[] for _ in self._blocks]
        for e in self.edges:
            self._block_edges[self._block_of[e[0]]].append(e)
        self._dist_cache: dict[str, dict[str, float]] = {}
        self._pred_cache: dict[str, dict[str, tuple[str, int]]] = {}
        self._tables: dict[int, list[list[float]]] = {}

    # -- structure --

    def blocks(self) -> list[list[str]]:
        return [list(b) for b in self._blocks]

    def _edges_of(self, v: str) -> list[tuple[str, str, int]]:
        """The edges of v's block, in the global sorted order."""
        return self._block_edges[self._block_of[v]]

    # -- shortest walks --

    def _run_source(self, s: str):
        if s not in self.g._by_id:
            raise UnknownOrbit(s)
        if s in self._dist_cache:
            return
        block = self._blocks[self._block_of[s]]
        edges = self._edges_of(s)
        # label-correcting relaxation with (weight, hom-steps) labels:
        # weight first, then fewer hom steps, so witnesses are minimal.
        dist: dict[str, tuple[float, int]] = {v: (POS_INF, 0) for v in block}
        pred: dict[str, tuple[str, int]] = {}
        dist[s] = (0, 0)
        for _ in range(len(block)):
            changed = False
            for (u, v, w) in edges:
                du = dist[u]
                if du[0] == POS_INF:
                    continue
                cand = (du[0] + w, du[1] + 1)
                if cand < dist[v]:
                    dist[v] = cand
                    pred[v] = (u, w)
                    changed = True
            if not changed:
                break
        # every reachable negative cycle keeps a relaxable edge
        seeds = [v for (u, v, w) in edges
                 if dist[u][0] != POS_INF and (dist[u][0] + w, dist[u][1] + 1) < dist[v]]
        neg = _reachable_from(self.succ, *seeds)
        self._dist_cache[s] = {v: (NEG_INF if v in neg else dist[v][0]) for v in block}
        self._pred_cache[s] = pred

    def min_weight(self, x: str, y: str) -> float:
        """Minimum total weight of a walk from orbit x to orbit y; walks of
        length zero count, so min_weight(x, x) <= 0 always."""
        if y not in self.g._by_id:
            raise UnknownOrbit(y)
        self._run_source(x)
        return self._dist_cache[x].get(y, POS_INF)

    def _table(self, i: int) -> list[list[float]]:
        """The walk table of block i; walks of length zero count."""
        if i not in self._tables:
            blk = self._blocks[i]
            self._tables[i] = _walk_table(blk, self._block_edges[i] + [(v, v, 0) for v in blk])
        return self._tables[i]

    def _negative_in(self, i: int) -> set[str]:
        """The orbits of block i on a negative closed walk."""
        d = self._table(i)
        blk = self._blocks[i]
        return {blk[k] for k in _tied_to(d, [m for m in range(len(d)) if d[m][m] < 0])}

    def negative_walk_objects(self) -> set[str]:
        """Orbits on a negative closed walk: exactly those X admitting a
        path from X[1] back to X."""
        return {v for i in range(len(self._blocks)) for v in self._negative_in(i)}

    # -- witnesses --

    def _bfs_path(self, s: str, t: str) -> list[tuple[str, str, int]]:
        """Deterministic unweighted path s -> t, returned as a list of hom
        edges (u, v, w).  Each succ list is sorted by (target, weight), so
        the first edge seen to an orbit is the lightest one."""
        prev: dict[str, tuple[str, int]] = {}
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for (v, w) in self.succ[u]:
                if v not in seen:
                    seen.add(v)
                    prev[v] = (u, w)
                    queue.append(v)
        if t not in seen:
            raise RuntimeError(f"no path {s} -> {t} during witness construction")
        return _unwind(prev, s, t)

    def _negative_cycle_within(self, allowed: set[str]) -> list[tuple[str, str, int]] | None:
        """A negative cycle using only nodes in `allowed` (all in one
        block), as a list of hom edges, or None."""
        nodes = sorted(allowed)
        if not nodes:
            return None
        edges = [(u, v, w) for (u, v, w) in self._edges_of(nodes[0])
                 if u in allowed and v in allowed]
        dist = {v: 0 for v in nodes}  # virtual super-source
        pred: dict[str, tuple[str, int]] = {}
        relaxed_v = None
        for i in range(len(nodes) + 1):
            relaxed_v = None
            for (u, v, w) in edges:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    pred[v] = (u, w)
                    relaxed_v = v
            if relaxed_v is None:
                return None
        # walk predecessors until we are guaranteed to sit on a cycle
        x = relaxed_v
        for _ in range(len(nodes)):
            x = pred[x][0]
        cycle = []
        cur = x
        while True:
            u, w = pred[cur]
            cycle.append((u, cur, w))
            cur = u
            if cur == x:
                break
        cycle.reverse()
        assert sum(w for (_u, _v, w) in cycle) < 0
        return cycle

    def walk_with_weight(self, x: str, y: str, target: int) -> list[tuple[str, str, int]] | None:
        """Hom-edge walk x -> y of total weight <= target, minimal under the
        relaxation labels; None when min_weight(x, y) > target.  The
        caller pads the difference with shift steps.  At -inf a negative
        cycle is pumped inside the region of orbits that x reaches (read
        off x's solve) and that reach y (one reverse BFS).  No orbit
        outside the region has an edge into it, so the plain BFS legs
        x -> cycle -> y stay inside it."""
        mw = self.min_weight(x, y)
        if mw > target:
            return None
        if mw != NEG_INF:
            return _unwind(self._pred_cache[x], x, y)
        # -inf: pump a negative cycle lying between x and y.
        dist = self._dist_cache[x]
        rev = {v: [] for v in dist}
        for (u, v, w) in self._edges_of(x):
            rev[v].append((u, w))
        region = _reachable_from(rev, y).intersection(v for v in dist if dist[v] != POS_INF)
        cycle = self._negative_cycle_within(region)
        c = cycle[0][0]
        p1 = self._bfs_path(x, c)
        p2 = self._bfs_path(c, y)
        excess = sum(w for (_u, _v, w) in p1 + p2) - target
        wc = sum(w for (_u, _v, w) in cycle)
        k = max(1, -(excess // wc))  # the least k >= 1 with excess + k * wc <= 0
        return p1 + cycle * k + p2

    def path_report(self, src: ObjRef, dst: ObjRef) -> PathReport:
        """Existence of a two-kinds-of-steps path from src to dst: a hom-edge walk
        of weight <= (dst.offset - src.offset), padded up exactly by the
        +1 shift self-edges."""
        target = dst.offset - src.offset
        mw = self.min_weight(src.orbit, dst.orbit)
        if mw > target:
            return PathReport(exists=False, min_weight=mw, witness=None)
        walk = self.walk_with_weight(src.orbit, dst.orbit, target)
        steps = [PathStep("start", src)]
        offset = src.offset
        for (_u, v, w) in walk:
            offset += w
            steps.append(PathStep("hom", ObjRef(v, offset)))
        while offset < dst.offset:
            offset += 1
            steps.append(PathStep("shift", ObjRef(dst.orbit, offset)))
        return PathReport(exists=True, min_weight=mw, witness=steps)


# -- blocks, reachability, walk unwinding and all-pairs walk tables --

def _unwind(pred: dict[str, tuple[str, int]], s: str, t: str) -> list[tuple[str, str, int]]:
    """The hom edges (u, v, w) of the walk s -> t along predecessor labels."""
    path = []
    while t != s:
        u, w = pred[t]
        path.append((u, t, w))
        t = u
    path.reverse()
    return path


def _blocks_of(g: ShiftGraph) -> list[list[str]]:
    """The connected components of the hom-edge graph, sorted."""
    parent = {v: v for v in g.orbit_ids()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), hom_edges in g.homs.items():
        if a != b and hom_edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(grp) for grp in groups.values())


def _reachable_from(adj: dict[str, list[tuple[str, int]]], *starts: str) -> set[str]:
    """The orbits reached from starts (included) along adj's (orbit, weight) lists."""
    seen = set(starts)
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        for (v, _w) in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _walk_table(block: list[str], edges) -> list[list[float]]:
    """Floyd-Warshall over the lightest edge of each ordered pair: d[i][j]
    is the least weight of a walk of length >= 1 from block[i] to block[j]
    along the edges (u, v, w).

    A diagonal entry that goes negative is clamped to -inf, so the values
    never grow into big ints.  Every finite entry is the weight of a walk,
    every negative cycle leaves -inf on the diagonal at one of its orbits,
    and +inf means no walk; without negative cycles the table is exact."""
    n = len(block)
    pos = {v: k for k, v in enumerate(block)}
    d = [[POS_INF] * n for _ in range(n)]
    for (u, v, w) in edges:
        i, j = pos[u], pos[v]
        if w < d[i][j]:
            d[i][j] = w
    for i in range(n):
        if d[i][i] < 0:
            d[i][i] = NEG_INF
    for k in range(n):
        row_k = [(j, w) for j, w in enumerate(d[k]) if w != POS_INF]
        for i, row in enumerate(d):
            dik = row[k]
            if dik == POS_INF:
                continue
            for j, w in row_k:
                if dik + w < row[j]:
                    row[j] = dik + w
            if row[i] < 0:
                row[i] = NEG_INF
    return d


def _tied_to(d: list[list[float]], marked: list[int]) -> set[int]:
    """Indices that reach, and are reached from, some marked index."""
    return {i for i in range(len(d)) for m in marked
            if i == m or (d[i][m] != POS_INF and d[m][i] != POS_INF)}


# -- public operations --

def classify_degenerate(g: ShiftGraph, block: list[str]):
    """Degenerate blocks consist of the shifts of a single object with
    every incident nonzero morphism invertible."""
    if len(block) != 1:
        return NonDegenerate()
    x = block[0]
    for e in g.edges_between(x, x):
        if not e.all_iso:
            return NonDegenerate()
    orb = g.orbit(x)
    if orb.period is None:
        return DegenerateAperiodic(orb.end_dim)
    return DegeneratePeriodic(orb.period, orb.end_dim)


def directing_objects(g: ShiftGraph) -> set[str]:
    """Orbits with no proper closed walk of length >= 1 and total weight
    zero, where proper walks use only non-invertible nonzero morphisms
    (edges with all_iso false) and shift steps.

    Shift steps pad a proper closed walk of weight <= 0 up to zero, so an
    orbit is directing iff its proper walk table has a positive diagonal
    entry and it is not strongly connected to an orbit with a negative
    one.  A periodic orbit is never directing: p shift steps already
    close up.  Orbits strongly connected to a periodic orbit inherit this,
    since offsets can be reduced mod p while passing through."""
    out = set()
    for blk in _blocks_of(g):
        d = _walk_table(blk, [(a, b, e.weight) for a in blk for b in g.targets(a)
                              for e in g.homs[(a, b)] if not e.all_iso])
        closing = [k for k, x in enumerate(blk)
                   if d[k][k] < 0 or g.orbit(x).period is not None]
        tied = _tied_to(d, closing)
        out.update(x for k, x in enumerate(blk) if d[k][k] > 0 and k not in tied)
    return out
