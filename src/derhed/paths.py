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

Whether an orbit lies on a negative closed walk is decided once, per
strongly connected component (_components): a closed walk stays in one
component, and a component's edges hold a negative cycle exactly when
they have no potential.  Single-source questions (min_weight and the
witnesses) keep a Bellman-Ford per source over the edges into the orbits
the source's negative orbits do not reach; its predecessor labels give
the witness walks, and a walk at -inf pumps a negative cycle between two
breadth-first legs (_bfs_tree).  The canonical heart alone reads one
exact all-pairs walk table per block with no negative orbit, a
Floyd-Warshall over the lightest edge of each ordered pair.  Tarjan's
strongly connected components (_sccs) also give the blocks, from the
links run both ways, and the directing orbits, from _components of the
non-invertible edges.
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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "orbit": self.at.orbit, "offset": self.at.offset}


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
                s.to_dict() for s in self.witness],
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

    Each source is solved once, over the edges of its own block; targets
    in other blocks are at +inf.  The -inf targets are the forward closure
    of the block's negative orbits (_negative_in) that the source reaches,
    and a Bellman-Ford over the edges into the other orbits gives the
    rest.  A block with no negative orbit also gets one walk table (see
    _walk_table), built on first use, for the canonical heart.
    """

    def __init__(self, g: ShiftGraph):
        self.g = g
        edges = sorted((a, b, e.weight)
                       for (a, b), hom_edges in g.homs.items() for e in hom_edges)
        self.succ: dict[str, list[tuple[str, int]]] = {v: [] for v in sorted(g.orbit_ids())}
        for (a, b, w) in edges:
            self.succ[a].append((b, w))
        self._blocks = _blocks_of(g)
        self._block_of = {v: i for i, blk in enumerate(self._blocks) for v in blk}
        self._block_edges: list[list[tuple[str, str, int]]] = [[] for _ in self._blocks]
        for e in edges:
            self._block_edges[self._block_of[e[0]]].append(e)
        self._dist_cache: dict[str, dict[str, float]] = {}
        self._pred_cache: dict[str, dict[str, tuple[str, int]]] = {}
        self._tables: dict[int, list[list[float]]] = {}
        self._negative: dict[int, set[str]] = {}

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
        i = self._block_of[s]
        block = self._blocks[i]
        # -inf: the forward closure of the negative orbits that s reaches;
        # the edges into the other orbits hold no negative cycle
        negative = self._negative_in(i)
        neg = _bfs_tree(self.succ, *(v for v in _bfs_tree(self.succ, s) if v in negative))
        edges = [e for e in self._block_edges[i] if e[1] not in neg]
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
        """The walk table of block i, which holds no negative orbit; walks
        of length zero count."""
        if i not in self._tables:
            blk = self._blocks[i]
            self._tables[i] = _walk_table(blk, self._block_edges[i] + [(v, v, 0) for v in blk])
        return self._tables[i]

    def _negative_in(self, i: int) -> set[str]:
        """The orbits of block i on a negative closed walk: those whose
        strongly connected component has no potential."""
        if i not in self._negative:
            comps = _components(self._blocks[i], self._block_edges[i])
            self._negative[i] = {v for comp, _, pi in comps if pi is None for v in comp}
        return self._negative[i]

    def negative_walk_objects(self) -> set[str]:
        """Orbits on a negative closed walk: exactly those X admitting a
        path from X[1] back to X."""
        return {v for i in range(len(self._blocks)) for v in self._negative_in(i)}

    # -- witnesses --

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
        region = {v for v in _bfs_tree(rev, y) if dist[v] != POS_INF}
        cycle = _negative_cycle(sorted(region), [e for e in self._edges_of(x)
                                                 if e[0] in region and e[1] in region])
        c = cycle[0][0]
        p1 = _unwind(_bfs_tree(self.succ, x), x, c)
        p2 = _unwind(_bfs_tree(self.succ, c), c, y)
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
    """The sorted connected components of the hom-edge graph: the strongly
    connected components of its links between distinct orbits, run both ways."""
    links = [e for (a, b), hom_edges in g.homs.items() if a != b and hom_edges
             for e in ((a, b), (b, a))]
    return sorted(sorted(comp) for comp in _sccs(g.orbit_ids(), links))


def _bfs_tree(adj: dict[str, list[tuple[str, int]]], *starts: str) -> dict:
    """Each orbit reached from starts along adj's (orbit, weight) lists,
    breadth first, mapped to the step (u, w) that first reached it (None
    for a start); along the sorted succ lists that step is the lightest."""
    tree = dict.fromkeys(starts)
    queue = deque(tree)
    while queue:
        u = queue.popleft()
        for (v, w) in adj[u]:
            if v not in tree:
                tree[v] = (u, w)
                queue.append(v)
    return tree


def _negative_cycle(nodes: list[str], edges) -> list[tuple[str, str, int]] | None:
    """A negative cycle of the edges (u, v, w) on nodes, as a list of edges,
    or None: a Bellman-Ford from a virtual source with a weight-0 edge to
    every node."""
    dist = dict.fromkeys(nodes, 0)
    pred: dict[str, tuple[str, int]] = {}
    for _ in range(len(nodes) + 1):
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


def _potential(nodes: list[str], edges) -> dict[str, int] | None:
    """Bellman-Ford from a virtual source with a weight-0 edge to every
    node, scanning nodes from a FIFO queue: pi with pi[v] <= pi[u] + w on
    every edge (u, v, w), or None when the edges hold a negative cycle.  A
    label walk of len(nodes) edges repeats a node whose label fell in
    between, so it passes one."""
    succ: dict[str, list[tuple[str, int]]] = {v: [] for v in nodes}
    for (u, v, w) in edges:
        succ[u].append((v, w))
    pi = dict.fromkeys(nodes, 0)
    hops = dict.fromkeys(nodes, 0)
    queue, queued = deque(nodes), set(nodes)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        for (v, w) in succ[u]:
            if pi[u] + w < pi[v]:
                pi[v] = pi[u] + w
                hops[v] = hops[u] + 1
                if hops[v] >= len(nodes):
                    return None
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    return pi


def _sccs(nodes: list[str], edges) -> list[list[str]]:
    """The strongly connected components of the edges (u, v, ...) on nodes,
    by Tarjan's algorithm with an explicit stack.  A finished node's index
    becomes +inf, so later edges into it lower no low-link."""
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for e in edges:
        succ[e[0]].append(e[1])
    index: dict[str, float] = {}
    low: dict[str, float] = {}
    stack, comps = [], []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for u in it:
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append(u)
                    work.append((u, iter(succ[u])))
                    break
                if index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = POS_INF
                    comps.append(comp)
    return comps


def _components(nodes: list[str], edges) -> list[tuple[list[str], list, dict[str, int] | None]]:
    """Each strongly connected component of the edges (u, v, w) on nodes,
    with its inner edges and their _potential, None when those edges hold
    a negative cycle.  A closed walk stays in one component, so an orbit
    lies on a negative closed walk exactly when its component has no
    potential."""
    comps = _sccs(nodes, edges)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    inner: list[list[tuple[str, str, int]]] = [[] for _ in comps]
    for e in edges:
        if comp_of[e[0]] == comp_of[e[1]]:
            inner[comp_of[e[0]]].append(e)
    return [(comp, es, _potential(comp, es)) for comp, es in zip(comps, inner)]


def _walk_table(block: list[str], edges) -> list[list[float]]:
    """Floyd-Warshall over the lightest edge of each ordered pair: d[i][j]
    is the least weight of a walk of length >= 1 from block[i] to block[j]
    along the edges (u, v, w), or +inf when there is none.  The edges
    hold no negative cycle, so the table is exact."""
    n = len(block)
    pos = {v: k for k, v in enumerate(block)}
    d = [[POS_INF] * n for _ in range(n)]
    for (u, v, w) in edges:
        i, j = pos[u], pos[v]
        if w < d[i][j]:
            d[i][j] = w
    for k in range(n):
        row_k = [(j, w) for j, w in enumerate(d[k]) if w != POS_INF]
        for row in d:
            dik = row[k]
            if dik == POS_INF:
                continue
            for j, w in row_k:
                if dik + w < row[j]:
                    row[j] = dik + w
    return d


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

    A closed walk stays in one strongly connected component of the proper
    edges, and shift steps pad weight <= 0 up to zero.  So no orbit is
    directing in a component with a negative cycle, or with a periodic
    orbit (p shift steps close up, and offsets reduce mod p on the way).
    Any other component has a potential pi, under which a closed walk
    weighs 0 iff every edge on it is tight, pi(u) + w = pi(v): the orbits
    on a tight self-edge or in a tight component of two or more orbits
    are not directing, and the rest are."""
    proper = [(a, b, e.weight) for (a, b), hom_edges in g.homs.items()
              for e in hom_edges if not e.all_iso]
    free: list[str] = []
    tight: list[tuple[str, str]] = []
    for comp, edges, pi in _components(g.orbit_ids(), proper):
        if pi is not None and all(g.orbit(v).period is None for v in comp):
            free += comp
            tight += [(u, v) for (u, v, w) in edges if pi[u] + w == pi[v]]
    closed = {u for (u, v) in tight if u == v}
    closed.update(v for comp in _sccs(free, tight) if len(comp) > 1 for v in comp)
    return set(free) - closed
