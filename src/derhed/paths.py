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

Every graph here is successor lists {u: [(v, w), ...]} in (orbit,
weight) order, keyed by node in the order the solves take them; a
block's are its orbits' entries of the engine's (succ).  Whether an
orbit lies on a negative closed walk is decided per block: one potential
over the block settles a block with none, and only a block without one
is split into strongly connected components (_components), since a
closed walk stays in one component.  These runs and the single-source
solves (PathEngine.row) share one FIFO label-correcting loop (_relax),
which finds a potential or hands back the negative cycle its parent
pointers close.  A walk at -inf pumps that cycle between two
breadth-first legs (_bfs_tree).  Each source is solved once, over its
block's succ, with the orbits that its negative orbits reach preset to
-inf; its row serves min_weight, the witnesses and the canonical heart
(from sources of the block's tight edges under its potential; see
hereditary.check_hereditary), and a finite witness is a breadth-first
walk along the row's tight edges (_tight).  Breadth-first search
(_bfs_tree) also gives the blocks, over the links run both ways, and
Tarjan's strongly connected components (_sccs) give the directing
orbits, from _components of the non-invertible edges.
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


class PathEngine:
    """Shortest-walk machinery over one immutable shift-graph.

    One graph, the successor lists (succ), serves every block: no block
    keeps an edge list.  Each source is solved once, over its own block,
    into the row that every walk weight, witness and heart reads (row);
    min_weight puts targets in other blocks at +inf.  The -inf targets
    are the forward closure of the block's negative orbits (_negative_in)
    that the source reaches, preset so, and one _relax over the block's
    succ gives the rest.  A walk from the source weighs the least, d(v),
    exactly when every edge (u, v, w) on it is tight, d(u) + w = d(v), so
    breadth-first search over the tight edges finds a least walk with the
    fewest hom steps.  The engine keeps these solves, the heart rows of
    check_hereditary among them, and, per block, its potential (_pi) or a
    negative cycle of each negative component (_negative_in), which the
    -inf witnesses pump; check_hereditary reads the potential.
    """

    def __init__(self, g: ShiftGraph):
        self.g = g
        self.succ: dict[str, list[tuple[str, int]]] = {
            a: [(b, e.weight) for b in g.targets(a) for e in g.homs[(a, b)]]
            for a in sorted(g.orbit_ids())}
        self._blocks = _blocks_of(g)
        self._block_of = {v: i for i, blk in enumerate(self._blocks) for v in blk}
        self._dist_cache: dict[str, dict[str, float]] = {}
        self._negative: dict[int, dict[str, list[tuple[str, str, int]]]] = {}
        self._pi: dict[int, dict[str, int]] = {}

    # -- structure --

    def blocks(self) -> list[list[str]]:
        return [list(b) for b in self._blocks]

    # -- shortest walks --

    def row(self, x: str) -> dict[str, float]:
        """The least walk weights from orbit x to each orbit of its block,
        in block order: the engine's own cached row, solved on first use."""
        if x not in self.g._by_id:
            raise UnknownOrbit(x)
        if x in self._dist_cache:
            return self._dist_cache[x]
        i = self._block_of[x]
        # -inf: the forward closure of the negative orbits that x reaches
        # (none in a block with a potential); it holds its orbits'
        # successors and lowers no label, so _relax gives the rest
        negative = self._negative_in(i)
        dist = dict.fromkeys(self._blocks[i], POS_INF)
        dist[x] = 0
        if negative:
            dist.update(dict.fromkeys(_bfs_tree(self.succ, *(
                v for v in _bfs_tree(self.succ, x) if v in negative)), NEG_INF))
        _relax(self.succ, dist)
        self._dist_cache[x] = dist
        return dist

    def min_weight(self, x: str, y: str) -> float:
        """Minimum total weight of a walk from orbit x to orbit y; walks of
        length zero count, so min_weight(x, x) <= 0 always."""
        if y not in self.g._by_id:
            raise UnknownOrbit(y)
        return self.row(x).get(y, POS_INF)

    def _negative_in(self, i: int) -> dict[str, list[tuple[str, str, int]]]:
        """The orbits of block i on a negative closed walk, each mapped to a
        negative cycle of its strongly connected component; none when the
        block has a potential, which _pi[i] keeps."""
        if i not in self._negative:
            succ = {v: self.succ[v] for v in self._blocks[i]}
            pi = _potential(succ)
            if isinstance(pi, dict):
                self._pi[i], self._negative[i] = pi, {}
            else:
                self._negative[i] = {v: cycle for comp, _, cycle in _components(succ)
                                     if isinstance(cycle, list) for v in comp}
        return self._negative[i]

    def negative_walk_objects(self) -> set[str]:
        """Orbits on a negative closed walk: exactly those X admitting a
        path from X[1] back to X."""
        return {v for i in range(len(self._blocks)) for v in self._negative_in(i)}

    # -- witnesses --

    def walk_with_weight(self, x: str, y: str, target: int) -> list[tuple[str, str, int]] | None:
        """Hom-edge walk x -> y of total weight <= target; None when
        min_weight(x, y) > target.  The caller pads the difference with
        shift steps.  At a finite weight, of the least walks with the
        fewest hom steps, it is the first that breadth-first search finds
        along the tight edges in succ's order (by target, then weight).  At
        -inf the orbits that x reaches (read off x's solve) and that reach
        y (one reverse BFS) hold the whole component of each negative orbit
        among them, and the cycle kept for the least one's is pumped
        between BFS legs x -> cycle -> y; it starts at its least orbit, so
        a walk from X back to X with X on it has no legs."""
        mw = self.min_weight(x, y)
        if mw > target:
            return None
        dist = self.row(x)
        if mw != NEG_INF:
            # not a shortcut: at +-inf, _tight's inf + w overflows past float range
            finite = [v for v, d in dist.items() if NEG_INF < d < POS_INF]
            return _unwind(_bfs_tree(_tight(self.succ, dist, finite), x), x, y)
        # -inf: pump a negative cycle lying between x and y.
        rev = {v: [] for v in dist}
        for u in dist:
            for (v, w) in self.succ[u]:
                rev[v].append((u, w))
        negative = self._negative_in(self._block_of[x])
        cycle = negative[min(v for v in _bfs_tree(rev, y)
                             if v in negative and dist[v] != POS_INF)]
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


# -- blocks, reachability, walk unwinding and label-correcting solves --

def _unwind(pred: dict[str, tuple[str, int]], s: str, t: str) -> list[tuple[str, str, int]]:
    """The hom edges (u, v, w) of the walk s -> t along a predecessor map {v: (u, w)}
    rooted at s: a _bfs_tree from s, or _relax's parent pointers round a cycle through s."""
    path = []
    while t != s:
        u, w = pred[t]
        path.append((u, t, w))
        t = u
    path.reverse()
    return path


def _blocks_of(g: ShiftGraph) -> list[list[str]]:
    """The sorted connected components of the hom-edge graph: what each
    orbit not yet placed reaches breadth first (_bfs_tree) along its links
    to distinct orbits, run both ways."""
    links: dict[str, list[tuple[str, int]]] = {v: [] for v in g.orbit_ids()}
    for (a, b), hom_edges in g.homs.items():
        if a != b and hom_edges:
            links[a].append((b, 0))
            links[b].append((a, 0))
    seen: set[str] = set()
    comps = []
    for v in links:
        if v not in seen:
            comp = _bfs_tree(links, v)
            seen.update(comp)
            comps.append(sorted(comp))
    return sorted(comps)


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


def _tight(succ: dict[str, list[tuple[str, int]]], pi: dict[str, float],
           nodes) -> dict[str, list[tuple[str, int]]]:
    """Each u of nodes mapped to the (v, w) in succ[u] with pi[u] + w = pi[v]."""
    return {u: [(v, w) for (v, w) in succ[u] if pi[u] + w == pi[v]] for u in nodes}


def _potential(succ: dict[str, list[tuple[str, int]]]
               ) -> dict[str, int] | list[tuple[str, str, int]]:
    """pi with pi[v] <= pi[u] + w on every edge (v, w) of succ[u], or a
    negative cycle of succ from _relax: the least weight of a walk into
    each node, walks of length zero included (a virtual source with a
    weight-0 edge to every node), so pi <= 0.  succ leads from its nodes
    only to its nodes, and they are relaxed in its order."""
    return _relax(succ, dict.fromkeys(succ, 0))


def _relax(succ: dict[str, list[tuple[str, int]]], dist: dict[str, float]):
    """Bellman-Ford from every finite label of dist along succ's
    (node, weight) lists, scanning nodes from a FIFO queue: dist, lowered
    in place to exact least walk weights, or the first cycle the parent
    pointers close (_parent_cycle); every such cycle is negative (Tarjan
    1981).  A -inf label lowers nothing, so its node takes no turn: -inf
    plus an int weight past float range would overflow.
    The pointers stay internal: each lowered node maps to the edge (u, w)
    that last lowered it.  After every len(dist) relaxations they are
    walked from the last relaxed node (Cherkassky and Goldberg 1999).  The
    hop bound guarantees the end: a label walk of len(dist) edges repeats
    a node whose label fell in between, so it passes a negative cycle and
    the labels would fall for ever; from then on the pointers are walked
    after every relaxation.  While they hold no cycle each label is at
    least a root's plus a simple path's weight, so one forms, through the
    node just relaxed."""
    n = len(dist)
    parent: dict[str, tuple[str, int]] = {}
    hops = dict.fromkeys(dist, 0)
    queue = deque(v for v, d in dist.items() if NEG_INF < d < POS_INF)
    queued = set(queue)
    relaxed, every = 0, n
    while queue:
        u = queue.popleft()
        queued.discard(u)
        du, hu = dist[u], hops[u] + 1
        for (v, w) in succ[u]:
            dv = du + w
            if dv < dist[v]:
                dist[v] = dv
                hops[v] = hu
                parent[v] = (u, w)
                if hu >= n:
                    every = 1
                relaxed += 1
                if relaxed % every == 0:
                    cycle = _parent_cycle(parent, v)
                    if cycle:
                        return cycle
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    return dist


def _parent_cycle(parent: dict[str, tuple[str, int]], v: str) -> list[tuple[str, str, int]]:
    """The edges of the cycle that the walk from v along the parent pointers
    enters, from its least edge; [] when that walk reaches a node with no parent."""
    seen = set()
    while v not in seen:
        if v not in parent:
            return []
        seen.add(v)
        v = parent[v][0]
    u, w = parent[v]
    cycle = _unwind(parent, v, u) + [(u, v, w)]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def _sccs(succ: dict[str, list[tuple[str, int]]]) -> list[list[str]]:
    """The strongly connected components of succ's (node, weight) lists,
    by Tarjan's algorithm (Tarjan 1972) with an explicit stack, rooted in
    succ's node order.  A finished node's index becomes +inf, so later
    edges into it lower no low-link."""
    index: dict[str, float] = {}
    low: dict[str, float] = {}
    stack, comps = [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for (u, _w) in it:
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


def _components(succ: dict[str, list[tuple[str, int]]]
                ) -> list[tuple[list[str], dict, dict | list]]:
    """Each strongly connected component of succ, in Tarjan's order, with
    its inner successor lists and their _potential, a negative cycle when
    they have none.  A closed walk stays in one component, so an orbit
    lies on a negative closed walk exactly when its component has no
    potential."""
    comps = _sccs(succ)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    inners = [{u: [(v, w) for (v, w) in succ[u] if comp_of[v] == k] for u in comp}
              for k, comp in enumerate(comps)]
    return [(comp, inner, _potential(inner)) for comp, inner in zip(comps, inners)]


# -- public operations --

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
    proper = {a: [(b, e.weight) for b in g.targets(a) for e in g.homs[(a, b)] if not e.all_iso]
              for a in g.orbit_ids()}
    tight: dict[str, list[tuple[str, int]]] = {}
    for comp, inner, pi in _components(proper):
        if isinstance(pi, dict) and all(g.orbit(v).period is None for v in comp):
            tight.update(_tight(inner, pi, comp))
    closed = {u for u, out in tight.items() for (v, _w) in out if v == u}
    closed.update(v for comp in _sccs(tight) if len(comp) > 1 for v in comp)
    return set(tight) - closed
