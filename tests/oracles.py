"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: ranks
come from minor enumeration, walk weights from bounded dynamic
programming plus explicit simple-cycle search, and homotopy-category hom
dimensions from vector-space-level chain-map equations.  The one
exception is an_tables, which runs the library's linear-algebra route
(quiver._hom_ext) as the check on the knitted gen_dynkin_an.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")


# -- exact rank via minor enumeration --


def _det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


def rank_oracle(mat: np.ndarray, p: int) -> int:
    m = np.asarray(mat, dtype=object) % p
    rows, cols = m.shape
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[int(m[r, c]) for c in ci] for r in ri]
                if _det_int(sub) % p != 0:
                    return k
    return 0


# -- walk weights by bounded min-plus DP --


def _min_edge_weights(g):
    """(u, v) -> lightest hom-edge weight, over stored edges."""
    out = {}
    for (a, b), edges in g.homs.items():
        out[(a, b)] = min(e.weight for e in edges)
    return out


def _succ(g):
    succ = {x: set() for x in g.orbit_ids()}
    for (a, b) in g.homs:
        succ[a].add(b)
    return succ


def _reach(succ, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _simple_cycles(w):
    """Every simple cycle of the weighted pairs w ((u, v) -> weight), once
    each (rooted at its least node), as (nodes, total weight)."""
    succ = {}
    for (a, b) in sorted(w):
        succ.setdefault(a, []).append(b)
    out = []

    def extend(start, path, total):
        for v in succ.get(path[-1], ()):
            step = total + w[(path[-1], v)]
            if v == start:
                out.append((tuple(path), step))
            elif v > start and v not in path:
                extend(start, path + [v], step)

    for s in succ:
        extend(s, [s], 0)
    return out


def _negative_cycle_nodes(g) -> set:
    """Nodes lying on some simple hom-edge cycle of negative total weight."""
    return {v for nodes, total in _simple_cycles(_min_edge_weights(g))
            if total < 0 for v in nodes}


def min_weight_oracle(g, x: str, y: str) -> float:
    """Minimum total weight of a hom-edge walk x -> y (length 0 allowed
    when x == y); -inf when a negative simple cycle sits on some x -> y
    corridor.  A periodic orbit needs no special case: its invertible
    self-edges at -p and +p are stored in g.homs like any other edge."""
    succ = _succ(g)
    reach_x = _reach(succ, x)
    tainted = _negative_cycle_nodes(g)
    for v in tainted & reach_x:
        if y in _reach(succ, v):
            return NEG_INF
    n = len(g.orbit_ids())
    w = _min_edge_weights(g)
    dist = {v: (0 if v == x else POS_INF) for v in g.orbit_ids()}
    best = dict(dist)
    for _ in range(n):
        nxt = {}
        for v in g.orbit_ids():
            vals = [dist[u] + w[(u, v)] for u in g.orbit_ids()
                    if (u, v) in w and dist[u] < POS_INF]
            nxt[v] = min(vals) if vals else POS_INF
        dist = nxt
        for v in dist:
            best[v] = min(best[v], dist[v])
    return best[y]


def min_steps_oracle(g, x: str, y: str, weight: int) -> int | None:
    """The least k <= |orbits| with a k-step hom-edge walk x -> y of total
    weight `weight`, by dynamic programming over exact step counts: the
    set of (orbit, weight) pairs that k-step walks from x end at, grown
    one hom edge at a time; None when no such k exists."""
    ends = {(x, 0)}
    for k in range(len(g.orbit_ids()) + 1):
        if (y, weight) in ends:
            return k
        ends = {(b, t + e.weight) for (u, t) in ends
                for (a, b), edges in g.homs.items() if a == u for e in edges}
    return None


def directing_oracle(g) -> set:
    """Orbits with no closed walk of length >= 1 made of non-invertible hom
    edges and total weight <= 0 (shift steps pad it up to 0), and not
    strongly connected through such edges to a periodic orbit.  Such a walk
    exists through x exactly when a simple cycle through x weighs <= 0, or
    x is strongly connected to a negative simple cycle (pump it)."""
    w = {}
    for (a, b), edges in g.homs.items():
        ws = [e.weight for e in edges if not e.all_iso]
        if ws:
            w[(a, b)] = min(ws)
    succ = {x: set() for x in g.orbit_ids()}
    for (a, b) in w:
        succ[a].add(b)
    reach = {x: _reach(succ, x) for x in g.orbit_ids()}
    seeds = {o.id for o in g.orbits if o.period is not None}
    closing = set()
    for nodes, total in _simple_cycles(w):
        if total < 0:
            seeds.update(nodes)
        if total <= 0:
            closing.update(nodes)
    return {x for x in g.orbit_ids() if x not in closing
            and not any(s in reach[x] and x in reach[s] for s in seeds)}


def enumerate_hom_walks(g, x: str, max_steps: int):
    """All hom-edge walks from x with at most max_steps steps, as
    (endpoint, total weight, steps) tuples."""
    out = []
    frontier = [(x, 0)]
    for step in range(1, max_steps + 1):
        nxt = []
        for (u, wt) in frontier:
            for (a, b), edges in g.homs.items():
                if a != u:
                    continue
                for e in edges:
                    nxt.append((b, wt + e.weight))
        out.extend((v, wt, step) for (v, wt) in nxt)
        frontier = nxt
    return out


# -- monomial algebras: relation-free paths by the definition --


def _contains_relation(arrows: tuple, relations) -> bool:
    return any(arrows[s:s + len(r)] == tuple(r)
               for r in relations for s in range(len(arrows) - len(r) + 1))


def relation_free_path_of(q, relations, n: int) -> bool:
    """Whether the quiver q has a relation-free path of n arrows, by n
    steps over the set of (end vertex, last L - 1 arrows) of the
    relation-free paths so far, L the longest relation: a new arrow can
    only complete a relation that ends with it, within its last L arrows."""
    keep = max(map(len, relations), default=1) - 1
    states = {(v, ()) for v in q.vertices}
    for _ in range(n):
        states = {(a.target, (tail + (a.id,))[max(0, len(tail) + 1 - keep):])
                  for (v, tail) in states for a in q.arrows if a.source == v
                  if not _contains_relation(tail + (a.id,), relations)}
    return bool(states)


def relation_free_paths(q, relations) -> set:
    """Every relation-free path of q as (source, arrow ids), grown arrow by
    arrow from the trivial paths (a prefix of a relation-free path is
    relation-free); only terminates when there are finitely many."""
    out, todo = set(), [(v, v, ()) for v in q.vertices]
    while todo:
        source, end, arrows = todo.pop()
        out.add((source, arrows))
        todo.extend((source, a.target, arrows + (a.id,)) for a in q.arrows
                    if a.source == end and not _contains_relation(arrows + (a.id,), relations))
    return out


# -- homotopy-category hom dimension at the vector-space level --


def _proj_basis(alg, v: str):
    """Basis indices of the projective at vertex v: paths starting at v."""
    return [i for i, b in enumerate(alg.basis) if b.source == v]


def concat_product(alg, i: int, j: int):
    """Index of basis[i] * basis[j] by the definition, without the
    algebra's product table: concatenate the arrows, return None when the
    paths do not compose or the result contains a relation as a subword,
    and otherwise find the basis path with that source and those arrows."""
    p, q = alg.basis[i], alg.basis[j]
    if p.target != q.source:
        return None
    arrows = p.arrows + q.arrows
    for rel in alg.relations:
        if any(arrows[s:s + len(rel)] == rel for s in range(len(arrows) - len(rel) + 1)):
            return None
    return next(k for k, b in enumerate(alg.basis)
                if b.source == p.source and b.arrows == arrows)


def _premult_matrix(alg, g_idx: int, src_vertex: str, dst_vertex: str,
                    p: int) -> np.ndarray:
    """Matrix of left multiplication by basis path g (a path dst -> src)
    as a map P_src -> P_dst on path bases."""
    src_basis = _proj_basis(alg, src_vertex)
    dst_basis = _proj_basis(alg, dst_vertex)
    pos = {k: r for r, k in enumerate(dst_basis)}
    m = np.zeros((len(dst_basis), len(src_basis)), dtype=np.int64)
    for c, k in enumerate(src_basis):
        prod = concat_product(alg, g_idx, k)
        if prod is not None:
            m[pos[prod], c] = 1
    return m % p


def _elem_matrix(alg, elem: dict, src_vertex: str, dst_vertex: str,
                 p: int) -> np.ndarray:
    src_basis = _proj_basis(alg, src_vertex)
    dst_basis = _proj_basis(alg, dst_vertex)
    m = np.zeros((len(dst_basis), len(src_basis)), dtype=np.int64)
    for g_idx, coeff in elem.items():
        m = (m + coeff * _premult_matrix(alg, g_idx, src_vertex, dst_vertex, p)) % p
    return m


def _space(alg, cx, d: int):
    """Per-summand vector-space offsets and total dimension of degree d."""
    offs, total = [], 0
    for v in cx.summands(d):
        offs.append((v, total))
        total += len(_proj_basis(alg, v))
    return offs, total


def _diff_matrix(alg, cx, d: int, p: int) -> np.ndarray:
    """Vector-space matrix of the differential cx_d -> cx_{d+1}."""
    src_offs, src_total = _space(alg, cx, d)
    dst_offs, dst_total = _space(alg, cx, d + 1)
    m = np.zeros((dst_total, src_total), dtype=np.int64)
    entries = cx.diffs.get(d)
    if entries is None:  # a missing differential is zero
        return m
    for i, (sv, so) in enumerate(src_offs):
        for j, (tv, to) in enumerate(dst_offs):
            blk = _elem_matrix(alg, entries[i][j], sv, tv, p)
            m[to:to + blk.shape[0], so:so + blk.shape[1]] = blk
    return m


def _map_coords(alg, x, y, dx: int, dy: int):
    """Unknown coordinates of an A-linear map x_dx -> y_dy: one per
    (source summand, target summand, connecting path)."""
    coords = []
    for i, u in enumerate(x.summands(dx)):
        for j, w in enumerate(y.summands(dy)):
            for g_idx, b in enumerate(alg.basis):
                if (b.source, b.target) == (w, u):
                    coords.append((i, j, g_idx))
    return coords


def _coords_to_matrix(alg, x, y, dx: int, dy: int, coords, vec, p: int):
    src_offs, src_total = _space(alg, x, dx)
    dst_offs, dst_total = _space(alg, y, dy)
    m = np.zeros((dst_total, src_total), dtype=np.int64)
    for (i, j, g_idx), c in zip(coords, vec):
        if c % p == 0:
            continue
        sv, so = src_offs[i]
        tv, to = dst_offs[j]
        blk = _premult_matrix(alg, g_idx, sv, tv, p)
        m[to:to + blk.shape[0], so:so + blk.shape[1]] = (
            m[to:to + blk.shape[0], so:so + blk.shape[1]] + c * blk) % p
    return m


def _matrix_to_coords(alg, x, y, dx: int, dy: int, coords, m, p: int):
    """Read premultiplication coordinates back off a vector-space matrix
    by evaluating on the unit path of each source summand."""
    src_offs, _ = _space(alg, x, dx)
    dst_offs, _ = _space(alg, y, dy)
    out = []
    for (i, j, g_idx) in coords:
        sv, so = src_offs[i]
        tv, to = dst_offs[j]
        src_basis = _proj_basis(alg, sv)
        dst_basis = _proj_basis(alg, tv)
        unit_col = so + src_basis.index(alg.index[f"e_{sv}"])
        row = to + dst_basis.index(g_idx)
        out.append(int(m[row, unit_col]) % p)
    return out


def hom_oracle(alg, x, y, n: int, p: int) -> int:
    """dim Hom_{K}(X, Y[n]) by solving the chain-map equations directly
    on vector-space matrices and quotienting by null-homotopies."""
    degs_f = sorted(d for d in x.degrees if (d + n) in y.degrees)
    f_coords = {d: _map_coords(alg, x, y, d, d + n) for d in degs_f}
    f_index = {}
    nf = 0
    for d in degs_f:
        for c in f_coords[d]:
            f_index[(d, c)] = nf
            nf += 1
    if nf == 0:
        return 0
    sign = (-1) ** n

    # chain-map condition: sign * d_Y f_d - f_{d+1} d_X = 0 in every degree
    rows = []
    for d in sorted(x.degrees):
        tgt = d + n + 1
        if tgt not in y.degrees:
            continue
        _, x_dim = _space(alg, x, d)
        _, y_dim = _space(alg, y, tgt)
        if y_dim == 0 or x_dim == 0:
            continue
        eq = np.zeros((y_dim * x_dim, nf), dtype=np.int64)
        if d in degs_f:
            dy = _diff_matrix(alg, y, d + n, p)
            for c in f_coords[d]:
                fm = _coords_to_matrix(alg, x, y, d, d + n, f_coords[d],
                                       [1 if cc == c else 0 for cc in f_coords[d]], p)
                eq[:, f_index[(d, c)]] = (sign * (dy @ fm)).ravel() % p
        if (d + 1) in degs_f:
            dxm = _diff_matrix(alg, x, d, p)
            for c in f_coords[d + 1]:
                fm = _coords_to_matrix(alg, x, y, d + 1, d + n + 1,
                                       f_coords[d + 1],
                                       [1 if cc == c else 0 for cc in f_coords[d + 1]], p)
                eq[:, f_index[(d + 1, c)]] = (
                    eq[:, f_index[(d + 1, c)]] - (fm @ dxm).ravel()) % p
        rows.append(eq % p)
    eqm = np.vstack(rows) if rows else np.zeros((0, nf), dtype=np.int64)
    cycles = nf - rank_oracle_gauss(eqm, p)

    # null-homotopies: f = sign * d_Y h_d + h_{d+1} d_X
    degs_h = sorted(d for d in x.degrees if (d + n - 1) in y.degrees)
    h_coords = {d: _map_coords(alg, x, y, d, d + n - 1) for d in degs_h}
    nh = sum(len(h_coords[d]) for d in degs_h)
    bnd = np.zeros((nf, nh), dtype=np.int64)
    col = 0
    for d in degs_h:
        for c in h_coords[d]:
            hm = _coords_to_matrix(alg, x, y, d, d + n - 1, h_coords[d],
                                   [1 if cc == c else 0 for cc in h_coords[d]], p)
            # contribution to f_d via d_Y h_d
            if d in degs_f:
                dy = _diff_matrix(alg, y, d + n - 1, p)
                fd = (sign * (dy @ hm)) % p
                vec = _matrix_to_coords(alg, x, y, d, d + n, f_coords[d], fd, p)
                for cc, val in zip(f_coords[d], vec):
                    bnd[f_index[(d, cc)], col] = (bnd[f_index[(d, cc)], col] + val) % p
            # contribution to f_{d-1} via h_d d_X
            if (d - 1) in degs_f:
                dxm = _diff_matrix(alg, x, d - 1, p)
                fd = (hm @ dxm) % p
                vec = _matrix_to_coords(alg, x, y, d - 1, d + n - 1,
                                        f_coords[d - 1], fd, p)
                for cc, val in zip(f_coords[d - 1], vec):
                    bnd[f_index[(d - 1, cc)], col] = (
                        bnd[f_index[(d - 1, cc)], col] + val) % p
            col += 1
    boundaries = rank_oracle_gauss(bnd, p)
    return cycles - boundaries


# -- the Euler form on K_0, from path counts and terms alone --


def cartan(alg) -> dict[tuple[str, str], int]:
    """C[a, b]: the number of paths from b to a that contain no relation,
    which is dim Hom(P_a, P_b).  The paths are grown arrow by arrow from
    the quiver and the relations, not read off the algebra's basis."""
    vertices, arrows = alg.quiver.vertices, alg.quiver.arrows
    out = {(a, b): 0 for a in vertices for b in vertices}
    frontier = [(v, v, ()) for v in vertices]  # (start, end, arrow names)
    while frontier:
        grown = []
        for start, end, path in frontier:
            out[end, start] += 1
            for arr in arrows:
                longer = path + (arr.id,)
                if arr.source == end and not any(longer[-len(rel):] == rel
                                                 for rel in alg.relations):
                    grown.append((start, arr.target, longer))
        frontier = grown
    return out


def k0_class(x) -> dict[str, int]:
    """[X] = sum_i (-1)^i [X^i]: each vertex's summands of X, counted with
    the sign of their degree."""
    out: dict[str, int] = {}
    for d, vs in x.degrees.items():
        for v in vs:
            out[v] = out.get(v, 0) + (-1) ** d
    return out


def rank_oracle_gauss(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p) via pure-Python row reduction; used where minor
    enumeration would be too slow, still independent of the library
    implementation."""
    m = [[int(v) % p for v in row] for row in np.asarray(mat)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- quiver representations: the Hom system from its definition --


def hom_ext_oracle(vertices, arrows, mdims: dict, mmaps: dict, ndims: dict,
                   nmaps: dict, p: int) -> tuple[int, int]:
    """(kernel, cokernel) dimensions over GF(p) of the map
    (f_v) -> (f_t M_a - N_a f_s)_a, with f_v an N_v x M_v matrix, written
    from the definition: one column per entry of each f_v, the image of
    the unit family of that entry computed by matrix products entry by
    entry, ranked by rank_oracle_gauss.  arrows are (id, source, target)
    triples; a vertex missing from a dims dict has dim 0, and an arrow
    missing from a maps dict carries the zero map."""
    dm = {v: mdims.get(v, 0) for v in vertices}
    dn = {v: ndims.get(v, 0) for v in vertices}

    def matrix(maps, aid, rows, cols):
        return maps.get(aid) or [[0] * cols for _ in range(rows)]

    unknowns = [(v, r, c) for v in vertices for r in range(dn[v]) for c in range(dm[v])]
    targets = [(a, i, j) for a in arrows for i in range(dn[a[2]]) for j in range(dm[a[1]])]
    mat = np.zeros((len(targets), len(unknowns)), dtype=object)
    for col, unit in enumerate(unknowns):
        f = {v: [[int((v, r, c) == unit) for c in range(dm[v])] for r in range(dn[v])]
             for v in vertices}
        for row, ((aid, s, t), i, j) in enumerate(targets):
            ma = matrix(mmaps, aid, dm[t], dm[s])
            na = matrix(nmaps, aid, dn[t], dn[s])
            mat[row, col] = (sum(f[t][i][k] * ma[k][j] for k in range(dm[t]))
                             - sum(na[i][k] * f[s][k][j] for k in range(dn[s])))
    rank = rank_oracle_gauss(mat, p)
    return len(unknowns) - rank, len(targets) - rank


# -- A_n representations: the Euler form and closed-form interval dims --


def euler_form(q, d: dict[str, int], e: dict[str, int]) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: u->v} d_u e_v, which on a
    hereditary path algebra equals dim Hom - dim Ext^1."""
    val = sum(d.get(v, 0) * e.get(v, 0) for v in q.vertices)
    for a in q.arrows:
        val -= d.get(a.source, 0) * e.get(a.target, 0)
    return val


# closed-form answers for the interval modules [a, b] and [c, d] over the
# linearly oriented A_n (the projective at i is the interval [i, n]; a
# one-step projective resolution of [a, b] gives the ext formula)

def hom_formula(a, b, c, d):
    return 1 if (c <= a <= d <= b) else 0


def ext_formula(n, a, b, c, d):
    top = 1 if (b + 1 <= n and c <= b + 1 <= d) else 0
    mid = 1 if (c <= a <= d) else 0
    return top - mid + hom_formula(a, b, c, d)


def interval_reps(alg, n: int) -> list:
    """[(M{a}_{b}, the interval representation on [a, b])] over an A_n
    algebra with vertices "1".."n", by a and then b: dimension 1 on [a, b]
    and the identity on each arrow inside it."""
    from derhed.quiver import Representation

    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            dims = {str(v): int(a <= v <= b) for v in range(1, n + 1)}
            maps = {arrow.id: [[1]] for arrow in alg.quiver.arrows
                    if a <= int(arrow.source) <= b and a <= int(arrow.target) <= b}
            out.append((f"M{a}_{b}", Representation(alg, dims, maps)))
    return out


def an_tables(n: int, word: str, fld):
    """The AbelianData of the A_n path algebra with this orientation word,
    by linear algebra: one GF(p) Hom system (quiver._hom_ext) per ordered
    pair of interval modules gives Hom and Ext^1."""
    from derhed.generators import _an_quiver
    from derhed.quiver import MonomialAlgebra, _hom_ext
    from derhed.shiftgraph import AbelianData

    items = interval_reps(MonomialAlgebra(_an_quiver(n, word), []), n)
    hom, ext1 = {}, {}
    for nm_a, ra in items:
        for nm_b, rb in items:
            h, e = _hom_ext(ra, rb, fld)
            if h:
                hom[(nm_a, nm_b)] = h
            if e:
                ext1[(nm_a, nm_b)] = e
    return AbelianData(tuple(nm for nm, _ in items), hom, ext1)


# -- cone closure by scanning every orbit --


def cone_warnings_oracle(g) -> list:
    """The cone-closure warnings validate gives a genuine, structurally
    valid g: a non-invertible edge a -> b of weight n warns unless some
    orbit z carries non-invertible edges b -> z of weight u and z -> a of
    weight v with u + v = 1 - n, modulo the gcd of whichever of a, b and z
    are periodic.  Every orbit z is tried, whether or not (b, z) is stored."""
    if not g.genuine:
        return []

    def weights(u, v):
        return [e.weight for e in g.homs.get((u, v), ()) if not e.all_iso]

    out = []
    for (a, b) in sorted(g.homs):
        for e in g.homs[(a, b)]:
            if e.all_iso:
                continue
            found = False
            for z in g.orbit_ids():
                periods = [g.orbit(o).period for o in (a, b, z) if g.orbit(o).period]
                mod = math.gcd(*periods) if periods else 0
                for u in weights(b, z):
                    for v in weights(z, a):
                        gap = u + v - (1 - e.weight)
                        found = found or (gap == 0 if mod == 0 else gap % mod == 0)
            if not found:
                out.append(f"cone closure: no orbit completes the non-invertible edge "
                           f"{a} -> {b} (weight {e.weight}) to a triangle path")
    return out


# -- random instances and witness checking --


def random_graph(rng, max_orbits: int = 6, w_lo: int = -3, w_hi: int = 3,
                 edge_prob: float = 0.35, name: str = "random",
                 periodic_prob: float = 0.0, prefix: str = "O"):
    """Random shift-graph with identity self-edges and uniform extra hom
    edges; structurally valid by construction.  Each orbit is periodic with
    probability periodic_prob, with period 1 or 2 and its invertible
    self-edges at -p, 0 and +p.  With the default 0 no random draw goes to
    periods, so the aperiodic graph drawn from a seed does not depend on
    this option."""
    from derhed.shiftgraph import HomEdge, Orbit, ShiftGraph

    n = int(rng.integers(1, max_orbits + 1))
    ids = [f"{prefix}{i}" for i in range(n)]
    periods = {}
    if periodic_prob:
        for a in ids:
            if rng.random() < periodic_prob:
                periods[a] = int(rng.integers(1, 3))
    homs = {}
    for a in ids:
        p = periods.get(a)
        iso = {0} if p is None else {-p, 0, p}
        for b in ids:
            ws = set(iso) if a == b else set()
            for w in range(w_lo, w_hi + 1):
                if w == 0 and a == b:
                    continue
                if rng.random() < edge_prob / (w_hi - w_lo + 1) * 2:
                    ws.add(w)
            if ws:
                homs[(a, b)] = tuple(
                    HomEdge(w, 1, all_iso=(a == b and w in iso)) for w in sorted(ws))
    return ShiftGraph(name, [Orbit(i, periods.get(i)) for i in ids], homs)


def disjoint_union(*graphs, name: str = "union"):
    """One shift-graph holding the given graphs side by side; their orbit
    ids must be distinct."""
    from derhed.shiftgraph import ShiftGraph

    return ShiftGraph(name, [o for g in graphs for o in g.orbits],
                      {k: v for g in graphs for k, v in g.homs.items()})


def periodic_sink():
    """A -> B (weight 5) -> P (weight 0) with P of period 1 and nothing
    leaving P: only pairs whose walks can enter P are at -inf."""
    from derhed.shiftgraph import HomEdge, Orbit, ShiftGraph

    ident = (HomEdge(0, 1, all_iso=True),)
    return ShiftGraph("periodic_sink", [Orbit("A"), Orbit("B"), Orbit("P", 1)], {
        ("A", "A"): ident,
        ("B", "B"): ident,
        ("P", "P"): tuple(HomEdge(w, 1, all_iso=True) for w in (-1, 0, 1)),
        ("A", "B"): (HomEdge(5, 1),),
        ("B", "P"): (HomEdge(0, 1),),
    })


def check_witness(g, steps, src, dst) -> bool:
    """Whether a reported witness is a legal walk (hom steps and unit shifts) from src to dst."""
    if not steps:
        return False
    if steps[0].kind != "start" or steps[0].at != src:
        return False
    cur = steps[0].at
    for s in steps[1:]:
        if s.kind == "shift":
            if s.at.orbit != cur.orbit or s.at.offset != cur.offset + 1:
                return False
        elif s.kind == "hom":
            w = s.at.offset - cur.offset
            if not any(e.weight == w
                       for e in g.edges_between(cur.orbit, s.at.orbit)):
                return False
        else:
            return False
        cur = s.at
    return cur == dst


def check_degree_witness(g, steps) -> bool:
    """Whether a reported degree witness is a closed chain of heart-degree
    constraints of negative total weight, each read off a hom edge of g:
    a "forward" edge (a, b, w) asks d_b <= d_a + w (m >= 0), a "reversed"
    one d_a <= d_b + 1 - w (m <= 1).  Summing the constraints round the
    chain gives 0 <= total, so no offsets satisfy them all."""
    if not steps:
        return False
    chain = []
    for s in steps:
        a, b, w = s["from"], s["to"], s["weight"]
        if not any(e.weight == w for e in g.edges_between(a, b)):
            return False
        if s["direction"] == "forward":
            chain.append((a, b, w))
        elif s["direction"] == "reversed":
            chain.append((b, a, 1 - w))
        else:
            return False
    closed = all(chain[k][1] == chain[(k + 1) % len(chain)][0] for k in range(len(chain)))
    return closed and sum(w for (_a, _b, w) in chain) < 0


# One field of an instance dict per entry, set to a value of the wrong JSON
# type; ShiftGraph.from_dict must refuse each.  The values are ones that
# int(), bool() or a comparison would let through.
WRONG_FIELD_TYPES = [
    ("name", 5),
    ("id", 7),
    ("from", 5),
    ("to", None),
    ("weight", True),
    ("dim", 1.0),
    ("end_dim", True),
    ("period", 2.0),
    ("all_iso", 1),
    ("genuine", "false"),
    ("windowed", 1),
    ("field_char", 101.9),
]

# One field of an instance dict per entry, set to a value of the right type
# that the records refuse, with the message ShiftGraph.from_dict gives.
REFUSED_FIELD_VALUES = [
    ("dim", 0, "hom edges record nonzero hom-spaces: dim >= 1"),
    ("dim", -1, "hom edges record nonzero hom-spaces: dim >= 1"),
    ("end_dim", 0, "end_dim >= 1 (identity morphism)"),
    ("period", 0, "period must be a positive integer"),
]


def with_field(inst: dict, field: str, value) -> dict:
    """A deep copy of an instance dict with field set to value in the
    top level, the first orbit, the first hom or its first edge."""
    inst = copy.deepcopy(inst)
    record = {"name": inst, "genuine": inst, "windowed": inst, "field_char": inst,
              "id": inst["orbits"][0], "end_dim": inst["orbits"][0],
              "period": inst["orbits"][0], "from": inst["homs"][0],
              "to": inst["homs"][0]}.get(field, inst["homs"][0]["edges"][0])
    record[field] = value
    return inst
