"""Reference answers that do not come from derhed.

Every answer the benchmark gets from derhed is checked here against data
the benchmark builds itself from plain JSON-like dicts:

- walk weights, negative closed walks and blocks by a numpy min-plus
  Floyd-Warshall over the instance's own edge list;
- A_n Hom/Ext^1 tables of interval modules by a union-find solve of the
  commuting-square equations and the Euler form;
- homotopy hom dimensions between dual-number chains by a pure-Python
  rank of the total hom complex;
- witnesses by replaying every step against the instance's edges.

A rejected answer raises ``Mismatch`` with the reason.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

INF = math.inf
P = 32003


class Mismatch(Exception):
    """derhed's answer disagrees with the reference."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# -- instances as plain data --

def edge_table(inst: dict) -> dict[tuple[str, str], tuple[tuple[int, int, bool], ...]]:
    """(from, to) -> sorted (weight, dim, all_iso) triples of an instance dict."""
    return {
        (h["from"], h["to"]): tuple(sorted(
            (int(e["weight"]), int(e["dim"]), bool(e.get("all_iso", False)))
            for e in h["edges"]))
        for h in inst["homs"] if h["edges"]
    }


def table_instance(table: dict, genuine: bool, windowed: bool) -> dict:
    """An instance dict of aperiodic orbits from an edge table."""
    return {
        "genuine": genuine, "windowed": windowed,
        "orbits": [{"id": x, "period": None} for x in sorted({x for k in table for x in k})],
        "homs": [{"from": a, "to": b,
                  "edges": [{"weight": w, "dim": d, "all_iso": iso} for (w, d, iso) in es]}
                 for (a, b), es in sorted(table.items())],
    }


def check_edges(got: dict, expected: dict, what: str) -> None:
    """Edge-for-edge equality of two edge tables."""
    if got == expected:
        return
    keys = sorted(set(got) | set(expected))
    diff = [k for k in keys if got.get(k) != expected.get(k)]
    k = diff[0]
    raise Mismatch(f"{what}: {len(diff)} orbit pairs differ, first {k}: "
                   f"got {got.get(k)}, expected {expected.get(k)}")


class Graph:
    """Walk weights of one instance dict, computed once.

    ``dist[i, j]`` is the minimum total weight of a hom-edge walk i -> j
    (the empty walk counts, so the diagonal is <= 0), -inf when the walk
    can pass through a negative closed walk, +inf when j is unreachable.
    """

    def __init__(self, inst: dict):
        self.nodes = sorted(o["id"] for o in inst["orbits"])
        self.ix = {v: i for i, v in enumerate(self.nodes)}
        self.period = {o["id"]: o.get("period") for o in inst["orbits"]}
        self.edges = edge_table(inst)
        self.weights = {k: {w for (w, _d, _i) in es} for k, es in self.edges.items()}
        self.genuine = bool(inst.get("genuine", False))
        self.windowed = bool(inst.get("windowed", False))
        d, through = self._walks(proper_only=False)
        d[through] = -INF
        self.dist = d
        self.negative = {v for v in self.nodes if through[self.ix[v], self.ix[v]]}
        self.blocks = self._blocks()

    def _walks(self, proper_only: bool):
        """Floyd-Warshall over the lightest edge per orbit pair.  Returns
        the distance matrix (walks of length zero count unless
        proper_only, which also drops all_iso edges) and the pairs with a
        walk through a negative cycle; the diagonal of the latter marks
        the orbits on a negative closed walk."""
        n = len(self.nodes)
        d = np.full((n, n), INF)
        for (a, b), es in self.edges.items():
            ws = [w for (w, _d, iso) in es if not (proper_only and iso)]
            if ws:
                d[self.ix[a], self.ix[b]] = min(ws)
        if not proper_only:
            np.fill_diagonal(d, np.minimum(np.diag(d), 0.0))
        for k in range(n):
            d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
        neg = np.diag(d) < 0
        reach = (d < INF) | np.eye(n, dtype=bool)
        through = reach[:, neg].astype(np.int64) @ reach[neg, :].astype(np.int64) > 0
        return d, through

    def _blocks(self) -> list[list[str]]:
        parent = {v: v for v in self.nodes}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for (a, b) in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[str, list[str]] = {}
        for v in self.nodes:
            groups.setdefault(find(v), []).append(v)
        return sorted(sorted(g) for g in groups.values())

    def d(self, x: str, y: str) -> float:
        return float(self.dist[self.ix[x], self.ix[y]])

    def has_edge(self, a: str, b: str, w: int) -> bool:
        return w in self.weights.get((a, b), ())

    def canonical_heart(self, block: list[str]) -> dict[str, int]:
        """Offsets from the source whose heart has the least sorted
        offsets, ties broken by orbit id."""
        best = None
        for s in block:
            offs = {y: self.d(s, y) for y in block}
            key = (sorted(offs.values()), s)
            if best is None or key < best[0]:
                best = (key, offs)
        return {y: int(v) for y, v in best[1].items()}

    def m_values(self, block: list[str], offsets: dict[str, int]) -> Counter:
        """Heart degree m = w + d_a - d_b of every hom edge in the block."""
        inside = set(block)
        ms: Counter = Counter()
        for (a, b), es in self.edges.items():
            if a in inside and b in inside:
                for (w, _d, _i) in es:
                    ms[w + offsets[a] - offsets[b]] += 1
        return ms

    @functools.cached_property
    def directing(self) -> set[str]:
        """Orbits with no closed walk of length >= 1 made of non-invertible
        hom edges and total weight <= 0 (shift steps pad it up to 0), and
        not strongly connected to a periodic orbit through such edges."""
        d, through = self._walks(proper_only=True)
        reach = (d < INF) | np.eye(len(self.nodes), dtype=bool)
        periodic = [self.ix[p] for p in self.nodes if self.period[p] is not None]
        out = set()
        for v in self.nodes:
            i = self.ix[v]
            if d[i, i] <= 0 or through[i, i]:
                continue
            if any(reach[i, p] and reach[p, i] for p in periodic):
                continue
            out.add(v)
        return out


def encode(w: float):
    if w == INF:
        return "+inf"
    if w == -INF:
        return "-inf"
    return int(w)


# -- answer checkers --

def replay(g: Graph, steps: list[dict], start: tuple[str, int],
           end: tuple[str, int]) -> None:
    """Walk the witness step by step: a hom step needs an instance edge of
    exactly the offset difference, a shift step adds 1 on the same orbit."""
    expect(bool(steps), "empty witness")
    expect(steps[0]["kind"] == "start", "witness does not begin with a start step")
    at = (steps[0]["orbit"], steps[0]["offset"])
    expect(at == start, f"witness starts at {at}, expected {start}")
    for k, s in enumerate(steps[1:], start=1):
        nxt = (s["orbit"], s["offset"])
        if s["kind"] == "hom":
            expect(g.has_edge(at[0], nxt[0], nxt[1] - at[1]),
                   f"witness step {k}: no edge {at[0]} -> {nxt[0]} of weight {nxt[1] - at[1]}")
        elif s["kind"] == "shift":
            expect(nxt == (at[0], at[1] + 1), f"witness step {k}: bad shift {at} -> {nxt}")
        else:
            raise Mismatch(f"witness step {k}: unknown kind {s['kind']!r}")
        at = nxt
    expect(at == end, f"witness ends at {at}, expected {end}")


def check_block(g: Graph, block: list[str], rep: dict) -> bool:
    """One block of a hereditary decision (``HereditaryReport.to_dict()``
    or one entry of ``derhed check``).  Returns whether it is hereditary."""
    neg = {x for x in block if x in g.negative}
    expect(rep["negative_walk_indicator"] == {x: x in neg for x in block},
           f"negative-walk indicator differs on block {block[:3]}...")
    if neg:
        expect(rep["verdict"] == "not-hereditary",
               f"verdict {rep['verdict']!r}, expected not-hereditary")
        w = rep.get("witness")
        expect(w is not None, "not-hereditary block without a witness")
        x = w[0]["orbit"]
        expect(x in neg, f"witness starts at {x}, which lies on no negative closed walk")
        replay(g, w, (x, 1), (x, 0))
        return False
    want = "hereditary-within-window" if g.windowed else "hereditary"
    expect(rep["verdict"] == want, f"verdict {rep['verdict']!r}, expected {want}")
    check_heart(g, block, rep["heart"]["offsets"], rep["heart_check"],
                g.canonical_heart(block))
    return True


def check_heart(g: Graph, block: list[str], offsets: dict, heart_check: dict,
                expected: dict[str, int]) -> None:
    """Heart offsets against reference distances, and every heart degree m
    recomputed: m >= 0, and m in {0, 1} on genuine unwindowed instances."""
    got = {k: int(v) for k, v in offsets.items()}
    if got != expected:
        k = next(k for k in sorted(set(got) | set(expected)) if got.get(k) != expected.get(k))
        raise Mismatch(f"heart offset of {k}: got {got.get(k)}, expected {expected.get(k)}")
    ms = g.m_values(block, expected)
    expect(min(ms, default=0) >= 0, "reference heart has a negative degree")
    if g.genuine and not g.windowed:
        expect(set(ms) <= {0, 1}, f"genuine heart degrees {sorted(ms)} not in {{0, 1}}")
    expect(heart_check["ok"] is True, "heart_check.ok is not true")
    expect({int(k): v for k, v in heart_check["m_values"].items()} == dict(ms),
           "heart_check.m_values differ from the recomputed degrees")


def check_path(g: Graph, src: tuple[str, int], dst: tuple[str, int], rep: dict) -> None:
    mw = g.d(src[0], dst[0])
    expect(rep["min_weight"] == encode(mw),
           f"min_weight {src[0]} -> {dst[0]}: got {rep['min_weight']}, expected {encode(mw)}")
    exists = mw <= dst[1] - src[1]
    expect(rep["exists"] == exists, f"path exists: got {rep['exists']}, expected {exists}")
    if exists:
        expect(rep["witness"] is not None, "existing path without a witness")
        replay(g, rep["witness"], src, dst)


def check_classify(g: Graph, got: list[dict]) -> None:
    want = []
    for blk in g.blocks:
        kind = "non-degenerate"
        if len(blk) == 1 and all(iso for (_w, _d, iso) in g.edges.get((blk[0], blk[0]), ())):
            kind = "degenerate-periodic" if g.period[blk[0]] else "degenerate-aperiodic"
        want.append({"orbits": blk, "kind": kind})
    expect([{"orbits": b["orbits"], "kind": b["class"]["kind"]} for b in got] == want,
           "block classification differs")


# -- A_n: interval modules of a quiver of type A --

def an_arrows(n: int, orientation: str) -> list[tuple[int, int]]:
    """(source, target) vertex pairs; '>' is i -> i+1, '<' is i+1 -> i."""
    return [(i, i + 1) if c == ">" else (i + 1, i)
            for i, c in enumerate(orientation, start=1)]


def _interval_hom(arrows, I, J) -> int:
    """dim Hom(M_I, M_J) for interval modules: one scalar f_v per vertex in
    both intervals; an arrow s -> t with s in I and t in J imposes
    [t in I] f_t = [s in J] f_s (a missing f is zero)."""
    both = set(I) & set(J)
    parent = {v: v for v in both}
    zero = set()

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s, t in arrows:
        if s not in I or t not in J:
            continue
        has_t, has_s = t in both, s in both
        if has_t and has_s:
            parent[find(t)] = find(s)
        elif has_t:
            zero.add(t)
        elif has_s:
            zero.add(s)
    dead = {find(v) for v in zero}
    return len({find(v) for v in both} - dead)


@functools.cache
def an_edges(n: int, orientation: str) -> dict:
    """Reference edge table of the derived category of A_n: Hom at weight
    0, Ext^1 = Hom - <dim M, dim N> at weight 1."""
    arrows = an_arrows(n, orientation)
    mods = [(f"M{a}_{b}", range(a, b + 1)) for a in range(1, n + 1) for b in range(a, n + 1)]
    out = {}
    for na, I in mods:
        for nb, J in mods:
            h = _interval_hom(arrows, I, J)
            euler = len(set(I) & set(J)) - sum(1 for s, t in arrows if s in I and t in J)
            e = h - euler
            expect(e >= 0, "reference Euler form gave a negative Ext")
            es = []
            if h:
                es.append((0, h, na == nb and h == 1))
            if e:
                es.append((1, e, False))
            if es:
                out[(na, nb)] = tuple(es)
    return out


def rename(table: dict, names: dict[str, str]) -> dict:
    return {(names.get(a, a), names.get(b, b)): es for (a, b), es in table.items()}


# -- dual numbers k[e]/(e^2): chains C_m = (R -e-> R -e-> ... -> R) --

def rank_mod_p(rows: list[list[int]], p: int = P) -> int:
    m = [[x % p for x in r] for r in rows if any(x % p for x in r)]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def _hom_differential(i: int, j: int, k: int) -> tuple[int, list[list[int]]]:
    """(dim C^k, matrix of D: C^k -> C^(k+1)) of the total hom complex
    Hom(C_i, C_j), D f = d f - (-1)^k f d.  A component X^q -> Y^(q+k) is
    a + b e, coordinates (a, b); composing with e keeps only a e."""
    xs, ys = set(range(1 - i, 1)), set(range(1 - j, 1))
    src = [q for q in sorted(xs) if q + k in ys]
    tgt = [q for q in sorted(xs) if q + k + 1 in ys]
    col = {q: 2 * c for c, q in enumerate(src)}
    rows = []
    sign = -1 if k % 2 == 0 else 1
    for q in tgt:
        unit_row = [0] * (2 * len(src))
        eps_row = [0] * (2 * len(src))
        if q in col and q + k + 1 in ys and q + k in ys:  # d_Y after f_q
            eps_row[col[q]] += 1
        if q + 1 in col and q + 1 in xs:  # f_(q+1) after d_X
            eps_row[col[q + 1]] += sign
        rows.extend([unit_row, eps_row])
    return 2 * len(src), rows


@functools.cache
def dual_hom_dim(i: int, j: int, n: int, p: int = P) -> int:
    """dim Hom(C_i, C_j[n]) in the homotopy category, C_m in degrees
    -(m-1)..0."""
    dim, d_n = _hom_differential(i, j, n)
    if dim == 0:
        return 0
    _, d_prev = _hom_differential(i, j, n - 1)
    return dim - rank_mod_p(d_n, p) - rank_mod_p(d_prev, p)


@functools.cache
def dual_edges(length: int, window: int) -> dict:
    out = {}
    for i in range(1, length + 1):
        for j in range(1, length + 1):
            es = []
            for n in range(-window, window + 1):
                dim = dual_hom_dim(i, j, n)
                if dim:
                    es.append((n, dim, i == j and n == 0 and dim == 1))
            if es:
                out[(f"C{i}", f"C{j}")] = tuple(es)
    return out


def dual_algebra_dict() -> dict:
    return {"vertices": ["v"], "arrows": [{"id": "a", "from": "v", "to": "v"}],
            "relations": [["a", "a"]]}


def dual_chain_dict(m: int) -> dict:
    return {"name": f"C{m}",
            "degrees": {str(d): ["v"] for d in range(1 - m, 1)},
            "differentials": {str(d): [[[["a", 1]]]] for d in range(1 - m, 0)}}
