"""Bounded complexes of projectives over a monomial algebra, and hom
computation in their homotopy category.

A complex stores, per degree (in ascending order), a list of vertices,
each naming one indecomposable projective summand, and, per degree d, a
matrix of algebra elements: entry (i, j) is the component from summand i
of degree d to summand j of degree d+1 and lies in e_w A e_v, v and w the
vertices of the source and target summands (module maps between
projectives act by left multiplication, see quiver.py).

hom_k_dim computes Hom(X, Y[n]) in the homotopy category as the n-th
cohomology of the total hom complex: degree-n maps modulo those of the
form d s + (-1)^(n-1) s d.  Everything reduces to rank and nullspace over
the configured prime field.  The degree-m maps have one coordinate per
(degree i, X-summand a, Y-summand b at i+m, basis path of e_{vb} A
e_{va}), in blocks: _hom_blocks gives each (i, a, b) with a path an
offset, ascending with i, then a, then b (which fixes the End basis), and
path k of the block sits at offset + alg._slot[k].  The blocks of degree
m are built once and shared by the boundaries d_(m-1) and d_m, each a list
of sparse rows, one dict of nonzero entries per target coordinate, as the
GF(p) kernels take them.  Every path product comes from the algebra's table.

build_shiftgraph_from_complexes works from one window table of hom
dimensions per ordered pair of complexes (each hom-complex boundary
built and ranked once) and one EndAlgebra per complex, and runs the
exact isomorphism test only where an exact dimension filter allows an
isomorphism.

EndAlgebra builds the multiplication table of End(X) once: it composes
every ordered pair of basis chain maps and expresses all dim**2
composites in the End basis with one stacked solve.  The radical (trace
form) and the locality test read their matrices off that table.
"""

from __future__ import annotations

import operator
from typing import Optional

from .linalg import FieldTooSmall, PrimeField
from .quiver import MonomialAlgebra
from .shiftgraph import HomEdge, Orbit, ShiftGraph

# an algebra element: basis index -> coefficient (nonzero, mod p)
AlgElem = dict[int, int]


class AlgebraMismatch(Exception):
    pass


def _compose(alg: MonomialAlgebra, first: AlgElem, second: AlgElem, p: int) -> AlgElem:
    """Composite of module maps: apply `first`, then `second`.  With maps
    acting by left multiplication this is the algebra product second * first
    (concatenate `second`, then `first`) on coefficient dicts."""
    out: AlgElem = {}
    mul = alg._mul
    for i, ci in second.items():
        products = mul[i]
        for j, cj in first.items():
            k = products.get(j)
            if k is not None:
                out[k] = (out.get(k, 0) + ci * cj) % p
    return {k: c for k, c in out.items() if c}


class ProjComplex:
    """Summands at quiver vertices, each differential of the shape they give
    and each entry in e_w A e_v: the constructor refuses any other complex
    with a ValueError naming the first fault.  check_complex tests d o d."""

    def __init__(self, algebra: MonomialAlgebra, degrees: dict[int, list[str]],
                 diffs: dict[int, list[list[AlgElem]]] | None = None, name: str = ""):
        self.algebra = algebra
        self.degrees = dict(sorted((int(d), list(vs)) for d, vs in degrees.items() if vs))
        self.diffs = {int(d): [[dict(e) for e in row] for row in m]
                      for d, m in (diffs or {}).items()}
        self.name = name
        known = set(self.algebra.quiver.vertices)
        bad = sorted({v for vs in self.degrees.values() for v in vs} - known)
        if bad:
            raise ValueError(f"summands at unknown vertices: {bad}")
        basis = algebra.basis
        for d, m in sorted(self.diffs.items()):
            src, tgt = self.summands(d), self.summands(d + 1)
            if len(m) != len(src) or any(len(row) != len(tgt) for row in m):
                raise ValueError(f"degree {d}: differential shape mismatch")
            for i, row in enumerate(m):
                for j, e in enumerate(row):
                    if any(basis[k].source != tgt[j] or basis[k].target != src[i] for k in e):
                        raise ValueError(f"degree {d}: entry ({i}, {j}) not in "
                                         f"e_{tgt[j]} A e_{src[i]}")

    def summands(self, d: int) -> list[str]:
        return self.degrees.get(d, [])

    def is_zero(self) -> bool:
        return not self.degrees

    def top_degree(self) -> Optional[int]:
        return max(self.degrees) if self.degrees else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "degrees": {str(d): list(vs) for d, vs in sorted(self.degrees.items())},
            "differentials": {
                str(d): [
                    [sorted([self.algebra.basis[i].label, int(c)] for i, c in e.items())
                     for e in row]
                    for row in m
                ]
                for d, m in sorted(self.diffs.items())
            },
        }

    @classmethod
    def from_dict(cls, alg: MonomialAlgebra, d: dict) -> "ProjComplex":
        if not isinstance(d, dict):
            raise ValueError("a complex must be a JSON object")
        raw_degrees, raw_diffs = d.get("degrees", {}), d.get("differentials", {})
        if not isinstance(raw_degrees, dict) or not isinstance(raw_diffs, dict):
            raise ValueError("degrees and differentials must be JSON objects")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"complex name {name!r} is not a string")
        degrees = {}
        for k, vs in raw_degrees.items():
            if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
                raise ValueError(f"degree {k}: summands must be a list of vertex names")
            degrees[int(k)] = vs

        def term(label, coeff):
            if label not in alg.index:
                raise ValueError(f"unknown basis path {label!r}")
            # bool is an int subclass; JSON true is not a coefficient
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient {coeff!r} of {label!r} is not an integer")
            return alg.index[label], coeff

        diffs = {int(k): [[dict(term(*t) for t in entry) for entry in row] for row in rows]
                 for k, rows in raw_diffs.items()}
        # keys such as "0", " 0" and "+0" all name degree 0
        if len(degrees) < len(raw_degrees) or len(diffs) < len(raw_diffs):
            raise ValueError("two keys of degrees or differentials name the same degree")
        return cls(alg, degrees, diffs, name=name)


def shift_complex(c: ProjComplex, k: int, p: int) -> ProjComplex:
    """The complex X[k] over GF(p): degrees move down by k, and the
    differentials pick up the sign (-1)^k, reduced into [0, p)."""
    sign = -1 if k % 2 else 1
    diffs = {d - k: [[{i: sign * cc % p for i, cc in e.items() if cc % p} for e in row]
                     for row in m]
             for d, m in c.diffs.items()}
    return ProjComplex(c.algebra, {d - k: vs for d, vs in c.degrees.items()}, diffs,
                       name=c.name)


def check_complex(c: ProjComplex, p: int) -> list[str]:
    """The errors of a complex, none when it is valid: d o d = 0 in every
    degree over GF(p), exactly via the multiplication table.  The shapes
    and vertices of the entries ProjComplex itself refuses."""
    alg = c.algebra
    errors: list[str] = []
    for d, d1 in sorted(c.diffs.items()):
        d2 = c.diffs.get(d + 1)
        if d2 is None:
            continue  # a missing differential is zero
        for i in range(len(d1)):
            for k in range(len(c.summands(d + 2))):
                acc: AlgElem = {}
                for j in range(len(d2)):
                    for b, cc in _compose(alg, d1[i][j], d2[j][k], p).items():
                        acc[b] = (acc.get(b, 0) + cc) % p
                if any(acc.values()):
                    errors.append(f"degree {d}: d o d is nonzero at ({i}, {k})")
    return errors


# -- hom complex assembly --

def _hom_blocks(x: ProjComplex, y: ProjComplex, n: int):
    """The blocks {(i, a, b): (offset, paths)} of the degree-n graded maps
    X -> Y, paths the basis of e_{vb} A e_{va}, and their coordinate count.
    Every Hom computation starts here, so it refuses two algebras."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("complexes live over different algebras")
    between, ydeg = x.algebra._between, y.degrees
    blocks, size = {}, 0
    for i, xs in x.degrees.items():
        ys = ydeg.get(i + n)
        for a, va in enumerate(xs if ys else ()):
            for b, vb in enumerate(ys):
                paths = between.get((vb, va))
                if paths:
                    blocks[i, a, b] = (size, paths)
                    size += len(paths)
    return blocks, size


def _hom_boundary(x: ProjComplex, y: ProjComplex, n: int, src, tgt,
                  p: int) -> list[dict[int, int]]:
    """Matrix of the hom-complex differential from degree-n maps to
    degree-(n+1) maps, f -> d_Y f - (-1)^n f d_X, given the blocks of both
    (_hom_blocks for n and n + 1), as one dict of nonzero entries per
    target coordinate.  Product k lands at offset + slot[k] of the target
    block, found once per source block and differential entry (ProjComplex
    keeps every entry on the vertices of its summands), and no entry gets
    two terms, as a path product fixes each factor."""
    (blocks, _), (tgt_blocks, size) = src, tgt
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    mul, slot = x.algebra._mul, x.algebra._slot
    sign = -1 if n % 2 == 0 else 1  # coefficient of the f d_X term
    for (i, a, b), (off, paths) in blocks.items():
        # d_Y f: the path q, then entry (b, c) of d_Y, into block (i, a, c)
        dy = y.diffs.get(i + n)
        for c, e in enumerate(dy[b] if dy is not None else ()):
            t = tgt_blocks.get((i, a, c))
            for idx, coeff in e.items() if t is not None else ():
                if coeff % p:
                    products = mul[idx]
                    for col, q in enumerate(paths, off):
                        k = products.get(q)
                        if k is not None:
                            rows[t[0] + slot[k]][col] = coeff % p
        # f d_X: entry (a2, a) of d_X, then the path q, into block (i - 1, a2, b)
        for a2, drow in enumerate(x.diffs.get(i - 1, ())):
            t = tgt_blocks.get((i - 1, a2, b))
            for idx, coeff in drow[a].items() if t is not None else ():
                if sign * coeff % p:
                    for col, q in enumerate(paths, off):
                        k = mul[q].get(idx)
                        if k is not None:
                            rows[t[0] + slot[k]][col] = sign * coeff % p
    return rows


def _hom_dims(x: ProjComplex, y: ProjComplex, lo: int, hi: int,
              fld: PrimeField) -> dict[int, int]:
    """{n: dim Hom(X, Y[n])} for lo <= n <= hi, from a table of the ranks
    of the hom-complex boundaries d_m (lo-1 <= m <= hi): dim_n =
    size[n] - rank[n] - rank[n-1].  The blocks of each degree are built
    once, and d_m is built and its nonempty rows ranked once, only when it
    has both a source and a target coordinate (else its rank is 0).  So
    the blocks of degree lo - 1 (hi + 1) are built only when degree lo
    (hi) has maps, since d_(lo-1) (d_hi) has no other use."""
    blk = {m: _hom_blocks(x, y, m) for m in range(lo, hi + 1)}
    for m, inner in ((lo - 1, lo), (hi + 1, hi)):
        blk[m] = _hom_blocks(x, y, m) if blk[inner][1] else ({}, 0)
    rank = {m: fld.rank([r for r in _hom_boundary(x, y, m, blk[m], blk[m + 1], fld.p) if r])
            if blk[m][1] and blk[m + 1][1] else 0
            for m in range(lo - 1, hi + 1)}
    return {n: blk[n][1] - rank[n] - rank[n - 1] for n in range(lo, hi + 1)}


def hom_k_dim(x: ProjComplex, y: ProjComplex, n: int,
              fld: PrimeField | None = None) -> int:
    """dim Hom(X, Y[n]) in the homotopy category of bounded complexes of
    projectives."""
    return _hom_dims(x, y, n, n, fld or PrimeField())[n]


def _hom_reps(x: ProjComplex, y: ProjComplex, fld: PrimeField):
    """Hom-space data in degree 0: (the blocks of the degree-0 maps, chain
    maps whose classes form a basis of Hom_K(X, Y), the sparse rows of
    the boundary d_(-1), one per coordinate, and its column count)."""
    prev, src, nxt = (_hom_blocks(x, y, m) for m in (-1, 0, 1))
    z = fld.nullspace(_hom_boundary(x, y, 0, src, nxt, fld.p), src[1])
    bmat, nb = _hom_boundary(x, y, -1, prev, src, fld.p), prev[1]
    _, pivots = fld.rref(_beside(bmat, nb, z))
    return src, [z[c - nb] for c in pivots if c >= nb], bmat, nb


def _beside(m: list[dict[int, int]], cols: int, vectors: list[list[int]]) -> list[dict]:
    """The sparse rows m with the vectors appended as columns cols, cols + 1, ..."""
    return [{**row, **{cols + j: v[i] for j, v in enumerate(vectors) if v[i]}}
            for i, row in enumerate(m)]


def _compose_coords(alg: MonomialAlgebra, fld: PrimeField,
                    f: list[int], f_blocks, g: list[int], g_blocks, out) -> list[int]:
    """Coordinates on the blocks `out` of the composite (first f, then g)
    of degree-0 graded maps X -> Y -> Z given on f_blocks and g_blocks:
    block (i, a, b) of f meets blocks (i, b, c) of g in block (i, a, c)."""
    p, slot, vec = fld.p, alg._slot, [0] * out[1]
    g_from: dict[tuple[int, int], list] = {}
    for (i, b, c), (off, paths) in g_blocks[0].items():
        g_from.setdefault((i, b), []).append(
            (c, {r: g[col] % p for col, r in enumerate(paths, off) if g[col] % p}))
    for (i, a, b), (off, paths) in f_blocks[0].items():
        fe = {q: f[col] % p for col, q in enumerate(paths, off) if f[col] % p}
        for c, ge in g_from.get((i, b), ()):
            for idx, coeff in _compose(alg, fe, ge, p).items():
                k = out[0][i, a, c][0] + slot[idx]
                vec[k] = (vec[k] + coeff) % p
    return vec


class EndAlgebra:
    """The endomorphism algebra of a complex in the homotopy category,
    with enough structure to compute its radical and to decide whether it
    is local.  An element of End is a vector of coordinates in the basis
    `reps`."""

    def __init__(self, x: ProjComplex, fld: PrimeField):
        self.x = x
        self.fld = fld
        self.blocks, self.reps, bmat, self._nb = _hom_reps(x, x, fld)
        # reps: a basis b_0, ..., b_(dim-1) of End, as cycles in ambient coordinates
        self.dim = len(self.reps)
        self._solve_basis = _beside(bmat, self._nb, self.reps)
        self._struct: dict[tuple[int, int], list[int]] | None = None
        self._rad: list[list[int]] | None = None

    def to_quotient(self, ambient: list[list[int]]) -> list[list[int]]:
        """Express each of a list of ambient cycle vectors in the End
        basis, modulo boundaries."""
        sol = self.fld.solve(self._solve_basis, ambient, self._nb + self.dim)
        if sol is None:
            raise RuntimeError("vector not a cycle modulo boundaries")
        return [v[self._nb:] for v in sol]

    def structure(self) -> dict[tuple[int, int], list[int]]:
        """{(i, j): b_i o b_j (apply b_j first)} in End coordinates.  All
        dim**2 composites of basis maps go to to_quotient as one stacked
        solve."""
        if self._struct is None:
            pairs = [(i, j) for i in range(self.dim) for j in range(self.dim)]
            comps = [_compose_coords(self.x.algebra, self.fld, self.reps[j], self.blocks,
                                     self.reps[i], self.blocks, self.blocks)
                     for i, j in pairs]
            self._struct = dict(zip(pairs, self.to_quotient(comps)))
        return self._struct

    def radical(self) -> list[list[int]]:
        """A basis of the Jacobson radical via the trace form of the
        regular representation; valid since p > dim.  Computed once per
        instance."""
        p, n = self.fld.p, self.dim
        if p <= n:
            raise FieldTooSmall(f"characteristic {p} <= dim End = {n}")
        if self._rad is None:
            st = self.structure()
            # left multiplication L_i by b_i has column l = st[(i, l)], so
            # tr(L_i L_j) = sum_{k,l} st[(i, l)][k] * st[(j, k)][l]: L_i read
            # row by row dotted with L_j read column by column
            by_rows = [[st[(i, l)][k] for k in range(n) for l in range(n)]
                       for i in range(n)]
            by_cols = [[e for k in range(n) for e in st[(j, k)]] for j in range(n)]
            t = [[sum(map(operator.mul, r, c)) % p for c in by_cols] for r in by_rows]
            self._rad = self.fld.nullspace(t, n)
        return self._rad

    def is_local(self) -> bool:
        """Whether End is local: E/J, J the radical, is a division ring.
        Over the prime field, E/J must be commutative with exactly one field
        factor (the zero algebra has none).  The unit vectors off the pivots
        of rref(J) span E modulo J, so E/J is commutative iff their
        commutators lie in J; then x -> x^p - x is linear on E/J, and its
        kernel, of dim - rank(J + [u^p - u for those unit vectors u]), has
        one dimension per field factor."""
        fld, n = self.fld, self.dim
        rad = self.radical()
        st = self.structure()
        units = sorted(set(range(n)).difference(fld.rref(rad)[1]))
        comms = [[x - y for x, y in zip(st[(i, j)], st[(j, i)])]
                 for i in units for j in units if i < j]
        if fld.rank(rad + comms) > len(rad):
            return False  # noncommutative semisimple quotient
        # left multiplication by b_i has columns st[(i, l)], so b_i^p is
        # row i of the (p - 1)-th power of its transpose
        frob = []
        for i in units:
            power = _matpow_mod([st[(i, l)] for l in range(n)], fld.p - 1, fld)
            frob.append([x - (k == i) for k, x in enumerate(power[i])])
        return n - fld.rank(rad + frob) == 1


def _matpow_mod(m: list[list[int]], e: int, fld: PrimeField) -> list[list[int]]:
    out = fld.identity(len(m))
    while e:
        if e & 1:
            out = fld.matmul(out, m)
        m = fld.matmul(m, m)
        e >>= 1
    return out


def is_indecomposable(x: ProjComplex, fld: PrimeField | None = None) -> bool:
    """Whether End(X) in the homotopy category is local."""
    fld = fld or PrimeField()
    errors = check_complex(x, fld.p)
    if errors:
        raise ValueError("invalid complex: " + "; ".join(errors))
    return EndAlgebra(x, fld).is_local()


def build_shiftgraph_from_complexes(reps: list[ProjComplex], window: int,
                                    fld: PrimeField | None = None,
                                    name: str = "") -> ShiftGraph:
    """Package homotopy-category hom dimensions of the given
    indecomposable complexes, all over one algebra, into a shift-graph.

    Each complex is normalized so its top nonzero degree is 0.  Hom
    support outside |n| <= window is unknown, so the graph is flagged
    windowed.  A window below 0 raises ValueError.  After normalizing,
    each complex lies in degrees -span..0, so Hom(X, Y[n]) = 0 for
    |n| > span, and the work stops at the largest span: a wider window
    changes nothing but the caller's name.  Nonzero bounded complexes are
    never isomorphic to a proper shift of themselves (the minimal
    representative's degree support would move), so all orbits are
    aperiodic.

    The work is one End(X) per complex, whose locality is the
    indecomposability test and whose dimension is end_dim, and one table
    {n: dim Hom(X, Y[n])} over |n| <= window per ordered pair, which gives
    the edges.  An isomorphism X_i -> X_j[n] forces dim Hom(X_i, X_j[n]) =
    dim End X_i = dim End X_j = dim Hom(X_j, X_i[-n]), so the exact
    isomorphism test runs only where those four numbers agree.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, not {window}")
    fld = fld or PrimeField()
    normed = []
    ends = []
    for k, x in enumerate(reps):
        errors = check_complex(x, fld.p)
        if errors:
            raise ValueError(f"invalid complex {x.name or k}: " + "; ".join(errors))
        if x.is_zero():
            raise ValueError("zero complex has no orbit")
        # X[top] has top degree 0; shift_complex copies, so naming the copy
        # below leaves the caller's complex as it was
        x = shift_complex(x, x.top_degree(), fld.p)
        end = EndAlgebra(x, fld)
        if not end.is_local():
            raise ValueError(f"complex {x.name or k} is not indecomposable")
        if not x.name:
            x.name = f"X{k}"
        normed.append(x)
        ends.append(end)
    ids = [x.name for x in normed]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate complex names")
    window = min(window, max((-min(x.degrees) for x in normed), default=0))
    table = {(i, j): _hom_dims(x, y, -window, window, fld)
             for i, x in enumerate(normed) for j, y in enumerate(normed)}
    for i in range(len(normed)):
        for j in range(i + 1, len(normed)):
            for n in range(-window, window + 1):
                # ends are local, so these dimensions are all nonzero
                if (table[i, j][n] == ends[i].dim == ends[j].dim == table[j, i][-n]
                        and _isomorphic(ends[i], shift_complex(normed[j], n, fld.p))):
                    raise ValueError(
                        f"{ids[i]} and {ids[j]} are isomorphic up to shift {n}")
    orbits = [Orbit(ids[i], period=None, end_dim=end.dim) for i, end in enumerate(ends)]
    homs = {}
    for (i, j), dims in table.items():
        edges = tuple(HomEdge(n, d, all_iso=i == j and n == 0 and d == 1)
                      for n, d in dims.items() if d > 0)
        if edges:
            homs[(ids[i], ids[j])] = edges
    return ShiftGraph(name=name, orbits=orbits, homs=homs,
                      genuine=True, windowed=True, field_char=fld.p)


def are_isomorphic(x: ProjComplex, y: ProjComplex, fld: PrimeField) -> bool:
    """Iso test for indecomposable complexes: the composites X -> Y -> X
    span End(X)."""
    return _isomorphic(EndAlgebra(x, fld), y)


def _isomorphic(end: EndAlgebra, y: ProjComplex) -> bool:
    """Whether X = end.x, whose End is local, is a summand of Y, so
    X = Y for an indecomposable Y.  The composites X -> Y -> X span a
    two-sided ideal of End(X), which is all of End(X) exactly when it
    holds a unit, that is when X is a summand of Y.  All composites of
    basis maps go to to_quotient as one stacked solve, and one rank says
    whether they span End(X); no radical is needed.  No composite
    (Hom(X, Y) or Hom(Y, X) is 0) answers False."""
    x, fld = end.x, end.fld
    f_blocks, f_reps, *_ = _hom_reps(x, y, fld)
    g_blocks, g_reps, *_ = _hom_reps(y, x, fld)
    comps = [_compose_coords(x.algebra, fld, f, f_blocks, g, g_blocks, end.blocks)
             for f in f_reps for g in g_reps]
    return bool(comps) and fld.rank(end.to_quotient(comps)) == end.dim
