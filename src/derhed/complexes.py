"""Bounded complexes of projectives over a monomial algebra, and hom
computation in their homotopy category.

A complex stores, per degree, a list of vertices (each naming one
indecomposable projective summand) and, per degree d, a matrix of algebra
elements: entry (i, j) is the component from summand i of degree d to
summand j of degree d+1 and lies in e_w A e_v, where v is the vertex of
the source summand and w the vertex of the target summand (module maps
between projectives act by left multiplication, see quiver.py).

hom_k_dim computes Hom(X, Y[n]) in the homotopy category as the n-th
cohomology of the total hom complex: degree-n maps modulo those of the
form d s + (-1)^(n-1) s d.  Everything reduces to rank and nullspace over
the configured prime field.  The coordinates of the degree-m maps are
built once per degree m and shared by the two boundaries d_(m-1) and d_m
that use them; each boundary is a list of rows, as every GF(p) matrix
is (see linalg.py).

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

from .linalg import PrimeField
from .quiver import MonomialAlgebra
from .shiftgraph import HomEdge, Orbit, ShiftGraph

# an algebra element: basis index -> coefficient (nonzero, mod p)
AlgElem = dict[int, int]


class AlgebraMismatch(Exception):
    pass


class FieldTooSmall(Exception):
    """The field characteristic does not exceed the endomorphism-algebra
    dimension, so the trace-form radical computation is not valid."""


def _compose(alg: MonomialAlgebra, first: AlgElem, second: AlgElem, p: int) -> AlgElem:
    """Composite of module maps: apply `first`, then `second`.  With maps
    acting by left multiplication this is the algebra product second * first
    (concatenate `second`, then `first`) on coefficient dicts."""
    out: AlgElem = {}
    for i, ci in second.items():
        for j, cj in first.items():
            k = alg.mul_basis(i, j)
            if k is not None:
                out[k] = (out.get(k, 0) + ci * cj) % p
    return {k: c for k, c in out.items() if c}


class ProjComplex:
    def __init__(self, algebra: MonomialAlgebra, degrees: dict[int, list[str]],
                 diffs: dict[int, list[list[AlgElem]]] | None = None, name: str = ""):
        self.algebra = algebra
        self.degrees = {int(d): list(vs) for d, vs in degrees.items() if vs}
        self.diffs = {int(d): m for d, m in (diffs or {}).items()}
        self.name = name
        known = set(self.algebra.quiver.vertices)
        bad = sorted({v for vs in self.degrees.values() for v in vs} - known)
        if bad:
            raise ValueError(f"summands at unknown vertices: {bad}")

    @property
    def support(self) -> list[int]:
        return sorted(self.degrees)

    def summands(self, d: int) -> list[str]:
        return self.degrees.get(d, [])

    def diff(self, d: int) -> list[list[AlgElem]]:
        src, tgt = self.summands(d), self.summands(d + 1)
        m = self.diffs.get(d)
        if m is None:
            return [[{} for _ in tgt] for _ in src]
        return m

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
                    for row in self.diff(d)
                ]
                for d in sorted(self.diffs)
            },
        }

    @classmethod
    def from_dict(cls, alg: MonomialAlgebra, d: dict) -> "ProjComplex":
        if not isinstance(d, dict):
            raise ValueError("a complex must be a JSON object")
        raw_degrees, raw_diffs = d.get("degrees", {}), d.get("differentials", {})
        if not isinstance(raw_degrees, dict) or not isinstance(raw_diffs, dict):
            raise ValueError("degrees and differentials must be JSON objects")
        degrees = {int(k): list(v) for k, v in raw_degrees.items()}
        diffs = {}
        for k, rows in raw_diffs.items():
            mat = []
            for row in rows:
                out_row = []
                for entry in row:
                    e: AlgElem = {}
                    for label, coeff in entry:
                        if label not in alg.index:
                            raise ValueError(f"unknown basis path {label!r}")
                        e[alg.index[label]] = int(coeff)
                    out_row.append(e)
                mat.append(out_row)
            diffs[int(k)] = mat
        return cls(alg, degrees, diffs, name=d.get("name", ""))


def shift_complex(c: ProjComplex, k: int, p: int) -> ProjComplex:
    """The complex X[k] over GF(p): degrees move down by k, and the
    differentials pick up the sign (-1)^k, reduced into [0, p)."""
    sign = -1 if k % 2 else 1
    diffs = {d - k: [[{i: sign * cc % p for i, cc in e.items() if cc % p} for e in row]
                     for row in m]
             for d, m in c.diffs.items()}
    return ProjComplex(c.algebra, {d - k: vs for d, vs in c.degrees.items()}, diffs,
                       name=c.name)


class ComplexReport:
    def __init__(self):
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors


def check_complex(c: ProjComplex, p: int | None = None) -> ComplexReport:
    """Validate vertex compatibility of all entries and d o d = 0 in every
    degree, exactly via the multiplication table."""
    p = p or PrimeField().p
    alg = c.algebra
    rep = ComplexReport()
    for d in sorted(c.diffs):
        src, tgt = c.summands(d), c.summands(d + 1)
        m = c.diffs[d]
        if len(m) != len(src) or any(len(row) != len(tgt) for row in m):
            rep.errors.append(f"degree {d}: differential shape mismatch")
            continue
        for i, row in enumerate(m):
            for j, e in enumerate(row):
                for idx in e:
                    bp = alg.basis[idx]
                    if bp.source != tgt[j] or bp.target != src[i]:
                        rep.errors.append(
                            f"degree {d}: entry ({i}, {j}) not in "
                            f"e_{tgt[j]} A e_{src[i]}")
    if rep.errors:
        return rep
    for d in sorted(c.degrees):
        src, mid, tgt = c.summands(d), c.summands(d + 1), c.summands(d + 2)
        if not src or not mid or not tgt:
            continue
        d1, d2 = c.diff(d), c.diff(d + 1)
        for i in range(len(src)):
            for k in range(len(tgt)):
                acc: AlgElem = {}
                for j in range(len(mid)):
                    term = _compose(alg, d1[i][j], d2[j][k], p)
                    for b, cc in term.items():
                        acc[b] = (acc.get(b, 0) + cc) % p
                if any(v % p for v in acc.values()):
                    rep.errors.append(f"degree {d}: d o d is nonzero at ({i}, {k})")
    return rep


# -- hom complex assembly --

def _hom_coords(alg: MonomialAlgebra, x: ProjComplex, y: ProjComplex, n: int):
    """Coordinates of the space of degree-n graded maps X -> Y: one per
    (degree i, X-summand a, Y-summand b at i+n, basis path of
    e_{vb} A e_{va})."""
    coords = []
    for i in x.support:
        ys = y.summands(i + n)
        for a, va in enumerate(x.summands(i)):
            for b, vb in enumerate(ys):
                for idx in alg.paths_between(vb, va):
                    coords.append((i, a, b, idx))
    return coords


def _hom_boundary(alg: MonomialAlgebra, x: ProjComplex, y: ProjComplex, n: int,
                  src_coords: list, tgt_coords: list, p: int) -> list[list[int]]:
    """Matrix of the hom-complex differential from degree-n maps to
    degree-(n+1) maps, f -> d_Y f - (-1)^n f d_X, given the coordinates
    of both (_hom_coords for n and n + 1)."""
    tgt_pos = {c: k for k, c in enumerate(tgt_coords)}
    rows = [[0] * len(src_coords) for _ in tgt_coords]
    mul = alg.mul_basis
    sign = -1 if n % 2 == 0 else 1  # coefficient of the f d_X term
    for col, (i, a, b, q) in enumerate(src_coords):
        # d_Y f: the unit path q, then the entries of row b of d_Y
        dy = y.diffs.get(i + n)
        if dy is not None:
            for c2, e in enumerate(dy[b]):
                for idx, coeff in e.items():
                    # a zero product (None) matches no coordinate
                    row = tgt_pos.get((i, a, c2, mul(idx, q)))
                    if row is not None:
                        rows[row][col] = (rows[row][col] + coeff) % p
        # f d_X: the entries of column a of d_X, then q
        dx = x.diffs.get(i - 1)
        if dx is not None:
            for a2, drow in enumerate(dx):
                for idx, coeff in drow[a].items():
                    row = tgt_pos.get((i - 1, a2, b, mul(q, idx)))
                    if row is not None:
                        rows[row][col] = (rows[row][col] + sign * coeff) % p
    return rows


def _check_same_algebra(x: ProjComplex, y: ProjComplex):
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("complexes live over different algebras")


def _hom_dims(x: ProjComplex, y: ProjComplex, lo: int, hi: int,
              fld: PrimeField) -> dict[int, int]:
    """{n: dim Hom(X, Y[n])} for lo <= n <= hi.  The coordinates of each
    degree lo-1 <= m <= hi+1 are built once, each boundary d_m of the hom
    complex (lo-1 <= m <= hi) is built and ranked at most once, and
    d_(lo-1) not at all when there are no degree-lo maps."""
    alg = x.algebra
    coords = {m: _hom_coords(alg, x, y, m) for m in range(lo - 1, hi + 2)}
    dims = {}
    rank_prev = None  # rank of d_(n-1), once built
    for n in range(lo, hi + 1):
        rank_n = fld.rank(_hom_boundary(alg, x, y, n, coords[n], coords[n + 1], fld.p))
        if coords[n] and rank_prev is None:
            rank_prev = fld.rank(
                _hom_boundary(alg, x, y, n - 1, coords[n - 1], coords[n], fld.p))
        dims[n] = len(coords[n]) - rank_n - rank_prev if coords[n] else 0
        rank_prev = rank_n
    return dims


def hom_k_dim(x: ProjComplex, y: ProjComplex, n: int,
              fld: PrimeField | None = None) -> int:
    """dim Hom(X, Y[n]) in the homotopy category of bounded complexes of
    projectives."""
    _check_same_algebra(x, y)
    return _hom_dims(x, y, n, n, fld or PrimeField())[n]


def _hom_reps(x: ProjComplex, y: ProjComplex, n: int, fld: PrimeField):
    """Hom-space data: (coords, a list of chain maps whose classes form a
    basis of Hom_K, boundary matrix d_(n-1) with len(coords) rows, its
    column count)."""
    alg = x.algebra
    prev_coords, src_coords, next_coords = (_hom_coords(alg, x, y, m)
                                            for m in (n - 1, n, n + 1))
    z = fld.nullspace(_hom_boundary(alg, x, y, n, src_coords, next_coords, fld.p),
                      len(src_coords))
    bmat = _hom_boundary(alg, x, y, n - 1, prev_coords, src_coords, fld.p)
    nb = len(prev_coords)
    _, pivots = fld.rref(_beside(bmat, z))
    return src_coords, [z[c - nb] for c in pivots if c >= nb], bmat, nb


def _beside(m: list[list[int]], vectors: list[list[int]]) -> list[list[int]]:
    """The matrix m with the vectors appended as columns."""
    return [row + [v[i] for v in vectors] for i, row in enumerate(m)]


def _compose_coords(alg: MonomialAlgebra, fld: PrimeField,
                    f: list[int], f_coords,
                    g: list[int], g_coords,
                    out_pos) -> list[int]:
    """Coordinates of the composite (first f, then g) of two degree-0
    graded maps, in the coordinate system `out_pos`."""
    out = [0] * len(out_pos)
    fmap: dict[tuple[int, int, int], AlgElem] = {}
    for k, (i, a, b, q) in enumerate(f_coords):
        if f[k] % fld.p:
            fmap.setdefault((i, a, b), {})[q] = f[k] % fld.p
    gmap: dict[tuple[int, int, int], AlgElem] = {}
    for k, (i, b, c, r) in enumerate(g_coords):
        if g[k] % fld.p:
            gmap.setdefault((i, b, c), {})[r] = g[k] % fld.p
    for (i, a, b), fe in fmap.items():
        for (i2, b2, c), ge in gmap.items():
            if i2 != i or b2 != b:
                continue
            term = _compose(alg, fe, ge, fld.p)
            for idx, coeff in term.items():
                pos = out_pos.get((i, a, c, idx))
                if pos is not None:
                    out[pos] = (out[pos] + coeff) % fld.p
    return out


class EndAlgebra:
    """The endomorphism algebra of a complex in the homotopy category,
    with enough structure to compute its radical and the semisimple
    quotient.  An element of End is a vector of coordinates in the basis
    `reps`."""

    def __init__(self, x: ProjComplex, fld: PrimeField):
        self.x = x
        self.fld = fld
        self.coords, self.reps, bmat, self._nb = _hom_reps(x, x, 0, fld)
        # reps: a basis b_0, ..., b_(dim-1) of End, as cycles in ambient coordinates
        self.pos = {c: k for k, c in enumerate(self.coords)}
        self.dim = len(self.reps)
        self._solve_basis = _beside(bmat, self.reps)
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
            comps = [_compose_coords(self.x.algebra, self.fld,
                                     self.reps[j], self.coords,
                                     self.reps[i], self.coords, self.pos)
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
        """Whether End is local: the semisimple quotient is a division
        ring.  Over the prime field this means commutative with exactly
        one field factor, counted by the fixed space of the Frobenius."""
        fld = self.fld
        if self.dim == 0:
            return False
        rad = self.radical()
        nrad = len(rad)
        sdim = self.dim - nrad
        if sdim == 0:
            raise RuntimeError("radical cannot be the whole unital algebra")
        units = fld.identity(self.dim)
        _, pivots = fld.rref(_beside(fld.zeros(self.dim, 0), rad + units))
        comp_idx = [c - nrad for c in pivots if c >= nrad]
        # the complement of the radical is spanned by unit vectors, so the
        # products of its basis s_0, ..., s_(sdim-1) are entries of
        # structure(); one stacked solve reads them modulo the radical
        st = self.structure()
        prods = [st[(ci, cj)] for ci in comp_idx for cj in comp_idx]
        basis = _beside(fld.zeros(self.dim, 0), rad + [units[c] for c in comp_idx])
        sol = fld.solve(basis, prods, self.dim)
        # smul[i][j]: s_i s_j in the quotient basis
        smul = [[sol[i * sdim + j][nrad:] for j in range(sdim)] for i in range(sdim)]
        if smul != [list(col) for col in zip(*smul)]:
            return False  # noncommutative semisimple quotient
        # Frobenius fixed space counts the field factors; left
        # multiplication by s_i has columns smul[i], and the Frobenius
        # sends s_i to column i of its (p - 1)-th power
        frob = [[row[i] for row in _matpow_mod(_beside(fld.zeros(sdim, 0), smul[i]),
                                               fld.p - 1, fld)]
                for i in range(sdim)]
        fixed = fld.nullspace([[frob[i][k] - (i == k) for i in range(sdim)]
                               for k in range(sdim)], sdim)
        return len(fixed) == 1


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
    rep = check_complex(x, fld.p)
    if not rep.ok:
        raise ValueError("invalid complex: " + "; ".join(rep.errors))
    return EndAlgebra(x, fld).is_local()


def build_shiftgraph_from_complexes(alg: MonomialAlgebra, reps: list[ProjComplex],
                                    window: int, fld: PrimeField | None = None,
                                    name: str = "") -> ShiftGraph:
    """Package homotopy-category hom dimensions of the given
    indecomposable complexes into a shift-graph.

    Each complex is normalized so its top nonzero degree is 0.  Hom
    support outside |n| <= window is unknown, so the graph is flagged
    windowed.  Nonzero bounded complexes are never isomorphic to a proper
    shift of themselves (the minimal representative's degree support would
    move), so all orbits are aperiodic.

    The work is one End(X) per complex, whose locality is the
    indecomposability test and whose dimension is end_dim, and one table
    {n: dim Hom(X, Y[n])} over |n| <= window per ordered pair, which gives
    the edges.  An isomorphism X_i -> X_j[n] forces dim Hom(X_i, X_j[n]) =
    dim End X_i = dim End X_j = dim Hom(X_j, X_i[-n]), so the exact
    isomorphism test runs only where those four numbers agree.
    """
    fld = fld or PrimeField()
    normed = []
    ends = []
    for k, x in enumerate(reps):
        if x.algebra is not alg:
            raise AlgebraMismatch("complex not over the given algebra")
        rep = check_complex(x, fld.p)
        if not rep.ok:
            raise ValueError(f"invalid complex {x.name or k}: " + "; ".join(rep.errors))
        if x.is_zero():
            raise ValueError("zero complex has no orbit")
        top = x.top_degree()
        if top != 0:
            x = shift_complex(x, top, fld.p)  # X[top] has top degree 0
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
    """Iso test for indecomposable complexes: some composite
    X -> Y -> X avoids the radical of End(X)."""
    _check_same_algebra(x, y)
    if hom_k_dim(x, y, 0, fld) == 0 or hom_k_dim(y, x, 0, fld) == 0:
        return False
    return _isomorphic(EndAlgebra(x, fld), y)


def _isomorphic(end: EndAlgebra, y: ProjComplex) -> bool:
    """Whether some composite X -> Y -> X, X = end.x, avoids the radical
    of End(X)."""
    x, fld = end.x, end.fld
    f_coords, f_reps, *_ = _hom_reps(x, y, 0, fld)
    g_coords, g_reps, *_ = _hom_reps(y, x, 0, fld)
    rad = end.radical()
    for f in f_reps:
        for g in g_reps:
            comp = _compose_coords(x.algebra, fld, f, f_coords, g, g_coords, end.pos)
            if not fld.in_span(rad, end.to_quotient([comp])[0]):
                return True
    return False
