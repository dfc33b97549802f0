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
the configured prime field.

build_shiftgraph_from_complexes works from one window table of hom
dimensions per ordered pair of complexes (each hom-complex boundary
built and ranked once) and one EndAlgebra per complex, and runs the
exact isomorphism test only where an exact dimension filter allows an
isomorphism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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


def elem_mul(alg: MonomialAlgebra, x: AlgElem, y: AlgElem, p: int) -> AlgElem:
    """Algebra product x * y (concatenate x then y) on coefficient dicts."""
    out: AlgElem = {}
    for i, ci in x.items():
        for j, cj in y.items():
            k = alg.mul_basis(i, j)
            if k is not None:
                out[k] = (out.get(k, 0) + ci * cj) % p
    return {k: c for k, c in out.items() if c}


def _compose(alg: MonomialAlgebra, first: AlgElem, second: AlgElem, p: int) -> AlgElem:
    """Composite of module maps: apply `first`, then `second`.  With maps
    acting by left multiplication this is the product second * first."""
    return elem_mul(alg, second, first, p)


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

    def shift(self, k: int) -> "ProjComplex":
        """The complex X[k]: degrees move down by k, differentials pick up
        the sign (-1)^k.  Coefficients may come out negative; callers
        reduce mod p (see shift_complex)."""
        sign = 1 if k % 2 == 0 else -1
        degrees = {d - k: list(vs) for d, vs in self.degrees.items()}
        diffs = {
            d - k: [[{i: sign * c for i, c in e.items()} for e in row] for row in m]
            for d, m in self.diffs.items()
        }
        return ProjComplex(self.algebra, degrees, diffs, name=self.name)

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
        degrees = {int(k): list(v) for k, v in d.get("degrees", {}).items()}
        diffs = {}
        for k, rows in d.get("differentials", {}).items():
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


def _fix_shift_signs(c: ProjComplex, p: int) -> ProjComplex:
    diffs = {d: [[{i: cc % p for i, cc in e.items() if cc % p} for e in row]
                 for row in m]
             for d, m in c.diffs.items()}
    return ProjComplex(c.algebra, c.degrees, diffs, name=c.name)


def shift_complex(c: ProjComplex, k: int, p: int) -> ProjComplex:
    return _fix_shift_signs(c.shift(k), p)


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
    vs = set(alg.quiver.vertices)
    for d, summands in c.degrees.items():
        for v in summands:
            if v not in vs:
                rep.errors.append(f"degree {d}: unknown vertex {v}")
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
        if not ys:
            continue
        for a, va in enumerate(x.summands(i)):
            for b, vb in enumerate(ys):
                for idx in alg.paths_between(vb, va):
                    coords.append((i, a, b, idx))
    return coords, {c: k for k, c in enumerate(coords)}


def _hom_boundary(alg: MonomialAlgebra, x: ProjComplex, y: ProjComplex, n: int,
                  fld: PrimeField) -> tuple[np.ndarray, list]:
    """Matrix of the hom-complex differential from degree-n maps to
    degree-(n+1) maps, f -> d_Y f - (-1)^n f d_X, and the coordinates of
    the degree-n maps."""
    src_coords, _src_pos = _hom_coords(alg, x, y, n)
    tgt_coords, tgt_pos = _hom_coords(alg, x, y, n + 1)
    mat = fld.zeros(len(tgt_coords), len(src_coords))
    sign = -1 if n % 2 == 0 else 1  # coefficient of the f d_X term
    for col, (i, a, b, q) in enumerate(src_coords):
        unit: AlgElem = {q: 1}
        dy = y.diff(i + n)
        for c2 in range(len(y.summands(i + n + 1))):
            term = _compose(alg, unit, dy[b][c2], fld.p)
            for idx, coeff in term.items():
                row = tgt_pos.get((i, a, c2, idx))
                if row is not None:
                    mat[row, col] = (mat[row, col] + coeff) % fld.p
        dx = x.diff(i - 1)
        for a2 in range(len(x.summands(i - 1))):
            term = _compose(alg, dx[a2][a], unit, fld.p)
            for idx, coeff in term.items():
                row = tgt_pos.get((i - 1, a2, b, idx))
                if row is not None:
                    mat[row, col] = (mat[row, col] + sign * coeff) % fld.p
    return mat, src_coords


def _check_same_algebra(x: ProjComplex, y: ProjComplex):
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("complexes live over different algebras")


def _hom_dims(x: ProjComplex, y: ProjComplex, lo: int, hi: int,
              fld: PrimeField) -> dict[int, int]:
    """{n: dim Hom(X, Y[n])} for lo <= n <= hi.  Each boundary d_m of the
    hom complex (lo-1 <= m <= hi) is built and ranked at most once, and
    d_(lo-1) not at all when there are no degree-lo maps."""
    dims = {}
    rank_prev = None  # rank of d_(n-1), once built
    for n in range(lo, hi + 1):
        d_n, coords = _hom_boundary(x.algebra, x, y, n, fld)
        rank_n = fld.rank(d_n)
        if coords and rank_prev is None:
            rank_prev = fld.rank(_hom_boundary(x.algebra, x, y, n - 1, fld)[0])
        dims[n] = len(coords) - rank_n - rank_prev if coords else 0
        rank_prev = rank_n
    return dims


def hom_k_dim(x: ProjComplex, y: ProjComplex, n: int,
              fld: PrimeField | None = None) -> int:
    """dim Hom(X, Y[n]) in the homotopy category of bounded complexes of
    projectives."""
    _check_same_algebra(x, y)
    return _hom_dims(x, y, n, n, fld or PrimeField())[n]


def _hom_reps(x: ProjComplex, y: ProjComplex, n: int, fld: PrimeField):
    """Hom-space data: (coords, representative matrix whose columns are a
    basis of chain maps spanning Hom_K, boundary matrix)."""
    alg = x.algebra
    d_n, src_coords = _hom_boundary(alg, x, y, n, fld)
    if not src_coords:
        return src_coords, fld.zeros(0, 0), fld.zeros(0, 0)
    z = fld.nullspace(d_n)
    d_prev, prev_coords = _hom_boundary(alg, x, y, n - 1, fld)
    bmat = d_prev if prev_coords else fld.zeros(len(src_coords), 0)
    if z.shape[1] == 0:
        return src_coords, z, bmat
    _, pivots = fld.rref(np.hstack([bmat, z]))
    nb = bmat.shape[1]
    rep_cols = [c - nb for c in pivots if c >= nb]
    return src_coords, z[:, rep_cols], bmat


def _compose_coords(alg: MonomialAlgebra, fld: PrimeField,
                    f: np.ndarray, f_coords,
                    g: np.ndarray, g_coords,
                    out_pos) -> np.ndarray:
    """Coordinates of the composite (first f, then g) of two degree-0
    graded maps, in the coordinate system `out_pos`."""
    out = np.zeros(len(out_pos), dtype=np.int64)
    fmap: dict[tuple[int, int, int], AlgElem] = {}
    for k, (i, a, b, q) in enumerate(f_coords):
        if f[k] % fld.p:
            fmap.setdefault((i, a, b), {})[q] = int(f[k]) % fld.p
    gmap: dict[tuple[int, int, int], AlgElem] = {}
    for k, (i, b, c, r) in enumerate(g_coords):
        if g[k] % fld.p:
            gmap.setdefault((i, b, c), {})[r] = int(g[k]) % fld.p
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
    quotient."""

    def __init__(self, x: ProjComplex, fld: PrimeField):
        self.x = x
        self.fld = fld
        alg = x.algebra
        self.coords, reps, bmat = _hom_reps(x, x, 0, fld)
        self.pos = {c: k for k, c in enumerate(self.coords)}
        self.reps = reps  # columns: basis of End in ambient coordinates
        self.bmat = bmat
        self.dim = reps.shape[1]
        self._solve_basis = np.hstack([bmat, reps])
        self._struct: dict[tuple[int, int], np.ndarray] = {}
        self._rad: np.ndarray | None = None

    def to_quotient(self, ambient: np.ndarray) -> np.ndarray:
        """Express an ambient cycle vector in the chosen End basis, modulo
        boundaries."""
        if self.dim == 0:
            return np.zeros(0, dtype=np.int64)
        sol = self.fld.solve(self._solve_basis, ambient % self.fld.p)
        if sol is None:
            raise RuntimeError("vector not a cycle modulo boundaries")
        return sol[self.bmat.shape[1]:]

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product u * v := u o v (apply v first) in End coordinates."""
        amb_u = (self.reps @ u) % self.fld.p
        amb_v = (self.reps @ v) % self.fld.p
        comp = _compose_coords(self.x.algebra, self.fld,
                               amb_v, self.coords,
                               amb_u, self.coords, self.pos)
        return self.to_quotient(comp)

    def _unit(self, k: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[k] = 1
        return e

    def structure(self) -> dict[tuple[int, int], np.ndarray]:
        if not self._struct:
            for i in range(self.dim):
                for j in range(self.dim):
                    self._struct[(i, j)] = self.mult(self._unit(i), self._unit(j))
        return self._struct

    def left_mult_matrix(self, u: np.ndarray) -> np.ndarray:
        st = self.structure()
        m = self.fld.zeros(self.dim, self.dim)
        for j in range(self.dim):
            col = np.zeros(self.dim, dtype=np.int64)
            for i in range(self.dim):
                if u[i] % self.fld.p:
                    col = (col + u[i] * st[(i, j)]) % self.fld.p
            m[:, j] = col
        return m

    def radical(self) -> np.ndarray:
        """Basis (columns) of the Jacobson radical via the trace form of
        the regular representation; valid since p > dim.  Computed once
        per instance."""
        if self.fld.p <= self.dim:
            raise FieldTooSmall(
                f"characteristic {self.fld.p} <= dim End = {self.dim}")
        if self._rad is None:
            lmats = [self.left_mult_matrix(self._unit(i)) for i in range(self.dim)]
            t = self.fld.zeros(self.dim, self.dim)
            for i in range(self.dim):
                for j in range(self.dim):
                    t[i, j] = int(np.trace((lmats[i] @ lmats[j]) % self.fld.p)) % self.fld.p
            self._rad = self.fld.nullspace(t)
        return self._rad

    def is_local(self) -> bool:
        """Whether End is local: the semisimple quotient is a division
        ring.  Over the prime field this means commutative with exactly
        one field factor, counted by the fixed space of the Frobenius."""
        fld = self.fld
        if self.dim == 0:
            return False
        rad = self.radical()
        nrad = rad.shape[1]
        sdim = self.dim - nrad
        if sdim == 0:
            raise RuntimeError("radical cannot be the whole unital algebra")
        ext = np.hstack([rad, fld.identity(self.dim)])
        _, pivots = fld.rref(ext)
        comp_idx = [c - nrad for c in pivots if c >= nrad]
        s_reps = fld.identity(self.dim)[:, comp_idx]  # in End coordinates
        basis = np.hstack([rad, s_reps]) if nrad else s_reps

        def to_s(v: np.ndarray) -> np.ndarray:
            sol = fld.solve(basis, v % fld.p)
            return sol[nrad:]

        # s_reps are unit columns: their products are in radical()'s table
        st = self.structure()
        smul = {(i, j): to_s(st[(comp_idx[i], comp_idx[j])])
                for i in range(sdim) for j in range(sdim)}
        for i in range(sdim):
            for j in range(i):
                if not np.array_equal(smul[(i, j)], smul[(j, i)]):
                    return False  # noncommutative semisimple quotient
        # Frobenius fixed space counts the field factors
        frob = fld.zeros(sdim, sdim)
        for i in range(sdim):
            lm = fld.zeros(sdim, sdim)
            for j in range(sdim):
                lm[:, j] = smul[(i, j)]
            power = _matpow_mod(lm, fld.p - 1, fld.p)
            e = np.zeros(sdim, dtype=np.int64)
            e[i] = 1
            frob[:, i] = (power @ e) % fld.p
        fixed = fld.nullspace((frob - fld.identity(sdim)) % fld.p)
        return fixed.shape[1] == 1


def _matpow_mod(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
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
    f_coords, f_reps, _ = _hom_reps(x, y, 0, fld)
    g_coords, g_reps, _ = _hom_reps(y, x, 0, fld)
    rad = end.radical()
    for fi in range(f_reps.shape[1]):
        for gj in range(g_reps.shape[1]):
            comp = _compose_coords(x.algebra, fld,
                                   f_reps[:, fi], f_coords,
                                   g_reps[:, gj], g_coords, end.pos)
            q = end.to_quotient(comp)
            if rad.shape[1] == 0:
                if q.any():
                    return True
            elif not fld.in_span(rad, q):
                return True
    return False
