"""Bounded complexes of projectives over a monomial algebra, and hom
computation in their homotopy category.

A complex stores, per degree (in ascending order), a list of vertices,
each naming one indecomposable projective summand, and, per degree d, a
matrix of algebra elements: entry (i, j) is the component from summand i
of degree d to summand j of degree d+1 and lies in e_w A e_v, v and w the
vertices of the source and target summands (module maps between
projectives act by left multiplication, see quiver.py).

Hom(X, Y[n]) in the homotopy category is always the n-th cohomology of the
total hom complex: degree-n maps X -> Y modulo those of the form
d s + (-1)^(n-1) s d; End(X) is degree 0.  Everything reduces to rank and
nullspace over the configured prime field.  Every Hom computation makes
one assembly, _hom_complex, which numbers the degree-m maps, a coordinate
per (degree i, X-summand a, Y-summand b at i+m, basis path of
e_{vb} A e_{va}) in blocks ascending with i, then a, then b (which fixes
the End basis), and builds each boundary as sparse rows {target: {source:
entry}}, a row only where an entry lands.  Every path product comes from
the algebra's table, and every entry is reduced into [1, p), so the rows
are what linalg._eliminate consumes: _hom_dims ranks each boundary by
handing it the boundary's own rows, and _hom_basis hands it the images
and the kernel rows, none copied, since nothing reads them after.  Only
EndAlgebra.to_quotient, whose vectors come from its caller, normalizes
them first (linalg._sparse).

build_shiftgraph_from_complexes works from one window table of hom
dimensions per ordered pair of complexes and one EndAlgebra per complex,
and tests isomorphism only where the dimensions allow one.

_hom_basis eliminates once: one echelon of the degree-n cycles, built from
the images of d_(n-1) and extended by the sparse kernel of d_n
(linalg._eliminate), gives a basis of Hom(X, Y[n]), the rows the kernel
added.  EndAlgebra takes n = 0, and linalg._reduce reduces the composites
of basis maps against its echelon to End coordinates, which fill the
multiplication table.  Its trace form, read off that table, has the
radical J as nullspace, and is_local reads E/J off the form's one reduced
echelon form.  Every composite but the boundary's, which go straight into
its rows, comes from one product of graded maps, _product, and each basis
map is split into blocks once (_split).
"""

from __future__ import annotations

import operator
from typing import Optional

from .linalg import (DEFAULT_FIELD, FieldTooSmall, PrimeField, _eliminate, _kernel, _reduce,
                     _sparse)
from .quiver import MonomialAlgebra
from .shiftgraph import HomEdge, Orbit, ShiftGraph

# an algebra element: basis index -> coefficient (nonzero, mod p)
AlgElem = dict[int, int]


class AlgebraMismatch(Exception):
    pass


def _product(alg: MonomialAlgebra, f: dict, g: dict, n: int, p: int) -> dict:
    """The composite, first f then g, of graded maps held as {(i, a): {b:
    AlgElem}} (entry b from summand a of degree i; a missing one is zero),
    f of degree n: entry (i, a, b) of f meets entries (i + n, b, c) of g
    in entry (i, a, c) of the result {(i, a, c): AlgElem}, mod p, zeros
    kept.  Each term is the algebra product (path of g) * (path of f)."""
    mul, out = alg._mul, {}
    for (i, a), row in f.items():
        for b, fe in row.items():
            for c, ge in g.get((i + n, b), {}).items():
                e = out.setdefault((i, a, c), {})
                for x, cx in ge.items():
                    products = mul[x]
                    for y, cy in fe.items():
                        k = products.get(y)
                        if k is not None:
                            e[k] = (e.get(k, 0) + cx * cy) % p
    return out


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
    degree over GF(p), exactly via the multiplication table, with d read
    as a graded map of degree 1 (a missing differential is zero).  The
    shapes and vertices of the entries ProjComplex itself refuses."""
    d = {(i, a): dict(enumerate(row)) for i, m in c.diffs.items() for a, row in enumerate(m)}
    return [f"degree {i}: d o d is nonzero at ({a}, {k})"
            for (i, a, k), e in sorted(_product(c.algebra, d, d, 1, p).items())
            if any(e.values())]


# -- hom complex assembly --

def _hom_complex(x: ProjComplex, y: ProjComplex, lo: int, hi: int, p: int):
    """The hom complex X -> Y around degrees lo..hi, in one call: (blocks,
    d).  blocks[m] = ({(i, a, b): (offset, paths)}, size) numbers degree m
    for lo <= m <= hi, and lo - 1 (hi + 1) only when lo (hi) has maps.
    d[m] = {target: {source: entry}} is the boundary f -> d_Y f - (-1)^m f
    d_X from degree m to m + 1 when both have maps; product k lands at
    offset + slot[k] of the target block, and no entry gets two terms (a
    path product fixes each factor).  Two algebras are refused first."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("complexes live over different algebras")
    between, mul, slot = x.algebra._between, x.algebra._mul, x.algebra._slot

    def number(m):
        table, size = {}, 0
        for i, xs in x.degrees.items():
            if ys := y.degrees.get(i + m):
                for a, va in enumerate(xs):
                    for b, vb in enumerate(ys):
                        paths = between.get((vb, va))
                        if paths:
                            table[i, a, b] = (size, paths)
                            size += len(paths)
        return table, size

    blocks = {}  # a loop, not a comprehension: see _hom_dims
    for m in range(lo, hi + 1):
        blocks[m] = number(m)
    for m, inner in ((lo - 1, lo), (hi + 1, hi)):
        if blocks[inner][1]:
            blocks[m] = number(m)
    d = {}
    for m in range(lo - 1, hi + 1):
        src, tgt = blocks.get(m), blocks.get(m + 1)
        if not (src and tgt and src[1] and tgt[1]):
            continue
        tgt, rows = tgt[0], d.setdefault(m, {})
        sign = -1 if m % 2 == 0 else 1  # coefficient of the f d_X term
        for (i, a, b), (off, paths) in src[0].items():
            # d_Y f: the path q, then entry (b, c) of d_Y, into block (i, a, c)
            if (dy := y.diffs.get(i + m)) is not None:
                for c, e in enumerate(dy[b]):
                    t = tgt.get((i, a, c))
                    for idx, coeff in e.items() if t is not None else ():
                        if v := coeff % p:
                            products = mul[idx]
                            for col, q in enumerate(paths, off):
                                k = products.get(q)
                                if k is not None:
                                    rows.setdefault(t[0] + slot[k], {})[col] = v
            # f d_X: entry (a2, a) of d_X, then the path q, into block (i - 1, a2, b)
            if (dx := x.diffs.get(i - 1)) is not None:
                for a2, drow in enumerate(dx):
                    t = tgt.get((i - 1, a2, b))
                    for idx, coeff in drow[a].items() if t is not None else ():
                        if v := sign * coeff % p:
                            for col, q in enumerate(paths, off):
                                k = mul[q].get(idx)
                                if k is not None:
                                    rows.setdefault(t[0] + slot[k], {})[col] = v
    return blocks, d


def _hom_dims(x: ProjComplex, y: ProjComplex, lo: int, hi: int,
              fld: PrimeField) -> dict[int, int]:
    """{n: dim Hom(X, Y[n])} for lo <= n <= hi: size[n] - rank[n] - rank[n-1],
    each boundary of one _hom_complex ranked once (any other has rank 0) by
    _eliminate on its own rows, which nothing reads after."""
    p = fld.p
    blocks, d = _hom_complex(x, y, lo, hi, p)
    rank, dims = {}, {}  # loops, not comprehensions: in Python 3.11 each is a call
    for m, rows in d.items():
        rank[m] = len(_eliminate(rows.values(), p))
    for n in range(lo, hi + 1):
        dims[n] = blocks[n][1] - rank.get(n, 0) - rank.get(n - 1, 0)
    return dims


def hom_k_dim(x: ProjComplex, y: ProjComplex, n: int,
              fld: PrimeField = DEFAULT_FIELD) -> int:
    """dim Hom(X, Y[n]) in the homotopy category of bounded complexes of
    projectives."""
    return _hom_dims(x, y, n, n, fld)[n]


def _hom_basis(x: ProjComplex, y: ProjComplex, n: int, fld: PrimeField):
    """(The blocks of the degree-n maps X -> Y, an echelon {pivot column:
    row} of the degree-n cycles, and its rows off the boundaries, sparse
    cycles whose classes form a basis of Hom(X, Y[n])), from one
    _hom_complex.  The echelon starts from the images of d_(n-1) in source
    order, which span the boundaries, and a second _eliminate extends it by
    the kernel of d_n: the rows that open a pivot are the basis."""
    p = fld.p
    blocks, d = _hom_complex(x, y, n, n, p)
    images: dict[int, dict[int, int]] = {}
    for t, row in d.get(n - 1, {}).items():
        for s, v in row.items():
            images.setdefault(s, {})[t] = v
    echelon = _eliminate([images[s] for s in sorted(images)], p)
    start = len(echelon)
    _eliminate(_kernel(d.get(n, {}).values(), blocks[n][1], p), p, echelon)
    return blocks[n], echelon, list(echelon.values())[start:]


def _split(v: dict[int, int], blocks) -> dict:
    """The graded map {(i, a): {b: AlgElem}} of coordinates v on blocks."""
    out: dict = {}
    for (i, a, b), (off, paths) in blocks[0].items():
        e = {q: v[col] for col, q in enumerate(paths, off) if col in v}
        if e:
            out.setdefault((i, a), {})[b] = e
    return out


def _coords(alg: MonomialAlgebra, h: dict, blocks) -> dict[int, int]:
    """The coordinates on blocks of a _product h (path k at offset + slot[k])."""
    slot, table = alg._slot, blocks[0]
    return {table[key][0] + slot[k]: coeff for key, e in h.items() for k, coeff in e.items()}


class EndAlgebra:
    """The endomorphism algebra of a complex in the homotopy category,
    with enough structure to compute its radical and to decide whether it
    is local.  An element of End is a vector of coordinates in the basis
    `reps`, sparse chain maps that extend an echelon of the boundaries to
    one of the cycles (_hom_basis); that one echelon serves every
    to_quotient."""

    def __init__(self, x: ProjComplex, fld: PrimeField):
        self.x = x
        self.fld = fld
        self.blocks, self._echelon, self.reps = _hom_basis(x, x, 0, fld)
        self.dim = len(self.reps)
        self._cols = [min(r) for r in self.reps]  # each rep's pivot column
        self._struct: dict[tuple[int, int], list[int]] | None = None

    def to_quotient(self, ambient: list[dict[int, int]]) -> list[list[int]]:
        """Express each of a list of sparse ambient cycle vectors in the
        End basis, modulo boundaries: each is reduced against the echelon,
        and its coefficients on the rows of reps are its coordinates.
        RuntimeError when one leaves a remainder."""
        p, out = self.fld.p, []
        for row in _sparse(ambient, p):
            coeffs = _reduce(row, self._echelon, p)
            if row:
                raise RuntimeError("vector not a cycle modulo boundaries")
            out.append([coeffs.get(c, 0) for c in self._cols])
        return out

    def structure(self) -> dict[tuple[int, int], list[int]]:
        """{(i, j): b_i o b_j (apply b_j first)} in End coordinates."""
        if self._struct is None:
            alg, p = self.x.algebra, self.fld.p
            maps = [_split(r, self.blocks) for r in self.reps]
            pairs = [(i, j) for i in range(self.dim) for j in range(self.dim)]
            comps = [_coords(alg, _product(alg, maps[j], maps[i], 0, p), self.blocks)
                     for i, j in pairs]
            self._struct = dict(zip(pairs, self.to_quotient(comps)))
        return self._struct

    def _trace_form(self) -> list[list[int]]:
        """The trace form tr(L_i L_j), L_i left multiplication by b_i, whose
        kernel is the Jacobson radical J; FieldTooSmall unless p > dim."""
        p, n = self.fld.p, self.dim
        if p <= n:
            raise FieldTooSmall(f"characteristic {p} <= dim End = {n}")
        st = self.structure()
        # L_i has column l = st[(i, l)], so tr(L_i L_j) = sum_{k,l}
        # st[(i, l)][k] * st[(j, k)][l]: L_i read row by row dotted with
        # L_j read column by column
        by_rows = [[st[(i, l)][k] for k in range(n) for l in range(n)] for i in range(n)]
        by_cols = [[e for k in range(n) for e in st[(j, k)]] for j in range(n)]
        return [[sum(map(operator.mul, r, c)) % p for c in by_cols] for r in by_rows]

    def radical(self) -> list[list[int]]:
        """A basis of the Jacobson radical, the nullspace of the trace form
        (valid since p > dim)."""
        return self.fld.nullspace(self._trace_form(), self.dim)

    def is_local(self) -> bool:
        """Whether End is local: E/J, J the radical, is a division ring,
        so by Wedderburn's little theorem a field.  One elimination of the
        trace form gives E/J: J is its kernel, so v -> R v, R the k nonzero
        rows of its reduced echelon form, maps E onto E/J = GF(p)^k with
        kernel J and each b_u, u the i-th pivot column, to the i-th unit
        vector u_i; so R st[(u, v)] are E/J's structure constants.  E/J
        must be commutative; then x -> x^p - x is linear on it, and its
        kernel has one dimension per field factor (the zero algebra has
        none): k - rank[u_i^p - u_i], each p-th power by square-and-multiply."""
        p = self.fld.p
        rows, units = self.fld.rref(self._trace_form())
        st, k = self.structure(), len(units)
        q = [[[sum(map(operator.mul, r, st[(u, v)])) % p for r in rows[:k]] for v in units]
             for u in units]
        if any(q[i][j] != q[j][i] for i in range(k) for j in range(i)):
            return False  # noncommutative semisimple quotient

        def mul(a: list[int], b: list[int]) -> list[int]:
            return [sum(x * y * q[i][j][l] for i, x in enumerate(a) if x
                        for j, y in enumerate(b)) % p for l in range(k)]

        frob = []
        for i in range(k):
            unit = power = [int(j == i) for j in range(k)]
            for bit in bin(p)[3:]:  # the bits of p after the leading 1
                power = mul(power, power)
                if bit == "1":
                    power = mul(power, unit)
            frob.append([x - (j == i) for j, x in enumerate(power)])
        return k - self.fld.rank(frob) == 1


def build_shiftgraph_from_complexes(reps: list[ProjComplex], window: int,
                                    fld: PrimeField = DEFAULT_FIELD,
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
    isomorphism test, which reads degree n on the normalized complexes,
    runs only where those four numbers agree.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, not {window}")
    normed = []
    ends = []
    for k, x in enumerate(reps):
        if errors := check_complex(x, fld.p):
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
                        and _isomorphic(ends[i], normed[j], n)):
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
    return _isomorphic(EndAlgebra(x, fld), y, 0)


def _isomorphic(end: EndAlgebra, y: ProjComplex, n: int) -> bool:
    """Whether X = end.x, whose End is local, is a summand of Y[n], so
    X = Y[n] for an indecomposable Y.  The composites of the degree-n maps
    X -> Y and the degree -n maps Y -> X span a two-sided ideal of End(X),
    all of it exactly when it holds a unit, that is when X is a summand of
    Y[n].  Each composite of basis maps goes to to_quotient, and one rank
    says whether they span End(X); no radical is needed.  No composite
    (Hom(X, Y[n]) or Hom(Y[n], X) is 0) answers False."""
    x, fld, alg = end.x, end.fld, end.x.algebra
    fs, gs = ([_split(r, blocks) for r in reps]
              for blocks, _, reps in (_hom_basis(x, y, n, fld), _hom_basis(y, x, -n, fld)))
    comps = [_coords(alg, _product(alg, f, g, n, fld.p), end.blocks) for f in fs for g in gs]
    return bool(comps) and fld.rank(end.to_quotient(comps)) == end.dim
