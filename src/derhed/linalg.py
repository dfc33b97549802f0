"""Exact linear algebra over a prime field GF(p).

A matrix is a list of rows, and each row is either a list of Python ints
or a dict {column: entry} of its nonzero entries (explicit zeros are
allowed); one matrix may mix both.  A vector is a flat list of ints, and
a family of vectors (the basis a nullspace returns, the right-hand sides
and solutions of a stacked solve) is a list of vectors.  A matrix with
no rows has no width, and a dict row names no width, so nullspace and
solve take the column count from the caller.  Every function here
reduces its input mod p, so entries may be any ints, and every result of
PrimeField is dense, with entries in [0, p).

Gaussian elimination runs one forward loop, _eliminate, over sparse
rows: each row is reduced at its least column against the pivot row
there, so it touches only nonzero entries.  The Hom systems of the
homotopy and quiver engines have at most a few hundred cells and about
a tenth of them nonzero.  rank counts the pivots of that loop; rref,
nullspace and solve then finish with a Gauss-Jordan back-substitution
(_reduced), and nullspace is the dense view of _kernel, which gives each
basis vector as a sparse row.  Given an echelon as its `pivots`
argument, _eliminate extends it in place; _reduce reduces one row
against an echelon without extending it and records the coefficient
taken at each pivot.  The homotopy engine builds its End bases from
_kernel's rows and its End coordinates with these two, so no other
module reduces rows.  Python ints never overflow, so every product is
exact.

The default characteristic 32003 is large enough that trace-form radical
computations downstream stay valid (p must exceed every
endomorphism-algebra dimension we ever see), and DEFAULT_FIELD, GF(32003)
built once at import, is the field of every call that names none.
PrimeField accepts only p < MAX_PRIME = 2**20, so that checking primality
by trial division costs at most about 500 divisions.
"""

from __future__ import annotations

from .shiftgraph import DEFAULT_PRIME

MAX_PRIME = 2 ** 20
Row = list[int] | dict[int, int]  # a list of entries, or {column: entry}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _subtract(row: dict[int, int], f: int, pivot: dict[int, int], p: int) -> None:
    """row -= f * pivot in place, keeping only nonzero entries."""
    for k, y in pivot.items():
        x = (row.get(k, 0) - f * y) % p
        if x:
            row[k] = x
        else:
            del row[k]  # f * y is nonzero, so k was in the row


def _eliminate(m: list[Row], p: int,
               pivots: dict[int, dict[int, int]] | None = None) -> dict[int, dict[int, int]]:
    """Forward elimination over GF(p): {pivot column: echelon row}, each
    row a dict of nonzero entries whose least column is its pivot, scaled
    to 1.  Each row of m in turn is reduced at its least column against
    the pivot row there until it is zero or opens a new pivot.  Given an
    echelon `pivots` of this form, the rows of m extend it in place, each
    new pivot after the old ones in key order, and it is returned."""
    if pivots is None:
        pivots = {}
    for row in m:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: y for c, x in items if (y := x % p)}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                v = row[c]
                if v != 1:
                    inv = pow(v, -1, p)
                    row = {k: x * inv % p for k, x in row.items()}
                pivots[c] = row
                break
            _subtract(row, row[c], pivot, p)
    return pivots


def _reduce(row: dict[int, int], echelon: dict[int, dict[int, int]],
            p: int) -> dict[int, int]:
    """Reduce the sparse row in place at its least column against the
    echelon row there (pivot 1) until it is zero or meets no pivot, and
    give the coefficient taken at each pivot column."""
    coeffs = {}
    while row and (pivot := echelon.get(c := min(row))) is not None:
        coeffs[c] = f = row[c]
        _subtract(row, f, pivot, p)
    return coeffs


def _reduced(m: list[Row], p: int) -> tuple[list[int], dict[int, dict[int, int]]]:
    """The pivot columns of m, ascending, and {pivot column: row} of its
    reduced row echelon form: back-substitution, from the last pivot up,
    clears the other pivot columns of each echelon row."""
    pivots = _eliminate(m, p)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _subtract(row, row[k], pivots[k], p)
    return cols, pivots


def _kernel(m: list[Row], cols: int, p: int) -> list[dict[int, int]]:
    """A basis of {v : m v = 0}, m with cols columns: cols - rank(m) sparse
    rows, one per free column, ascending, each holding its nonzero entries."""
    _, reduced = _reduced(m, p)
    basis = {fc: {fc: 1} for fc in range(cols) if fc not in reduced}
    for pc, row in reduced.items():
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = -x % p
    return list(basis.values())


class FieldTooSmall(Exception):
    """The field characteristic does not exceed the endomorphism-algebra
    dimension, so the trace-form radical computation is not valid."""


class PrimeField:
    """Arithmetic and Gaussian elimination over GF(p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MAX_PRIME:
            raise ValueError(f"field characteristic must be below 2**20, got {p}")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def rref(self, m: list[Row]) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form, one dense row per row of m with the
        zero rows last, and the list of pivot columns.  The rows are as
        wide as the widest row of m: a list row is as wide as its length,
        a dict row reaches one past its greatest key."""
        pivots, reduced = _reduced(m, self.p)
        width = max((max(row, default=-1) + 1 if isinstance(row, dict) else len(row)
                     for row in m), default=0)
        rows = [[reduced[c].get(k, 0) for k in range(width)] for c in pivots]
        return rows + [[0] * width for _ in range(len(m) - len(rows))], pivots

    def rank(self, m: list[Row]) -> int:
        return len(_eliminate(m, self.p))

    def nullspace(self, m: list[Row], cols: int) -> list[list[int]]:
        """_kernel's basis of {v : m v = 0}, m with cols columns, dense."""
        return [[v.get(c, 0) for c in range(cols)] for v in _kernel(m, cols, self.p)]

    def solve(self, a: list[Row], bs: list[list[int]],
              cols: int) -> list[list[int]] | None:
        """For a matrix a with cols columns and a list of right-hand sides
        b (each a vector with one entry per row of a), one solution x of
        a x = b for each, or None when some system is inconsistent."""
        pivots, reduced = _reduced(
            [{**(row if isinstance(row, dict) else dict(enumerate(row))),
              **{cols + j: b[i] for j, b in enumerate(bs)}} for i, row in enumerate(a)],
            self.p)
        if pivots and pivots[-1] >= cols:
            return None
        # the free unknowns are 0; pivot unknown c reads its row's right side
        return [[reduced.get(c, {}).get(cols + j, 0) for c in range(cols)]
                for j in range(len(bs))]


# the one field of every call that names none: each PrimeField(p) checks p
# once, so the default is built, and its primality checked, once per process
DEFAULT_FIELD = PrimeField()
