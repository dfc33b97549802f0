"""Exact linear algebra over a prime field GF(p).

A matrix is a list of rows, each a list of Python ints reduced into
[0, p); a vector is a flat list of such ints, and a family of vectors
(the basis a nullspace returns, the right-hand sides and solutions of a
stacked solve) is a list of vectors.  A matrix with no rows has no
width, so the functions whose answer depends on the width (nullspace,
solve) take the column count from the caller.  Every function here
reduces its input mod p, so entries may be any ints.

Gaussian elimination (rref, rank, nullspace, solve) runs one
Gauss-Jordan loop, _eliminate, on the rows: the matrices the homotopy
and quiver engines reduce have at most a few hundred cells, mostly
zeros, and the loop touches only the rows with a nonzero entry in the
pivot column.  Python ints never overflow, so every product is exact.

The default characteristic 32003 is large enough that trace-form radical
computations downstream stay valid (p must exceed every
endomorphism-algebra dimension we ever see).  PrimeField accepts only
p < MAX_PRIME = 2**20, so that checking primality by trial division
costs at most about 500 divisions.
"""

from __future__ import annotations

from functools import cache

from .shiftgraph import DEFAULT_PRIME

MAX_PRIME = 2 ** 20


# trial division runs once per p; PrimeField checks p < MAX_PRIME first,
# so the memo holds at most one entry per integer below 2**20
@cache
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


def _eliminate(m: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over GF(p) on the rows of m: the reduced row echelon
    form as a new list of rows, and its pivot columns.  A pivot row is
    scaled only when its pivot is not 1, and only rows with a nonzero
    entry in the pivot column are updated."""
    a = [[x % p for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for k in range(r, rows):
            if a[k][c]:
                break
        else:
            continue
        row = a[k]
        if k != r:
            a[k] = a[r]
        v = row[c]
        if v != 1:
            inv = pow(v, -1, p)
            row = [x * inv % p for x in row]
        a[r] = row
        for k in range(rows):
            f = a[k][c]
            if f and k != r:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], row)]
        pivots.append(c)
        r += 1
    return a, pivots


class PrimeField:
    """Arithmetic and Gaussian elimination over GF(p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MAX_PRIME:
            raise ValueError(f"field characteristic must be below 2**20, got {p}")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def matrix(self, rows) -> list[list[int]]:
        """The rows as a matrix with entries reduced into [0, p)."""
        m = [[int(x) % self.p for x in row] for row in rows]
        if any(len(row) != len(m[0]) for row in m):
            raise ValueError("rows of a matrix must have equal length")
        return m

    def zeros(self, rows: int, cols: int) -> list[list[int]]:
        return [[0] * cols for _ in range(rows)]

    def identity(self, n: int) -> list[list[int]]:
        return [[int(i == j) for j in range(n)] for i in range(n)]

    def inv(self, a: int) -> int:
        """The inverse of a mod p; ValueError when a is 0 mod p."""
        return pow(int(a), -1, self.p)

    def matmul(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        """The product a b; b must have at least one row."""
        p = self.p
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
                for row in a]

    def rref(self, m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        return _eliminate(m, self.p)

    def rank(self, m: list[list[int]]) -> int:
        return len(_eliminate(m, self.p)[1])

    def nullspace(self, m: list[list[int]], cols: int) -> list[list[int]]:
        """A basis of {v : m v = 0} for a matrix with cols columns, as a
        list of cols - rank(m) vectors (none for a full-rank square m)."""
        r, pivots = _eliminate(m, self.p)
        pivot_set = set(pivots)
        basis = []
        for fc in range(cols):
            if fc not in pivot_set:
                v = [0] * cols
                v[fc] = 1
                for i, pc in enumerate(pivots):
                    v[pc] = -r[i][fc] % self.p
                basis.append(v)
        return basis

    def solve(self, a: list[list[int]], bs: list[list[int]],
              cols: int) -> list[list[int]] | None:
        """For a matrix a with cols columns and a list of right-hand sides
        b (each a vector with one entry per row of a), one solution x of
        a x = b for each, or None when some system is inconsistent."""
        k = len(bs)
        r, pivots = _eliminate([row + [b[i] for b in bs] for i, row in enumerate(a)],
                               self.p)
        if pivots and pivots[-1] >= cols:
            return None
        xs = [[0] * cols for _ in range(k)]
        for i, pc in enumerate(pivots):
            for j in range(k):
                xs[j][pc] = r[i][cols + j]
        return xs

    def in_span(self, vectors: list[list[int]], v: list[int]) -> bool:
        """Whether v lies in the span of the vectors (each as long as v)."""
        a = [[u[i] for u in vectors] for i in range(len(v))]
        return self.solve(a, [v], len(vectors)) is not None
