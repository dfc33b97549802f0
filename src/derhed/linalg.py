"""Exact linear algebra over a prime field GF(p).

Matrices are dense numpy int64 arrays with entries reduced into [0, p):
every function here takes and returns them.  The default characteristic
32003 is large enough that trace-form radical computations downstream
stay valid (p must exceed every endomorphism-algebra dimension we ever
see).

Gaussian elimination (rref, rank, nullspace, solve) runs one
Gauss-Jordan loop, _eliminate, on the rows as lists of Python ints: the
matrices the homotopy and quiver engines reduce have at most a few
hundred cells, mostly zeros, and there a per-pivot numpy call costs more
than the arithmetic.  The loop loses to numpy on larger inputs.  Timed
on a 2-core VM (one rref of a random matrix mod 32003): with dense
entries the lists lose from about 10 rows on (0.29 against 0.17 ms at
10x12, 1.8 against 0.38 ms at 20x25); with 12% nonzero entries, as in
the hom complexes, from about 20 rows on (0.39 against 0.47 ms at 20x25,
2.2 against 0.83 ms at 30x35).  No caller reduces a matrix that large.

Products use raw int64 ``@`` here and downstream (``matmul``,
``EndAlgebra.radical``, ``_matpow_mod``), which is exact only while
K * (p - 1)**2 < 2**63 for the inner dimension K.  PrimeField therefore
accepts only p < MAX_PRIME = 2**20: then (p - 1)**2 < 2**40, and every
product with K < 2**23 is exact.
"""

from __future__ import annotations

from functools import cache

import numpy as np

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


def _eliminate(m, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over GF(p) on the rows of m as Python int lists: the
    reduced row echelon form as a list of rows, and its pivot columns.
    A pivot row is scaled only when its pivot is not 1, and only rows
    with a nonzero entry in the pivot column are updated."""
    m = np.asarray(m, dtype=np.int64)
    a = (m % p).tolist()
    rows, cols = m.shape
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

    def matrix(self, rows) -> np.ndarray:
        m = np.asarray(rows, dtype=np.int64) % self.p
        if m.ndim != 2:
            raise ValueError("expected a two-dimensional array")
        return m

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def inv(self, a: int) -> int:
        return pow(int(a) % self.p, self.p - 2, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b) % self.p

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        r, pivots = _eliminate(m, self.p)
        return np.array(r, dtype=np.int64).reshape(np.shape(m)), pivots

    def rank(self, m: np.ndarray) -> int:
        if m.size == 0:
            return 0
        return len(_eliminate(m, self.p)[1])

    def nullspace(self, m: np.ndarray) -> np.ndarray:
        """Basis of {v : m v = 0}, returned as columns of a matrix.

        The basis size is always cols - rank(m); for a full-rank square
        matrix the result has zero columns.
        """
        cols = m.shape[1]
        r, pivots = _eliminate(m, self.p)
        pivot_set = set(pivots)
        free = [c for c in range(cols) if c not in pivot_set]
        basis = [[0] * len(free) for _ in range(cols)]
        for k, fc in enumerate(free):
            basis[fc][k] = 1
            for i, pc in enumerate(pivots):
                basis[pc][k] = -r[i][fc] % self.p
        return np.array(basis, dtype=np.int64).reshape(cols, len(free))

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution x of a x = b, or None when inconsistent.

        b may be a vector or a matrix of stacked right-hand sides.
        """
        vec = b.ndim == 1
        rhs = b.reshape(-1, 1) if vec else b
        cols, k = a.shape[1], rhs.shape[1]
        r, pivots = _eliminate(np.hstack([a, rhs]), self.p)
        if pivots and pivots[-1] >= cols:
            return None
        x = [[0] * k for _ in range(cols)]
        for i, pc in enumerate(pivots):
            x[pc] = r[i][cols:]
        x = np.array(x, dtype=np.int64).reshape(cols, k)
        return x[:, 0] if vec else x

    def in_span(self, basis: np.ndarray, v: np.ndarray) -> bool:
        """Whether column vector v lies in the column span of basis."""
        return self.solve(basis, v) is not None
