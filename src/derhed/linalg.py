"""Exact linear algebra over a prime field GF(p).

Matrices are dense numpy int64 arrays with entries reduced into [0, p).
The default characteristic 32003 is large enough that trace-form radical
computations downstream stay valid (p must exceed every endomorphism-algebra
dimension we ever see).

Products use raw int64 ``@`` here and downstream (``matmul``,
``EndAlgebra.radical``, ``_matpow_mod``),
which is exact only while K * (p - 1)**2 < 2**63 for the inner dimension
K.  PrimeField therefore accepts only p < MAX_PRIME = 2**20: then
(p - 1)**2 < 2**40, and every product with K < 2**23 is exact.
"""

from __future__ import annotations

import numpy as np

from .shiftgraph import DEFAULT_PRIME

MAX_PRIME = 2 ** 20


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
        a = (np.array(m, dtype=np.int64)) % self.p
        rows, cols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            a[r] = (a[r] * self.inv(a[r, c])) % self.p
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % self.p
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self, m: np.ndarray) -> int:
        if m.size == 0:
            return 0
        return len(self.rref(m)[1])

    def nullspace(self, m: np.ndarray) -> np.ndarray:
        """Basis of {v : m v = 0}, returned as columns of a matrix.

        The basis size is always cols - rank(m); for a full-rank square
        matrix the result has zero columns.
        """
        cols = m.shape[1]
        r, pivots = self.rref(m)
        free = [c for c in range(cols) if c not in pivots]
        basis = np.zeros((cols, len(free)), dtype=np.int64)
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for i, pc in enumerate(pivots):
                basis[pc, k] = (-r[i, fc]) % self.p
        return basis

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution x of a x = b, or None when inconsistent.

        b may be a vector or a matrix of stacked right-hand sides.
        """
        vec = b.ndim == 1
        rhs = b.reshape(-1, 1) if vec else b
        cols = a.shape[1]
        aug = np.hstack([a % self.p, rhs % self.p])
        r, pivots = self.rref(aug)
        if any(c >= cols for c in pivots):
            return None
        x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
        for i, pc in enumerate(pivots):
            x[pc] = r[i, cols:]
        return x[:, 0] if vec else x

    def in_span(self, basis: np.ndarray, v: np.ndarray) -> bool:
        """Whether column vector v lies in the column span of basis."""
        return self.solve(basis, v) is not None
