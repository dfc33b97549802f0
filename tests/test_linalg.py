import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derhed.linalg import DEFAULT_PRIME, MAX_PRIME, PrimeField

from oracles import rank_oracle

fld = PrimeField()

LARGEST_PRIME = 1048573  # the largest prime below MAX_PRIME = 2**20
big = PrimeField(LARGEST_PRIME)


def test_default_prime_is_prime():
    assert DEFAULT_PRIME == 32003
    # primality is memoized per p: a repeated construction raises too
    for _ in range(2):
        with pytest.raises(ValueError, match="prime"):
            PrimeField(32004)


def test_characteristic_bound():
    # rejected before the primality test: a 61-bit prime would take about
    # 1e9 trial divisions
    for p in (MAX_PRIME, 2147483647, 2**61 - 1):
        with pytest.raises(ValueError, match=r"below 2\*\*20"):
            PrimeField(p)
    assert PrimeField(LARGEST_PRIME).p == LARGEST_PRIME


def test_small_field():
    f5 = PrimeField(5)
    assert f5.inv(2) == 3
    assert f5.matrix([[7, -1]]).tolist() == [[2, 4]]


def test_rank_against_minor_oracle():
    rng = np.random.default_rng(20260826)
    for _ in range(20):
        m = rng.integers(-5, 6, size=(6, 4))
        assert fld.rank(fld.matrix(m)) == rank_oracle(m, fld.p)


def test_rank_rectangular_known():
    m = fld.matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert fld.rank(m) == 2
    assert fld.rank(fld.zeros(3, 3)) == 0
    assert fld.rank(fld.identity(4)) == 4


matrices = st.lists(
    st.lists(st.integers(-50, 50), min_size=4, max_size=4),
    min_size=2, max_size=6,
).map(lambda rows: fld.matrix(rows))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    ns = fld.nullspace(m)
    assert ns.shape == (m.shape[1], m.shape[1] - fld.rank(m))
    if ns.shape[1]:
        assert not np.any(fld.matmul(m, ns))


@settings(max_examples=60, deadline=None)
@given(matrices, st.permutations(list(range(4))))
def test_rank_column_permutation_invariant(m, perm):
    assert fld.rank(m) == fld.rank(m[:, perm])
    assert fld.rank(m) == fld.rank(m.T)


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_solve_consistent_systems(m, xs):
    x = np.array(xs, dtype=np.int64) % fld.p
    b = fld.matmul(m, x)
    got = fld.solve(m, b)
    assert got is not None
    assert np.array_equal(fld.matmul(m, got), b)


def test_solve_inconsistent():
    a = fld.matrix([[1, 0], [1, 0]])
    b = np.array([1, 2], dtype=np.int64)
    assert fld.solve(a, b) is None


def test_in_span():
    basis = fld.matrix([[1, 0], [0, 1], [0, 0]])
    assert fld.in_span(basis, np.array([3, 4, 0], dtype=np.int64))
    assert not fld.in_span(basis, np.array([0, 0, 1], dtype=np.int64))


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(rows, cols):
    m = fld.zeros(rows, cols)
    assert fld.rank(m) == 0
    ns = fld.nullspace(m)
    assert ns.shape == (cols, cols) and np.array_equal(ns, fld.identity(cols))
    zero = np.zeros(rows, dtype=np.int64)
    x = fld.solve(m, zero)
    assert x.shape == (cols,) and not x.any()
    assert fld.solve(m, fld.zeros(rows, 2)).shape == (cols, 2)
    assert fld.in_span(m, zero)
    if rows:
        # the span of no columns (or of zero columns) is {0}
        one = np.ones(rows, dtype=np.int64)
        assert fld.solve(m, one) is None
        assert not fld.in_span(m, one)


def test_rref_idempotent():
    m = fld.matrix([[2, 4, 1], [1, 3, 3], [3, 7, 4]])
    r1, p1 = fld.rref(m)
    r2, p2 = fld.rref(r1)
    assert np.array_equal(r1, r2) and p1 == p2


def _exact_product(a, b, p: int) -> np.ndarray:
    return np.array((a.astype(object) @ b.astype(object)) % p, dtype=np.int64)


# near the bound, entries reduce into [0, p) and every product must stay
# exact in int64; rank-deficient inputs are built as products of thin factors

big_entries = st.integers(0, LARGEST_PRIME - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_rank_near_bound_against_oracle(rows, cols, inner, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, LARGEST_PRIME, size=(rows, inner))
    b = rng.integers(0, LARGEST_PRIME, size=(inner, cols))
    m = _exact_product(a, b, LARGEST_PRIME)
    assert big.rank(m) == rank_oracle(m, LARGEST_PRIME)
    full = rng.integers(0, LARGEST_PRIME, size=(rows, cols))
    assert big.rank(full) == rank_oracle(full, LARGEST_PRIME)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(big_entries, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.lists(big_entries, min_size=2, max_size=2), min_size=3, max_size=3))
def test_matmul_exact_near_bound(a_rows, b_rows):
    a, b = big.matrix(a_rows), big.matrix(b_rows)
    assert np.array_equal(big.matmul(a, b), _exact_product(a, b, LARGEST_PRIME))


# the RREF of a matrix is unique, so the kernel is tested by properties that
# pin it down, at small and large p and on every shape up to 7 x 7

small_primes = st.sampled_from([2, 3, 5, 32003, LARGEST_PRIME])


@st.composite
def matrices_mod_p(draw):
    p = draw(small_primes)
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.one_of(st.just(0), st.integers(0, p - 1), st.integers(-3 * p, 3 * p))
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return PrimeField(p), np.array(m, dtype=np.int64).reshape(rows, cols)


def _invertible(rng, n: int, p: int) -> np.ndarray:
    """A random product of elementary matrices mod p."""
    e = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            e[i] = (e[i] + int(rng.integers(1, p)) * e[j]) % p
        else:
            e[i] = (e[i] * int(rng.integers(1, p))) % p
    return e[rng.permutation(n)]


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p(), st.integers(0, 2**32 - 1))
def test_rref_is_the_reduced_form(fm, seed):
    f, m = fm
    p = f.p
    rows, cols = m.shape
    r, pivots = f.rref(m)
    assert r.dtype == np.int64 and r.shape == m.shape
    assert r.min(initial=0) >= 0 and r.max(initial=0) < p
    # reduced: pivots strictly increase, each pivot column is a unit
    # vector, the first nonzero entry of row i is at pivots[i], and the
    # zero rows come last
    k = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert r[:, c].tolist() == [int(i == j) for j in range(rows)]
        assert not r[i, :c].any()
    assert not r[k:].any()
    assert f.rank(m) == k
    # same row space: the rows of rref(m) add nothing to the rows of m
    assert f.rank(np.vstack([m, r])) == k
    # invariant under invertible row operations
    rng = np.random.default_rng(seed)
    if rows:
        e = _invertible(rng, rows, p)
        r2, p2 = f.rref(_exact_product(e, m % p, p))
        assert np.array_equal(r2, r) and p2 == pivots
    # nullspace and solve satisfy the equations
    ns = f.nullspace(m)
    assert ns.shape == (cols, cols - k) and ns.dtype == np.int64
    assert not _exact_product(m % p, ns, p).any()
    assert f.rank(ns.T) == cols - k
    x = rng.integers(0, p, size=(cols, 2))
    b = _exact_product(m % p, x, p)
    got = f.solve(m, b)
    assert got.shape == (cols, 2)
    assert np.array_equal(_exact_product(m % p, got, p), b)
    got = f.solve(m, b[:, 0])
    assert got.shape == (cols,)
    assert np.array_equal(_exact_product(m % p, got.reshape(-1, 1), p)[:, 0], b[:, 0])
    if k < rows:
        # y^T m = 0 for a nonzero y; a right-hand side b with y . b != 0
        # lies outside the column space
        y = f.nullspace(m.T)[:, 0]
        b = np.zeros(rows, dtype=np.int64)
        b[np.flatnonzero(y)[0]] = 1
        assert f.solve(m, b) is None
