import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derhed.linalg import DEFAULT_PRIME, MAX_PRIME, PrimeField, _eliminate, _kernel, _sparse

from oracles import rank_oracle, rank_oracle_gauss

fld = PrimeField()

LARGEST_PRIME = 1048573  # the largest prime below MAX_PRIME = 2**20
big = PrimeField(LARGEST_PRIME)


def test_default_prime_is_prime():
    assert DEFAULT_PRIME == 32003
    # a repeated construction raises too
    for _ in range(2):
        with pytest.raises(ValueError, match="prime"):
            PrimeField(32004)


def test_calls_naming_no_field_use_the_default_field(monkeypatch):
    # every entry point that names no field runs over linalg.DEFAULT_FIELD,
    # with the answers of an explicit GF(DEFAULT_PRIME), and builds no field
    from derhed import algebra_cli, linalg
    from derhed.complexes import hom_k_dim
    from derhed.generators import (_an_quiver, dual_numbers_algebra, dual_numbers_chain,
                                   gen_a2_from_complexes, gen_dual_numbers, gen_dynkin_an,
                                   gen_example_a2, gen_semisimple_block)
    from derhed.quiver import MonomialAlgebra, euler_ext1_dim, rep_hom_dim
    from oracles import interval_reps

    alg = dual_numbers_algebra()
    chains = [dual_numbers_chain(alg, l) for l in (1, 2, 3)]
    (_, m), (_, n) = interval_reps(MonomialAlgebra(_an_quiver(2, ">"), []), 2)[:2]

    def answers(*fld):
        # the abelian generators take the characteristic alone
        chars = [f.p for f in fld]
        g, heart = gen_example_a2(*chars)
        return ([hom_k_dim(x, y, k, *fld) for x in chains for y in chains
                 for k in range(-2, 3)],
                [h.to_json() for h in (gen_dual_numbers(3, 1, *fld),
                                       gen_a2_from_complexes(1, *fld),
                                       gen_dynkin_an(3, "><", *chars),
                                       g, gen_semisimple_block(2, 1, *chars))],
                heart.offsets,
                rep_hom_dim(m, n, *fld), euler_ext1_dim(m, n, *fld))

    expected = answers(PrimeField(DEFAULT_PRIME))
    built = []
    init = PrimeField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PrimeField, "__init__", counting_init)
    assert answers() == expected
    assert built == []
    monkeypatch.delenv("DERHED_FIELD_CHAR", raising=False)
    assert algebra_cli._field() is linalg.DEFAULT_FIELD
    assert linalg.DEFAULT_FIELD.p == DEFAULT_PRIME


def test_characteristic_bound():
    # rejected before the primality test: a 61-bit prime would take about
    # 1e9 trial divisions
    for p in (MAX_PRIME, 2147483647, 2**61 - 1):
        with pytest.raises(ValueError, match=r"below 2\*\*20"):
            PrimeField(p)
    assert PrimeField(LARGEST_PRIME).p == LARGEST_PRIME


def test_small_non_primes_refused():
    # 1 is below the least prime, and 9 is odd with a divisor 3
    for p in (1, 9):
        with pytest.raises(ValueError, match=f"must be prime, got {p}"):
            PrimeField(p)


def test_small_field():
    f5 = PrimeField(5)
    # 7 and -1 reduce to 2 and 4, and the row scales by 1/2 = 3
    assert f5.rref([[7, -1]]) == ([[1, 2]], [0])


def _transpose(m, cols: int):
    return [[row[c] for row in m] for c in range(cols)]


def _apply(m, vectors, p: int):
    """m v mod p for each vector v, by the definition of the product."""
    return [[sum(a * b for a, b in zip(row, v)) % p for row in m] for v in vectors]


def test_rank_against_minor_oracle():
    rng = np.random.default_rng(20260826)
    for _ in range(20):
        m = rng.integers(-5, 6, size=(6, 4))
        assert fld.rank(m.tolist()) == rank_oracle(m, fld.p)


def test_rank_rectangular_known():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert fld.rank(m) == 2
    assert fld.rank([[0] * 3 for _ in range(3)]) == 0
    assert fld.rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4


matrices = st.lists(
    st.lists(st.integers(-50, 50), min_size=4, max_size=4),
    min_size=2, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    ns = fld.nullspace(m, 4)
    assert len(ns) == 4 - fld.rank(m) and all(len(v) == 4 for v in ns)
    if ns:
        assert not any(x for row in _exact_product(m, _transpose(ns, 4), fld.p) for x in row)


@settings(max_examples=60, deadline=None)
@given(matrices, st.permutations(list(range(4))))
def test_rank_column_permutation_invariant(m, perm):
    assert fld.rank(m) == fld.rank([[row[c] for c in perm] for row in m])
    assert fld.rank(m) == fld.rank(_transpose(m, 4))


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_solve_consistent_systems(m, xs):
    x = [[v % fld.p] for v in xs]
    b = [row[0] for row in _exact_product(m, x, fld.p)]
    got = fld.solve(m, [b], 4)
    assert got is not None and len(got) == 1
    assert [row[0] for row in _exact_product(m, [[v] for v in got[0]], fld.p)] == b


def test_solve_inconsistent():
    a = [[1, 0], [1, 0]]
    assert fld.solve(a, [[1, 2]], 2) is None


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(rows, cols):
    m = [[0] * cols for _ in range(rows)]
    assert len(m) == rows and all(row == [0] * cols for row in m)
    assert fld.rank(m) == 0
    ns = fld.nullspace(m, cols)
    assert ns == [[int(i == j) for j in range(cols)] for i in range(cols)]
    zero = [0] * rows
    assert fld.solve(m, [zero], cols) == [[0] * cols]
    assert fld.solve(m, [zero, zero], cols) == [[0] * cols, [0] * cols]
    if rows:
        # the span of no columns (or of zero columns) is {0}
        assert fld.solve(m, [[1] * rows], cols) is None


def test_rref_idempotent():
    m = [[2, 4, 1], [1, 3, 3], [3, 7, 4]]
    r1, p1 = fld.rref(m)
    r2, p2 = fld.rref(r1)
    assert r1 == r2 and p1 == p2


def _exact_product(a, b, p: int):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p
             for j in range(len(b[0]))] for i in range(len(a))]


# near the bound, entries reduce into [0, p) and every product must stay
# exact; rank-deficient inputs are built as products of thin factors


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_rank_near_bound_against_oracle(rows, cols, inner, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, LARGEST_PRIME, size=(rows, inner)).tolist()
    b = rng.integers(0, LARGEST_PRIME, size=(inner, cols)).tolist()
    m = _exact_product(a, b, LARGEST_PRIME)
    assert big.rank(m) == rank_oracle(m, LARGEST_PRIME)
    full = rng.integers(0, LARGEST_PRIME, size=(rows, cols)).tolist()
    assert big.rank(full) == rank_oracle(full, LARGEST_PRIME)


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
    return PrimeField(p), m, cols


def _invertible(rng, n: int, p: int):
    """A random product of elementary matrices mod p."""
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        c = int(rng.integers(1, p))
        if i != j:
            e[i] = [(x + c * y) % p for x, y in zip(e[i], e[j])]
        else:
            e[i] = [x * c % p for x in e[i]]
    return [e[int(i)] for i in rng.permutation(n)]


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p(), st.integers(0, 2**32 - 1))
def test_rref_is_the_reduced_form(fm, seed):
    f, m, cols = fm
    p = f.p
    rows = len(m)
    r, pivots = f.rref(m)
    assert len(r) == rows and all(len(row) == cols for row in r)
    assert all(type(x) is int and 0 <= x < p for row in r for x in row)
    # reduced: pivots strictly increase, each pivot column is a unit
    # vector, the first nonzero entry of row i is at pivots[i], and the
    # zero rows come last
    k = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert [row[c] for row in r] == [int(i == j) for j in range(rows)]
        assert not any(r[i][:c])
    assert not any(x for row in r[k:] for x in row)
    assert f.rank(m) == k
    # same row space: the rows of rref(m) add nothing to the rows of m
    assert f.rank(m + r) == k
    # invariant under invertible row operations
    rng = np.random.default_rng(seed)
    if rows:
        e = _invertible(rng, rows, p)
        r2, p2 = f.rref(_exact_product(e, m, p))
        assert r2 == r and p2 == pivots
    # nullspace and solve satisfy the equations
    ns = f.nullspace(m, cols)
    assert len(ns) == cols - k
    assert all(type(x) is int and 0 <= x < p for v in ns for x in v)
    assert not any(x for v in _apply(m, ns, p) for x in v)
    assert f.rank(ns) == cols - k
    xs = rng.integers(0, p, size=(2, cols)).tolist()
    bs = _apply(m, xs, p)
    got = f.solve(m, bs, cols)
    assert len(got) == 2 and all(len(x) == cols for x in got)
    assert _apply(m, got, p) == bs
    got = f.solve(m, bs[:1], cols)
    assert len(got) == 1 and _apply(m, got, p) == bs[:1]
    if k < rows:
        # y^T m = 0 for a nonzero y; a right-hand side b with y . b != 0
        # lies outside the column space
        y = f.nullspace(_transpose(m, cols), rows)[0]
        b = [0] * rows
        b[next(i for i, v in enumerate(y) if v)] = 1
        assert f.solve(m, [b], cols) is None


# a row may be a list or a dict {column: entry}; the kernels must answer
# the same on both, whatever the dict holds: entries >= p, negative
# entries, explicit zeros (0 or a multiple of p), or nothing at all


def _declared_width(rows) -> int:
    return max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows),
               default=0)


def _assert_same_answers(f, dense, sparse, cols, bs):
    """rank, rref, nullspace and solve on the rows `sparse` (dicts, or a
    mix of dicts and lists) agree with the same rows `dense` as lists,
    and rank agrees with both oracles.  No kernel changes its input."""
    p = f.p
    before = [r.copy() for r in sparse]
    k = f.rank(dense)
    assert f.rank(sparse) == k
    if dense:
        assert k == rank_oracle_gauss(dense, p)
        if len(dense) <= 5 and cols <= 5:
            assert k == rank_oracle(dense, p)
    else:
        assert k == 0
    r_dense, piv_dense = f.rref(dense)
    r_sparse, piv_sparse = f.rref(sparse)
    # dict rows name no trailing zero columns, so rref of the dict rows is
    # as wide as the widest row given; the dense columns past it are zero
    w = _declared_width(sparse)
    assert piv_sparse == piv_dense and len(piv_dense) == k
    assert r_sparse == [row[:w] for row in r_dense]
    assert not any(x for row in r_dense for x in row[w:])
    assert f.nullspace(sparse, cols) == f.nullspace(dense, cols)
    assert f.solve(sparse, bs, cols) == f.solve(dense, bs, cols)
    assert sparse == before


@st.composite
def dense_and_sparse(draw):
    p = draw(small_primes)
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.one_of(st.just(0), st.integers(p, 3 * p), st.integers(-3 * p, -1),
                        st.sampled_from([p, -p, 2 * p]), st.integers(0, p - 1))
    dense = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    sparse = []
    for row in dense:
        # one row in four stays a list; the others become dicts that keep
        # some of their zeros
        keep = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        sparse.append(row if draw(st.integers(0, 3)) == 0
                      else {c: x for c, x in enumerate(row) if x or keep[c]})
    bs = draw(st.lists(st.lists(entries, min_size=rows, max_size=rows), max_size=2))
    return PrimeField(p), dense, sparse, cols, bs


@settings(max_examples=200, deadline=None)
@given(dense_and_sparse())
@example((PrimeField(5), [[0, 0, 7]], [{2: 7}], 3, [[1]]))  # only pivot: last column
@example((PrimeField(5), [[0, 0], [0, 0]], [{}, {0: 0, 1: 10}], 2, [[0, 0], [1, 0]]))
@example((PrimeField(3), [], [], 4, [[]]))
def test_dict_rows_answer_as_dense_rows(case):
    _assert_same_answers(*case)


@settings(max_examples=200, deadline=None)
@given(dense_and_sparse())
@example((PrimeField(5), [[0, 0, 7]], [{2: 7}], 3, []))
@example((PrimeField(3), [], [], 4, []))
def test_kernel_is_the_sparse_nullspace(case):
    # one row per free column, ascending, 1 there and 0 at the other free
    # columns, and no zero entry anywhere; each row solves m v = 0, and
    # the dense rows are nullspace's.  _kernel takes _sparse's rows
    f, dense, sparse, cols, _ = case
    rows = _kernel(_sparse(sparse, f.p), cols, f.p)
    free = [c for c in range(cols) if c not in f.rref(dense)[1]]
    assert len(free) == cols - rank_oracle(np.array(dense).reshape(len(dense), cols), f.p)
    assert [{c: r[c] for c in free if c in r} for r in rows] == [{c: 1} for c in free]
    assert all(0 < x < f.p for r in rows for x in r.values())
    vectors = [[r.get(c, 0) for c in range(cols)] for r in rows]
    for v in vectors:
        assert all(sum(x * y for x, y in zip(row, v)) % f.p == 0 for row in dense)
    assert vectors == f.nullspace(dense, cols) == f.nullspace(sparse, cols)


@pytest.mark.parametrize("p", [2, 5, 32003, LARGEST_PRIME])
def test_dict_rows_edge_shapes(p):
    f = PrimeField(p)
    # all-zero matrices, as empty dicts and as dicts of explicit zeros
    for cols in (0, 1, 3):
        for rows in (1, 3):
            dense = [[0] * cols for _ in range(rows)]
            for sparse in ([{}] * rows, [{c: 0 for c in range(cols)}] * rows,
                           [{c: p * (c + 1) for c in range(cols)}] * rows):
                _assert_same_answers(f, dense, sparse, cols, [[0] * rows, [1] * rows])
                assert f.rank(sparse) == 0 and f.nullspace(sparse, cols) == [
                    [int(i == j) for j in range(cols)] for i in range(cols)]
    # the only pivot is in the last column, with entries >= p and negative
    dense = [[0, 0, 0, p + 3], [0, 0, 0, -(p + 3)], [p, -p, 0, 0]]
    sparse = [{3: p + 3}, {0: 0, 3: -(p + 3)}, {0: p, 1: -p}]
    assert f.rref(sparse)[1] == [3] and f.rank(sparse) == 1
    _assert_same_answers(f, dense, sparse, 4, [[1, -1, 0], [1, 0, 0]])
    assert f.solve(sparse, [[1, -1, 0]], 4) == [[0, 0, 0, pow(p + 3, -1, p)]]
    assert f.solve(sparse, [[1, 0, 0]], 4) is None


# _eliminate(m2, p, e) extends the echelon e of m1 in place, so an echelon
# built in two calls is the one-call echelon of the rows m1 + m2, with the
# same rows, pivots and pivot order; each call takes fresh _sparse rows,
# since _eliminate consumes the rows it is given


@st.composite
def two_row_lists(draw):
    p = draw(st.sampled_from([2, 3, 32003, LARGEST_PRIME]))
    cols = draw(st.integers(0, 6))
    entries = st.one_of(st.just(0), st.integers(-3 * p, -1), st.integers(0, 3 * p))

    def rows():
        out = []
        for row in draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                 max_size=5)):
            # a list, or a dict that keeps some of its zeros
            keep = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
            out.append(row if draw(st.booleans())
                       else {c: x for c, x in enumerate(row) if x or keep[c]})
        return out

    return p, rows(), rows()


@settings(max_examples=200, deadline=None)
@given(two_row_lists())
@example((5, [[0, 1]], [{0: 2, 1: -2}]))  # the new pivot's column precedes the old one's
@example((3, [], [[0, 0], {0: 3}]))
def test_eliminate_extends_an_echelon(case):
    p, m1, m2 = case
    e = _eliminate(_sparse(m1, p), p)
    assert _eliminate(_sparse(m2, p), p, e) is e
    assert list(e.items()) == list(_eliminate(_sparse(m1 + m2, p), p).items())


# _eliminate consumes its rows, so every public entry point hands it fresh
# _sparse copies and leaves the caller's matrix, and its right-hand sides,
# exactly as they were: list rows, dict rows or a mix, entries anywhere


@st.composite
def caller_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 32003]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(st.integers(-3 * p, -1), st.integers(p, 3 * p),
                        st.sampled_from([0, p, -p]), st.integers(0, p - 1))
    kind = draw(st.sampled_from(["list", "dict", "mixed"]))
    m = []
    for row in draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows)):
        as_dict = kind == "dict" or (kind == "mixed" and draw(st.booleans()))
        m.append({c: x for c, x in enumerate(row)} if as_dict else row)
    bs = draw(st.lists(st.lists(entries, min_size=rows, max_size=rows), max_size=2))
    return PrimeField(p), m, cols, bs


@settings(max_examples=150, deadline=None)
@given(caller_matrices())
@example((PrimeField(5), [[7, -1], {0: -5, 1: 12}], 2, [[6, -9]]))
@example((PrimeField(2), [{0: 3}, [5, 0]], 2, [[1, 3], [-1, 2]]))
def test_entry_points_leave_the_caller_matrix_unchanged(case):
    f, m, cols, bs = case
    rows, before = list(m), [r.copy() for r in m]
    bs_before = [b.copy() for b in bs]
    f.rank(m)
    f.rref(m)
    f.nullspace(m, cols)
    f.solve(m, bs, cols)
    assert len(m) == len(rows) and all(r is s for r, s in zip(m, rows))
    assert m == before and all(type(r) is type(s) for r, s in zip(m, before))
    assert bs == bs_before


def test_nullspace_and_solve_refuse_entries_past_cols():
    f = PrimeField(7)
    for call in (lambda: f.nullspace([{0: 1, 5: 1}], 3),
                 lambda: f.nullspace([[1, 0, 0, 2]], 3),
                 lambda: f.solve([[1, 0, 0, 2]], [[1]], 3),
                 lambda: f.solve([{0: 1, 4: 1}], [[1]], 3),
                 lambda: f.solve([[1, 0, 0], {3: -1}], [[1, 0]], 3)):
        with pytest.raises(ValueError, match="past its 3 columns"):
            call()
    # an entry past cols that is zero mod p is no entry
    assert f.nullspace([{0: 1, 5: 7}, [0, 1, 0, 0, -14]], 3) == [[0, 0, 1]]
    assert f.solve([[1, 0, 0, 0], {0: 1, 4: 0}], [[1, 1]], 3) == [[1, 0, 0]]
    # rank and rref take no column count and read every column
    assert f.rank([{0: 1, 5: 1}, [1, 0, 0, 2]]) == 2
    assert f.rref([{5: 3}]) == ([[0, 0, 0, 0, 0, 1]], [5])


# the pivots _eliminate opens are the columns where the rank of the
# leading columns grows, and their number is the rank, by the minor oracle;
# each echelon row is the very row of m that opened its pivot


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 5), st.integers(0, 5), st.data())
def test_eliminate_on_sparse_rows_matches_the_oracle(p, rows, cols, data):
    m = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=cols,
                                    max_size=cols), min_size=rows, max_size=rows))
    a = np.array(m, dtype=object).reshape(rows, cols)
    leading = [rank_oracle(a[:, :c], p) if rows and c else 0 for c in range(cols + 1)]
    given = _sparse(m, p)
    pivots = _eliminate(given, p)
    assert sorted(pivots) == [c for c in range(cols) if leading[c + 1] > leading[c]]
    assert len(pivots) == leading[cols] == (rank_oracle(a, p) if rows and cols else 0)
    for c, row in pivots.items():
        assert min(row) == c and row[c] == 1 and all(0 < x < p for x in row.values())
        assert any(row is r for r in given)
