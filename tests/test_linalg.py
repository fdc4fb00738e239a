import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import linalg
from crossg2.linalg import (Matrix, Subspace, char_poly, cleared, combine,
                            commutator, flat_commutator, flat_product, inverse,
                            is_positive_definite, kernel,
                            poly_from_roots_squared, projection_matrix, rank,
                            rref, solve)
from crossg2.scalar import ONE, SQRT6, ZERO, Scalar

def rand_rows(rng, r, c):
    return [[Scalar.of(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]


def test_kernel_examples():
    assert kernel([[ZERO] * 3 for _ in range(3)], 3).dim == 3
    assert kernel(Matrix.identity(7).rows, 7).dim == 0
    sel = [[ONE] + [ZERO] * 6]
    ker = kernel(sel, 7)
    assert ker.dim == 6
    e2 = [ZERO, ONE] + [ZERO] * 5
    assert ker.contains(e2)


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = rand_rows(rng, r, c)
        assert rank(rows) + kernel(rows, c).dim == c


def test_subspace_examples():
    e = [[ONE if i == j else ZERO for j in range(7)] for i in range(7)]
    u = Subspace.span([e[0], e[1]], 7)
    w = Subspace.span([e[1], e[2]], 7)
    assert u.intersect(w) == Subspace.span([e[1]], 7)
    assert Subspace.span([e[0]], 7).sum(Subspace.span([e[1]], 7)) == u
    assert u.contains([a + b for a, b in zip(e[0], e[1])])
    assert not u.contains(e[2])


def test_subspace_dimension_law():
    rng = random.Random(5)
    for _ in range(25):
        a = Subspace.span(rand_rows(rng, rng.randint(0, 4), 7), 7)
        b = Subspace.span(rand_rows(rng, rng.randint(0, 4), 7), 7)
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_canonical_idempotence():
    rng = random.Random(9)
    for _ in range(10):
        s = Subspace.span(rand_rows(rng, 3, 7), 7)
        assert Subspace.span(s.rows, 7) == s


def test_complement():
    rng = random.Random(3)
    for _ in range(10):
        s = Subspace.span(rand_rows(rng, rng.randint(0, 5), 7), 7)
        c = s.complement()
        assert s.dim + c.dim == 7
        for u in s.rows:
            for v in c.rows:
                acc = ZERO
                for a, b in zip(u, v):
                    acc = acc + a * b
                assert acc == ZERO


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.span([[ONE, ZERO]], 2).sum(Subspace.span([[ONE]], 1))


def test_solve():
    a = [[ONE, ONE], [ONE, -ONE]]
    x = solve(a, [Scalar.of(3), ONE])
    assert x == [Scalar.of(2), ONE]
    assert solve([[ONE, ONE], [ONE, ONE]], [ZERO, ONE]) is None


@pytest.mark.parametrize("call", [
    pytest.param(lambda: rref([[1, 2], [3]]), id="rref-ragged"),
    pytest.param(lambda: rref([[SQRT6, 2], [3]]), id="rref-ragged-irrational"),
    pytest.param(lambda: kernel([[1, 2, 3]], 2), id="kernel-wider-than-ncols"),
    pytest.param(lambda: kernel([[1, 2], [3]]), id="kernel-ragged"),
    pytest.param(lambda: solve([[1, 0], [0, 1]], [1]), id="solve-short-rhs"),
    pytest.param(lambda: solve([[1, 0]], [1, 2]), id="solve-long-rhs"),
])
def test_malformed_shapes_raise(call):
    with pytest.raises(ValueError):
        call()


def test_subspaces_are_unhashable():
    # a Subspace grows in place (`add`), so no hash could stay valid
    with pytest.raises(TypeError):
        hash(Subspace.zero(3))


def test_matrices_are_unhashable():
    # Matrix.unit, from_row_matrix and induced_bilinear fill rows in place
    with pytest.raises(TypeError):
        hash(Matrix.identity(2))


def test_span_kernel_and_solve_take_int_and_fraction_entries():
    half = Fraction(1, 2)
    line = Subspace.span([[1, 0]], 2)
    assert line == Subspace.span([[ONE, ZERO]], 2)
    assert all(isinstance(x, Scalar) for r in line.rows for x in r)
    assert (Subspace.span([[2, 1], [half, Fraction(1, 4)]], 2)
            == Subspace.span([[Scalar.of(2), ONE]], 2))
    assert kernel([[1, 0]], 2) == Subspace.span([[ZERO, ONE]], 2)
    assert kernel([[half, 1]], 2) == Subspace.span([[Scalar.of(-2), ONE]], 2)
    assert solve([[1, 1], [1, -1]], [3, 1]) == [Scalar.of(2), ONE]
    assert solve([[half, 0], [0, 1]], [Fraction(3, 2), 2]) == [Scalar.of(3),
                                                              Scalar.of(2)]
    assert solve([[1, 1], [1, 1]], [0, half]) is None


def test_combine():
    vectors = [[ONE, ONE], [SQRT6, SQRT6], [ZERO, -ONE]]
    assert combine([ONE, ZERO, Scalar.of(2)], vectors) == [ONE, -ONE]
    assert combine([ZERO, SQRT6, ZERO], vectors) == [Scalar.of(6)] * 2
    assert combine([], vectors) == [ZERO, ZERO]


def test_char_poly_examples():
    assert char_poly(Matrix.identity(2)) == [ONE, Scalar.of(-2), ONE]
    d = Matrix([[ZERO, ZERO, ZERO], [ZERO, Scalar.of(2), ZERO],
                [ZERO, ZERO, Scalar.of(-2)]])
    assert char_poly(d) == [ZERO, Scalar.of(-4), ZERO, ONE]


def test_char_poly_product_helper():
    # lambda (l^2+1)(l^2+4)(l^2+9) = l^7 + 14 l^5 + 49 l^3 + 36 l
    assert poly_from_roots_squared([1, 4, 9]) == [
        ZERO, Scalar.of(36), ZERO, Scalar.of(49), ZERO, Scalar.of(14),
        ZERO, ONE]


def test_char_poly_product_helper_takes_scalars():
    s = SQRT6
    assert poly_from_roots_squared([s, 4 * s, 9 * s]) == [
        ZERO, 36 * s * s * s, ZERO, 49 * s * s, ZERO, 14 * s, ZERO, ONE]


def test_inverse_of_random_integer_matrices():
    rng = random.Random(5)
    tried = 0
    while tried < 12:
        n = rng.randint(1, 5)
        m = Matrix(rand_rows(rng, n, n))
        if rank(m.rows) < n:
            continue
        tried += 1
        assert inverse(m) @ m == Matrix.identity(n)
        assert m @ inverse(m) == Matrix.identity(n)


def test_inverse_rejects_singular_and_non_square():
    singular = Matrix([[ONE, Scalar.of(2)], [Scalar.of(2), Scalar.of(4)]])
    with pytest.raises(ValueError):
        inverse(singular)
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(3, 3))
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(2, 3))


def test_projection_matrix_of_random_3_spaces():
    rng = random.Random(11)
    for _ in range(5):
        rows = rand_rows(rng, 3, 7)
        if rank(rows) < 3:
            continue
        space = Subspace.span(rows, 7)
        p = projection_matrix(space)
        assert p == p.transpose()
        assert p @ p == p
        assert p.trace() == Scalar.of(3)
        assert kernel((p - Matrix.identity(7)).rows, 7) == space


def test_coords_on_canonical_basis():
    rng = random.Random(17)
    space = Subspace.span(rand_rows(rng, 3, 6), 6)
    coeffs = [Scalar.of(rng.randint(-4, 4)) for _ in range(space.dim)]
    v = [ZERO] * 6
    for c, r in zip(coeffs, space.rows):
        v = [x + c * y for x, y in zip(v, r)]
    assert space.coords(v) == coeffs
    outside = space.complement().rows[0]
    assert space.coords(outside) is None


def test_coords_on_the_full_space_are_a_copy():
    full = Subspace.full(4)
    v = [ONE, ZERO, SQRT6, Scalar.rational(-3, 7)]
    c = full.coords(v)
    assert c == v and c is not v
    c[0] = ZERO
    assert v[0] == ONE
    for bad in (v[:3], v + [ZERO]):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            full.coords(bad)
    # a space of full dimension spanned by other rows is the same space
    assert Subspace.span(rand_rows(random.Random(3), 6, 4), 4) == full


def test_matrix_unit():
    u = Matrix.unit(3, 4, 2, 1)
    assert u.shape == (3, 4)
    assert u.rows[2][1] == ONE
    assert sum(1 for x in u.flatten() if x) == 1


def test_char_poly_is_invariant_under_similarity():
    rng = random.Random(2)
    a = Matrix(rand_rows(rng, 4, 4))
    # conjugate by an invertible integer matrix with unit determinant
    p = Matrix([[ONE, ONE, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
                [ZERO, ZERO, ONE, Scalar.of(2)], [ZERO, ZERO, ZERO, ONE]])
    pinv = Matrix([[ONE, -ONE, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
                   [ZERO, ZERO, ONE, Scalar.of(-2)], [ZERO, ZERO, ZERO, ONE]])
    assert p @ pinv == Matrix.identity(4)
    assert char_poly(p @ a @ pinv) == char_poly(a)


def test_matrix_ops():
    a = Matrix([[ONE, Scalar.of(2)], [ZERO, ONE]])
    b = Matrix([[ONE, ZERO], [ONE, ONE]])
    assert (a @ b).rows[0][0] == Scalar.of(3)
    assert commutator(a, a).is_zero()
    assert a.transpose().rows[0][1] == ZERO
    assert a.apply([ONE, ONE]) == [Scalar.of(3), ONE]
    assert Matrix.from_flat(a.flatten(), 2, 2) == a


def test_flat_lengths_must_fill_the_shape():
    flat = [Scalar.of(i) for i in range(12)]
    assert Matrix.from_flat(flat, 3, 4).shape == (3, 4)
    for n, m in ((3, 3), (4, 4), (2, 5)):
        with pytest.raises(ValueError):
            Matrix.from_flat(flat, n, m)
    nine, five = flat[:9], flat[:5]
    assert len(flat_commutator(nine, nine, 3)) == 9
    for a, b in ((five, nine), (nine, five), (flat, flat)):
        with pytest.raises(ValueError):
            flat_commutator(a, b, 3)


# mostly zeros, with rational and irrational entries
entries = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, Scalar.of(2),
                           Scalar.rational(-1, 3), SQRT6, Scalar(1, 0, 1, 0),
                           Scalar(0, -2, 0, 3, 5)])


@st.composite
def row_systems(draw):
    """(ncols, rows), wide or tall, with zero, duplicate and dependent rows."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=9))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "comb"]),
                              max_size=3)):
        if kind == "zero" or not rows:
            rows.append([ZERO] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries)
            rows.append([x + c * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


def assert_rref_of(ncols, rows, out, pivots):
    """out, pivots is a reduced row echelon form spanning the rows."""
    assert len(out) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for r, pc in zip(out, pivots):
        assert next(i for i, x in enumerate(r) if x) == pc
        assert r[pc] == ONE
    for i, pc in enumerate(pivots):
        assert all(not r[pc] for j, r in enumerate(out) if j != i)
    space = Subspace(ncols, out, pivots)
    assert all(space.contains(r) for r in rows)
    # row rank equals column rank, so with every row inside the span of
    # the output the two spans agree
    assert rank([list(col) for col in zip(*rows)]) == len(out)


@settings(max_examples=150, deadline=None)
@given(row_systems())
def test_rref_invariants(system):
    ncols, rows = system
    assert_rref_of(ncols, rows, *rref(rows))


@settings(max_examples=150, deadline=None)
@given(row_systems())
def test_add_grows_a_copy_to_the_span(system):
    ncols, rows = system
    space = Subspace.zero(ncols)
    for r in rows:
        kept = ([list(x) for x in space.rows], list(space.pivots))
        grown = space.copy()
        assert grown.add(r) == (grown.dim == space.dim + 1)
        assert grown.dim in (space.dim, space.dim + 1)
        # the original keeps its rows and pivots
        assert (space.rows, space.pivots) == kept
        space = grown
    assert space == Subspace.span(rows, ncols)
    assert_rref_of(ncols, rows, space.rows, space.pivots)
    with pytest.raises(ValueError):
        space.add([ONE] * (ncols + 1))
    assert space == Subspace.span(rows, ncols)


# mostly zeros and small values, with numerators and denominators up to 2^70
BIG = 2 ** 70
rational_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def rational_systems(draw):
    """(ncols, rows) of int and Fraction entries, up to 49 columns, with
    zero, duplicate and dependent rows; possibly no rows at all."""
    ncols = draw(st.integers(1, 49))
    rows = draw(st.lists(st.lists(rational_entries, min_size=ncols,
                                  max_size=ncols), max_size=7))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "comb"]),
                              max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = Fraction(draw(rational_entries))
            rows.append([Fraction(x) + c * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_integer_rref_equals_the_field_path(system):
    ncols, rows = system
    out, pivots = rref(rows)
    field = linalg._insertion_rref([[Scalar.of(x) for x in r] for r in rows])
    assert (out, pivots) == field
    assert all(type(x) is Scalar for r in out for x in r)
    if rows:
        assert_rref_of(ncols, [[Scalar.of(x) for x in r] for r in rows],
                       out, pivots)


def test_rational_input_never_reaches_the_field_path(monkeypatch):
    def refuse(rows):
        raise AssertionError("field path used")

    monkeypatch.setattr(linalg, "_insertion_rref", refuse)
    rows = [[1, Fraction(1, 2), 0], [2, 3, Fraction(-2, 3)], [0, 0, 5]]
    assert rref(rows) == (Matrix.identity(3).rows, [0, 1, 2])
    assert rref([]) == ([], [])
    assert rref([[0, 0]]) == ([], [])
    with pytest.raises(AssertionError, match="field path"):
        rref([[SQRT6, ONE]])


@settings(max_examples=60, deadline=None)
@given(rational_systems(), st.data())
def test_one_irrational_entry_keeps_the_rref_invariants(system, data):
    ncols, rows = system
    rows = [[Scalar.of(x) for x in r] for r in rows] or [[ZERO] * ncols]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, ncols - 1))
    rows[i][j] = rows[i][j] + data.draw(st.sampled_from(
        [SQRT6, Scalar(0, 0, 0, 1, 3), Scalar(1, 0, -BIG, 0, 7)]))
    assert cleared(rows[i]) is None
    assert_rref_of(ncols, rows, *rref(rows))


def test_cleared_scales_by_the_lcm_of_the_denominators():
    assert cleared([Scalar.rational(1, 2), Scalar.rational(-2, 3), ZERO,
                    Scalar.of(4)]) == [3, -4, 0, 24]
    assert cleared([]) == []
    assert cleared([ONE, SQRT6]) is None


def test_reduce_checks_the_vector_length():
    line = Subspace.span([[ONE, ZERO]], 2)
    for call in (line.reduce, line.contains, line.coords):
        with pytest.raises(ValueError):
            call([ONE, ZERO, ONE])


def test_is_positive_definite():
    two = Scalar.of(2)
    assert is_positive_definite(Matrix([[two, -ONE], [-ONE, two]]))
    assert is_positive_definite(Matrix([[SQRT6]]))
    assert not is_positive_definite(Matrix([[ONE, two], [two, ONE]]))
    assert not is_positive_definite(Matrix([[ZERO, ONE], [ONE, ZERO]]))
    assert not is_positive_definite(Matrix([[ONE, ZERO], [ZERO, ZERO]]))
    assert not is_positive_definite(-Matrix.identity(3))
    # a zero pivot: the 2x2 leading minor vanishes
    assert not is_positive_definite(
        Matrix([[ONE, ONE, ZERO], [ONE, ONE, ZERO], [ZERO, ZERO, ONE]]))
    # the precondition is checked: [[1, 5], [0, 1]] has x^t m x = -3 at
    # x = (1, -1), and a 2 x 3 matrix is no form at all
    for m in (Matrix([[ONE, Scalar.of(5)], [ZERO, ONE]]),
              Matrix([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])):
        with pytest.raises(ValueError, match="square symmetric"):
            is_positive_definite(m)


# mostly zeros, with irrational values (r6, r15/3) and large rationals
product_entries = st.sampled_from(
    [ZERO] * 6 + [ONE, -ONE, SQRT6, Scalar(0, 0, 0, 1, 3),
                  Scalar.rational(2 ** 70 + 1, 3), Scalar.rational(-10 ** 20, 7)])


# rational only, past the int64 bound too
rational_scalars = st.sampled_from(
    [ZERO] * 6 + [ONE, -ONE, Scalar.rational(5, 6), Scalar.of(2 ** 64),
                  Scalar.rational(2 ** 70 + 1, 3), Scalar.rational(-10 ** 20, 7)])


def matrices(n, m, entries=product_entries):
    return st.lists(st.lists(entries, min_size=m, max_size=m),
                    min_size=n, max_size=n).map(Matrix)


def dense_product(a, b):
    """The (i, k, j) triple loop, with no zero skipping."""
    (n, k), m = a.shape, b.shape[1]
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for r in range(k):
                out[i][j] = out[i][j] + a.rows[i][r] * b.rows[r][j]
    return Matrix(out)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_matmul_equals_the_dense_triple_loop(pair):
    a, b = pair
    product = a @ b
    assert product.shape == (a.shape[0], b.shape[1])
    assert product == dense_product(a, b)


def flat_product_oracle(out, a, b, k, m):
    """a @ b added to out with only b's rows listed and a scanned entry by
    entry: the oracle of flat_product."""
    nonzero = [[(j, y) for j, y in enumerate(b[r * m:(r + 1) * m]) if y]
               for r in range(k)]
    for ir, x in enumerate(a):
        if x:
            i, r = divmod(ir, k)
            for j, y in nonzero[r]:
                ij = i * m + j
                out[ij] = out[ij] + x * y


@st.composite
def accumulations(draw):
    """a (n x k), b (k x m) and a start for out (n x m) that is not zero."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    start = draw(matrices(n, m))
    start.rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = (
        draw(product_entries.filter(bool)))
    return draw(matrices(n, k)), draw(matrices(k, m)), start


@settings(max_examples=150, deadline=None)
@given(accumulations())
def test_flat_product_equals_the_oracle_and_the_dense_product(case):
    a, b, start = case
    k, m = b.shape
    out, expected = start.flatten(), start.flatten()
    flat_product(out, a.flatten(), b.flatten(), k, m)
    flat_product_oracle(expected, a.flatten(), b.flatten(), k, m)
    assert out == expected == (start + dense_product(a, b)).flatten()


@st.composite
def listed_products(draw):
    """a (n x k), b (k x m), a nonzero start for out and the sign, with a and
    b each rational or mixed."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    a = draw(matrices(n, k, draw(st.sampled_from([rational_scalars,
                                                  product_entries]))))
    b = draw(matrices(k, m, draw(st.sampled_from([rational_scalars,
                                                  product_entries]))))
    start = draw(matrices(n, m))
    start.rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = (
        draw(product_entries.filter(bool)))
    return a, b, start, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(listed_products())
def test_accumulate_on_ints_equals_the_scalar_loop(case):
    a, b, start, sub = case
    (n, k), m = a.shape, b.shape[1]
    la, lb = linalg._nonzeros(a.flatten(), k), linalg._nonzeros(b.flatten(), m)
    for listing, mat in ((la, a), (lb, b)):
        pairs, ints, q = listing
        rational = all(not (x.nb or x.nc or x.nd) for x in mat.flatten())
        assert (ints is not None) == rational
        if rational:
            assert [[(c, Scalar.rational(t, q)) for c, t in row]
                    for row in ints] == pairs
    out, expected = start.flatten(), start.flatten()
    linalg._accumulate(out, la, lb, m, sub)
    # the same listings without their int pairs take the Scalar loop
    linalg._accumulate(expected, (la[0], None, 1), (lb[0], None, 1), m, sub)
    product = dense_product(a, b)
    assert out == expected == (start - product if sub else start + product).flatten()


def test_add_and_sub_reject_mismatched_shapes():
    for a, b in ((Matrix.identity(2), Matrix.identity(3)),
                 (Matrix.zeros(2, 3), Matrix.zeros(3, 2)),
                 (Matrix.zeros(3, 3), Matrix.zeros(3, 2))):
        for op in (Matrix.__add__, Matrix.__sub__):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)


def test_matmul_rejects_mismatched_shapes():
    for a, b in ((Matrix.zeros(2, 3), Matrix.zeros(2, 3)),
                 (Matrix.identity(3), Matrix.zeros(2, 3))):
        with pytest.raises(ValueError):
            a @ b


@st.composite
def combinations_of_vectors(draw):
    n = draw(st.integers(1, 49))
    vectors = draw(st.lists(st.lists(product_entries, min_size=n, max_size=n),
                            min_size=1, max_size=6))
    coeffs = draw(st.lists(product_entries, min_size=len(vectors),
                           max_size=len(vectors)))
    return coeffs, vectors


@settings(max_examples=150, deadline=None)
@given(combinations_of_vectors())
def test_combine_equals_the_dense_sum(terms):
    coeffs, vectors = terms
    expected = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        expected = [x + c * y for x, y in zip(expected, v)]
    assert combine(coeffs, vectors) == expected


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 4))
    return n, draw(matrices(n, n)), draw(matrices(n, n))


@settings(max_examples=150, deadline=None)
@given(square_pairs())
def test_commutator_equals_the_dense_products(pair):
    n, a, b = pair
    expected = dense_product(a, b) - dense_product(b, a)
    assert flat_commutator(a.flatten(), b.flatten(), n) == expected.flatten()
    assert commutator(a, b) == expected


def test_commutator_rejects_unequal_or_non_square_shapes():
    # 2x3 and 3x2 have both products ab and ba, of different shapes
    for a, b in ((Matrix.identity(2), Matrix.identity(3)),
                 (Matrix.zeros(2, 3), Matrix.zeros(3, 2)),
                 (Matrix.zeros(2, 3), Matrix.zeros(2, 3)),
                 (Matrix.zeros(3, 2), Matrix.identity(3)),
                 (Matrix.identity(3), Matrix.zeros(3, 2))):
        with pytest.raises(ValueError):
            commutator(a, b)


def sylvester_by_minors(m):
    """All leading minors > 0, each minor (-1)^k char_poly(block)[0]."""
    for k in range(1, m.shape[0] + 1):
        det = char_poly(Matrix([row[:k] for row in m.rows[:k]]))[0]
        if (det if k % 2 == 0 else -det).sign() <= 0:
            return False
    return True


@st.composite
def symmetric_matrices(draw):
    """B B^t (+ I): definite, or singular when B has fewer columns than
    rows; or a random symmetric matrix, mostly indefinite."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([rational_scalars, product_entries]))
    kind = draw(st.sampled_from(["gram", "singular", "symmetric"]))
    if kind == "symmetric":
        upper = draw(matrices(n, n, entries)).rows
        return Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)]
                       for i in range(n)])
    b = draw(matrices(n, n - 1 if kind == "singular" and n > 1 else n, entries))
    gram = b @ b.transpose()
    return gram + Matrix.identity(n) if draw(st.booleans()) else gram


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_positive_definite_pivots_agree_with_the_leading_minors(m):
    assert is_positive_definite(m) == sylvester_by_minors(m)
    assert is_positive_definite(-m) == sylvester_by_minors(-m)


# ------------------------------------------- membership on the integer basis

def reduce_route(space, v):
    """Subspace.coords by reduction over the field, the oracle."""
    return [v[pc] for pc in space.pivots] if not any(space.reduce(v)) else None


NEAR_INT64 = st.builds(lambda sign, d, q: Scalar.rational(sign * (2 ** 63 - d), q),
                       st.sampled_from([1, -1]), st.integers(0, 2), st.integers(1, 3))
membership_entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.integers(-3, 3).map(Scalar.of),
    st.builds(Scalar.rational, st.integers(-9, 9), st.integers(1, 9)), NEAR_INT64)
irrational_entries = st.one_of(
    membership_entries, st.sampled_from([SQRT6, Scalar(1, 0, -2, 0, 3)]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_coords_equal_the_reduce_route(data):
    """coords and contains on a rational space decide on the cached integer
    basis, for vectors in and out of the span (unit vectors at every
    non-pivot column included), as Scalars and as ints; an irrational space
    or vector falls back to reduction; a space grown by `add` after its
    basis was read decides on its new basis."""
    n = data.draw(st.integers(1, 6), "n")
    irrational = data.draw(st.sampled_from([False, False, True]), "irrational space")
    rows = data.draw(st.lists(st.lists(irrational_entries if irrational
                                       else membership_entries, min_size=n, max_size=n),
                              max_size=n), "rows")
    space = Subspace.span(rows, n)
    irrational_basis = any(x.nb or x.nc or x.nd for r in space.rows for x in r)
    assert (space.denominator is None) is irrational_basis

    def vectors(draws):
        found = [[ONE if k == c else ZERO for k in range(n)]
                 for c in range(n) if c not in space.pivots]
        for _ in range(draws):
            coeffs = data.draw(st.lists(irrational_entries, min_size=space.dim,
                                        max_size=space.dim))
            found.append(combine(coeffs, space.rows) if space.dim else [ZERO] * n)
            found.append(data.draw(st.lists(irrational_entries, min_size=n, max_size=n)))
        found += [ints for ints in map(cleared, found) if ints is not None]
        return found

    def assert_agrees(space):
        for v in vectors(3):
            expected = reduce_route(space, v)
            got = space.coords(v)
            assert got == expected and space.contains(v) is (expected is not None)
            if got is not None:
                assert [type(x) for x in got] == [type(x) for x in expected]

    assert_agrees(space)
    space.basis  # read, then grown: the cached basis must not be used again
    extra = data.draw(st.lists(membership_entries, min_size=n, max_size=n), "extra")
    if space.add(extra):
        assert space.coords(extra) is not None
        assert_agrees(space)


def test_a_stale_basis_would_reject_the_added_row():
    space = Subspace.span([[ONE, ZERO, ZERO]], 3)
    assert space.basis == [[1, 0, 0]] and not space.contains([0, 1, 0])
    assert space.add([Scalar.rational(1, 2), Scalar.rational(1, 3), ZERO])
    assert space.basis == [[1, 0, 0], [0, 1, 0]]
    assert space.contains([0, 1, 0]) and space.coords([5, 7, 0]) == [5, 7]
