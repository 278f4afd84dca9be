import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistedzeta import (
    IntMatrix,
    char_poly,
    count_eigen_signs,
    det,
    exterior_power,
    intlinalg,
    kron,
    mat_pow,
    smith_normal_form,
)
from twistedzeta.errors import (
    EigenvalueOnBoundary,
    InfiniteReidemeister,
    NotSquare,
)
from twistedzeta.intlinalg import (
    IntPolynomial,
    cyclotomic,
    first_cyclotomic_factor,
    largest_real_root,
    unimodular_inverse,
)
from twistedzeta.zeta import check_all_iterates_finite

import root_reference
from catalog import elementary_product, record_row_products


def random_matrix(rng, k, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)])


def assert_char_poly_is_det_x_minus_a(A):
    """Both sides have degree n, so agreement at n + 1 points is equality."""
    n = A.rows
    p = char_poly(A)
    assert p.degree == n
    for x in range(-(n // 2), n - n // 2 + 1):
        xI = IntMatrix([[x * (i == j) for j in range(n)] for i in range(n)],
                       rows=n, cols=n)
        assert p(x) == det(xI - A), x


def square_matrices(min_k, max_k):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-6, 6), min_size=k, max_size=k),
            min_size=k, max_size=k).map(
                lambda rows: IntMatrix(rows, rows=k, cols=k)))


matrices = square_matrices(1, 4)


def block_sum(*blocks):
    k = sum(B.rows for B in blocks)
    out = [[0] * k for _ in range(k)]
    offset = 0
    for B in blocks:
        for i, row in enumerate(B.entries):
            out[offset + i][offset:offset + B.cols] = row
        offset += B.rows
    return IntMatrix(out, rows=k, cols=k)


def determinantal_divisors(A):
    """The Smith diagonal by its definition: d_i = Delta_i / Delta_(i-1)
    for i = 1..min(rows, cols), Delta_i the gcd of the i-minors of A and
    Delta_0 = 1, and d_i = 0 once Delta_i = 0.  The zero rows or columns
    that make A square add only zero minors."""
    k = max(A.rows, A.cols)
    square = IntMatrix([[A[i, j] if i < A.rows and j < A.cols else 0
                         for j in range(k)] for i in range(k)], rows=k, cols=k)
    delta = [1] + [
        math.gcd(*itertools.chain.from_iterable(
            exterior_power(square, i).entries))
        for i in range(1, min(A.rows, A.cols) + 1)]
    return tuple(d // p if p else 0 for p, d in zip(delta, delta[1:]))


def transpose(A):
    return IntMatrix([list(col) for col in zip(*A.entries)],
                     rows=A.cols, cols=A.rows)


def assert_smith_diagonal(diagonal):
    """No entry negative, each dividing the next, zeros last."""
    assert all(d >= 0 for d in diagonal)
    for d, e in zip(diagonal, diagonal[1:]):
        if d != 0:
            assert e % d == 0
        else:
            assert e == 0


@st.composite
def smith_inputs(draw):
    """Matrices of every shape up to 4 x 4, and square ones of lower rank
    as products of a k x r and an r x k factor, r < k."""
    def entries(rows, cols, bound):
        return IntMatrix(draw(st.lists(
            st.lists(st.integers(-bound, bound), min_size=cols,
                     max_size=cols), min_size=rows, max_size=rows)),
            rows=rows, cols=cols)

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if m > 1 and draw(st.booleans()):
        r = draw(st.integers(1, m - 1))
        return entries(m, r, 3) @ entries(r, m, 3)
    return entries(m, n, 6)


class TestIntMatrix:
    def test_empty_matrix(self):
        A = IntMatrix([])
        assert A.rows == 0 and A.cols == 0
        assert det(A) == 1

    def test_matmul_identity(self):
        A = IntMatrix([[2, 1], [1, 1]])
        I = IntMatrix.identity(2)
        assert A @ I == A
        assert I @ A == A

    def test_non_square_det_rejected(self):
        with pytest.raises(NotSquare):
            det(IntMatrix([[1, 2]]))

    def test_mat_pow(self):
        A = IntMatrix([[2, 1], [1, 1]])
        assert mat_pow(A, 0) == IntMatrix.identity(2)
        assert mat_pow(A, 3) == A @ A @ A

    def test_mat_pow_by_square_and_multiply(self, monkeypatch):
        # A^n against A multiplied n times, and bit_length(n) + popcount(n)
        # - 2 products for it: 35 over n = 1..12, where A^(n-1) A takes 66
        rng = random.Random(12)
        A = random_matrix(rng, 3, -2, 2)
        power = IntMatrix.identity(3)
        for n in range(13):
            assert mat_pow(A, n) == power, n
            power = power @ A
        sizes = record_row_products(monkeypatch)
        for n in range(1, 13):
            mat_pow(A, n)
        assert len(sizes) == 35


# Entries: mostly zero (the trace blocks have one nonzero per column of B),
# small of both signs, or far beyond a machine word.
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.integers(-2 ** 80, 2 ** 80))


def shaped(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda raw: IntMatrix(raw, rows=rows, cols=cols))


# (A, B, C, D): A is r x m, B is m x c, C has the shape of A, D any shape;
# every dimension may be 0.
operands = st.tuples(*[st.integers(0, 4)] * 5).flatmap(
    lambda d: st.tuples(shaped(d[0], d[1]), shaped(d[1], d[2]),
                        shaped(d[0], d[1]), shaped(d[3], d[4])))


def naive_matmul(A, B):
    return [[sum(A[i, t] * B[t, j] for t in range(A.cols))
             for j in range(B.cols)] for i in range(A.rows)]


def naive_kron(A, B):
    out = [[0] * (A.cols * B.cols) for _ in range(A.rows * B.rows)]
    for i, j, p, q in itertools.product(range(A.rows), range(A.cols),
                                        range(B.rows), range(B.cols)):
        out[i * B.rows + p][j * B.cols + q] = A[i, j] * B[p, q]
    return out


def assert_same_matrix(result, raw, rows, cols):
    """result is == to the publicly built matrix, hashes like it and holds
    tuples of ints."""
    public = IntMatrix(raw, rows=rows, cols=cols)
    assert result == public and hash(result) == hash(public)
    assert (result.rows, result.cols) == (rows, cols)
    assert type(result.entries) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row)
               for row in result.entries)


class TestTrustedResults:
    """Products, differences and Kronecker products against test-local
    loops over the entries."""

    @given(operands)
    @settings(max_examples=300, deadline=None)
    def test_against_naive_loops(self, ops):
        A, B, C, D = ops
        assert_same_matrix(A @ B, naive_matmul(A, B), A.rows, B.cols)
        assert_same_matrix(A - C, [[A[i, j] - C[i, j] for j in range(A.cols)]
                                   for i in range(A.rows)], A.rows, A.cols)
        assert_same_matrix(kron(A, D), naive_kron(A, D),
                           A.rows * D.rows, A.cols * D.cols)

    def test_shape_mismatch(self):
        A, B = IntMatrix([[1, 2]]), IntMatrix([[1, 2]])
        with pytest.raises(ValueError):
            A @ B
        with pytest.raises(ValueError):
            A - IntMatrix([[1], [2]])

    @given(square_matrices(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_identity_powers_and_compounds(self, A):
        k = A.rows
        assert_same_matrix(IntMatrix.identity(k),
                           [[int(i == j) for j in range(k)] for i in range(k)],
                           k, k)
        assert_same_matrix(mat_pow(A, 2), naive_matmul(A, A), k, k)
        for i in range(k + 1):
            E = exterior_power(A, i)
            assert_same_matrix(E, [list(row) for row in E.entries],
                               E.rows, E.cols)


class TestDetAndCharPoly:
    def test_known_det(self):
        assert det(IntMatrix([[-2]])) == -2
        assert det(IntMatrix([[2, 1], [1, 1]])) == 1

    def test_char_poly_companion(self):
        # companion matrix of z^2 - z - 1
        A = IntMatrix([[0, 1], [1, 1]])
        assert list(char_poly(A).coefficients) == [-1, -1, 1]

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_char_poly_constant_term_is_signed_det(self, A):
        p = char_poly(A)
        assert p.coefficients[0] == (-1) ** A.rows * det(A)

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_char_poly_trace_coefficient(self, A):
        p = char_poly(A)
        k = A.rows
        assert p.coefficients[k] == 1
        if k >= 1:
            assert p.coefficients[k - 1] == -A.trace()

    @given(square_matrices(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_char_poly_is_det_x_minus_a(self, A):
        assert_char_poly_is_det_x_minus_a(A)

    def test_char_poly_of_compound_matrix(self):
        A = random_matrix(random.Random(6), 6, -3, 3)
        X = exterior_power(A, 3)
        assert X.rows == 20
        assert_char_poly_is_det_x_minus_a(X)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_det_multiplicative(self, A):
        B = IntMatrix([[((i * 7 + j * 3) % 5) - 2 for j in range(A.cols)]
                       for i in range(A.rows)])
        assert det(A @ B) == det(A) * det(B)


class TestSmith:
    @given(smith_inputs())
    @example(IntMatrix([[2, 4], [1, 2]]))
    @example(IntMatrix([[0, 0, 0], [0, 0, 0]]))
    @example(IntMatrix([[4, 0], [0, 6], [0, 0]]))
    @example(IntMatrix([[2, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0]]))
    # Euclid's step with a pivot that divides an entry of opposite sign
    @example(IntMatrix([[2, 1], [-4, 3]]))
    # no pivot in column 0
    @example(IntMatrix([[0, 3], [0, 5]]))
    # a wide and a tall matrix whose zero rows come first
    @example(IntMatrix([[0, 0, 0, 0], [4, 0, 6, 2], [0, 3, 9, -6]]))
    @example(IntMatrix([[0, 0], [0, 0], [6, 4], [-3, 9]]))
    # pivots 4, 6, 1: ordering them takes the gcd-lcm pass over every pair
    @example(IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 1]]))
    @settings(max_examples=100, deadline=None)
    def test_determinantal_divisors_and_divisibility(self, A):
        diagonal = smith_normal_form(A)
        assert diagonal == determinantal_divisors(A)
        assert_smith_diagonal(diagonal)

    @given(smith_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_transpose_and_unimodular_factors_keep_the_diagonal(self, A, rng):
        U = elementary_product(rng, A.rows)
        V = elementary_product(rng, A.cols)
        diagonal = smith_normal_form(A)
        assert smith_normal_form(transpose(A)) == diagonal
        assert smith_normal_form(U @ A @ V) == diagonal

    def test_rank_eight_iterates(self):
        # I - M^n for n = 1..12 at rank 8, entries of M in -2..2, det M != 0
        # and no root-of-unity eigenvalue: the lattice oracle's largest
        # inputs.  I - M^12 has entries of 25 bits and a last Smith entry
        # of 116 bits.
        M = IntMatrix([[1, 2, -1, 0, -2, -2, 1, -2],
                       [1, -1, -1, -1, -2, -2, -2, 2],
                       [2, 2, -2, 0, -1, -1, -1, -1],
                       [2, 0, -1, 1, -1, 1, -1, 2],
                       [-1, 0, 0, 2, -1, 2, 0, 2],
                       [0, -2, 0, -2, 1, 2, 0, 1],
                       [-2, -2, -2, -2, -1, -2, 1, 1],
                       [1, 2, 0, 2, -1, -2, 0, 2]])
        assert det(M) != 0 and first_cyclotomic_factor(char_poly(M)) is None
        I = IntMatrix.identity(8)
        for n in range(1, 13):
            X = I - mat_pow(M, n)
            diagonal = smith_normal_form(X)
            assert math.prod(diagonal) == abs(det(X)), n
            assert_smith_diagonal(diagonal)
            assert smith_normal_form(transpose(X)) == diagonal, n

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_diagonal_product_matches_det(self, A):
        assert math.prod(smith_normal_form(A)) == abs(det(A))

    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_unimodular_inverse(self, k, rng):
        U = elementary_product(rng, k)
        assert abs(det(U)) == 1
        V = unimodular_inverse(U)
        assert U @ V == IntMatrix.identity(k) == V @ U

    @pytest.mark.parametrize("rows", [
        [[2]], [[0, 0], [0, 0]], [[1, 2], [2, 4]], [[2, 1], [1, 2]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -3]]])
    def test_non_unimodular_input_raises(self, rows):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(IntMatrix(rows))


class TestExteriorPowers:
    def test_degenerate_powers(self):
        A = IntMatrix([[2, 1], [1, 1]])
        assert exterior_power(A, 0) == IntMatrix([[1]])
        assert exterior_power(A, 2) == IntMatrix([[det(A)]])

    def test_top_power_is_det(self):
        rng = random.Random(3)
        for _ in range(20):
            A = random_matrix(rng, 3)
            assert exterior_power(A, 3)[0, 0] == det(A)

    def test_functorial(self):
        # wedge(AB) = wedge(A) wedge(B)
        rng = random.Random(4)
        for _ in range(20):
            A = random_matrix(rng, 4)
            B = random_matrix(rng, 4)
            for i in range(5):
                assert exterior_power(A @ B, i) == (
                    exterior_power(A, i) @ exterior_power(B, i))

    def test_alternating_trace_is_char_poly_at_one(self):
        # sum_i (-1)^i tr(wedge^i A) = det(I - A)
        rng = random.Random(5)
        for _ in range(40):
            k = rng.randint(1, 4)
            A = random_matrix(rng, k)
            I = IntMatrix.identity(k)
            total = sum((-1) ** i * exterior_power(A, i).trace()
                        for i in range(k + 1))
            assert total == det(I - A)

    def test_kron_trace(self):
        A = IntMatrix([[2, 1], [1, 1]])
        B = IntMatrix([[0, 1], [1, 0]])
        assert kron(A, B).trace() == A.trace() * B.trace()
        assert kron(A, B).rows == 4


def wedge_reference(M, N):
    """tr wedge^i(M^n) both ways: the compound of the power and the power
    of the compound, which Cauchy-Binet makes equal."""
    of_powers = [[exterior_power(mat_pow(M, n), i).trace()
                  for i in range(M.rows + 1)] for n in range(1, N + 1)]
    of_levels = [[mat_pow(exterior_power(M, i), n).trace()
                  for i in range(M.rows + 1)] for n in range(1, N + 1)]
    assert of_powers == of_levels
    return of_powers


class TestBerkowitz:
    @given(square_matrices(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_char_poly(self, A):
        # The division-free polynomial lists Faddeev-LeVerrier's
        # coefficients from x^k down, and leaves its row list as it was.
        rows = [list(row) for row in A.entries]
        assert intlinalg._berkowitz(rows) == list(
            reversed(char_poly(A).coefficients))
        assert rows == [list(row) for row in A.entries]


class TestPowerTraces:
    """Power traces of A and of every level wedge^i M, from M^n alone."""

    @given(square_matrices(0, 5), st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_wedge_traces_are_level_traces(self, M, N):
        assert intlinalg.wedge_traces(M, N) == wedge_reference(M, N)

    def test_singular_and_negative_determinant(self):
        for rows in ([[1, 2], [2, 4]],                  # singular, rank 1
                     [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # nilpotent
                     [[0, 1], [1, 0]],                  # det -1
                     [[2, 1, 0], [1, -1, 3], [0, 1, 1]],  # det -9
                     [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
                      [0, 0, 1, -2]],                   # singular, k = 4
                     [[0, 0, 0, 0, 1], [1, 0, 0, 0, 3], [0, 1, 0, 0, 0],
                      [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]):  # det 1, k = 5
            M = IntMatrix(rows)
            assert intlinalg._berkowitz(rows) == list(
                reversed(char_poly(M).coefficients))
            traces = intlinalg.wedge_traces(M, 15)
            assert traces == wedge_reference(M, 15)
            assert all(t[-1] == det(M) ** n
                       for n, t in enumerate(traces, start=1))

    @given(square_matrices(0, 6), st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_power_traces(self, A, N):
        assert intlinalg.power_traces(A, N) == [
            mat_pow(A, n).trace() for n in range(1, N + 1)]

    def test_non_square(self):
        A = IntMatrix([[1, 2, 3]])
        for kernel in (intlinalg.power_traces, intlinalg.wedge_traces):
            with pytest.raises(NotSquare):
                kernel(A, 3)


class TestEigenSigns:
    def test_known_values(self):
        assert count_eigen_signs(char_poly(IntMatrix([[-2]]))) == (1, 1)
        assert count_eigen_signs(
            char_poly(IntMatrix([[2, 1], [1, 1]]))) == (0, 1)
        # rotation by 90 degrees: eigenvalues +-i on the unit circle... no:
        # char poly z^2 + 1, no real eigenvalues, |mu| = 1 but not +-1
        assert count_eigen_signs(
            char_poly(IntMatrix([[0, 1], [-1, 0]]))) == (0, 0)

    def test_diagonal_multiplicities(self):
        A = IntMatrix([[-3, 0, 0], [0, -3, 0], [0, 0, 2]])
        assert count_eigen_signs(char_poly(A)) == (2, 3)

    def test_boundary_rejected(self):
        with pytest.raises(EigenvalueOnBoundary):
            count_eigen_signs(char_poly(IntMatrix([[1]])))
        with pytest.raises(EigenvalueOnBoundary):
            count_eigen_signs(char_poly(IntMatrix([[-1]])))

    def test_matches_numpy_on_random_matrices(self):
        import numpy as np
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            k = rng.randint(1, 4)
            A = random_matrix(rng, k)
            try:
                p, r = count_eigen_signs(char_poly(A))
            except EigenvalueOnBoundary:
                continue
            eig = np.linalg.eigvals(np.array(A.entries, dtype=float))
            reals = [mu.real for mu in eig
                     if abs(mu.imag) < 1e-9 and abs(abs(mu) - 1) > 1e-9]
            assert p == sum(1 for mu in reals if mu < -1)
            assert r == sum(1 for mu in reals if abs(mu) > 1)
            checked += 1

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=7)
           .flatmap(lambda d: st.tuples(st.just(d), st.lists(
               st.integers(-3, 3), min_size=len(d) ** 2,
               max_size=len(d) ** 2))))
    @settings(max_examples=150, deadline=None)
    def test_upper_triangular_diagonals(self, drawn):
        # the eigenvalues are the diagonal, with its repeats
        diagonal, above = drawn
        k = len(diagonal)
        A = IntMatrix([[diagonal[i] if i == j else above[i * k + j] * (j > i)
                        for j in range(k)] for i in range(k)])
        if 1 in diagonal or -1 in diagonal:
            with pytest.raises(EigenvalueOnBoundary):
                count_eigen_signs(char_poly(A))
        else:
            assert count_eigen_signs(char_poly(A)) == (
                sum(d < -1 for d in diagonal),
                sum(abs(d) > 1 for d in diagonal))

    def test_repeated_diagonal_up_to_seven(self):
        for diagonal, expected in (([-2] * 7, (7, 7)),
                                   ([3, 3, 3, -3, -3, 0, 0], (2, 5)),
                                   ([0] * 7, (0, 0))):
            A = IntMatrix([[diagonal[i] if i == j else (j > i)
                            for j in range(7)] for i in range(7)])
            assert count_eigen_signs(char_poly(A)) == expected, diagonal

    @given(st.lists(st.integers(-6, 9), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_block_sums_of_square_roots(self, ds):
        # x^2 - d has the roots +-sqrt(d): real beyond +-1 for d >= 2, +-1
        # for d = 1, a double 0 for d = 0 and imaginary for d < 0
        A = block_sum(*(IntMatrix([[0, 1], [d, 0]]) for d in ds))
        if 1 in ds:
            with pytest.raises(EigenvalueOnBoundary):
                count_eigen_signs(char_poly(A))
        else:
            real = sum(d >= 2 for d in ds)
            assert count_eigen_signs(char_poly(A)) == (real, 2 * real)


polynomials = st.lists(st.integers(-9, 9), max_size=8).map(IntPolynomial)


def linear_factors(*roots):
    p = IntPolynomial([1])
    for a in roots:
        p = p * IntPolynomial([-a, 1])
    return p


class TestLargestRealRoot:
    def test_integer_roots_close_exactly(self):
        # x^2 (x - 2): every member of the plain Sturm sequence vanishes at
        # the double root 0, and the bracket must still find 2
        assert largest_real_root(linear_factors(0, 0, 2)) == (2, 2, 0)
        assert largest_real_root(linear_factors(3, 3, 3)) == (3, 3, 0)
        assert largest_real_root(linear_factors(-4, -1, -1)) == (-1, -1, 0)
        assert largest_real_root(linear_factors(0)) == (0, 0, 0)
        # an irrational root just below the integer one
        p = linear_factors(20) * IntPolynomial([-399, 0, 1])
        assert largest_real_root(p) == (20, 20, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 60), st.integers(-8, 8), st.integers(1, 3))
    def test_bracket_decides_every_integer_bound(self, d, a, copies):
        # (x^2 - d)(x - a)^copies has the largest root max(sqrt(d), a); for
        # every integer N, x <= N exactly when hi <= N 2^e
        p = IntPolynomial([-d, 0, 1]) * linear_factors(*[a] * copies)
        lo, hi, e = largest_real_root(p)
        for N in range(-10, 10):
            at_most = a <= N and 0 <= N and d <= N * N
            assert (hi <= N << e) == at_most, N
        if math.isqrt(d) ** 2 == d or (a >= 0 and a * a >= d):
            assert lo == hi
        else:
            assert lo * lo < d << 2 * e < hi * hi
            assert (hi - lo) << 50 <= hi

    def test_rejects_no_real_root_and_non_monic(self):
        with pytest.raises(ValueError):
            largest_real_root(IntPolynomial([1, 0, 1]))
        with pytest.raises(ValueError):
            largest_real_root(IntPolynomial([-2, 0, 2]))
        with pytest.raises(ValueError):
            largest_real_root(IntPolynomial([5]))


def outcome(f, p):
    """The value of f(p), or the type and message of what it raised."""
    try:
        return "value", f(p)
    except (ValueError, EigenvalueOnBoundary) as exc:
        return type(exc), str(exc)


def assert_root_facts_match_reference(p):
    """The bracket of the largest real root and the eigenvalue sign counts
    equal those of the reference versions, errors included."""
    assert (outcome(largest_real_root, p)
            == outcome(root_reference.largest_real_root, p)), p
    assert (outcome(count_eigen_signs, p)
            == outcome(root_reference.count_eigen_signs, p)), p


def monic(coefficients):
    return IntPolynomial([*coefficients, 1])


class TestRootFactsMatchReference:
    """Sturm counts read at +-oo and the galloping integer cell give
    exactly what counts at +-B and bisection of [-B, B] give, and the last
    stage the cells of the reference's halving."""

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=5),
           st.lists(st.integers(1, 3), min_size=1, max_size=5),
           st.lists(st.integers(1, 30), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_integer_repeated_and_negative_roots(self, roots, copies,
                                                 no_real):
        # integer roots with multiplicities, times x^2 + c without a real
        # root: the largest root is an integer of either sign, and a
        # multiple root makes s = p / gcd(p, p') the polynomial counted
        roots = list(zip(roots, copies))
        p = linear_factors(*[a for a, m in roots for _ in range(m)])
        for c in no_real:
            p = p * IntPolynomial([c, 0, 1])
        x = max(a for a, _ in roots)
        assert largest_real_root(p) == (x, x, 0)
        assert_root_facts_match_reference(p)

    @given(st.integers(2, 10 ** 12), st.integers(1, 3), st.integers(-3, 3))
    @example(63383685, 1, 0)  # roots 6.3e-5 apart
    @settings(max_examples=150, deadline=None)
    def test_close_roots_need_isolation(self, d, gap, shift):
        # sqrt(d) and sqrt(d + gap) (or an integer next to sqrt(d)) lie in
        # one integer cell, which the Sturm counts halve before the last
        # stage until the largest root is alone above lo
        p = (IntPolynomial([-d, 0, 1]) * IntPolynomial([-d - gap, 0, 1])
             * linear_factors(math.isqrt(d) + shift))
        assert_root_facts_match_reference(p)
        assert_root_facts_match_reference(
            IntPolynomial([-d, 0, 1]) * IntPolynomial([-d - gap, 0, 1]))

    @given(st.integers(2, 60), st.integers(10 ** 6, 10 ** 18),
           st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_large_coefficients(self, d, n, a):
        # B = 2 + max |c_i| is far beyond the largest root sqrt(d) or a
        p = IntPolynomial([-d, 0, 1]) * IntPolynomial([n, 1])
        assert_root_facts_match_reference(p)
        assert_root_facts_match_reference(p * linear_factors(a))

    @pytest.mark.parametrize("degree, m, sign", [
        (3, 1 << 27, 1), (3, 1 << 27, -1), (3, 3 << 26, 1),
        (4, 1 << 18, 1), (4, 1 << 18, -1), (5, 1 << 14, 1),
        (5, 5 << 11, -1)])
    def test_roots_near_a_dyadic_point(self, degree, m, sign):
        # x^degree - (m^degree +- 1) has the root x = m +- delta with
        # 0 < delta <= 2^-55: the cell boundary at m is closer to x than
        # the last cell's width, so m stays its end
        p = monic([-(m ** degree + sign)] + [0] * (degree - 1))
        lo, hi, e = largest_real_root(p)
        assert (lo if sign > 0 else hi) == m << e
        assert_root_facts_match_reference(p)

    @pytest.mark.parametrize("coefficients", [
        # (x^2 - 20)(x - 4)^3: the triple root 4 is the cell's lower end
        [1280, -960, 176, 28, -12],
        [9534829730263892189256, 0, -195292905455, 0],
        [-72, -432, -396, 840, 510, -804, 235, -26],
        [43, -22, -20, -10, 13, 37],
        [9, -18, 9, 6, -6, 0],
        # x^8 + 37449 x^7 - x: the root 0.17.. is isolated in (0, 1/4), and
        # the derivative vanishes at its midpoint 1/8
        [0, -1, 0, 0, 0, 0, 0, 37449]])
    def test_newton_proposals_checked(self, coefficients):
        # The hard cases of the Newton finish the last stage once had: in
        # the first three a Newton point fell outside the bracket, in the
        # next two a proposed cell had a wrong upper end, and in the last
        # the slope vanished at a midpoint.  Halving must reach the same
        # cells as the reference on them.
        assert_root_facts_match_reference(monic(coefficients))

    @given(st.lists(st.integers(-50, 50), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_random_monic(self, coefficients):
        assert_root_facts_match_reference(monic(coefficients))

    @given(st.lists(st.integers(-9, 9), max_size=9).map(IntPolynomial))
    @settings(max_examples=200, deadline=None)
    def test_sign_counts_of_any_polynomial(self, p):
        # zero and constant polynomials included
        assert (outcome(count_eigen_signs, p)
                == outcome(root_reference.count_eigen_signs, p)), p

    @given(square_matrices(1, 4).map(lambda A: IntMatrix(
        [[abs(a) for a in row] for row in A.entries])))
    @settings(max_examples=150, deadline=None)
    def test_char_polys_of_non_negative_matrices(self, A):
        assert_root_facts_match_reference(char_poly(A))


def poly_add(p, q):
    return IntPolynomial([a + b for a, b in itertools.zip_longest(
        p.coefficients, q.coefficients, fillvalue=0)])


class TestPseudoDivision:
    @given(polynomials, polynomials.filter(lambda b: not b.is_zero()))
    @settings(max_examples=200, deadline=None)
    def test_division_identity(self, a, b):
        q, r = a.pseudo_divmod(b)
        e = max(a.degree - b.degree + 1, 0)
        scale = IntPolynomial([abs(b.coefficients[-1]) ** e])
        assert scale * a == poly_add(q * b, r)
        assert r.degree < b.degree

    @given(polynomials, polynomials)
    @settings(max_examples=100, deadline=None)
    def test_monic_divisor_divides_exactly(self, a, b):
        b = IntPolynomial([*b.coefficients, 1])
        assert (a * b).pseudo_divmod(b) == (a, IntPolynomial([]))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            IntPolynomial([1, 1]).pseudo_divmod(IntPolynomial([]))


def first_singular_iterate(M):
    """Brute definition: the least n <= 2k^2 with det(I - M^n) = 0."""
    k = M.rows
    I = IntMatrix.identity(k)
    return next((n for n in range(1, 2 * k * k + 1)
                 if det(I - mat_pow(M, n)) == 0), None)


def mobius(n):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def mobius_cyclotomic(n):
    """Phi_n as the product of (x^d - 1)^mu(n/d) over d | n, from the
    factors with mu = 1 divided by those with mu = -1: a reference that
    divides nothing by a cyclotomic polynomial."""
    numerator, denominator = IntPolynomial([1]), IntPolynomial([1])
    for d in range(1, n + 1):
        mu = mobius(n // d) if n % d == 0 else 0
        factor = IntPolynomial([-1, *[0] * (d - 1), 1])
        if mu == 1:
            numerator = numerator * factor
        elif mu == -1:
            denominator = denominator * factor
    quotient, remainder = numerator.pseudo_divmod(denominator)
    assert remainder.is_zero()
    return quotient


MOBIUS_CYCLOTOMIC = {n: mobius_cyclotomic(n) for n in range(1, 201)}


class TestCyclotomic:
    def test_divisor_products_are_x_n_minus_1(self):
        for n in range(1, 61):
            product = IntPolynomial([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == IntPolynomial([-1, *[0] * (n - 1), 1]), n

    def test_moebius_products_and_degrees(self):
        for n, phi in MOBIUS_CYCLOTOMIC.items():
            assert cyclotomic(n) == phi, n
            assert phi.degree == intlinalg.totient(n) == sum(
                math.gcd(k, n) == 1 for k in range(1, n + 1)), n

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_table_yields_a_fresh_build_in_any_call_order(self, order):
        # Every Phi_n with n <= 200 = 2 * 10^2 and every per-degree table up
        # to degree 10, built from empty caches in the given order, equal
        # the Moebius products; no degree is skipped.
        ns, degrees = list(range(1, 201)), list(range(1, 11))
        if order == "descending":
            ns.reverse()
            degrees.reverse()
        elif order == "shuffled":
            random.Random(4).shuffle(ns)
            random.Random(4).shuffle(degrees)
        cyclotomic.cache_clear()
        for n in ns:
            assert cyclotomic(n) == MOBIUS_CYCLOTOMIC[n], n
        cyclotomic.cache_clear()
        intlinalg._cyclotomic_up_to.cache_clear()
        for max_degree in degrees:
            assert intlinalg._cyclotomic_up_to(max_degree) == tuple(
                (n, phi.coefficients) for n, phi in MOBIUS_CYCLOTOMIC.items()
                if phi.degree <= max_degree), max_degree
        # the tables built Phi_n for those n alone, divisors included
        assert cyclotomic.cache_info().currsize == sum(
            phi.degree <= 10 for phi in MOBIUS_CYCLOTOMIC.values())

    @given(st.one_of(square_matrices(0, 4), square_matrices(1, 4).map(
        lambda A: IntMatrix([[a % 3 - 1 for a in row] for row in A.entries]))))
    @settings(max_examples=150, deadline=None)
    def test_matches_first_singular_iterate(self, M):
        expected = first_singular_iterate(M)
        assert first_cyclotomic_factor(char_poly(M)) == expected

    def test_companions_with_a_hyperbolic_block(self):
        # C(Phi_n) + [[2, 1], [1, 1]], conjugated by a unimodular matrix:
        # the primitive n-th roots of unity are the only such eigenvalues
        rng = random.Random(9)
        for n, phi in intlinalg._cyclotomic_up_to(6):
            phi = IntPolynomial(phi)
            c = phi.coefficients
            d = phi.degree
            companion = IntMatrix([[(i == j + 1) - (j == d - 1) * c[i]
                                    for j in range(d)] for i in range(d)])
            block = block_sum(companion, IntMatrix([[2, 1], [1, 1]]))
            U = elementary_product(rng, d + 2)
            M = U @ block @ unimodular_inverse(U)
            assert char_poly(companion) == phi
            assert char_poly(M) == char_poly(block)
            assert first_cyclotomic_factor(char_poly(M)) == n
            I = IntMatrix.identity(d + 2)
            assert [m for m in range(1, n + 1)
                    if det(I - mat_pow(M, m)) == 0] == [n]
            with pytest.raises(InfiniteReidemeister) as info:
                check_all_iterates_finite(M)
            assert info.value.n == n
