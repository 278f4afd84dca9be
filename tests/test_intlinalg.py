import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedzeta import (
    IntMatrix,
    char_poly,
    count_eigen_signs,
    det,
    exterior_power,
    kron,
    mat_pow,
    smith_normal_form,

)
from twistedzeta.errors import EigenvalueOnBoundary, NotSquare
from twistedzeta.intlinalg import (
    unimodular_inverse,
    count_real_roots,
    squarefree_decomposition,
    sturm_sequence,
)


def random_matrix(rng, k, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)])


def assert_char_poly_is_det_x_minus_a(A):
    """Both sides have degree n, so agreement at n + 1 points is equality."""
    n = A.rows
    p = char_poly(A)
    assert p.degree == n
    for x in range(-(n // 2), n - n // 2 + 1):
        assert p(x) == det(IntMatrix.identity(n).scale(x) - A), x


def square_matrices(min_k, max_k):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-6, 6), min_size=k, max_size=k),
            min_size=k, max_size=k).map(
                lambda rows: IntMatrix(rows, rows=k, cols=k)))


matrices = square_matrices(1, 4)


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

    def test_apply(self):
        A = IntMatrix([[2, 1], [1, 1]])
        assert A.apply((1, 0)) == (2, 1)

    def test_non_square_det_rejected(self):
        with pytest.raises(NotSquare):
            det(IntMatrix([[1, 2]]))

    def test_mat_pow(self):
        A = IntMatrix([[2, 1], [1, 1]])
        assert mat_pow(A, 0) == IntMatrix.identity(2)
        assert mat_pow(A, 3) == A @ A @ A


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
    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_and_divisibility(self, A):
        snf = smith_normal_form(A)
        L, R = snf.left, snf.right
        assert abs(det(L)) == 1 and abs(det(R)) == 1
        D = L @ A @ R
        k = A.rows
        for i in range(k):
            for j in range(k):
                expected = snf.diagonal[i] if i == j else 0
                assert D[i, j] == expected
        for i in range(k - 1):
            d, e = snf.diagonal[i], snf.diagonal[i + 1]
            assert d >= 0
            if d != 0:
                assert e % d == 0
            else:
                assert e == 0

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_diagonal_product_matches_det(self, A):
        snf = smith_normal_form(A)
        prod = 1
        for d in snf.diagonal:
            prod *= d
        assert prod == abs(det(A))

    def test_unimodular_inverse(self):
        U = IntMatrix([[2, 1], [1, 1]])
        assert U @ unimodular_inverse(U) == IntMatrix.identity(2)


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


class TestRealRootCounting:
    def test_quadratic(self):
        # z^2 - 2: roots +-sqrt(2)
        p = [Fraction(-2), Fraction(0), Fraction(1)]
        assert count_real_roots(p, Fraction(0), Fraction(2)) == 1
        assert count_real_roots(p, Fraction(-2), Fraction(2)) == 2

    def test_repeated_root_squarefree(self):
        # (z-1)^2 decomposes with multiplicity 2
        p = [Fraction(1), Fraction(-2), Fraction(1)]
        parts = squarefree_decomposition(p)
        assert any(m == 2 for _, m in parts)

    def test_sturm_sequence_starts_with_input(self):
        p = [Fraction(-2), Fraction(0), Fraction(1)]
        seq = sturm_sequence(p)
        assert seq[0] == p


class TestEigenSigns:
    def test_known_values(self):
        assert count_eigen_signs(IntMatrix([[-2]])) == (1, 1)
        assert count_eigen_signs(IntMatrix([[2, 1], [1, 1]])) == (0, 1)
        # rotation by 90 degrees: eigenvalues +-i on the unit circle... no:
        # char poly z^2 + 1, no real eigenvalues, |mu| = 1 but not +-1
        assert count_eigen_signs(IntMatrix([[0, 1], [-1, 0]])) == (0, 0)

    def test_diagonal_multiplicities(self):
        A = IntMatrix([[-3, 0, 0], [0, -3, 0], [0, 0, 2]])
        assert count_eigen_signs(A) == (2, 3)

    def test_boundary_rejected(self):
        with pytest.raises(EigenvalueOnBoundary):
            count_eigen_signs(IntMatrix([[1]]))
        with pytest.raises(EigenvalueOnBoundary):
            count_eigen_signs(IntMatrix([[-1]]))

    def test_matches_numpy_on_random_matrices(self):
        import numpy as np
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            k = rng.randint(1, 4)
            A = random_matrix(rng, k)
            try:
                p, r = count_eigen_signs(A)
            except EigenvalueOnBoundary:
                continue
            eig = np.linalg.eigvals(np.array(A.entries, dtype=float))
            reals = [mu.real for mu in eig
                     if abs(mu.imag) < 1e-9 and abs(abs(mu) - 1) > 1e-9]
            assert p == sum(1 for mu in reals if mu < -1)
            assert r == sum(1 for mu in reals if abs(mu) > 1)
            checked += 1
