from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fmtri.errors import InvariantViolation
from fmtri.poly import BivarPoly, conjecture_substitution

from oracles import (
    alternative_substitution,
    derivative_y,
    evaluate,
    monomial,
    poly_from_terms,
    reflect,
    total_degree,
)

# small exact polynomials for property tests
coeffs = st.integers(-9, 9)
polys = st.builds(
    BivarPoly,
    st.lists(st.lists(coeffs, min_size=1, max_size=4), min_size=1, max_size=4),
)


F_A1 = poly_from_terms((0, 0, 1), (1, 0, 1), (0, 1, 1))
F_A2 = poly_from_terms((0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 2), (1, 1, 2), (0, 2, 1))


class TestRingOps:
    def test_product_expansion(self):
        one_plus_x = poly_from_terms((0, 0, 1), (1, 0, 1))
        one_plus_y = poly_from_terms((0, 0, 1), (0, 1, 1))
        assert one_plus_x * one_plus_y == poly_from_terms(
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)
        )

    def test_add_zero(self):
        assert F_A2 + BivarPoly.zero() == F_A2

    def test_square(self):
        p = poly_from_terms((0, 0, 1), (1, 0, 1), (0, 1, 1))
        assert p * p == poly_from_terms(
            (0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 0, 1), (1, 1, 2), (0, 2, 1)
        )

    def test_canonical_trim(self):
        assert BivarPoly([[1, 0], [0, 0]]) == BivarPoly.constant(1)
        assert BivarPoly([[0]]).is_zero

    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r


class TestCalculus:
    def test_antiderivative_example(self):
        # one step of the rank-2 recursion: integrating 2 * (1 + x + y)
        p = poly_from_terms((0, 0, 2), (1, 0, 2), (0, 1, 2))
        assert p.antiderivative_y() == poly_from_terms((0, 1, 2), (1, 1, 2), (0, 2, 1))

    def test_antiderivative_zero(self):
        assert BivarPoly.zero().antiderivative_y().is_zero

    def test_antiderivative_power(self):
        assert monomial(0, 2, 3).antiderivative_y() == monomial(0, 3, 1)

    @given(polys)
    def test_derivative_inverts_antiderivative(self, q):
        # the y-derivative of an integer polynomial always integrates exactly
        y_free = BivarPoly.from_x_coeffs(q.subs_y(0))
        assert derivative_y(q).antiderivative_y() == q - y_free

    def test_non_multiple_raises(self):
        with pytest.raises(InvariantViolation, match="1 is not a multiple of 2"):
            monomial(0, 1, 1).antiderivative_y()


class TestSubstitutions:
    def test_diagonal_of_rank2_triangle(self):
        assert F_A2.diagonal() == (1, 5, 5)

    def test_diagonal_monomial(self):
        assert monomial(1, 1, 1).diagonal() == (0, 0, 1)

    def test_diagonal_constant(self):
        assert BivarPoly.constant(7).diagonal() == (7,)

    def test_subs(self):
        assert F_A2.subs_y(0) == (1, 3, 2)
        assert F_A2.subs_y(-1) == (0, 1, 2)
        assert F_A2.subs_x(0) == (1, 2, 1)
        assert evaluate(F_A2, Fraction(1, 2), 1) == 7


class TestReflect:
    def test_rank1_fixed_point(self):
        assert reflect(F_A1, 1) == F_A1

    def test_rank0(self):
        assert reflect(BivarPoly.constant(1), 0) == BivarPoly.constant(1)

    def test_rank2_fixed_point(self):
        assert reflect(F_A2, 2) == F_A2

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            reflect(F_A2, 1)

    @given(polys, st.integers(0, 8))
    def test_involution(self, p, n):
        if total_degree(p) <= n:
            assert reflect(reflect(p, n), n) == p


class TestConjectureSubstitution:
    def test_rank1(self):
        # (1-y) + (x+y) + y
        assert conjecture_substitution(F_A1, 1) == poly_from_terms(
            (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_rank0(self):
        assert conjecture_substitution(BivarPoly.constant(1), 0) == BivarPoly.constant(1)

    def test_rank2(self):
        expected = poly_from_terms(
            (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )
        assert conjecture_substitution(F_A2, 2) == expected

    def test_support_guard(self):
        with pytest.raises(ValueError):
            conjecture_substitution(F_A2, 1)

    @given(polys, st.integers(0, 8))
    def test_matches_rational_evaluation(self, p, n):
        """Independent oracle: evaluate the rational expression pointwise."""
        if total_degree(p) > n:
            return
        q = conjecture_substitution(p, n)
        points = [(2, 2), (-2, 3), (Fraction(1, 3), Fraction(1, 2)), (5, -4)]
        for xv, yv in ((Fraction(a), Fraction(b)) for a, b in points):
            lhs = (1 - yv) ** n * evaluate(p, (xv + yv) / (1 - yv), yv / (1 - yv))
            assert evaluate(q, xv, yv) == lhs

    @given(polys, st.integers(0, 8))
    def test_y0_slice_is_positive_part(self, p, n):
        if total_degree(p) > n:
            return
        assert conjecture_substitution(p, n).subs_y(0) == p.subs_y(0)


class TestAlternativeSubstitution:
    @given(polys, st.integers(0, 8))
    def test_matches_rational_evaluation(self, p, n):
        if total_degree(p) > n:
            return
        q = alternative_substitution(p, n)
        points = [(1, 3), (-2, 4), (Fraction(2, 3), Fraction(1, 2)), (5, -4)]
        for xv, yv in ((Fraction(a), Fraction(b)) for a, b in points):
            lhs = (yv - 1) ** n * evaluate(p, (xv + 1) / (yv - 1), 1 / (yv - 1))
            assert evaluate(q, xv, yv) == lhs

