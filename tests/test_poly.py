from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fmtri.errors import InvariantViolation
from fmtri.poly import conjecture_substitution, diagonal, exact_div, product, subs_x, subs_y

from oracles import (
    alternative_substitution,
    evaluate,
    monomial,
    poly_from_terms,
    reflect,
)

coeffs = st.integers(-9, 9)


def triangles(support: bool = False):
    """Random square triangles of rank 0 to 4; with ``support``, every
    coefficient with k + l > n is 0, as in an F-triangle."""

    def of_rank(n):
        cells = st.lists(coeffs, min_size=(n + 1) ** 2, max_size=(n + 1) ** 2)
        return cells.map(
            lambda cs: tuple(
                tuple(0 if support and k + l > n else cs[k * (n + 1) + l] for l in range(n + 1))
                for k in range(n + 1)
            )
        )

    return st.integers(0, 4).flatmap(of_rank)


POINTS = [(Fraction(a), Fraction(b)) for a, b in [(2, 2), (-2, 3), (Fraction(1, 3), Fraction(1, 2)), (5, -4)]]


def at(coeffs, v):
    """A univariate coefficient tuple evaluated at v."""
    return sum(c * v**k for k, c in enumerate(coeffs))


F_A1 = poly_from_terms(1, (0, 0, 1), (1, 0, 1), (0, 1, 1))
F_A2 = poly_from_terms(2, (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 2), (1, 1, 2), (0, 2, 1))


class TestRingOps:
    def test_product_expansion(self):
        one_plus_x = poly_from_terms(1, (0, 0, 1), (1, 0, 1))
        one_plus_y = poly_from_terms(1, (0, 0, 1), (0, 1, 1))
        assert product(one_plus_x, one_plus_y) == poly_from_terms(
            2, (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)
        )

    def test_square(self):
        assert product(F_A1, F_A1) == poly_from_terms(
            2, (0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 0, 1), (1, 1, 2), (0, 2, 1)
        )

    @given(triangles(), triangles(), triangles())
    def test_ring_laws(self, p, q, r):
        pq = product(p, q)
        assert len(pq) == len(p) + len(q) - 1 and all(len(row) == len(pq) for row in pq)
        for xv, yv in POINTS:
            assert evaluate(pq, xv, yv) == evaluate(p, xv, yv) * evaluate(q, xv, yv)
        assert pq == product(q, p)
        assert product(pq, r) == product(p, product(q, r))


class TestCalculus:
    def test_non_multiple_raises(self):
        assert exact_div(-6, 3) == -2
        with pytest.raises(InvariantViolation, match="1 is not a multiple of 2"):
            exact_div(1, 2)


class TestSubstitutions:
    def test_diagonal_of_rank2_triangle(self):
        assert diagonal(F_A2) == (1, 5, 5)

    def test_diagonal_monomial(self):
        assert diagonal(monomial(2, 1, 1)) == (0, 0, 1)

    def test_diagonal_constant(self):
        assert diagonal(((7,),)) == (7,)
        assert diagonal(monomial(2, 0, 0, 7)) == (7, 0, 0)

    def test_diagonal_refuses_a_coefficient_outside_the_triangle(self):
        with pytest.raises(InvariantViolation, match=r"coefficient \[1\]\[2\] = 3 lies outside k \+ l <= 2"):
            diagonal(monomial(2, 1, 2, 3))

    def test_subs(self):
        assert subs_y(F_A2, 0) == (1, 3, 2)
        assert subs_y(F_A2, -1) == (0, 1, 2)
        assert subs_x(F_A2, 0) == (1, 2, 1)
        assert evaluate(F_A2, Fraction(1, 2), 1) == 7

    @given(triangles(support=True))
    def test_diagonal_evaluates_p_x_x(self, p):
        d = diagonal(p)
        assert len(d) == len(p)
        for xv, _ in POINTS:
            assert at(d, xv) == evaluate(p, xv, xv)

    @given(triangles(), st.integers(-3, 3))
    def test_subs_evaluate_p(self, p, v):
        sy, sx = subs_y(p, v), subs_x(p, v)
        assert len(sy) == len(sx) == len(p)
        for xv, yv in POINTS:
            assert at(sy, xv) == evaluate(p, xv, v)
            assert at(sx, yv) == evaluate(p, v, yv)


class TestReflect:
    def test_rank1_fixed_point(self):
        assert reflect(F_A1) == F_A1

    def test_rank0(self):
        assert reflect(((1,),)) == ((1,),)

    def test_rank2_fixed_point(self):
        assert reflect(F_A2) == F_A2

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            reflect(monomial(1, 1, 1))

    @given(triangles(support=True))
    def test_involution(self, p):
        assert reflect(reflect(p)) == p


class TestConjectureSubstitution:
    def test_rank1(self):
        # (1-y) + (x+y) + y
        assert conjecture_substitution(F_A1) == poly_from_terms(1, (0, 0, 1), (1, 0, 1), (0, 1, 1))

    def test_rank0(self):
        assert conjecture_substitution(((1,),)) == ((1,),)

    def test_rank2(self):
        expected = poly_from_terms(
            2, (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )
        assert conjecture_substitution(F_A2) == expected

    def test_support_guard(self):
        # x y^2 has degree 3, outside a rank-2 triangle
        with pytest.raises(InvariantViolation, match=r"coefficient \[1\]\[2\] = 1 lies outside k \+ l <= 2"):
            conjecture_substitution(poly_from_terms(2, (0, 0, 1), (1, 2, 1)))

    @given(triangles(support=True))
    def test_matches_rational_evaluation(self, p):
        """Independent oracle: evaluate the rational expression pointwise."""
        n = len(p) - 1
        q = conjecture_substitution(p)
        for xv, yv in POINTS:
            lhs = (1 - yv) ** n * evaluate(p, (xv + yv) / (1 - yv), yv / (1 - yv))
            assert evaluate(q, xv, yv) == lhs

    @given(triangles(support=True))
    def test_y0_slice_is_positive_part(self, p):
        assert subs_y(conjecture_substitution(p), 0) == subs_y(p, 0)


class TestAlternativeSubstitution:
    @given(triangles(support=True))
    def test_matches_rational_evaluation(self, p):
        n = len(p) - 1
        q = alternative_substitution(p)
        points = [(1, 3), (-2, 4), (Fraction(2, 3), Fraction(1, 2)), (5, -4)]
        for xv, yv in ((Fraction(a), Fraction(b)) for a, b in points):
            lhs = (yv - 1) ** n * evaluate(p, (xv + 1) / (yv - 1), 1 / (yv - 1))
            assert evaluate(q, xv, yv) == lhs
