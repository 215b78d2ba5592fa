from fractions import Fraction

import pytest

from fmtri.cartan import CartanType, invariants, parse_spec, spec_of
from fmtri import ftriangle
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import (
    f_triangle,
    f_vector,
    h_vector,
    natural_f_vector,
    positive_f_vector,
)
from fmtri.poly import BivarPoly
from fmtri.weyl import build_rep

from oracles import (
    closed_f_vector_A,
    closed_f_vector_B,
    closed_form_A,
    closed_form_B,
    cluster_f_triangle,
    reflect,
)
from test_cartan import ALL_TYPES

# the reference A3 values (rows k = 0..3, entries l = 0..3-k)
A3_ROWS = [[1, 3, 3, 1], [6, 8, 3], [10, 5], [5]]


def triangle_rows(ft, n):
    return [[ft.coeff(k, l) for l in range(n + 1 - k)] for k in range(n + 1)]


class TestFVector:
    def test_a3(self):
        assert f_vector("A3") == (1, 9, 21, 14)

    def test_empty_spec(self):
        assert f_vector(parse_spec("A1xA1")) == (1, 4, 4)
        assert f_vector(spec_of()) == (1,)

    def test_g2(self):
        assert f_vector("G2") == (1, 8, 8)

    def test_matches_diagonal(self):
        for t in ALL_TYPES:
            assert f_triangle(t).diagonal() == f_vector(t)

    def test_closed_forms(self):
        for n in range(1, 9):
            assert f_vector(CartanType("A", n)) == closed_f_vector_A(n)
        for n in range(2, 9):
            assert f_vector(CartanType("B", n)) == closed_f_vector_B(n)


class TestFTriangle:
    def test_a3_reference_matrix(self):
        assert triangle_rows(f_triangle("A3"), 3) == A3_ROWS

    def test_a1(self):
        assert triangle_rows(f_triangle("A1"), 1) == [[1, 1], [1]]

    def test_a2(self):
        assert triangle_rows(f_triangle("A2"), 2) == [[1, 2, 1], [3, 2], [2]]

    def test_c_equals_b(self):
        assert f_triangle("C4") == f_triangle("B4")

    def test_multiplicative(self):
        sq = f_triangle("A1")
        assert f_triangle("A1xA1") == sq * sq
        assert f_triangle("A2xA1") == f_triangle("A2") * f_triangle("A1")

    def test_diagonal_top_counts_clusters(self):
        for t in ALL_TYPES:
            ft = f_triangle(t)
            n = t.rank
            top = sum(ft.coeff(k, n - k) for k in range(n + 1))
            assert top == f_vector(t)[n]


class TestClosedForms:
    def test_a3_matches_reference(self):
        assert triangle_rows(closed_form_A(3), 3) == A3_ROWS

    def test_a1(self):
        assert triangle_rows(closed_form_A(1), 1) == [[1, 1], [1]]

    def test_b2_values(self):
        assert triangle_rows(closed_form_B(2), 2) == [[1, 2, 1], [4, 2], [3]]
        assert closed_form_B(2).diagonal() == (1, 6, 6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_type_a_oracle(self, n):
        assert closed_form_A(n) == f_triangle(CartanType("A", n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_type_b_oracle(self, n):
        assert closed_form_B(n) == f_triangle(CartanType("B", n))


class TestClusterComplex:
    # every type of rank <= 8, E8 included (about 0.3 s), and three products
    @pytest.mark.parametrize("s", [str(t) for t in ALL_TYPES] + ["A2xA1", "D4xA2", "F4xG2"])
    def test_faces_count_the_f_triangle(self, s):
        assert cluster_f_triangle(build_rep(s)) == f_triangle(s)


class TestSymmetries:
    def test_reflection_fixed_point(self):
        for t in ALL_TYPES:
            ft = f_triangle(t)
            assert reflect(ft, t.rank) == ft

    def test_row_zero_is_binomials(self):
        # F(0, y) = (1+y)^n
        from math import comb

        for t in ALL_TYPES:
            ft = f_triangle(t)
            assert ft.subs_x(0) == tuple(comb(t.rank, l) for l in range(t.rank + 1))

    def test_x_minus_one_collapses(self):
        # F(-1, y) = y^n
        for t in ALL_TYPES:
            ft = f_triangle(t)
            assert ft.subs_x(-1) == tuple([0] * t.rank + [1])

    def test_positive_and_natural_determine_each_other(self):
        # F(x,0) = (-1)^n F(-1-x,-1) in both directions
        from math import comb

        for t in ALL_TYPES:
            sign = 1 if t.rank % 2 == 0 else -1
            pos = positive_f_vector(t)
            nat = natural_f_vector(t)

            def negate_shift(q):
                # expand (-1)^n q(-1-x) exactly via binomials
                out = [0] * len(q)
                for k, c in enumerate(q):
                    for a in range(k + 1):
                        out[a] += sign * c * comb(k, a) * (-1) ** k
                return tuple(out)

            assert negate_shift(nat) == pos
            assert negate_shift(pos) == nat


class TestSpecializations:
    def test_positive_a3(self):
        assert positive_f_vector("A3") == (1, 6, 10, 5)

    def test_positive_a1(self):
        assert positive_f_vector("A1") == (1, 1)

    def test_top_positive_count_formula(self):
        # f_{n,0} equals the product of (h + e_i - 1)/(e_i + 1)
        for t in ALL_TYPES:
            inv = invariants(t)
            expected = Fraction(1)
            for e in inv.exponents:
                expected *= Fraction(inv.coxeter_number + e - 1, e + 1)
            assert positive_f_vector(t)[t.rank] == expected

    def test_natural_small_cases(self):
        assert natural_f_vector("A1") == (0, 1)
        assert natural_f_vector("A2") == (0, 1, 2)
        assert natural_f_vector("A3") == (0, 1, 5, 5)

    def test_natural_nonnegative_everywhere(self):
        for t in ALL_TYPES:
            assert all(c >= 0 for c in natural_f_vector(t))

    def test_h_vector(self):
        assert h_vector("A3") == (1, 6, 6, 1)
        assert h_vector("A1") == (1, 1)
        assert h_vector("B2") == (1, 4, 1)

    def test_h_vector_palindromic(self):
        for t in ALL_TYPES:
            h = h_vector(spec_of(t))
            assert h == h[::-1]
            assert sum(h) == f_vector(t)[t.rank]


class TestValidation:
    def test_closed_form_b_requires_rank_2(self):
        with pytest.raises(ValueError):
            closed_form_B(1)

    def test_natural_guard_fires_on_fake_triangle(self, monkeypatch):
        fake = BivarPoly([[1, 3], [1, 0]])
        monkeypatch.setattr(ftriangle, "f_triangle", lambda spec: fake)
        with pytest.raises(InvariantViolation):
            natural_f_vector("A1")
