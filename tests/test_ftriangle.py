import re
import sys
from fractions import Fraction

import pytest

from fmtri.cartan import invariants, parse_spec, spec_of
from fmtri import ftriangle
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import (
    f_triangle,
    f_vector,
    h_vector,
    natural_f_vector,
    positive_f_vector,
)
from fmtri.poly import diagonal, product
from fmtri.weyl import build_rep

from oracles import closed_form_A, closed_form_B, closed_h_vector_D, cluster_f_triangle
from test_cartan import ALL_TYPES


def triangle_rows(ft):
    return [list(row[: len(ft) - k]) for k, row in enumerate(ft)]


class TestFVector:
    def test_empty_spec(self):
        assert f_vector(f_triangle(parse_spec("A1xA1"))) == (1, 4, 4)
        assert f_vector(f_triangle(spec_of())) == (1,)

    def test_g2(self):
        assert f_vector(f_triangle(parse_spec("G2"))) == (1, 8, 8)

    def test_matches_diagonal(self):
        for t in ALL_TYPES:
            ft = f_triangle(spec_of(t))
            assert diagonal(ft) == f_vector(ft)


class TestFTriangle:
    def test_a1(self):
        assert triangle_rows(f_triangle(parse_spec("A1"))) == [[1, 1], [1]]

    def test_a2(self):
        assert triangle_rows(f_triangle(parse_spec("A2"))) == [[1, 2, 1], [3, 2], [2]]

    def test_c_equals_b(self):
        # C_n runs its own recursion: its deletions give C_(n-i), not B_(n-i)
        for n in range(3, 11):
            assert f_triangle(parse_spec(f"C{n}")) == f_triangle(parse_spec(f"B{n}"))
        assert f_triangle(parse_spec("C5xA2")) == f_triangle(parse_spec("B5xA2"))

    def test_multiplicative(self):
        sq = f_triangle(parse_spec("A1"))
        assert f_triangle(parse_spec("A1xA1")) == product(sq, sq)
        a2, a1 = f_triangle(parse_spec("A2")), f_triangle(parse_spec("A1"))
        assert f_triangle(parse_spec("A2xA1")) == product(a2, a1)

    def test_diagonal_top_counts_clusters(self):
        for t in ALL_TYPES:
            ft = f_triangle(spec_of(t))
            n = t.rank
            top = sum(ft[k][n - k] for k in range(n + 1))
            assert top == f_vector(ft)[n]


class TestClosedForms:
    def test_a1(self):
        assert triangle_rows(closed_form_A(1)) == [[1, 1], [1]]

    def test_b2_values(self):
        assert triangle_rows(closed_form_B(2)) == [[1, 2, 1], [4, 2], [3]]
        assert diagonal(closed_form_B(2)) == (1, 6, 6)

    def test_d_h_vector_is_the_narayana_count(self):
        # D4 has 50 clusters: 1 + 12 + 24 + 12 + 1
        assert closed_h_vector_D(4) == (1, 12, 24, 12, 1)
        for n in range(4, 13):
            assert h_vector(f_triangle(parse_spec(f"D{n}"))) == closed_h_vector_D(n)


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDeepRanks:
    # the induction fills its memo smallest rank first, so a rank-30 type
    # needs no deeper stack than a rank-2 one; A20 nested past 60 frames
    @pytest.mark.parametrize("s", ["A30", "B30", "D30"])
    def test_fits_60_frames_above_the_caller(self, s, monkeypatch):
        monkeypatch.setattr(ftriangle, "_TRIANGLES", {})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_depth() + 60)
        try:
            ft = f_triangle(parse_spec(s))
        finally:
            sys.setrecursionlimit(limit)
        n = int(s[1:])
        if s[0] == "A":
            assert ft == closed_form_A(n)
        elif s[0] == "B":
            assert ft == closed_form_B(n)
        else:
            assert h_vector(ft) == closed_h_vector_D(n)


class TestClusterComplex:
    # every type of rank <= 8, E8 included (about 0.3 s), and three products
    @pytest.mark.parametrize("s", [str(t) for t in ALL_TYPES] + ["A2xA1", "D4xA2", "F4xG2"])
    def test_faces_count_the_f_triangle(self, s):
        spec = parse_spec(s)
        assert cluster_f_triangle(build_rep(spec)) == f_triangle(spec)


class TestSymmetries:
    def test_positive_and_natural_determine_each_other(self):
        # F(x,0) = (-1)^n F(-1-x,-1) in both directions
        from math import comb

        for t in ALL_TYPES:
            sign = 1 if t.rank % 2 == 0 else -1
            ft = f_triangle(spec_of(t))
            pos = positive_f_vector(ft)
            nat = natural_f_vector(ft)

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
        assert positive_f_vector(f_triangle(parse_spec("A3"))) == (1, 6, 10, 5)

    def test_positive_a1(self):
        assert positive_f_vector(f_triangle(parse_spec("A1"))) == (1, 1)

    def test_top_positive_count_formula(self):
        # f_{n,0} equals the product of (h + e_i - 1)/(e_i + 1)
        for t in ALL_TYPES:
            inv = invariants(t)
            expected = Fraction(1)
            for e in inv.exponents:
                expected *= Fraction(inv.coxeter_number + e - 1, e + 1)
            assert positive_f_vector(f_triangle(spec_of(t)))[t.rank] == expected

    def test_natural_small_cases(self):
        assert natural_f_vector(f_triangle(parse_spec("A1"))) == (0, 1)
        assert natural_f_vector(f_triangle(parse_spec("A2"))) == (0, 1, 2)
        assert natural_f_vector(f_triangle(parse_spec("A3"))) == (0, 1, 5, 5)

    def test_natural_nonnegative_everywhere(self):
        for t in ALL_TYPES:
            assert all(c >= 0 for c in natural_f_vector(f_triangle(spec_of(t))))

    def test_h_vector(self):
        assert h_vector(f_triangle(parse_spec("A3"))) == (1, 6, 6, 1)
        assert h_vector(f_triangle(parse_spec("A1"))) == (1, 1)
        assert h_vector(f_triangle(parse_spec("B2"))) == (1, 4, 1)

    def test_h_vector_palindromic(self):
        for t in ALL_TYPES:
            ft = f_triangle(spec_of(t))
            h = h_vector(ft)
            assert h == h[::-1]
            assert sum(h) == f_vector(ft)[t.rank]


class TestValidation:
    def test_closed_form_b_requires_rank_2(self):
        with pytest.raises(ValueError):
            closed_form_B(1)

    def test_natural_guard_fires_on_fake_triangle(self):
        fake = ((1, 3), (1, 0))
        with pytest.raises(InvariantViolation, match=re.escape("entry: (-2, 1)")):
            natural_f_vector(fake)

    def test_negative_coefficient_guard_fires(self, monkeypatch):
        fake = ((1, -1), (1, 0))
        monkeypatch.setattr(ftriangle, "_f_triangle_irreducible", lambda t: fake)
        with pytest.raises(InvariantViolation, match=re.escape("f_triangle(A1): coefficient f[0][1] = -1")):
            f_triangle(parse_spec("A1"))

    @pytest.mark.parametrize(
        "vector, coeffs",
        [(f_vector, (1, 3, 0)), (positive_f_vector, (1, 2, 0))],
        ids=["f_vector", "positive_f_vector"],
    )
    def test_fvector_guard_fires_on_a_zero_top_entry(self, vector, coeffs):
        # 1 + y + 2x, of rank 2, has no term of degree 2: its diagonal and
        # its y-free column end in 0
        fake = ((1, 1, 0), (2, 0, 0), (0, 0, 0))
        message = f"{vector.__name__}: bad f-vector {coeffs}"
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            vector(fake)

    def test_h_vector_guard_fires(self, monkeypatch):
        # f = (1, 0) for A1 gives h = (1, -1)
        monkeypatch.setattr(ftriangle, "f_vector", lambda ft: (1, 0))
        with pytest.raises(InvariantViolation, match=re.escape("h-vector not nonnegative: [1, -1]")):
            h_vector(f_triangle(parse_spec("A1")))
