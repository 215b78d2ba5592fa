import json
from fractions import Fraction

import pytest

from fmtri.cartan import spec_of
from fmtri.conjecture import conjecture_lhs, conjecture_rhs, verify_conjecture
from fmtri.ftriangle import FTriangle, f_triangle, h_vector
from fmtri.poly import BivarPoly
from fmtri.weyl import m_triangle, nc_lattice, rank_generating_function

from oracles import alternative_form_check, evaluate, poly_from_terms


class TestLHS:
    def test_a1(self):
        # (1-y) + (x+y) + y
        assert conjecture_lhs(f_triangle("A1")) == poly_from_terms(
            (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_a2(self):
        assert conjecture_lhs(f_triangle("A2")) == poly_from_terms(
            (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )

    def test_rank_zero(self):
        assert conjecture_lhs(f_triangle(spec_of())) == BivarPoly.constant(1)

    def test_x0_slice_is_h_vector(self):
        for s in ["A1", "A3", "B3", "D4", "G2"]:
            assert conjecture_lhs(f_triangle(s)).subs_x(0) == h_vector(s)

    def test_x_minus_one_slice_is_y_power(self):
        for s in ["A1", "A3", "B3", "F4"]:
            lhs = conjecture_lhs(f_triangle(s))
            n = f_triangle(s).n
            assert lhs.subs_x(-1) == tuple([0] * n + [1])


class TestRHS:
    def test_a1_brute_force(self):
        # three interval pairs on the 2-chain
        assert conjecture_rhs(m_triangle(nc_lattice("A1"))) == poly_from_terms(
            (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_a2_brute_force(self):
        assert conjecture_rhs(m_triangle(nc_lattice("A2"))) == poly_from_terms(
            (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )

    def test_rank_zero(self):
        assert conjecture_rhs(m_triangle(nc_lattice(spec_of()))) == BivarPoly.constant(1)

    def test_support_guard(self):
        # y without x cannot come from an interval a <= b
        with pytest.raises(ValueError):
            conjecture_rhs(poly_from_terms((0, 0, 1), (0, 1, 1)))

    def test_x0_slice_counts_ranks(self):
        for s in ["A2", "B3", "D4"]:
            lat = nc_lattice(s)
            assert conjecture_rhs(m_triangle(lat)).subs_x(0) == rank_generating_function(lat)

    def test_matches_m_triangle_pointwise(self):
        """Independent oracle: evaluate M(-x, -y/x) at rational points."""
        for s in ["A2", "A3", "B3", "G2"]:
            m = m_triangle(nc_lattice(s))
            rhs = conjecture_rhs(m)
            for xv, yv in [(2, 3), (-3, 5), (Fraction(1, 2), Fraction(2, 3))]:
                xv, yv = Fraction(xv), Fraction(yv)
                assert evaluate(rhs, xv, yv) == evaluate(m, -xv, -yv / xv)


class TestVerify:
    def test_a2(self):
        report = verify_conjecture("A2")
        assert report.verified
        assert report.evidence.all_pass
        assert report.mismatches == ()

    def test_a1xa1(self):
        report = verify_conjecture("A1xA1")
        assert report.verified and report.evidence.all_pass

    def test_c_family(self):
        # C lattices are built from their own Cartan data, not routed via B
        for s in ["C3", "C4"]:
            report = verify_conjecture(s)
            assert report.verified and report.evidence.all_pass, s

    def test_a3_positive_cluster_count(self):
        report = verify_conjecture("A3")
        assert report.verified
        lat = nc_lattice("A3")
        assert f_triangle("A3").data.coeff(3, 0) == 5
        assert lat.mobius_number == -5
        assert report.evidence.positive_cluster_count_match

    def test_coxeter_order_does_not_matter(self):
        r1 = verify_conjecture("B3", coxeter_order=(3, 1, 2))
        assert r1.verified and r1.evidence.all_pass
        assert r1.rhs == verify_conjecture("B3").rhs

    def test_report_payload_round_trips_json(self):
        payload = verify_conjecture("A2").payload()
        assert json.loads(json.dumps(payload)) == payload
        assert "timings" not in payload
        assert "timings" in verify_conjecture("A2").payload(with_timings=True)

    def test_mismatch_reported_not_raised(self):
        # doctor a wrong triangle: the comparison must surface data, not raise
        from fmtri.poly import conjecture_substitution

        wrong = FTriangle(1, poly_from_terms((0, 0, 1), (1, 0, 2), (0, 1, 1)))
        lhs = conjecture_substitution(wrong.data, 1)
        rhs = conjecture_rhs(m_triangle(nc_lattice("A1")))
        diffs = [
            (k, l, lhs.coeff(k, l), rhs.coeff(k, l))
            for k in range(2)
            for l in range(2)
            if lhs.coeff(k, l) != rhs.coeff(k, l)
        ]
        # 1 + 2x + y transforms to (1-y) + 2(x+y) + y = 1 + 2x + 2y
        assert diffs == [(0, 1, 2, 1), (1, 0, 2, 1)]


class TestAlternativeForm:
    def test_small(self):
        assert alternative_form_check(f_triangle("A1"))
        assert alternative_form_check(f_triangle("A2"))
        assert alternative_form_check(f_triangle(spec_of()))

    def test_everywhere(self):
        for s in ["A4", "B4", "D4", "F4", "G2", "A2xA1"]:
            assert alternative_form_check(f_triangle(s))
