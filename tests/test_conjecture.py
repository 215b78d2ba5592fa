import json
from fractions import Fraction

import pytest

from fmtri import conjecture, weyl
from fmtri.cartan import parse_spec, spec_of
from fmtri.conjecture import conjecture_rhs, verify_conjecture
from fmtri.errors import ComputationTimeout, Deadline
from fmtri.ftriangle import f_triangle, h_vector
from fmtri.poly import BivarPoly, conjecture_substitution
from fmtri.weyl import m_triangle, nc_lattice, rank_generating_function

from oracles import alternative_form_check, evaluate, poly_from_terms


class TestLHS:
    def test_a1(self):
        # (1-y) + (x+y) + y
        assert conjecture_substitution(f_triangle("A1"), 1) == poly_from_terms(
            (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_a2(self):
        assert conjecture_substitution(f_triangle("A2"), 2) == poly_from_terms(
            (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )

    def test_rank_zero(self):
        assert conjecture_substitution(f_triangle(spec_of()), 0) == BivarPoly.constant(1)

    def test_x0_slice_is_h_vector(self):
        for s in ["A1", "A3", "B3", "D4", "G2"]:
            lhs = conjecture_substitution(f_triangle(s), parse_spec(s).rank)
            assert lhs.subs_x(0) == h_vector(s)

    def test_x_minus_one_slice_is_y_power(self):
        for s in ["A1", "A3", "B3", "F4"]:
            n = parse_spec(s).rank
            lhs = conjecture_substitution(f_triangle(s), n)
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
        payload, _ = verify_conjecture(nc_lattice("A2"))
        assert payload["verified"]
        assert all(payload["evidence"].values())
        assert payload["mismatches"] == []

    def test_a1xa1(self):
        payload, _ = verify_conjecture(nc_lattice("A1xA1"))
        assert payload["verified"] and all(payload["evidence"].values())

    def test_c_family(self):
        # C lattices are built from their own Cartan data, not routed via B
        for s in ["C3", "C4"]:
            payload, _ = verify_conjecture(nc_lattice(s))
            assert payload["verified"] and all(payload["evidence"].values()), s

    def test_a3_positive_cluster_count(self):
        payload, _ = verify_conjecture(nc_lattice("A3"))
        assert payload["verified"]
        lat = nc_lattice("A3")
        assert f_triangle("A3").coeff(3, 0) == 5
        assert lat.mobius_number == -5
        assert payload["evidence"]["positive_cluster_count_match"]

    def test_coxeter_order_does_not_matter(self):
        p1, _ = verify_conjecture(nc_lattice("B3", (3, 1, 2)))
        assert p1["verified"] and all(p1["evidence"].values())
        assert p1["rhs"] == verify_conjecture(nc_lattice("B3"))[0]["rhs"]

    def test_evidence_builds_respect_the_deadline(self, monkeypatch):
        # the multiplicativity check builds the lattice of every component
        lat = nc_lattice("A3xA1")
        monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
        with pytest.raises(ComputationTimeout):
            verify_conjecture(lat, deadline=Deadline(0))

    def test_report_payload_round_trips_json(self):
        payload, timings = verify_conjecture(nc_lattice("A2"))
        assert json.loads(json.dumps(payload)) == payload
        assert "timings" not in payload
        assert set(timings) == {"f_triangle", "compare"}

    def test_mismatch_reported_not_raised(self, monkeypatch):
        # doctor a wrong triangle: the comparison must surface data, not raise
        wrong = poly_from_terms((0, 0, 1), (1, 0, 2), (0, 1, 1))
        monkeypatch.setattr(conjecture, "f_triangle", lambda spec: wrong)
        payload, _ = verify_conjecture(nc_lattice("A1"))
        assert payload["verified"] is False
        # 1 + 2x + y transforms to (1-y) + 2(x+y) + y = 1 + 2x + 2y
        assert payload["mismatches"] == [[0, 1, 2, 1], [1, 0, 2, 1]]


class TestAlternativeForm:
    def test_small(self):
        assert alternative_form_check(f_triangle("A1"), 1)
        assert alternative_form_check(f_triangle("A2"), 2)
        assert alternative_form_check(f_triangle(spec_of()), 0)

    def test_everywhere(self):
        for s in ["A4", "B4", "D4", "F4", "G2", "A2xA1"]:
            assert alternative_form_check(f_triangle(s), parse_spec(s).rank)
