import json
from fractions import Fraction

import pytest

from fmtri import weyl
from fmtri.cartan import parse_spec, spec_of
from fmtri.conjecture import conjecture_rhs, verify_conjecture
from fmtri.errors import ComputationTimeout, Deadline, InvariantViolation
from fmtri.ftriangle import f_triangle, h_vector
from fmtri.poly import conjecture_substitution, subs_x
from fmtri.weyl import nc_lattice

from oracles import alternative_form_check, evaluate, poly_from_terms


class TestLHS:
    def test_a1(self):
        # (1-y) + (x+y) + y
        assert conjecture_substitution(f_triangle(parse_spec("A1"))) == poly_from_terms(
            1, (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_a2(self):
        assert conjecture_substitution(f_triangle(parse_spec("A2"))) == poly_from_terms(
            2, (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )

    def test_rank_zero(self):
        assert conjecture_substitution(f_triangle(spec_of())) == ((1,),)

    def test_x0_slice_is_h_vector(self):
        for s in ["A1", "A3", "B3", "D4", "G2"]:
            ft = f_triangle(parse_spec(s))
            assert subs_x(conjecture_substitution(ft), 0) == h_vector(ft)

    def test_x_minus_one_slice_is_y_power(self):
        for s in ["A1", "A3", "B3", "F4"]:
            n = parse_spec(s).rank
            lhs = conjecture_substitution(f_triangle(parse_spec(s)))
            assert subs_x(lhs, -1) == (0,) * n + (1,)


class TestRHS:
    def test_a1_brute_force(self):
        # three interval pairs on the 2-chain
        assert conjecture_rhs(nc_lattice(parse_spec("A1")).m_triangle) == poly_from_terms(
            1, (0, 0, 1), (1, 0, 1), (0, 1, 1)
        )

    def test_a2_brute_force(self):
        assert conjecture_rhs(nc_lattice(parse_spec("A2")).m_triangle) == poly_from_terms(
            2, (0, 0, 1), (1, 0, 3), (2, 0, 2), (0, 1, 3), (1, 1, 3), (0, 2, 1)
        )

    def test_rank_zero(self):
        assert conjecture_rhs(nc_lattice(spec_of()).m_triangle) == ((1,),)

    def test_support_guard(self):
        # y without x cannot come from an interval a <= b
        with pytest.raises(InvariantViolation, match=r"m\[0\]\[1\] = 1 lies outside i >= j"):
            conjecture_rhs(poly_from_terms(1, (0, 0, 1), (0, 1, 1)))

    def test_x0_slice_counts_ranks(self):
        for s in ["A2", "B3", "D4"]:
            lat = nc_lattice(parse_spec(s))
            assert subs_x(conjecture_rhs(lat.m_triangle), 0) == tuple(map(len, lat.levels))

    def test_matches_m_triangle_pointwise(self):
        """Independent oracle: evaluate M(-x, -y/x) at rational points."""
        for s in ["A2", "A3", "B3", "G2"]:
            m = nc_lattice(parse_spec(s)).m_triangle
            rhs = conjecture_rhs(m)
            for xv, yv in [(2, 3), (-3, 5), (Fraction(1, 2), Fraction(2, 3))]:
                xv, yv = Fraction(xv), Fraction(yv)
                assert evaluate(rhs, xv, yv) == evaluate(m, -xv, -yv / xv)


class TestVerify:
    def test_c_family(self):
        # C lattices are built from their own Cartan data, not routed via B
        for s in ["C3", "C4"]:
            payload = verify_conjecture(nc_lattice(parse_spec(s)), f_triangle(parse_spec(s)))
            assert payload["verified"] and all(payload["evidence"].values()), s

    def test_a3_positive_cluster_count(self):
        lat, ft = nc_lattice(parse_spec("A3")), f_triangle(parse_spec("A3"))
        payload = verify_conjecture(lat, ft)
        assert payload["verified"]
        assert ft[3][0] == 5
        assert lat.mobius_number == -5
        assert payload["evidence"]["positive_cluster_count_match"]

    def test_coxeter_order_does_not_matter(self):
        ft = f_triangle(parse_spec("B3"))
        p1 = verify_conjecture(nc_lattice(parse_spec("B3"), (3, 1, 2)), ft)
        assert p1["verified"] and all(p1["evidence"].values())
        assert p1["rhs"] == verify_conjecture(nc_lattice(parse_spec("B3")), ft)["rhs"]

    def test_evidence_builds_respect_the_deadline(self, monkeypatch):
        # the multiplicativity check builds the lattice of every component
        lat = nc_lattice(parse_spec("A3xA1"))
        monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
        with pytest.raises(ComputationTimeout):
            verify_conjecture(lat, f_triangle(lat.spec), deadline=Deadline(0))

    def test_report_payload_round_trips_json(self):
        payload = verify_conjecture(nc_lattice(parse_spec("A2")), f_triangle(parse_spec("A2")))
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload) == {"n", "verified", "lhs", "rhs", "mismatches", "evidence"}

    def test_mismatch_reported_not_raised(self):
        # a wrong triangle: the comparison must surface data, not raise
        wrong = poly_from_terms(1, (0, 0, 1), (1, 0, 2), (0, 1, 1))
        payload = verify_conjecture(nc_lattice(parse_spec("A1")), wrong)
        assert payload["verified"] is False
        # 1 + 2x + y transforms to (1-y) + 2(x+y) + y = 1 + 2x + 2y
        assert payload["mismatches"] == [[0, 1, 2, 1], [1, 0, 2, 1]]

    @pytest.mark.parametrize(
        "spec, other",
        [("A1", ""), ("A1", "A2"), ("A2", "A1")],
        ids=["A1-rank0", "A1-A2", "A2-A1"],
    )
    def test_a_triangle_of_another_rank_is_refused(self, spec, other):
        # the comparison zips rows, so a triangle of another rank would be
        # compared on the overlap only: ((1,),) against A1 would verify
        ft = f_triangle(parse_spec(other)) if other else ((1,),)
        with pytest.raises(InvariantViolation, match="F-triangle of rank"):
            verify_conjecture(nc_lattice(parse_spec(spec)), ft)


class TestAlternativeForm:
    def test_small(self):
        assert alternative_form_check(f_triangle(parse_spec("A1")))
        assert alternative_form_check(f_triangle(parse_spec("A2")))
        assert alternative_form_check(f_triangle(spec_of()))

    def test_everywhere(self):
        for s in ["A4", "B4", "D4", "F4", "G2", "A2xA1"]:
            assert alternative_form_check(f_triangle(parse_spec(s)))
