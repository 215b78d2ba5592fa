from dataclasses import replace
from fractions import Fraction

import pytest

from fmtri import weyl
from fmtri.cartan import parse_spec, spec_of
from fmtri.errors import InvariantViolation, SpecError
from fmtri.ftriangle import h_vector
from fmtri.weyl import (
    abs_length,
    build_nc_lattice,
    build_rep,
    coxeter_element,
    int_rank,
    invariant_formulas,
    m_triangle,
    mat_identity,
    mat_mul,
    nc_lattice,
    rank_generating_function,
)

from oracles import absolute_leq, reflection_word_length, uni_eval, whole_group, zeta_bruteforce

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C4", "D4", "F4", "G2"]


def covers(lat):
    """Entries of the Moebius table whose rank difference is 1."""
    return [
        (a, b)
        for a, row in enumerate(lat.mobius_rows)
        for b, _ in row
        if lat.ranks[b] == lat.ranks[a] + 1
    ]


class TestIntRank:
    def test_zero_and_identity(self):
        assert int_rank(()) == 0
        assert int_rank(((0, 0), (0, 0))) == 0
        assert int_rank(mat_identity(3)) == 3

    def test_rank_one(self):
        assert int_rank(((1, 2), (2, 4))) == 1

    def test_agrees_with_fraction_elimination(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            # straightforward Gaussian elimination over Fractions as oracle
            rows = [[Fraction(c) for c in row] for row in m]
            rank = 0
            for col in range(n):
                piv = next((r for r in range(rank, n) if rows[r][col]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for r in range(rank + 1, n):
                    f = rows[r][col] / rows[rank][col]
                    for c in range(n):
                        rows[r][c] -= f * rows[rank][c]
                rank += 1
            assert int_rank(m) == rank


class TestReflectionRep:
    def test_counts(self):
        assert len(build_rep("A1").positive_roots) == 1
        assert len(build_rep("A3").positive_roots) == 6
        assert len(build_rep("G2").positive_roots) == 6

    def test_counts_all_types(self):
        from fmtri.cartan import num_positive_roots

        for s in SMALL_TYPES:
            rep = build_rep(s)
            expected = sum(num_positive_roots(t) for t in rep.spec.components)
            assert len(rep.positive_roots) == len(rep.reflections) == expected

    def test_simple_reflections_are_involutions(self):
        for s in SMALL_TYPES:
            rep = build_rep(s)
            for i, m in enumerate(rep.simple_reflections):
                assert mat_mul(m, m) == mat_identity(rep.n)
                alpha = tuple(1 if j == i else 0 for j in range(rep.n))
                from fmtri.weyl import mat_apply

                assert mat_apply(m, alpha) == tuple(-c for c in alpha)

    def test_reflections_have_length_one(self):
        rep = build_rep("B3")
        for t in rep.reflections:
            assert abs_length(t) == 1
            assert mat_mul(t, t) == mat_identity(rep.n)

    def test_block_rep_for_products(self):
        rep = build_rep("A2xA1")
        assert rep.n == 3
        assert len(rep.positive_roots) == 4


class TestAbsLength:
    def test_identity(self):
        assert abs_length(mat_identity(3)) == 0

    def test_reflections(self):
        rep = build_rep("A3")
        assert all(abs_length(t) == 1 for t in rep.reflections)

    def test_coxeter_element_is_full_length(self):
        for s in SMALL_TYPES:
            rep = build_rep(s)
            assert abs_length(coxeter_element(rep)) == rep.n

    @pytest.mark.parametrize("s", ["A3", "B3"])
    def test_against_word_length_oracle_full_group(self, s):
        """rank(g - 1) equals the minimal reflection-word length, groupwide."""
        rep = build_rep(s)
        group = whole_group(rep)
        assert len(group) == {"A3": 24, "B3": 48}[s]
        for g in group:
            assert abs_length(g) == reflection_word_length(rep, g)


class TestCoxeterElement:
    def test_a1(self):
        rep = build_rep("A1")
        assert coxeter_element(rep) == rep.reflections[0]

    def test_a2_has_order_h(self):
        rep = build_rep("A2")
        c = coxeter_element(rep, (1, 2))
        power = c
        order = 1
        while power != mat_identity(2):
            power = mat_mul(power, c)
            order += 1
        assert order == 3

    def test_invalid_ordering(self):
        rep = build_rep("A2")
        with pytest.raises(SpecError):
            coxeter_element(rep, (1, 1))


class TestAbsoluteOrder:
    def test_identity_below_everything(self):
        rep = build_rep("A3")
        e = mat_identity(3)
        c = coxeter_element(rep)
        assert absolute_leq(rep, e, c)
        assert all(absolute_leq(rep, e, t) for t in rep.reflections)

    def test_reflexive(self):
        rep = build_rep("A2")
        t = rep.reflections[0]
        assert absolute_leq(rep, t, t)

    def test_a2_atom_below_coxeter(self):
        rep = build_rep("A2")
        c = coxeter_element(rep)
        assert all(absolute_leq(rep, t, c) for t in rep.reflections)
        assert not absolute_leq(rep, c, rep.reflections[0])


class TestNCLattice:
    def test_sizes(self):
        assert nc_lattice("A1").cardinality == 2
        assert nc_lattice("A2").cardinality == 5
        assert nc_lattice("A3").cardinality == 14

    def test_a2_shape(self):
        lat = nc_lattice("A2")
        assert rank_generating_function(lat) == (1, 3, 1)

    def test_bounds(self):
        lat = nc_lattice("A3")
        assert lat.ranks[0] == 0 and lat.ranks[-1] == lat.n
        assert lat.elements[0] == mat_identity(3)

    def test_formulas_match_bruteforce(self):
        for s in SMALL_TYPES:
            lat = nc_lattice(s)
            forms = invariant_formulas(s)
            assert lat.cardinality == forms.cardinality
            assert lat.mobius_number == forms.mobius_number

    def test_build_checks_the_closed_forms(self, monkeypatch):
        real = weyl.invariant_formulas
        monkeypatch.setattr(
            weyl, "invariant_formulas", lambda s: replace(real(s), cardinality=real(s).cardinality + 1)
        )
        with pytest.raises(InvariantViolation):
            build_nc_lattice(build_rep("A2"))

    def test_leq_matches_direct_rank_characterization(self):
        # the support of the Moebius rows must equal the pairwise rank test
        for s in ["A2", "A3", "A4", "B3", "D4", "A2xA1"]:
            lat = nc_lattice(s)
            rep = build_rep(s)
            for a, row in enumerate(lat.mobius_rows):
                above = {b for b, _ in row}
                for b in range(lat.cardinality):
                    expected = absolute_leq(rep, lat.elements[a], lat.elements[b])
                    assert (b in above) == expected

    def test_grading_via_covers(self):
        # each cover multiplies by one reflection
        lat = nc_lattice("B3")
        refls = build_rep("B3").reflections
        for a, b in covers(lat):
            assert lat.elements[b] in {mat_mul(lat.elements[a], t) for t in refls}

    def test_mobius_alternating_in_rank_intervals(self):
        lat = nc_lattice("A3")
        # mu(a, b) over one-step intervals is -1
        for a, b in covers(lat):
            assert lat.mobius(a, b) == -1

    def test_deterministic_rebuild(self):
        rep = build_rep("B3")
        assert build_nc_lattice(rep) == build_nc_lattice(rep)

    def test_records_its_coxeter_order(self):
        lat = nc_lattice("B3", (2, 3, 1))
        assert lat.coxeter_order == (2, 3, 1)
        assert lat.elements != nc_lattice("B3").elements

    def test_default_order_shares_the_memo_entry(self):
        for s in ["A3", "B3", "A2xA1"]:
            n = parse_spec(s).rank
            assert nc_lattice(s) is nc_lattice(s, tuple(range(1, n + 1)))


class TestMTriangle:
    def test_a1(self):
        # 1 - x + xy
        m = m_triangle(nc_lattice("A1"))
        assert m.rows == ((1, 0), (-1, 1))

    def test_a2(self):
        # 1 - 3x + 2x^2 + 3xy - 3x^2y + x^2y^2
        m = m_triangle(nc_lattice("A2"))
        assert m.rows == ((1, 0, 0), (-3, 3, 0), (2, -3, 1))

    def test_column_sums(self):
        # M(1, y) = y^n for every lattice
        for s in SMALL_TYPES:
            lat = nc_lattice(s)
            assert m_triangle(lat).subs_x(1) == tuple([0] * lat.n + [1])

    def test_self_duality(self):
        for s in SMALL_TYPES:
            lat = nc_lattice(s)
            m = m_triangle(lat)
            n = lat.n
            for i in range(n + 1):
                for j in range(n + 1):
                    assert m.coeff(i, j) == m.coeff(n - j, n - i)

    @pytest.mark.parametrize("s", ["A3", "B3"])
    def test_coxeter_order_invariance(self, s):
        m1 = m_triangle(nc_lattice(s, (1, 2, 3)))
        m2 = m_triangle(nc_lattice(s, (3, 2, 1)))
        m3 = m_triangle(nc_lattice(s, (2, 3, 1)))
        assert m1 == m2 == m3

    def test_multiplicative_over_products(self):
        for pair in [("A1", "A1"), ("A2", "A1"), ("B2", "A1")]:
            prod = parse_spec("x".join(pair))
            direct = m_triangle(nc_lattice(prod))
            split = m_triangle(nc_lattice(pair[0])) * m_triangle(nc_lattice(pair[1]))
            assert direct == split


class TestInvariantFormulas:
    def test_a2(self):
        forms = invariant_formulas("A2")
        assert forms.cardinality == 5
        assert forms.mobius_number == 2
        assert uni_eval(forms.zeta, 2) == 5

    def test_a3(self):
        forms = invariant_formulas("A3")
        assert forms.cardinality == 14
        assert forms.mobius_number == -5

    def test_zeta_at_three(self):
        assert uni_eval(invariant_formulas("A2").zeta, 3) == 12

    def test_zeta_at_minus_one_is_mobius(self):
        for s in SMALL_TYPES:
            forms = invariant_formulas(s)
            assert uni_eval(forms.zeta, -1) == forms.mobius_number

    def test_multiplicative(self):
        a, b = invariant_formulas("A2"), invariant_formulas("A1")
        prod = invariant_formulas("A2xA1")
        assert prod.cardinality == a.cardinality * b.cardinality
        assert prod.mobius_number == a.mobius_number * b.mobius_number


class TestZetaBruteforce:
    def test_convention(self):
        lat = nc_lattice("A2")
        assert zeta_bruteforce(lat, 1) == 1
        assert zeta_bruteforce(lat, 2) == 5
        assert zeta_bruteforce(lat, 3) == 12

    def test_matches_formula_small_ranks(self):
        for s in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2", "A2xA1"]:
            lat = nc_lattice(s)
            zeta = invariant_formulas(s).zeta
            for m in range(1, 6):
                assert zeta_bruteforce(lat, m) == uni_eval(zeta, m)


class TestRankGeneratingFunction:
    def test_examples(self):
        assert rank_generating_function(nc_lattice("A2")) == (1, 3, 1)
        assert rank_generating_function(nc_lattice("A1")) == (1, 1)
        assert rank_generating_function(nc_lattice("A3")) == (1, 6, 6, 1)

    def test_equals_h_vector(self):
        for s in SMALL_TYPES:
            spec = parse_spec(s)
            assert rank_generating_function(nc_lattice(spec)) == h_vector(spec)


class TestRankZero:
    def test_trivial_lattice(self):
        lat = nc_lattice(spec_of())
        assert lat.cardinality == 1
        assert m_triangle(lat).rows == ((1,),)
