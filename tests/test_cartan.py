import pytest
from hypothesis import given, strategies as st

from fmtri.cartan import (
    CartanType,
    RootSystemSpec,
    as_spec,
    cartan_matrix,
    delete_node,
    diagram,
    invariants,
    num_positive_roots,
    parse_spec,
    parse_type,
    spec_of,
)
from fmtri.errors import SpecError

ALL_TYPES = (
    [CartanType("A", n) for n in range(1, 9)]
    + [CartanType("B", n) for n in range(2, 9)]
    + [CartanType("C", n) for n in range(3, 9)]
    + [CartanType("D", n) for n in range(4, 9)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)

admissible_types = st.sampled_from(ALL_TYPES)


class TestCartanType:
    def test_round_trip(self):
        for t in ALL_TYPES:
            assert parse_type(str(t)) == t

    def test_case_insensitive(self):
        assert parse_type("e6") == CartanType("E", 6)

    def test_low_rank_coincidences(self):
        assert CartanType("B", 1) == CartanType("A", 1)
        assert CartanType("C", 1) == CartanType("A", 1)
        assert CartanType("C", 2) == CartanType("B", 2)
        assert CartanType("D", 3) == CartanType("A", 3)

    @pytest.mark.parametrize("bad", ["A0", "E5", "E9", "F5", "G3", "D2", "Q3", "A", "3"])
    def test_rejects_inadmissible(self, bad):
        with pytest.raises(SpecError):
            parse_type(bad)

    def test_spec_parse_and_canonical_order(self):
        spec = parse_spec("a1xb2")
        assert str(spec) == "B2xA1"
        assert spec == parse_spec("B2xA1")
        assert spec.rank == 3

    def test_spec_rejects_garbage(self):
        for bad in ["", "x", "A1x", "A1xxA2"]:
            with pytest.raises(SpecError):
                parse_spec(bad)

    def test_as_spec_coercions(self):
        t = CartanType("A", 3)
        assert as_spec(t) == spec_of(t) == as_spec("A3")


class TestInvariants:
    def test_rank_one(self):
        inv = invariants(CartanType("A", 1))
        assert inv.coxeter_number == 2 and inv.exponents == (1,)

    def test_a3(self):
        inv = invariants(CartanType("A", 3))
        assert inv.coxeter_number == 4 and inv.exponents == (1, 2, 3)

    def test_g2(self):
        inv = invariants(CartanType("G", 2))
        assert inv.coxeter_number == 6 and inv.exponents == (1, 5)

    def test_exponent_palindrome(self):
        for t in ALL_TYPES:
            inv = invariants(t)
            n = t.rank
            assert len(inv.exponents) == n
            for i in range(n):
                assert inv.exponents[i] + inv.exponents[n - 1 - i] == inv.coxeter_number

    def test_exponent_sum_is_positive_root_count(self):
        for t in ALL_TYPES:
            assert sum(invariants(t).exponents) == num_positive_roots(t)


class TestDiagram:
    def test_a2_single_edge(self):
        d = diagram(CartanType("A", 2))
        assert d.nodes == (1, 2) and d.edges == ((1, 2, 1, None),)

    def test_d4_branch_node(self):
        d = diagram(CartanType("D", 4))
        assert sorted(a + b - 2 for a, b, _, _ in d.edges if 2 in (a, b)) == [1, 3, 4]

    def test_g2_triple_edge(self):
        d = diagram(CartanType("G", 2))
        assert len(d.edges) == 1 and d.edges[0][2] == 3

    def test_connected_and_tree(self):
        for t in ALL_TYPES:
            d = diagram(t)
            assert len(d.edges) == len(d.nodes) - 1
            assert delete_node(t, d.nodes[0]).rank == t.rank - 1  # connectivity probe


class TestDeleteNode:
    def test_a1_gives_empty_spec(self):
        assert delete_node(CartanType("A", 1), 1) == RootSystemSpec(())

    def test_a3_middle_node(self):
        assert str(delete_node(CartanType("A", 3), 2)) == "A1xA1"

    def test_d4_branch_node(self):
        assert str(delete_node(CartanType("D", 4), 2)) == "A1xA1xA1"

    def test_f4_distinguishes_b3_and_c3(self):
        f4 = CartanType("F", 4)
        assert str(delete_node(f4, 1)) == "C3"
        assert str(delete_node(f4, 4)) == "B3"
        assert str(delete_node(f4, 2)) == str(delete_node(f4, 3)) == "A2xA1"

    def test_e8_deletions(self):
        e8 = CartanType("E", 8)
        got = {i: str(delete_node(e8, i)) for i in range(1, 9)}
        assert got[1] == "D7"
        assert got[2] == "A7"
        assert got[8] == "E7"

    def test_invalid_node(self):
        with pytest.raises(SpecError):
            delete_node(CartanType("A", 3), 4)

    @given(admissible_types, st.data())
    def test_rank_drops_by_one(self, t, data):
        i = data.draw(st.integers(1, t.rank))
        assert delete_node(t, i).rank == t.rank - 1

    def test_classification_stability(self):
        # classify the diagram of every component that node deletion produces
        from fmtri.cartan import _classify_component

        for t in ALL_TYPES:
            for i in range(1, t.rank + 1):
                for comp in delete_node(t, i).components:
                    d = diagram(comp)
                    assert _classify_component(list(d.nodes), list(d.edges)) == comp


class TestCartanMatrix:
    def test_a2(self):
        assert cartan_matrix(CartanType("A", 2)) == ((2, -1), (-1, 2))

    def test_b2_short_root_row(self):
        # row of the short root alpha_2 carries the -2
        assert cartan_matrix(CartanType("B", 2)) == ((2, -1), (-2, 2))

    def test_g2(self):
        assert cartan_matrix(CartanType("G", 2)) == ((2, -3), (-1, 2))

    def test_symmetrizable(self):
        for t in ALL_TYPES:
            m = cartan_matrix(t)
            n = t.rank
            for i in range(n):
                for j in range(n):
                    assert (m[i][j] == 0) == (m[j][i] == 0)
                    assert m[i][j] <= 0 or i == j
