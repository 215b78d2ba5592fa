import pickle

import pytest
from hypothesis import given, strategies as st

from fmtri.cartan import (
    CartanType,
    RootSystemSpec,
    cartan_matrix,
    delete_node,
    invariants,
    num_positive_roots,
    parse_spec,
    parse_type,
)
from fmtri.errors import SpecError

import oracles

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
        c2, b2 = CartanType("c", 2), CartanType("B", 2)
        assert (c2, hash(c2), str(c2)) == (b2, hash(b2), "B2")
        assert CartanType("D", 3) == CartanType("A", 3)

    @pytest.mark.parametrize("bad", ["A0", "E4", "E5", "E9", "F3", "F5", "G1", "G3", "D2", "Q3", "A", "3"])
    def test_rejects_inadmissible(self, bad):
        # each refused with its own message
        if bad in ("Q3", "A", "3"):
            message = f"cannot parse Cartan type {bad!r}; expected a family letter"
        elif bad == "D2":
            message = "D2 is reducible; write it as A1xA1"
        else:
            message = f"{bad} is not an admissible Cartan type"
        with pytest.raises(SpecError) as refused:
            parse_type(bad)
        assert str(refused.value).startswith(message)

    def test_rejects_an_unknown_family(self):
        # the parser takes only A-G; the constructor names any other letter
        with pytest.raises(SpecError, match="unknown family 'Q'"):
            CartanType("Q", 3)

    def test_spec_parse_and_canonical_order(self):
        spec = parse_spec("a1xb2")
        assert str(spec) == "B2xA1"
        assert spec == parse_spec("B2xA1")
        assert spec.rank == 3

    def test_spec_rejects_garbage(self):
        # an empty component is named as such, not as an unparsable type
        for bad in ["", "x", "A1x", "A1xxA2"]:
            with pytest.raises(SpecError, match=f"cannot parse spec {bad!r}; expected components"):
                parse_spec(bad)

    def test_records_are_immutable(self):
        t, spec = CartanType("A", 3), parse_spec("B2xA1")
        with pytest.raises(AttributeError):
            t.rank = 4
        with pytest.raises(AttributeError):
            spec.components = ()
        with pytest.raises(AttributeError):
            spec.extra = 1

    @pytest.mark.parametrize("text", ["A1", "a1xb2", "D4xA2xA2", "E8"])
    def test_pickle_round_trip(self, text):
        spec = parse_spec(text)
        for record in (spec, *spec.components):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)


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


def edges(t):
    """The Dynkin diagram as the off-diagonal support of the Cartan matrix:
    Bourbaki labels i < j and the product of the two entries, which is the
    multiplicity of the edge."""
    m = cartan_matrix(t)
    return [
        (i + 1, j + 1, m[i][j] * m[j][i])
        for i in range(t.rank)
        for j in range(i + 1, t.rank)
        if m[i][j]
    ]


class TestDiagram:
    def test_a2_single_edge(self):
        assert edges(CartanType("A", 2)) == [(1, 2, 1)]

    def test_d4_branch_node(self):
        assert sorted(a + b - 2 for a, b, _ in edges(CartanType("D", 4)) if 2 in (a, b)) == [1, 3, 4]

    def test_g2_triple_edge(self):
        assert edges(CartanType("G", 2)) == [(1, 2, 3)]

    def test_bourbaki_labels(self):
        # Bourbaki, Lie Groups ch. VI, Plates IV-IX
        assert edges(CartanType("D", 5)) == [(1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)]
        assert edges(CartanType("E", 6)) == [(1, 3, 1), (2, 4, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)]
        assert edges(CartanType("F", 4)) == [(1, 2, 1), (2, 3, 2), (3, 4, 1)]
        # the row of the shorter root holds the -2: alpha_3 in B3 and F4, alpha_2 in C3
        assert cartan_matrix(CartanType("B", 3))[2][1] == -2
        assert cartan_matrix(CartanType("F", 4))[2][1] == -2
        assert cartan_matrix(CartanType("C", 3))[1][2] == -2

    def test_connected_and_tree(self):
        for t in ALL_TYPES:
            d = edges(t)
            assert len(d) == t.rank - 1
            seen, stack = {1}, [1]
            while stack:
                v = stack.pop()
                for a, b, _ in d:
                    w = b if a == v else a if b == v else None
                    if w is not None and w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(range(1, t.rank + 1))


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
        got = [str(delete_node(e8, i)) for i in range(1, 9)]
        assert got == ["D7", "A7", "A6xA1", "A4xA2xA1", "A4xA3", "D5xA2", "E6xA1", "E7"]

    def test_invalid_node(self):
        for t, i in [("A3", 4), ("A3", 0), ("A3", -1), ("E8", 9)]:
            with pytest.raises(SpecError, match=f"has no node {i}"):
                delete_node(parse_type(t), i)

    @given(admissible_types, st.data())
    def test_rank_drops_by_one(self, t, data):
        i = data.draw(st.integers(1, t.rank))
        assert delete_node(t, i).rank == t.rank - 1

    def test_matches_cartan_matrix_without_the_node(self):
        # an oracle that shares no code with the closed forms: the Cartan
        # matrix with row and column i removed is the block-diagonal matrix of
        # the deleted spec, up to one relabelling of the nodes
        for t in ALL_TYPES:
            for i in range(1, t.rank + 1):
                full = cartan_matrix(t)
                minor = [row[: i - 1] + row[i:] for k, row in enumerate(full) if k != i - 1]
                assert _relabelling(minor, oracles.cartan(delete_node(t, i))) is not None, (t, i)


def _relabelling(m, b):
    """A permutation p with m[x][y] == b[p[x]][p[y]] for all x, y, or None;
    backtracking over nodes whose sorted row and column agree."""
    n = len(m)

    def profile(a, x):
        return sorted(a[x]), sorted(row[x] for row in a)

    options = [[y for y in range(n) if profile(b, y) == profile(m, x)] for x in range(n)]
    p = []

    def extend():
        x = len(p)
        if x == n:
            return True
        for y in options[x]:
            if y not in p and all(m[x][z] == b[y][p[z]] and m[z][x] == b[p[z]][y] for z in range(x)):
                p.append(y)
                if extend():
                    return True
                p.pop()
        return False

    return p if extend() else None


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
