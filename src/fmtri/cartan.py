"""Classification data for finite crystallographic root systems.

Irreducible types are the Killing-Cartan list A(n>=1), B(n>=2), C(n>=3),
D(n>=4), E6-E8, F4, G2, with the low-rank coincidences normalized at
construction (B1, C1 -> A1; C2 -> B2; D3 -> A3).  Node labels follow the
Bourbaki numbering throughout; node deletion and the classification of the
resulting subdiagrams are what drive the triangle recursions.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import InvariantViolation, SpecError

FAMILIES = "ABCDEFG"

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "F": 4, "G": 2}


class _CartanFields(NamedTuple):
    family: str
    rank: int


class CartanType(_CartanFields):
    """One irreducible type, e.g. ``CartanType("A", 3)``, printed as ``A3``.

    A named tuple, so it is immutable, hashable, equal by field and
    picklable; ``__new__`` puts the low-rank coincidences in canonical form.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        fam, n = family.upper(), rank
        # low-rank coincidences get a single canonical representative
        if (fam, n) in (("B", 1), ("C", 1)):
            fam = "A"
        elif (fam, n) == ("C", 2):
            fam = "B"
        elif (fam, n) == ("D", 3):
            fam = "A"
        elif (fam, n) == ("D", 2):
            raise SpecError("D2 is reducible; write it as A1xA1")
        if fam not in FAMILIES:
            raise SpecError(f"unknown family {fam!r}")
        ok = (fam in _MIN_RANK and n >= _MIN_RANK[fam]) or (fam == "E" and n in (6, 7, 8))
        if fam in ("F", "G") and n != _MIN_RANK[fam]:
            ok = False
        if not ok or n < 1:
            raise SpecError(f"{fam}{n} is not an admissible Cartan type")
        return super().__new__(cls, fam, n)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def sort_key(self):
        # canonical component order: larger rank first, then family letter
        return (-self.rank, self.family)


class _SpecFields(NamedTuple):
    components: tuple[CartanType, ...]


class RootSystemSpec(_SpecFields):
    """A finite multiset of irreducible types; empty means the rank-0 system.
    ``__new__`` sorts the components into canonical order."""

    __slots__ = ()

    def __new__(cls, components: Iterable[CartanType]):
        return super().__new__(cls, tuple(sorted(components, key=lambda t: t.sort_key)))

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.components)

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def __str__(self) -> str:
        return "x".join(str(t) for t in self.components)

    def __mul__(self, other: "RootSystemSpec") -> "RootSystemSpec":
        return RootSystemSpec(self.components + other.components)


def spec_of(*types: CartanType) -> RootSystemSpec:
    return RootSystemSpec(tuple(types))


_TYPE_RE = re.compile(r"^([A-Ga-g])([0-9]+)$")


def parse_type(text: str) -> CartanType:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise SpecError(
            f"cannot parse Cartan type {text!r}; expected a family letter followed "
            "by a rank, e.g. 'A3' or 'e6'"
        )
    return CartanType(m.group(1).upper(), int(m.group(2)))


def parse_spec(text: str) -> RootSystemSpec:
    """Parse the CLI spec grammar: components joined by 'x', e.g. ``D4xA2``.

    Case-insensitive; the result is canonically sorted, so ``a1xb2`` and
    ``B2xA1`` name the same spec.
    """
    parts = [p for p in text.strip().lower().split("x")]
    if not parts or any(p == "" for p in parts):
        raise SpecError(
            f"cannot parse spec {text!r}; expected components joined by 'x', "
            "e.g. 'A3' or 'B2xA1' (families A-G, ranks: A>=1, B>=2, C>=3, "
            "D>=4, E in 6..8, F4, G2)"
        )
    return RootSystemSpec(tuple(parse_type(p) for p in parts))


def as_spec(obj) -> RootSystemSpec:
    """Coerce a CartanType, spec string, or RootSystemSpec to a spec."""
    if isinstance(obj, RootSystemSpec):
        return obj
    if isinstance(obj, CartanType):
        return spec_of(obj)
    if isinstance(obj, str):
        return parse_spec(obj)
    raise TypeError(f"cannot interpret {obj!r} as a root system spec")


# --------------------------------------------------------------------------
# Dynkin diagrams (Bourbaki numbering)
# --------------------------------------------------------------------------

# An edge is (i, j, multiplicity, short) where ``short`` is the node carrying
# the shorter root for multiplicity >= 2 and None for single edges.
Edge = tuple[int, int, int, int | None]


class DynkinDiagram(NamedTuple):
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]


def diagram(t: CartanType) -> DynkinDiagram:
    """The Bourbaki-labeled diagram of an irreducible type."""
    n = t.rank
    fam = t.family
    path = [(i, i + 1, 1, None) for i in range(1, n)]
    if fam == "A":
        edges = path
    elif fam == "B":
        # alpha_n is the short root
        edges = path[:-1] + [(n - 1, n, 2, n)]
    elif fam == "C":
        edges = path[:-1] + [(n - 1, n, 2, n - 1)]
    elif fam == "D":
        edges = path[:-1] + [(n - 2, n, 1, None)]
    elif fam == "E":
        edges = [(1, 3, 1, None), (3, 4, 1, None), (2, 4, 1, None)]
        edges += [(i, i + 1, 1, None) for i in range(4, n)]
    elif fam == "F":
        edges = [(1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None)]
    elif fam == "G":
        edges = [(1, 2, 3, 1)]
    else:  # pragma: no cover
        raise InvariantViolation(f"unhandled family {fam}")
    return DynkinDiagram(tuple(range(1, n + 1)), tuple(edges))


def _components(nodes: Iterable[int], edges: Iterable[Edge]) -> list[tuple[list[int], list[Edge]]]:
    nodes = list(nodes)
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b, _, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp_set = set(comp)
        comp_edges = [e for e in edges if e[0] in comp_set]
        comps.append((sorted(comp), comp_edges))
    return comps


def _classify_component(nodes: list[int], edges: list[Edge]) -> CartanType:
    """Classify a connected induced subdiagram of a finite-type diagram."""
    k = len(nodes)
    if k == 1:
        return CartanType("A", 1)
    multi = [e for e in edges if e[2] >= 2]
    degree = {v: 0 for v in nodes}
    for a, b, _, _ in edges:
        degree[a] += 1
        degree[b] += 1

    if not multi:
        branch = [v for v in nodes if degree[v] >= 3]
        if not branch:
            return CartanType("A", k)
        if len(branch) > 1 or degree[branch[0]] > 3:
            raise InvariantViolation("subdiagram is not of finite type")
        arms = sorted(_arm_lengths(branch[0], nodes, edges))
        if arms[0] == arms[1] == 1:
            return CartanType("D", k)
        if arms == [1, 2, 2] and k == 6:
            return CartanType("E", 6)
        if arms == [1, 2, 3] and k == 7:
            return CartanType("E", 7)
        if arms == [1, 2, 4] and k == 8:
            return CartanType("E", 8)
        raise InvariantViolation("subdiagram is not of finite type")

    if len(multi) > 1:
        raise InvariantViolation("subdiagram has several multiple edges")
    a, b, mult, short = multi[0]
    if mult == 3:
        if k != 2:
            raise InvariantViolation("triple edge outside G2")
        return CartanType("G", 2)
    if any(degree[v] > 2 for v in nodes):
        raise InvariantViolation("subdiagram is not of finite type")
    # a path with one double edge: B, C, or F4
    if k == 2:
        return CartanType("B", 2)
    leaf_end = a if degree[a] == 1 else (b if degree[b] == 1 else None)
    if leaf_end is None:
        if k == 4 and degree[a] == degree[b] == 2:
            return CartanType("F", 4)
        raise InvariantViolation("subdiagram is not of finite type")
    return CartanType("B" if short == leaf_end else "C", k)


def _arm_lengths(center: int, nodes: list[int], edges: list[Edge]) -> list[int]:
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b, _, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    arms = []
    for first in adj[center]:
        length, prev, cur = 1, center, first
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def delete_node(t: CartanType, i: int) -> RootSystemSpec:
    """Restrict the root system to the diagram with node ``i`` removed."""
    d = diagram(t)
    if i not in d.nodes:
        raise SpecError(f"{t} has no node {i}; valid labels are 1..{t.rank}")
    rest_nodes = [v for v in d.nodes if v != i]
    rest_edges = [e for e in d.edges if i not in (e[0], e[1])]
    comps = _components(rest_nodes, rest_edges)
    return RootSystemSpec(tuple(_classify_component(ns, es) for ns, es in comps))


# --------------------------------------------------------------------------
# Coxeter numbers and exponents
# --------------------------------------------------------------------------

class CoxeterInvariants(NamedTuple):
    coxeter_number: int
    exponents: tuple[int, ...]


_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (12, (1, 4, 5, 7, 8, 11)),
    ("E", 7): (18, (1, 5, 7, 9, 11, 13, 17)),
    ("E", 8): (30, (1, 7, 11, 13, 17, 19, 23, 29)),
    ("F", 4): (12, (1, 5, 7, 11)),
    ("G", 2): (6, (1, 5)),
}


def invariants(t: CartanType) -> CoxeterInvariants:
    """Coxeter number and sorted exponents (standard Lie-theory data).

    Classical families come from the closed formulas, exceptional types from
    a fixed table; the test suite cross-checks every entry against the
    enumerated count of positive roots.
    """
    n = t.rank
    fam = t.family
    if fam == "A":
        h, exps = n + 1, tuple(range(1, n + 1))
    elif fam in ("B", "C"):
        h, exps = 2 * n, tuple(range(1, 2 * n, 2))
    elif fam == "D":
        h = 2 * n - 2
        exps = tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    else:
        h, exps = _EXCEPTIONAL_EXPONENTS[(fam, n)]
    if len(exps) != n or any(exps[i] + exps[n - 1 - i] != h for i in range(n)):
        raise InvariantViolation(f"exponent table broken for {t}")
    return CoxeterInvariants(h, exps)


def num_positive_roots(t: CartanType) -> int:
    inv = invariants(t)
    return t.rank * inv.coxeter_number // 2


def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Integer Cartan matrix ``M[i][j] = <alpha_j, alpha_i^vee>``.

    Rows index coroots: the row of the shorter root of a multiple edge holds
    the -multiplicity entry.
    """
    n = t.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b, mult, short in diagram(t).edges:
        i, j = a - 1, b - 1
        if mult == 1:
            m[i][j] = m[j][i] = -1
        else:
            s = short - 1
            l = j if s == i else i
            m[s][l] = -mult
            m[l][s] = -1
    return tuple(tuple(row) for row in m)
