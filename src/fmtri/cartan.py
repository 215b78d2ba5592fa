"""Classification data for finite crystallographic root systems.

Irreducible types are the Killing-Cartan list A(n>=1), B(n>=2), C(n>=3),
D(n>=4), E6-E8, F4, G2, with the low-rank coincidences normalized at
construction (B1, C1 -> A1; C2 -> B2; D3 -> A3).  Node labels follow the
Bourbaki numbering throughout; node deletion, a closed form per family,
drives the F-triangle recursion.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import SpecError

FAMILIES = "ABCDEFG"

# the classical families, with their least ranks
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}

# the exceptional types, with their Coxeter numbers and exponents
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (12, (1, 4, 5, 7, 8, 11)),
    ("E", 7): (18, (1, 5, 7, 9, 11, 13, 17)),
    ("E", 8): (30, (1, 7, 11, 13, 17, 19, 23, 29)),
    ("F", 4): (12, (1, 5, 7, 11)),
    ("G", 2): (6, (1, 5)),
}

# low-rank coincidences, each mapped to the family of its canonical name
_COINCIDENCES = {("B", 1): "A", ("C", 1): "A", ("C", 2): "B", ("D", 3): "A"}


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
        if (fam, n) == ("D", 2):
            raise SpecError("D2 is reducible; write it as A1xA1")
        fam = _COINCIDENCES.get((fam, n), fam)
        if fam not in FAMILIES:
            raise SpecError(f"unknown family {fam!r}")
        if not (n >= _MIN_RANK[fam] if fam in _MIN_RANK else (fam, n) in _EXCEPTIONAL_EXPONENTS):
            raise SpecError(f"{fam}{n} is not an admissible Cartan type")
        return super().__new__(cls, fam, n)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class _SpecFields(NamedTuple):
    components: tuple[CartanType, ...]


class RootSystemSpec(_SpecFields):
    """A finite multiset of irreducible types; empty means the rank-0 system.
    ``__new__`` sorts the components into canonical order."""

    __slots__ = ()

    def __new__(cls, components: Iterable[CartanType]):
        return super().__new__(cls, tuple(sorted(components, key=lambda t: (-t.rank, t.family))))

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.components)

    def __str__(self) -> str:
        return "x".join(str(t) for t in self.components)


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
    if any(p == "" for p in parts):
        raise SpecError(
            f"cannot parse spec {text!r}; expected components joined by 'x', "
            "e.g. 'A3' or 'B2xA1' (families A-G, ranks: A>=1, B>=2, C>=3, "
            "D>=4, E in 6..8, F4, G2)"
        )
    return RootSystemSpec(tuple(parse_type(p) for p in parts))


# Names that the closed forms below reach outside the admissible ranks,
# mapped to the same diagrams under their admissible names.
_RENAMED = {("D", 2): (("A", 1), ("A", 1)), ("E", 4): (("A", 4),), ("E", 5): (("D", 5),)}


def delete_node(t: CartanType, i: int) -> RootSystemSpec:
    """Restrict the root system to the diagram with node ``i`` removed.

    A closed form per family on the Bourbaki diagrams (Bourbaki, *Lie
    Groups*, ch. VI, Plates I-IX); E_n is the chain 1-3-4-...-n with node 2
    on node 4.  Rank-0 parts are dropped.
    """
    fam, n = t
    if not 1 <= i <= n:
        raise SpecError(f"{t} has no node {i}; valid labels are 1..{n}")
    if fam in "ABC":
        parts = [("A", i - 1), (fam, n - i)]
    elif fam == "D":
        parts = [("A", n - 1)] if i >= n - 1 else [("A", i - 1), ("D", n - i)]
    elif fam == "E":
        parts = {
            1: [("D", n - 1)],
            2: [("A", n - 1)],
            3: [("A", 1), ("A", n - 2)],
            4: [("A", 1), ("A", 2), ("A", n - 4)],
        }.get(i, [("E", i - 1), ("A", n - i)])
    elif fam == "F":
        parts = [[("C", 3)], [("A", 1), ("A", 2)], [("A", 2), ("A", 1)], [("B", 3)]][i - 1]
    else:
        parts = [("A", 1)]
    return RootSystemSpec(
        CartanType(*p) for part in parts if part[1] for p in _RENAMED.get(part, (part,))
    )


# --------------------------------------------------------------------------
# Coxeter numbers and exponents
# --------------------------------------------------------------------------

class CoxeterInvariants(NamedTuple):
    coxeter_number: int
    exponents: tuple[int, ...]


def invariants(t: CartanType) -> CoxeterInvariants:
    """Coxeter number and sorted exponents (standard Lie-theory data).

    Classical families come from the closed formulas, exceptional types from
    a fixed table; the test suite checks e_i + e_(n+1-i) = h, and every entry
    against the enumerated count of positive roots.
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
    return CoxeterInvariants(h, exps)


def num_positive_roots(t: CartanType) -> int:
    inv = invariants(t)
    return t.rank * inv.coxeter_number // 2


def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Integer Cartan matrix ``M[i][j] = <alpha_j, alpha_i^vee>``.

    The Bourbaki diagrams (Plates I-IX) by closed form: the chain 1-2-...-n,
    except that D_n joins n - 2 to n and E_n is the chain 1-3-4-...-n with
    node 2 on node 4.  Rows index coroots: the row of the shorter root of
    the one multiple edge of B, C, F and G holds -multiplicity.
    """
    fam, n = t
    edges = [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        edges[-1] = (n - 3, n - 1)
    elif fam == "E":
        edges = [(0, 2), (1, 3)] + edges[2:]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    # (shorter root, longer root, multiplicity), 0-based
    multiple = {"B": (n - 1, n - 2, 2), "C": (n - 2, n - 1, 2), "F": (2, 1, 2), "G": (0, 1, 3)}
    if fam in multiple:
        short, long, mult = multiple[fam]
        m[short][long] = -mult
    return tuple(tuple(row) for row in m)
