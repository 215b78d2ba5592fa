"""Weyl groups over the integer reflection representation, and the
noncrossing partition lattice.

Reflections and Coxeter elements are plain ``Matrix`` tuples: n x n integer
matrices acting on coordinates in the simple-root basis, so every
computation is exact.

The lattice is the interval [1, c] in absolute order, enumerated level by
level and never via the full group, which is what keeps the exceptional
types cheap.  Each element a is named, and only named, by the bitmask F(a)
of the reflections t whose vector u_t = (1 - c)^-1 beta_t it fixes.  These
are exactly the t with t*a covering a inside [1, c]: t <= c a^-1 iff beta_t
lies in Mov(c a^-1) = (1 - c) Fix(a) (Brady-Watt 2002, Bessis 2003).  A
child's mask is its parent's AND a precomputed mask of t, so the search
needs no rank test and every candidate is a cover; the tests check the
masks against whole-group enumeration and the rank test rank(g - 1).  An
``NCLattice`` keeps its masks in (rank, mask) order, ranks and Moebius
table, and nothing else: the support of the Moebius table is the order
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cartan import RootSystemSpec, as_spec, cartan_matrix, invariants, num_positive_roots
from .errors import Deadline, InvariantViolation, NO_DEADLINE, SpecError
from .poly import BivarPoly

Matrix = tuple[tuple[int, ...], ...]


# --------------------------------------------------------------------------
# Exact integer linear algebra
# --------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_apply(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


# --------------------------------------------------------------------------
# Group elements and the reflection representation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionRep:
    """Simple reflections, positive roots, and all reflections of W."""

    spec: RootSystemSpec
    n: int
    simple_reflections: tuple[Matrix, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    reflections: tuple[Matrix, ...]


def build_rep(spec) -> ReflectionRep:
    """Build the reflection representation for a (possibly reducible) spec.

    Reducible specs get the block-diagonal representation; positive roots are
    enumerated by orbit closure under the simple reflections, and each
    reflection matrix is carried along as a conjugate of a simple reflection.
    """
    spec = as_spec(spec)
    n = spec.rank
    cartan = [[0] * n for _ in range(n)]
    offset = 0
    for t in spec.components:
        block = cartan_matrix(t)
        for i in range(t.rank):
            for j in range(t.rank):
                cartan[offset + i][offset + j] = block[i][j]
        offset += t.rank

    simples = []
    for i in range(n):
        rows = [list(r) for r in mat_identity(n)]
        for j in range(n):
            rows[i][j] -= cartan[i][j]
        simples.append(tuple(tuple(r) for r in rows))
    simples = tuple(simples)

    # orbit closure: root -> reflection matrix about it
    refl_of: dict[tuple[int, ...], Matrix] = {}
    frontier: list[tuple[tuple[int, ...], Matrix]] = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        refl_of[e] = simples[i]
        frontier.append((e, simples[i]))
    while frontier:
        fresh = []
        for v, t in frontier:
            for s in simples:
                w = mat_apply(s, v)
                if all(c <= 0 for c in w):
                    w = tuple(-c for c in w)
                elif not all(c >= 0 for c in w):
                    raise InvariantViolation(f"mixed-sign root coordinates {w}")
                if w not in refl_of:
                    tw = mat_mul(s, mat_mul(t, s))
                    refl_of[w] = tw
                    fresh.append((w, tw))
        frontier = fresh

    expected = sum(num_positive_roots(t) for t in spec.components)
    if len(refl_of) != expected:
        raise InvariantViolation(
            f"{spec}: found {len(refl_of)} positive roots, expected {expected}"
        )
    roots = tuple(sorted(refl_of, key=lambda v: (sum(v), v)))
    reflections = tuple(refl_of[v] for v in roots)
    return ReflectionRep(spec, n, simples, roots, reflections)


def node_order(n: int, ordering: Sequence[int] | None = None) -> tuple[int, ...]:
    """The node order (1-based) naming a Coxeter element; 1, ..., n by default."""
    order = tuple(range(1, n + 1)) if ordering is None else tuple(ordering)
    if sorted(order) != list(range(1, n + 1)):
        raise SpecError(f"Coxeter order {','.join(map(str, order))} is not a permutation of 1..{n}")
    return order


def coxeter_element(rep: ReflectionRep, ordering: Sequence[int] | None = None) -> Matrix:
    """Product of all simple reflections in the given node order (1-based)."""
    m = mat_identity(rep.n)
    for i in node_order(rep.n, ordering):
        m = mat_mul(m, rep.simple_reflections[i - 1])
    # sum_{j<h} c^j is h times the projection onto Fix(c), so it is zero
    # exactly when c fixes no vector, i.e. has full reflection length n
    if any(map(any, _power_moment(m, 0))):
        raise InvariantViolation("Coxeter element does not have full reflection length")
    return m


def _power_moment(m: Matrix, e: int) -> Matrix:
    """sum_{0 <= j < h} j^e m^j, where h is the order of m."""
    ident = mat_identity(len(m))
    powers, p = [ident], m
    while p != ident:
        powers.append(p)
        p = mat_mul(p, m)
    return tuple(
        tuple(sum(j**e * x for j, x in enumerate(entries)) for entries in zip(*rows))
        for rows in zip(*powers)
    )


# --------------------------------------------------------------------------
# The noncrossing partition lattice: interval [1, c] in absolute order
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NCLattice:
    """The interval [1, c], with ranks and Moebius table.

    ``elements`` are the masks F(a) sorted by (rank, mask), so index order
    refines rank order, element 0 is the identity (every bit set) and
    element -1 is c (mask 0).  ``mobius_rows[a]`` lists (b, mu(a, b)) for
    every b >= a in index order.  Its support is the up-set of a, so the
    rows carry the whole order relation, for fresh and cache-loaded
    lattices alike; a cover is an entry whose rank difference is 1.  The
    rank n of the lattice is the rank of ``spec``.
    """

    spec: RootSystemSpec
    coxeter_order: tuple[int, ...]
    elements: tuple[int, ...]
    ranks: tuple[int, ...]
    mobius_rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n(self) -> int:
        return self.spec.rank

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def mobius_number(self) -> int:
        """mu(1, c), read from the identity's row; 0 if c is not in it."""
        return dict(self.mobius_rows[0]).get(len(self.elements) - 1, 0)


def build_nc_lattice(
    rep: ReflectionRep,
    coxeter_order: Sequence[int] | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """Enumerate [1, c] level by level, then fill the Moebius table.

    c is the Coxeter element of ``coxeter_order``.  F(a) is the bitmask of
    the reflections t with a u_t = u_t: F(1) has every bit and F(c) none.
    Fix(t a) = Fix(t) & Fix(a) gives F(t a) = F(a) & F(t), and F is
    injective on [1, c], so the covers of a are the t*a for t in F(a) and
    the mask names the element.  mu comes from the recursion
    mu(a, b) = -sum_{a <= z < b} mu(a, z) over the closure of the covers.
    Element order is canonical, so results are reproducible.  The result
    passes ``check_lattice`` or the build raises InvariantViolation.
    """
    n = rep.n
    order = node_order(n, coxeter_order)
    c_mat = coxeter_element(rep, order)
    # P = sum_j j c^j satisfies (1 - c) P = -h, so P beta_t is a nonzero
    # multiple of u_t and the test a u_t = u_t needs no fractions
    p_mat = _power_moment(c_mat, 1)
    u = [mat_apply(p_mat, beta) for beta in rep.positive_roots]
    z_masks = [
        sum(1 << i for i, v in enumerate(u) if mat_apply(t, v) == v) for t in rep.reflections
    ]

    levels: list[list[int]] = [[(1 << len(u)) - 1]]
    seen = set(levels[0])
    cover_masks: list[tuple[int, int]] = []
    for k in range(n):
        next_level: list[int] = []
        for f in levels[k]:
            deadline.check()
            for i in _mask_indices(f):
                g = f & z_masks[i]
                cover_masks.append((f, g))
                if g not in seen:
                    seen.add(g)
                    next_level.append(g)
        levels.append(next_level)
    if levels[n] != [0]:
        raise InvariantViolation("top level of [1, c] is not exactly {c}")

    masks = [f for level in levels for f in sorted(level)]
    ranks = [k for k, level in enumerate(levels) for _ in level]
    index = {f: i for i, f in enumerate(masks)}
    covers = sorted((index[f], index[g]) for f, g in cover_masks)
    # bitmasks of the up- and down-sets; every cover (a, b) has a < b, so
    # one pass each way closes them
    up = [1 << i for i in range(len(masks))]
    down = up[:]
    for a, b in reversed(covers):
        up[a] |= up[b]
    for a, b in covers:
        down[b] |= down[a]

    # mu(a, b) = -sum of mu(a, z) over a <= z < b; the up/down mask
    # intersection walks exactly the interval [a, b]
    mobius_rows = []
    for a in range(len(masks)):
        deadline.check()
        ua = up[a]
        row = {a: 1}
        for b in _mask_indices(ua)[1:]:
            total = 0
            for z in _mask_indices(ua & down[b]):
                if z != b:
                    total += row[z]
            row[b] = -total
        mobius_rows.append(tuple(sorted(row.items())))

    lat = NCLattice(
        spec=rep.spec,
        coxeter_order=order,
        elements=tuple(masks),
        ranks=tuple(ranks),
        mobius_rows=tuple(mobius_rows),
    )
    check_lattice(lat)
    return lat


def _mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# in-process memo; lattices are immutable so sharing is safe
_LATTICE_MEMO: dict[tuple[RootSystemSpec, tuple[int, ...]], NCLattice] = {}


def nc_lattice(spec, coxeter_order=None, deadline: Deadline = NO_DEADLINE) -> NCLattice:
    """Memoized lattice builder keyed on (canonical spec, node order)."""
    spec = as_spec(spec)
    key = (spec, node_order(spec.rank, coxeter_order))
    if key not in _LATTICE_MEMO:
        _LATTICE_MEMO[key] = build_nc_lattice(
            build_rep(spec), coxeter_order=key[1], deadline=deadline
        )
    return _LATTICE_MEMO[key]


# --------------------------------------------------------------------------
# Derived data: M-triangle, rank counts, Zeta polynomial
# --------------------------------------------------------------------------

def m_triangle(lat: NCLattice) -> BivarPoly:
    """M(x, y) = sum over a <= b of mu(a, b) x^rank(b) y^rank(a)."""
    n = lat.n
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for a, row in enumerate(lat.mobius_rows):
        ra = lat.ranks[a]
        for b, mu in row:
            rows[lat.ranks[b]][ra] += mu
    return BivarPoly(rows)


def rank_generating_function(lat: NCLattice) -> tuple[int, ...]:
    out = [0] * (lat.n + 1)
    for r in lat.ranks:
        out[r] += 1
    return tuple(out)


@dataclass(frozen=True)
class InvariantFormulas:
    zeta: tuple[Fraction, ...]
    cardinality: int
    mobius_number: int


def invariant_formulas(spec) -> InvariantFormulas:
    """Closed-form Zeta polynomial, cardinality, and Moebius number of [1, c].

    Z(X) is the product over all exponents of (h X - e + 1)/(e + 1); the
    cardinality is Z(2) and the Moebius number is Z(-1), both of which must
    come out integral.  Everything is multiplicative over products.
    """
    spec = as_spec(spec)
    z = BivarPoly.constant(1)
    for t in spec.components:
        inv = invariants(t)
        h = inv.coxeter_number
        for e in inv.exponents:
            z = z * BivarPoly.from_x_coeffs((Fraction(1 - e, e + 1), Fraction(h, e + 1)))
    zeta = z.subs_y(0)
    card = sum(c * 2**i for i, c in enumerate(zeta))
    mob = sum(c * (-1) ** i for i, c in enumerate(zeta))
    if card != int(card) or mob != int(mob):
        raise InvariantViolation(f"non-integral lattice invariants for {spec}")
    return InvariantFormulas(tuple(Fraction(c) for c in zeta), int(card), int(mob))


def check_lattice(lat: NCLattice) -> None:
    """Raise InvariantViolation unless |L| and mu(0, 1) of ``lat`` are the
    ``invariant_formulas`` values of its spec, its Moebius table keeps the
    defining sums (row a starts with (a, 1), every row but the top's sums to
    0 and every column but the bottom's sums to 0), and ``ranks`` are the
    heights in the order the table's support defines."""
    forms = invariant_formulas(lat.spec)
    found = (lat.cardinality, lat.mobius_number)
    if found != (forms.cardinality, forms.mobius_number):
        raise InvariantViolation(
            f"{lat.spec}: |L| = {found[0]} and mu = {found[1]}, expected "
            f"{forms.cardinality} and {forms.mobius_number}"
        )
    top = lat.cardinality - 1
    column_sums = [0] * lat.cardinality
    # rows come in index order, which refines the order, so the height of
    # a is final before its row raises the heights above it
    heights = [0] * lat.cardinality
    for a, row in enumerate(lat.mobius_rows):
        if row[0] != (a, 1) or (a != top and sum(mu for _, mu in row)):
            raise InvariantViolation(f"{lat.spec}: Moebius row {a} breaks the defining sums")
        column_sums[a] += 1
        above = heights[a] + 1
        for b, mu in row[1:]:
            column_sums[b] += mu
            if heights[b] < above:
                heights[b] = above
    if any(column_sums[1:]):
        raise InvariantViolation(f"{lat.spec}: a Moebius column breaks the defining sums")
    if list(lat.ranks) != heights:
        raise InvariantViolation(f"{lat.spec}: ranks are not the heights of the elements")
