"""Weyl groups over the integer reflection representation, and the
noncrossing partition lattice.

Simple reflections and Coxeter elements are plain ``Matrix`` tuples: n x n
integer matrices acting on coordinates in the simple-root basis, so every
computation is exact.  Every reflection t is its root beta_t and coroot
functional phi_t, with t v = v - phi_t(v) beta_t, so t fixes v iff phi_t(v) = 0.

The lattice is the interval [1, c] in absolute order, enumerated level by
level and never via the full group, which is what keeps the exceptional
types cheap.  Each element a is named, and only named, by the bitmask F(a)
of the reflections t whose vector u_t = (1 - c)^-1 beta_t it fixes.  These
are exactly the t with t*a covering a inside [1, c]: t <= c a^-1 iff beta_t
lies in Mov(c a^-1) = (1 - c) Fix(a) (Brady-Watt 2002, Bessis 2003).  A
child's mask is its parent's AND a precomputed mask of t, so the search
needs no rank test and every candidate is a cover; the tests check the
masks against whole-group enumeration and the rank test rank(g - 1).  An
``NCLattice`` keeps its masks in (rank, mask) order, ranks, covers and the
M-triangle, and nothing else.  The M-triangle needs only the first Moebius
row mu(1, .): every interval [a, b] of [1, c] is isomorphic to [1, a^-1 b],
so mu(a, b) is a value of that row, and one pass over the down-sets derives
the row and M together.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import mul
from typing import NamedTuple, Sequence

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

class ReflectionRep(NamedTuple):
    """Simple reflections, and each reflection t as its positive root beta_t
    and coroot phi_t = <., beta_t^vee>, in one order: t v = v - phi_t(v) beta_t."""

    spec: RootSystemSpec
    n: int
    simple_reflections: tuple[Matrix, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]


def build_rep(spec) -> ReflectionRep:
    """Build the reflection representation for a (possibly reducible) spec.

    Reducible specs get the block-diagonal representation; positive roots are
    enumerated by orbit closure under the simple reflections, each with its
    coroot: alpha_i's is row i of the Cartan matrix, and phi_(s t s) = phi_t s.
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

    # orbit closure: root -> coroot, with phi_t s_i = phi_t - phi_t(alpha_i) A_i;
    # only alpha_i leaves the positive roots under s_i, so no new root is negated
    coroot_of = {tuple(int(i == j) for j in range(n)): tuple(cartan[i]) for i in range(n)}
    frontier = list(coroot_of.items())
    while frontier:
        fresh = []
        for v, phi in frontier:
            for i, s in enumerate(simples):
                w = mat_apply(s, v)
                if all(c <= 0 for c in w):
                    w = tuple(-c for c in w)
                elif not all(c >= 0 for c in w):
                    raise InvariantViolation(f"mixed-sign root coordinates {w}")
                if w not in coroot_of:
                    coroot_of[w] = psi = tuple(x - phi[i] * y for x, y in zip(phi, cartan[i]))
                    fresh.append((w, psi))
        frontier = fresh

    expected = sum(num_positive_roots(t) for t in spec.components)
    if len(coroot_of) != expected:
        raise InvariantViolation(
            f"{spec}: found {len(coroot_of)} positive roots, expected {expected}"
        )
    roots = tuple(sorted(coroot_of, key=lambda v: (sum(v), v)))
    return ReflectionRep(spec, n, simples, roots, tuple(coroot_of[v] for v in roots))


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

class _LatticeFields(NamedTuple):
    spec: RootSystemSpec
    coxeter_order: tuple[int, ...]
    elements: tuple[int, ...]
    ranks: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    m_triangle: BivarPoly


class NCLattice(_LatticeFields):
    """The interval [1, c], with ranks, covers and the M-triangle.

    ``elements`` are the masks F(a) sorted by (rank, mask), so index order
    refines rank order, element 0 is the identity (every bit set) and
    element -1 is c (mask 0).  ``covers`` lists the pairs (a, b) with b
    covering a, sorted; they carry the whole order relation, for fresh and
    cache-loaded lattices alike.  ``m_triangle`` is M(x, y) = sum over
    a <= b of mu(a, b) x^rank(b) y^rank(a), derived from the covers by
    ``lattice_from_covers``; its y^0 column holds the sums of mu(1, b) by
    rank.  The rank n of the lattice is the rank of ``spec``.

    A named tuple of those six fields.  It keeps an instance ``__dict__``
    only as the store of the cached ``mobius_rows``, and sets no other
    attribute.
    """

    def __setattr__(self, name, _value=None):
        raise AttributeError(f"NCLattice is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return self.spec.rank

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def mobius_number(self) -> int:
        """mu(1, c), the coefficient of x^n y^0 in M: c is the one element
        of rank n."""
        return self.m_triangle.coeff(self.n, 0)

    @cached_property
    def mobius_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The whole Moebius table: row a lists (b, mu(a, b)) for every
        b >= a in index order.  No library path reads it; it is computed on
        first use, for the tests and the perfbench tracer."""
        size = self.cardinality
        up = [1 << i for i in range(size)]
        for a, b in reversed(self.covers):
            up[a] |= up[b]
        down = down_sets(size, self.covers)
        # mu(a, b) = -sum of mu(a, z) over a <= z < b; the up/down mask
        # intersection walks exactly the interval [a, b]
        mobius_rows = []
        for a in range(size):
            ua = up[a]
            row = {a: 1}
            for b in _mask_indices(ua)[1:]:
                total = 0
                for z in _mask_indices(ua & down[b]):
                    if z != b:
                        total += row[z]
                row[b] = -total
            mobius_rows.append(tuple(sorted(row.items())))
        return tuple(mobius_rows)


def build_nc_lattice(
    rep: ReflectionRep,
    coxeter_order: Sequence[int] | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """Enumerate [1, c] level by level, then derive the M-triangle.

    c is the Coxeter element of ``coxeter_order``.  F(a) is the bitmask of
    the reflections t with a u_t = u_t: F(1) has every bit and F(c) none.
    Fix(t a) = Fix(t) & Fix(a) gives F(t a) = F(a) & F(t), and F is
    injective on [1, c], so the covers of a are the t*a for t in F(a) and
    the mask names the element.  Element order is canonical, so results are
    reproducible.  The result passes ``check_lattice`` or the build raises
    InvariantViolation.
    """
    n = rep.n
    order = node_order(n, coxeter_order)
    c_mat = coxeter_element(rep, order)
    # P = sum_j j c^j satisfies (1 - c) P = -h, so P beta_t is a nonzero
    # multiple of u_t and the test a u_t = u_t needs no fractions
    p_mat = _power_moment(c_mat, 1)
    u = [mat_apply(p_mat, beta) for beta in rep.positive_roots]
    z_masks = [
        sum(1 << i for i, v in enumerate(u) if not sum(map(mul, phi, v))) for phi in rep.coroots
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
    lat = lattice_from_covers(rep.spec, order, masks, ranks, covers, deadline)
    check_lattice(lat)
    return lat


def lattice_from_covers(
    spec: RootSystemSpec,
    coxeter_order: Sequence[int],
    elements: Sequence[int],
    ranks: Sequence[int],
    covers: Sequence[tuple[int, int]],
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """The lattice with these elements, ranks and covers, and the M-triangle
    they give; unchecked, so callers run ``check_lattice``.

    [a, b] is isomorphic to [1, a^-1 b], and a -> a^-1 b is a bijection of
    [1, b] (Bessis 2003; Armstrong 2009), so the x^rank(b) row of M is the
    sum over w <= b of mu(1, w) y^(rank b - rank w), and mu(1, b) = -sum of
    mu(1, w) over w < b.  One bitmask per (rank, mu) pair holds the indices
    that carry it.  Index order extends the order, so when b's turn comes
    the buckets hold exactly the w before it, and their popcounts against
    the down-set of b give both the y-terms of its row and mu(1, b).
    """
    n = spec.rank
    down = down_sets(len(elements), covers, deadline)
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    buckets: dict[tuple[int, int], int] = {}
    for b, (below, rank) in enumerate(zip(down, ranks)):
        deadline.check()
        row, total = rows[rank], 0
        for (r, v), mask in buckets.items():
            term = v * (mask & below).bit_count()
            row[rank - r] += term
            total += term
        mu = -total if b else 1
        row[0] += mu
        buckets[rank, mu] = buckets.get((rank, mu), 0) | 1 << b
    return NCLattice(
        spec=spec,
        coxeter_order=tuple(coxeter_order),
        elements=tuple(elements),
        ranks=tuple(ranks),
        covers=tuple(covers),
        m_triangle=BivarPoly(rows),
    )


def down_sets(
    size: int, covers: Sequence[tuple[int, int]], deadline: Deadline = NO_DEADLINE
) -> list[int]:
    """Bitmask of the indices w <= b, for each b.  Covers come sorted and
    each has a < b, so one pass in order closes them."""
    down = [1 << i for i in range(size)]
    for a, b in covers:
        deadline.check()
        down[b] |= down[a]
    return down


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
# Derived data: rank counts, Zeta polynomial
# --------------------------------------------------------------------------

def rank_generating_function(lat: NCLattice) -> tuple[int, ...]:
    out = [0] * (lat.n + 1)
    for r in lat.ranks:
        out[r] += 1
    return tuple(out)


class InvariantFormulas(NamedTuple):
    zeta: tuple[Fraction, ...]
    cardinality: int
    mobius_number: int
    maximal_chains: int


def invariant_formulas(spec) -> InvariantFormulas:
    """Closed-form Zeta polynomial, cardinality, Moebius number and number of
    maximal chains of [1, c].

    Z(X) is the product over all exponents of (h X - e + 1)/(e + 1); the
    cardinality is Z(2) and the Moebius number is Z(-1).  There are
    n! prod h_i^n_i / |W_i| maximal chains, with |W_i| the product of e + 1
    over the exponents of component i.  All three must come out integral.
    Z is multiplicative over products, and the chains of a product are
    shuffles of the chains of its components.
    """
    spec = as_spec(spec)
    z = BivarPoly.constant(1)
    chains = Fraction(factorial(spec.rank))
    for t in spec.components:
        inv = invariants(t)
        h = inv.coxeter_number
        for e in inv.exponents:
            z = z * BivarPoly.from_x_coeffs((Fraction(1 - e, e + 1), Fraction(h, e + 1)))
            chains *= Fraction(h, e + 1)
    zeta = z.subs_y(0)
    card = sum(c * 2**i for i, c in enumerate(zeta))
    mob = sum(c * (-1) ** i for i, c in enumerate(zeta))
    if card != int(card) or mob != int(mob) or chains != int(chains):
        raise InvariantViolation(f"non-integral lattice invariants for {spec}")
    return InvariantFormulas(tuple(Fraction(c) for c in zeta), int(card), int(mob), int(chains))


def check_lattice(lat: NCLattice) -> None:
    """Raise InvariantViolation unless ``lat`` is consistent with its own
    masks and with the ``invariant_formulas`` values of its spec.

    The masks must be distinct and in (rank, mask) order, from F(1) with
    every bit set to F(c) = 0.  The covers must be strictly sorted, and
    every cover (a, b) must have rank(b) = rank(a) + 1 and F(b) inside
    F(a), since a <= b iff F(b) is a subset of F(a).  Each a must have
    exactly popcount(F(a)) upper covers, one per t in F(a); then the covers
    are the true ones.  ``ranks`` must be the heights; |L|, mu(1, c) and the
    number of maximal chains, counted over the covers, the closed forms; and
    M's y^0 column, the sums of mu(1, b) by rank, must keep the defining
    sums: mu(1, 1) = 1, and the row sums to 0 unless c = 1.
    """
    forms = invariant_formulas(lat.spec)
    found = (lat.cardinality, lat.mobius_number)
    if found != (forms.cardinality, forms.mobius_number):
        raise InvariantViolation(
            f"{lat.spec}: |L| = {found[0]} and mu = {found[1]}, expected "
            f"{forms.cardinality} and {forms.mobius_number}"
        )
    elements, ranks, size = lat.elements, lat.ranks, lat.cardinality
    m = lat.m_triangle
    if m.coeff(0, 0) != 1 or sum(m.subs_y(0)) != (size == 1):
        raise InvariantViolation(f"{lat.spec}: the Moebius row breaks the defining sums")
    full = (1 << sum(num_positive_roots(t) for t in lat.spec.components)) - 1
    keys = list(zip(ranks, elements))
    if (
        len(ranks) != size
        or len(set(elements)) != size
        or any(k0 >= k1 for k0, k1 in zip(keys, keys[1:]))
        or (elements[0], elements[-1]) != (full, 0)
    ):
        raise InvariantViolation(f"{lat.spec}: masks are not distinct, sorted, from F(1) to F(c)")
    covers = lat.covers
    if any(c0 >= c1 for c0, c1 in zip(covers, covers[1:])):
        raise InvariantViolation(f"{lat.spec}: covers are not strictly sorted")
    # covers come sorted by a, so the height of a and the number of maximal
    # chains of [1, a] are final before its covers pass them on
    up_degree = [0] * size
    heights = [0] * size
    chains = [1] + [0] * (size - 1)
    for a, b in covers:
        if not (0 <= a < b < size and ranks[b] == ranks[a] + 1 and not elements[b] & ~elements[a]):
            raise InvariantViolation(f"{lat.spec}: ({a}, {b}) is not a cover")
        up_degree[a] += 1
        if heights[b] <= heights[a]:
            heights[b] = heights[a] + 1
        chains[b] += chains[a]
    if up_degree != [f.bit_count() for f in elements]:
        raise InvariantViolation(f"{lat.spec}: an element has the wrong number of upper covers")
    if list(ranks) != heights:
        raise InvariantViolation(f"{lat.spec}: ranks are not the heights of the elements")
    if chains[-1] != forms.maximal_chains:
        raise InvariantViolation(
            f"{lat.spec}: {chains[-1]} maximal chains, expected {forms.maximal_chains}"
        )
