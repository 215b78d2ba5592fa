"""Weyl groups over the integer reflection representation, and the
noncrossing partition lattice.

Vectors are integer tuples in the simple-root basis, so every computation
is exact, and no group element is ever a matrix.  Every reflection t is its
root beta_t and coroot functional phi_t, with t v = v - phi_t(v) beta_t, so
t fixes v iff phi_t(v) = 0.  A simple reflection s_i moves coordinate i
only, by the coroot of alpha_i (row i of the Cartan matrix), and the
Coxeter element c = s_o1 ... s_on applies these steps in reverse node order.

The lattice is the interval [1, c] in absolute order, enumerated level by
level and never via the full group, which is what keeps the exceptional
types cheap.  Each element a is named, and only named, by the bitmask F(a)
of the reflections t whose vector u_t = (1 - c)^-1 beta_t it fixes.  These
are exactly the t with t*a covering a inside [1, c]: t <= c a^-1 iff beta_t
lies in Mov(c a^-1) = (1 - c) Fix(a) (Brady-Watt 2002, Bessis 2003).  A
multiple of u_t comes from the c-orbit of beta_t: if the orbit has length d
and sums to zero, u = sum_{r<d} r c^r beta_t has (1 - c) u = -d beta_t.
Every orbit sums to zero iff c fixes no vector, i.e. has full reflection
length: the mean over <c> projects onto Fix(c), and the roots span.  A
child's mask is its parent's AND a precomputed mask of t, so the search
needs no rank test and every candidate is a cover; the tests check the
masks against whole-group enumeration and the rank test rank(g - 1).  An
``NCLattice`` keeps its masks in (rank, mask) order, ranks, covers and the
M-triangle, and nothing else.  ``lattice_from_covers`` is its one
constructor: a build and a cache load both hand it masks, ranks and covers,
and it checks them against the masks and the closed forms before it derives
M.  The M-triangle needs only the first Moebius row mu(1, .): every interval
[a, b] of [1, c] is isomorphic to [1, a^-1 b], so mu(a, b) is a value of that
row, and one pass over the down-sets derives the row and M together.
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


# --------------------------------------------------------------------------
# Roots, coroots and the Coxeter element
# --------------------------------------------------------------------------

class ReflectionRep(NamedTuple):
    """Each reflection t as its positive root beta_t and coroot
    phi_t = <., beta_t^vee>, in one order: t v = v - phi_t(v) beta_t.  The
    simple root alpha_i is the unit vector e_i, and its coroot is row i of
    the Cartan matrix."""

    spec: RootSystemSpec
    n: int
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]


def build_rep(spec, deadline: Deadline = NO_DEADLINE) -> ReflectionRep:
    """Build the reflection representation for a (possibly reducible) spec.

    Reducible specs get the block-diagonal Cartan matrix; positive roots are
    enumerated by orbit closure under the simple reflections
    s_i v = v - A_i(v) e_i, with A_i row i of the Cartan matrix, each root
    with its coroot: alpha_i's is A_i, and phi_(s t s) = phi_t s.  The
    closure checks ``deadline`` once per root.
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

    # orbit closure: root -> coroot, with phi_t s_i = phi_t - phi_t(alpha_i) A_i;
    # only alpha_i leaves the positive roots under s_i, so no new root is negated
    coroot_of = {_unit(n, i): tuple(row) for i, row in enumerate(cartan)}
    frontier = list(coroot_of.items())
    while frontier:
        fresh = []
        for v, phi in frontier:
            deadline.check()
            for i, row in enumerate(cartan):
                w = list(v)
                w[i] -= sum(map(mul, row, v))
                if all(c <= 0 for c in w):
                    w = [-c for c in w]
                elif not all(c >= 0 for c in w):
                    raise InvariantViolation(f"mixed-sign root coordinates {w}")
                w = tuple(w)
                if w not in coroot_of:
                    coroot_of[w] = psi = tuple(x - phi[i] * y for x, y in zip(phi, row))
                    fresh.append((w, psi))
        frontier = fresh

    expected = sum(num_positive_roots(t) for t in spec.components)
    if len(coroot_of) != expected:
        raise InvariantViolation(
            f"{spec}: found {len(coroot_of)} positive roots, expected {expected}"
        )
    roots = tuple(sorted(coroot_of, key=lambda v: (sum(v), v)))
    return ReflectionRep(spec, n, roots, tuple(coroot_of[v] for v in roots))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(i == j) for j in range(n))


def node_order(n: int, ordering: Sequence[int] | None = None) -> tuple[int, ...]:
    """The node order (1-based) naming a Coxeter element; 1, ..., n by default."""
    order = tuple(range(1, n + 1)) if ordering is None else tuple(ordering)
    if sorted(order) != list(range(1, n + 1)):
        raise SpecError(f"Coxeter order {','.join(map(str, order))} is not a permutation of 1..{n}")
    return order


def _u_vectors(
    rep: ReflectionRep, order: tuple[int, ...], deadline: Deadline
) -> list[tuple[int, ...]]:
    """sum_{r<d} r c^r beta for each positive root beta, d the length of its
    c-orbit; raises InvariantViolation unless every orbit sums to zero."""
    coroot_of = dict(zip(rep.positive_roots, rep.coroots))
    # c = s_o1 ... s_on, so a vector meets s_on first
    steps = [(i - 1, coroot_of[_unit(rep.n, i - 1)]) for i in reversed(order)]
    u: dict[tuple[int, ...], tuple[int, ...]] = {}
    for beta in rep.positive_roots:
        deadline.check()
        if beta in u:
            continue
        orbit, v = [beta], list(beta)
        while True:
            for i, phi in steps:
                v[i] -= sum(map(mul, phi, v))
            if tuple(v) == beta:
                break
            orbit.append(tuple(v))
        if any(map(sum, zip(*orbit))):
            raise InvariantViolation("Coxeter element does not have full reflection length")
        # u at orbit position p is sum_r r c^r o_p; as the orbit sums to
        # zero, the next position's is this one's plus d o_p
        d = len(orbit)
        w = [sum(r * x for r, x in enumerate(xs)) for xs in zip(*orbit)]
        for gamma in orbit:
            if gamma in coroot_of:
                u[gamma] = tuple(w)
            w = [x + d * y for x, y in zip(w, gamma)]
    return [u[beta] for beta in rep.positive_roots]


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
        down = [1 << i for i in range(size)]
        for a, b in self.covers:
            down[b] |= down[a]
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
    u_t is sum_{r<d} r c^r beta_t over the c-orbit of beta_t, of length d:
    a nonzero multiple of (1 - c)^-1 beta_t if every orbit sums to zero, and
    if one does not, c lacks full reflection length and the build raises
    InvariantViolation.
    Fix(t a) = Fix(t) & Fix(a) gives F(t a) = F(a) & F(t), and F is
    injective on [1, c], so the covers of a are the t*a for t in F(a) and
    the mask names the element.  Element order is canonical, so results are
    reproducible.  The lattice comes from ``lattice_from_covers``, so it
    passes every check made there or the build raises InvariantViolation.
    """
    n = rep.n
    order = node_order(n, coxeter_order)
    # u is integral, so the test a u_t = u_t needs no fractions
    u = _u_vectors(rep, order, deadline)
    z_masks = []
    for phi in rep.coroots:
        deadline.check()
        z_masks.append(sum(1 << i for i, v in enumerate(u) if not sum(map(mul, phi, v))))

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
    return lattice_from_covers(rep.spec, order, masks, ranks, covers, deadline)


def lattice_from_covers(
    spec: RootSystemSpec,
    coxeter_order: Sequence[int],
    elements: Sequence[int],
    ranks: Sequence[int],
    covers: Sequence[tuple[int, int]],
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """The lattice with these elements, ranks and covers, and the M-triangle
    they give; the one constructor of ``NCLattice``, for fresh builds and
    cache loads alike.  Raises InvariantViolation unless the input is
    consistent with its own masks and with ``invariant_formulas(spec)``.

    |L| must be the closed form, checked before the down-sets, which take
    |L|^2 / 2 bits, are allocated.  The masks must be distinct and in
    (rank, mask) order, from F(1) with every bit set to F(c) = 0, and the
    covers strictly sorted.  Every cover (a, b) must have rank(b) =
    rank(a) + 1 and F(b) inside F(a), since a <= b iff F(b) is a subset of
    F(a).  Each a must have exactly popcount(F(a)) upper covers, one per t
    in F(a); then the covers are the true ones.  ``ranks`` must be the
    heights, and the maximal chains and the pairs a <= b, counted over the
    covers and not over the masks, must be as many as the closed forms say.
    Then mu(1, c) must be the closed form, mu(1, 1) = 1, and the row
    mu(1, .) must sum to 0 unless c = 1.

    [a, b] is isomorphic to [1, a^-1 b], and a -> a^-1 b is a bijection of
    [1, b] (Bessis 2003; Armstrong 2009), so the x^rank(b) row of M is the
    sum over w <= b of mu(1, w) y^(rank b - rank w), and mu(1, b) = -sum of
    mu(1, w) over w < b.  One bitmask per (rank, mu) pair holds the indices
    that carry it.  Index order extends the order, so when b's turn comes
    the buckets hold exactly the w before it, and their popcounts against
    the down-set of b give both the y-terms of its row and mu(1, b).
    """
    n, size = spec.rank, len(elements)
    forms = invariant_formulas(spec)
    if size != forms.cardinality:
        raise InvariantViolation(f"{spec}: |L| = {size}, expected {forms.cardinality}")
    full = (1 << sum(num_positive_roots(t) for t in spec.components)) - 1
    keys = list(zip(ranks, elements))
    if (
        len(ranks) != size
        or len(set(elements)) != size
        or any(k0 >= k1 for k0, k1 in zip(keys, keys[1:]))
        or (elements[0], elements[-1]) != (full, 0)
    ):
        raise InvariantViolation(f"{spec}: masks are not distinct, sorted, from F(1) to F(c)")
    if any(c0 >= c1 for c0, c1 in zip(covers, covers[1:])):
        raise InvariantViolation(f"{spec}: covers are not strictly sorted")
    # covers come sorted by a, so the down-set, the height and the number of
    # maximal chains of [1, a] are final before its covers pass them on
    down = [1 << i for i in range(size)]
    up_degree = [0] * size
    heights = [0] * size
    chains = [1] + [0] * (size - 1)
    for a, b in covers:
        deadline.check()
        if not (0 <= a < b < size and ranks[b] == ranks[a] + 1 and not elements[b] & ~elements[a]):
            raise InvariantViolation(f"{spec}: ({a}, {b}) is not a cover")
        down[b] |= down[a]
        up_degree[a] += 1
        if heights[b] <= heights[a]:
            heights[b] = heights[a] + 1
        chains[b] += chains[a]
    if up_degree != [f.bit_count() for f in elements]:
        raise InvariantViolation(f"{spec}: an element has the wrong number of upper covers")
    if list(ranks) != heights:
        raise InvariantViolation(f"{spec}: ranks are not the heights of the elements")
    if chains[-1] != forms.maximal_chains:
        raise InvariantViolation(
            f"{spec}: {chains[-1]} maximal chains, expected {forms.maximal_chains}"
        )
    if sum(d.bit_count() for d in down) != forms.intervals:
        raise InvariantViolation(f"{spec}: the pairs a <= b are not Z(3) in number")

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
    m = BivarPoly(rows)
    mobius = m.coeff(n, 0)
    if mobius != forms.mobius_number:
        raise InvariantViolation(f"{spec}: mu(1, c) = {mobius}, expected {forms.mobius_number}")
    if m.coeff(0, 0) != 1 or sum(m.subs_y(0)) != (size == 1):
        raise InvariantViolation(f"{spec}: the Moebius row breaks the defining sums")
    return NCLattice(
        spec=spec,
        coxeter_order=tuple(coxeter_order),
        elements=tuple(elements),
        ranks=tuple(ranks),
        covers=tuple(covers),
        m_triangle=m,
    )


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
            build_rep(spec, deadline=deadline), coxeter_order=key[1], deadline=deadline
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
    intervals: int


def invariant_formulas(spec) -> InvariantFormulas:
    """Closed-form Zeta polynomial, cardinality, Moebius number, number of
    maximal chains and number of intervals of [1, c].

    Z(X) is the product over all exponents of (h X - e + 1)/(e + 1); the
    cardinality is Z(2), the Moebius number is Z(-1) and the number of
    pairs a <= b is Z(3).  There are n! prod h_i^n_i / |W_i| maximal chains,
    with |W_i| the product of e + 1 over the exponents of component i.  All
    four must come out integral.
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
    card, mob, pairs = (sum(c * x**i for i, c in enumerate(zeta)) for x in (2, -1, 3))
    if any(v != int(v) for v in (card, mob, chains, pairs)):
        raise InvariantViolation(f"non-integral lattice invariants for {spec}")
    return InvariantFormulas(
        tuple(Fraction(c) for c in zeta), int(card), int(mob), int(chains), int(pairs)
    )
