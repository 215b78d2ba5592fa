"""Weyl groups over the integer reflection representation, and the
noncrossing partition lattice.

Vectors are integer tuples, so every computation is exact, and no group
element is ever a matrix.  Every reflection t is its root beta_t, in the
simple-root basis, and its coroot gamma_t, in the simple-coroot basis, so
that t v = v - (gamma_t^T A v) beta_t, with A the Cartan matrix.

The lattice is the interval [1, c] in absolute order, enumerated level by
level and never via the full group, which is what keeps the exceptional
types cheap.  Each element a is named, and only named, by the bitmask F(a)
of the reflections t whose vector u_t = (1 - c)^-1 beta_t it fixes.  These
are exactly the t with t*a covering a inside [1, c]: t <= c a^-1 iff beta_t
lies in Mov(c a^-1) = (1 - c) Fix(a) (Brady-Watt 2002, Bessis 2003).  The
Coxeter element c = s_o1 ... s_on is never formed: the Euler form E_c, A
above the diagonal in node order, 1 on it and 0 below, has
E_c (1 - c) = A, as 1 - c = sum_k s_o1 ... s_o(k-1) (1 - s_ok) and E_c
maps s_o1 ... s_o(k-1) e_ok to e_ok.  As det E_c = 1, 1 - c is invertible,
and s fixes u_t iff the integer gamma_s^T E_c beta_t is 0.  A
child's mask is its parent's AND a precomputed mask of t, so the search
needs no rank test and every candidate is a cover; the tests check the
masks against whole-group enumeration and the rank test rank(g - 1).  The
masks are the order: a <= b iff F(b) is a subset of F(a).  The search
yields [1, c] as its levels, the sorted masks of each rank, and hands them
to ``lattice_from_masks``, the one constructor of ``NCLattice``: no mask
read from disk reaches it.  It checks that the levels are the heights of
the order the masks give, and that order against the closed forms, before
it derives M.  A lattice keeps those levels and M, and nothing else; its
``elements`` and ``ranks`` are views rebuilt on each read, kept for the
lattice file and the benchmark's tracer.  M needs only the first Moebius
row mu(1, .): every interval [a, b] of [1, c] is isomorphic to [1, a^-1 b],
so mu(a, b) is a value of that row, and one pass over the down-sets
derives the row and M together.
"""

from __future__ import annotations

from math import factorial
from operator import mul
from typing import NamedTuple, Sequence

from .cartan import RootSystemSpec, cartan_matrix, invariants, num_positive_roots
from .errors import Deadline, InvariantViolation, NO_DEADLINE, SpecError
from .poly import Triangle, exact_div


# --------------------------------------------------------------------------
# Roots and coroots
# --------------------------------------------------------------------------

class ReflectionRep(NamedTuple):
    """Each reflection t as its positive root beta_t, in simple-root
    coordinates, and its coroot gamma_t = beta_t^vee, in simple-coroot
    coordinates, in one order: <v, beta_t^vee> = gamma_t^T A v, with A the
    Cartan matrix, t v = v - <v, beta_t^vee> beta_t, and alpha_i and its
    coroot are both e_i."""

    spec: RootSystemSpec
    positive_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.spec.rank


def _cartan(spec: RootSystemSpec) -> list[list[int]]:
    """The Cartan matrix of ``spec``, block-diagonal over its components."""
    cartan = [[0] * spec.rank for _ in range(spec.rank)]
    offset = 0
    for t in spec.components:
        for i, row in enumerate(cartan_matrix(t)):
            cartan[offset + i][offset : offset + t.rank] = row
        offset += t.rank
    return cartan


def build_rep(spec: RootSystemSpec, deadline: Deadline = NO_DEADLINE) -> ReflectionRep:
    """Build the reflection representation for a (possibly reducible) spec.

    Positive roots are enumerated by orbit closure under the simple
    reflections, each root with its coroot: s_i moves a root v to
    v - (A v)_i e_i and a coroot gamma to gamma - (A^T gamma)_i e_i.  A root
    of a finite root system has no coordinates of both signs (Bourbaki, *Lie
    Groups*, ch. VI, 1.6), so an image with none positive is negated; the
    root count refuses a wrong Cartan matrix.  The closure checks
    ``deadline`` once per root.
    """
    n = spec.rank
    cartan = _cartan(spec)
    columns = list(zip(*cartan))

    # orbit closure: root -> coroot; only alpha_i leaves the positive roots
    # under s_i, so no new root is negated
    units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    coroot_of = dict(zip(units, units))
    frontier = list(coroot_of.items())
    while frontier:
        fresh = []
        for v, gamma in frontier:
            deadline.check()
            for i, (row, column) in enumerate(zip(cartan, columns)):
                w = list(v)
                w[i] -= sum(map(mul, row, v))
                if all(c <= 0 for c in w):
                    w = [-c for c in w]
                w = tuple(w)
                if w not in coroot_of:
                    step = sum(map(mul, column, gamma))
                    coroot_of[w] = delta = tuple(g - step * (j == i) for j, g in enumerate(gamma))
                    fresh.append((w, delta))
        frontier = fresh

    expected = sum(num_positive_roots(t) for t in spec.components)
    if len(coroot_of) != expected:
        raise InvariantViolation(
            f"{spec}: found {len(coroot_of)} positive roots, expected {expected}"
        )
    roots = tuple(sorted(coroot_of, key=lambda v: (sum(v), v)))
    return ReflectionRep(spec, roots, tuple(coroot_of[v] for v in roots))


def node_order(n: int, ordering: Sequence[int] | None = None) -> tuple[int, ...]:
    """The node order (1-based) naming a Coxeter element; 1, ..., n by default."""
    order = tuple(range(1, n + 1)) if ordering is None else tuple(ordering)
    if sorted(order) != list(range(1, n + 1)):
        raise SpecError(f"Coxeter order {','.join(map(str, order))} is not a permutation of 1..{n}")
    return order


# --------------------------------------------------------------------------
# The noncrossing partition lattice: interval [1, c] in absolute order
# --------------------------------------------------------------------------

class NCLattice(NamedTuple):
    """The interval [1, c], as its levels, and the M-triangle.

    ``levels[r]`` holds the sorted masks F(a) of rank r, as the search
    yields them: level 0 is the identity (every bit set), level n is c
    (mask 0).  The masks carry the whole order relation: a <= b iff F(b)
    lies inside F(a).  ``m_triangle`` is M(x, y) = sum over a <= b of
    mu(a, b) x^rank(b) y^rank(a), as n+1 int tuples of n+1 entries:
    ``m_triangle[i][j]`` is the coefficient of x^i y^j, and the y^0 column
    holds the sums of mu(1, b) by rank.  The rank n is the rank of
    ``spec``.  A plain named tuple: no instance ``__dict__``, and every
    derived value is computed on each read, ``elements`` (the levels laid
    end to end, so index order refines rank order) and ``ranks`` (the level
    index of each) too.  Those two stay for the lattice file and the
    benchmark's tracer; a loop binds them once.
    """

    spec: RootSystemSpec
    coxeter_order: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]
    m_triangle: Triangle

    @property
    def n(self) -> int:
        return self.spec.rank

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(f for level in self.levels for f in level)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r for r, level in enumerate(self.levels) for _ in level)

    @property
    def cardinality(self) -> int:
        return sum(map(len, self.levels))

    @property
    def mobius_number(self) -> int:
        """mu(1, c), the coefficient of x^n y^0 in M: c is the one element
        of rank n."""
        return self.m_triangle[self.n][0]

    @property
    def mobius_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The whole Moebius table: row a lists (b, mu(a, b)) for every
        b >= a in index order, computed anew on each read.  No library path
        reads it; it stays only for the perfbench tracer, and a test pins it
        to ``mobius_table`` in ``tests/oracles.py``, whose order relation is
        derived by code of its own."""
        elements, everyone = self.elements, (1 << self.cardinality) - 1
        holders = _holders(elements)
        down = [_in_all(holders, f, everyone) for f in elements]
        # b >= a iff F(b) lacks every bit that F(a) lacks
        lackers = [everyone & ~h for h in holders]
        up = [_in_all(lackers, elements[0] & ~f, everyone) for f in elements]
        # mu(a, b) = -sum of mu(a, z) over a <= z < b; the up/down mask
        # intersection walks exactly the interval [a, b]
        mobius_rows = []
        for ua in up:
            row = {}
            for b in _mask_indices(ua):
                row[b] = -sum(row[z] for z in _mask_indices(ua & down[b] & ~(1 << b))) if row else 1
            mobius_rows.append(tuple(row.items()))
        return tuple(mobius_rows)


def build_nc_lattice(
    rep: ReflectionRep,
    coxeter_order: Sequence[int] | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """Enumerate [1, c] level by level, then derive the M-triangle.

    c = s_o1 ... s_on is the Coxeter element of ``coxeter_order``, and F(a)
    is the bitmask of the t with a u_t = u_t, u_t = (1 - c)^-1 beta_t: F(1)
    has every bit and F(c) none.  c is never formed: s fixes u_t iff
    gamma_s^T E_c beta_t is 0, with E_c the Euler form of the module
    docstring.  Fix(t a) = Fix(t) & Fix(a) gives F(t a) = F(a) & F(t), and F
    is injective on [1, c], so the covers of a are the t*a for t in F(a) and
    the mask names the element.  Level r holds the masks of rank r, sorted,
    so results are reproducible.  The levels go to ``lattice_from_masks``
    as they are, and the lattice keeps them; it passes every check made
    there or the build raises InvariantViolation.
    """
    n = rep.n
    order = node_order(n, coxeter_order)
    position = {node - 1: k for k, node in enumerate(order)}
    euler = [
        [x if position[a] < position[b] else int(a == b) for b, x in enumerate(row)]
        for a, row in enumerate(_cartan(rep.spec))
    ]
    images = []
    for beta in rep.positive_roots:
        deadline.check()
        images.append([sum(map(mul, row, beta)) for row in euler])
    z_masks = []
    for gamma in rep.coroots:
        deadline.check()
        z_masks.append(sum(1 << i for i, v in enumerate(images) if not sum(map(mul, gamma, v))))

    # an element has one rank, so a level dedupes against itself alone
    levels = [((1 << len(images)) - 1,)]
    for _ in range(n):
        level = set()
        for f in levels[-1]:
            deadline.check()
            g = f
            while g:
                low = g & -g
                level.add(f & z_masks[low.bit_length() - 1])
                g ^= low
        levels.append(tuple(sorted(level)))
    return lattice_from_masks(rep.spec, order, levels, deadline)


def lattice_from_masks(
    spec: RootSystemSpec,
    coxeter_order: Sequence[int],
    levels: Sequence[Sequence[int]],
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """The lattice whose elements of rank r are the masks in ``levels[r]``,
    and the M-triangle they give; the one constructor of ``NCLattice``,
    called by the search alone, which hands it its levels: [F(1)], F(1)
    with every bit set, then the distinct masks of each rank in increasing
    order, up to [F(c)] = [0].  The lattice keeps them, as tuples, and M:
    an element's rank is the index of its level, and its index its place in
    the levels laid end to end.  Raises InvariantViolation unless the
    levels are the heights of the order the masks give and that order
    agrees with ``invariant_formulas(spec)``.

    a <= b iff F(b) is a subset of F(a), so the down-set of b is the AND,
    over the t in F(b), of the elements whose mask has bit t.  |L| must be
    the closed form, checked before the holders of a bit are made.  The
    levels must be the heights: there are n + 1 of them, nothing in b's
    level or a later one but b lies below b, and each b but the first lies
    above an element of the level before.  So 1, first by position, is alone
    in level 0.  The lower covers summed over b must number the bits
    of the masks, one upper cover of a per t in F(a); the maximal chains,
    the pairs a <= b and mu(1, c) must be the closed forms.  The row
    mu(1, .) needs no check: 1 is alone at rank 0, and F(c) = 0 puts every
    element below c, so mu(1, 1) = 1 and the row sums to 0 unless c = 1.

    [a, b] is isomorphic to [1, a^-1 b], and a -> a^-1 b is a bijection of
    [1, b] (Bessis 2003; Armstrong 2009), so the x^rank(b) row of M is the
    sum over w <= b of mu(1, w) y^(rank b - rank w), and mu(1, b) = -sum of
    mu(1, w) over w < b.  One map of buckets, filled a level at a time,
    keys the indices w by (rank, mu(1, w), maximal chains of [1, w]); a
    bucket is the bitmask of the indices with its key.  Index order refines
    rank order, so at b's turn the finished levels hold exactly the w of
    lower rank: the popcounts of the down-set of b against their buckets
    give the y-terms of its row and mu(1, b), and the buckets one rank down
    give the chains of [1, b] and its lower covers.  A level sees only the
    buckets of the levels before it, as nothing of b's rank but b lies
    below b.  Both mu(1, w) and the chains depend only on the type of
    [1, w], so the chains seldom split a bucket of one rank and mu, and the
    older levels need no tier keyed by (rank, mu) alone: counted per
    element, that tier saves no visit on A1-A10, D4-D9 and E6-E8, and at
    most 0.2% on B7-B9 and D10, where two types such as A3xA2 and B3xA1xA1
    share rank 5 and mu = -10.  Each down-set is dropped after use.
    """
    n = spec.rank
    levels = tuple(map(tuple, levels))
    size = sum(map(len, levels))
    forms = invariant_formulas(spec)
    if size != forms.cardinality:
        raise InvariantViolation(f"{spec}: |L| = {size}, expected {forms.cardinality}")
    heights = InvariantViolation(f"{spec}: the levels are not the heights of the elements")
    if len(levels) != n + 1:
        raise heights
    holders = _holders([f for level in levels for f in level], deadline)
    everyone = (1 << size) - 1

    rows = [[0] * (n + 1) for _ in range(n + 1)]
    buckets: dict[tuple[int, int, int], int] = {}
    pairs = lower_covers = previous = start = 0
    for rank, (level, row) in enumerate(zip(levels, rows)):
        # a level visits the buckets of the levels before it alone; the
        # level before starts at index previous, this one at start
        finished, earlier = list(buckets.items()), (1 << start) - 1
        for b, f in enumerate(level, start):
            deadline.check()
            down = _in_all(holders, f, everyone)
            below, bit = down & earlier, 1 << b
            if down ^ below != bit or b and not (rank and below >> previous):
                raise heights
            pairs += down.bit_count()
            total = chains = 0
            for (r, v, ch), mask in finished:
                count = (mask & below).bit_count()
                if count:
                    row[rank - r] += v * count
                    total += v * count
                    if r == rank - 1:
                        chains += ch * count
                        lower_covers += count
            mu, chains = (-total, chains) if b else (1, 1)
            row[0] += mu
            key = rank, mu, chains
            buckets[key] = buckets.get(key, 0) | bit
        previous, start = start, start + len(level)
    if lower_covers != sum(f.bit_count() for level in levels for f in level):
        raise InvariantViolation(f"{spec}: the covers do not number the bits of the masks")
    if chains != forms.maximal_chains:
        raise InvariantViolation(f"{spec}: {chains} maximal chains, expected {forms.maximal_chains}")
    if pairs != forms.intervals:
        raise InvariantViolation(f"{spec}: the pairs a <= b are not Z(3) in number")
    m = tuple(map(tuple, rows))
    mobius = m[n][0]
    if mobius != forms.mobius_number:
        raise InvariantViolation(f"{spec}: mu(1, c) = {mobius}, expected {forms.mobius_number}")
    return NCLattice(spec, tuple(coxeter_order), levels, m)


def _holders(elements: Sequence[int], deadline: Deadline = NO_DEADLINE) -> list[int]:
    """For each reflection t, the bitmask of the indices of the elements
    whose mask has bit t; ``elements[0]`` has all ``roots`` bits.  Each mask
    is written once, as ``roots`` binary digits, into one digit string, last
    index first, and every ``roots``-th digit of it, from the digit of bit t
    on, is the binary form of t's bitmask; checks ``deadline`` once per
    element."""
    roots = elements[0].bit_length()
    width = f"0{roots}b"
    digits = bytearray(len(elements) * roots)
    end = len(digits)
    for f in elements:
        deadline.check()
        digits[end - roots : end] = format(f, width).encode()
        end -= roots
    # a caller's temporary list is freed before the holders are made
    del elements
    return [int(digits[k::roots], 2) for k in reversed(range(roots))]


def _in_all(holders: list[int], f: int, everyone: int) -> int:
    """The indices in ``everyone`` and in ``holders[t]`` for every bit t of
    f: with ``everyone`` all of L, the down-set of the element of mask f."""
    while f:
        low = f & -f
        everyone &= holders[low.bit_length() - 1]
        f ^= low
    return everyone


def _mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# in-process memo; lattices are immutable so sharing is safe
_LATTICE_MEMO: dict[tuple[RootSystemSpec, tuple[int, ...]], NCLattice] = {}


def nc_lattice(spec: RootSystemSpec, coxeter_order=None, deadline: Deadline = NO_DEADLINE) -> NCLattice:
    """Memoized lattice builder keyed on (canonical spec, node order)."""
    key = (spec, node_order(spec.rank, coxeter_order))
    if key not in _LATTICE_MEMO:
        _LATTICE_MEMO[key] = build_nc_lattice(
            build_rep(spec, deadline=deadline), coxeter_order=key[1], deadline=deadline
        )
    return _LATTICE_MEMO[key]


# --------------------------------------------------------------------------
# Closed forms: Zeta polynomial
# --------------------------------------------------------------------------

class InvariantFormulas(NamedTuple):
    zeta: tuple[int, ...]
    group_order: int
    cardinality: int
    mobius_number: int
    maximal_chains: int
    intervals: int


def invariant_formulas(spec: RootSystemSpec) -> InvariantFormulas:
    """Closed-form Zeta polynomial, cardinality, Moebius number, number of
    maximal chains and number of intervals of [1, c].

    |W| Z(X) is the product over all exponents of (h X - e + 1), with |W|
    the product of the e + 1; ``zeta`` holds its integer coefficients and
    ``group_order`` holds |W|.  The cardinality is Z(2), the Moebius number
    is Z(-1) and the number of pairs a <= b is Z(3).  There are
    n! prod h_i^n_i / |W| maximal chains.  All four are exact divisions.
    Z is multiplicative over products, and the chains of a product are
    shuffles of the chains of its components.
    """
    zeta, order, chains = (1,), 1, factorial(spec.rank)
    for t in spec.components:
        inv = invariants(t)
        h = inv.coxeter_number
        for e in inv.exponents:
            zeta = tuple(a * (1 - e) + b * h for a, b in zip(zeta + (0,), (0,) + zeta))
            order *= e + 1
            chains *= h
    card, mob, pairs = (
        exact_div(sum(c * x**i for i, c in enumerate(zeta)), order) for x in (2, -1, 3)
    )
    return InvariantFormulas(zeta, order, card, mob, exact_div(chains, order), pairs)
