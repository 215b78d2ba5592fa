"""Weyl groups over the integer reflection representation, and the
noncrossing partition lattice.

Group elements, reflections and Coxeter elements are plain ``Matrix``
tuples: n x n integer matrices acting on coordinates in the simple-root
basis, so every computation is exact.  The two workhorses:

  * reflection length ell_T(g) = rank(g - 1), the codimension of the fixed
    space (the fast equivalent of minimal reflection-word length for Weyl
    groups; the test suite validates it against a breadth-first word-length
    oracle on whole groups);
  * the subword characterization v <= w iff ell_T(v) + ell_T(v^-1 w) =
    ell_T(w), where ell_T(v^-1 w) = rank(w - v) because left-multiplying
    v^-1 w - 1 by the invertible v preserves rank.

The lattice is built by breadth-first search inside the interval [1, c]
only; the full group is never enumerated, which is what keeps the
exceptional types cheap.  An ``NCLattice`` keeps its elements, ranks and
Moebius table, and nothing else: the support of the Moebius table is the
order relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cartan import RootSystemSpec, as_spec, cartan_matrix, invariants, num_positive_roots
from .errors import Deadline, InvariantViolation, NO_DEADLINE, SpecError
from .poly import BivarPoly, uni_mul

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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_apply(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def int_rank(mat: Matrix) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in mat]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        pv = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * pv - f * pivot_row[c]) // prev
            row[col] = 0
        prev = pv
        rank += 1
    return rank


# --------------------------------------------------------------------------
# Group elements and the reflection representation
# --------------------------------------------------------------------------

def abs_length(m: Matrix) -> int:
    """Reflection length ell_T(m) = rank(m - 1), the codimension of the fixed space."""
    return int_rank(mat_sub(m, mat_identity(len(m))))


@dataclass(frozen=True)
class ReflectionRep:
    """Simple reflections, positive roots, and all reflections of W."""

    spec: RootSystemSpec
    n: int
    cartan: Matrix
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
    cartan = tuple(tuple(row) for row in cartan)

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
    return ReflectionRep(spec, n, cartan, simples, roots, reflections)


def node_order(n: int, ordering: Sequence[int] | None = None) -> tuple[int, ...]:
    """The node order (1-based) naming a Coxeter element; 1, ..., n by default."""
    order = tuple(range(1, n + 1)) if ordering is None else tuple(ordering)
    if sorted(order) != list(range(1, n + 1)):
        raise SpecError(f"{order!r} is not a permutation of 1..{n}")
    return order


def coxeter_element(rep: ReflectionRep, ordering: Sequence[int] | None = None) -> Matrix:
    """Product of all simple reflections in the given node order (1-based)."""
    m = mat_identity(rep.n)
    for i in node_order(rep.n, ordering):
        m = mat_mul(m, rep.simple_reflections[i - 1])
    if abs_length(m) != rep.n:
        raise InvariantViolation("Coxeter element does not have full reflection length")
    return m


# --------------------------------------------------------------------------
# The noncrossing partition lattice: interval [1, c] in absolute order
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NCLattice:
    """The interval [1, c], with ranks and Moebius table.

    ``elements`` are sorted by (rank, matrix), so index order refines rank
    order, element 0 is the identity and element -1 is c.  ``mobius_rows[a]``
    lists (b, mu(a, b)) for every b >= a in index order.  Its support is
    the up-set of a, so the rows carry the whole order relation, for fresh
    and cache-loaded lattices alike; a cover is an entry whose rank
    difference is 1.
    """

    spec: RootSystemSpec
    coxeter_order: tuple[int, ...]
    n: int
    elements: tuple[Matrix, ...]
    ranks: tuple[int, ...]
    mobius_rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def mobius(self, a: int, b: int) -> int:
        for idx, mu in self.mobius_rows[a]:
            if idx == b:
                return mu
        return 0

    @property
    def mobius_number(self) -> int:
        return self.mobius(0, len(self.elements) - 1)


def build_nc_lattice(
    rep: ReflectionRep,
    coxeter_order: Sequence[int] | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """Enumerate [1, c] by BFS, then fill the Moebius table.

    c is the Coxeter element of ``coxeter_order``.  Each frontier element a
    of reflection length k is extended by every reflection t; the product
    b = a*t is kept when its length is k+1 and it stays below c
    (rank(c - b) = n - k - 1).  Covers are recorded during the search, the
    up- and down-sets are their reflexive-transitive closure, and mu comes
    from the usual recursion mu(a, b) = -sum_{a <= z < b} mu(a, z).  Element
    order is canonical, so results are reproducible.
    """
    n = rep.n
    order = node_order(n, coxeter_order)
    c_mat = coxeter_element(rep, order)
    ident = mat_identity(n)

    seen: dict[Matrix, int] = {ident: 0}
    rejected: set[Matrix] = set()
    levels: list[list[Matrix]] = [[ident]]
    cover_mats: list[tuple[Matrix, Matrix]] = []

    for k in range(n):
        next_level: list[Matrix] = []
        for a in levels[k]:
            deadline.check()
            for t in rep.reflections:
                b = mat_mul(a, t)
                lvl = seen.get(b)
                if lvl == k + 1:
                    cover_mats.append((a, b))
                    continue
                if lvl is not None or b in rejected:
                    continue
                # abs_length(b), inlined in the hot loop
                lb = int_rank(mat_sub(b, ident))
                if lb == k - 1:
                    # b < a would already be enumerated; only possible at k = 0
                    raise InvariantViolation("length dropped to an unseen element")
                if lb != k + 1:
                    raise InvariantViolation("reflection changed length by more than 1")
                if int_rank(mat_sub(c_mat, b)) == n - k - 1:
                    seen[b] = k + 1
                    next_level.append(b)
                    cover_mats.append((a, b))
                else:
                    rejected.add(b)
        if not next_level:
            raise InvariantViolation(f"rank gap at level {k + 1} in [1, c] for {rep.spec}")
        levels.append(next_level)
    if levels[n] != [c_mat]:
        raise InvariantViolation("top level of [1, c] is not exactly {c}")

    mats: list[Matrix] = []
    ranks: list[int] = []
    for k, level in enumerate(levels):
        for m in sorted(level):
            mats.append(m)
            ranks.append(k)
    index = {m: i for i, m in enumerate(mats)}
    covers = sorted((index[a], index[b]) for a, b in set(cover_mats))
    # bitmasks of the up- and down-sets; every cover (a, b) has a < b, so
    # one pass each way closes them
    up = [1 << i for i in range(len(mats))]
    down = up[:]
    for a, b in reversed(covers):
        up[a] |= up[b]
    for a, b in covers:
        down[b] |= down[a]

    # mu(a, b) = -sum of mu(a, z) over a <= z < b; the up/down mask
    # intersection walks exactly the interval [a, b]
    mobius_rows = []
    for a in range(len(mats)):
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

    return NCLattice(
        spec=rep.spec,
        coxeter_order=order,
        n=n,
        elements=tuple(mats),
        ranks=tuple(ranks),
        mobius_rows=tuple(mobius_rows),
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
    zeta = (Fraction(1),)
    for t in spec.components:
        inv = invariants(t)
        h = inv.coxeter_number
        for e in inv.exponents:
            zeta = uni_mul(zeta, (Fraction(1 - e, e + 1), Fraction(h, e + 1)))
    card = sum(c * 2**i for i, c in enumerate(zeta))
    mob = sum(c * (-1) ** i for i, c in enumerate(zeta))
    if card != int(card) or mob != int(mob):
        raise InvariantViolation(f"non-integral lattice invariants for {spec}")
    return InvariantFormulas(tuple(Fraction(c) for c in zeta), int(card), int(mob))
