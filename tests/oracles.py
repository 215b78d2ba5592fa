"""Reference implementations that the tests compare the library against.

None of this is on a CLI path.  Each function is written independently of
the code it checks: exact integer matrices, the reflection length
rank(g - 1) by Bareiss elimination, the Cartan matrix of a product
assembled block by block, the reflection matrices (the simple
ones and the Coxeter element among them) rebuilt from root and coroot,
whole-group enumeration and breadth-first word length to check it, the
pairwise rank test for the absolute order, the interval [1, c] cut from the
whole group with each element's matrix under its mask, the covers by subset
tests on the masks and the maximal chains counted from them, the order
closed over those covers and the whole Moebius table on it, the M-triangle
summed over that table, multichain counting for the Zeta polynomial, the
F-triangle counted on the cluster complex, closed forms for the A and B
F-triangles and the type D h-vector, and the second change of variables for the reflection
symmetry.  Triangle helpers that only tests need live here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from fmtri.cartan import RootSystemSpec, cartan_matrix
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import _validate_triangle
from fmtri.poly import Triangle, conjecture_substitution
from fmtri.weyl import InvariantFormulas, NCLattice, ReflectionRep

Matrix = tuple[tuple[int, ...], ...]

# --------------------------------------------------------------------------
# Exact integer matrices, and the reflection length rank(g - 1)
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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def abs_length(m: Matrix) -> int:
    """Reflection length ell_T(m) = rank(m - 1), the codimension of the fixed space."""
    return int_rank(mat_sub(m, mat_identity(len(m))))


# --------------------------------------------------------------------------
# Weyl groups and the absolute order
# --------------------------------------------------------------------------


def cartan(spec: RootSystemSpec) -> Matrix:
    """The Cartan matrix of ``spec``: the blocks of its components on the
    diagonal, zero elsewhere."""
    rows = [[0] * spec.rank for _ in range(spec.rank)]
    offset = 0
    for t in spec.components:
        for i, row in enumerate(cartan_matrix(t)):
            rows[offset + i][offset : offset + t.rank] = row
        offset += t.rank
    return tuple(map(tuple, rows))


def reflections(rep: ReflectionRep) -> tuple[Matrix, ...]:
    """The reflection matrices t = 1 - beta_t phi_t, rebuilt from the roots
    and coroots, in the order of ``rep.positive_roots``: the coroot gamma_t
    is in simple-coroot coordinates, so the functional <., beta_t^vee> is
    phi_t = gamma_t^T A, with A the Cartan matrix."""
    ident, cartan_t = mat_identity(rep.n), tuple(zip(*cartan(rep.spec)))
    phis = [mat_apply(cartan_t, gamma) for gamma in rep.coroots]
    return tuple(
        tuple(tuple(e - b * p for e, p in zip(row, phi)) for row, b in zip(ident, beta))
        for beta, phi in zip(rep.positive_roots, phis)
    )


def simple_reflections(rep: ReflectionRep) -> tuple[Matrix, ...]:
    """The matrices of s_1, ..., s_n: the reflections whose roots are the
    unit vectors."""
    by_root = dict(zip(rep.positive_roots, reflections(rep)))
    return tuple(by_root[row] for row in mat_identity(rep.n))


def coxeter_element(rep: ReflectionRep, order: Sequence[int] | None = None) -> Matrix:
    """The matrix of s_o1 ... s_on for the node order o (1-based), 1, ..., n
    by default."""
    simples = simple_reflections(rep)
    c = mat_identity(rep.n)
    for i in range(1, rep.n + 1) if order is None else order:
        c = mat_mul(c, simples[i - 1])
    return c


def whole_group(rep: ReflectionRep) -> set[Matrix]:
    """Every element of W, by closure under the simple reflections."""
    simples = simple_reflections(rep)
    frontier = [mat_identity(rep.n)]
    group = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for m in simples:
                b = mat_mul(a, m)
                if b not in group:
                    group.add(b)
                    nxt.append(b)
        frontier = nxt
    return group


def reflection_word_length(rep: ReflectionRep, g: Matrix) -> int:
    """Breadth-first word length over all reflections."""
    if g == mat_identity(rep.n):
        return 0
    seen = {mat_identity(rep.n)}
    frontier = list(seen)
    ts = reflections(rep)
    dist = 0
    while frontier:
        dist += 1
        fresh = []
        for a in frontier:
            for t in ts:
                b = mat_mul(a, t)
                if b == g:
                    return dist
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    raise InvariantViolation("element not reachable from identity")


def absolute_leq(rep: ReflectionRep, v: Matrix, w: Matrix) -> bool:
    """v <= w in absolute order (lengths add along v, v^-1 w)."""
    lv, lw = abs_length(v), abs_length(w)
    return lv <= lw and int_rank(mat_sub(w, v)) == lw - lv


def solve(a: Matrix, b: Sequence[int]) -> tuple[Fraction, ...]:
    """The solution x of a x = b for an invertible ``a``, by Gauss-Jordan
    elimination over Fractions."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = [x / rows[col][col] for x in rows[col]]
        rows[col] = pivot_row
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot_row)]
    return tuple(row[n] for row in rows)


def interval_by_mask(rep: ReflectionRep, c: Matrix) -> dict[int, Matrix]:
    """The interval [1, c] cut from the whole group by ``absolute_leq``,
    keyed by F(w): bit i is set iff w fixes u_i, the solution of
    (1 - c) u = beta_i for the i-th positive root.  Raises InvariantViolation
    if two elements share a mask."""
    one_minus_c = mat_sub(mat_identity(rep.n), c)
    us = [solve(one_minus_c, beta) for beta in rep.positive_roots]
    interval = [w for w in whole_group(rep) if absolute_leq(rep, w, c)]
    by_mask = {
        sum(1 << i for i, u in enumerate(us) if mat_apply(w, u) == u): w for w in interval
    }
    if len(by_mask) != len(interval):
        raise InvariantViolation("F is not injective on [1, c]")
    return by_mask


def m_triangle_from_table(lat: NCLattice, table) -> Triangle:
    """M(x, y) = sum over a <= b of mu(a, b) x^rank(b) y^rank(a), read off
    ``table``, the whole Moebius table of ``lat`` (``mobius_table``), as a
    rank-n triangle."""
    rows = [[0] * (lat.n + 1) for _ in range(lat.n + 1)]
    ranks = lat.ranks
    for a, row in enumerate(table):
        for b, mu in row:
            rows[ranks[b]][ranks[a]] += mu
    return tuple(map(tuple, rows))


def zeta_bruteforce(lat: NCLattice, m: int) -> int:
    """Number of multichains a_1 <= ... <= a_(m-1); Z(1) = 1, Z(2) = |L|."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    down: list[list[int]] = [[] for _ in range(lat.cardinality)]
    for a, row in enumerate(mobius_table(lat)):
        for b, _ in row:
            down[b].append(a)
    weights = [1] * lat.cardinality
    for _ in range(m - 2):
        weights = [sum(weights[a] for a in below) for below in down]
    return sum(weights)


def covers(lat: NCLattice) -> list[tuple[int, int]]:
    """The pairs (a, b) with rank b = rank a + 1 and F(b) a proper subset of
    F(a), sorted: a <= b iff F(b) lies inside F(a), tested on the masks
    alone.  The candidates for a below b are the elements one rank down
    that have every bit of F(b), found by intersecting one set per bit."""
    by_rank: dict[int, set[int]] = {}
    having: dict[tuple[int, int], set[int]] = {}
    elements, ranks = lat.elements, lat.ranks
    for a, (f, r) in enumerate(zip(elements, ranks)):
        by_rank.setdefault(r, set()).add(a)
        for t in _bits(f):
            having.setdefault((r, t), set()).add(a)
    pairs = []
    for b, (f, r) in enumerate(zip(elements, ranks)):
        sets = [by_rank.get(r - 1, set())] + [having.get((r - 1, t), set()) for t in _bits(f)]
        sets.sort(key=len)
        pairs += [(a, b) for a in sets[0].intersection(*sets[1:]) if elements[a] != f]
    return sorted(pairs)


def _bits(f: int) -> list[int]:
    out = []
    while f:
        low = f & -f
        out.append(low.bit_length() - 1)
        f ^= low
    return out


def mobius_table(lat: NCLattice) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The whole Moebius table: row a lists (b, mu(a, b)) for every b >= a
    in index order.  The order is the closure of ``covers``: [1, c] is
    graded, so a <= b iff a chain of covers leads from a to b.  The down-set
    of b is b and the down-sets of its lower covers, and the up-set of a is
    a and the up-sets of its upper covers, each as a bitmask of indices;
    mu(a, b) = -sum of mu(a, z) over a <= z < b."""
    size = lat.cardinality
    below: list[list[int]] = [[] for _ in range(size)]
    above: list[list[int]] = [[] for _ in range(size)]
    for a, b in covers(lat):
        below[b].append(a)
        above[a].append(b)
    down, up = [0] * size, [0] * size
    for b in range(size):
        for a in below[b]:
            down[b] |= down[a]
        down[b] |= 1 << b
    for a in reversed(range(size)):
        for b in above[a]:
            up[a] |= up[b]
        up[a] |= 1 << a
    table = []
    for a, ua in enumerate(up):
        mu: dict[int, int] = {}
        for b in _bits(ua):
            mu[b] = 1 if b == a else -sum(mu[z] for z in _bits(ua & down[b] & ~(1 << b)))
        table.append(tuple(mu.items()))
    return tuple(table)


def maximal_chains(lat: NCLattice) -> int:
    """Number of maximal chains 1 = a_0 < ... < a_n = c, counted down from c:
    each a has as many chains to c as its upper covers have together."""
    above: list[list[int]] = [[] for _ in range(lat.cardinality)]
    for a, b in covers(lat):
        above[a].append(b)
    to_top = [0] * lat.cardinality
    to_top[-1] = 1
    for a in reversed(range(lat.cardinality - 1)):
        to_top[a] = sum(to_top[b] for b in above[a])
    return to_top[0]


# --------------------------------------------------------------------------
# Closed forms (types A and B, and the h-vector of type D)
# --------------------------------------------------------------------------


def closed_form_A(n: int) -> Triangle:
    """The rank-n triangle f_{k,l} = (l+1)/(k+l+1) * C(n, k+l) * C(n+k, n)."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            c = Fraction(l + 1, k + l + 1) * comb(n, k + l) * comb(n + k, n)
            if c.denominator != 1:
                raise InvariantViolation(f"closed_form_A({n}) entry ({k},{l}) = {c}")
            rows[k][l] = int(c)
    return _validate_triangle(tuple(map(tuple, rows)), f"closed_form_A({n})")


def closed_form_B(n: int) -> Triangle:
    """The rank-n triangle f_{k,l} = C(n, k+l) * C(n+k-1, n-1)."""
    if n < 2:
        raise ValueError("rank must be >= 2 (B1 is A1)")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            rows[k][l] = comb(n, k + l) * comb(n + k - 1, n - 1)
    return _validate_triangle(tuple(map(tuple, rows)), f"closed_form_B({n})")


def closed_f_vector_A(n: int) -> tuple[int, ...]:
    """f_k = 1/(k+1) * C(n, k) * C(n+k+2, k)."""
    out = []
    for k in range(n + 1):
        c = Fraction(1, k + 1) * comb(n, k) * comb(n + k + 2, k)
        if c.denominator != 1:
            raise InvariantViolation(f"closed_f_vector_A({n}) entry {k} = {c}")
        out.append(int(c))
    return tuple(out)


def closed_f_vector_B(n: int) -> tuple[int, ...]:
    """f_k = C(n, k) * C(n+k, k)."""
    return tuple(comb(n, k) * comb(n + k, k) for k in range(n + 1))


def closed_h_vector_D(n: int) -> tuple[int, ...]:
    """The Narayana numbers of type D: h_k = C(n, k)^2 - n/(n-1) * C(n-1, k) * C(n-1, k-1)."""
    if n < 4:
        raise ValueError("rank must be >= 4 (D3 is A3)")
    out = [1]
    for k in range(1, n + 1):
        c = comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k) * comb(n - 1, k - 1)
        if c.denominator != 1:
            raise InvariantViolation(f"closed_h_vector_D({n}) entry {k} = {c}")
        out.append(int(c))
    return tuple(out)


# --------------------------------------------------------------------------
# The cluster complex (every type)
# --------------------------------------------------------------------------


def cluster_f_triangle(rep: ReflectionRep) -> Triangle:
    """The F-triangle counted on the cluster complex (Fomin-Zelevinsky,
    *Y-systems and generalized associahedra*, Ann. Math. 2003), as a rank-n
    triangle: its faces are the sets of pairwise compatible roots of
    Phi>=-1, and f_kl counts the faces with k positive roots and l negated
    simple roots.

    The Dynkin graph is coloured in two, I+ and I-.  tau_e fixes -alpha_i
    for i not in I_e and applies the product of the s_i, i in I_e, to every
    other root; both are permutations of Phi>=-1.  The compatibility degree
    is invariant under them and (-alpha_i || beta) = [beta : alpha_i]_+,
    and every orbit meets -Pi, so (alpha || beta) is read off after tau+
    and tau- are applied alternately to both roots until alpha is a negated
    simple root.  Compatible means degree 0.
    """
    n, simples = rep.n, simple_reflections(rep)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # i and j are joined in the Dynkin graph iff s_i moves alpha_j
    colour: list[int | None] = [None] * n
    for start in range(n):
        if colour[start] is not None:
            continue
        colour[start], stack = 0, [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or mat_apply(simples[i], unit[j]) == unit[j]:
                    continue
                if colour[j] == colour[i]:
                    raise InvariantViolation("the Dynkin graph is not bipartite")
                if colour[j] is None:
                    colour[j] = 1 - colour[i]
                    stack.append(j)

    positive = len(rep.positive_roots)
    roots = list(rep.positive_roots) + [tuple(-x for x in e) for e in unit]
    index = {r: k for k, r in enumerate(roots)}

    def tau(side: int) -> list[int]:
        perm = []
        for k, r in enumerate(roots):
            if k < positive or colour[k - positive] == side:
                for i in range(n):
                    if colour[i] == side:
                        r = mat_apply(simples[i], r)
            perm.append(index[r])
        return perm

    taus = (tau(0), tau(1))
    size = len(roots)
    compatible = []
    for a in range(size):
        images = list(range(size))
        for step in range(2 * size + 1):
            if images[a] >= positive:
                break
            t = taus[step % 2]
            images = [t[x] for x in images]
        else:
            raise InvariantViolation(f"the tau-orbit of {roots[a]} misses -Pi")
        i = images[a] - positive
        compatible.append(
            sum(1 << b for b in range(size) if b != a and roots[images[b]][i] <= 0)
        )
    for a in range(size):
        for b in range(size):
            if (compatible[a] >> b & 1) != (compatible[b] >> a & 1):
                raise InvariantViolation(
                    f"compatibility of {roots[a]} and {roots[b]} is not symmetric"
                )

    counts = [[0] * (n + 1) for _ in range(n + 1)]

    def grow(candidates: int, k: int, l: int) -> None:
        counts[k][l] += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            b = low.bit_length() - 1
            if b < positive:
                grow(candidates & compatible[b], k + 1, l)
            else:
                grow(candidates & compatible[b], k, l + 1)

    grow((1 << size) - 1, 0, 0)
    return tuple(map(tuple, counts))


# --------------------------------------------------------------------------
# The second change of variables
# --------------------------------------------------------------------------


def alternative_substitution(p: Triangle) -> Triangle:
    """Expand ``(y-1)^n p((x+1)/(y-1), 1/(y-1))`` as a rank-n triangle, n
    read from the rows.

    Same termwise denominator clearing as ``conjecture_substitution``: each
    monomial contributes ``c * (x+1)^k * (y-1)^(n-k-l)``.
    """
    n = len(p) - 1
    if total_degree(p) > n:
        raise ValueError(f"total degree {total_degree(p)} exceeds the rank {n}")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in terms(p):
        m = n - k - l
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(m + 1):
                cb = comb(m, b) if (m - b) % 2 == 0 else -comb(m, b)
                rows[a][b] += c * ca * cb
    return tuple(map(tuple, rows))


def alternative_form_check(ft: Triangle) -> bool:
    """The rewriting (y-1)^n F((x+1)/(y-1), 1/(y-1)) of a rank-n triangle
    must give the same polynomial; this is the reflection symmetry of the
    triangle in disguise."""
    return alternative_substitution(ft) == conjecture_substitution(ft)


# --------------------------------------------------------------------------
# Triangle helpers: a rank-n triangle is n+1 int tuples of n+1 entries,
# ``t[k][l]`` the coefficient of x^k y^l
# --------------------------------------------------------------------------


def monomial(n: int, k: int, l: int, c=1) -> Triangle:
    """c x^k y^l as a triangle of rank n."""
    return poly_from_terms(n, (k, l, c))


def poly_from_terms(n: int, *terms) -> Triangle:
    """The rank-n triangle with the coefficients (k, l, c) of ``terms``,
    a repeated (k, l) adding up."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in terms:
        rows[k][l] += c
    return tuple(map(tuple, rows))


def terms(p: Triangle):
    """(k, l, c) for each nonzero coefficient of p."""
    return [(k, l, c) for k, row in enumerate(p) for l, c in enumerate(row) if c]


def total_degree(p: Triangle) -> int:
    """The largest k + l of a nonzero coefficient; -1 for zero."""
    return max((k + l for k, l, _ in terms(p)), default=-1)


def evaluate(p: Triangle, xv, yv):
    """p(xv, yv), read off the rows."""
    return sum(c * xv**k * yv**l for k, l, c in terms(p))


def reflect(p: Triangle) -> Triangle:
    """``(-1)^n p(-1-x, -1-y)``, expanded exactly, n read from the rows."""
    n = len(p) - 1
    if total_degree(p) > n:
        raise ValueError(f"total degree {total_degree(p)} exceeds the rank {n}")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in terms(p):
        s = c if (n + k + l) % 2 == 0 else -c
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(l + 1):
                rows[a][b] += s * ca * comb(l, b)
    return tuple(map(tuple, rows))


def zeta_value(forms: InvariantFormulas, x) -> Fraction:
    """Z(x) from ``invariant_formulas``: its |W| Z(x), divided by |W|."""
    return Fraction(sum(c * x**i for i, c in enumerate(forms.zeta)), forms.group_order)
