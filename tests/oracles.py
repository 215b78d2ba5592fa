"""Reference implementations that the tests compare the library against.

None of this is on a CLI path.  Each function is written independently of
the code it checks: the reflection length rank(g - 1) by Bareiss
elimination, whole-group enumeration and breadth-first word length to check
it, the pairwise rank test for the absolute order, the interval [1, c] cut
from the whole group with each element's matrix under its mask, multichain
counting for the Zeta polynomial, closed forms for the A and B F-triangles,
and the second change of variables for the reflection symmetry.  Polynomial
helpers that only tests need live here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from fmtri.errors import InvariantViolation
from fmtri.ftriangle import _validate_triangle
from fmtri.poly import BivarPoly, conjecture_substitution
from fmtri.weyl import Matrix, NCLattice, ReflectionRep, mat_apply, mat_identity, mat_mul

# --------------------------------------------------------------------------
# Exact rank, and the reflection length rank(g - 1)
# --------------------------------------------------------------------------


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


def whole_group(rep: ReflectionRep) -> set[Matrix]:
    """Every element of W, by closure under the simple reflections."""
    frontier = [mat_identity(rep.n)]
    group = set(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for m in rep.simple_reflections:
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
    dist = 0
    while frontier:
        dist += 1
        fresh = []
        for a in frontier:
            for t in rep.reflections:
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


def zeta_bruteforce(lat: NCLattice, m: int) -> int:
    """Number of multichains a_1 <= ... <= a_(m-1); Z(1) = 1, Z(2) = |L|."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    down: list[list[int]] = [[] for _ in range(lat.cardinality)]
    for a, row in enumerate(lat.mobius_rows):
        for b, _ in row:
            down[b].append(a)
    weights = [1] * lat.cardinality
    for _ in range(m - 2):
        weights = [sum(weights[a] for a in below) for below in down]
    return sum(weights)


# --------------------------------------------------------------------------
# Closed forms (types A and B)
# --------------------------------------------------------------------------


def closed_form_A(n: int) -> BivarPoly:
    """f_{k,l} = (l+1)/(k+l+1) * C(n, k+l) * C(n+k, n)."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            c = Fraction(l + 1, k + l + 1) * comb(n, k + l) * comb(n + k, n)
            if c.denominator != 1:
                raise InvariantViolation(f"closed_form_A({n}) entry ({k},{l}) = {c}")
            rows[k][l] = int(c)
    return _validate_triangle(n, BivarPoly(rows), f"closed_form_A({n})")


def closed_form_B(n: int) -> BivarPoly:
    """f_{k,l} = C(n, k+l) * C(n+k-1, n-1)."""
    if n < 2:
        raise ValueError("rank must be >= 2 (B1 is A1)")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            rows[k][l] = comb(n, k + l) * comb(n + k - 1, n - 1)
    return _validate_triangle(n, BivarPoly(rows), f"closed_form_B({n})")


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


# --------------------------------------------------------------------------
# The second change of variables
# --------------------------------------------------------------------------


def alternative_substitution(p: BivarPoly, n: int) -> BivarPoly:
    """Expand ``(y-1)^n p((x+1)/(y-1), 1/(y-1))`` as a polynomial.

    Same termwise denominator clearing as ``conjecture_substitution``: each
    monomial contributes ``c * (x+1)^k * (y-1)^(n-k-l)``.
    """
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in p.terms():
        m = n - k - l
        if m < 0:
            raise ValueError(f"support ({k},{l}) outside the triangle k+l <= {n}")
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(m + 1):
                cb = comb(m, b) if (m - b) % 2 == 0 else -comb(m, b)
                rows[a][b] += c * ca * cb
    return BivarPoly(rows)


def alternative_form_check(ft: BivarPoly, n: int) -> bool:
    """The rewriting (y-1)^n F((x+1)/(y-1), 1/(y-1)) of a rank-n triangle
    must give the same polynomial; this is the reflection symmetry of the
    triangle in disguise."""
    return alternative_substitution(ft, n) == conjecture_substitution(ft, n)


# --------------------------------------------------------------------------
# Polynomial helpers
# --------------------------------------------------------------------------


def monomial(k: int, l: int, c=1) -> BivarPoly:
    rows = [[0] * (l + 1) for _ in range(k + 1)]
    rows[k][l] = c
    return BivarPoly(rows)


def poly_from_terms(*terms) -> BivarPoly:
    out = BivarPoly.zero()
    for k, l, c in terms:
        out = out + monomial(k, l, c)
    return out


def total_degree(p: BivarPoly) -> int:
    return max((k + l for k, l, _ in p.terms()), default=-1)


def is_integral(p: BivarPoly) -> bool:
    return all(isinstance(c, int) for _, _, c in p.terms())


def derivative_y(p: BivarPoly) -> BivarPoly:
    return BivarPoly([[c * l for l, c in enumerate(row)][1:] for row in p.rows])


def evaluate(p: BivarPoly, xv, yv):
    return sum(c * xv**k * yv**l for k, l, c in p.terms())


def reflect(p: BivarPoly, n: int) -> BivarPoly:
    """``(-1)^n p(-1-x, -1-y)``, expanded exactly."""
    if total_degree(p) > n:
        raise ValueError(f"total degree {total_degree(p)} exceeds reflection order {n}")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in p.terms():
        s = c if (n + k + l) % 2 == 0 else -c
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(l + 1):
                rows[a][b] += s * ca * comb(l, b)
    return BivarPoly(rows)


def uni_eval(p: Sequence, x):
    return sum(c * x**i for i, c in enumerate(p))
