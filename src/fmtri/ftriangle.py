"""F-triangles and f-vectors of cluster fans.

The F-triangle F(x, y) = sum f_{k,l} x^k y^l counts the cones of the cluster
fan by their number of positive spanning roots (k) and negated simple
spanning roots (l).  It is computed here by the simultaneous induction over
node deletions:

  * d/dy F(Phi) = sum over nodes i of F(Phi restricted to I minus i),
  * d/dx f(Phi) = (h+2)/2 * sum over nodes i of f(Phi restricted to I minus i),

with f(x) = F(x, x), f(0) = 1, and both quantities multiplicative over
products of root systems.  Integrating the first recursion fixes F up to its
y-free part, which the second recursion supplies through the diagonal.

The triangle is its printed rows, rank+1 int tuples of rank+1 entries each
(``fmtri.poly``), and every vector, read off it, a plain int tuple; the
rank they live in is the triangle's, ``len(ft) - 1``.  The test suite's
oracles: the A and B closed forms, D's h-vector (the Narayana numbers), and
the cluster complex's faces, counted directly, for every type of rank <= 8.
The induction takes no time budget; its cost grows about as n^5.5 (A40
0.7-0.9 s, A60 5-6 s on a 2-core Xeon, CPython 3.11.7), so A250 is out of
reach.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import comb

from .cartan import CartanType, RootSystemSpec, delete_node, invariants
from .errors import InvariantViolation
from .poly import Triangle, diagonal, exact_div, product, subs_y


def _validate_triangle(p: Triangle, origin: str) -> Triangle:
    """p, unless a coefficient is negative: the recursion gives support in
    k + l <= rank and F(0, 0) = 1 by construction."""
    for k, row in enumerate(p):
        for l, c in enumerate(row):
            if c < 0:
                raise InvariantViolation(f"{origin}: coefficient f[{k}][{l}] = {c!r}")
    return p


def _validate_fvector(coeffs: tuple, origin: str) -> tuple[int, ...]:
    """coeffs, unless f_n, the last, is not positive: a nonnegative triangle
    with F(0, 0) = 1 implies the rest."""
    if coeffs[-1] <= 0:
        raise InvariantViolation(f"{origin}: bad f-vector {coeffs}")
    return coeffs


_TRIANGLES: dict[CartanType, Triangle] = {}  # the memo of the induction, by irreducible type


def _f_triangle_irreducible(t: CartanType) -> Triangle:
    if t not in _TRIANGLES:
        # every type below t by node deletions, filled smallest rank first:
        # each one's children are then in the memo, so no call nests per rank
        below, todo = {t}, [t]
        while todo:
            u = todo.pop()
            for i in range(1, u.rank + 1):
                for c in delete_node(u, i).components:
                    if c not in below and c not in _TRIANGLES:
                        below.add(c)
                        todo.append(c)
        for u in sorted(below, key=lambda u: u.rank):
            _TRIANGLES[u] = _from_children(u)
    return _TRIANGLES[t]


def _from_children(t: CartanType) -> Triangle:
    """The F-triangle of t from those of its node deletions, which must be
    in the memo already."""
    n = t.rank
    # d/dy F is the sum of the children's triangles, each of rank n - 1; a
    # child that k deletions give (A_n's i and n + 1 - i) is formed once, times k
    children = Counter(delete_node(t, i) for i in range(1, n + 1))
    terms = [
        (k, reduce(product, map(_TRIANGLES.__getitem__, c.components), ((1,),))) for c, k in children.items()
    ]
    rate = [[sum(k * p[j][l] for k, p in terms) for l in range(n)] for j in range(n)]
    # integrate in y; the y-free column is filled in below
    rows = [[0] + [exact_div(c, l + 1) for l, c in enumerate(row)] for row in rate] + [[0] * (n + 1)]
    # a child's f-vector is the diagonal of its F, so f' = (h+2)/2 * rate(x, x)
    scale = invariants(t).coxeter_number + 2
    f = [1] + [exact_div(scale * c, 2 * (k + 1)) for k, c in enumerate(diagonal(rate))]
    for row, fk, gk in zip(rows, f, diagonal(rows)):
        row[0] = fk - gk
    return tuple(map(tuple, rows))


def f_triangle(spec: RootSystemSpec) -> Triangle:
    """The F-triangle of ``spec``, by the memoized node-deletion induction;
    its support lies in k + l <= rank."""
    p = reduce(product, map(_f_triangle_irreducible, spec.components), ((1,),))
    return _validate_triangle(p, f"f_triangle({spec})")


def f_vector(ft: Triangle) -> tuple[int, ...]:
    """The f-vector (cone counts by dimension) of ``ft``, f(x) = F(x, x)."""
    return _validate_fvector(diagonal(ft), "f_vector")


# --------------------------------------------------------------------------
# Specializations
# --------------------------------------------------------------------------

def positive_f_vector(ft: Triangle) -> tuple[int, ...]:
    """Counts of positive cones by dimension: ``ft``'s l = 0 column, F(x, 0)."""
    return _validate_fvector(tuple(row[0] for row in ft), "positive_f_vector")


def natural_f_vector(ft: Triangle) -> tuple[int, ...]:
    """Coefficients of F(x, -1) for ``ft``; counts of natural cones, so must be >= 0."""
    out = subs_y(ft, -1)
    if any(c < 0 for c in out):
        raise InvariantViolation(f"natural f-vector has a negative entry: {out}")
    return out


def h_vector(ft: Triangle) -> tuple[int, ...]:
    """Binomial transform sum_k f_k y^k (1-y)^(n-k) of ``ft``'s f-vector.

    Entries are the generalized Narayana numbers.
    """
    n = len(ft) - 1
    out = [0] * (n + 1)
    for k, c in enumerate(f_vector(ft)):
        for b in range(n - k + 1):
            sign = comb(n - k, b) if b % 2 == 0 else -comb(n - k, b)
            out[k + b] += c * sign
    if any(c < 0 for c in out):
        raise InvariantViolation(f"h-vector not nonnegative: {out}")
    return tuple(out)
