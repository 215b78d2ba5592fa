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

Closed forms for the infinite families (types A and B) are implemented
independently in the test suite's oracles and checked against the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .cartan import CartanType, as_spec, delete_node, invariants
from .errors import InvariantViolation
from .poly import BivarPoly, uni_add, uni_scale


@dataclass(frozen=True)
class FTriangle:
    n: int
    data: BivarPoly


@dataclass(frozen=True)
class FVector:
    n: int
    coeffs: tuple[int, ...]


def _validate_triangle(n: int, p: BivarPoly, origin: str) -> FTriangle:
    for k, l, c in p.terms():
        if k + l > n:
            raise InvariantViolation(f"{origin}: support ({k},{l}) beyond rank {n}")
        if not isinstance(c, int) or c < 0:
            raise InvariantViolation(f"{origin}: coefficient f[{k}][{l}] = {c!r}")
    if p.coeff(0, 0) != 1:
        raise InvariantViolation(f"{origin}: constant term {p.coeff(0, 0)} != 1")
    return FTriangle(n, p)


def _validate_fvector(n: int, coeffs: tuple, origin: str) -> FVector:
    if len(coeffs) != n + 1 or coeffs[0] != 1 or coeffs[-1] <= 0:
        raise InvariantViolation(f"{origin}: bad f-vector {coeffs}")
    if any(not isinstance(c, int) or c < 0 for c in coeffs):
        raise InvariantViolation(f"{origin}: non-integral f-vector {coeffs}")
    return FVector(n, coeffs)


def _bc_normalized(t: CartanType) -> CartanType:
    # B_n and C_n share the Coxeter graph and h, hence the same triangle
    return CartanType("B", t.rank) if t.family == "C" else t


@lru_cache(maxsize=None)
def _f_triangle_irreducible(t: CartanType) -> BivarPoly:
    rate = BivarPoly.zero()
    for i in range(1, t.rank + 1):
        rate = rate + f_triangle(delete_node(t, i)).data
    g = rate.antiderivative_y()
    # a child's f-vector is the diagonal of its F, so f' = (h+2)/2 * rate(x, x)
    h = invariants(t).coxeter_number
    deriv = uni_scale(rate.diagonal(), Fraction(h + 2, 2))
    fvec = [1] + [Fraction(c, k + 1) for k, c in enumerate(deriv)]
    x_part = uni_add(fvec, uni_scale(g.diagonal(), -1))
    return BivarPoly.from_x_coeffs(x_part) + g


def f_triangle(spec) -> FTriangle:
    """The F-triangle, by the memoized node-deletion induction."""
    spec = as_spec(spec)
    data = BivarPoly.constant(1)
    for t in spec.components:
        data = data * _f_triangle_irreducible(_bc_normalized(t))
    return _validate_triangle(spec.rank, data, f"f_triangle({spec})")


def f_vector(spec) -> FVector:
    """The f-vector (cone counts by dimension), f(x) = F(x, x)."""
    spec = as_spec(spec)
    return _validate_fvector(spec.rank, f_triangle(spec).data.diagonal(), f"f_vector({spec})")


# --------------------------------------------------------------------------
# Specializations
# --------------------------------------------------------------------------

def positive_f_vector(ft: FTriangle) -> FVector:
    """Counts of positive cones by dimension: the l = 0 column, F(x, 0)."""
    coeffs = tuple(ft.data.coeff(k, 0) for k in range(ft.n + 1))
    return _validate_fvector(ft.n, coeffs, "positive_f_vector")


def natural_f_vector(ft: FTriangle) -> tuple[int, ...]:
    """Coefficients of F(x, -1); counts of natural cones, so must be >= 0."""
    vals = ft.data.subs_y(-1)
    out = tuple(vals) + (0,) * (ft.n + 1 - len(vals))
    if any(c < 0 for c in out):
        raise InvariantViolation(f"natural f-vector has a negative entry: {out}")
    return out


def h_vector(spec) -> tuple[int, ...]:
    """Binomial transform sum_k f_k y^k (1-y)^(n-k) of the f-vector.

    Entries are the generalized Narayana numbers.
    """
    spec = as_spec(spec)
    n = spec.rank
    fvec = f_vector(spec).coeffs
    out = [0] * (n + 1)
    for k, c in enumerate(fvec):
        for b in range(n - k + 1):
            sign = comb(n - k, b) if b % 2 == 0 else -comb(n - k, b)
            out[k + b] += c * sign
    if any(c < 0 for c in out):
        raise InvariantViolation(f"h-vector not nonnegative: {out}")
    return tuple(out)
