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

The triangle is a plain ``BivarPoly`` and every vector a plain int tuple; the
rank they live in is the spec's.  Closed forms for the infinite families
(types A and B) are implemented independently in the test suite's oracles
and checked against the recursion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .cartan import CartanType, as_spec, delete_node, invariants
from .errors import InvariantViolation
from .poly import BivarPoly


def _validate_triangle(n: int, p: BivarPoly, origin: str) -> BivarPoly:
    for k, l, c in p.terms():
        if k + l > n:
            raise InvariantViolation(f"{origin}: support ({k},{l}) beyond rank {n}")
        if not isinstance(c, int) or c < 0:
            raise InvariantViolation(f"{origin}: coefficient f[{k}][{l}] = {c!r}")
    if p.coeff(0, 0) != 1:
        raise InvariantViolation(f"{origin}: constant term {p.coeff(0, 0)} != 1")
    return p


def _validate_fvector(n: int, coeffs: tuple, origin: str) -> tuple[int, ...]:
    if len(coeffs) != n + 1 or coeffs[0] != 1 or coeffs[-1] <= 0:
        raise InvariantViolation(f"{origin}: bad f-vector {coeffs}")
    if any(not isinstance(c, int) or c < 0 for c in coeffs):
        raise InvariantViolation(f"{origin}: non-integral f-vector {coeffs}")
    return coeffs


def _bc_normalized(t: CartanType) -> CartanType:
    # B_n and C_n share the Coxeter graph and h, hence the same triangle
    return CartanType("B", t.rank) if t.family == "C" else t


@lru_cache(maxsize=None)
def _f_triangle_irreducible(t: CartanType) -> BivarPoly:
    rate = BivarPoly.zero()
    for i in range(1, t.rank + 1):
        rate = rate + f_triangle(delete_node(t, i))
    g = rate.antiderivative_y()
    # a child's f-vector is the diagonal of its F, so f' = (h+2)/2 * rate(x, x)
    scale = Fraction(invariants(t).coxeter_number + 2, 2)
    f = [1] + [scale * c / (k + 1) for k, c in enumerate(rate.diagonal())]
    return BivarPoly.from_x_coeffs(f) - BivarPoly.from_x_coeffs(g.diagonal()) + g


def f_triangle(spec) -> BivarPoly:
    """The F-triangle of ``spec``, by the memoized node-deletion induction;
    its support lies in k + l <= rank."""
    spec = as_spec(spec)
    p = BivarPoly.constant(1)
    for t in spec.components:
        p = p * _f_triangle_irreducible(_bc_normalized(t))
    return _validate_triangle(spec.rank, p, f"f_triangle({spec})")


def f_vector(spec) -> tuple[int, ...]:
    """The f-vector (cone counts by dimension), f(x) = F(x, x)."""
    spec = as_spec(spec)
    return _validate_fvector(spec.rank, f_triangle(spec).diagonal(), f"f_vector({spec})")


# --------------------------------------------------------------------------
# Specializations
# --------------------------------------------------------------------------

def positive_f_vector(spec) -> tuple[int, ...]:
    """Counts of positive cones by dimension: the l = 0 column, F(x, 0)."""
    spec = as_spec(spec)
    ft = f_triangle(spec)
    coeffs = tuple(ft.coeff(k, 0) for k in range(spec.rank + 1))
    return _validate_fvector(spec.rank, coeffs, f"positive_f_vector({spec})")


def natural_f_vector(spec) -> tuple[int, ...]:
    """Coefficients of F(x, -1); counts of natural cones, so must be >= 0."""
    spec = as_spec(spec)
    vals = f_triangle(spec).subs_y(-1)
    out = vals + (0,) * (spec.rank + 1 - len(vals))
    if any(c < 0 for c in out):
        raise InvariantViolation(f"natural f-vector has a negative entry: {out}")
    return out


def h_vector(spec) -> tuple[int, ...]:
    """Binomial transform sum_k f_k y^k (1-y)^(n-k) of the f-vector.

    Entries are the generalized Narayana numbers.
    """
    spec = as_spec(spec)
    n = spec.rank
    out = [0] * (n + 1)
    for k, c in enumerate(f_vector(spec)):
        for b in range(n - k + 1):
            sign = comb(n - k, b) if b % 2 == 0 else -comb(n - k, b)
            out[k + b] += c * sign
    if any(c < 0 for c in out):
        raise InvariantViolation(f"h-vector not nonnegative: {out}")
    return tuple(out)
