"""Exact verification of the change-of-variables identity between a given
F-triangle of a root system and the M-triangle of its noncrossing partition
lattice, together with five independent structural cross-checks.

Both sides are honest polynomials:

  * left side: (1-y)^n F((x+y)/(1-y), y/(1-y)), expanded by termwise
    denominator clearing (valid because the triangle support has k+l <= n);
  * right side: M(-x, -y/x), read off the M-triangle: x^i y^j becomes
    (-1)^(i+j) x^(i-j) y^j, a polynomial since mu lives on intervals
    (M has support i = rk b >= j = rk a).

A mismatch is reported as data, never asserted away: the comparison is meant
to be able to falsify the identity.
"""

from __future__ import annotations

from functools import reduce

from .cartan import RootSystemSpec, spec_of
from .errors import Deadline, InvariantViolation, NO_DEADLINE
from .ftriangle import h_vector
from .poly import Triangle, conjecture_substitution, product, subs_x
from .weyl import NCLattice, nc_lattice


def conjecture_rhs(m: Triangle) -> Triangle:
    """The sign-twisted M-triangle M(-x, -y/x)."""
    size = len(m)
    rows = [[0] * size for _ in range(size)]
    for i, row in enumerate(m):
        for j, c in enumerate(row):
            if c:
                if i < j:
                    raise InvariantViolation(f"M-triangle coefficient m[{i}][{j}] = {c} lies outside i >= j")
                rows[i - j][j] += c if (i + j) % 2 == 0 else -c
    return tuple(map(tuple, rows))


def _check_evidence(
    spec: RootSystemSpec, ft: Triangle, lat: NCLattice, deadline: Deadline
) -> dict[str, bool]:
    """The five structural checks, each independent of full verification."""
    n = spec.rank
    mu_hat = lat.mobius_number
    m = lat.m_triangle
    y_pow_n = (0,) * n + (1,)
    # a product's lattice comes from a BFS of its own, apart from its factors'
    # lattices; its F-triangle is the product of theirs by definition
    multiplicative = len(spec.components) < 2 or m == reduce(
        product, (nc_lattice(spec_of(t), deadline=deadline).m_triangle for t in spec.components)
    )

    return {
        "h_vector_match": h_vector(ft) == tuple(map(len, lat.levels)),
        "positive_cluster_count_match": ft[n][0] == (mu_hat if n % 2 == 0 else -mu_hat),
        "m_self_dual": all(
            m[i][j] == m[n - j][n - i] for i in range(n + 1) for j in range(n + 1)
        ),
        "corner_specializations": subs_x(ft, -1) == y_pow_n and subs_x(m, 1) == y_pow_n,
        "multiplicativity": multiplicative,
    }


def verify_conjecture(lattice: NCLattice, ft: Triangle, deadline: Deadline = NO_DEADLINE) -> dict:
    """Check the F-triangle ``ft`` against the M-triangle of ``lattice``:
    diff both sides' coefficients and run the five evidences.

    Returns the JSON-ready result that ``fmtri verify`` prints: ``n``,
    ``verified``, the dense ``lhs`` and ``rhs`` rows, ``mismatches`` as
    [k, l, lhs, rhs] and ``evidence``.  Raises InvariantViolation unless
    ``ft`` has the lattice's rank.  ``deadline`` bounds the component
    lattices the multiplicativity check builds for a reducible spec.
    """
    spec = lattice.spec
    n = spec.rank
    if len(ft) - 1 != n:
        raise InvariantViolation(f"{spec}: an F-triangle of rank {len(ft) - 1}, not {n}")
    lhs = list(map(list, conjecture_substitution(ft)))
    rhs = list(map(list, conjecture_rhs(lattice.m_triangle)))
    mismatches = [
        [k, l, a, b]
        for k, (lhs_row, rhs_row) in enumerate(zip(lhs, rhs))
        for l, (a, b) in enumerate(zip(lhs_row, rhs_row))
        if a != b
    ]
    return {
        "n": n,
        "verified": not mismatches,
        "lhs": lhs,
        "rhs": rhs,
        "mismatches": mismatches,
        "evidence": _check_evidence(spec, ft, lattice, deadline),
    }
