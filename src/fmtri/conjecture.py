"""Exact verification of the change-of-variables identity between the
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

import time
from dataclasses import dataclass, field

from .cartan import RootSystemSpec, as_spec
from .errors import Deadline, NO_DEADLINE
from .ftriangle import FTriangle, f_triangle, h_vector
from .poly import BivarPoly, conjecture_substitution
from .weyl import NCLattice, m_triangle, nc_lattice, rank_generating_function


@dataclass(frozen=True)
class EvidenceResults:
    """The five structural checks, each independent of full verification."""

    h_vector_match: bool
    positive_cluster_count_match: bool
    m_self_dual: bool
    corner_specializations: bool
    multiplicativity: bool

    @property
    def all_pass(self) -> bool:
        return all(
            (
                self.h_vector_match,
                self.positive_cluster_count_match,
                self.m_self_dual,
                self.corner_specializations,
                self.multiplicativity,
            )
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "h_vector_match": self.h_vector_match,
            "positive_cluster_count_match": self.positive_cluster_count_match,
            "m_self_dual": self.m_self_dual,
            "corner_specializations": self.corner_specializations,
            "multiplicativity": self.multiplicativity,
        }


@dataclass(frozen=True)
class ConjectureReport:
    spec: RootSystemSpec
    n: int
    lhs: BivarPoly
    rhs: BivarPoly
    verified: bool
    mismatches: tuple[tuple[int, int, int, int], ...]
    evidence: EvidenceResults
    timings: dict[str, float] = field(compare=False)

    def payload(self, with_timings: bool = False) -> dict:
        out = {
            "n": self.n,
            "verified": self.verified,
            "lhs": _dense(self.lhs, self.n),
            "rhs": _dense(self.rhs, self.n),
            "mismatches": [list(m) for m in self.mismatches],
            "evidence": self.evidence.as_dict(),
        }
        if with_timings:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


def _dense(p: BivarPoly, n: int) -> list[list[int]]:
    return [[p.coeff(k, l) for l in range(n + 1)] for k in range(n + 1)]


def conjecture_lhs(ft: FTriangle) -> BivarPoly:
    """The transformed F-triangle."""
    return conjecture_substitution(ft.data, ft.n)


def conjecture_rhs(m: BivarPoly) -> BivarPoly:
    """The sign-twisted M-triangle M(-x, -y/x)."""
    rows = [[0] * (m.deg_y + 1) for _ in range(m.deg_x + 1)]
    for i, j, c in m.terms():
        if i < j:
            raise ValueError(f"support ({i},{j}) is not an M-triangle's (i >= j)")
        rows[i - j][j] += c if (i + j) % 2 == 0 else -c
    return BivarPoly(rows)


def _check_evidence(
    spec: RootSystemSpec, ft: FTriangle, lat: NCLattice, m_poly: BivarPoly
) -> EvidenceResults:
    n = spec.rank

    e1 = h_vector(spec) == rank_generating_function(lat)

    mu_hat = lat.mobius_number
    e2 = ft.data.coeff(n, 0) == (mu_hat if n % 2 == 0 else -mu_hat)

    e3 = all(
        m_poly.coeff(i, j) == m_poly.coeff(n - j, n - i)
        for i in range(n + 1)
        for j in range(n + 1)
    )

    y_pow_n = tuple([0] * n + [1]) if n else (1,)
    e4 = ft.data.subs_x(-1) == y_pow_n and m_poly.subs_x(1) == y_pow_n

    if spec.is_irreducible or not spec.components:
        e5 = True
    else:
        m_product = BivarPoly.constant(1)
        f_product = BivarPoly.constant(1)
        for t in spec.components:
            m_product = m_product * m_triangle(nc_lattice(t))
            f_product = f_product * f_triangle(t).data
        e5 = m_poly == m_product and ft.data == f_product

    return EvidenceResults(e1, e2, e3, e4, e5)


def verify_conjecture(
    spec,
    coxeter_order=None,
    deadline: Deadline = NO_DEADLINE,
    lattice: NCLattice | None = None,
) -> ConjectureReport:
    """Compute both sides exactly, diff coefficients, run the five evidences.

    ``lattice`` may be supplied to reuse a cached build; it must belong to
    the same spec.
    """
    spec = as_spec(spec)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ft = f_triangle(spec)
    lhs = conjecture_lhs(ft)
    timings["f_triangle"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if lattice is None:
        lattice = nc_lattice(spec, coxeter_order, deadline=deadline)
    elif lattice.spec != spec:
        raise ValueError(f"lattice is for {lattice.spec}, not {spec}")
    timings["lattice"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    m_poly = m_triangle(lattice)
    rhs = conjecture_rhs(m_poly)
    mismatches = tuple(
        (k, l, lhs.coeff(k, l), rhs.coeff(k, l))
        for k in range(spec.rank + 1)
        for l in range(spec.rank + 1)
        if lhs.coeff(k, l) != rhs.coeff(k, l)
    )
    evidence = _check_evidence(spec, ft, lattice, m_poly)
    timings["compare"] = time.perf_counter() - t0

    return ConjectureReport(
        spec=spec,
        n=spec.rank,
        lhs=lhs,
        rhs=rhs,
        verified=not mismatches,
        mismatches=mismatches,
        evidence=evidence,
        timings=timings,
    )
