"""Exact dense bivariate polynomial arithmetic.

Coefficients are Python ints (arbitrary precision); the one division,
``exact_div``, refuses a remainder, so nothing here is ever a fraction or a
float.  Degrees in this project are bounded by the rank (<= 8), so the dense
representation is the simple and fast choice.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from .errors import InvariantViolation


def exact_div(a: int, b: int) -> int:
    """a / b; raises InvariantViolation unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise InvariantViolation(f"{a} is not a multiple of {b}")
    return q


def _trim(rows: list[list]) -> tuple[tuple, ...]:
    while rows and all(c == 0 for c in rows[-1]):
        rows.pop()
    if not rows:
        return ()
    width = 0
    for row in rows:
        w = len(row)
        while w > 0 and row[w - 1] == 0:
            w -= 1
        width = max(width, w)
    return tuple(tuple(row[:width]) + (0,) * (width - len(row)) for row in rows)


class BivarPoly:
    """Polynomial in x and y; ``rows[k][l]`` is the coefficient of x^k y^l."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable] = ()):
        object.__setattr__(self, "rows", _trim([list(r) for r in rows]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls(((c,),))

    @classmethod
    def from_x_coeffs(cls, coeffs: Sequence) -> "BivarPoly":
        return cls([[c] for c in coeffs])

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def deg_x(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_y(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else -1

    def coeff(self, k: int, l: int):
        if 0 <= k < len(self.rows) and 0 <= l < len(self.rows[k]):
            return self.rows[k][l]
        return 0

    def dense_rows(self, n: int) -> list[list]:
        """The (n+1) x (n+1) coefficient matrix, zeros included."""
        return [[self.coeff(k, l) for l in range(n + 1)] for k in range(n + 1)]

    def terms(self):
        for k, row in enumerate(self.rows):
            for l, c in enumerate(row):
                if c != 0:
                    yield k, l, c

    def __eq__(self, other) -> bool:
        if isinstance(other, BivarPoly):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        if self.is_zero:
            return "BivarPoly(0)"
        parts = []
        for k, l, c in self.terms():
            mono = "".join(
                (f"*x^{k}" if k > 1 else "*x" if k == 1 else "",
                 f"*y^{l}" if l > 1 else "*y" if l == 1 else "")
            )
            parts.append(f"{c}{mono}")
        return "BivarPoly(" + " + ".join(parts) + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        nx = max(len(self.rows), len(other.rows))
        ny = max(len(self.rows[0]) if self.rows else 0, len(other.rows[0]) if other.rows else 0)
        rows = [
            [self.coeff(k, l) + other.coeff(k, l) for l in range(ny)]
            for k in range(nx)
        ]
        return BivarPoly(rows)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly([[-c for c in row] for row in self.rows])

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        if self.is_zero or other.is_zero:
            return BivarPoly.zero()
        nx = len(self.rows) + len(other.rows) - 1
        ny = len(self.rows[0]) + len(other.rows[0]) - 1
        rows = [[0] * ny for _ in range(nx)]
        for k1, row1 in enumerate(self.rows):
            for l1, c1 in enumerate(row1):
                if c1 == 0:
                    continue
                for k2, row2 in enumerate(other.rows):
                    for l2, c2 in enumerate(row2):
                        if c2 != 0:
                            rows[k1 + k2][l1 + l2] += c1 * c2
        return BivarPoly(rows)

    # -- calculus and substitutions ----------------------------------------

    def antiderivative_y(self) -> "BivarPoly":
        """Integrate in y with zero constant term (no y-free part)."""
        return BivarPoly(
            [[0] + [exact_div(c, l + 1) for l, c in enumerate(row)] for row in self.rows]
        )

    def diagonal(self) -> tuple:
        """Coefficients in x of p(x, x)."""
        out = [0] * (self.deg_x + self.deg_y + 1 if self.rows else 1)
        for k, l, c in self.terms():
            out[k + l] += c
        return uni_trim(out)

    def subs_y(self, value) -> tuple:
        """Coefficients in x of p(x, value)."""
        out = [0] * (len(self.rows) or 1)
        for k, l, c in self.terms():
            out[k] += c * value**l
        return uni_trim(out)

    def subs_x(self, value) -> tuple:
        """Coefficients in y of p(value, y)."""
        out = [0] * ((self.deg_y + 1) if self.rows else 1)
        for k, l, c in self.terms():
            out[l] += c * value**k
        return uni_trim(out)


def conjecture_substitution(p: BivarPoly, n: int) -> BivarPoly:
    """Expand ``(1-y)^n p((x+y)/(1-y), y/(1-y))`` as a polynomial.

    Valid whenever the support of p satisfies k + l <= n: each monomial
    contributes ``c * (x+y)^k * y^l * (1-y)^(n-k-l)``, so the denominators
    clear termwise and no rational-function arithmetic is needed.
    """
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in p.terms():
        m = n - k - l
        if m < 0:
            raise ValueError(f"support ({k},{l}) outside the triangle k+l <= {n}")
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(m + 1):
                cb = comb(m, b) if b % 2 == 0 else -comb(m, b)
                rows[a][k - a + l + b] += c * ca * cb
    return BivarPoly(rows)


# --------------------------------------------------------------------------
# Univariate results (plain coefficient tuples, () is the zero polynomial)
# --------------------------------------------------------------------------

def uni_trim(coeffs: Sequence) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)

