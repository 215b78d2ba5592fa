"""Rank-n triangles as their printed rows, and the change of variables.

A triangle of rank n is a tuple of n+1 int tuples of length n+1: ``t[k][l]``
is the coefficient of x^k y^l, zeros included, exactly the matrix every
command prints.  Coefficients are Python ints (arbitrary precision); the one
division, ``exact_div``, refuses a remainder, so nothing here is ever a
fraction or a float.  The rank caps every degree, and nothing caps the rank
(the pinned sweep reaches 11, and ``verify A60`` runs under a time budget).
"""

from __future__ import annotations

from math import comb

from .errors import InvariantViolation

Triangle = tuple[tuple[int, ...], ...]


def exact_div(a: int, b: int) -> int:
    """a / b; raises InvariantViolation unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise InvariantViolation(f"{a} is not a multiple of {b}")
    return q


def _terms(p: Triangle):
    """(k, l, c) for each nonzero coefficient of p; raises InvariantViolation
    on one outside the triangle k + l <= n."""
    n = len(p) - 1
    for k, row in enumerate(p):
        for l, c in enumerate(row):
            if c:
                if k + l > n:
                    raise InvariantViolation(f"coefficient [{k}][{l}] = {c} lies outside k + l <= {n}")
                yield k, l, c


def product(p: Triangle, q: Triangle) -> Triangle:
    """p * q, whose rank is the sum of the factors' ranks; zero coefficients
    of either factor are skipped."""
    size = len(p) + len(q) - 1
    rows = [[0] * size for _ in range(size)]
    right = [[(l, c) for l, c in enumerate(row) if c] for row in q]
    for k1, row1 in enumerate(p):
        for l1, c1 in enumerate(row1):
            if c1:
                for out, terms in zip(rows[k1:], right):
                    for l2, c2 in terms:
                        out[l1 + l2] += c1 * c2
    return tuple(map(tuple, rows))


def diagonal(p: Triangle) -> tuple[int, ...]:
    """Coefficients in x of p(x, x), n+1 of them."""
    out = [0] * len(p)
    for k, l, c in _terms(p):
        out[k + l] += c
    return tuple(out)


def subs_y(p: Triangle, value: int) -> tuple[int, ...]:
    """Coefficients in x of p(x, value)."""
    return tuple(sum(c * value**l for l, c in enumerate(row)) for row in p)


def subs_x(p: Triangle, value: int) -> tuple[int, ...]:
    """Coefficients in y of p(value, y)."""
    return subs_y(tuple(zip(*p)), value)


def conjecture_substitution(p: Triangle) -> Triangle:
    """Expand ``(1-y)^n p((x+y)/(1-y), y/(1-y))`` as a rank-n triangle.

    Valid whenever the support of p satisfies k + l <= n: each monomial
    contributes ``c * (x+y)^k * y^l * (1-y)^(n-k-l)``, so the denominators
    clear termwise and no rational-function arithmetic is needed.
    """
    n = len(p) - 1
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for k, l, c in _terms(p):
        m = n - k - l
        for a in range(k + 1):
            ca = comb(k, a)
            for b in range(m + 1):
                cb = comb(m, b) if b % 2 == 0 else -comb(m, b)
                rows[a][k - a + l + b] += c * ca * cb
    return tuple(map(tuple, rows))
