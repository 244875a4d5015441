"""Golden derivative hierarchy and translation operator.

The level-k golden derivative is the two-base difference quotient
(f(phi^k x) - f(phi'^k x)) / ((phi^k - phi'^k) x).  On monomials it acts as
x^n -> F_n^(k) x^(n-1); on black-box callables it is evaluated numerically
away from x = 0, where the quotient is singular, at a point or over an
array of points.
"""

from __future__ import annotations

from collections.abc import Sequence

from goldcalc.combinatorics import golden_binomial
from goldcalc.ring import PHI, PHI_PRIME, fib_divisor


class Polynomial:
    """Finite coefficient list over real or complex scalars, coeffs[i] * x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j if isinstance(x, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Polynomial(a)

    def __mul__(self, other: Polynomial | complex) -> Polynomial:
        if isinstance(other, Polynomial):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


def golden_derivative_poly(p: Polynomial, k: int = 1) -> Polynomial:
    """Symbolic golden derivative: a_n x^n -> a_n F_n^(k) x^(n-1)."""
    if k == 0:
        raise ValueError("k must be nonzero")
    return Polynomial([c * fib_divisor(n, k) for n, c in enumerate(p.coeffs)][1:])


def golden_derivative_numeric(f, x, k: int = 1):
    """Difference quotient (f(phi^k x) - f(phi'^k x)) / ((phi^k - phi'^k) x),
    at a number x or elementwise over a numpy array x, for an f that takes
    what x is."""
    if k == 0:
        raise ValueError("k must be nonzero")
    zero = x == 0  # a bool, or an array with .any(): this module imports no numpy
    if zero.any() if hasattr(zero, "any") else zero:
        raise ValueError("golden derivative quotient is singular at x = 0")
    pk = PHI**k
    qk = PHI_PRIME**k
    return (f(pk * x) - f(qk * x)) / ((pk - qk) * x)


def translate(p: Polynomial, y: complex, k: int = 1) -> Polynomial:
    """Golden shift of a polynomial: sum a_n (x + y)^n at binomial level k.

    For purely imaginary y this is the golden analytic continuation of p.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    out: list[complex] = [0] * len(p.coeffs)
    ypow = [1.0 + 0j if isinstance(y, complex) else 1.0]
    for _ in range(max(p.degree, 0)):
        ypow.append(ypow[-1] * y)
    for n, a in enumerate(p.coeffs):
        if a == 0:
            continue
        b = golden_binomial(n, k)
        for m, c in enumerate(b.coeffs):
            out[n - m] += a * c * ypow[m]
    return Polynomial(out)
