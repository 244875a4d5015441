"""Fibonorials, fibonomial coefficients and the golden binomial hierarchy.

The level-k golden binomial (x + y)^n is the polynomial whose product form is
prod_{s=1..n} (x + phi^{k(n-s)} phi'^{k(s-1)} y); expanded in powers it has
rational-integer coefficients fibonomial(n, m, k) * (-1)^(k*m*(m-1)/2).
Both forms are kept: the expanded coefficients drive series work downstream,
the exact ring product is retained as an independent oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

from goldcalc.ring import GoldenExact, fib_divisor, golden_pow


def fibonorial(n: int, k: int = 1) -> int:
    """Product F_1^(k) * ... * F_n^(k); empty product is 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k == 0:
        raise ValueError("k must be nonzero")
    out = 1
    for i in range(1, n + 1):
        out *= fib_divisor(i, k)
    return out


def _fibonorials(n: int, k: int) -> list[int]:
    """[F_0^(k)!, F_1^(k)!, ..., F_n^(k)!], each product built from the one before."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k == 0:
        raise ValueError("k must be nonzero")
    return list(accumulate((fib_divisor(i, k) for i in range(1, n + 1)), operator.mul, initial=1))


def _fibonomial(facts: list[int], m: int, k: int) -> int:
    """fibonomial(n, m, k) from the fibonorials facts = _fibonorials(n, k)."""
    n = len(facts) - 1
    q, r = divmod(facts[n], facts[m] * facts[n - m])
    if r:
        raise ArithmeticError(f"fibonomial({n},{m},{k}) is not an integer")
    return q


def fibonomial(n: int, m: int, k: int = 1) -> int:
    """Fibonomial coefficient F_n^(k)! / (F_m^(k)! F_{n-m}^(k)!), an exact integer."""
    if not 0 <= m <= n:
        raise ValueError(f"require 0 <= m <= n, got m={m}, n={n}")
    return _fibonomial(_fibonorials(n, k), m, k)


def _binomial_sign(m: int, k: int) -> int:
    """(-1)^(k*m*(m-1)/2): the sign of binomial coefficient m and of E-exponential term m."""
    return -1 if (k * (m * (m - 1) // 2)) % 2 else 1


@dataclass(frozen=True)
class GoldenBinomial:
    """Expanded level-k golden binomial: sum_m coeffs[m] * x^(n-m) * y^m."""

    n: int
    k: int
    coeffs: tuple[int, ...]

    def __call__(self, x: complex, y: complex) -> complex:
        return golden_binomial_eval(self, x, y)


def golden_binomial(n: int, k: int = 1) -> GoldenBinomial:
    """Level-k golden binomial of degree n in expanded coefficient form."""
    facts = _fibonorials(n, k)
    coeffs = tuple(_binomial_sign(m, k) * _fibonomial(facts, m, k) for m in range(n + 1))
    return GoldenBinomial(n, k, coeffs)


def golden_binomial_eval(b: GoldenBinomial, x: complex, y: complex) -> complex:
    """Evaluate sum_m c_m x^(n-m) y^m by Horner in y/x-free form."""
    total = 0j
    xp = [1.0 + 0j]
    yp = [1.0 + 0j]
    for _ in range(b.n):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    for m, c in enumerate(b.coeffs):
        total += c * xp[b.n - m] * yp[m]
    return total


def golden_binomial_product_coeffs(n: int, k: int = 1) -> list[GoldenExact]:
    """Coefficients of prod_{s=1..n} (x + phi^{k(n-s)} phi'^{k(s-1)} y), exactly.

    Returned as ring elements c_m of x^(n-m) y^m.  This is the product-form
    oracle for golden_binomial: every c_m must be a rational integer equal to
    the expanded coefficient.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k == 0:
        raise ValueError("k must be nonzero")
    coeffs = [GoldenExact(1)]
    for s in range(1, n + 1):
        factor = golden_pow(k * (n - s)) * golden_pow(k * (s - 1)).conjugate()
        nxt = [GoldenExact(0) for _ in range(len(coeffs) + 1)]
        # multiply current polynomial (in descending x-power) by (x + factor*y)
        for m, c in enumerate(coeffs):
            nxt[m] = nxt[m] + c
            nxt[m + 1] = nxt[m + 1] + c * factor
        coeffs = nxt
    return coeffs


def golden_binomial_scaled_coeffs(n: int, k: int, scale: GoldenExact) -> list[GoldenExact]:
    """Exact coefficients of x^(n-m) a^m in the binomial (x - scale*a)^n at level k.

    Substitutes y = -scale * a into the expanded form; used by the
    factorization-rule checks where scale is an exact power of phi or phi'.
    """
    base = golden_binomial(n, k)
    out = []
    power = GoldenExact(1)
    for m in range(n + 1):
        sign = -1 if m % 2 else 1
        out.append(power * (sign * base.coeffs[m]))
        power = power * scale
    return out
