"""Golden exponentials and trig parts, phi-numbers, phi-exponentials with the
Euler product, phi-logarithms, and golden analytic functions.

Every series here is evaluated under a combined truncation policy: summation
stops once the running term drops below tail_tol, and TruncationError is
raised if that has not happened within max_terms.  The generalized factorials
grow super-exponentially, so a few dozen terms cover desk scale, but the
contract is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from goldcalc.combinatorics import _binomial_sign, golden_binomial_eval, golden_binomial
from goldcalc.ring import PHI, GoldenExact, fib_divisor, golden_pow


class TruncationError(RuntimeError):
    """Series or product tail failed to drop below tolerance within max_terms."""


@dataclass(frozen=True)
class SeriesTruncation:
    max_terms: int = 200
    tail_tol: float = 1e-15

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not (math.isfinite(self.tail_tol) and self.tail_tol >= 0):
            raise ValueError("tail_tol must be finite and non-negative")


DEFAULT_TRUNCATION = SeriesTruncation()
POLE_MARGIN = 1e-8  # closest relative approach to a pole that ln_phi's pole sum accepts


def golden_exp(x: complex, k: int = 1, variant: str = "e",
               t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Level-k golden exponential: sum x^n / F_n^(k)!.

    variant "e" is the plain series; variant "E" carries the extra sign
    (-1)^(k n(n-1)/2) and satisfies E(x, k) = e(x, -k).  Both are entire.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if variant not in ("e", "E"):
        raise ValueError(f"variant must be 'e' or 'E', got {variant!r}")
    total: complex = 1.0
    term: complex = 1.0
    for n in range(1, t.max_terms + 1):
        term = term * x / fib_divisor(n, k)
        contrib = term * _binomial_sign(n, k) if variant == "E" else term
        total += contrib
        if abs(term) < t.tail_tol * max(1.0, abs(total)):
            return total
    raise TruncationError(
        f"golden_exp tail still {abs(term):.3g} after {t.max_terms} terms")


def golden_trig(x: float, k: int = 1, which: str = "cos",
                t: SeriesTruncation = DEFAULT_TRUNCATION) -> float:
    """Golden cosine/sine at level k: the real/imaginary part of the level-(-k)
    E-exponential evaluated at i*x."""
    if which not in ("cos", "sin"):
        raise ValueError(f"which must be 'cos' or 'sin', got {which!r}")
    val = golden_exp(1j * x, -k, "E", t)
    return val.real if which == "cos" else val.imag


def phi_number(n: int, k: int = 1) -> GoldenExact:
    """[n] at base phi^k: the exact geometric sum 1 + phi^k + ... + phi^(k(n-1)).

    Always lands in Z[phi]; the closed division form (phi^(k n) - 1)/(phi^k - 1)
    is recovered by the tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = GoldenExact(0)
    for j in range(n):
        total = total + golden_pow(k * j)
    return total


def e_phi(z: complex, t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Entire phi-exponential sum z^n / ([n]_phi)!."""
    total: complex = 1.0
    term: complex = 1.0
    bracket = 0.0
    for n in range(1, t.max_terms + 1):
        bracket = PHI * bracket + 1.0
        term = term * z / bracket
        total += term
        if abs(term) < t.tail_tol * max(1.0, abs(total)):
            return total
    raise TruncationError(f"e_phi tail still {abs(term):.3g} after {t.max_terms} terms")


def E_phi(z: complex, t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Companion series sum phi^(n(n-1)/2) z^n / ([n]_phi)!.

    Unlike e_phi this one is not entire: the terms shrink geometrically like
    (|z|/phi^2)^n, so the series only converges for |z| < phi^2.
    """
    total: complex = 1.0
    term: complex = 1.0
    bracket = 0.0
    for n in range(1, t.max_terms + 1):
        bracket = PHI * bracket + 1.0
        term = term * z * PHI ** (n - 1) / bracket
        total += term
        if abs(term) < t.tail_tol * max(1.0, abs(total)):
            return total
    raise TruncationError(
        f"E_phi tail still {abs(term):.3g} after {t.max_terms} terms "
        "(series domain is |z| < phi^2)")


def e_phi_product(z: complex, t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Euler product prod_{n>=0} (1 + z/phi^(n+2)) for e_phi.

    Zeros sit exactly at z = -phi^(n+2); the factored form keeps them explicit.
    """
    total: complex = 1.0
    scale = 1.0 / PHI**2
    for _ in range(t.max_terms):
        total *= 1.0 + z * scale
        scale /= PHI
        if abs(z) * scale < t.tail_tol:
            return total
    raise TruncationError(
        f"e_phi_product factor still {abs(z) * scale:.3g} after {t.max_terms} factors")


def ln_phi(z: complex, k: int = 1, form: str = "pole_sum",
           t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Phi-logarithm Ln at base phi^k, of argument 1 + z.

    form "series":   sum (-1)^(n-1) z^n / [n]_{phi^k}, valid for |z| < phi^k.
    form "pole_sum": (phi^k - 1) * sum z / (phi^(k n) + z), valid everywhere
                     away from the simple poles z = -phi^(k n).
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if form == "series":
        if abs(z) >= PHI**k:
            raise ValueError(f"series form requires |z| < phi^{k}, got |z|={abs(z):.6g}")
        total: complex = 0.0
        power: complex = 1.0
        bracket = 0.0
        q = PHI**k
        for n in range(1, t.max_terms + 1):
            bracket = q * bracket + 1.0
            power *= -z
            term = -power / bracket
            total += term
            if abs(term) < t.tail_tol * max(1.0, abs(total)):
                return total
        raise TruncationError(
            f"ln_phi series tail still {abs(term):.3g} after {t.max_terms} terms")
    if form == "pole_sum":
        total = 0.0
        q = PHI**k
        pole = q
        for n in range(1, t.max_terms + 1):
            den = pole + z
            if abs(den) < POLE_MARGIN * pole:
                raise ValueError(
                    f"argument within {POLE_MARGIN:.1g} (relative) of pole z = -phi^{k * n}")
            term = z / den
            total += term
            if abs(term) < t.tail_tol * max(1.0, abs(total) + 1.0):
                return (q - 1.0) * total
            pole *= q
        raise TruncationError(
            f"ln_phi pole_sum tail still {abs(term):.3g} after {t.max_terms} terms")
    raise ValueError(f"form must be 'series' or 'pole_sum', got {form!r}")


@dataclass(frozen=True)
class GoldenAnalyticFunction:
    """Power-basis coefficients a_n promoted to a level-k golden analytic function.

    Evaluation replaces x^n by the golden binomial (x + i y)^n at level k; the
    real and imaginary parts u, v then satisfy the golden Cauchy-Riemann pair
    with mixed levels (k, -k).
    """

    coeffs: tuple[complex, ...]
    k: int = 1

    def __post_init__(self) -> None:
        if self.k == 0:
            raise ValueError("k must be nonzero")


def golden_analytic_eval(g: GoldenAnalyticFunction, x: float, y: float) -> tuple[float, float]:
    """(u, v) with u + iv = sum a_n * (x + i y)^n at binomial level k."""
    total = 0j
    for n, a in enumerate(g.coeffs):
        if a == 0:
            continue
        total += a * golden_binomial_eval(golden_binomial(n, g.k), x, 1j * y)
    return total.real, total.imag
