"""Golden exponentials and trig parts, phi-numbers, phi-exponentials with the
Euler product, phi-logarithms, and golden analytic functions.

Every series and product stops once a proven bound on what it leaves out is
at most TAIL times its partial sum; there is no truncation option.  It
refuses with ValueError a non-finite argument or partial sum, an argument
outside its domain, and a ratio series that needs more than MAX_TERMS terms,
which happens only near the radius of convergence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain, count

from goldcalc.combinatorics import GoldenBinomial, golden_binomial, golden_binomial_eval
from goldcalc.ring import PHI, TAIL, GoldenExact, fib_divisor, golden_pow

MAX_TERMS = 10_000  # most terms a ratio series may take before it is refused
POLE_MARGIN = 1e-8  # closest relative approach to a pole that ln_phi's pole sum accepts


def _check_finite(name: str, z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValueError(f"{name} needs a finite argument, got {z!r}")


def _ratio_series(name: str, total: complex, ratios, limit: float = 0.0) -> complex:
    """total + t_1 + t_2 + ..., with t_0 = 1 and t_n = t_(n-1) r_n for the
    ratios r_n, whose sizes either never rise or stay below limit.

    So rho = max(|r_(n+1)|, limit) bounds every ratio after r_n, and once
    rho < 1 the terms after t_n sum to at most |t_n| rho/(1 - rho); the sum
    stops when that is at most TAIL times its size."""
    term: complex = 1.0
    ratio, inf = next(ratios), math.inf
    for n, following in zip(range(1, MAX_TERMS + 1), ratios):
        term *= ratio
        total += term
        size = abs(total)
        if not size < inf:
            raise ValueError(f"{name}: the partial sum is not finite after {n} terms")
        rho = abs(following)
        if rho < limit:
            rho = limit
        if rho < 1 and abs(term) * rho <= TAIL * size * (1 - rho):
            return total
        ratio = following
    raise ValueError(f"{name}: the tail bound needs more than {MAX_TERMS} terms "
                     f"(ratio bound {rho:.6g}, near the radius of convergence)")


def _inverse_brackets(q: float):
    """1/[1]_q, 1/[2]_q, ...: [n+1]_q = q [n]_q + 1, taken on the inverses,
    which do not overflow."""
    inverse = 1.0
    while True:
        yield inverse
        inverse /= q + inverse


def golden_exp(x: complex, k: int = 1, variant: str = "e") -> complex:
    """Level-k golden exponential: sum x^n / F_n^(k)!.

    variant "e" is the plain series; variant "E" carries the extra sign
    (-1)^(k n(n-1)/2) and satisfies E(x, k) = e(x, -k).  Both are entire, and
    their ratios x/F_n^(k) never rise in size.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if variant not in ("e", "E"):
        raise ValueError(f"variant must be 'e' or 'E', got {variant!r}")
    _check_finite("golden_exp", x)
    sign = -1 if variant == "E" and k % 2 else 1  # E's ratio n carries (-1)^(k (n - 1))
    # 1/F_n^(k) as int division, which gives 0.0 beyond float range
    return _ratio_series("golden_exp", 1.0,
                         (x * sign ** (n - 1) * (1 / fib_divisor(n, k)) for n in count(1)))


def golden_trig(x: float, k: int = 1, which: str = "cos") -> float:
    """Golden cosine/sine at level k: the real/imaginary part of the level-(-k)
    E-exponential evaluated at i*x."""
    if which not in ("cos", "sin"):
        raise ValueError(f"which must be 'cos' or 'sin', got {which!r}")
    _check_finite("golden_trig", x)
    val = golden_exp(1j * x, -k, "E")
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


def e_phi(z: complex) -> complex:
    """Entire phi-exponential sum z^n / ([n]_phi)!, with falling ratios z/[n]_phi."""
    _check_finite("e_phi", z)
    return _ratio_series("e_phi", 1.0, (z * c for c in _inverse_brackets(PHI)))


def E_phi(z: complex) -> complex:
    """Companion series sum phi^(n(n-1)/2) z^n / ([n]_phi)!.

    Unlike e_phi this one is not entire: its ratios
    z phi^(n-1)/[n]_phi = z (phi - 1)/(phi - phi^(1-n)) fall in size to
    |z|/phi^2, so the series only converges for |z| < phi^2.
    """
    _check_finite("E_phi", z)
    if abs(z) >= PHI**2:
        raise ValueError(f"E_phi converges only for |z| < phi^2, got |z|={abs(z):.6g}")
    return _ratio_series("E_phi", 1.0,
                         (z * (PHI - 1) / (PHI - PHI ** (1 - n)) for n in count(1)))


def e_phi_product(z: complex) -> complex:
    """Euler product prod_{n>=0} (1 + z/phi^(n+2)) for e_phi.

    Zeros sit exactly at z = -phi^(n+2); the factored form keeps them explicit.
    The factors after factor n change the product by a factor within
    expm1(s) ~ s of 1, s = sum_{m>n} |z| phi^-(m+2) = |z| phi^-(n+1).
    """
    _check_finite("e_phi_product", z)
    total: complex = 1.0
    scale, size = 1.0 / PHI**2, abs(z)  # scale = phi^-(n+2)
    while True:
        total *= 1.0 + z * scale
        if size * scale * PHI <= TAIL:  # s after factor n
            break
        scale /= PHI
    if not abs(total) < math.inf:  # a product that overflowed stays inf or nan
        raise ValueError("e_phi_product: the partial product is not finite")
    return total


def ln_phi(z: complex, k: int = 1, form: str = "pole_sum") -> complex:
    """Phi-logarithm Ln at base phi^k, of argument 1 + z.

    form "series":   sum (-1)^(n-1) z^n / [n]_{phi^k}, valid for |z| < phi^k;
                     its ratios -z [n-1]/[n] stay below |z|/max(phi^k, 1).
    form "pole_sum": (phi^k - 1) * sum z / (phi^(k n) + z), valid for k > 0
                     away from the simple poles z = -phi^(k n); once
                     phi^(k n) >= 2|z| the terms after n sum to at most
                     2|z| / (phi^(k n) (phi^k - 1)).
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    _check_finite("ln_phi", z)
    try:
        q = PHI**k
    except OverflowError:
        raise ValueError(f"phi^{k} overflows a double") from None
    size = abs(z)
    if form == "series":
        if size >= q:
            raise ValueError(f"series form requires |z| < phi^{k}, got |z|={size:.6g}")
        ratios = chain([z], (-z / (q + c) for c in _inverse_brackets(q)))  # [n]/[n+1] = 1/(q + 1/[n])
        return _ratio_series("ln_phi series", 0.0, ratios, size / max(q, 1.0))
    if form == "pole_sum":
        if k < 0:
            raise ValueError(f"pole_sum form needs k > 0, got k={k}")
        total = 0.0
        pole = q
        for n in count(1):
            den = pole + z
            if abs(den) < POLE_MARGIN * pole:
                raise ValueError(
                    f"argument within {POLE_MARGIN:.1g} (relative) of pole z = -phi^{k * n}")
            total += z / den
            if pole >= 2 * size and 2 * size / (q - 1) <= TAIL * abs(total) * pole:
                return (q - 1.0) * total
            pole *= q
            if pole == math.inf:
                raise ValueError(f"ln_phi pole sum at |z|={size:.6g} needs poles beyond float range")
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
    # (a_n, golden binomial of degree n) for each nonzero a_n, built once
    binomials: tuple[tuple[complex, GoldenBinomial], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k == 0:
            raise ValueError("k must be nonzero")
        object.__setattr__(self, "binomials", tuple(
            (a, golden_binomial(n, self.k)) for n, a in enumerate(self.coeffs) if a != 0))


def golden_analytic_eval(g: GoldenAnalyticFunction, x: float, y: float) -> tuple[float, float]:
    """(u, v) with u + iv = sum a_n * (x + i y)^n at binomial level k."""
    total = 0j
    for a, binomial in g.binomials:
        total += a * golden_binomial_eval(binomial, x, 1j * y)
    return total.real, total.imag
