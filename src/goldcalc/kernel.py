"""The prime function of the golden annulus, evaluated on numpy arrays.

Every flow quantity of the golden annulus 1 < |z| < phi^(k/2) is built from
one function, the annulus Schottky-Klein prime function (Crowdy & Marshall
2005, Proc. R. Soc. A 461, "Analytical formulae for the Kirchhoff-Routh path
function in multiply connected domains"):

    P(zeta) = (1 - zeta) prod_{n>=1} (1 - p^n zeta)(1 - p^n / zeta),  p = phi^-k.

The image ladders of `hydro`, the phi-logarithm pole sums and the
phi-exponential Euler products are three expansions of ln|P| and of its
logarithmic derivative K(zeta) = zeta P'(zeta) / P(zeta); they stay in the
library as independent oracles.  This module evaluates ln|P| and K directly.

P is a Jacobi theta function of nome p^(1/2).  Jacobi's imaginary
transformation (DLMF §20.7(viii)) rewrites it in the dual nome
Q = exp(-4 pi^2 / lam), lam = k ln(phi).  With L = log(zeta) on the principal
branch, c = cos(2 pi L / lam) and s = sin(2 pi L / lam):

    K(zeta)     = 1/2 + L/lam + (pi/lam) cot(pi L / lam)
                  + (4 pi / lam) sum_n Q^n s / (1 - 2 Q^n c + Q^(2n))
    ln|P(zeta)| = Re[L/2 + L^2/(2 lam) + log sin(pi L / lam)]
                  + sum_n ln|1 - 2 Q^n c + Q^(2n)| + C_k
    C_k         = 2 ln (p; p)_inf - ln(pi / lam) - 2 sum_n ln(1 - Q^n).

Q is 2e-36 at k = 1 and 1e-9 at k = 4, so the dual series needs one or two
terms there.  As k grows Q tends to 1 while p vanishes, and the direct
product in p converges faster; each k uses whichever form needs fewer terms
to push the neglected tail below TAIL.  Per-k constants are computed on first
use and cached; importing this module does no work.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TAIL = 1e-17
PHI = (1 + math.sqrt(5)) / 2
LN_PHI = math.log(PHI)
_LN_INV_TAIL = math.log(1 / TAIL)


class Nome(NamedTuple):
    """Per-k constants: p = phi^-k, lam = -ln p, the dual nome and its terms."""

    lam: float
    p: float
    dual: bool              # evaluate through the dual (Jacobi) series
    q: float                # dual nome exp(-4 pi^2 / lam)
    terms: int              # dual-series terms kept (dual form only)
    log_euler: float        # ln (p; p)_inf = sum_n ln(1 - p^n)
    const: float            # C_k of ln|P| in the dual form


def _log_pochhammer(x: float) -> float:
    """ln prod_{n>=1} (1 - x^n) for 0 <= x < 1, until the rest, about x^n/(1 - x), is below TAIL."""
    total, xn = 0.0, x
    while xn > TAIL * (1 - x):
        total += math.log1p(-xn)
        xn *= x
    return total


def _direct_terms(lam: float, spread: float) -> int:
    """Product factors n = 1..M for arguments with |ln|zeta|| <= spread * lam.

    Factor n differs from 1 by at most p^(n - spread); the first neglected one
    is below TAIL once n > spread + ln(1/TAIL)/lam.
    """
    return max(0, math.ceil(spread + _LN_INV_TAIL / lam))


def check_level(k: int) -> None:
    """Raise ValueError unless k is a positive integer with phi^k a finite double."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"annulus level k must be a positive integer, got {k!r}")
    try:
        PHI**k
    except OverflowError:
        raise ValueError(f"annulus level k = {k} is too large: phi^{k} overflows") from None


@lru_cache(maxsize=64)
def nome(k: int) -> Nome:
    """Constants of the level-k annulus; raises ValueError for an invalid k."""
    check_level(k)
    lam = k * LN_PHI
    p = math.exp(-lam)
    q = math.exp(-4 * math.pi**2 / lam)
    # |Im L| <= pi bounds |c|, |s| by Q^(-1/2), so dual term n is below
    # (4 pi/lam + 2) Q^(n - 1/2), and the tail after M terms below that
    # bound at n = M + 1 divided by (1 - Q)
    scale = (4 * math.pi / lam + 2) / (1 - q)
    terms = 0
    while scale * q ** (terms + 0.5) >= TAIL:
        terms += 1
    # the direct form is sized for the arguments the flows use, |ln|zeta|| <= lam
    dual = terms <= _direct_terms(lam, 1.0)
    log_euler = _log_pochhammer(p)
    const = 2 * log_euler - math.log(math.pi / lam) - 2 * _log_pochhammer(q) if dual else 0.0
    return Nome(lam, p, dual, q, terms, log_euler, const)


def _dual_parts(zeta: np.ndarray, nm: Nome):
    """L = log zeta, sin x and cos x with x = pi L / lam."""
    log_z = np.log(zeta)
    x = (math.pi / nm.lam) * log_z
    return log_z, np.sin(x), np.cos(x)


def _spread(zeta: np.ndarray, nm: Nome) -> float:
    if zeta.size == 0:
        return 0.0
    spread = float(np.max(np.abs(np.log(np.abs(zeta))))) / nm.lam
    if not math.isfinite(spread):
        raise ValueError("prime function arguments must be finite and nonzero")
    return spread


def log_derivative(zeta, k: int) -> np.ndarray:
    """K(zeta) = zeta P'(zeta) / P(zeta), elementwise over a complex array."""
    zeta = np.asarray(zeta, dtype=complex)
    nm = nome(k)
    if nm.dual:
        log_z, sin_x, cos_x = _dual_parts(zeta, nm)
        out = (math.pi / nm.lam) * (cos_x / sin_x)
        out += log_z / nm.lam
        out += 0.5
        if nm.terms:
            # 1 - 2 q c + q^2 = (1 - q)^2 + 4 q sin^2 x and s = 2 sin x cos x
            sin2, sin_cos = sin_x * sin_x, sin_x * cos_x
            for n in range(1, nm.terms + 1):
                qn = nm.q**n
                out += (8 * math.pi / nm.lam * qn) * sin_cos / ((1 - qn) ** 2 + (4 * qn) * sin2)
        return out
    # K = 1 - 1/(1 - zeta) + sum_n [1/(1 - p^n/zeta) - 1/(1 - p^n zeta)]
    terms = _direct_terms(nm.lam, _spread(zeta, nm))
    out = 1 - 1 / (1 - zeta)
    inv = 1 / zeta
    pn = 1.0
    for _ in range(terms):
        pn *= nm.p
        out += 1 / (1 - pn * inv) - 1 / (1 - pn * zeta)
    return out


def log_abs_prime(zeta, k: int) -> np.ndarray:
    """ln|P(zeta)|, elementwise over a complex array (-inf at the zeros zeta = p^m)."""
    zeta = np.asarray(zeta, dtype=complex)
    nm = nome(k)
    if nm.dual:
        log_z, sin_x, _ = _dual_parts(zeta, nm)
        a, b = log_z.real, log_z.imag
        out = a / 2 + (a * a - b * b) / (2 * nm.lam) + np.log(np.abs(sin_x)) + nm.const
        if nm.terms:
            sin2 = sin_x * sin_x
            for n in range(1, nm.terms + 1):
                qn = nm.q**n
                out += np.log(np.abs((1 - qn) ** 2 + (4 * qn) * sin2))
        return out
    terms = _direct_terms(nm.lam, _spread(zeta, nm))
    out = np.log(np.abs(1 - zeta))
    inv = 1 / zeta
    pn = 1.0
    for _ in range(terms):
        pn *= nm.p
        out += np.log(np.abs((1 - pn * zeta) * (1 - pn * inv)))
    return out
