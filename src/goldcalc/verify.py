"""Invariant suites behind `goldcalc verify` and the acceptance tests.

Each suite returns a list of CheckResult records; a suite passes when every
check does.  A check is exact (an identity in the integers or Z[phi]) or
measured: a measured check passes when its error stays strictly below the
one bound stated with it, and its record carries that value and bound, or
for a check of several quantities the one nearest its bound.  All
randomized checks draw from a caller-seeded generator so runs are
reproducible.  Convergence ("monotone decay") checks stop enforcing strict
decrease once values fall to NOISE_FLOOR, where double-precision rounding
dominates and ordering is meaningless.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from goldcalc import dynamics, hydro
from goldcalc.combinatorics import (
    fibonomial,
    golden_binomial,
    golden_binomial_product_coeffs,
    golden_binomial_scaled_coeffs,
)
from goldcalc.functions import (
    GoldenAnalyticFunction,
    e_phi,
    e_phi_product,
    golden_analytic_eval,
    golden_exp,
    ln_phi,
)
from goldcalc.operators import (
    Polynomial,
    golden_derivative_numeric,
    golden_derivative_poly,
    translate,
)
from goldcalc.ring import (
    PHI,
    PHI_PRIME,
    GoldenExact,
    fib_divisor,
    fib_divisor_recursion,
    fibonacci,
    golden_pow,
)

NOISE_FLOOR = 1e-12
SUITE_NAMES = ("ring", "calculus", "functions", "hydro", "dynamics")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float | None = None  # None for an exact check
    bound: float | None = None


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _bounded(name: str, *measured: tuple[str, float, float], ok: bool = True) -> CheckResult:
    """A measured check: each (text, value, bound) passes when value < bound.

    The comparison is strict, so NaN fails.  The record keeps the quantity
    nearest its bound (a failing one first) and prints every quantity's text
    followed by its bound.  `ok` carries an exact condition that the same
    check also requires.
    """
    passed = ok and all(value < bound for _, value, bound in measured)
    _, value, bound = max(measured, key=lambda m: m[1] / m[2] if m[1] < m[2] else math.inf)
    detail = ", ".join(f"{t} (bound {b:g})" for t, _, b in measured)
    return CheckResult(name, passed, detail, float(value), bound)


def _worst(pairs) -> float:
    return max(pairs) if pairs else 0.0


# --------------------------------------------------------------------------
# ring

def suite_ring(rng: np.random.Generator) -> list[CheckResult]:
    out = []

    errs = []
    for n in range(-60, 61):
        exact = golden_pow(n).to_real()
        direct = PHI**n
        errs.append(abs(exact - direct) / abs(direct))
    worst = _worst(errs)
    out.append(_bounded("golden_pow matches floating powers, |n| <= 60",
                        (f"worst rel {worst:.2e}", worst, 1e-12)))

    bad = [(k, n) for k in range(1, 13) for n in range(1, 31)
           if fib_divisor(n, k) != fib_divisor_recursion(n, k)]
    out.append(_check("fib_divisor division == recursion, k<=12 n<=30",
                      not bad, f"{len(bad)} mismatches"))

    bad = [(k, n) for k in range(1, 21) for n in range(1, 21)
           if fibonacci(k * n) % fibonacci(k) != 0]
    out.append(_check("F_k divides F_{k n}, k,n <= 20", not bad, f"{len(bad)} failures"))

    ok = True
    for _ in range(200):
        x = GoldenExact(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
        y = GoldenExact(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
        if (x * y).conjugate() != x.conjugate() * y.conjugate():
            ok = False
        if (x * x.conjugate()).b != 0 or (x + x.conjugate()).b != 0:
            ok = False
    out.append(_check("conjugation is a ring homomorphism; norm/trace rational", ok, ""))
    return out


# --------------------------------------------------------------------------
# calculus (combinatorics + operators)

def _scaled_product(u, v):
    out = [GoldenExact(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def suite_calculus(rng: np.random.Generator) -> list[CheckResult]:
    out = []

    ok = True
    coeffs = functools.cache(golden_binomial_scaled_coeffs)  # each (n, k, scale) once per check
    for k in (1, 2, 3):
        for n in range(0, 7):
            for m in range(0, 7):
                lhs = coeffs(n + m, k, GoldenExact(1))
                r1 = _scaled_product(coeffs(n, k, golden_pow(k * m)),
                                     coeffs(m, k, golden_pow(k * n).conjugate()))
                r2 = _scaled_product(coeffs(n, k, golden_pow(k * m).conjugate()),
                                     coeffs(m, k, golden_pow(k * n)))
                if lhs != r1 or lhs != r2:
                    ok = False
    out.append(_check("golden binomial factorization rule, both orderings", ok, ""))

    ok = True
    for k in (1, 2, 3, -1, -2):
        for n in range(0, 9):
            prod = golden_binomial_product_coeffs(n, k)
            expand = golden_binomial(n, k).coeffs
            if any(p.b != 0 or p.a != c for p, c in zip(prod, expand)):
                ok = False
    out.append(_check("binomial coefficients integral; product == expansion", ok, ""))

    ok = all(fibonomial(n, m, k) == fibonomial(n, n - m, k)
             for k in (1, 2, 3) for n in range(0, 10) for m in range(0, n + 1))
    out.append(_check("fibonomial symmetry m <-> n-m", ok, ""))

    worst = 0.0
    worst_q = 0.0
    for _ in range(100):
        f = Polynomial(rng.uniform(-1, 1, size=rng.integers(1, 6)))
        g = Polynomial(rng.uniform(-1, 1, size=rng.integers(1, 6)))
        k = int(rng.integers(1, 4))
        x = float(rng.uniform(0.2, 2.0))
        df = golden_derivative_numeric(f, x, k)
        dg = golden_derivative_numeric(g, x, k)
        gp, gq = g(PHI**k * x), g(PHI_PRIME**k * x)
        lhs = golden_derivative_numeric(lambda s: f(s) * g(s), x, k)
        rhs = df * gp + f(PHI_PRIME**k * x) * dg
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        if abs(gp * gq) > 0.1:
            lhs_q = golden_derivative_numeric(lambda s: f(s) / g(s), x, k)
            rhs_q = (df * gp - f(PHI**k * x) * dg) / (gp * gq)
            worst_q = max(worst_q, abs(lhs_q - rhs_q) / max(1.0, abs(lhs_q)))
    out.append(_bounded("Leibniz rule on random polynomial pairs",
                        (f"worst rel {worst:.2e}", worst, 1e-10)))
    out.append(_bounded("quotient rule where denominator is safe",
                        (f"worst rel {worst_q:.2e}", worst_q, 1e-10)))

    worst = 0.0
    for _ in range(40):
        p = Polynomial(rng.uniform(-1, 1, size=rng.integers(2, 7)))
        k = int(rng.integers(1, 4))
        x = float(rng.uniform(0.2, 1.5))
        sym = golden_derivative_poly(p, k)(x)
        num = golden_derivative_numeric(p, x, k)
        worst = max(worst, abs(sym - num) / max(1.0, abs(sym)))
    out.append(_bounded("symbolic and numeric golden derivatives agree",
                        (f"worst rel {worst:.2e}", worst, 1e-11)))

    f1 = lambda x: math.sin(2 * math.pi * math.log(abs(x)) / math.log(PHI))
    samples = [0.3, 0.7, 1.1, 1.9, 2.6, -0.8, -1.5]
    worst = max(abs(golden_derivative_numeric(f1, x, k)) for k in (1, 2, 3) for x in samples)
    out.append(_bounded("level-1 periodic function stays periodic at k = 2, 3",
                        (f"worst {worst:.2e}", worst, 1e-9)))

    ok = True
    for _ in range(20):
        p = Polynomial(rng.uniform(-1, 1, size=rng.integers(1, 7)))
        k = int(rng.integers(1, 4))
        if translate(p, 0.0, k) != p:
            ok = False
    out.append(_check("translate by zero is the identity, exactly", ok, ""))
    return out


# --------------------------------------------------------------------------
# functions

def binomial_power_series(x: float, y: float, k: int) -> float:
    """sum_n (x + y)^n_F / F_n^(k)! expanded termwise as
    sum_{m<=n} sign * x^(n-m) y^m / (F_m^(k)! F_{n-m}^(k)!).

    Inverse factorials are carried as floats, so the huge fibonomial integers
    never materialize.  The stopping rule uses the absolute-value bound of each
    degree-n term, which cannot cancel; the sum ends at degree 60 at the latest.
    """
    inv_fact = [1.0]
    for i in range(1, 61):
        inv_fact.append(inv_fact[-1] / fib_divisor(i, k))
    total = 0.0
    for n in range(len(inv_fact)):
        term = 0.0
        bound = 0.0
        for m in range(n + 1):
            sign = -1.0 if (k * (m * (m - 1) // 2)) % 2 else 1.0
            piece = x ** (n - m) * y**m * inv_fact[m] * inv_fact[n - m]
            term += sign * piece
            bound += abs(piece)
        total += term
        if n > 4 and bound < 1e-18:
            break
    return total


def _cr_residuals(coeffs, k: int) -> tuple[float, float]:
    g = GoldenAnalyticFunction(tuple(coeffs), k)
    u = lambda x, y: golden_analytic_eval(g, x, y)[0]
    v = lambda x, y: golden_analytic_eval(g, x, y)[1]
    # the 20 grid points as arrays, each derivative one elementwise call
    x, y = (a.ravel() for a in np.meshgrid((-1.1, -0.7, 0.3, 0.9, 1.2), (-0.8, -0.4, 0.5, 1.0),
                                           indexing="ij"))
    dxu = golden_derivative_numeric(lambda s: u(s, y), x, k)
    dyv = golden_derivative_numeric(lambda s: v(x, s), y, -k)
    dyu = golden_derivative_numeric(lambda s: u(x, s), y, -k)
    dxv = golden_derivative_numeric(lambda s: v(s, y), x, k)
    worst_cr = float(np.max(np.maximum(np.abs(dxu - dyv), np.abs(dyu + dxv))))
    worst_lap = 0.0
    for w in (u, v):
        dxx = golden_derivative_numeric(
            lambda s: golden_derivative_numeric(lambda r: w(r, y), s, k), x, k)
        dyy = golden_derivative_numeric(
            lambda s: golden_derivative_numeric(lambda r: w(x, r), s, -k), y, -k)
        worst_lap = max(worst_lap, float(np.max(np.abs(dxx + dyy))))
    return worst_cr, worst_lap


def suite_functions(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    worst = 0.0
    for lam in (0.3, 1.0):
        for k in (1, 2):
            for x in (0.1, 0.4, 0.7, 1.0):
                f = lambda s: golden_exp(lam * s, k, "e")
                lhs = golden_derivative_numeric(f, x, k)
                rhs = lam * golden_exp(lam * x, k, "e")
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(_bounded("golden exponential eigenfunction property",
                        (f"worst rel {worst:.2e}", worst, 1e-9)))

    worst = 0.0
    for lam in (0.3, 1.0):
        for k in (1, 2):
            sgn = -1 if k % 2 else 1
            for x in (0.1, 0.5, 1.0):
                f = lambda s: golden_exp(lam * s, k, "E")
                lhs = golden_derivative_numeric(f, x, k)
                rhs = lam * golden_exp(sgn * lam * x, k, "E")
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(_bounded("E-exponential derivative property",
                        (f"worst rel {worst:.2e}", worst, 1e-9)))

    # the e-variable fills the first binomial slot, the E-variable the second
    # (sign-collecting) one; writing the slots the other way round breaks the
    # identity for odd k
    worst = 0.0
    for k in (1, 2, 3):
        for x in (-0.5, -0.2, 0.3, 0.5):
            for y in (-0.4, 0.25, 0.5):
                lhs = golden_exp(x, k, "E") * golden_exp(y, k, "e")
                rhs = binomial_power_series(y, x, k)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(_bounded("E(x) e(y) equals the golden-binomial series",
                        (f"worst rel {worst:.2e}", worst, 1e-9)))

    worst_cr = 0.0
    worst_lap = 0.0
    for k in (1, 2):
        coeffs = rng.uniform(-1, 1, size=7)
        cr, lap = _cr_residuals(coeffs, k)
        worst_cr = max(worst_cr, cr)
        worst_lap = max(worst_lap, lap)
    out.append(_bounded("golden Cauchy-Riemann residuals",
                        (f"worst {worst_cr:.2e}", worst_cr, 1e-8)))
    out.append(_bounded("golden Laplace residuals",
                        (f"worst {worst_lap:.2e}", worst_lap, 1e-7)))

    worst = 0.0
    for _ in range(200):
        z = cmath.rect(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi)))
        worst = max(worst, abs(e_phi(z) - e_phi_product(z)))
    out.append(_bounded("Euler identity: e_phi series vs product on |z| <= 1",
                        (f"worst {worst:.2e}", worst, 1e-10)))

    worst = 0.0
    for k in (1, 2):
        for _ in range(60):
            z = cmath.rect(float(rng.uniform(0, 0.9)), float(rng.uniform(0, 2 * math.pi)))
            worst = max(worst, abs(ln_phi(z, k, "series") - ln_phi(z, k, "pole_sum")))
    out.append(_bounded("ln_phi series vs pole sum, k in {1,2}, |z| <= 0.9",
                        (f"worst {worst:.2e}", worst, 1e-9)))
    return out


# --------------------------------------------------------------------------
# hydro

def _boundary_std(sys: hydro.ImageSystem, radius: float) -> float:
    th = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    return float(np.std(hydro.stream_function(sys, radius * np.exp(1j * th))))


def boundary_decay(k: int):
    """psi std-dev per boundary circle at N = 10, 20, 40, 80, for unit circulation."""
    outer = PHI ** (k / 2)
    z0 = (1 + 0.4 * (outer - 1)) * cmath.exp(0.6j)
    stds = {}
    for circle in ("inner", "outer"):
        radius = 1.0 if circle == "inner" else outer
        seq = []
        for n in (10, 20, 40, 80):
            sys = hydro.ImageSystem(z0, 1.0, hydro.AnnulusSpec(k, n))
            seq.append(_boundary_std(sys, radius))
        stds[circle] = seq
    return stds


def monotone_until_floor(seq) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]) if a > NOISE_FLOOR)


def suite_hydro(rng: np.random.Generator) -> list[CheckResult]:
    out = []

    # the bound is on the N = 80 figure, the last of each sequence
    seqs = {f"k={k} {circle}": seq for k in (1, 2) for circle, seq in boundary_decay(k).items()}
    out.append(_bounded("boundary psi constant per circle, decaying in N",
                        *((f"{c}: " + "/".join(f"{s:.1e}" for s in seq), seq[-1], 1e-6)
                          for c, seq in seqs.items()),
                        ok=all(monotone_until_floor(seq) for seq in seqs.values())))

    worst_f = 0.0
    worst_v = 0.0
    for k in (1, 2):
        n = 80
        ann = hydro.AnnulusSpec(k, n)
        outer = ann.outer_radius
        z0 = (1 + 0.35 * (outer - 1)) * cmath.exp(0.8j)
        sys = hydro.ImageSystem(z0, 1.0, ann)
        sh1 = range(-n - 1, n)
        sh2 = range(-n, n)
        probes = np.array([(1 + f * (outer - 1)) * cmath.exp(1j * a)
                           for f, a in ((0.2, 0.3), (0.5, 2.0), (0.8, 4.4), (0.35, 5.5))])
        base = hydro.vortex_potential(sys, probes, fam1_range=sh1, fam2_range=sh2)
        moved = hydro.vortex_potential(sys, PHI**k * probes)
        worst_f = max(worst_f, float(np.max(np.abs((moved[1:] - moved[0]) - (base[1:] - base[0])))))
        va = hydro.vortex_velocity(sys, PHI**k * probes)
        vb = hydro.vortex_velocity(sys, probes, fam1_range=sh1, fam2_range=sh2)
        worst_v = max(worst_v, float(np.max(np.abs(va - vb / PHI**k))))
    out.append(_bounded("potential golden-periodic (difference comparison, reindexed)",
                        (f"worst {worst_f:.2e}", worst_f, 1e-7)))
    out.append(_bounded("velocity self-similar V(phi^k z) = phi^-k V(z)",
                        (f"worst {worst_v:.2e}", worst_v, 1e-8)))

    ann = hydro.AnnulusSpec(1, 120)
    z0 = 1.14 * cmath.exp(1.1j)
    gamma = 0.8
    sys = hydro.ImageSystem(z0, gamma, ann)
    rho = 0.02
    ts = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    pts = z0 + rho * np.exp(1j * ts)
    # trapezoid rule for the contour integral of V dz around the vortex
    integral = np.sum(hydro.vortex_velocity(sys, pts) * 1j * (pts - z0)) * (2 * math.pi / len(ts))
    err = abs(integral.real - gamma) / abs(gamma)
    out.append(_bounded("circulation around the vortex recovers gamma",
                        (f"rel err {err:.2e}", err, 1e-6)))

    worst = 0.0
    for n in (-2, -1, 0, 1, 2):
        r = PHI ** (n / 2)
        for th in np.linspace(-0.3, math.pi, 16):
            worst = max(worst, abs(hydro.pure_golden_flow(r * cmath.exp(1j * th))[1]))
    worst_p = 0.0
    for th in np.linspace(-0.3, math.pi, 8):
        z = 1.17 * cmath.exp(1j * th)
        worst_p = max(worst_p, abs(hydro.pure_golden_flow(PHI * z)[0]
                                   - hydro.pure_golden_flow(z)[0]))
    out.append(_bounded("pure flow: zero streamlines at r = phi^(n/2), F(phi z) = F(z)",
                        (f"worst psi {worst:.2e}", worst, 1e-12),
                        (f"worst period {worst_p:.2e}", worst_p, 1e-10)))

    a, b = golden_pow(-1), golden_pow(1)
    ok = (b - a == GoldenExact(1) and a * b == GoldenExact(1))
    out.append(_check("symmetric points 1/phi, phi: difference and product equal 1",
                      ok, ""))

    worst = 0.0
    for d in (0.3, 0.5, 0.8):
        for t_val in np.linspace(0.5, 2.0, 7):
            lhs = hydro.wm_fractal(PHI * t_val, d, 60)
            rhs = PHI**d * hydro.wm_fractal(t_val, d, 60)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    out.append(_bounded("WM fractal self-similarity W(phi t) = phi^d W(t)",
                        (f"worst rel {worst:.2e}", worst, 1e-5)))

    kappa = -gamma / (2 * math.pi)
    sys200 = hydro.ImageSystem(z0, gamma, hydro.AnnulusSpec(1, 200))
    zs = []
    while len(zs) < 20:
        r = float(rng.uniform(1.02, math.sqrt(PHI) - 0.02))
        th = float(rng.uniform(0, 2 * math.pi))
        z = r * cmath.exp(1j * th)
        if abs(z - z0) >= 0.1:
            zs.append(z)
    ladder = hydro.vortex_velocity(sys200, np.array(zs))
    worst = max(abs(hydro.velocity_via_ln_phi([(z0, kappa)], z) - v) for z, v in zip(zs, ladder))
    out.append(_bounded("phi-logarithm velocity equals image-sum velocity",
                        (f"worst {worst:.2e}", worst, 1e-7)))

    worst_v, worst_psi, worst_pole = _kernel_against_oracles(rng)
    out.append(_bounded("kernel equals ladder and pole-sum forms",
                        (f"velocity {worst_v:.1e}", worst_v, 1e-10),
                        (f"psi differences {worst_psi:.1e}", worst_psi, 1e-10),
                        (f"pole-sum rhs {worst_pole:.1e}", worst_pole, 1e-10)))

    worst, ann = 0.0, hydro.AnnulusSpec(1)
    for _ in range(10):  # a vortex and two points 0.05 rad or more round from it, so 0.05 or more away
        a0 = rng.uniform(-math.pi, math.pi)
        z0, za, zb = (cmath.rect(rng.uniform(1.01, ann.outer_radius - 0.01), a0 + a)
                      for a in (0.0, *rng.uniform(0.05, 2 * math.pi - 0.05, 2)))
        fa, fb = (hydro.potential_via_e_phi([(z0, -1 / (2 * math.pi))], z) for z in (za, zb))
        psi, _ = hydro.flow(ann, [(z0, 1.0)], np.array([za, zb]))
        worst = max(worst, abs((fa - fb).imag - (psi[0] - psi[1])))
    # measured at most 1.3e-15 over 400 draws (seeds 0-39): the bound leaves about 75x
    out.append(_bounded("explicit potential: Im differences equal flow's psi",
                        (f"worst {worst:.1e}", worst, 1e-13)))
    return out


def _kernel_against_oracles(rng: np.random.Generator) -> tuple[float, float, float]:
    """Worst disagreement of the prime-function kernel with the other forms.

    Velocity (relative) and psi differences against converged image ladders at
    k = 1, 4 (dual series, one and two terms) and 20 (direct product), at
    points within 1e-9 of each wall and one inside; the k = 1 velocity also
    against the phi-logarithm pole sum, and a 2-vortex rhs against pole sums
    plus the single-vortex rotation law.
    """
    worst_v = worst_psi = worst_pole = 0.0
    for k in (1, 4, 20):
        # ladder terms beyond n fall below 1e-40 relative
        ann = hydro.AnnulusSpec(k, math.ceil(40 / (k * math.log10(PHI))) + 1)
        width = ann.outer_radius - 1
        z0 = cmath.rect(1 + width * rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        zs = np.array([cmath.rect(1 + width * f, rng.uniform(0, 2 * math.pi))
                       for f in (1e-9, 0.5, 1 - 1e-9)])
        psi, vel = hydro.flow(ann, [(z0, 0.9)], zs)
        sys = hydro.ImageSystem(z0, 0.9, ann)
        ref_v = hydro.vortex_velocity(sys, zs)
        ref_psi = hydro.stream_function(sys, zs)
        worst_v = max(worst_v, _relative_error(vel, ref_v))
        worst_psi = max(worst_psi, float(np.ptp(psi - ref_psi)))
        if k == 1:
            ref = [hydro.velocity_via_ln_phi([(z0, -0.9 / (2 * math.pi))], complex(z)) for z in zs]
            worst_pole = max(worst_pole, _relative_error(vel, np.array(ref)))
    pos = tuple(cmath.rect(r, rng.uniform(0, 2 * math.pi)) for r in (1.08, 1.2))
    gs = (1.0, -0.6)
    ref = [hydro.velocity_via_ln_phi([(pos[1 - l], -gs[1 - l] / (2 * math.pi))], zl).conjugate()
           + 1j * zl * dynamics.single_vortex_omega(abs(zl), -gs[l] / (2 * math.pi))
           for l, zl in enumerate(pos)]
    rhs = dynamics.n_vortex_rhs(dynamics.VortexState(pos, gs))
    worst_pole = max(worst_pole, _relative_error(rhs, np.array(ref)))
    return worst_v, worst_psi, worst_pole


def _relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


# --------------------------------------------------------------------------
# dynamics

def omega_zero_by_bisection() -> tuple[float, int]:
    """Locate the zero of the rotation frequency at kappa = 1; also count sign changes."""
    kappa = 1.0
    lo, hi = 1.0 + 1e-9, dynamics.ANNULUS.outer_radius - 1e-9
    vals = dynamics.single_vortex_omega(np.linspace(lo, hi, 200), kappa)
    changes = int(np.count_nonzero(vals[:-1] * vals[1:] < 0))
    a, b = lo, hi
    fa = dynamics.single_vortex_omega(a, kappa)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = dynamics.single_vortex_omega(mid, kappa)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-15:
            break
    return 0.5 * (a + b), changes


def suite_dynamics(rng: np.random.Generator) -> list[CheckResult]:
    out = []

    st = dynamics.VortexState((1.1 + 0j,), (1.0,))
    traj = dynamics.integrate(st, dynamics.IntegratorConfig(1e-3, 10000))
    drift = float(np.max(np.abs(np.abs(traj.positions[:, 0]) - 1.1)))
    out.append(_bounded("single-vortex trajectory stays circular over 1e4 steps",
                        (f"radius drift {drift:.2e}", drift, 1e-7)))

    root, changes = omega_zero_by_bisection()
    err = abs(root - dynamics.GEOMETRIC_MEAN_RADIUS)
    out.append(_bounded("omega has a single zero, at the geometric-mean radius",
                        (f"{changes} sign changes, |root - phi^(1/4)| = {err:.2e}", err, 1e-9),
                        ok=changes == 1))

    worst = worst_i = 0.0
    for n_v, pos, gs in (
            (2, (1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7)),
            (3, tuple(1.15 * cmath.exp(1j * (0.5 + 2 * math.pi * l / 3)) for l in range(3)),
             (1.0, 0.8, 1.2))):
        st = dynamics.VortexState(pos, gs)
        h0 = dynamics.hamiltonian(st)
        traj = dynamics.integrate(st, dynamics.IntegratorConfig(1e-3, 10000))
        h1 = dynamics.hamiltonian(dynamics.VortexState(tuple(traj.positions[-1].tolist()), gs))
        worst = max(worst, abs(h1 - h0) / abs(h0))
        # the annulus is invariant under rotation, so I = sum gamma_i |z_i|^2
        # is conserved; its drift is relative to sum |gamma_i| |z_i|^2
        r2 = np.abs(traj.positions[[0, -1]]) ** 2
        worst_i = max(worst_i, abs((r2[1] - r2[0]) @ gs) / (r2[0] @ np.abs(gs)))
    out.append(_bounded("Hamiltonian conserved for 2- and 3-vortex runs",
                        (f"worst rel drift {worst:.2e}", worst, 1e-6)))
    # measured 5.4e-16 (N = 2) and 5.9e-16 (N = 3): the bound leaves 169x
    out.append(_bounded("angular impulse conserved for the same runs",
                        (f"worst rel drift {worst_i:.2e}", worst_i, 1e-13)))

    worst = 0.0
    for r in (1.05, 1.1, dynamics.GEOMETRIC_MEAN_RADIUS, 1.25):
        z0 = r * cmath.exp(0.4j)
        st = dynamics.VortexState((z0,), (1.0,))
        v = dynamics.n_vortex_rhs(st)[0]
        om = dynamics.single_vortex_omega(r, -1.0 / (2 * math.pi))
        worst = max(worst, abs(v - 1j * om * z0))
    out.append(_bounded("single-vortex rhs equals the closed rotation law",
                        (f"worst {worst:.2e}", worst, 1e-7)))

    zl = 1.18 * cmath.exp(0.9j)
    zs = 1.07 * cmath.exp(2.1j)
    sym = abs(dynamics.green_function(zs, zl) - dynamics.green_function(zl, zs))
    wall = np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    outer = float(np.max(np.abs(dynamics.green_function(math.sqrt(PHI) * wall, zl))))
    target = math.log(abs(math.sqrt(PHI) / zl)) / (2 * math.pi)
    inner = float(np.max(np.abs(dynamics.green_function(wall, zl) - target)))
    out.append(_bounded("Green function symmetric with exact boundary values",
                        (f"sym {sym:.1e}", sym, 1e-9),
                        (f"outer {outer:.1e}", outer, 1e-7),
                        (f"inner {inner:.1e}", inner, 1e-7)))
    return out


# --------------------------------------------------------------------------

_SUITES = {
    "ring": suite_ring,
    "calculus": suite_calculus,
    "functions": suite_functions,
    "hydro": suite_hydro,
    "dynamics": suite_dynamics,
}


def run_suite(name: str, seed: int = 12345) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for s in SUITE_NAMES:
            results.extend(run_suite(s, seed))
        return results
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    rng = np.random.default_rng(seed)
    return _SUITES[name](rng)
