"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything here is deterministic (fixed seeds).
"""

import cmath
import math
import random

import numpy as np

from goldcalc import dynamics, hydro
from goldcalc.combinatorics import golden_binomial_scaled_coeffs
from goldcalc.functions import (
    GoldenAnalyticFunction,
    SeriesTruncation,
    e_phi,
    e_phi_product,
    golden_analytic_eval,
    golden_exp,
    ln_phi,
)
from goldcalc.operators import (
    Polynomial,
    golden_derivative_numeric,
    is_golden_periodic,
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
from goldcalc.verify import binomial_power_series, monotone_until_floor

TIGHT = SeriesTruncation(400, 1e-16)
SQRT_PHI = math.sqrt(PHI)


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_c01_sequence_tables():
    expected = {
        1: [1, 1, 2, 3, 5],
        2: [1, 3, 8, 21, 55],
        3: [1, 4, 17, 72, 305],
        4: [1, 7, 48, 329, 2255],
        5: [1, 11, 122, 1353, 15005],
    }
    got = {k: [fib_divisor(n, k) for n in range(1, 6)] for k in range(1, 6)}
    report(1, got == expected, "25 sequence values, exact")


def test_c02_binet_recursion_equivalence():
    bad = [(k, n) for k in range(1, 13) for n in range(1, 31)
           if fib_divisor(n, k) != fib_divisor_recursion(n, k)]
    report(2, not bad, f"k<=12, n<=30; {len(bad)} mismatches")


def test_c03_divisibility():
    bad = [(k, n) for k in range(1, 21) for n in range(1, 21)
           if fibonacci(k * n) % fibonacci(k) != 0]
    report(3, not bad, f"k,n<=20; {len(bad)} failures")


def test_c04_leibniz_and_quotient_rules():
    rng = random.Random(2024)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        f = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
        g = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
        k = rng.choice([1, 2, 3])
        x = rng.uniform(0.2, 2.0)
        pairs += 1
        df = golden_derivative_numeric(f, x, k)
        dg = golden_derivative_numeric(g, x, k)
        gp, gq = g(PHI**k * x), g(PHI_PRIME**k * x)
        lhs = golden_derivative_numeric(lambda s: f(s) * g(s), x, k)
        rhs = df * gp + f(PHI_PRIME**k * x) * dg
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        if abs(gp * gq) > 0.1:
            lq = golden_derivative_numeric(lambda s: f(s) / g(s), x, k)
            rq = (df * gp - f(PHI**k * x) * dg) / (gp * gq)
            worst = max(worst, abs(lq - rq) / max(1.0, abs(lq)))
    report(4, worst < 1e-10, f"100 random pairs, worst rel {worst:.2e}")


def _ring_poly_mul(u, v):
    out = [GoldenExact(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def test_c05_binomial_factorization():
    ok = True
    for k in (1, 2, 3):
        for n in range(0, 9):
            for m in range(0, 9 - n):
                whole = golden_binomial_scaled_coeffs(n + m, k, GoldenExact(1))
                one = _ring_poly_mul(
                    golden_binomial_scaled_coeffs(n, k, golden_pow(k * m)),
                    golden_binomial_scaled_coeffs(m, k, golden_pow(k * n).conjugate()))
                two = _ring_poly_mul(
                    golden_binomial_scaled_coeffs(n, k, golden_pow(k * m).conjugate()),
                    golden_binomial_scaled_coeffs(m, k, golden_pow(k * n)))
                if whole != one or whole != two:
                    ok = False
    report(5, ok, "n+m <= 8, k <= 3, both orderings, exact")


def test_c06_exponential_identities():
    worst = 0.0
    for lam in (0.3, 1.0):
        for k in (1, 2):
            for x in (0.1, 0.4, 0.7, 1.0):
                f = lambda s: golden_exp(lam * s, k, "e", TIGHT)
                lhs = golden_derivative_numeric(f, x, k)
                rhs = lam * golden_exp(lam * x, k, "e", TIGHT)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    for k in (1, 2, 3):
        for x in (-0.5, 0.3, 0.5):
            for y in (-0.4, 0.25, 0.5):
                lhs = golden_exp(x, k, "E", TIGHT) * golden_exp(y, k, "e", TIGHT)
                rhs = binomial_power_series(y, x, k)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report(6, worst < 1e-9, f"eigenfunction + product identity, worst rel {worst:.2e}")


def test_c07_euler_identity():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(e_phi(z, TIGHT) - e_phi_product(z, TIGHT)))
    report(7, worst < 1e-10, f"200-point sweep on |z| <= 1, worst {worst:.2e}")


def test_c08_ln_phi_series_vs_pole_sum():
    rng = random.Random(8)
    worst = 0.0
    for k in (1, 2):
        for _ in range(100):
            z = cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            worst = max(worst, abs(ln_phi(z, k, "series", TIGHT)
                                   - ln_phi(z, k, "pole_sum", TIGHT)))
    report(8, worst < 1e-9, f"|z| <= 0.9, k in {{1,2}}, worst {worst:.2e}")


def test_c09_cauchy_riemann_and_laplace():
    rng = random.Random(9)
    worst_cr = 0.0
    worst_lap = 0.0
    for k in (1, 2):
        g = GoldenAnalyticFunction(tuple(rng.uniform(-1, 1) for _ in range(7)), k)
        u = lambda x, y: golden_analytic_eval(g, x, y)[0]
        v = lambda x, y: golden_analytic_eval(g, x, y)[1]
        for x in (-1.1, -0.5, 0.4, 0.9, 1.2):
            for y in (-0.8, -0.3, 0.5, 1.0):
                dxu = golden_derivative_numeric(lambda s: u(s, y), x, k)
                dyv = golden_derivative_numeric(lambda s: v(x, s), y, -k)
                dyu = golden_derivative_numeric(lambda s: u(x, s), y, -k)
                dxv = golden_derivative_numeric(lambda s: v(s, y), x, k)
                worst_cr = max(worst_cr, abs(dxu - dyv), abs(dyu + dxv))
                for w in (u, v):
                    dxx = golden_derivative_numeric(
                        lambda s: golden_derivative_numeric(lambda r: w(r, y), s, k), x, k)
                    dyy = golden_derivative_numeric(
                        lambda s: golden_derivative_numeric(lambda r: w(x, r), s, -k), y, -k)
                    worst_lap = max(worst_lap, abs(dxx + dyy))
    report(9, worst_cr < 1e-8 and worst_lap < 1e-7,
           f"CR {worst_cr:.2e} (<1e-8), Laplace {worst_lap:.2e} (<1e-7)")


def test_c10_boundary_streamlines():
    from goldcalc.verify import boundary_decay
    ok = True
    details = []
    for k in (1, 2):
        for circle, seq in boundary_decay(k).items():
            if seq[-1] >= 1e-6 or not monotone_until_floor(seq):
                ok = False
            details.append(f"k={k} {circle} N=80 std {seq[-1]:.1e}")
    report(10, ok, "; ".join(details))


def test_c11_velocity_self_similarity():
    worst = 0.0
    for k in (1, 2):
        n = 80
        ann = hydro.AnnulusSpec(k, n)
        z0 = (1 + 0.35 * (ann.outer_radius - 1)) * cmath.exp(0.8j)
        sys = hydro.ImageSystem(z0, 1.0, ann)
        sh1, sh2 = range(-n - 1, n), range(-n, n)
        for f, a in ((0.2, 0.3), (0.5, 2.0), (0.8, 4.4)):
            z = (1 + f * (ann.outer_radius - 1)) * cmath.exp(1j * a)
            va = hydro.vortex_velocity(sys, PHI**k * z)
            vb = hydro.vortex_velocity(sys, z, fam1_range=sh1, fam2_range=sh2)
            worst = max(worst, abs(va - vb / PHI**k))
    report(11, worst < 1e-8, f"matched truncation, worst {worst:.2e}")


def test_c12_pure_golden_flow():
    worst_psi = 0.0
    for n in (-2, -1, 0, 1, 2):
        r = PHI ** (n / 2)
        for th in np.linspace(-0.3, math.pi, 16):
            worst_psi = max(worst_psi, abs(hydro.pure_golden_flow(r * cmath.exp(1j * th))[1]))
    worst_f = 0.0
    for th in np.linspace(-0.3, math.pi, 8):
        z = 1.17 * cmath.exp(1j * th)
        worst_f = max(worst_f, abs(hydro.pure_golden_flow(PHI * z)[0]
                                   - hydro.pure_golden_flow(z)[0]))
    report(12, worst_psi < 1e-12 and worst_f < 1e-10,
           f"psi at phi^(n/2): {worst_psi:.2e} (<1e-12), F(phi z)-F(z): {worst_f:.2e} (<1e-10)")


def test_c13_wm_self_similarity():
    worst = 0.0
    for d in (0.3, 0.5, 0.8):
        for t in np.linspace(0.5, 2.0, 7):
            lhs = hydro.wm_fractal(PHI * t, d, 60)
            rhs = PHI**d * hydro.wm_fractal(t, d, 60)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(13, worst < 1e-5, f"d in {{0.3,0.5,0.8}}, t in [0.5,2], worst rel {worst:.2e}")


def test_c14_single_vortex_rotation():
    from goldcalc.verify import omega_zero_by_bisection
    root, changes = omega_zero_by_bisection()
    zero_err = abs(root - dynamics.GEOMETRIC_MEAN_RADIUS)
    delta = 1e-4
    w_in = dynamics.single_vortex_omega(1.0 + delta, 1.0)
    w_out = dynamics.single_vortex_omega(SQRT_PHI * (1 - delta), 1.0)
    ratio_err = abs(abs(w_in) / abs(w_out) - PHI)
    report(14, changes == 1 and zero_err < 1e-9 and ratio_err < 1e-3,
           f"zero at phi^(1/4) +- {zero_err:.1e}, boundary ratio off phi by {ratio_err:.1e}")


def test_c15_representation_cross_check():
    rng = random.Random(15)
    z0 = 1.13 * cmath.exp(0.7j)
    gamma = 1.3
    sys200 = hydro.ImageSystem(z0, gamma, hydro.AnnulusSpec(1, 200))
    worst = 0.0
    probes = 0
    while probes < 20:
        z = rng.uniform(1.02, SQRT_PHI - 0.02) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(z - z0) < 0.1:
            continue
        probes += 1
        worst = max(worst, abs(
            hydro.velocity_via_ln_phi([(z0, -gamma / (2 * math.pi))], z, TIGHT)
            - hydro.vortex_velocity(sys200, z)))
    report(15, worst < 1e-7, f"20 interior probes, worst {worst:.2e}")


def test_c16_dynamics_conservation():
    st = dynamics.VortexState((1.1 + 0j,), (1.0,))
    traj = dynamics.integrate(st, dynamics.IntegratorConfig(1e-3, 10000))
    drift_r = np.max(np.abs(np.abs(traj.positions[:, 0]) - 1.1))
    st2 = dynamics.VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)),
                               (1.0, -0.7))
    h0 = dynamics.hamiltonian(st2)
    traj2 = dynamics.integrate(st2, dynamics.IntegratorConfig(1e-3, 10000))
    final = dynamics.VortexState(tuple(traj2.positions[-1].tolist()), st2.circulations)
    drift_h = abs(dynamics.hamiltonian(final) - h0) / abs(h0)
    report(16, drift_r < 1e-7 and drift_h < 1e-6,
           f"radius drift {drift_r:.1e} (<1e-7), H drift {drift_h:.1e} (<1e-6)")


def test_c17_three_ring_rotation():
    n = 3
    r = dynamics.GEOMETRIC_MEAN_RADIUS
    st = dynamics.VortexState(tuple(r * cmath.exp(2j * math.pi * l / n) for l in range(n)),
                              (1.0,) * n)
    traj = dynamics.integrate(st, dynamics.IntegratorConfig(1e-3, 4000))
    angles = np.unwrap(np.angle(traj.positions[:, 0]))
    measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
    expected = 1.0 * (n - 1) / (4 * math.pi * SQRT_PHI)
    rel = abs(measured - expected) / expected
    report(17, rel < 1e-4, f"measured omega {measured:.8f}, rel err {rel:.1e}")


def test_c18_green_function():
    zl = 1.18 * cmath.exp(0.9j)
    z = 1.07 * cmath.exp(2.1j)
    sym = abs(dynamics.green_function(z, zl) - dynamics.green_function(zl, z))
    outer = max(abs(dynamics.green_function(SQRT_PHI * cmath.exp(1j * th), zl))
                for th in np.linspace(0, 2 * math.pi, 64, endpoint=False))
    target = math.log(abs(SQRT_PHI / zl)) / (2 * math.pi)
    inner = max(abs(dynamics.green_function(cmath.exp(1j * th), zl) - target)
                for th in np.linspace(0, 2 * math.pi, 64, endpoint=False))
    report(18, sym < 1e-9 and outer < 1e-7 and inner < 1e-7,
           f"sym {sym:.1e}, outer {outer:.1e}, inner {inner:.1e}")


def test_c19_semiclassical_spectrum():
    vals = [dynamics.semiclassical_energy(n, 1.0) for n in range(21)]
    ok = all(math.isfinite(e) and abs(e) < 1e6 for e in vals)
    report(19, ok, f"E_0..E_20 finite, max |E| = {max(abs(e) for e in vals):.3f}")


def test_c20_periodicity_counterexample():
    f = lambda x: math.sin(math.pi * math.log(abs(x)) / math.log(PHI**2))
    samples = [0.3, 0.7, 1.1, 1.3, 1.9, 2.6, -0.8, -1.5]
    passes_k2 = is_golden_periodic(f, 2, samples, 1e-10)
    fails_k1 = not is_golden_periodic(f, 1, samples, 1e-10)
    report(20, passes_k2 and fails_k1, f"k=2 periodic: {passes_k2}, k=1 periodic: {not fails_k1}")
