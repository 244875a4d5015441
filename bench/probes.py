"""Scalar probes: microseconds per call of goldcalc's public functions.

Each probe calls one function on fixed inputs, once to warm up, then in
batches; the reported value is the median batch time per call.  The inputs
are constants, not seeded, so the probes read the same on every workload.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

BATCH_SECONDS = 0.02   # a batch repeats the call until it lasts about this long
BATCHES = 5


def _state(dynamics, n: int):
    """A fixed n-vortex state spread over the k = 1 annulus, mixed circulations."""
    radii = (1.06, 1.12, 1.18, 1.23)
    pos = tuple(radii[i % 4] * cmath.exp(1j * (0.3 + 2 * math.pi * i / n)) for i in range(n))
    gammas = tuple(1.0 - 0.35 * (i % 3) for i in range(n))
    return dynamics.VortexState(pos, gammas)


def probe_calls() -> dict:
    """Metric name -> zero-argument callable."""
    from goldcalc import combinatorics, dynamics, functions, hydro, operators, ring

    z0 = 1.15 * cmath.exp(0.4j)
    z = 1.2 * cmath.exp(2.0j)
    system = hydro.ImageSystem(z0, 1.0, hydro.AnnulusSpec(1))
    kappa = -1.0 / (2 * math.pi)
    poly = operators.Polynomial([1.0, -0.5, 0.25, 0.125])
    calls = {
        "hydro.stream_function_us": lambda: hydro.stream_function(system, z),
        "hydro.vortex_velocity_us": lambda: hydro.vortex_velocity(system, z),
        "hydro.velocity_via_ln_phi_us": lambda: hydro.velocity_via_ln_phi([(z0, kappa)], z),
        "hydro.potential_via_e_phi_us": lambda: hydro.potential_via_e_phi([(z0, kappa)], z),
    }
    for n in (1, 3, 10, 30):
        st = _state(dynamics, n)
        calls[f"dynamics.n_vortex_rhs_us.n{n}"] = lambda st=st: dynamics.n_vortex_rhs(st)
        calls[f"dynamics.hamiltonian_us.n{n}"] = lambda st=st: dynamics.hamiltonian(st)
    zl = 1.18 * cmath.exp(0.9j)
    zs = 1.07 * cmath.exp(2.1j)
    calls.update({
        "dynamics.green_function_us": lambda: dynamics.green_function(zs, zl),
        "dynamics.ring_frequency_us":
            lambda: dynamics.ring_frequency(16, dynamics.GEOMETRIC_MEAN_RADIUS, 1.0),
        "dynamics.semiclassical_energy_us": lambda: dynamics.semiclassical_energy(3, 1.0),
        "functions.golden_exp_us": lambda: functions.golden_exp(0.7, 1),
        "functions.e_phi_us": lambda: functions.e_phi(0.5 + 0.3j),
        "functions.e_phi_product_us": lambda: functions.e_phi_product(0.5 + 0.3j),
        "functions.ln_phi_series_us": lambda: functions.ln_phi(0.4 + 0.2j, 1, "series"),
        "functions.ln_phi_pole_sum_us": lambda: functions.ln_phi(0.4 + 0.2j, 1, "pole_sum"),
        "ring.fib_divisor_us": lambda: ring.fib_divisor(500, 7),
        "ring.golden_pow_us": lambda: ring.golden_pow(100),
        "combinatorics.golden_binomial_us": lambda: combinatorics.golden_binomial(20, 2),
        "operators.golden_derivative_numeric_us":
            lambda: operators.golden_derivative_numeric(poly, 0.7, 1),
    })
    return calls


def time_call(fn, batches: int = BATCHES, batch_seconds: float = BATCH_SECONDS) -> float:
    """Median microseconds per call over `batches` batches, after one warm-up call."""
    start = time.perf_counter()
    fn()
    reps = max(1, int(batch_seconds / max(time.perf_counter() - start, 1e-7)))
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return statistics.median(per_call) * 1e6


def run_probes(reduced: bool = False) -> dict[str, float]:
    batches, seconds = (1, 0.0) if reduced else (BATCHES, BATCH_SECONDS)
    return {name: time_call(fn, batches, seconds) for name, fn in probe_calls().items()}
