"""Vortex motion in the golden annulus 1 < |z| < sqrt(phi).

The velocity of each vortex, the Hamiltonian and the Green function are all
evaluated through the annulus prime function P of `goldcalc.kernel` (k = 1),
for every vortex pair at once as an (N, N) array.  The pair term K(z_l/z_j)
of the velocity already contains the direct Biot-Savart term 1/(z_l - z_j).

The phi-logarithm pole sums (`single_vortex_omega`, `ring_frequency`) stay as
independent closed forms the tests and `verify` compare against.  Image
strengths follow the convention kappa = -Gamma / (2 pi), which makes the
single-vortex right-hand side agree with the uniform-rotation law and makes a
vortex at the geometric-mean radius phi^(1/4) exactly stationary.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from goldcalc import kernel
from goldcalc.ring import PHI

LEVEL = 1  # the annulus 1 < |z| < phi^(LEVEL/2)
SQRT_PHI = math.sqrt(PHI)
GEOMETRIC_MEAN_RADIUS = PHI**0.25
COLLISION_DISTANCE = 1e-6


class VortexEscapeError(RuntimeError):
    def __init__(self, step: int, index: int, z: complex):
        if cmath.isfinite(z):
            msg = f"vortex {index} left the annulus at step {step} (|z| = {abs(z):.6f})"
        else:
            msg = f"vortex {index} position became non-finite at step {step} ({z!r})"
        super().__init__(msg)
        self.step = step
        self.index = index


class VortexCollisionError(RuntimeError):
    def __init__(self, step: int | None, i: int, j: int, dist: float):
        where = f"at step {step}" if step is not None else "during evaluation"
        super().__init__(f"vortices {i} and {j} within {dist:.3g} {where}")
        self.step = step
        self.pair = (i, j)


@dataclass(frozen=True)
class VortexState:
    positions: tuple[complex, ...]
    circulations: tuple[float, ...]
    time: float = 0.0

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.circulations):
            raise ValueError("positions and circulations must have equal length")
        for z, g in zip(self.positions, self.circulations):
            if not (cmath.isfinite(z) and math.isfinite(g)):
                raise ValueError(f"vortex at {z!r} with circulation {g!r} is not finite")
            if not 1.0 < abs(z) < SQRT_PHI:
                raise ValueError(
                    f"vortex at |z| = {abs(z):.6f} outside open annulus (1, sqrt(phi))")

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4: step size and number of steps."""

    dt: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not math.isfinite(self.dt * self.steps):
            raise ValueError("dt * steps overflows")


def _pole_powers(trunc: int) -> np.ndarray:
    return PHI ** np.arange(1, trunc + 1)


def _lnphi_pole(args: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Ln at base phi of (1 + args), pole-sum form, vectorized over args."""
    return (PHI - 1.0) * np.sum(args[..., None] / (poles + args[..., None]), axis=-1)


def single_vortex_omega(r: float, kappa: float, trunc: int = 100) -> float:
    """Angular velocity of one vortex of strength kappa at radius r.

    omega = (phi kappa / r^2) [Ln(1 - r^2) - Ln(1 - phi/r^2)]; zero exactly at
    the geometric-mean radius r = phi^(1/4).
    """
    if not 1.0 < r < SQRT_PHI:
        raise ValueError(f"radius must lie in (1, sqrt(phi)), got {r:.6f}")
    if kappa == 0:
        return 0.0
    poles = _pole_powers(trunc)
    vals = _lnphi_pole(np.array([-(r * r), -PHI / (r * r)]), poles)
    return PHI * kappa / (r * r) * float(vals[0] - vals[1])


def _pair_arguments(zs: np.ndarray) -> np.ndarray:
    """Prime-function arguments (z_i / z_j, z_i conj(z_j)) as a (2, N, N) array.

    The diagonal of the first block, where P has its zero zeta = 1, holds -1
    instead; callers replace what the kernel returns there.
    """
    n = len(zs)
    zeta = np.empty((2, n, n), dtype=complex)
    np.divide(zs[:, None], zs, out=zeta[0])
    np.multiply(zs[:, None], np.conj(zs), out=zeta[1])
    zeta[0].flat[:: n + 1] = -1.0
    return zeta


def _check_collisions(zs: np.ndarray, step: int | None) -> None:
    n = len(zs)
    if n < 2:
        return
    dist = np.abs(zs[:, None] - zs)
    dist.flat[:: n + 1] = np.inf
    if dist.min() < COLLISION_DISTANCE:
        i, j = sorted(divmod(int(dist.argmin()), n))
        raise VortexCollisionError(step, i, j, float(dist[i, j]))


class _Stage(NamedTuple):
    """Positions and circulations of an RK4 stage, as arrays, not validated."""

    positions: np.ndarray
    circulations: np.ndarray


def n_vortex_rhs(state: VortexState | _Stage) -> np.ndarray:
    """dz_l/dt for every vortex, direct pair terms plus all images, as an array.

    conj(dz_l/dt) = sum_j gamma_j / (2 pi i z_l) [K(z_l/z_j) - K(z_l conj z_j) + 1],
    where the j = l term drops K(z_l/z_l), whose regular part vanishes.
    The pair term's relative precision is about 1e-16 / |z_l - z_j|, far
    below the RK4 error for any pair the integrator resolves.  Raises
    VortexCollisionError for a pair closer than COLLISION_DISTANCE.
    """
    zs = np.asarray(state.positions, dtype=complex)
    gammas = np.asarray(state.circulations, dtype=float)
    _check_collisions(zs, None)
    kk = kernel.log_derivative(_pair_arguments(zs), LEVEL)
    pair = kk[0]
    pair.flat[:: len(zs) + 1] = 0.0
    zdot_bar = ((pair - kk[1] + 1) @ gammas) / (2j * math.pi * zs)
    return np.conj(zdot_bar)


@dataclass
class Trajectory:
    states: list[VortexState] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """Rows step,t,vortex_index,x,y for every recorded state."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "t", "vortex_index", "x", "y"])
            for step, st in enumerate(self.states):
                for i, z in enumerate(st.positions):
                    w.writerow([step, repr(st.time), i, repr(z.real), repr(z.imag)])


def integrate(state: VortexState, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 evolution; aborts on boundary escape or near-collision."""
    zs = np.asarray(state.positions, dtype=complex)
    gammas = np.asarray(state.circulations, dtype=float)
    circulations = tuple(state.circulations)

    def scan_events(z_arr: np.ndarray, step: int) -> None:
        radii = np.abs(z_arr)
        outside = ~((1.0 < radii) & (radii < SQRT_PHI))
        if outside.any():
            i = int(np.argmax(outside))
            raise VortexEscapeError(step, i, complex(z_arr[i]))
        _check_collisions(z_arr, step)

    scan_events(zs, 0)
    v0 = n_vortex_rhs(_Stage(zs, gammas))
    vmax = float(np.max(np.abs(v0))) if len(zs) else 0.0
    scale = _min_separation(zs)
    if vmax * cfg.dt > 0.5 * scale:
        raise ValueError(
            f"dt too large: dt*|v|max = {vmax * cfg.dt:.3g} exceeds half the "
            f"smallest separation {scale:.3g}")

    dt = cfg.dt
    traj = Trajectory([state])
    t = state.time
    for step in range(1, cfg.steps + 1):
        k1 = n_vortex_rhs(_Stage(zs, gammas))
        k2 = n_vortex_rhs(_Stage(zs + 0.5 * dt * k1, gammas))
        k3 = n_vortex_rhs(_Stage(zs + 0.5 * dt * k2, gammas))
        k4 = n_vortex_rhs(_Stage(zs + dt * k3, gammas))
        zs = zs + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        scan_events(zs, step)
        traj.states.append(VortexState(tuple(zs.tolist()), circulations, t))
    return traj


def _min_separation(zs: np.ndarray) -> float:
    """Smallest of: pairwise distances and distances to both walls."""
    best = float("inf")
    for i, z in enumerate(zs):
        best = min(best, abs(z) - 1.0, SQRT_PHI - abs(z))
        for j in range(i + 1, len(zs)):
            best = min(best, abs(zs[i] - zs[j]))
    return best


def _pair_log_matrix(zs: np.ndarray) -> np.ndarray:
    """T_ij = ln|z_i - z_j| plus the image terms of the pair, through ln|P|.

    Off the diagonal T_ij = ln|z_j| + ln|P(z_i/z_j)| - ln|P(z_i conj z_j)|
    + ln|z_i conj z_j|; on it the first two terms become 2 ln (p; p)_inf,
    the limit of ln|P(zeta)/(1 - zeta)| at zeta = 1.
    """
    zeta = _pair_arguments(zs)
    lnp = kernel.log_abs_prime(zeta, LEVEL)
    direct = np.log(np.abs(zs)) + lnp[0]
    direct.flat[:: len(zs) + 1] = 2 * kernel.nome(LEVEL).log_euler
    return direct - lnp[1] + np.log(np.abs(zeta[1]))


def hamiltonian(state: VortexState) -> float:
    """Conserved energy: pairwise ln-distance term plus image terms
    (self-terms i = j included), in the gauge of the phi-exponential product
    prod_n (1 + w/phi^(n+2)) over all images."""
    zs = np.asarray(state.positions, dtype=complex)
    gs = np.asarray(state.circulations, dtype=float)
    return float(-(gs @ _pair_log_matrix(zs) @ gs) / (4 * math.pi))


def green_function(z: complex, z_l: complex) -> float:
    """Dirichlet-type Green function of the k=1 annulus.

    Vanishes on the outer circle |z| = sqrt(phi) and equals
    ln|sqrt(phi)/z_l| / (2 pi) on the inner circle; symmetric in its arguments.
    """
    if abs(z - z_l) < COLLISION_DISTANCE:
        raise ValueError("green_function arguments coincide")
    zeta = np.array([z / z_l, z * z_l.conjugate()])
    lnp = kernel.log_abs_prime(zeta, LEVEL)
    pair = math.log(abs(z_l)) + lnp[0] - lnp[1] + math.log(abs(zeta[1]))
    return float(-pair / (2 * math.pi) + math.log(PHI) / (4 * math.pi))


def ring_frequency(n_vortices: int, r: float, gamma: float, trunc: int = 100) -> float:
    """Rotation frequency of n identical vortices on a symmetric ring of radius r.

    At the geometric-mean radius the phi-logarithm terms cancel pairwise and
    the frequency reduces to gamma (n - 1) / (4 pi sqrt(phi)).
    """
    if n_vortices < 1:
        raise ValueError("need at least one vortex")
    if not 1.0 < r < SQRT_PHI:
        raise ValueError(f"radius must lie in (1, sqrt(phi)), got {r:.6f}")
    poles = _pole_powers(trunc)
    total = 0j
    r2 = r * r
    for j in range(1, n_vortices + 1):
        rot = cmath.exp(2j * math.pi * j / n_vortices)
        vals = _lnphi_pole(np.array([-(PHI / r2) * rot, -r2 / rot]), poles)
        total += vals[0] - vals[1]
    omega = gamma / (2 * math.pi * r2) * ((n_vortices - 1) / 2 + PHI * total)
    return float(omega.real)


def semiclassical_energy(n: int, gamma: float) -> float:
    """Quantized single-vortex energy level E_n; finite for every n >= 0.

    E_n = gamma^2/(4 pi) ln|e_phi(-phi h) e_phi(-phi^2/h)| with h = n + 1/2,
    which is gamma^2/(4 pi) (ln|P(h)| - ln h).
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    if gamma == 0:
        return 0.0
    half = n + 0.5
    val = float(kernel.log_abs_prime(half, LEVEL)) - math.log(half)
    return gamma * gamma / (4 * math.pi) * val


def load_initial_conditions(path) -> VortexState:
    """Read a JSON array of {x, y, gamma} records into a VortexState."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("initial conditions must be a non-empty JSON array")
    positions = []
    circulations = []
    for rec in data:
        try:
            positions.append(complex(float(rec["x"]), float(rec["y"])))
            circulations.append(float(rec["gamma"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad initial-condition record {rec!r}") from exc
    return VortexState(tuple(positions), tuple(circulations))
