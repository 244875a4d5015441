"""Vortex motion in the golden annulus 1 < |z| < sqrt(phi).

The velocity of each vortex, the Hamiltonian and the Green function are all
evaluated through the annulus prime function P of `goldcalc.kernel` (k = 1).
The pair term K(z_l/z_j) of the velocity already contains the direct
Biot-Savart term 1/(z_l - z_j).  The Hamiltonian, which checks the velocity,
takes ln|P| of all 2 N^2 pair arguments as (N, N) numpy arrays.

`integrate` steps l = log z, in which the annulus is the strip
0 < Re l < ln sqrt(phi) and its dilations are translations.  It takes one
np.log, at step 0, which keeps ln|z| exact near |z| = 1, and builds the run's
velocity field dl/dt once (`_velocity_field`, on `kernel.pair_evaluator`),
so a stage takes no log and divides by no z: its escape test is a
comparison on Re l, then N complex exps and the pair sums.  The number of
vortices N chooses how the pairs are summed (`kernel.LIST_MAX_POINTS`, set at
the measured crossover; see `goldcalc.kernel`): up to that N in plain complex
arithmetic, with no numpy call; above it numpy builds the pair block and the
N x N distance matrix, both in blocks of rows.

The phi-logarithm pole sums (`single_vortex_omega`, `ring_frequency`) stay as
independent closed forms the tests and `verify` compare against.  Image
strengths follow the convention kappa = -Gamma / (2 pi), which makes the
single-vortex right-hand side agree with the uniform-rotation law and makes a
vortex at the geometric-mean radius phi^(1/4) exactly stationary.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from goldcalc import hydro, kernel
from goldcalc.ring import PHI

LEVEL = 1  # the annulus 1 < |z| < phi^(LEVEL/2)
SQRT_PHI = math.sqrt(PHI)
LOG_OUTER_RADIUS = LEVEL * kernel.LN_PHI / 2
GEOMETRIC_MEAN_RADIUS = PHI**0.25
COLLISION_DISTANCE = 1e-6
POLES = PHI ** np.arange(1, 101)  # _lnphi_pole sums the first 100 poles


class VortexEscapeError(RuntimeError):
    def __init__(self, step: int | None, index: int, log_z: complex):
        where = f"at step {step}" if step is not None else "during evaluation"
        if math.isfinite(log_z.imag) and log_z.real < math.inf:  # ln|z| = -inf: z = 0
            r = math.exp(log_z.real) if log_z.real < 709 else math.inf
            msg = f"vortex {index} left the annulus {where} (|z| = {r:.6f})"
        else:
            msg = f"vortex {index} position became non-finite {where} (log z = {log_z!r})"
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


def _lnphi_pole(args: np.ndarray) -> np.ndarray:
    """Ln at base phi of (1 + args), pole-sum form, vectorized over args."""
    return (PHI - 1.0) * np.sum(args[..., None] / (POLES + args[..., None]), axis=-1)


def single_vortex_omega(r: float, kappa: float) -> float:
    """Angular velocity of one vortex of strength kappa at radius r.

    omega = (phi kappa / r^2) [Ln(1 - r^2) - Ln(1 - phi/r^2)]; zero exactly at
    the geometric-mean radius r = phi^(1/4).
    """
    if not 1.0 < r < SQRT_PHI:
        raise ValueError(f"radius must lie in (1, sqrt(phi)), got {r:.6f}")
    if kappa == 0:
        return 0.0
    vals = _lnphi_pole(np.array([-(r * r), -PHI / (r * r)]))
    return PHI * kappa / (r * r) * float(vals[0] - vals[1])


def _check_pairs(zs: list | np.ndarray, step: int | None) -> float:
    """Smallest pair distance of the positions zs (inf for fewer than two
    vortices); raises VortexCollisionError for a pair closer than
    COLLISION_DISTANCE.  Up to kernel.LIST_MAX_POINTS vortices the pairs are
    taken one by one, above that as rows of the N x N distance matrix in
    numpy, in blocks of about kernel.CHUNK entries.  Ties keep the first pair
    in row order, as argmin does."""
    n = len(zs)
    if n < 2:
        return math.inf
    closest = math.inf
    if n <= kernel.LIST_MAX_POINTS:
        for a in range(n - 1):
            z = zs[a]
            for b in range(a + 1, n):
                d = abs(z - zs[b])
                if d < closest:
                    closest, i, j = d, a, b
    else:
        zs = np.asarray(zs, dtype=complex)
        rows = max(1, kernel.CHUNK // n)
        for a in range(0, n, rows):
            dist = np.abs(zs[a:a + rows, None] - zs)
            dist.flat[a :: n + 1] = np.inf  # the entries (a + r, a + r)
            at = int(dist.argmin())
            if dist.flat[at] < closest:
                closest = float(dist.flat[at])
                i, j = sorted(divmod(a * n + at, n))
    if closest < COLLISION_DISTANCE:
        raise VortexCollisionError(step, i, j, closest)
    return closest


def _principal(log_z: list, step: int | None) -> list:
    """The logs log_z, a list of Python complex numbers, with every imaginary
    part on the principal branch (-pi, pi]; raises VortexEscapeError, at this
    step, for ln|z| outside (0, LOG_OUTER_RADIUS), outside the open annulus,
    or a non-finite imaginary part.  Logs that need nothing pass unchanged."""
    pi, outer = math.pi, LOG_OUTER_RADIUS
    for l in log_z:
        if not (0 < l.real < outer and -pi < l.imag <= pi):
            break
    else:
        return log_z
    out = []
    for i, l in enumerate(log_z):
        if not (0 < l.real < outer and math.isfinite(l.imag)):
            raise VortexEscapeError(step, i, l)
        if not -pi < l.imag <= pi:
            a = math.remainder(l.imag, 2 * pi)  # exact, in [-pi, pi]
            l = complex(l.real, pi if a == -pi else a)
        out.append(l)
    return out


def _checked_logs(zs: list, step: int | None) -> list:
    """log z_l of the positions zs on the principal branch, checked by
    _principal, as a list of Python complex numbers from one np.log call,
    which keeps ln|z| exact near |z| = 1 (cmath.log does not)."""
    # np.log warns on 0
    log_z = (np.log(zs).tolist() if 0 not in zs
             else [cmath.log(z) if z else complex(-math.inf) for z in zs])
    return _principal(log_z, step)


def _velocity_field(circulations) -> Callable[[list], list]:
    """The velocity of vortices of these circulations, built once per run: the
    callable log_z -> dl/dt, l = log z, as a list of Python complex numbers,
    for logs the caller has checked and put on the principal branch;
    kernel.pair_evaluator at LEVEL, whose numpy block (above
    kernel.LIST_MAX_POINTS vortices) gives an array the list is made of."""
    if len(circulations) > kernel.LIST_MAX_POINTS:
        velocity = kernel.pair_evaluator(np.asarray(circulations, dtype=float), LEVEL)
        return lambda log_z: velocity(log_z).tolist()
    return kernel.pair_evaluator(list(map(float, circulations)), LEVEL)


def _stage(log_z: list, h: float, k: list, field: Callable, closest: float) -> tuple:
    """The RK4 stage log_z + h k, as the tuple (logs, field, pairs_clear) that
    n_vortex_rhs takes, of positions whose pairs are at least closest apart.
    Vortex l moves from z_l to z_l e^(h k_l), so by at most
    |z_l| |h k_l| e^|h k_l| < sqrt(phi) d e^d, d = h max|k|, and every pair
    there is at least closest - 2 sqrt(phi) d e^d apart; pairs_clear says
    that is at least 2 COLLISION_DISTANCE, whose factor 2 absorbs the rounding
    of both.  One loop builds the logs and max|k|.  A non-finite k makes a
    non-finite stage, which the escape check of n_vortex_rhs rejects before
    any pair check."""
    logs, fastest = [], 0.0
    for l, v in zip(log_z, k):
        logs.append(l + h * v)
        speed = abs(v)
        if speed > fastest:
            fastest = speed
    d = h * fastest
    # d >= 1 moves a vortex farther than the annulus is wide, and exp(d) may overflow
    clear = len(k) < 2 or d < 1 and closest - 2 * SQRT_PHI * d * math.exp(d) >= 2 * COLLISION_DISTANCE
    return logs, field, clear


def n_vortex_rhs(state: VortexState | tuple) -> list[complex]:
    """dz_l/dt of a VortexState, from a velocity field built for this call,
    or dl_l/dt, l = log z, of an RK4 stage, the tuple (log_z, field,
    pairs_clear) of _stage, from the run's field: direct pair terms plus all
    images, as a list of Python complex numbers.  The pair term's relative
    precision is about 1e-16 / |z_l - z_j|, far below the RK4 error for any
    pair it resolves.  Checks come first, exponentials after: _principal
    raises VortexEscapeError (step None) for a position outside the open
    annulus or non-finite, then VortexCollisionError for a pair closer than
    COLLISION_DISTANCE (unless pairs_clear says none can be), so a bad stage
    emits no numpy warning."""
    if isinstance(state, VortexState):
        zs = np.asarray(state.positions, dtype=complex).tolist()
        log_z = _checked_logs(zs, None)
        _check_pairs(zs, None)
        return list(map(operator.mul, zs, _velocity_field(state.circulations)(log_z)))
    log_z, field, clear = state
    log_z = _principal(log_z, None)
    if not clear:
        _check_pairs(list(map(cmath.exp, log_z)), None)
    return field(log_z)


@dataclass(eq=False)
class Trajectory:
    """An RK4 run: row s of `positions` (steps + 1, N) is the state at step s,
    reached at time `times[s]`; the run starts at t = 0."""

    times: np.ndarray
    positions: np.ndarray

    def to_csv(self, path, every: int = 1) -> None:
        """Rows step,t,vortex_index,x,y for steps 0, every, 2 every, ... and the
        last step, CRLF-terminated as csv.writer writes them."""
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        last = len(self.times) - 1
        steps = np.arange(0, last + 1, every)
        if steps[-1] != last:
            steps = np.append(steps, last)
        n = self.positions.shape[1]

        def block(rows: slice):
            row = np.arange(rows.start, rows.stop)
            step, vortex = steps[row // n], row % n
            zs = self.positions[step, vortex]
            return step, self.times[step], vortex, zs.real, zs.imag

        hydro.write_csv(path, ("step", "t", "vortex_index", "x", "y"), len(steps) * n, block)


def integrate(state: VortexState, cfg: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 evolution of l = log z, kept on the principal branch;
    aborts on boundary escape or near-collision.  Every stage is
    escape-checked on its logs before any exponential (see n_vortex_rhs).  The
    exact pair distances are taken once per step, on z = exp(l) at its end
    (and at step 0); a later stage checks its pairs only when the distance it
    can have moved leaves no proof that they stay 2 COLLISION_DISTANCE apart
    (see _stage).  The dt guard reads the wall distance at step 0.  The logs
    fill the trajectory and become positions in place at the end, as
    z_0 exp(l - l_0), which keeps row 0 and a still vortex bit for bit."""
    z = np.asarray(state.positions, dtype=complex)
    zs = z.tolist()
    field = _velocity_field(state.circulations)
    log_z, closest = _checked_logs(zs, 0), _check_pairs(zs, 0)
    radii = list(map(abs, zs))
    wall = min(min(radii) - 1.0, SQRT_PHI - max(radii)) if radii else math.inf
    scale = min(wall, closest)
    # dz/dt = z dl/dt
    vmax = max(map(abs, map(operator.mul, zs, n_vortex_rhs((log_z, field, True)))), default=0.0)
    if vmax * cfg.dt > 0.5 * scale:
        raise ValueError(
            f"dt too large: dt*|v|max = {vmax * cfg.dt:.3g} exceeds half the "
            f"smallest separation {scale:.3g}")

    dt, half, sixth, exp = cfg.dt, 0.5 * cfg.dt, cfg.dt / 6.0, cmath.exp
    times = np.empty(cfg.steps + 1)
    positions = np.empty((cfg.steps + 1, len(zs)), dtype=complex)
    times[0], positions[0] = 0.0, z
    t, log_0 = 0.0, np.array(log_z, dtype=complex)
    for step in range(1, cfg.steps + 1):
        k1 = n_vortex_rhs((log_z, field, True))
        k2 = n_vortex_rhs(_stage(log_z, half, k1, field, closest))
        k3 = n_vortex_rhs(_stage(log_z, half, k2, field, closest))
        k4 = n_vortex_rhs(_stage(log_z, dt, k3, field, closest))
        log_z = _principal([a + sixth * (b + 2 * c + 2 * d + e)
                            for a, b, c, d, e in zip(log_z, k1, k2, k3, k4)], step)
        t += dt
        closest = _check_pairs(list(map(exp, log_z)), step)
        times[step], positions[step] = t, log_z
    rest = positions[1:]
    rest -= log_0
    np.exp(rest, out=rest)
    rest *= z
    return Trajectory(times, positions)


def _pair_log_matrix(zs: np.ndarray) -> np.ndarray:
    """T_ij = ln|z_i - z_j| plus the image terms of the pair, through ln|P|.

    Off the diagonal T_ij = ln|z_j| + ln|P(z_i/z_j)| - ln|P(z_i conj z_j)|
    + ln|z_i conj z_j|; on it the first two terms become 2 ln (p; p)_inf,
    the limit of ln|P(zeta)/(1 - zeta)| at zeta = 1.
    """
    zeta = kernel.pair_arguments(zs)
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


def ring_frequency(n_vortices: int, r: float, gamma: float) -> float:
    """Rotation frequency of n identical vortices on a symmetric ring of radius r.

    At the geometric-mean radius the phi-logarithm terms cancel pairwise and
    the frequency reduces to gamma (n - 1) / (4 pi sqrt(phi)).
    """
    if n_vortices < 1:
        raise ValueError("need at least one vortex")
    if not 1.0 < r < SQRT_PHI:
        raise ValueError(f"radius must lie in (1, sqrt(phi)), got {r:.6f}")
    total = 0j
    r2 = r * r
    for j in range(1, n_vortices + 1):
        rot = cmath.exp(2j * math.pi * j / n_vortices)
        vals = _lnphi_pole(np.array([-(PHI / r2) * rot, -r2 / rot]))
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
    for index, rec in enumerate(data):
        # name the record and the key, not the value, which may be 400 digits long
        if not isinstance(rec, dict):
            raise ValueError(f"record {index}: not an object")
        values = []
        for key in ("x", "y", "gamma"):
            if key not in rec:
                raise ValueError(f"record {index}: no {key!r}")
            try:
                values.append(float(rec[key]))
            except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
                raise ValueError(f"record {index}: {key!r} is not a float") from None
        positions.append(complex(values[0], values[1]))
        circulations.append(values[2])
    return VortexState(tuple(positions), tuple(circulations))
