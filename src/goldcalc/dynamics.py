"""Vortex motion in the golden annulus 1 < |z| < sqrt(phi), `ANNULUS = kernel.Annulus(1)`.

The velocity of each vortex, the Hamiltonian and the Green function are all
evaluated through the annulus prime function P of `goldcalc.kernel` at its level.
The pair term K(z_l/z_j) of the velocity already contains the direct
Biot-Savart term 1/(z_l - z_j).  The Hamiltonian, which checks the velocity,
takes its ln|P| sums from the same pair block in numpy, on N exponentials.

`integrate` steps l = log z, in which the annulus is the strip
0 < Re l < ln sqrt(phi) and its dilations are translations.  It takes one
np.log, at step 0, which keeps ln|z| exact near |z| = 1, and builds the run's
velocity field dl/dt once (`_velocity_field`, on `kernel.pair_evaluator`),
so a stage takes no log and divides by no z: its escape test is a
comparison on Re l, then N complex exps and the pair sums.  The number of
vortices N chooses how the pairs are summed (`kernel.LIST_MAX_POINTS`, set at
the measured crossover; see `goldcalc.kernel`): up to that N in plain complex
arithmetic, with no numpy call; above it numpy builds the pair block and the
N x N distance matrix, both in blocks of rows.  The RK4 loop is compiled once
per N to straight-line Python (`_run_plan`), with every vortex and stage on
local names around the calls of the field, since the stage records, calls
and lists of a loop over stages cost about as much as the pair sums of a few
vortices.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from goldcalc import hydro, kernel
from goldcalc.ring import PHI

ANNULUS = kernel.Annulus(1)
GEOMETRIC_MEAN_RADIUS = ANNULUS.mean_radius
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
            ANNULUS.check(z)

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


def single_vortex_omega(r, kappa: float):
    """Angular velocity of one vortex of strength kappa at radius r, as a
    float, or elementwise over an array r of radii (an array of its shape).

    omega = (phi kappa / r^2) [Ln(1 - r^2) - Ln(1 - phi/r^2)]; zero exactly at
    the geometric-mean radius r = phi^(1/4).
    """
    rs = np.asarray(r, dtype=float)
    outside = ~((1.0 < rs) & (rs < ANNULUS.outer_radius))
    if outside.any():
        raise ValueError(f"radius must lie in (1, sqrt(phi)), got {rs[outside].flat[0]:.6f}")
    if kappa == 0:
        return np.zeros_like(rs) if rs.ndim else 0.0
    r2 = rs * rs
    vals = _lnphi_pole(np.stack([-r2, -PHI / r2]))
    omega = PHI * kappa / r2 * (vals[0] - vals[1])
    return omega if rs.ndim else float(omega)


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
    step, for ln|z| outside (0, ANNULUS.log_outer_radius), outside the open
    annulus, or a non-finite imaginary part.  Logs that need nothing pass
    unchanged."""
    pi, outer = math.pi, ANNULUS.log_outer_radius
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
    kernel.pair_evaluator at ANNULUS.k, whose numpy block (above
    kernel.LIST_MAX_POINTS vortices) gives an array the list is made of."""
    if len(circulations) > kernel.LIST_MAX_POINTS:
        velocity = kernel.pair_evaluator(np.asarray(circulations, dtype=float), ANNULUS.k)
        return lambda log_z: velocity(log_z).tolist()
    return kernel.pair_evaluator(list(map(float, circulations)), ANNULUS.k)


@lru_cache(maxsize=16)
def _run_plan(n: int):
    """make(field) -> run(l_0, ..., l_{n-1}, closest, steps, dt, positions),
    integrate's RK4 loop for n vortices, compiled once from source that writes
    a step out on local names (logs l_i, stages m_i, velocities ka_i .. kd_i,
    increments d_i).  A later stage l + h k and the step end l + d take
    move = max|x|, x = h k or d, then the exact tests that their running
    bounds do not clear (_principal's fast test inline, whose call wraps or
    raises; the pair check).  The step end lowers the bounds by what move can
    take from them and resets each that could not clear a second such step.
    room, a quarter of the least distance of a log from Re l = 0, from
    Re l = ln sqrt(phi) and from |Im l| = pi, clears move < room: one factor
    2 as a rounded l + x lies within 2|x| of l; the other for the rounding of
    room and move, under 4e-16 of room a step, over 10^15 steps.  closest
    clears while closest - 2 r_out d e^d >= 2 COLLISION_DISTANCE, d = move,
    r_out the outer radius: vortex l moves from z_l to z_l e^(x_l), by at
    most |z_l| |x_l| e^|x_l| < r_out d e^d, and the factor 2 absorbs the
    rounding of both; a step end also takes 2e-15 from closest, above the
    rounding of its update and of closest itself.  d >= 1 never clears
    (exp(d) may overflow), nor does a nan, which max|x| keeps.  So the loop
    raises where, and as, one testing every stage and step end would.
    make binds the field and the annulus constants; _principal and
    _check_pairs are looked up in this module as the loop runs.
    kernel.compile_make registers the source in linecache."""
    points = range(n)

    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.format(i) for i in points)

    def largest(x: str, scale: str) -> list:
        # move = scale max|x_i|, which a nan keeps wherever it stands
        return [f"move = {scale if n == 1 else ''}abs({x}0)",
                *(line for i in points[1:] for line in (
                    f"speed = abs({x}{i})", "if speed > move or speed != speed:", "    move = speed")),
                *([f"move = {scale}move"] if scale and n > 1 else [])] if n else []

    def escape(x: str, step: str) -> list:
        # the exact escape test, where move does not fit in room
        xs = each(x + "{0}")
        inside = each(f"0 < {x}{{0}}.real < outer and -pi < {x}{{0}}.imag <= pi", " and ")
        return ["if not move < room:", f"    if not ({inside}):",
                f"        [{xs}] = _principal([{xs}], {step})"] if n else []

    room = f"room = 0.25 * min({each('l{0}.real, outer - l{0}.real, pi - abs(l{0}.imag)')})"

    def stage(k: str, h: str, out: str) -> list:
        lines = [f"m{i} = l{i} + {h} * {k}{i}" for i in points] + largest(k, h + " * ") + escape("m", "None")
        if n > 1:
            lines += ["if not (move < 1 and closest - drift * move * exp_real(move) >= apart):",
                      f"    _check_pairs([{each('exp(m{0})')}], None)"]
        return lines + [f"[{each(out + '{0}')}] = field([{each('m{0}')}])"]

    logs = each("l{0}")
    body = [f"[{each('ka{0}')}] = field([{logs}])",
            *stage("ka", "half", "kb"), *stage("kb", "half", "kc"), *stage("kc", "dt", "kd"),
            *(f"d{i} = sixth * (ka{i} + 2 * kb{i} + 2 * kc{i} + kd{i})" for i in points),
            *(f"l{i} = l{i} + d{i}" for i in points),
            *largest("d", ""), *(["room = room - move", *escape("l", "step"), "    " + room] if n else []),
            *(["shift = drift * move * exp_real(move) + 2e-15 if move < 1 else inf",
               "closest = closest - shift",
               "if not closest - shift >= apart:",
               f"    closest = _check_pairs([{each('exp(l{0})')}], step)"] if n > 1 else []),
            f"positions[step] = [{logs}]"]
    source = "".join([
        "def make(field):\n",
        "    exp, exp_real, pi, outer = cmath.exp, math.exp, math.pi, ANNULUS.log_outer_radius\n",
        "    drift, apart, inf = 2 * ANNULUS.outer_radius, 2 * COLLISION_DISTANCE, math.inf\n",
        f"    def run({''.join(f'l{i}, ' for i in points)}closest, steps, dt, positions):\n",
        "        half, sixth = 0.5 * dt, dt / 6.0\n",
        *([f"        {room}\n"] if n else []),
        "        for step in range(1, steps + 1):\n",
        *(f"            {line}\n" for line in body),
        "    return run\n"])
    return kernel.compile_make(source, f"<goldcalc.dynamics RK4 run n={n}>", globals())


def n_vortex_rhs(state: VortexState | tuple) -> list[complex]:
    """dz_l/dt of a VortexState, from a velocity field built for this call,
    or dl_l/dt, l = log z, of an RK4 stage, the tuple (log_z, field,
    pairs_clear) that integrate's dt guard and _stage_field pass, from the
    run's field: direct pair terms plus all images, as a list of Python
    complex numbers.  The pair term's relative precision is about
    1e-16 / |z_l - z_j|, far below the RK4 error for any pair it resolves.
    Checks come first, exponentials after: _principal raises
    VortexEscapeError (step None) for a position outside the open annulus or
    non-finite, then VortexCollisionError for a pair closer than
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


_RHS_CODE = n_vortex_rhs.__code__


def _stage_field(field: Callable) -> Callable:
    """The field the loop of _run_plan calls at each RK4 stage: the run's
    field itself, or, where n_vortex_rhs has been replaced by a wrapper (one
    that counts or times its calls), the field called through that wrapper
    as the stage (logs, field, True), so the wrapper sees the 4 stages of
    each step.  The loop has checked the logs and the pairs, so the call
    returns the field's velocities."""
    rhs = n_vortex_rhs
    if getattr(rhs, "__code__", None) is _RHS_CODE:
        return field
    return lambda log_z: rhs((log_z, field, True))


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
    aborts on boundary escape or near-collision.  Step 0 takes the exact
    escape test and pair distances; a later stage or step end takes them,
    before any exponential of a position, where a running lower bound from
    the last exact test, on the logs' margin or the pair distance, no longer
    proves them clear (see _run_plan), so a run aborts where checking every
    stage and step end would.  The dt guard reads the wall distance at
    step 0.  The steps run in the loop _run_plan compiles for N.
    The times are one cumulative sum of dt, which adds in sequence as
    t += dt does.  The logs fill the trajectory and become positions in
    place at the end, as z_0 exp(l - l_0), which keeps row 0 and a still
    vortex bit for bit."""
    z = np.asarray(state.positions, dtype=complex)
    zs = z.tolist()
    field = _velocity_field(state.circulations)
    log_z, closest = _checked_logs(zs, 0), _check_pairs(zs, 0)
    radii = list(map(abs, zs))
    wall = min(min(radii) - 1.0, ANNULUS.outer_radius - max(radii)) if radii else math.inf
    scale = min(wall, closest)
    # dz/dt = z dl/dt
    vmax = max(map(abs, map(operator.mul, zs, n_vortex_rhs((log_z, field, True)))), default=0.0)
    if vmax * cfg.dt > 0.5 * scale:
        raise ValueError(
            f"dt too large: dt*|v|max = {vmax * cfg.dt:.3g} exceeds half the "
            f"smallest separation {scale:.3g}")

    n, dt, steps = len(zs), cfg.dt, cfg.steps
    times = np.full(steps + 1, dt)
    times[0] = 0.0
    np.cumsum(times, out=times)  # adds in sequence, as t += dt does
    positions = np.empty((steps + 1, n), dtype=complex)
    positions[0] = z
    log_0 = np.array(log_z, dtype=complex)
    _run_plan(n)(_stage_field(field))(*log_z, closest, steps, dt, positions)
    rest = positions[1:]
    rest -= log_0
    np.exp(rest, out=rest)
    rest *= z
    return Trajectory(times, positions)


def hamiltonian(state: VortexState) -> float:
    """Conserved energy: pairwise ln-distance term plus image terms
    (self-terms i = j included), in the gauge of the phi-exponential product
    prod_n (1 + w/phi^(n+2)) over all images.

    H = -(1 / 4 pi) sum_ij g_i g_j T_ij with T_ij = ln|z_j| + ln|P(z_i/z_j)|
    - ln|P(z_i conj z_j)| + ln|z_i conj z_j|; on the diagonal the first two
    terms become 2 ln (p; p)_inf (the kernel's pair evaluator on the points'
    logs, `kernel._pair_block`, with its diagonal rule).  A pair closer than
    COLLISION_DISTANCE raises VortexCollisionError (step None) before any log.
    """
    zs, gs = np.asarray(state.positions, dtype=complex), np.asarray(state.circulations, dtype=float)
    _check_pairs(zs.tolist(), None)
    log_z = np.log(zs)
    sums = kernel._pair_block(gs, ANNULUS.k, log=True)(log_z.tolist())
    # the rest of T @ g: ln|z_j| off the diagonal and ln|z_i| + ln|z_j|
    return float(-(gs @ sums + 3 * (log_z.real @ gs) * gs.sum() - (gs * gs) @ log_z.real) / (4 * math.pi))


def green_function(z, z_l: complex):
    """Dirichlet-type Green function of the k=1 annulus, as a float at a field
    point z or elementwise over an array z of field points (an array of its shape).

    Vanishes on the outer circle |z| = sqrt(phi) and equals
    ln|sqrt(phi)/z_l| / (2 pi) on the inner circle; symmetric in its arguments.
    The source point z_l must lie in the open annulus; the field points may
    lie on either wall, and none within COLLISION_DISTANCE of z_l.
    ln|P(z/z_l)| - ln|P(z conj(z_l))| comes from the kernel's evaluator
    `kernel.prime_sums`, with the field points its targets and z_l the source.
    """
    ANNULUS.check(z_l)
    zs = np.asarray(z, dtype=complex)
    if (np.abs(zs - z_l) < COLLISION_DISTANCE).any():
        raise ValueError("green_function arguments coincide")
    lnp, _ = kernel.prime_sums(zs, [z_l], [1.0], ANNULUS.k)
    # a point takes math.log: np.log does not always match its last bit
    pair = 2 * math.log(abs(z_l)) + lnp + (np.log(np.abs(zs)) if zs.ndim else math.log(abs(z)))
    g = (ANNULUS.log_outer_radius - pair) / (2 * math.pi)
    return g if zs.ndim else float(g)


def ring_frequency(n_vortices: int, r: float, gamma: float) -> float:
    """Rotation frequency of n identical vortices on a symmetric ring of radius r.

    At the geometric-mean radius the phi-logarithm terms cancel pairwise and
    the frequency reduces to gamma (n - 1) / (4 pi sqrt(phi)).
    """
    if n_vortices < 1:
        raise ValueError("need at least one vortex")
    if not 1.0 < r < ANNULUS.outer_radius:
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
    """Quantized single-vortex energy level E_n for an integer n >= 0.

    E_n = gamma^2/(4 pi) ln|e_phi(-phi h) e_phi(-phi^2/h)| with h = n + 1/2,
    which is gamma^2/(4 pi) (ln|P(h)| - ln h), with ln|P(h)| from the
    kernel's series of w = exp(2 pi i ln h / lam) (`kernel.log_abs_prime`).
    Raises ValueError for a level that is not a non-negative integer, and
    for an energy that overflows.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"level index must be a non-negative integer, got {n!r}")
    if gamma == 0:
        return 0.0
    energy = gamma * gamma / (4 * math.pi) * (float(kernel.log_abs_prime(n + 0.5, ANNULUS.k)) - math.log(n + 0.5))
    if not math.isfinite(energy):
        raise ValueError(f"energy of level {n} at gamma = {gamma!r} is not finite")
    return energy


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
