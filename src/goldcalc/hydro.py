"""Method-of-images flows in golden annular domains.

A vortex at z0 in the annulus 1 < |z| < phi^(k/2) generates two image
ladders: z_n = z0 * phi^(k n) and z*_n = phi^(k n) / conj(z0).  Truncated
sums run over n in [-N, N] for the first ladder and n in [1-N, N] for the
second; that pairing is the one whose limit matches the closed forms built
from e_phi and the phi-logarithm (the alternative of truncating both ladders
symmetrically converges to the same flow plus a spurious circulation around
the inner circle).

The truncated complex potential carries an additive gauge: rescaling
z -> phi^k z shifts it by the exact constant gamma*k*ln(phi)/(2*pi*i), so
potentials should only ever be compared through differences or through the
velocity; the stream function Im F is single-valued and branch-free.

The ladders, like the phi-exponential and phi-logarithm closed forms below,
are expansions of the annulus prime function of `goldcalc.kernel`.  The
production path (`flow`, `field_grid`) evaluates that function in closed
form; the expansions stay as the independent oracles `verify` and the tests
compare it against.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from goldcalc import kernel
from goldcalc.functions import DEFAULT_TRUNCATION, SeriesTruncation, e_phi_product, ln_phi
from goldcalc.ring import PHI

SINGULARITY_EXCLUSION = 1e-9  # closest approach to a singularity the series forms allow
CHUNK = 4096  # points per array pass of field_grid and rows per block of write_csv


class SingularityProximityError(ValueError):
    """Evaluation point too close to a vortex or one of its images."""


@dataclass(frozen=True)
class AnnulusSpec:
    """Golden annulus at level k: inner radius 1, outer radius phi^(k/2)."""

    k: int = 1
    truncation: int = 80

    def __post_init__(self) -> None:
        kernel.check_level(self.k)
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")

    @property
    def inner_radius(self) -> float:
        return 1.0

    @property
    def outer_radius(self) -> float:
        return PHI ** (self.k / 2)

    @property
    def radius_ratio_sq(self) -> float:
        """q = r2^2 / r1^2 = phi^k."""
        return PHI**self.k

    def contains(self, z: complex) -> bool:
        return self.inner_radius < abs(z) < self.outer_radius


@dataclass(frozen=True)
class ImageSystem:
    """A point vortex with circulation gamma inside a golden annulus."""

    z0: complex
    gamma: float
    annulus: AnnulusSpec = AnnulusSpec()

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.z0) and math.isfinite(self.gamma)):
            raise ValueError(f"vortex position and circulation must be finite, "
                             f"got z0 = {self.z0!r}, gamma = {self.gamma!r}")
        if not self.annulus.contains(self.z0):
            raise ValueError(
                f"vortex must sit strictly inside the annulus "
                f"1 < |z| < {self.annulus.outer_radius:.6f}, got |z0| = {abs(self.z0):.6f}")


def _ladders(sys: ImageSystem, fam1_range=None, fam2_range=None):
    """Image ladders z0 phi^(k n) for n in fam1_range and phi^(k n)/conj(z0) for
    n in fam2_range, as arrays; the default ranges are the module's pairing."""
    n = sys.annulus.truncation
    k = sys.annulus.k
    if fam1_range is None:
        fam1_range = range(-n, n + 1)
    if fam2_range is None:
        fam2_range = range(1 - n, n + 1)
    fam1 = sys.z0 * PHI ** (k * np.asarray(fam1_range, dtype=float))
    fam2 = (1.0 / sys.z0.conjugate()) * PHI ** (k * np.asarray(fam2_range, dtype=float))
    return fam1, fam2


def _check_clearance(z: complex, points: np.ndarray) -> None:
    d = np.min(np.abs(points - z))
    if d < SINGULARITY_EXCLUSION:
        raise SingularityProximityError(f"point {z} within {d:.3g} of a singularity "
                                        f"(exclusion {SINGULARITY_EXCLUSION:.3g})")


def vortex_potential(sys: ImageSystem, z: complex, fam1_range=None,
                     fam2_range=None) -> complex:
    """Truncated image-ladder complex potential F(z).

    Defined up to an additive constant; compare differences, or use Im for the
    stream function.  The paired terms are evaluated as single logarithms of
    quotients so that window reindexing is exact in floating point.
    """
    fam1, fam2 = _ladders(sys, fam1_range, fam2_range)
    _check_clearance(z, np.concatenate([fam1, fam2]))
    m = min(len(fam1), len(fam2))
    # pair from the top of both ladders; the leftover fam1 tail enters bare
    logs = np.log((z - fam1[len(fam1) - m:]) / (z - fam2[len(fam2) - m:]))
    total = complex(np.sum(logs))
    for w in fam1[: len(fam1) - m]:
        total += cmath.log(z - w)
    for w in fam2[: len(fam2) - m]:
        total -= cmath.log(z - w)
    return sys.gamma / (2j * math.pi) * total


def stream_function(sys: ImageSystem, z: complex, fam1_range=None,
                    fam2_range=None) -> float:
    """Stream function psi = Im F; single-valued (built from log-moduli only)."""
    return vortex_potential(sys, z, fam1_range, fam2_range).imag


def vortex_velocity(sys: ImageSystem, z: complex, fam1_range=None,
                    fam2_range=None) -> complex:
    """Conjugate velocity V(z) = u - i v of the truncated image system."""
    fam1, fam2 = _ladders(sys, fam1_range, fam2_range)
    _check_clearance(z, np.concatenate([fam1, fam2]))
    total = complex(np.sum(1.0 / (z - fam1)) - np.sum(1.0 / (z - fam2)))
    return sys.gamma / (2j * math.pi) * total


def pure_golden_flow(z: complex) -> tuple[complex, float, complex]:
    """Self-similar annular flow F(z) = z^(2 pi i / ln phi) on the principal branch.

    Returns (F, psi, V) with psi = exp(-2 pi theta / ln phi) sin(2 pi log_phi r)
    and V = dF/dz; the flow repeats exactly under z -> phi z and its zero
    streamlines are the circles r = phi^(n/2).
    """
    if z == 0:
        raise ValueError("z = 0 is the vortex singularity of the pure flow")
    lam = 2j * math.pi / math.log(PHI)
    f = cmath.exp(lam * cmath.log(z))
    r, theta = abs(z), cmath.phase(z)
    psi = math.exp(-2 * math.pi * theta / math.log(PHI)) * math.sin(
        2 * math.pi * math.log(r) / math.log(PHI))
    v = lam * f / z
    return f, psi, v


def wm_fractal(t: float, d: float, t_trunc: int = 60) -> float:
    """Golden Weierstrass-Mandelbrot sum over |n| <= t_trunc of
    (1 - cos(phi^n t)) / phi^(n d); self-similar, W(phi t) = phi^d W(t)."""
    if not 0 < d < 1:
        raise ValueError("fractal parameter d must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    if t_trunc < 1:
        raise ValueError("t_trunc must be >= 1")
    ns = np.arange(-t_trunc, t_trunc + 1, dtype=float)
    return float(np.sum((1.0 - np.cos(PHI**ns * t)) / PHI ** (ns * d)))


def wm_modulation(t: float, d: float, t_trunc: int = 60) -> complex:
    """Scale-periodic modulation A(t) = sum (1 - exp(i phi^n t)) / (phi^(d n) t^d);
    invariant under t -> phi t, with Re A = W(t) / t^d."""
    if not 0 < d < 1:
        raise ValueError("fractal parameter d must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    ns = np.arange(-t_trunc, t_trunc + 1, dtype=float)
    return complex(np.sum((1.0 - np.exp(1j * PHI**ns * t)) / PHI ** (ns * d)) / t**d)


# --- closed forms on the k = 1 annulus (1 < |z| < sqrt(phi)) ---------------

def _ephi_ratio_log(z: complex, zs: complex, t: SeriesTruncation) -> complex:
    num = e_phi_product(-PHI * z / zs, t) * e_phi_product(-PHI * zs / z, t)
    den = (e_phi_product(-PHI * z * zs.conjugate(), t)
           * e_phi_product(-PHI**2 / (z * zs.conjugate()), t))
    return cmath.log(num / den)


def _vortex_clearance(z: complex, zs: complex) -> None:
    ns = np.arange(-60, 61, dtype=float)  # the images within phi^60 of the vortex
    pts = np.concatenate([zs * PHI**ns, (1.0 / zs.conjugate()) * PHI**ns])
    _check_clearance(z, pts)


def potential_via_e_phi(vortices, z: complex,
                        t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Complex potential of vortices (z_s, kappa_s) in the k=1 annulus, written
    through the zeros of the phi-exponential instead of explicit image sums.

    Matches the image-ladder potential up to an additive constant; a vortex of
    circulation Gamma corresponds to kappa = -Gamma / (2 pi).
    """
    total = 0j
    for zs, kappa in vortices:
        if kappa == 0:
            continue
        _vortex_clearance(z, zs)
        total += 1j * kappa * (cmath.log(z - zs) + _ephi_ratio_log(z, zs, t))
    return total


def velocity_via_ln_phi(vortices, z: complex,
                        t: SeriesTruncation = DEFAULT_TRUNCATION) -> complex:
    """Conjugate velocity of vortices (z_s, kappa_s) in the k=1 annulus via four
    phi-logarithms per vortex (pole-sum form, valid across the annulus)."""
    total = 0j
    for zs, kappa in vortices:
        if kappa == 0:
            continue
        _vortex_clearance(z, zs)
        zc = zs.conjugate()
        total += 1j * kappa / (z - zs)
        total += (1j * PHI / z) * kappa * (
            ln_phi(-z / zs, 1, "pole_sum", t)
            - ln_phi(-z * zc, 1, "pole_sum", t)
            + ln_phi(-PHI / (z * zc), 1, "pole_sum", t)
            - ln_phi(-zs / z, 1, "pole_sum", t))
    return total


# --- the production path: the annulus prime function ----------------------

def flow(annulus: AnnulusSpec, vortices, z) -> tuple[np.ndarray, np.ndarray]:
    """Stream function psi and conjugate velocity u - i v at the points z.

    vortices is a sequence of (z0, gamma).  Each vortex contributes

        u - i v = gamma / (2 pi i z) [K(z/z0) - K(z conj(z0)) + 1]
        psi     = -gamma / (2 pi) [ln|P(z/z0)| - ln|P(z conj(z0))| + ln|z|]

    with P and K = zeta P'/P from `goldcalc.kernel`.  This psi equals
    gamma ln|z0| / (2 pi) on the inner circle |z| = 1 and
    gamma ln(|z0|^2 / phi^(k/2)) / (2 pi) on the outer one; it differs from
    the truncated ladder's Im F by a constant.
    """
    z = np.asarray(z, dtype=complex)
    psi = np.zeros(z.shape)
    vel = np.zeros(z.shape, dtype=complex)
    log_r = np.log(np.abs(z))
    for z0, gamma in vortices:
        ImageSystem(z0, gamma, annulus)  # validates the vortex
        if gamma == 0:
            continue
        zeta = np.stack([z / z0, z * np.conj(z0)])
        lnp = kernel.log_abs_prime(zeta, annulus.k)
        kk = kernel.log_derivative(zeta, annulus.k)
        # P(z/z0) carries the factor 1 - z/z0; from the rounded ratio it costs
        # relative precision 1e-16/|z - z0| near the vortex, so swap it for the
        # exact difference: ln|1 - z/z0| -> ln|(z - z0)/z0|, and its share
        # -zeta/(1 - zeta) of K -> z/(z - z0)
        near, dz = zeta[0], z - z0
        lnp_near = lnp[0] - np.log(np.abs(1 - near)) + np.log(np.abs(dz / z0))
        k_near = kk[0] + near / (1 - near) + z / dz
        psi -= gamma / (2 * math.pi) * (lnp_near - lnp[1] + log_r)
        vel += gamma / (2j * math.pi) * (k_near - kk[1] + 1) / z
    return psi, vel


# --- sampled fields ---------------------------------------------------------

def write_csv(path, header: tuple[str, ...], n_rows: int, block) -> None:
    """Write the header, then n_rows rows of comma-joined reprs, CRLF-terminated
    as csv.writer writes them.  block(rows) returns the columns of the row
    slice rows as arrays; it is called for CHUNK rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, CHUNK):
            columns = block(slice(start, min(start + CHUNK, n_rows)))
            text = (map(repr, c.tolist()) for c in columns)
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


@dataclass(eq=False)
class FlowGrid:
    """Sampled stream function and velocity on a cartesian grid.

    x, y, psi, u, v are equal-length float arrays, one entry per kept point.
    """

    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    v: np.ndarray

    FIELDS = ("x", "y", "psi", "u", "v")

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.x, self.y, self.psi, self.u, self.v)

    @property
    def rows(self) -> list[tuple[float, float, float, float, float]]:
        """(x, y, psi, u, v) per kept point, as Python floats."""
        return list(zip(*(c.tolist() for c in self.columns)))

    def __len__(self) -> int:
        return len(self.x)

    def to_csv(self, path) -> None:
        """Header plus one row of float reprs per point."""
        write_csv(path, self.FIELDS, len(self), lambda rows: (c[rows] for c in self.columns))

    def to_json(self, path) -> None:
        data = [dict(zip(self.FIELDS, row)) for row in self.rows]
        with open(path, "w") as fh:
            json.dump(data, fh)


def field_grid(annulus: AnnulusSpec, vortices, resolution: tuple[int, int],
               exclusion: float = 1e-6) -> FlowGrid:
    """Sample psi and (u, v) on an nx-by-ny grid over the annulus bounding box.

    Points outside the open annulus or within `exclusion` of any image are
    dropped.  vortices is a sequence of (z0, gamma); an empty sequence yields
    an all-zero field.  `flow` evaluates the kept points in array passes of
    CHUNK points, which bounds the temporaries.
    """
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    if not 0 <= exclusion < math.inf:
        raise ValueError(f"exclusion must be finite and non-negative, got {exclusion!r}")
    systems = [ImageSystem(z0, gamma, annulus) for z0, gamma in vortices]
    r_out = annulus.outer_radius
    xs = np.linspace(-r_out, r_out, nx)
    ys = np.linspace(-r_out, r_out, ny)
    z = np.empty((ny, nx), dtype=complex)
    z.real = xs
    z.imag = ys[:, None]
    r = np.abs(z)
    keep = (annulus.inner_radius < r) & (r < r_out)
    # an image more than `exclusion` outside the annulus excludes none of its
    # points (the window is twice that wide so that rounding cannot matter);
    # images that overflow to inf or nan at large k fall outside it
    for s in systems:
        with np.errstate(over="ignore", invalid="ignore"):
            images = np.concatenate(_ladders(s))
            radii = np.abs(images)
            near = images[(radii >= 1 - 2 * exclusion) & (radii <= r_out + 2 * exclusion)]
        for w in near:
            keep &= ~(np.abs(w - z) < exclusion)
    z = z[keep]
    psi = np.empty(len(z))
    vel = np.empty(len(z), dtype=complex)
    for start in range(0, len(z), CHUNK):
        part = slice(start, start + CHUNK)
        psi[part], vel[part] = flow(annulus, vortices, z[part])
    return FlowGrid(z.real.copy(), z.imag.copy(), psi, vel.real.copy(), -vel.imag)
