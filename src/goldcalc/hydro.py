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
import math
from dataclasses import dataclass

import numpy as np

from goldcalc import kernel
from goldcalc.ring import PHI

SINGULARITY_EXCLUSION = 1e-9  # closest approach to a singularity the series forms allow
CHUNK = kernel.CHUNK  # points per array pass of field_grid and rows per block of the file writers


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


def _check_clearance(z, points: np.ndarray) -> None:
    """Raise SingularityProximityError, naming the first of the points z (a
    point or an array) that lies within SINGULARITY_EXCLUSION of one of points."""
    zs = np.asarray(z, dtype=complex).reshape(-1, 1)
    dist = np.min(np.abs(zs - points), axis=1)
    near = np.flatnonzero(dist < SINGULARITY_EXCLUSION)
    if near.size:
        i = near[0]
        raise SingularityProximityError(f"point {complex(zs[i, 0])} within {dist[i]:.3g} of a "
                                        f"singularity (exclusion {SINGULARITY_EXCLUSION:.3g})")


def vortex_potential(sys: ImageSystem, z, fam1_range=None, fam2_range=None):
    """Truncated image-ladder complex potential F(z), at a point (a complex)
    or at an array of points (an array of their shape), one array pass over
    the points and ladder terms.

    Defined up to an additive constant; compare differences, or use Im for the
    stream function.  The paired terms are evaluated as single logarithms of
    quotients so that window reindexing is exact in floating point.
    """
    fam1, fam2 = _ladders(sys, fam1_range, fam2_range)
    shape, zs = np.shape(z), np.asarray(z, dtype=complex).reshape(-1, 1)
    _check_clearance(zs, np.concatenate([fam1, fam2]))
    m = min(len(fam1), len(fam2))
    # pair from the top of both ladders; the leftover fam1 tail enters bare
    total = np.sum(np.log((zs - fam1[len(fam1) - m:]) / (zs - fam2[len(fam2) - m:])), axis=1)
    total += np.sum(np.log(zs - fam1[: len(fam1) - m]), axis=1)
    total -= np.sum(np.log(zs - fam2[: len(fam2) - m]), axis=1)
    total *= sys.gamma / (2j * math.pi)
    return complex(total[0]) if shape == () else total.reshape(shape)


def stream_function(sys: ImageSystem, z, fam1_range=None, fam2_range=None):
    """Stream function psi = Im F, at a point or an array of points (see
    vortex_potential); single-valued (built from log-moduli only)."""
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


def _wm_orders(t: float, d: float, t_trunc: int) -> np.ndarray:
    """The orders n in [-t_trunc, t_trunc] of a golden Weierstrass-Mandelbrot
    sum, after checking that its largest phase phi^t_trunc t is finite."""
    if not 0 < d < 1:
        raise ValueError("fractal parameter d must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    if t_trunc < 1:
        raise ValueError("t_trunc must be >= 1")
    try:  # the largest phase PHI**ns * t of the sums, computed the same way
        finite = math.isfinite(t * PHI**t_trunc)
    except OverflowError:  # PHI**n overflows from n = 1475
        finite = False
    if not finite:
        raise ValueError(f"phase phi^t_trunc t overflows for t = {t!r}, t_trunc = {t_trunc}")
    return np.arange(-t_trunc, t_trunc + 1, dtype=float)


def wm_fractal(t: float, d: float, t_trunc: int = 60) -> float:
    """Golden Weierstrass-Mandelbrot sum over |n| <= t_trunc of
    (1 - cos(phi^n t)) / phi^(n d); self-similar, W(phi t) = phi^d W(t)."""
    ns = _wm_orders(t, d, t_trunc)
    return float(np.sum((1.0 - np.cos(PHI**ns * t)) / PHI ** (ns * d)))


def wm_modulation(t: float, d: float, t_trunc: int = 60) -> complex:
    """Scale-periodic modulation A(t) = sum (1 - exp(i phi^n t)) / (phi^(d n) t^d);
    invariant under t -> phi t, with Re A = W(t) / t^d."""
    ns = _wm_orders(t, d, t_trunc)
    return complex(np.sum((1.0 - np.exp(1j * PHI**ns * t)) / PHI ** (ns * d)) / t**d)


# --- closed forms on the k = 1 annulus (1 < |z| < sqrt(phi)) ---------------

def _ephi_ratio_log(z: complex, zs: complex) -> complex:
    from goldcalc.functions import e_phi_product

    num = e_phi_product(-PHI * z / zs) * e_phi_product(-PHI * zs / z)
    den = e_phi_product(-PHI * z * zs.conjugate()) * e_phi_product(-PHI**2 / (z * zs.conjugate()))
    return cmath.log(num / den)


def _vortex_clearance(z: complex, zs: complex) -> None:
    ns = np.arange(-60, 61, dtype=float)  # the images within phi^60 of the vortex
    pts = np.concatenate([zs * PHI**ns, (1.0 / zs.conjugate()) * PHI**ns])
    _check_clearance(z, pts)


def potential_via_e_phi(vortices, z: complex) -> complex:
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
        total += 1j * kappa * (cmath.log(z - zs) + _ephi_ratio_log(z, zs))
    return total


def velocity_via_ln_phi(vortices, z: complex) -> complex:
    """Conjugate velocity of vortices (z_s, kappa_s) in the k=1 annulus via four
    phi-logarithms per vortex (pole-sum form, valid across the annulus)."""
    from goldcalc.functions import ln_phi

    total = 0j
    for zs, kappa in vortices:
        if kappa == 0:
            continue
        _vortex_clearance(z, zs)
        zc = zs.conjugate()
        total += 1j * kappa / (z - zs)
        total += (1j * PHI / z) * kappa * (
            ln_phi(-z / zs, 1, "pole_sum")
            - ln_phi(-z * zc, 1, "pole_sum")
            + ln_phi(-PHI / (z * zc), 1, "pole_sum")
            - ln_phi(-zs / z, 1, "pole_sum"))
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
        lnp, kk = kernel.log_prime(zeta, annulus.k)
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

def _column_text(column: np.ndarray, spell) -> list[str]:
    """spell(v) for each entry v of a 1-D array, called once per distinct value.

    Values are told apart by their bits, not by ==: 0.0 and -0.0 are equal but
    spelt differently."""
    keys, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    text = np.array(list(map(spell, keys.view(column.dtype).tolist())), dtype=object)
    return text[inverse].tolist()


def _text_blocks(n_rows: int, block, spells, sep: str, row_sep: str):
    """The n_rows rows of block(rows) as one string per CHUNK rows: column c
    spelt by spells[c], cells joined by sep and rows by row_sep.  block(rows)
    returns the columns of the row slice rows as arrays."""
    for start in range(0, n_rows, CHUNK):
        columns = block(slice(start, min(start + CHUNK, n_rows)))
        yield row_sep.join(map(sep.join, zip(*map(_column_text, columns, spells))))


def write_csv(path, header: tuple[str, ...], n_rows: int, block) -> None:
    """Write the header, then n_rows rows of comma-joined reprs, CRLF-terminated
    as csv.writer writes them; block is as in _text_blocks."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for text in _text_blocks(n_rows, block, [repr] * len(header), ",", "\r\n"):
            fh.write(text + "\r\n")


def _json_number(v) -> str:
    """v as json.dumps spells it: its repr, but NaN, Infinity and -Infinity."""
    text = repr(v)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


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

    def _block(self, rows: slice) -> list[np.ndarray]:
        return [c[rows] for c in self.columns]

    def to_csv(self, path) -> None:
        """Header plus one row of float reprs per point."""
        write_csv(path, self.FIELDS, len(self), self._block)

    def to_json(self, path) -> None:
        """The bytes of json.dumps of one {"x": x, "y": y, ...} record per point."""
        # each cell carries its key, as json.dumps writes these plain ASCII names
        spells = [lambda v, key=f'"{name}": ': key + _json_number(v) for name in self.FIELDS]
        with open(path, "w") as fh:
            fh.write("[")
            sep = "{"
            for text in _text_blocks(len(self), self._block, spells, ", ", "}, {"):
                fh.write(sep + text)
                sep = "}, {"
            fh.write("}]" if len(self) else "]")


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
    # an image 2 `exclusion` outside the annulus (twice, for rounding) excludes none of
    # its points, one beyond 3 r_out none that the vortex does not; the ladders' radii
    # |z0| phi^(k n), n in [-t, t], and phi^(k n) / |z0|, n in [1 - t, t], give the windows
    lo = math.log(1 - 2 * exclusion) if exclusion < 0.5 else -math.inf
    hi = math.log(r_out + 2 * min(exclusion, r_out))
    step, t = annulus.k * kernel.LN_PHI, annulus.truncation
    for s in systems:
        a = math.log(abs(s.z0))
        ns = [range(math.ceil(max((lo + b) / step, n0)), math.floor(min((hi + b) / step, t)) + 1)
              for b, n0 in ((-a, -t), (a, 1 - t))]
        for w in np.concatenate(_ladders(s, *ns)):
            keep &= ~(np.abs(w - z) < exclusion)
    z = z[keep]
    psi = np.empty(len(z))
    vel = np.empty(len(z), dtype=complex)
    for start in range(0, len(z), CHUNK):
        part = slice(start, start + CHUNK)
        psi[part], vel[part] = flow(annulus, vortices, z[part])
    return FlowGrid(z.real.copy(), z.imag.copy(), psi, vel.real.copy(), -vel.imag)
