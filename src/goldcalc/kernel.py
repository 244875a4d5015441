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
The level k lives here: `Annulus(k)` checks it and holds the radii and the
bounds check that `hydro` and `dynamics` use, and `nome(k)` its constants.

P is a Jacobi theta function of nome p^(1/2).  Jacobi's imaginary
transformation (DLMF §20.7(viii)) rewrites it in the dual nome
Q = exp(-4 pi^2 / lam), lam = k ln(phi), and in w = exp(2 pi i L / lam),
L = log(zeta) on any branch, c = 2 pi i / lam:

    K(zeta)     = 1/2 + L/lam + i pi/lam + c g(w),
    g(w)        = 1/(w - 1) - sum_n [Q^n w/(1 - Q^n w) - Q^n w^-1/(1 - Q^n w^-1)],
    ln|P(zeta)| = Re[L/2 + L^2/(2 lam)] + pi Im L/lam - ln 2 + ln|w - 1|
                  + sum_n ln|(1 - Q^n w)(1 - Q^n / w)| + C_k,
    C_k         = 2 ln (p; p)_inf - ln(pi / lam) - 2 sum_n ln(1 - Q^n).

Moving L by 2 pi i m multiplies w by Q^m and changes neither; the terms
needed grow with |Im L|, by one bound for K and ln|P| alike (pair_terms).
Q is 2e-36 at k = 1 and 1e-9 at k = 4, so the series needs one or two terms
there.  As k grows Q tends to 1 while p vanishes, and the product in p
converges faster; each k uses the form that needs fewer terms to push the
neglected tail below TAIL: the w-form up to k = 15 (7 terms against 7
factors), the direct product from k = 16.  Per-k constants are computed on
first use and cached; importing this module does no work.

The flows need P of point pairs, zeta = z_t / z_s and z_t conj(z_s), whose
w come from exponentials of the points: w = x_t / e_s and x_t / conj(e_s),
e = x = exp(2 pi i log z / lam), one exp per point and a division per pair.
The two L of a pair differ by the real -2 ln|z_s|, so in their differences
the real parts reduce to column terms.
Three evaluators read the one series (_log_derivative, _log_abs_prime).
The two in numpy share one branch rule, the points' principal branches with
pair_terms of their angular spread, and one block builder (_ratios), series
step (_series) and column terms (_column_terms):
- `prime_sums`, targets against sources (`hydro.flow`, `vortex_psi`,
  `dynamics.green_function`), which takes a near pair,
  |z_t - z_s| < |z_s|/2, from the exact difference z_t - z_s, on the branch
  of log(1 + (z_t - z_s)/z_s); `log_abs_prime` and `log_derivative` are
  its case of the one source 1, for single arguments;
- `_pair_block`, its case of one set of points against itself, with the
  diagonal rule in place of the near pairs (`pair_evaluator` above
  LIST_MAX_POINTS, `dynamics.hamiltonian`), in blocks of rows of about
  CHUNK entries, so its memory does not grow as N^2;
- up to LIST_MAX_POINTS, the measured crossover of whole RK4 steps at k = 1,
  the same entries summed pair by pair in plain complex arithmetic by code
  compiled once per (N, k) (_sum_plan): each numpy call has a fixed cost of
  about a microsecond, which at a few points outweighs the arithmetic.
  There each vortex's self term -K(|z_i|^2), whose w lies on the unit
  circle, is real and taken in real arithmetic, and a lone vortex takes no
  complex exponential.
The direct form builds the pair arguments from the points themselves.
`pair_evaluator` gives vortex velocities in l = log z from the logs alone,
so an RK4 stage in l takes no log and divides by no z.
"""

from __future__ import annotations

import cmath
import itertools
import linecache
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from goldcalc.ring import TAIL

PHI = (1 + math.sqrt(5)) / 2
LN_PHI = math.log(PHI)
_LN_INV_TAIL = math.log(1 / TAIL)
I_OVER_TWO_PI = 0.5j / math.pi
# pair_evaluator sums up to this many points in plain complex arithmetic,
# and numpy's block above it: the measured crossover (see above)
LIST_MAX_POINTS = 7
# entries of a temporary array in a pass that is split to bound memory: the
# pair block's rows here, hydro's field points and file rows
CHUNK = 4096


class Nome(NamedTuple):
    """Per-k constants: p = phi^-k, lam = -ln p, the dual nome and its sums."""

    lam: float
    p: float
    q: float                # dual nome exp(-4 pi^2 / lam)
    pair_order: float       # log_Q(TAIL (1 - Q)^2 / (4 pi/lam + 2)), see pair_terms
    log_euler: float        # ln (p; p)_inf = sum_n ln(1 - p^n)
    dual: bool = False      # evaluate through the dual (Jacobi) series
    dual_sums: tuple = ()   # Q^n + Q^-n for the pair_terms of the widest spread, 2 pi
    const: float = 0.0      # C_k - ln 2, the constant of ln|P| in the dual form


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


@dataclass(frozen=True)
class Annulus:
    """The golden annulus 1 < |z| < phi^(k/2) of level k, in plain floats; k is
    a positive integer (a numpy one becomes its int) with phi^k a finite double."""

    k: int
    inner_radius = 1.0

    def __post_init__(self) -> None:
        k = self.k
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"annulus level k must be a positive integer, got {k!r}")
        object.__setattr__(self, "k", int(k))
        try:
            PHI**self.k
        except OverflowError:
            raise ValueError(f"annulus level k = {k} is too large: phi^{k} overflows") from None

    @property
    def outer_radius(self) -> float:
        return PHI ** (self.k / 2)

    @property
    def log_outer_radius(self) -> float:
        return self.k * LN_PHI / 2

    @property
    def mean_radius(self) -> float:
        """phi^(k/4), the geometric mean of the radii, where a lone vortex is still."""
        return PHI ** (self.k / 4)

    def contains(self, z) -> bool:
        """Whether z lies in the open annulus; no non-finite z does."""
        return 1.0 < abs(z) < self.outer_radius

    def check(self, z) -> None:
        """Raise ValueError unless z lies in the open annulus."""
        if not self.contains(z):
            raise ValueError(f"point at |z| = {abs(z):.6f} outside the open annulus "
                             f"1 < |z| < {self.outer_radius:.6f} of level k = {self.k}")


@lru_cache(maxsize=64)
def nome(k: int) -> Nome:
    """Constants of the level-k annulus; raises ValueError for an invalid k."""
    Annulus(k)
    lam = k * LN_PHI
    p = math.exp(-lam)
    q = math.exp(-4 * math.pi**2 / lam)
    nm = Nome(lam, p, q, math.log(TAIL * (1 - q) ** 2 / (4 * math.pi / lam + 2), q), _log_pochhammer(p))
    # the forms compared on the flows' arguments: a pair's angle gap moved a
    # turn into [-pi, pi], as the plain sums move it, and |ln|zeta|| <= lam
    if pair_terms(nm, math.pi) > _direct_terms(lam, 1.0):
        return nm
    dual_sums = tuple(q**n + q**-n for n in range(1, pair_terms(nm, 2 * math.pi) + 1))
    const = 2 * nm.log_euler - math.log(2 * math.pi / lam) - 2 * _log_pochhammer(q)
    return nm._replace(dual=True, dual_sums=dual_sums, const=const)


def pair_terms(nm: Nome, spread: float) -> int:
    """Dual-series terms of K and of ln|P| for pair arguments with
    |Im L| <= spread.  There |w| and 1/|w| are at most
    Q^(-spread / 2 pi) = e^(2 pi spread/lam), so term n is below
    (4 pi/lam) Q^n e^(2 pi spread/lam) / (1 - Q) in K, c times the two of
    g(w), and below 2 Q^n e^(2 pi spread/lam) / (1 - Q) in ln|P|.  The tail
    after M terms of either is below (4 pi/lam + 2) Q^(M + 1)
    e^(2 pi spread/lam) / (1 - Q)^2; the least M that puts it under TAIL is
    floor(pair_order + spread / 2 pi).  Spread 2 pi covers any principal
    branches, pi a pair's gap moved a turn into [-pi, pi] (_sum_plan)."""
    return int(nm.pair_order + spread / (2 * math.pi))  # pair_order > 0 in the dual form


def _log_derivative(d: np.ndarray, v: np.ndarray, inv, ends, nm: Nome, count: int) -> np.ndarray:
    """The part of K that the series carries, with count terms, in place of
    d, which is v - 1 or the value of a caller's rule; inv = 1/v and
    ends = v + 1/v, read only with terms (count > 0).  Dual form, v = w:
    c g(w) = c/d less the terms q w/(1 - q w) - q w^-1/(1 - q w^-1)
    = (w - 1/w)/(q + 1/q - w - 1/w), q = Q^n, which vanish at w = 1.
    Direct form, v = zeta: K = 1 + 1/d + sum_n [1/(1 - p^n/zeta) - 1/(1 - p^n zeta)]."""
    if nm.dual:
        c = 2j * math.pi / nm.lam
        out = np.divide(c, d, out=d)
        if count:
            odd = c * (v - inv)
            for s in nm.dual_sums[:count]:
                out -= odd / (s - ends)
        return out
    out = np.divide(1, d, out=d)
    out += 1
    for n in range(1, count + 1):
        pn = nm.p**n
        out += 1 / (1 - pn * inv) - 1 / (1 - pn * v)
    return out


def _log_abs_prime(d: np.ndarray, v: np.ndarray, ends, nm: Nome, count: int) -> np.ndarray:
    """The part of ln|P| that the series carries, with count terms:
    ln|d| + sum_n ln|(1 - r^n v)(1 - r^n / v)|, with r = Q, v = w in the dual
    form and r = p, v = zeta in the direct one; d and ends are as in
    _log_derivative.  The dual form leaves out ln max(1, |w|): the same in a
    pair's two columns, it reaches 4 pi^2/lam (82 at k = 1) and its rounding."""
    out = np.log(np.abs(d) / np.maximum(np.abs(v), 1.0)) if nm.dual else np.log(np.abs(d))
    r = nm.q if nm.dual else nm.p
    for n in range(1, count + 1):
        out += np.log(np.abs((1 + r ** (2 * n)) - r**n * ends))
    return out


def _series(v: np.ndarray, d: np.ndarray, count: int, nm: Nome, log: bool, derivative: bool):
    """The parts of ln|P| (log) and of K (derivative) that the series carries
    on the block v, d as in _log_derivative, each None if not asked for: the
    one series step of both numpy evaluators, which take 1/v once for both."""
    inv = 1 / v if count else None
    ends = v + inv if count else None
    lnp = _log_abs_prime(d, v, ends, nm, count) if log else None  # first: _log_derivative overwrites d
    return lnp, _log_derivative(d, v, inv, ends, nm, count) if derivative else None


def _ratios(t: np.ndarray, s: np.ndarray, nm: Nome) -> np.ndarray:
    """The block v of targets against sources, for both numpy evaluators, from
    the column t of x_t and s = [e_s, conj(e_s)] in the dual form, one
    division, and of z_t and z_s in the direct one: [z_t / z_s, z_t conj(z_s)]."""
    return t / s if nm.dual else np.concatenate((t / s, t * np.conj(s)), axis=1)


def _column_terms(out: np.ndarray, ln_r, col, nm: Nome, log: bool) -> None:
    """Add the dual form's column terms to the weighted sums out, in place:
    -(1 + 2 ln|z_t|/lam) col to ln|P| and -(2/lam) col to K, ln_r = ln|z_t|,
    col = sum_s weights_s ln|z_s|: a pair's two L share a branch, and differ by -2 ln|z_s|."""
    out -= np.multiply.outer(1 + (2 / nm.lam) * np.asarray(ln_r), col) if log else (2 / nm.lam) * col


def _blocks(z_t: np.ndarray, z_s: np.ndarray, nm: Nome):
    """(v, d = v - 1, count, on, log z_t, log z_s) of prime_sums: the block v
    (_ratios) of the targets z_t, finite and nonzero (ValueError), against
    the sources z_s; its count of terms (pair_terms of the angular spread of
    both, or _direct_terms of max|ln|z_t|| + max|ln|z_s||); the rows on
    where a target is on a source, u = 0, with d = 1 there.  A near pair,
    |u| < 1/2 with u = (z_t - z_s)/z_s, would lose relative precision
    1e-16/|u| in d to the rounded logs, so d = u in the direct form, and in
    the dual one expm1(2 pi i L/lam) of L = log(1 + u) in real arithmetic
    (ln|1 + u| = log1p(2 Re u + |u|^2)/2), with v = 1 + d.  That L is a turn
    from the principal one across the cut at pi; the conj column moves by
    the same turn (x_t by Q^-+1), so both L of the pair keep one branch."""
    if not (np.isfinite(z_t) & (z_t != 0)).all():  # before any log
        raise ValueError("prime function arguments must be finite and nonzero")
    n, c, log_t, log_s = len(z_s), 2j * math.pi / nm.lam, np.log(z_t), np.log(z_s)
    if nm.dual:
        e, angles = np.exp(c * log_s), np.concatenate((log_t.imag, log_s.imag))
        v = _ratios(np.exp(c * log_t)[:, None], np.concatenate((e, np.conj(e))), nm)
        count = pair_terms(nm, float(angles.max() - angles.min()) if len(angles) else 0.0)
    else:
        v = _ratios(z_t[:, None], z_s, nm)
        reach = np.max(np.abs(log_t.real), initial=0.0) + np.max(np.abs(log_s.real), initial=0.0)
        count = _direct_terms(nm.lam, float(reach) / nm.lam)
    i, j = np.nonzero(np.abs(z_t[:, None] - z_s) < 0.5 * np.abs(z_s))
    u = (z_t[i] - z_s[j]) / z_s[j]
    if nm.dual:
        v[i, j + n] *= np.exp(np.rint((log_t.imag[i] - log_s.imag[j]) * (0.5 / math.pi)) * (4 * math.pi**2 / nm.lam))
        u = np.expm1(c * (0.5 * np.log1p(2 * u.real + np.abs(u) ** 2) + 1j * np.angle(1 + u)))
    v[i, j] = 1 + u
    d = v - 1
    d[i, j] = np.where(u == 0, 1.0, u)
    return v, d, count, i[u == 0], log_t, log_s


def _argument(zeta, k: int, log: bool) -> np.ndarray:
    """ln|P| (log) or K of each zeta: its block against the one source 1,
    whose log is 0, so L = log zeta on the principal branch; nan at zeta = 1."""
    nm, zeta = nome(k), np.asarray(zeta, dtype=complex)
    v, d, count, on, log_z, _ = _blocks(zeta.ravel(), np.ones(1, dtype=complex), nm)
    out = _series(v[:, 0], d[:, 0], count, nm, log, not log)[0 if log else 1]
    if nm.dual and log:  # Re[L/2 + L^2/(2 lam)] + pi Im L/lam, and ln|w| = -2 pi Im L/lam where > 0
        out += (log_z * (0.5 + log_z / (2 * nm.lam))).real + (math.pi / nm.lam) * np.abs(log_z.imag) + nm.const
    elif nm.dual:
        out += log_z / nm.lam + (0.5 + 1j * math.pi / nm.lam)
    out[on] = np.nan
    return out.reshape(zeta.shape)


def log_derivative(zeta, k: int) -> np.ndarray:
    """K(zeta) = zeta P'(zeta) / P(zeta), elementwise over a complex array."""
    return _argument(zeta, k, False)


def log_abs_prime(zeta, k: int) -> np.ndarray:
    """ln|P(zeta)|, elementwise over a complex array."""
    return _argument(zeta, k, True)


def prime_sums(z_t, z_s, weights, k: int, derivative: bool = False):
    """For each target z_t, sum_s weights_s [ln|P(z_t/z_s)| - ln|P(z_t conj z_s)|],
    and with derivative also the same sums of K (else None), as arrays of
    z_t's shape, from _blocks; nan where a target is on a source, z_s being
    points of the open annulus.  Each pair's difference comes before its
    weight, as weights near the float maximum need: a pair's two K entries
    share |w|, and hold about -c per term for a small |w|, which cancel."""
    nm, z_t = nome(k), np.asarray(z_t, dtype=complex)
    v, d, count, on, log_t, log_s = _blocks(z_t.ravel(), np.asarray(z_s, dtype=complex), nm)
    n, weights = len(log_s), np.asarray(weights, dtype=float)

    def summed(block: np.ndarray, log: bool) -> np.ndarray:
        out = (block[:, :n] - block[:, n:]) @ weights
        if nm.dual:
            _column_terms(out, log_t.real, log_s.real @ weights, nm, log)
        out[on] = np.nan
        return out.reshape(z_t.shape)

    lnp, kk = _series(v, d, count, nm, True, derivative)
    return summed(lnp, True), summed(kk, False) if derivative else None


@lru_cache(maxsize=16)
def _pair_rows(n: int, offset: complex) -> list:
    """The (N, 2N) block as blocks of rows, each a temporary of about CHUNK
    entries, with their offsets: 1, and offset on the diagonal, where v = 1
    and v - offset is d of _pair_block's diagonal rule.  The offsets of every
    block are views of one flat array: with top the start of the last block,
    the m rows from row a take the 2N m entries from top - a, whose diagonal
    entries a + r (2N + 1) hold offset."""
    if not n:
        return []
    rows = min(n, max(1, CHUNK // (2 * n)))
    top = (n - 1) // rows * rows
    flat = np.ones(top + 2 * n * rows, dtype=complex)
    flat[top :: 2 * n + 1] = offset
    flat.flags.writeable = False
    return [(slice(a, min(a + rows, n)), flat[top - a: top - a + 2 * n * rows].reshape(-1, 2 * n)[: n - a])
            for a in range(0, n, rows)]


def _pair_block(weights: np.ndarray, k: int, log: bool = False):
    """The callable log_z -> sum_j weights_j [F(z_i/z_j) - F(z_i conj(z_j))]
    of the points z = exp(l), in numpy, for F = ln|P| with log, and for
    F = K the velocities of pair_evaluator: prime_sums' case of the targets
    as the sources, with the diagonal rule in place of its near pairs, and
    [weights, -weights] dotting the block (circulations are far below the
    float maximum).  On the diagonal, v = 1, P loses its factor 1 - zeta:
    _pair_rows' offsets make d the value for which K(z_i/z_i) is 0 and
    ln|P(z_i/z_i)| is 2 ln (p; p)_inf, the limit of ln|P(zeta)/(1 - zeta)|
    at 1 (c/d = -1/2 - i pi/lam, d = c, and d = -1 in the direct form)."""
    nm, n = nome(k), len(weights)
    c = 2j * math.pi / nm.lam
    offset = (1 - c if log else 1 + 2j * math.pi / (nm.lam / 2 + 1j * math.pi)) if nm.dual else 2.0
    blocks = _pair_rows(n, offset)
    signed, total = np.concatenate((weights, -weights)), sum(weights)
    weight_list, rows = (weights.tolist() if weights.ndim == 1 else None), (-1,) + (1,) * (weights.ndim - 1)

    def evaluate(log_z: list) -> np.ndarray:
        ln_r = [l.real for l in log_z]
        if nm.dual:
            angles = [l.imag for l in log_z]
            count = pair_terms(nm, max(angles, default=0.0) - min(angles, default=0.0))
            e = [cmath.exp(c * l) for l in log_z]
            points = np.array(e + [x.conjugate() for x in e], dtype=complex)  # e_j, conj(e_j)
        else:
            points = np.exp(np.asarray(log_z, dtype=complex))
            count = _direct_terms(nm.lam, 2 * max(map(abs, ln_r), default=0.0) / nm.lam)
        out = np.empty(weights.shape, dtype=float if log else complex)
        for part, offsets in blocks:
            v = _ratios(points[part, None], points, nm)
            _series(v, v - offsets, count, nm, log, not log)[0 if log else 1].dot(signed, out=out[part])
        if nm.dual:  # column j's terms, summed in plain arithmetic for 1-D weights
            col = sum(map(operator.mul, ln_r, weight_list)) if weight_list is not None else ln_r @ weights
            _column_terms(out, ln_r, col, nm, log)
        if log:
            return out
        # the velocities dl_l/dt = i conj(S_l) / (2 pi e^(2 ln|z_l|)), in place
        out += total
        np.conj(out, out=out)
        out *= (I_OVER_TWO_PI * np.exp(-2 * np.asarray(ln_r))).reshape(rows)
        return out

    return evaluate


def compile_make(source: str, filename: str, names: dict):
    """The function make that the generated source defines, compiled under
    filename with the globals names.  The source is registered in linecache
    under that name first, so tracebacks and inspect show its lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    made: dict = {}
    exec(compile(source, filename, "exec"), names, made)
    return made["make"]


@lru_cache(maxsize=64)
def _sum_plan(n: int, k: int):
    """make(w_0, ..., w_{n-1}, total) -> evaluate, the plain pair sums of n
    points at level k (see _pair_sums), compiled once from source that writes
    every vortex and every pair out on local names.  The level's constants
    are the code's globals: c = 2 pi i/lam, -2/lam, 1/lam, Q and 1/Q, the
    g(w) sums s_m of gap 0 and the one more of a gap of at least reach, the
    real self term's 2 pi/lam, pi/lam and 8 pi/lam.  compile_make registers
    the source in linecache."""
    nm = nome(k)
    near = pair_terms(nm, 0.0)
    # pair_terms(nm, gap) exceeds near from gap = reach on; beyond pi no pair gets there
    reach = 2 * math.pi * (near + 1 - nm.pair_order)
    names = dict(c=2j * math.pi / nm.lam, scale=-2 / nm.lam, inv_lam=1 / nm.lam, q=nm.q, inv_q=1 / nm.q,
                 reach=reach, angle=2 * math.pi / nm.lam, cot_scale=math.pi / nm.lam,
                 sin_scale=8 * math.pi / nm.lam, sin=math.sin, cos=math.cos, exp=cmath.exp, exp_real=math.exp,
                 pi=math.pi, turn=2 * math.pi, i_2pi=I_OVER_TWO_PI)
    names.update((f"s{m}", s) for m, s in enumerate(nm.dual_sums[: near + 1]))

    def series(out: str, v: str, terms: int) -> list:
        """Lines taking the g(w) terms s_0 .. s_(terms-1), over c, from out, the leading term v / (x - v)."""
        return [f"ee, vv, prod = x * x, {v} * {v}, x * {v}", "num, ends = ee - vv, ee + vv",
                *(f"{out} -= num / (s{m} * prod - ends)" for m in range(terms))] if terms else []

    def pair_series(j: int, terms: int) -> list:
        return ["    " + line for line in series("d", f"v{j}", terms) + series("h", f"e{j}", terms)]

    # vortex i: r_i, the real self term (see _pair_sums) of t = 2 pi ln|z_i|/lam,
    # read off x + iy: e_i where the vortex has pairs, else cos t + i sin t;
    # sp = (4 pi/lam) sin 2t, cp = 2 cos 2t
    dual_terms = "".join(f" - sp / (s{m} - cp)" for m in range(near))

    def vortex(i: int) -> list:
        point = ([f"e{i} = exp(c * l{i})", f"a{i} = l{i}.imag", f"v{i} = e{i}.conjugate()",
                  f"x, y = e{i}.real, e{i}.imag"] if n > 1 else [f"t = angle * l{i}.real", "x, y = cos(t), sin(t)"])
        return [*point,
                *(["rr = x * x + y * y", "sp, cp = sin_scale * x * y / rr, 2 - 4 * y * y / rr"] if near else []),
                f"r{i} = w{i} * (-0.5 - cot_scale * x / y{dual_terms})"]

    # pair i < j: p_i sums conj(D_ij)/c over the pairs, from d = conj(g(e_i/e_j))/c
    # and h = conj(g(e_i/conj(e_j)))/c of x = conj(e_i), moved as e_i is; each p
    # starts at its first term, vortex 0's in pair (0, 1) and vortex j's in (0, j)
    def pair(i: int, j: int) -> list:
        terms = [*pair_series(j, near + 1), *(["else:", *pair_series(j, near)] if near else [])]
        return [f"x, gap = v{i}, a{i} - a{j}", "if gap > pi:", "    x, gap = x * inv_q, gap - turn",
                "elif gap < -pi:", "    x, gap = x * q, gap + turn",
                f"d, h = v{j} / (x - v{j}), e{j} / (x - e{j})", "if abs(gap) >= reach:", *terms,
                f"p{i} = {'' if j == 1 else f'p{i} + '}w{j} * (d - h)",
                f"p{j} = w{i} * (h.conjugate() - d)" if i == 0 else f"p{j} = p{j} - w{i} * (d - h.conjugate())"]

    # the velocity of vortex i, i conj(S_i)/(2 pi) e^(-2 ln|z_i|), S_i = r_i + base + c conj(p_i)
    def velocity(i: int) -> str:
        return f"    {f'(inv_lam * p{i} + ' if n > 1 else '('}i_2pi * (r{i} + base)) * exp_real(-2 * l{i}.real),"

    points = range(n)
    # the column sum starts from 0.0 as the loop's running sum did: a -0.0 term keeps its bits
    body = [f"[{', '.join(f'l{i}' for i in points)}] = log_z", *(line for i in points for line in vortex(i)),
            f"base = total + (0.0{''.join(f' + l{i}.real * w{i}' for i in points)}) * scale",
            *(line for i, j in itertools.combinations(points, 2) for line in pair(i, j)),
            "return [", *map(velocity, points), "]"]
    source = "".join([f"def make({''.join(f'w{i}, ' for i in points)}total):\n", "    def evaluate(log_z):\n",
                      *(f"        {line}\n" for line in body), "    return evaluate\n"])
    return compile_make(source, f"<goldcalc.kernel pair sums n={n} k={k}>", names)


def _pair_sums(weights: list, k: int):
    """The velocities from D @ weights in plain complex arithmetic, pair by
    pair, as a list; weights is a list of N numbers, or of N numpy rows for a
    matrix of weights.

    The block's entry g(w), w = e_i/v for v = e_j or conj(e_j), is
    c v / (e_i - v) less the g(w) terms, each over the common denominator
    w (q + 1/q - w - 1/w): c (e_i^2 - v^2) / ((q + 1/q) e_i v - e_i^2 - v^2).
    Since g(1/w) = -c - g(w) and g(1/conj(w)) = -c + conj(g(w)), each
    unordered pair is evaluated once: D_ij = d - h and D_ji = -d - conj(h)
    with d = g(e_i/e_j), h = g(e_i/conj(e_j)), plus the column terms.

    Both L of a pair have |Im L| = |gap|, gap = Im l_i - Im l_j on the
    principal branches.  A gap wider than pi is moved a turn: l_i by
    -+2 pi i, e_i by Q^(-+1), which shifts d and h by the same +-c and leaves
    D_ij and D_ji as they were.  Each pair then takes the terms of its own
    |gap| <= pi, pair_terms(nm, |gap|): none at k = 1 unless the pair is
    within about 0.11 rad of antipodal.  The diagonal's L = 2 ln|z_i| is
    real on every branch, so it takes the terms of gap 0: none at k = 1.
    Its w = exp(4 pi i ln|z_i|/lam) lies on the unit circle, so the self
    term D_ii less its column term is real, and is written in real
    arithmetic: -1/2 - (pi/lam) cot t - sum_m (4 pi/lam) sin 2t/(s_m - 2 cos 2t),
    t = 2 pi ln|z_i|/lam, s_m = Q^m + Q^-m, with cos t and sin t read off e_i
    where vortex i has pairs and taken directly where it has none, as a lone
    vortex, whose dl/dt then has a real part of exactly 0.

    dl/dt takes conj(S_i), so the sums take c out of every pair entry and
    add up p_i = sum_j w_j conj(D_ij)/c: conj(d)/c and conj(h)/c are d/c
    and h/c with conj(e_i) in place of e_i and e_j, conj(e_j) swapped, and
    as c is imaginary, conj(S_i) = R_i - c p_i, with R_i the self term plus
    the column terms and the weights' sum.  The last line scales each row to
    dl/dt = (p_i/lam + i R_i/(2 pi)) e^(-2 ln|z_i|).  _sum_plan(N, k) writes
    all of this out once; the factory it gives binds the weights and their sum."""
    return _sum_plan(len(weights), k)(*weights, sum(weights))


def pair_evaluator(weights, k: int):
    """The callable log_z -> dl_l/dt, l = log z, the velocities of point
    vortices of circulations weights, shape (N,) or (N, M), in the level-k
    annulus: dl_l/dt = i conj(S_l) / (2 pi e^(2 Re l_l)), S_l = sum_j w_j
    (D_lj + 1), with D_lj = K(z_l/z_j) - K(z_l conj(z_j)) and
    D_ll = -K(|z_l|^2).  Built once per set of weights (an RK4 run), it binds
    the weights and their sum.  log_z, the list of Python complex numbers
    log z_j, is checked by the caller before any exponential and put on the
    principal branch.  In the dual form up to LIST_MAX_POINTS points the
    plain sums of _sum_plan take it, with no numpy call, else the numpy
    block of _pair_block.  Weights given as a list of N numbers give a list
    of Python complex numbers, numpy weights an array of their shape.
    Coincident points divide by 0."""
    as_list = isinstance(weights, list)
    if nome(k).dual and len(weights) <= LIST_MAX_POINTS:
        if as_list:
            return _pair_sums(weights, k)
        sums = _pair_sums(list(weights), k)
        return lambda log_z: np.array(sums(log_z), dtype=complex).reshape(weights.shape)
    block = _pair_block(np.asarray(weights, dtype=float), k)
    return (lambda log_z: block(log_z).tolist()) if as_list else block
