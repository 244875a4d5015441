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
Q = exp(-4 pi^2 / lam), lam = k ln(phi).  With L = log(zeta) on the principal
branch, c = cos(2 pi L / lam) and s = sin(2 pi L / lam):

    K(zeta)     = 1/2 + L/lam + (pi/lam) cot(pi L / lam)
                  + (4 pi / lam) sum_n Q^n s / (1 - 2 Q^n c + Q^(2n))
    ln|P(zeta)| = Re[L/2 + L^2/(2 lam) + log sin(pi L / lam)]
                  + sum_n ln|1 - 2 Q^n c + Q^(2n)| + C_k
    C_k         = 2 ln (p; p)_inf - ln(pi / lam) - 2 sum_n ln(1 - Q^n).

With w = exp(2 pi i L / lam), K = 1/2 + L/lam + i pi/lam + (2 pi i/lam) g(w),
g(w) = 1/(w - 1) - sum_n [Q^n w/(1 - Q^n w) - Q^n w^-1/(1 - Q^n w^-1)].  For
points z_j, `pair_evaluator` takes L = l_i - l_j and l_i + conj(l_j),
l_j = log z_j, so w = e_i/e_j and e_i/conj(e_j), e_j = exp(2 pi i l_j / lam),
and the two L differ by -2 ln|z_j|.  Moving l_i by 2 pi i m, w gains Q^m for
both and g(w Q^m) = g(w) - m, so D is the same on every branch of every l_j.
Both L of a pair have |Im L| = |gap|, the gap between the two points'
angles, and the g(w) terms it needs grow with |gap| (pair_terms).  The
plain pair sums move a gap wider than pi a turn, so each pair takes the
terms of its own |gap| <= pi: none at k = 1 unless it is within about
0.11 rad of antipodal.  The numpy block takes one count for all its
entries, from the points' angular spread S with the cut at pi or at 0,
whichever gives the smaller S: every pair then has |Im L| <= S.  Sizing its
entries one by one would add passes over the block and save nothing for
points all round the circle, whose nearly antipodal pairs need the terms
either way (the one term of a 16-vortex ring at k = 1).  The
diagonal D_ii = -K(|z_i|^2) has the real L = 2 ln|z_i| on every branch, so
the plain sums give it the terms of gap 0: none at k = 1.

Q is 2e-36 at k = 1 and 1e-9 at k = 4, so the dual series needs one or two
terms there.  As k grows Q tends to 1 while p vanishes, and the direct
product in p converges faster; each k uses whichever form needs fewer terms
to push the neglected tail below TAIL.  Per-k constants are computed on first
use and cached; importing this module does no work.

`pair_evaluator(weights, k)` gives the velocities of point vortices of
circulations `weights` in l = log z: dl_l/dt = i conj(S_l) / (2 pi e^(2 Re l_l)),
S_l = sum_j w_j (D_lj + 1), which is (dz_l/dt) / z_l.  It takes only the logs,
so an RK4 stage in l takes no log and divides by no z.  It binds the
weights and their sum once, so `dynamics.integrate` builds one per run.  The
pair sums have two forms, chosen by the number of points N.  Above
LIST_MAX_POINTS numpy builds the (N, 2N) block, in blocks of rows whose
temporaries hold about CHUNK entries (64 KB), so its memory does not grow as
N^2; one block up to N = 45.  Up to LIST_MAX_POINTS every pair is summed in
plain complex arithmetic, since each numpy call has a fixed cost of about a
microsecond, which at a few points outweighs the arithmetic.  At k = 1 the
plain sums of a few vortices away from antipodal add no g(w) term, so they
are interpreter work around a few dozen complex operations per vortex, and
a loop over the pairs spent most of its time on lists, zip and pair
indices.  So they are compiled on first use, once per (N, k), to
straight-line code with every vortex and every pair on local names
(_sum_plan); importing compiles nothing.  LIST_MAX_POINTS is the measured
crossover of whole RK4 steps of `dynamics.integrate` at k = 1: at N = 7 the
compiled sums beat the block clearly; at N = 8 they win for points all round
the circle, but not clearly within a half turn once their compiling, tens of
steps, is counted.
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
    """Per-k constants: p = phi^-k, lam = -ln p, the dual nome and its terms."""

    lam: float
    p: float
    dual: bool              # evaluate through the dual (Jacobi) series
    q: float                # dual nome exp(-4 pi^2 / lam)
    terms: int              # dual-series terms kept (dual form only)
    pair_order: float       # log_Q(TAIL lam (1 - Q)^2 / (4 pi)), see pair_terms
    dual_sums: tuple        # Q^n + Q^-n for the pair_terms of the widest spread, 2 pi
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
    # |Im L| <= pi bounds |c|, |s| by Q^(-1/2), so dual term n is below
    # (4 pi/lam + 2) Q^(n - 1/2), and the tail after M terms below that
    # bound at n = M + 1 divided by (1 - Q)
    scale = (4 * math.pi / lam + 2) / (1 - q)
    terms = 0
    while scale * q ** (terms + 0.5) >= TAIL:
        terms += 1
    pair_order = math.log(TAIL * lam / (4 * math.pi) * (1 - q) ** 2, q)
    # the direct form is sized for the arguments the flows use, |ln|zeta|| <= lam
    dual = terms <= _direct_terms(lam, 1.0)
    widest = int(pair_order + 1) if dual else 0  # pair_terms at spread 2 pi
    dual_sums = tuple(q**n + q**-n for n in range(1, widest + 1))
    log_euler = _log_pochhammer(p)
    const = 2 * log_euler - math.log(math.pi / lam) - 2 * _log_pochhammer(q) if dual else 0.0
    return Nome(lam, p, dual, q, terms, pair_order, dual_sums, log_euler, const)


def pair_terms(nm: Nome, spread: float) -> int:
    """g(w) terms for pair arguments with |Im L| <= spread: the smallest M with
    (4 pi/lam) Q^(M + 1) e^(2 pi spread/lam) / (1 - Q)^2 < TAIL, a bound on the
    tail after M terms.  e^(2 pi spread/lam) = Q^(-spread / 2 pi), so M is
    floor(pair_order + spread / 2 pi); spread 2 pi covers any principal branch."""
    return int(nm.pair_order + spread / (2 * math.pi))  # pair_order > 0 in the dual form


def _prime_parts(zeta, k: int):
    """zeta as an array, its Nome and what K and ln|P| share: L, sin x and cos x
    with x = pi L / lam in the dual form, the product factor count in the direct one."""
    zeta = np.asarray(zeta, dtype=complex)
    nm, modulus = nome(k), np.abs(zeta)
    if not (np.isfinite(modulus) & (modulus > 0)).all():  # before any log
        raise ValueError("prime function arguments must be finite and nonzero")
    if not nm.dual:
        spread = float(np.max(np.abs(np.log(modulus)), initial=0.0)) / nm.lam
        return zeta, nm, _direct_terms(nm.lam, spread)
    log_z = np.log(zeta)
    x = (math.pi / nm.lam) * log_z
    return zeta, nm, (log_z, np.sin(x), np.cos(x))


def _log_derivative(zeta: np.ndarray, nm: Nome, parts) -> np.ndarray:
    if nm.dual:
        log_z, sin_x, cos_x = parts
        out = (math.pi / nm.lam) * (cos_x / sin_x)
        out += log_z / nm.lam
        out += 0.5
        # 1 - 2 q c + q^2 = (1 - q)^2 + 4 q sin^2 x and s = 2 sin x cos x
        sin2, sin_cos = sin_x * sin_x, sin_x * cos_x
        for n in range(1, nm.terms + 1):
            qn = nm.q**n
            out += (8 * math.pi / nm.lam * qn) * sin_cos / ((1 - qn) ** 2 + (4 * qn) * sin2)
        return out
    # K = 1 - 1/(1 - zeta) + sum_n [1/(1 - p^n/zeta) - 1/(1 - p^n zeta)]
    out = 1 - 1 / (1 - zeta)
    inv = 1 / zeta
    pn = 1.0
    for _ in range(parts):
        pn *= nm.p
        out += 1 / (1 - pn * inv) - 1 / (1 - pn * zeta)
    return out


def _log_abs_prime(zeta: np.ndarray, nm: Nome, parts) -> np.ndarray:
    if nm.dual:
        log_z, sin_x, _ = parts
        a, b = log_z.real, log_z.imag
        out = a / 2 + (a * a - b * b) / (2 * nm.lam) + np.log(np.abs(sin_x)) + nm.const
        sin2 = sin_x * sin_x
        for n in range(1, nm.terms + 1):
            qn = nm.q**n
            out += np.log(np.abs((1 - qn) ** 2 + (4 * qn) * sin2))
        return out
    out = np.log(np.abs(1 - zeta))
    inv = 1 / zeta
    pn = 1.0
    for _ in range(parts):
        pn *= nm.p
        out += np.log(np.abs((1 - pn * zeta) * (1 - pn * inv)))
    return out


def log_derivative(zeta, k: int) -> np.ndarray:
    """K(zeta) = zeta P'(zeta) / P(zeta), elementwise over a complex array."""
    return _log_derivative(*_prime_parts(zeta, k))


def log_abs_prime(zeta, k: int) -> np.ndarray:
    """ln|P(zeta)|, elementwise over a complex array (-inf at the zeros zeta = p^m)."""
    return _log_abs_prime(*_prime_parts(zeta, k))


def log_prime(zeta, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(ln|P(zeta)|, K(zeta)), sharing one log, sin and cos of the arguments."""
    parts = _prime_parts(zeta, k)
    return _log_abs_prime(*parts), _log_derivative(*parts)


def pair_arguments(zs: np.ndarray) -> np.ndarray:
    """Arguments (z_i / z_j, z_i conj(z_j)) as a (2, N, N) array; the zeros
    zeta = 1 of the first block's diagonal become -1, for callers to replace."""
    n = len(zs)
    zeta = np.empty((2, n, n), dtype=complex)
    np.divide(zs[:, None], zs, out=zeta[0])
    np.multiply(zs[:, None], np.conj(zs), out=zeta[1])
    zeta[0].flat[:: n + 1] = -1.0
    return zeta


def _pair_branches(log_z: list, nm: Nome) -> tuple[list, int]:
    """log_z on the branches that need the fewest g(w) terms, and that number.

    The angular spread S of the branches bounds every |Im L|.  A gap between
    the points' angles wider than pi holds the angle pi or 0, so the principal
    cut at pi or a cut at 0 (angles <= 0 moved up a turn) gives the least S,
    2 pi less that gap.  O(N), with no sort."""
    angles = [l.imag for l in log_z]
    spread = max(angles) - min(angles) if angles else 0.0
    terms = pair_terms(nm, spread)
    if spread <= math.pi:  # the gap that holds pi is the widest
        return log_z, terms
    # the spread with the cut at 0: the largest angle <= 0, moved up a turn,
    # less the smallest angle > 0 (both exist, since spread > pi)
    top, bottom = -math.pi, math.pi
    for a in angles:
        if a > 0:
            if a < bottom:
                bottom = a
        elif a > top:
            top = a
    moved = top + 2 * math.pi - bottom
    if pair_terms(nm, moved) >= terms:
        return log_z, terms
    return [l + 2j * math.pi if a <= 0 else l for l, a in zip(log_z, angles)], pair_terms(nm, moved)


@lru_cache(maxsize=16)
def _pair_rows(n: int, k: int) -> list:
    """The (N, 2N) block as blocks of rows, each a temporary of about CHUNK
    entries, with their offsets: 1, and the value that makes
    c / (w - offset) = -1/2 - i pi/lam where w = 1 on the diagonal.  The
    offsets of every block are views of one flat array: with top the start
    of the last block, the m rows from row a take the 2N m entries from
    top - a, whose diagonal entries a + r (2N + 1) hold that value."""
    rows = min(n, max(1, CHUNK // (2 * n)))
    top = (n - 1) // rows * rows
    flat = np.ones(top + 2 * n * rows, dtype=complex)
    flat[top :: 2 * n + 1] = 1 + 2j * math.pi / (nome(k).lam / 2 + 1j * math.pi)
    flat.flags.writeable = False
    return [(slice(a, min(a + rows, n)), flat[top - a: top - a + 2 * n * rows].reshape(-1, 2 * n)[: n - a])
            for a in range(0, n, rows)]


def _velocities(rows: np.ndarray, total, ln_r) -> np.ndarray:
    """i conj(rows + total) / (2 pi e^(2 ln r_l)) in place, for the rows
    D @ weights of points of log radii ln_r and total, the sum of the weights."""
    rows += total
    np.conj(rows, out=rows)
    rows *= (I_OVER_TWO_PI * np.exp(-2 * np.asarray(ln_r))).reshape((-1,) + (1,) * (rows.ndim - 1))
    return rows


def _pair_block(weights: np.ndarray, k: int):
    """The velocities from D @ weights through the (N, 2N) block
    w = e_i / [e_j, conj(e_j)] in numpy, in the blocks of rows of _pair_rows."""
    nm, blocks = nome(k), _pair_rows(len(weights), k)
    c, scale, sums = 2j * math.pi / nm.lam, 2 / nm.lam, nm.dual_sums
    signed, total = np.concatenate((weights, -weights)), sum(weights)
    weight_list = weights.tolist() if weights.ndim == 1 else None

    def evaluate(log_z: list) -> np.ndarray:
        log_z, terms = _pair_branches(log_z, nm)
        e = [cmath.exp(c * l) for l in log_z]
        e = np.array(e + [x.conjugate() for x in e], dtype=complex)  # e_j, conj(e_j)
        out = np.empty(weights.shape, dtype=complex)
        for part, offsets in blocks:
            w = e[part, None] / e
            g = w - offsets
            np.divide(c, g, out=g)
            if terms:
                # term n over one denominator: q w/(1 - q w) - q w^-1/(1 - q w^-1)
                # = (w - 1/w) / (q + 1/q - w - 1/w), q = Q^n, which vanishes at w = 1
                inv = 1 / w
                ends, odd = w + inv, c * (w - inv)
                for s in sums[:terms]:
                    g -= odd / (s - ends)
            g.dot(signed, out=out[part])
        # column j's term -(2/lam) ln|z_j|, summed in plain arithmetic for 1-D weights
        ln_r = [l.real for l in log_z]
        col = sum(map(operator.mul, ln_r, weight_list)) if weight_list is not None else ln_r @ weights
        out -= scale * col
        return _velocities(out, total, ln_r)

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
    are the code's globals: c = 2 pi i/lam, -2/lam, Q and 1/Q, the g(w) sums
    s_m of gap 0 and the one more of a gap of at least reach, the diagonal's
    constant.  compile_make registers the source in linecache."""
    nm = nome(k)
    near = pair_terms(nm, 0.0)
    # pair_terms(nm, gap) exceeds near from gap = reach on; beyond pi no pair gets there
    reach = 2 * math.pi * (near + 1 - nm.pair_order)
    # diag is the diagonal c/(w - offset) = -1/2 - i pi/lam of the numpy block (see _pair_rows)
    names = dict(c=2j * math.pi / nm.lam, scale=-2 / nm.lam, q=nm.q, inv_q=1 / nm.q, reach=reach,
                 diag=-0.5 - 1j * math.pi / nm.lam, exp=cmath.exp, exp_real=math.exp, pi=math.pi,
                 turn=2 * math.pi, i_2pi=I_OVER_TWO_PI)
    names.update((f"s{m}", s) for m, s in enumerate(nm.dual_sums[: near + 1]))

    def series(out: str, ei: str, v: str, terms: int) -> list:
        """Lines taking the g(w) terms s_0 .. s_(terms-1) from out, the leading term c v / (e_i - v)."""
        return [f"ee, vv, prod = {ei} * {ei}, {v} * {v}, {ei} * {v}", "num, ends = c * (ee - vv), ee + vv",
                *(f"{out} -= num / (s{m} * prod - ends)" for m in range(terms))] if terms else []

    def pair_series(terms: int) -> list:
        return ["    " + line for line in series("d", "x", "e{j}", terms) + series("h", "x", "v{j}", terms)]

    # templates of vortex i, of pair i < j and of the velocity of vortex i
    vortex = ["e{i} = exp(c * l{i})", "a{i} = l{i}.imag", "v{i} = e{i}.conjugate()",
              "d = c * v{i} / (e{i} - v{i})", *series("d", "e{i}", "v{i}", near), "o{i} = w{i} * (diag - d)"]
    pair = ["x, gap = e{i}, a{i} - a{j}", "if gap > pi:", "    x, gap = x * inv_q, gap - turn",
            "elif gap < -pi:", "    x, gap = x * q, gap + turn",
            "d, h = c * e{j} / (x - e{j}), c * v{j} / (x - v{j})",
            "if abs(gap) >= reach:", *pair_series(near + 1), *(["else:", *pair_series(near)] if near else []),
            "o{i} += w{j} * (d - h)", "o{j} -= w{i} * (d + h.conjugate())"]
    velocity = "    (o{i} + col + total).conjugate() * (i_2pi * exp_real(-2 * l{i}.real)),"
    points = range(n)
    # col starts from 0.0 as the loop's running sum did: a -0.0 term keeps its sums' bits
    body = [f"[{', '.join(f'l{i}' for i in points)}] = log_z",
            *(line.format(i=i) for i in points for line in vortex),
            f"col = (0.0{''.join(f' + l{i}.real * w{i}' for i in points)}) * scale",
            *(line.format(i=i, j=j) for i, j in itertools.combinations(points, 2) for line in pair),
            "return [", *(velocity.format(i=i) for i in points), "]"]
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
    The last line adds the column terms and the weights' sum to each row and
    scales it to dl/dt.  _sum_plan(N, k) writes all of this out once; the
    factory it gives binds the weights and their sum."""
    return _sum_plan(len(weights), k)(*weights, sum(weights))


def pair_evaluator(weights, k: int):
    """The callable log_z -> dl_l/dt, l = log z, the velocities of point
    vortices of circulations weights, shape (N,) or (N, M), in the level-k
    annulus: dl_l/dt = i conj(S_l) / (2 pi e^(2 Re l_l)), S_l = sum_j w_j
    (D_lj + 1), with D_lj = K(z_l/z_j) - K(z_l conj(z_j)) and
    D_ll = -K(|z_l|^2).  Built once per set of weights (an RK4 run), it binds
    the weights and their sum, so a call does only the work the points need.

    log_z, the list of Python complex numbers log z_j, is checked by the
    caller before any exponential and put on the principal branch, whose
    angles size the g(w) terms.  The N exps are plain complex arithmetic.
    In the dual form the number of points chooses the pair sums:
    - above LIST_MAX_POINTS numpy does the (N, 2N) block
      w = e_i / [e_j, conj(e_j)] in rows of about CHUNK entries, with the
      g(w) terms the points' angular spread needs, chosen on Python angles,
      one product with [weights; -weights] and the scaling in place;
    - up to LIST_MAX_POINTS the same entries are summed pair by pair in plain
      complex arithmetic, by the code _sum_plan compiles for (N, k), each
      pair with the terms of its own angle gap: weights given as a list of N
      numbers give a list, with no numpy call.
    The direct form takes log_derivative of all 2 N^2 pair arguments of the
    points z = exp(l) at once.  Coincident points divide by 0."""
    nm, n = nome(k), len(weights)
    if not nm.dual:
        total = sum(weights)

        def direct(log_z: list) -> np.ndarray:
            log_z = np.asarray(log_z, dtype=complex)
            kk = log_derivative(pair_arguments(np.exp(log_z)), k)
            kk[0].flat[:: n + 1] = 0.0
            return _velocities((kk[0] - kk[1]) @ weights, total, log_z.real)
        return direct
    if n > LIST_MAX_POINTS:
        return _pair_block(np.asarray(weights), k)
    if isinstance(weights, list):
        return _pair_sums(weights, k)
    sums = _pair_sums(list(weights), k)
    return lambda log_z: np.array(sums(log_z), dtype=complex).reshape(weights.shape)
