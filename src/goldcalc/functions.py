"""Golden exponentials and trig parts, phi-numbers, phi-exponentials with the
Euler product, phi-logarithms, and golden analytic functions.

Every series and product stops once a proven bound on what it leaves out is
at most TAIL times its partial sum; there is no truncation option.  It
refuses with ValueError a non-finite argument or partial sum, an argument
outside its domain, and a ratio series that needs more than MAX_TERMS terms,
which happens only near the radius of convergence.

The phi-exponential and phi-logarithm (`e_phi`, `e_phi_product`, `ln_phi`)
also take a numpy array of arguments: one pass over the terms serves every
entry, each entry stops by its own rule and keeps its value from there, and
a refusal names the first entry at fault.  A Python number takes the plain
scalar loop and gives a Python number; only an array imports numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain, count, islice

from goldcalc.combinatorics import GoldenBinomial, golden_binomial, golden_binomial_eval
from goldcalc.ring import PHI, TAIL, GoldenExact, fib_divisor, golden_pow

MAX_TERMS = 10_000  # most terms a ratio series may take before it is refused
POLE_MARGIN = 1e-8  # closest relative approach to a pole that ln_phi's pole sum accepts
# terms or factors in the first pass of an array form, and twice as many in
# each later one: its temporaries hold (entries, 2 BLOCK + 1) values at most
BLOCK = 32


def _check_finite(name: str, z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValueError(f"{name} needs a finite argument, got {z!r}")


def _is_number(z) -> bool:
    return isinstance(z, (int, float, complex))


def _refuse(bad, shape: tuple, message) -> None:
    """Raise ValueError(message(i) + the entry) for the first flat index i
    where the boolean array bad holds, the entry named in an array of shape."""
    import numpy as np

    at = np.flatnonzero(bad)
    if at.size:
        entry = tuple(int(i) for i in np.unravel_index(at[0], shape))
        raise ValueError(f"{message(at[0])} (entry {entry[0] if len(entry) == 1 else entry})")


def _finite_array(name: str, z) -> tuple:
    """(z as a flat complex array, the shape of z), refusing its first non-finite entry."""
    import numpy as np

    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    _refuse(~np.isfinite(flat), z.shape, lambda i: f"{name} needs a finite argument, got {complex(flat[i])!r}")
    return flat, z.shape


def _sequence(first: float, step: float, op, width: int):
    """first, first op step, (first op step) op step, ...: width values, each
    rounded as a scalar loop that applies op step by step rounds it."""
    import numpy as np

    return op.accumulate(np.concatenate(([first], np.full(width - 1, step))))


def _accumulate(op, first, block):
    """op.accumulate along each row of [first, block] less first: the running
    sums or products of the rows of block from first, taken in sequence."""
    import numpy as np

    return op.accumulate(np.concatenate((first[:, None], block), axis=1), axis=1)[:, 1:]


def _settle(out, live, values, end):
    """Store in out, at the flat entries live, each row's value at the first
    column where end holds; return the mask of the rows where it holds in none."""
    hit = end.any(axis=1)
    out[live[hit]] = values[hit, end[hit].argmax(axis=1)]
    return ~hit


def _ratio_series(name: str, total: complex, ratios, limit: float = 0.0) -> complex:
    """total + t_1 + t_2 + ..., with t_0 = 1 and t_n = t_(n-1) r_n for the
    ratios r_n, whose sizes either never rise or stay below limit.

    So rho = max(|r_(n+1)|, limit) bounds every ratio after r_n, and once
    rho < 1 the terms after t_n sum to at most |t_n| rho/(1 - rho); the sum
    stops when that is at most TAIL times its size."""
    term: complex = 1.0
    ratio, inf = next(ratios), math.inf
    for n, following in zip(range(1, MAX_TERMS + 1), ratios):
        term *= ratio
        total += term
        size = abs(total)
        if not size < inf:
            raise ValueError(f"{name}: the partial sum is not finite after {n} terms")
        rho = abs(following)
        if rho < limit:
            rho = limit
        if rho < 1 and abs(term) * rho <= TAIL * size * (1 - rho):
            return total
        ratio = following
    raise ValueError(f"{name}: the tail bound needs more than {MAX_TERMS} terms "
                     f"(ratio bound {rho:.6g}, near the radius of convergence)")


def _ratio_series_array(name: str, flat, shape: tuple, total: float, coefficients, limit=0.0):
    """_ratio_series on the flat entries of an array of shape, for the ratios
    z c_n of the coefficients c_n, with limit a float or one per entry.  Each
    entry stops by the same rule, read on passes of BLOCK terms and then
    2 BLOCK, and is refused as the scalar sum would be."""
    import numpy as np

    out, live, limit = np.empty_like(flat), np.arange(flat.size), np.broadcast_to(limit, flat.shape)
    sums, term = np.full(flat.size, total, dtype=complex), np.ones_like(flat)
    c, done = [next(coefficients)], 0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        while live.size and done < MAX_TERMS:
            c = c[-1:] + list(islice(coefficients, min(2 * BLOCK if done else BLOCK, MAX_TERMS - done)))
            done += len(c) - 1
            ratios = flat[live, None] * np.array(c)  # the last one follows the block
            terms = _accumulate(np.multiply, term, ratios[:, :-1])
            partial = _accumulate(np.add, sums, terms)
            size, rho = np.abs(partial), np.maximum(np.abs(ratios[:, 1:]), limit[live, None])
            going = _settle(out, live, partial,
                            ~(size < math.inf) | ((rho < 1) & (np.abs(terms) * rho <= TAIL * size * (1 - rho))))
            live, term, sums, rho = live[going], terms[going, -1], partial[going, -1], rho[going, -1]
    unfinished = np.zeros(flat.shape, dtype=bool)
    unfinished[live] = True  # rho[0] is the first one's
    _refuse(unfinished, shape, lambda i: f"{name}: the tail bound needs more than {MAX_TERMS} terms "
                                         f"(ratio bound {rho[0]:.6g}, near the radius of convergence)")
    _refuse(~(np.abs(out) < math.inf), shape, lambda i: f"{name}: the partial sum is not finite")
    return out.reshape(shape)


def _inverse_brackets(q: float):
    """1/[1]_q, 1/[2]_q, ...: [n+1]_q = q [n]_q + 1, taken on the inverses,
    which do not overflow."""
    inverse = 1.0
    while True:
        yield inverse
        inverse /= q + inverse


def golden_exp(x: complex, k: int = 1, variant: str = "e") -> complex:
    """Level-k golden exponential: sum x^n / F_n^(k)!.

    variant "e" is the plain series; variant "E" carries the extra sign
    (-1)^(k n(n-1)/2) and satisfies E(x, k) = e(x, -k).  Both are entire, and
    their ratios x/F_n^(k) never rise in size.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if variant not in ("e", "E"):
        raise ValueError(f"variant must be 'e' or 'E', got {variant!r}")
    _check_finite("golden_exp", x)
    sign = -1 if variant == "E" and k % 2 else 1  # E's ratio n carries (-1)^(k (n - 1))
    # 1/F_n^(k) as int division, which gives 0.0 beyond float range
    return _ratio_series("golden_exp", 1.0,
                         (x * sign ** (n - 1) * (1 / fib_divisor(n, k)) for n in count(1)))


def golden_trig(x: float, k: int = 1, which: str = "cos") -> float:
    """Golden cosine/sine at level k: the real/imaginary part of the level-(-k)
    E-exponential evaluated at i*x."""
    if which not in ("cos", "sin"):
        raise ValueError(f"which must be 'cos' or 'sin', got {which!r}")
    _check_finite("golden_trig", x)
    val = golden_exp(1j * x, -k, "E")
    return val.real if which == "cos" else val.imag


def phi_number(n: int, k: int = 1) -> GoldenExact:
    """[n] at base phi^k: the exact geometric sum 1 + phi^k + ... + phi^(k(n-1)).

    Always lands in Z[phi]; the closed division form (phi^(k n) - 1)/(phi^k - 1)
    is recovered by the tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = GoldenExact(0)
    for j in range(n):
        total = total + golden_pow(k * j)
    return total


def e_phi(z):
    """Entire phi-exponential sum z^n / ([n]_phi)!, with falling ratios z/[n]_phi;
    elementwise over an array z."""
    if _is_number(z):
        _check_finite("e_phi", z)
        return _ratio_series("e_phi", 1.0, (z * c for c in _inverse_brackets(PHI)))
    flat, shape = _finite_array("e_phi", z)
    return _ratio_series_array("e_phi", flat, shape, 1.0, _inverse_brackets(PHI))


def E_phi(z: complex) -> complex:
    """Companion series sum phi^(n(n-1)/2) z^n / ([n]_phi)!.

    Unlike e_phi this one is not entire: its ratios
    z phi^(n-1)/[n]_phi = z (phi - 1)/(phi - phi^(1-n)) fall in size to
    |z|/phi^2, so the series only converges for |z| < phi^2.
    """
    _check_finite("E_phi", z)
    if abs(z) >= PHI**2:
        raise ValueError(f"E_phi converges only for |z| < phi^2, got |z|={abs(z):.6g}")
    return _ratio_series("E_phi", 1.0,
                         (z * (PHI - 1) / (PHI - PHI ** (1 - n)) for n in count(1)))


def e_phi_product(z):
    """Euler product prod_{n>=0} (1 + z/phi^(n+2)) for e_phi; elementwise over
    an array z.

    Zeros sit exactly at z = -phi^(n+2); the factored form keeps them explicit.
    The factors after factor n change the product by a factor within
    expm1(s) ~ s of 1, s = sum_{m>n} |z| phi^-(m+2) = |z| phi^-(n+1).  The
    factors below |z| multiply to about phi^(m^2/2), m = log_phi |z|, so the
    product overflows from |z| ~ 1e12 on: the factor count is read from |z|
    capped at 1e200, which keeps phi^-(n+2) a normal double (below them,
    dividing by phi stops shrinking it, and the count never ends).
    """
    if _is_number(z):
        _check_finite("e_phi_product", z)
        total: complex = 1.0
        scale, size = 1.0 / PHI**2, min(abs(z), 1e200)  # scale = phi^-(n+2)
        while True:
            total *= 1.0 + z * scale
            if size * scale * PHI <= TAIL:  # s after factor n
                break
            scale /= PHI
        if not abs(total) < math.inf:  # a product that overflowed stays inf or nan
            raise ValueError("e_phi_product: the partial product is not finite")
        return total
    import numpy as np

    flat, shape = _finite_array("e_phi_product", z)
    out, live, total = np.empty_like(flat), np.arange(flat.size), np.ones_like(flat)
    size, first, width = np.minimum(np.abs(flat), 1e200), 1.0 / PHI**2, BLOCK
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        while live.size:  # scale = phi^-(n+2) by repeated division
            scales, width = _sequence(first, PHI, np.divide, width), 2 * BLOCK
            partial = _accumulate(np.multiply, total, 1.0 + flat[live, None] * scales)
            going = _settle(out, live, partial, size[live, None] * scales * PHI <= TAIL)
            live, total, first = live[going], partial[going, -1], scales[-1] / PHI
    _refuse(~(np.abs(out) < math.inf), shape, lambda i: "e_phi_product: the partial product is not finite")
    return out.reshape(shape)


def ln_phi(z, k: int = 1, form: str = "pole_sum"):
    """Phi-logarithm Ln at base phi^k, of argument 1 + z; elementwise over an
    array z.

    form "series":   sum (-1)^(n-1) z^n / [n]_{phi^k}, valid for |z| < phi^k;
                     its ratios -z [n-1]/[n] stay below |z|/max(phi^k, 1).
    form "pole_sum": (phi^k - 1) * sum z / (phi^(k n) + z), valid for k > 0
                     away from the simple poles z = -phi^(k n); once
                     phi^(k n) >= 2|z| the terms after n sum to at most
                     2|z| / (phi^(k n) (phi^k - 1)).
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    number = _is_number(z)
    if number:
        _check_finite("ln_phi", z)
    else:
        flat, shape = _finite_array("ln_phi", z)
    try:
        q = PHI**k
    except OverflowError:
        raise ValueError(f"phi^{k} overflows a double") from None
    if form == "series":
        if not number:
            return _ln_phi_series(flat, shape, k, q)
        size = abs(z)
        if size >= q:
            raise ValueError(f"series form requires |z| < phi^{k}, got |z|={size:.6g}")
        ratios = chain([z], (-z / (q + c) for c in _inverse_brackets(q)))  # [n]/[n+1] = 1/(q + 1/[n])
        return _ratio_series("ln_phi series", 0.0, ratios, size / max(q, 1.0))
    if form == "pole_sum":
        if k < 0:
            raise ValueError(f"pole_sum form needs k > 0, got k={k}")
        if not number:
            return _ln_phi_pole_sum(flat, shape, k, q)
        total = 0.0
        pole = q
        size = abs(z)
        for n in count(1):
            den = pole + z
            if abs(den) < POLE_MARGIN * pole:
                raise ValueError(
                    f"argument within {POLE_MARGIN:.1g} (relative) of pole z = -phi^{k * n}")
            total += z / den
            if pole >= 2 * size and 2 * size / (q - 1) <= TAIL * abs(total) * pole:
                return (q - 1.0) * total
            pole *= q
            if pole == math.inf:
                raise ValueError(f"ln_phi pole sum at |z|={size:.6g} needs poles beyond float range")
    raise ValueError(f"form must be 'series' or 'pole_sum', got {form!r}")


def _ln_phi_series(flat, shape: tuple, k: int, q: float):
    """ln_phi's series form on the flat entries of an array of shape."""
    import numpy as np

    size = np.abs(flat)
    _refuse(size >= q, shape, lambda i: f"series form requires |z| < phi^{k}, got |z|={size[i]:.6g}")
    coefficients = chain([1.0], (-1 / (q + c) for c in _inverse_brackets(q)))
    return _ratio_series_array("ln_phi series", flat, shape, 0.0, coefficients, size / max(q, 1.0))


def _ln_phi_pole_sum(flat, shape: tuple, k: int, q: float):
    """ln_phi's pole sum on the flat entries of an array of shape: each entry
    stops by the scalar rule, read on passes of BLOCK poles and then 2 BLOCK,
    and is refused where the scalar sum would be: at a pole within
    POLE_MARGIN, or for poles beyond float range."""
    import numpy as np

    out, live, sums = np.empty_like(flat), np.arange(flat.size), np.zeros_like(flat)
    size = np.abs(flat)
    twice, tail = 2 * size, 2 * size / (q - 1)
    near = np.zeros(flat.shape, dtype=int)  # n of the pole phi^(k n) that refuses the entry, 0 for none
    first, n, width = q, 1, BLOCK  # the pass's first pole, phi^(k n), by repeated multiplication
    with np.errstate(over="ignore", invalid="ignore"):  # poles beyond float range; |z| beyond it never stops
        while live.size and first < math.inf:
            poles, width = _sequence(first, q, np.multiply, width), 2 * BLOCK
            poles = poles[poles < math.inf]
            z = flat[live, None]
            den = poles + z
            partial = _accumulate(np.add, sums, z / den)
            end = (poles >= twice[live, None]) & (tail[live, None] <= TAIL * np.abs(partial) * poles)
            # a pole within the margin lies below 2|z|, so before the entry's stop
            close = np.abs(den) < POLE_MARGIN * poles
            near[live] = np.where(close.any(axis=1), n + close.argmax(axis=1), 0)
            going = _settle(out, live, partial, end) & (near[live] == 0)
            live, sums, first, n = live[going], partial[going, -1], poles[-1] * q, n + len(poles)
    _refuse(near > 0, shape,
            lambda i: f"argument within {POLE_MARGIN:.1g} (relative) of pole z = -phi^{k * near[i]}")
    beyond = np.zeros(flat.shape, dtype=bool)
    beyond[live] = True
    _refuse(beyond, shape, lambda i: f"ln_phi pole sum at |z|={size[i]:.6g} needs poles beyond float range")
    return ((q - 1.0) * out).reshape(shape)


@dataclass(frozen=True)
class GoldenAnalyticFunction:
    """Power-basis coefficients a_n promoted to a level-k golden analytic function.

    Evaluation replaces x^n by the golden binomial (x + i y)^n at level k; the
    real and imaginary parts u, v then satisfy the golden Cauchy-Riemann pair
    with mixed levels (k, -k).
    """

    coeffs: tuple[complex, ...]
    k: int = 1
    # (a_n, golden binomial of degree n) for each nonzero a_n, built once
    binomials: tuple[tuple[complex, GoldenBinomial], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k == 0:
            raise ValueError("k must be nonzero")
        object.__setattr__(self, "binomials", tuple(
            (a, golden_binomial(n, self.k)) for n, a in enumerate(self.coeffs) if a != 0))


def golden_analytic_eval(g: GoldenAnalyticFunction, x, y) -> tuple:
    """(u, v) with u + iv = sum a_n * (x + i y)^n at binomial level k, at
    floats x, y or elementwise over numpy arrays of one shape."""
    total = 0j
    for a, binomial in g.binomials:
        total += a * golden_binomial_eval(binomial, x, 1j * y)
    return total.real, total.imag
