"""The prime-function kernel against the paper's other forms of the same flow.

The production paths (`hydro.flow`, `field_grid`, `dynamics.n_vortex_rhs`,
`hamiltonian`) evaluate the annulus prime function in closed form.  These
property tests compare them on random interior points, walls included, with
image ladders summed to a 1e-40 tail, phi-logarithm pole sums and the
phi-exponential Euler product.
"""

import cmath
import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldcalc import dynamics, hydro, kernel
from goldcalc.functions import e_phi_product
from goldcalc.ring import PHI

LEVELS = [1, 2, 3, 4, 5, 6, 7, 8, 20]
SQRT_PHI = math.sqrt(PHI)


def ladder_annulus(k: int) -> hydro.AnnulusSpec:
    """Annulus whose ladders are truncated where the terms fall below 1e-40."""
    return hydro.AnnulusSpec(k, math.ceil(40 / (k * math.log10(PHI))) + 1)


@st.composite
def radial_fraction(draw):
    """A fraction of the annulus width in (0, 1), often within 1e-9 of a wall."""
    kind = draw(st.sampled_from(["inner", "outer", "interior"]))
    if kind == "interior":
        return draw(st.floats(1e-3, 1 - 1e-3))
    off = draw(st.floats(1e-12, 1e-9))
    return off if kind == "inner" else 1 - off


def point(k: int, fraction: float, angle: float) -> complex:
    outer = PHI ** (k / 2)
    return cmath.rect(1 + (outer - 1) * fraction, angle)


angles = st.floats(-math.pi, math.pi)


class TestNome:
    def test_form_and_terms(self):
        assert kernel.nome(1).dual and kernel.nome(1).terms == 1
        assert kernel.nome(4).dual and kernel.nome(4).terms == 2
        assert not kernel.nome(20).dual

    @pytest.mark.parametrize("k", [0, -1, 2.0, True, 1475])
    def test_invalid_level(self, k):
        with pytest.raises(ValueError):
            kernel.nome(k)

    def test_largest_finite_level(self):
        assert math.isfinite(PHI**1474)
        assert not kernel.nome(1474).dual

    @pytest.mark.parametrize("k", [1, 4, 12, 16, 40])
    def test_both_forms_agree(self, k):
        # the dual series and the direct product are the same function; each k
        # uses one of them, so evaluate the other one here by hand
        rng = np.random.default_rng(k)
        outer = PHI ** (k / 2)
        zeta = (rng.uniform(1, outer, 40) * np.exp(1j * rng.uniform(-3, 3, 40))
                / (rng.uniform(1, outer, 40) * np.exp(1j * rng.uniform(-3, 3, 40))))
        p = PHI**-k
        n = np.arange(1, 400)[:, None]
        direct_k = (1 - 1 / (1 - zeta)
                    + np.sum(1 / (1 - p**n / zeta) - 1 / (1 - p**n * zeta), axis=0))
        direct_p = np.log(np.abs(1 - zeta)) + np.sum(
            np.log(np.abs((1 - p**n * zeta) * (1 - p**n / zeta))), axis=0)
        assert np.max(np.abs(kernel.log_derivative(zeta, k) - direct_k)) < 1e-13
        assert np.max(np.abs(kernel.log_abs_prime(zeta, k) - direct_p)) < 1e-13


class TestFlowAgainstLadders:
    @settings(max_examples=150, deadline=None)
    @given(k=st.sampled_from(LEVELS), f0=st.floats(0.05, 0.95), a0=angles,
           fa=radial_fraction(), aa=angles, fb=radial_fraction(), ab=angles,
           gamma=st.floats(-2, 2).filter(lambda g: abs(g) > 1e-3))
    def test_velocity_and_psi_differences(self, k, f0, a0, fa, aa, fb, ab, gamma):
        z0 = point(k, f0, a0)
        za, zb = point(k, fa, aa), point(k, fb, ab)
        assume(min(abs(za - z0), abs(zb - z0)) > 1e-6)
        ann = ladder_annulus(k)
        psi, vel = hydro.flow(ann, [(z0, gamma)], np.array([za, zb]))
        sys = hydro.ImageSystem(z0, gamma, ann)
        for z, v in zip((za, zb), vel):
            ref = hydro.vortex_velocity(sys, z)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))
        ref_diff = hydro.stream_function(sys, za) - hydro.stream_function(sys, zb)
        assert abs((psi[0] - psi[1]) - ref_diff) <= 1e-11 * max(1.0, abs(gamma))

    @pytest.mark.parametrize("k", [1, 4, 20])
    @pytest.mark.parametrize("distance", [1e-6, 1e-4, 1e-2])
    def test_precision_near_the_vortex(self, k, distance):
        # the ladder subtracts z - z0 exactly; the kernel must not lose
        # relative precision to the rounded ratio z / z0 there
        z0 = point(k, 0.4, 0.7)
        ann = ladder_annulus(k)
        sys = hydro.ImageSystem(z0, 1.0, ann)
        zs = z0 + distance * np.exp(1j * np.linspace(0, 2 * math.pi, 12, endpoint=False))
        zb = point(k, 0.8, -2.0)
        psi, vel = hydro.flow(ann, [(z0, 1.0)], np.append(zs, zb))
        ref = np.array([hydro.vortex_velocity(sys, complex(z)) for z in zs])
        assert np.max(np.abs(vel[:-1] - ref) / np.abs(ref)) < 1e-13
        ref_psi = [hydro.stream_function(sys, complex(z)) - hydro.stream_function(sys, zb)
                   for z in zs]
        assert np.max(np.abs(psi[:-1] - psi[-1] - ref_psi)) < 1e-11

    @pytest.mark.parametrize("k", LEVELS)
    def test_psi_constant_on_each_wall(self, k):
        z0 = point(k, 0.37, 0.8)
        ann = hydro.AnnulusSpec(k)
        wall = np.exp(1j * np.linspace(0, 2 * math.pi, 50, endpoint=False))
        inner, _ = hydro.flow(ann, [(z0, 1.3)], wall)
        outer, _ = hydro.flow(ann, [(z0, 1.3)], ann.outer_radius * wall)
        assert np.max(np.abs(inner - 1.3 * math.log(abs(z0)) / (2 * math.pi))) < 1e-13
        expected = 1.3 * math.log(abs(z0) ** 2 / ann.outer_radius) / (2 * math.pi)
        assert np.max(np.abs(outer - expected)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(z0=st.tuples(st.floats(0.05, 0.95), angles), fz=radial_fraction(), az=angles)
    def test_k1_velocity_matches_pole_sum(self, z0, fz, az):
        zs, z = point(1, *z0), point(1, fz, az)
        assume(abs(z - zs) > 1e-6)
        _, vel = hydro.flow(hydro.AnnulusSpec(1), [(zs, 0.7)], np.array([z]))
        ref = hydro.velocity_via_ln_phi([(zs, -0.7 / (2 * math.pi))], z)
        assert abs(vel[0] - ref) <= 1e-12 * max(1.0, abs(ref))


@st.composite
def pair_points(draw, k: int) -> np.ndarray:
    """2 to 6 points of the level-k annulus, often within 1e-9 of a wall; the
    first two are more than pi apart in angle, so their principal log wraps."""
    first = draw(st.floats(-math.pi, 0))
    angs = [first, first + draw(st.floats(math.pi + 1e-6, 2 * math.pi - 1e-6))]
    angs += draw(st.lists(angles, max_size=4))
    zs = np.array([point(k, draw(radial_fraction()), a) for a in angs])
    assume(all(abs(a - b) > 1e-6 for i, a in enumerate(zs) for b in zs[i + 1:]))
    return zs


def pair_reference(zs: np.ndarray, k: int):
    """K(z_i/z_j) - K(z_i conj z_j) from log_derivative on the built arguments,
    with K(z_i/z_i) dropped; also |K| of both arguments."""
    kk = kernel.log_derivative(kernel.pair_arguments(zs), k)
    kk[0].flat[:: len(zs) + 1] = 0.0
    return kk[0] - kk[1], np.abs(kk[0]) ** 2 + np.abs(kk[1]) ** 2


def pair_matrix(evaluate, log_z) -> np.ndarray:
    """D read back from the velocities dl/dt of an evaluator built on unit
    weights (np.eye): column j holds i conj(D_lj + 1) / (2 pi |z_l|^2), so
    D = 2 pi i |z|^2 conj(v) - 1, a few ulps of |D| + 1 off."""
    r2 = np.exp(2 * np.real(np.asarray(log_z, dtype=complex)))
    return np.conj(evaluate(log_z)) * (2j * math.pi * r2)[:, None] - 1


class TestPairLogDerivative:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.sampled_from(LEVELS))
    def test_equals_log_derivative(self, data, k):
        log_z = np.log(data.draw(pair_points(k)))
        got = pair_matrix(kernel.pair_evaluator(np.eye(len(log_z)), k), log_z.tolist())
        # the evaluator takes logs: the reference reads the points they stand for
        ref, k_squared = pair_reference(np.exp(log_z), k)
        # rounding an argument zeta by 1e-16 moves K by about |K|^2 1e-16 near
        # its pole zeta = 1 (a vortex by a wall, or two vortices close
        # together), and the two routes round different quantities
        tol = 1e-13 * np.maximum(1.0, np.abs(ref)) + 1e-15 * k_squared
        assert np.all(np.abs(got - ref) <= tol)

    def test_direct_form_near_the_outer_wall_is_exact_at_the_points_of_its_logs(self):
        # at k = 20 (direct form) the evaluator takes the logs and builds its
        # arguments from z = exp(l): near |z| = phi^10, next to the pole of K
        # at |z|^2 = phi^20, the rounding of exp(log z) against the z the
        # logs were taken of moves D by more than this bound allows, so the
        # reference reads the points the logs stand for
        log_z = np.log([1.000000117346493, -122.99186926383625 - 0.00012299186926600664j])
        got = pair_matrix(kernel.pair_evaluator(np.eye(2), 20), log_z.tolist())
        ref, k_squared = pair_reference(np.exp(log_z), 20)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)) + 1e-15 * k_squared)

    @pytest.mark.parametrize("k", LEVELS)
    def test_full_circle_of_200_points(self, k):
        # at k = 1 the e_j span exp(+-41) and their ratios exp(+-82)
        ang = 2 * math.pi * np.arange(200) / 200 + 0.01
        zs = np.array([point(k, f, a) for f, a in zip(np.linspace(0.02, 0.98, 200), ang)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pair_matrix(kernel.pair_evaluator(np.eye(200), k), np.log(zs).tolist())
        ref, k_squared = pair_reference(zs, k)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)) + 1e-15 * k_squared)

    @pytest.mark.parametrize("k", LEVELS)
    def test_lone_vortex_at_geometric_mean_radius_is_stationary(self, k):
        # K(phi^(k/2)) = 1, so the velocity factor D + 1 of a single vortex
        # at phi^(k/4) vanishes
        assert abs(kernel.log_derivative(PHI ** (k / 2), k) - 1) < 1e-14
        z = cmath.rect(PHI ** (k / 4), 0.9)
        got = pair_matrix(kernel.pair_evaluator(np.eye(1), k), [cmath.log(z)])
        assert abs(got[0, 0] + 1) < 1e-14


LIST_MAX = kernel.LIST_MAX_POINTS
DUAL_LEVELS = [k for k in LEVELS if kernel.nome(k).dual]


@st.composite
def spread_points(draw, k: int, sizes: tuple[int, int]) -> list[complex]:
    """sizes[0] to sizes[1] points of the level-k annulus, often within 1e-9
    of a wall.  The first two sit nearly antipodal (1e-9 to 0.1 rad from pi
    apart), on either side of the cut at pi, or anywhere."""
    kind = draw(st.sampled_from(["antipodal", "across the cut", "free"]))
    first = draw(angles)
    if kind == "antipodal":
        second = first + math.pi + draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-9, 0.1))
    elif kind == "across the cut":
        first, second = math.pi - draw(st.floats(1e-9, 0.5)), draw(st.floats(1e-9, 0.5)) - math.pi
    else:
        second = draw(angles)
    n = draw(st.integers(*sizes))
    extra = max(0, n - 2)
    angs = ([first, second] + draw(st.lists(angles, min_size=extra, max_size=extra)))[:n]
    zs = [point(k, draw(radial_fraction()), a) for a in angs]
    assume(all(abs(a - b) > 2e-6 for i, a in enumerate(zs) for b in zs[i + 1:]))
    return zs


@st.composite
def rhs_states(draw) -> dynamics.VortexState:
    """1 to LIST_MAX + 2 vortices of the k = 1 annulus (see spread_points):
    both sides of the size that chooses the pair evaluator."""
    zs = draw(spread_points(1, (1, LIST_MAX + 2)))
    return dynamics.VortexState(tuple(zs), tuple(draw(st.floats(-2, 2)) for _ in zs))


@contextlib.contextmanager
def counting(name: str):
    """The calls of the evaluators that kernel.<name> builds inside the block,
    one entry, the number of points, per call."""
    calls, original = [], getattr(kernel, name)

    def counted(*args):
        evaluate = original(*args)

        def run(log_z):
            calls.append(len(log_z))
            return evaluate(log_z)
        return run

    setattr(kernel, name, counted)
    try:
        yield calls
    finally:
        setattr(kernel, name, original)


class TestListSumsAgainstNumpyBlock:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.sampled_from(DUAL_LEVELS))
    def test_equal_within_the_pair_bound(self, data, k):
        # up to LIST_MAX points pair_evaluator sums D in plain complex
        # arithmetic; the numpy block, which runs above, is the reference
        zs = data.draw(spread_points(k, (1, LIST_MAX)))
        gammas = data.draw(st.lists(st.floats(-2, 2), min_size=len(zs), max_size=len(zs)))
        log_z = np.log(zs).tolist()
        eye = np.eye(len(zs))
        # the block sums every term its spread needs on the diagonal too
        ref = pair_matrix(kernel._pair_block(eye, k), log_z)
        _, k_squared = pair_reference(np.array(zs), k)
        tol = 1e-13 * np.maximum(1.0, np.abs(ref)) + 1e-15 * k_squared  # TestPairLogDerivative's
        assert np.all(np.abs(pair_matrix(kernel._pair_sums(list(eye), k), log_z) - ref) <= tol)
        # the velocities dl/dt of the weights gammas: the bound on each D entry,
        # summed with |gamma| and divided by 2 pi |z|^2
        got = kernel._pair_sums(gammas, k)(log_z)
        two_pi_r2 = 2 * math.pi * np.abs(zs) ** 2
        ref_v = 1j * np.conj(ref @ gammas + sum(gammas)) / two_pi_r2
        assert np.all(np.abs(got - ref_v) <= tol @ np.abs(gammas) / two_pi_r2)


class TestRhsAgainstPairReference:
    @settings(max_examples=150, deadline=None)
    @given(state=rhs_states())
    @example(state=dynamics.VortexState(
        tuple(point(1, 0.5, 0.3 + 2 * math.pi * l / LIST_MAX) for l in range(LIST_MAX)),
        tuple(1.0 - 0.4 * l for l in range(LIST_MAX))))
    @example(state=dynamics.VortexState(
        tuple(point(1, 0.5, 0.3 + 2 * math.pi * l / (LIST_MAX + 2)) for l in range(LIST_MAX + 2)),
        tuple(1.0 - 0.4 * l for l in range(LIST_MAX + 2))))
    def test_rhs_equals_velocity_from_log_derivative(self, state):
        zs, gammas = np.array(state.positions), np.array(state.circulations)
        ref_d, k_squared = pair_reference(zs, dynamics.LEVEL)
        ref = np.conj((ref_d + 1) @ gammas / (2j * math.pi * zs))
        # TestPairLogDerivative's bound on each D entry, summed with |gamma|
        tol = ((1e-13 * np.maximum(1.0, np.abs(ref_d)) + 1e-15 * k_squared) @ np.abs(gammas)
               / (2 * math.pi * np.abs(zs)))
        # the size of the state chooses the evaluator: plain sums up to
        # LIST_MAX vortices, the numpy block above (both are in the examples)
        with counting("_pair_sums") as sums, counting("_pair_block") as block:
            got = dynamics.n_vortex_rhs(state)
        assert (sums, block) == (([len(zs)], []) if len(zs) <= LIST_MAX else ([], [len(zs)]))
        assert np.all(np.abs(got - ref) <= tol)


def ring_stage(n: int) -> tuple:
    """n vortices of varied circulation around the whole k = 1 annulus, which
    needs a g(w) term, as an RK4 stage whose pairs are known to be clear."""
    zs = [point(1, 0.1 + 0.8 * (l % 7) / 6, 2 * math.pi * l / n - 3) for l in range(n)]
    return np.log(zs).tolist(), dynamics._velocity_field([1.0 - 1.5 * l / n for l in range(n)]), True


class TestPairBlockRows:
    """Above LIST_MAX points the numpy block goes in rows of about
    kernel.CHUNK entries, so its temporaries do not grow as N^2."""

    def test_rhs_memory_at_600_vortices(self):
        # one (N, 2N) temporary of the whole block would take 11.5 MB
        stage = ring_stage(600)
        tracemalloc.start()
        try:
            dynamics.n_vortex_rhs(stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_rows_equal_the_pair_reference(self):
        # 150 points take 12 blocks of rows, the last of 7 rows
        stage = ring_stage(150)
        zs = np.exp(stage[0])
        gammas = np.array([1.0 - 1.5 * l / 150 for l in range(150)])
        ref_d, k_squared = pair_reference(zs, dynamics.LEVEL)
        two_pi_r2 = 2 * math.pi * np.abs(zs) ** 2
        ref = 1j * np.conj((ref_d + 1) @ gammas) / two_pi_r2  # dl/dt
        # TestPairLogDerivative's bound on each D entry, summed with |gamma|
        tol = (1e-13 * np.maximum(1.0, np.abs(ref_d)) + 1e-15 * k_squared) @ np.abs(gammas) / two_pi_r2
        assert np.all(np.abs(dynamics.n_vortex_rhs(stage) - ref) <= tol)


class TestPrimeArguments:
    @pytest.mark.parametrize("k", [1, 4, 20])
    @pytest.mark.parametrize("bad", [0, -0j, math.inf, -math.inf, math.nan,
                                     complex(1.2, math.inf), complex(math.nan, 0.3)])
    def test_zero_or_non_finite_argument_rejected_before_any_warning(self, k, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for zeta in (bad, np.array([1.3 + 0.2j, bad, 0.7 - 0.1j])):
                for f in (kernel.log_derivative, kernel.log_abs_prime, kernel.log_prime):
                    with pytest.raises(ValueError, match="finite and nonzero"):
                        f(zeta, k)


class TestPairTermSizing:
    """Up to LIST_MAX points each pair sums the g(w) terms of its own angle
    gap, moved a turn into [-pi, pi]; above it the numpy block sums those of
    the points' angular spread, on branches that put the cut in a gap wider
    than pi if there is one."""

    def test_terms_from_spread(self):
        assert kernel.pair_terms(kernel.nome(1), 3.03) == 0
        assert kernel.pair_terms(kernel.nome(1), 3.04) == 1
        for k in range(1, 15):  # the dual form; at spread 2 pi, the tail bound (4 pi/lam) Q^M / (1 - Q)^2
            nm = kernel.nome(k)
            assert nm.dual
            full = max(1, math.ceil(math.log(kernel.TAIL * nm.lam / (4 * math.pi) * (1 - nm.q) ** 2, nm.q)))
            assert kernel.pair_terms(nm, 2 * math.pi) == full

    @pytest.mark.parametrize("angles", [(0.3, 1.5), (3.0, -3.0), (-0.1, 2.9), (2.0, -1.0)])
    def test_a_pair_at_k1_needs_no_term_unless_nearly_antipodal(self, angles):
        zs = np.array([cmath.rect(1.1, a) for a in angles])
        assert kernel._pair_branches(np.log(zs).tolist(), kernel.nome(1))[1] == 0

    @pytest.mark.parametrize("k", DUAL_LEVELS)
    @pytest.mark.parametrize("n", range(2, LIST_MAX + 1))
    def test_diagonal_takes_the_terms_of_spread_zero(self, k, n):
        # D_ii = -K(|z_i|^2) has the real L = 2 ln|z_i| on every branch, so the
        # plain sums give it pair_terms(nm, 0) g(w) terms, while the points'
        # spread needs at least one; two lie within 1e-9 of a wall
        zs = [point(k, f, 0.3 + 2 * math.pi * l / n) for l, f in enumerate([1e-10, 1 - 1e-10, 0.5, 0.2, 0.8, 0.35, 0.65][:n])]
        log_z = [cmath.log(z) for z in zs]
        assert kernel._pair_branches(log_z, kernel.nome(k))[1] >= 1
        got = np.diag(pair_matrix(kernel.pair_evaluator(np.eye(n), k), log_z))
        ref = -kernel.log_derivative(np.abs(zs) ** 2, k)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)) + 1e-15 * np.abs(ref) ** 2)

    CASES = {
        "antipodal": [(0.2, 0.4), (0.7, 0.4 - math.pi)],
        "antipodal across the cut": [(0.2, 3.1), (0.7, 3.1 - math.pi)],
        # a spread wider than pi that no pair's gap, moved a turn, reaches:
        # verify's ring of three (spread 4.19) and a pair 4 rad apart
        "ring of three": [(0.55, 0.5 + 2 * math.pi * l / 3) for l in range(3)],
        "4 rad apart": [(0.3, 2.0), (0.6, -2.0)],
        "clustered": [(f, 1.0 + 0.05 * i) for i, f in enumerate((0.1, 0.5, 0.9, 0.3, 0.6))],
        "clustered across the cut": [(f, math.pi - 0.1 + 0.05 * i - 2 * math.pi * (i > 1))
                                     for i, f in enumerate((0.1, 0.5, 0.9, 0.3, 0.6))],
        "ring": [(0.5, 0.2 + 2 * math.pi * i / 16 - 2 * math.pi * (i > 7)) for i in range(16)],
        "one": [(0.4, 2.5)],
        "none": [],
    }

    @pytest.mark.parametrize("k", LEVELS)
    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_full_sum_on_principal_branches(self, monkeypatch, case, k):
        zs = [point(k, f, a) for f, a in self.CASES[case]]
        log_z, n = [cmath.log(z) for z in zs], len(zs)
        got = pair_matrix(kernel.pair_evaluator(np.eye(n), k), log_z)
        if kernel.nome(k).dual and n:
            # the numpy block with the terms of spread 2 pi, the most any
            # principal branches need, whatever evaluator the points chose
            monkeypatch.setattr(kernel, "_pair_branches",
                                lambda log_z, nm: (log_z, kernel.pair_terms(nm, 2 * math.pi)))
            ref = pair_matrix(kernel._pair_block(np.eye(n), k), log_z)
        else:  # the direct form chooses no branch, and no points make no block
            ref = pair_reference(np.array(zs, dtype=complex), k)[0]
        assert got.shape == ref.shape == (n, n)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("k", DUAL_LEVELS)
    @pytest.mark.parametrize("case", [c for c, points in CASES.items() if len(points) <= LIST_MAX])
    def test_plain_sums_take_no_term_past_the_widest_pair_gap(self, monkeypatch, case, k):
        # every term past what the diagonal and the widest gap, moved a turn
        # into [-pi, pi], need is made nan; sizing from the spread of all the
        # principal angles would sum one at k = 1 for the ring of three and
        # the pair 4 rad apart
        zs = [point(k, f, a) for f, a in self.CASES[case]]
        log_z, nm = [cmath.log(z) for z in zs], kernel.nome(k)
        gaps = [abs((a.imag - b.imag + math.pi) % (2 * math.pi) - math.pi)
                for i, a in enumerate(log_z) for b in log_z[i + 1:]]
        needed = kernel.pair_terms(nm, max(gaps, default=0.0))
        if case in ("ring of three", "4 rad apart") and k == 1:
            spread = max(l.imag for l in log_z) - min(l.imag for l in log_z)
            assert needed == 0 < kernel.pair_terms(nm, spread)
        poisoned = nm._replace(dual_sums=nm.dual_sums[:needed] + (math.nan,) * (len(nm.dual_sums) - needed))
        monkeypatch.setattr(kernel, "nome", lambda level: poisoned)
        kernel._sum_plan.cache_clear()
        try:
            got = kernel.pair_evaluator(np.eye(len(zs)), k)(log_z)
        finally:
            kernel._sum_plan.cache_clear()
        assert np.isfinite(got).all()


@st.composite
def vortex_states(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    positions = []
    for _ in range(n):
        r = draw(st.floats(1.01, SQRT_PHI - 0.01))
        positions.append(cmath.rect(r, draw(angles)))
    assume(all(abs(a - b) > 0.02 for i, a in enumerate(positions) for b in positions[i + 1:]))
    gammas = [draw(st.floats(-2, 2)) for _ in range(n)]
    return dynamics.VortexState(tuple(positions), tuple(gammas))


def pole_sum_rhs(state) -> list[complex]:
    """dz_l/dt from phi-logarithm pole sums: other vortices through
    velocity_via_ln_phi, the vortex's own images through single_vortex_omega."""
    out = []
    kappas = [-g / (2 * math.pi) for g in state.circulations]
    for l, zl in enumerate(state.positions):
        others = [(zj, kj) for j, (zj, kj) in enumerate(zip(state.positions, kappas)) if j != l]
        v = hydro.velocity_via_ln_phi(others, zl).conjugate() if others else 0j
        out.append(v + 1j * zl * dynamics.single_vortex_omega(abs(zl), kappas[l]))
    return out


def euler_hamiltonian(state) -> float:
    """The Hamiltonian with every image term written through e_phi_product."""
    def log_e(w):
        return math.log(abs(e_phi_product(w)))

    h = 0.0
    zs, gs = state.positions, state.circulations
    for i, zi in enumerate(zs):
        for j, zj in enumerate(zs):
            c = gs[i] * gs[j] / (4 * math.pi)
            if i != j:
                h -= c * math.log(abs(zi - zj))
            h -= c * (log_e(-PHI * zi / zj) + log_e(-PHI * zj / zi)
                      - log_e(-PHI * zi * zj.conjugate())
                      - log_e(-(PHI**2) / (zi * zj.conjugate())))
    return h


class TestDynamicsAgainstClosedForms:
    @settings(max_examples=60, deadline=None)
    @given(state=vortex_states())
    def test_rhs_matches_pole_sums(self, state):
        got = dynamics.n_vortex_rhs(state)
        for v, ref in zip(got, pole_sum_rhs(state)):
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(state=vortex_states())
    def test_hamiltonian_matches_euler_product(self, state):
        ref = euler_hamiltonian(state)
        # relative to the Hamiltonian's scale, which a mixed-sign state can cancel
        scale = max(abs(ref), sum(abs(g) for g in state.circulations) ** 2 / (4 * math.pi))
        assert abs(dynamics.hamiltonian(state) - ref) <= 1e-12 * scale


def ladder_rule_points(annulus, z0, resolution, exclusion):
    """Grid points the per-point ladder rule keeps: inside the open annulus and
    at least `exclusion` from every image of both ladders."""
    sys = hydro.ImageSystem(z0, 1.0, annulus)
    ladder = np.concatenate(hydro._ladders(sys))
    r_out = annulus.outer_radius
    kept = []
    for y in np.linspace(-r_out, r_out, resolution[1]):
        for x in np.linspace(-r_out, r_out, resolution[0]):
            z = complex(x, y)
            if annulus.contains(z) and not np.min(np.abs(ladder - z)) < exclusion:
                kept.append((float(x), float(y)))
    return kept


class TestFieldGridPointSet:
    @settings(max_examples=25, deadline=None)
    @given(k=st.sampled_from([1, 2, 4]), f0=st.floats(1e-4, 1 - 1e-4), a0=angles,
           exclusion=st.sampled_from([1e-6, 1e-3, 5e-2]), n=st.integers(8, 40))
    def test_same_points_as_ladder_rule(self, k, f0, a0, exclusion, n):
        ann = hydro.AnnulusSpec(k, 20)
        z0 = point(k, f0, a0)
        grid = hydro.field_grid(ann, [(z0, 1.0)], (n, n + 3), exclusion=exclusion)
        assert [r[:2] for r in grid.rows] == ladder_rule_points(ann, z0, (n, n + 3), exclusion)

    @pytest.mark.parametrize("exclusion", [1e-6, 1e-3, 5e-2])
    def test_vortex_on_a_grid_point_and_near_the_walls(self, exclusion):
        # z0 on a grid node, and z0 close to either wall so that an image
        # lies just outside the annulus
        ann = hydro.AnnulusSpec(1, 20)
        xs = np.linspace(-ann.outer_radius, ann.outer_radius, 41)
        for z0 in (complex(xs[38], xs[20]), 1.0005 + 0j, (ann.outer_radius - 5e-4) * 1j):
            grid = hydro.field_grid(ann, [(z0, 1.0)], (41, 41), exclusion=exclusion)
            assert [r[:2] for r in grid.rows] == ladder_rule_points(ann, z0, (41, 41), exclusion)
