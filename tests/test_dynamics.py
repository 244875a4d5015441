import cmath
import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from goldcalc import dynamics, hydro, kernel
from goldcalc.dynamics import (
    GEOMETRIC_MEAN_RADIUS,
    SQRT_PHI,
    IntegratorConfig,
    Trajectory,
    VortexCollisionError,
    VortexEscapeError,
    VortexState,
    green_function,
    hamiltonian,
    integrate,
    load_initial_conditions,
    n_vortex_rhs,
    ring_frequency,
    semiclassical_energy,
    single_vortex_omega,
)
from goldcalc.ring import PHI

LIST_MAX = kernel.LIST_MAX_POINTS  # the most vortices summed without numpy


class TestVortexState:
    def test_validation(self):
        with pytest.raises(ValueError):
            VortexState((0.9 + 0j,), (1.0,))
        with pytest.raises(ValueError):
            VortexState((1.4 + 0j,), (1.0,))
        with pytest.raises(ValueError):
            VortexState((1.1 + 0j,), (1.0, 2.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 10)
        with pytest.raises(ValueError):
            IntegratorConfig(1e-3, 0)


class TestSingleVortexOmega:
    def test_stationary_at_geometric_mean(self):
        assert single_vortex_omega(GEOMETRIC_MEAN_RADIUS, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_zero_strength(self):
        assert single_vortex_omega(1.2, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            single_vortex_omega(1.0, 1.0)
        with pytest.raises(ValueError):
            single_vortex_omega(SQRT_PHI, 1.0)

    def test_boundary_frequency_ratio_is_phi(self):
        # approach the walls at matched relative offsets
        delta = 1e-4
        w_in = single_vortex_omega(1.0 * (1 + delta), 1.0)
        w_out = single_vortex_omega(SQRT_PHI * (1 - delta), 1.0)
        assert abs(abs(w_in) / abs(w_out) - PHI) < 1e-3


class TestNVortexRhs:
    def test_stationary_point(self):
        st = VortexState((GEOMETRIC_MEAN_RADIUS + 0j,), (1.0,))
        (v,) = n_vortex_rhs(st)
        assert abs(v) < 1e-12

    def test_matches_truncated_image_sums(self):
        # independent route: direct summation over both image ladders, the
        # second ladder paired as n in [1-N, N]
        n_img = 200
        z0 = 1.16 * cmath.exp(1.2j)
        gamma = 0.9
        total = 0j
        for n in range(-n_img, n_img + 1):
            if n:
                total += 1.0 / (z0 - z0 * PHI**n)
        for n in range(1 - n_img, n_img + 1):
            total -= 1.0 / (z0 - PHI**n / z0.conjugate())
        expected = (gamma / (2j * math.pi) * total).conjugate()
        st = VortexState((z0,), (gamma,))
        (v,) = n_vortex_rhs(st)
        assert abs(v - expected) < 1e-9

    def test_mirror_antisymmetry(self):
        st = VortexState((1.1 * cmath.exp(0.5j), 1.1 * cmath.exp(-0.5j)), (1.0, -1.0))
        v = n_vortex_rhs(st)
        assert v[0] == pytest.approx(v[1].conjugate())

    def test_collision_rejected(self):
        st = VortexState((1.1 + 0j, 1.1 + 5e-7j), (1.0, 1.0))
        with pytest.raises(VortexCollisionError):
            n_vortex_rhs(st)

    @pytest.mark.parametrize("n", [3, LIST_MAX + 1], ids=["list", "numpy"])
    def test_tied_pairs_name_the_first_on_both_paths(self, n):
        # 1.125 + m 2^-21 are exact, so pairs (0, 1) and (1, 2) tie
        zs = [1.125 + m * 2.0**-21 for m in range(3)] + [1.2j * cmath.exp(0.3j * l) for l in range(n - 3)]
        with pytest.raises(VortexCollisionError) as err:
            n_vortex_rhs(VortexState(tuple(zs), (1.0,) * n))
        assert err.value.pair == (0, 1)

    @pytest.mark.parametrize("n", [2, LIST_MAX + 1], ids=["list", "numpy"])
    @pytest.mark.parametrize("log_z, message", [
        (complex(-math.inf, 2.0), "left the annulus"),  # z = 0
        (complex(math.log(0.999), 2.0), "left the annulus"),
        (complex(math.log(SQRT_PHI + 1e-3), 2.0), "left the annulus"),
        (complex(math.nan, 2.0), "position became non-finite"),
        (complex(math.inf, 2.0), "position became non-finite"),
        (complex(0.1, math.inf), "position became non-finite"),
        (complex(0.1, -math.inf), "position became non-finite"),
        (complex(0.1, math.nan), "position became non-finite"),
    ])
    def test_stage_outside_the_annulus_rejected(self, log_z, message, n):
        # an RK4 stage is not validated; the rhs must not evaluate the
        # continuation of the flow beyond a wall, and a stage with a
        # non-finite log, real or imaginary part, is rejected before any
        # arithmetic that would warn
        logs = [complex(math.log(1.1), 0.3), log_z] + [complex(math.log(1.2), -0.5 * l) for l in range(1, n - 1)]
        field = dynamics._velocity_field([1.0, -0.5] + [0.3] * (n - 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for clear in (True, False):
                with pytest.raises(VortexEscapeError, match=f"vortex 1 {message} during evaluation") as err:
                    n_vortex_rhs((logs, field, clear))
                assert err.value.step is None and err.value.index == 1

    @pytest.mark.parametrize("n", range(1, LIST_MAX + 2))
    @pytest.mark.parametrize("turns", [1, -1, 3])
    def test_stage_logs_off_the_principal_branch_give_its_velocities(self, n, turns):
        # a stage past the cut at angle pi is put back on the principal branch
        # before the pair sums size their terms from the angles; moving a log
        # by whole turns moves the point by rounding only
        zs = [(1.05 + 0.025 * l) * cmath.exp(1j * (3.1 - 1.2 * l)) for l in range(n)]
        field = dynamics._velocity_field([1.0 - 0.3 * l for l in range(n)])
        logs = np.log(zs).tolist()
        moved = [l + 2j * math.pi * turns for l in logs]
        ref = n_vortex_rhs((logs, field, True))
        got = n_vortex_rhs((moved, field, True))
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, LIST_MAX + 1], ids=["list", "numpy"])
    @pytest.mark.parametrize("z, inside", [
        (math.nextafter(1.0, 2.0) + 0j, True),  # one ulp inside 1
        (math.nextafter(SQRT_PHI, 0.0) * 1j, True),  # one ulp inside sqrt(phi)
        (cmath.rect(1.0, 0.7), True),  # |z| rounds to 1, but ln|z| > 0
        (-SQRT_PHI + 0j, False),
    ])
    def test_start_check_classifies_wall_points_as_the_rhs_does(self, z, inside, n):
        # integrate's check at step 0 takes the logs of the positions, the
        # rhs of a VortexState does the same, and both test them as a stage's
        zs = [1.15 * cmath.exp(1j * (2.5 + l)) for l in range(n - 1)] + [z]
        field = dynamics._velocity_field([1.0] * n)

        def escaped(check) -> int | None:
            try:
                check()
            except VortexEscapeError as err:
                return err.index
            return None

        at_start = escaped(lambda: dynamics._checked_logs(zs, 0))
        in_rhs = escaped(lambda: n_vortex_rhs((np.log(zs).tolist(), field, True)))
        assert at_start == in_rhs == (None if inside else n - 1)


def matrix_pairs(zs) -> tuple[float, tuple[int, int]]:
    """Closest distance and first closest pair in row order, from the whole
    N x N distance matrix: the rule the blocked pair check keeps."""
    zs = np.asarray(zs, dtype=complex)
    dist = np.abs(zs[:, None] - zs)
    dist.flat[:: len(zs) + 1] = np.inf
    return float(dist.min()), tuple(sorted(divmod(int(dist.argmin()), len(zs))))


class TestCheckPairs:
    @staticmethod
    def tied_state(n: int, seed: int) -> np.ndarray:
        """n distinct points of the 2^-10 grid, three pairs of them moved to
        the exact distance 2^-12, closer than any other pair."""
        rng = np.random.default_rng(seed)
        cells = rng.choice(2**24, n, replace=False)
        zs = (cells % 2**12 + 1j * (cells // 2**12)) / 2**10
        ends = rng.choice(n, 6, replace=False)
        for a, b, step in zip(ends[::2], ends[1::2], (2.0**-12, 2.0**-12 * 1j, -(2.0**-12))):
            zs[b] = zs[a] + step
        return zs

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [LIST_MAX + 2, 16, 100, 600])
    def test_blocks_equal_the_matrix_rule(self, monkeypatch, n, seed):
        zs = self.tied_state(n, seed)
        closest, pair = matrix_pairs(zs)
        assert closest == 2.0**-12
        assert dynamics._check_pairs(zs, None) == closest
        monkeypatch.setattr(dynamics, "COLLISION_DISTANCE", 1.0)
        with pytest.raises(VortexCollisionError) as err:
            dynamics._check_pairs(list(zs), 7)
        assert err.value.pair == pair and err.value.step == 7

    def test_memory_at_600_vortices(self):
        # the N x N complex matrix and its abs took 8.7 MB
        zs = [1.2 * cmath.exp(2j * math.pi * l / 600) for l in range(600)]
        tracemalloc.start()
        try:
            dynamics._check_pairs(zs, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def array_rk4(state, cfg):
    """Plain array RK4 in l = log z that checks every stage's pairs: the
    reference for integrate.  Returns the last positions, z_0 exp(l - l_0)."""
    z0 = np.asarray(state.positions, dtype=complex)
    field = dynamics._velocity_field(state.circulations)
    f = lambda l: np.array(dynamics.n_vortex_rhs((l.tolist(), field, False)))
    l0 = ls = np.array(dynamics._checked_logs(z0.tolist(), 0))
    dynamics._check_pairs(z0.tolist(), 0)
    dt = cfg.dt
    for step in range(1, cfg.steps + 1):
        k1 = f(ls)
        k2 = f(ls + 0.5 * dt * k1)
        k3 = f(ls + 0.5 * dt * k2)
        k4 = f(ls + dt * k3)
        ls = np.array(dynamics._principal((ls + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)).tolist(), step))
        dynamics._check_pairs(np.exp(ls).tolist(), step)
    return z0 * np.exp(ls - l0)


def z_rk4(state, cfg):
    """Plain array RK4 in z, dz/dt = z dl/dt: the scheme integrate used to
    step, a reference for its truncation error."""
    zs = np.asarray(state.positions, dtype=complex)
    field = dynamics._velocity_field(state.circulations)
    f = lambda z: z * np.array(field(np.log(z).tolist()))
    dt = cfg.dt
    for _ in range(cfg.steps):
        k1 = f(zs)
        k2 = f(zs + 0.5 * dt * k1)
        k3 = f(zs + 0.5 * dt * k2)
        k4 = f(zs + dt * k3)
        zs = zs + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return zs


class TestIntegrate:
    def test_lone_vortex_keeps_its_radius(self):
        # ln|z| of a lone vortex moves only by the rounding of Re dl/dt, about
        # 1e-17 a step; z-RK4 drifted 3.8e-15 here
        st = VortexState((1.1 + 0j,), (1.0,))
        traj = integrate(st, IntegratorConfig(1e-3, 10000))
        assert np.max(np.abs(np.abs(traj.positions[:, 0]) - 1.1)) <= 1e-15

    def test_stationary_vortex_does_not_drift(self):
        st = VortexState((GEOMETRIC_MEAN_RADIUS + 0j,), (1.0,))
        traj = integrate(st, IntegratorConfig(1e-3, 1000))
        drift = abs(traj.positions[-1, 0] - GEOMETRIC_MEAN_RADIUS)
        assert drift < 1e-9

    def test_rotation_rate_matches_omega(self):
        st = VortexState((1.1 + 0j,), (1.0,))
        traj = integrate(st, IntegratorConfig(1e-3, 2000))
        angles = np.unwrap(np.angle(traj.positions[:, 0]))
        measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        expected = single_vortex_omega(1.1, -1.0 / (2 * math.pi))
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_zero_circulation_state_is_frozen(self):
        st = VortexState((1.1 + 0.05j, 1.2 - 0.1j), (0.0, 0.0))
        traj = integrate(st, IntegratorConfig(1e-2, 50))
        assert tuple(traj.positions[-1].tolist()) == st.positions

    def test_collision_reported_with_step(self):
        st = VortexState((1.1 + 0j, 1.1 + 5e-7j), (1.0, 1.0))
        with pytest.raises(VortexCollisionError) as err:
            integrate(st, IntegratorConfig(1e-3, 10))
        assert err.value.step == 0

    @pytest.mark.parametrize("n", [1, LIST_MAX + 1], ids=["list", "numpy"])
    def test_escape_detected(self, n):
        # bypass state validation to model a corrupted/boundary-contact state
        st = object.__new__(VortexState)
        object.__setattr__(st, "positions", tuple(1.15 * cmath.exp(1j * l) for l in range(1, n))
                           + (SQRT_PHI + 0.01 + 0j,))
        object.__setattr__(st, "circulations", (1.0,) * n)
        with pytest.raises(VortexEscapeError) as err:
            integrate(st, IntegratorConfig(1e-3, 10))
        assert err.value.step == 0 and err.value.index == n - 1

    @pytest.mark.parametrize("n", [1, LIST_MAX + 1], ids=["list", "numpy"])
    def test_escape_at_a_later_step_end_detected(self, monkeypatch, n):
        # ln|z| of the last vortex grows by 0.008 a step, from ln 1.2 = 0.1823
        # past ln sqrt(phi) = 0.2406 at step 8; the stages check nothing
        # here, so the step-end check must see it
        monkeypatch.setattr(dynamics, "n_vortex_rhs", lambda stage: [0j] * (n - 1) + [0.4 + 0j])
        st = VortexState(tuple(1.15 * cmath.exp(1j * l) for l in range(1, n)) + (1.2 + 0j,), (1.0,) * n)
        with pytest.raises(VortexEscapeError, match=f"vortex {n - 1} left the annulus at step 8") as err:
            integrate(st, IntegratorConfig(0.02, 20))
        assert err.value.step == 8 and err.value.index == n - 1

    def test_arrays_start_at_input_and_add_dt_per_step(self):
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        traj = integrate(st, IntegratorConfig(1e-3, 300))
        assert traj.positions.shape == (301, 2) and traj.times.shape == (301,)
        assert tuple(traj.positions[0].tolist()) == st.positions
        t = 0.0
        for _ in range(300):
            t += 1e-3
        assert traj.times[0] == 0.0 and traj.times[-1] == t

    def test_trajectory_memory_is_two_arrays(self, monkeypatch):
        # N = 2 for 1e4 steps: 16 B per vortex-step plus 8 B per time, about 0.4 MB;
        # a uniform rotation stands in for the pair velocity, which tracemalloc
        # would slow to seconds and which keeps nothing between calls
        monkeypatch.setattr(dynamics, "n_vortex_rhs", lambda stage: [1j] * len(stage[0]))
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        tracemalloc.start()
        try:
            integrate(st, IntegratorConfig(1e-3, 10000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6

    def test_one_exact_pair_check_per_step(self, monkeypatch):
        # the step-end check covers the next step's first stage, and the
        # distance the later stages can move proves their pairs far apart
        steps = []
        check = dynamics._check_pairs
        monkeypatch.setattr(dynamics, "_check_pairs",
                            lambda zs, step: steps.append(step) or check(zs, step))
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        integrate(st, IntegratorConfig(1e-3, 50))
        assert steps == list(range(51))

    @pytest.mark.parametrize("spectators", [0, LIST_MAX - 2], ids=["list", "numpy"])
    @pytest.mark.parametrize("orientation, dt_fraction", [(1, 0.2), (1, 0.9), (-1, 0.9)])
    def test_near_collision_aborts_where_checking_every_stage_does(
            self, monkeypatch, orientation, dt_fraction, spectators):
        # circulations (2, 2, -1) with sum gamma_i gamma_j d_ij^2 = 0 collapse
        # (orientation 1) or expand self-similarly; the pairs start 2.2e-6 to
        # 3.6e-6 apart, where the stage bound cannot clear and the exact check
        # must run.  Far vortices of zero circulation take N past LIST_MAX
        # without moving the triple.
        s = 3e-6
        c = 1.15 + 0j
        far = tuple(1.1 * cmath.exp(1j * (1.5 + l)) for l in range(spectators))
        st = VortexState((c, c + s, c + s * complex(0.94, orientation * 0.746)) + far,
                         (2.0, 2.0, -1.0) + (0.0,) * spectators)
        vmax = float(np.max(np.abs(n_vortex_rhs(st))))
        closest = abs(st.positions[2] - st.positions[1])
        cfg = IntegratorConfig(dt_fraction * 0.5 * closest / vmax, 200)

        def outcome(run):
            calls = []
            rhs = dynamics.n_vortex_rhs
            monkeypatch.setattr(dynamics, "n_vortex_rhs", lambda stage: calls.append(1) or rhs(stage))
            try:
                end = run(st, cfg)
                result = None
            except (VortexCollisionError, VortexEscapeError) as exc:
                end, result = None, (type(exc), exc.step, str(exc))
            monkeypatch.setattr(dynamics, "n_vortex_rhs", rhs)
            return len(calls), result, end

        ref_calls, ref_result, ref_end = outcome(array_rk4)
        calls, result, traj = outcome(integrate)
        assert calls == ref_calls + 1  # integrate's dt guard evaluates once more
        assert result == ref_result
        if orientation < 0:
            assert result is None and np.array_equal(traj.positions[-1], ref_end)
        else:
            assert result[0] is VortexCollisionError

    @pytest.mark.parametrize("positions, gammas", [
        ((1.1 * cmath.exp(0.4j),), (1.3,)),
        ((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7)),
        (tuple(1.15 * cmath.exp(1j * (0.5 + 2 * math.pi * l / 3)) for l in range(3)), (1.0, 0.8, 1.2)),
        (tuple(GEOMETRIC_MEAN_RADIUS * cmath.exp(2j * math.pi * l / 16 + 0.1j) for l in range(16)),
         (1.0,) * 16),
        (tuple(1.12 * cmath.exp(1j * (0.4 + 2 * math.pi * l / LIST_MAX)) for l in range(LIST_MAX)),
         tuple(1.0 - 0.4 * l for l in range(LIST_MAX))),
        (tuple((1.1 + 0.02 * l) * cmath.exp(1j * (0.4 + 2 * math.pi * l / (LIST_MAX + 1)))
               for l in range(LIST_MAX + 1)), tuple(1.0 - 0.3 * l for l in range(LIST_MAX + 1))),
    ], ids=["n1", "n2", "n3", "ring16", "list_max", "list_max_plus_1"])
    def test_equals_plain_array_rk4(self, positions, gammas):
        # integrate keeps positions and stages as Python numbers; the stage
        # coefficients and the update must still be those of array RK4
        st = VortexState(positions, gammas)
        cfg = IntegratorConfig(1e-3, 200)
        ref = array_rk4(st, cfg)
        assert np.max(np.abs(integrate(st, cfg).positions[-1] - ref)) <= 1e-13

    @pytest.mark.parametrize("positions, gammas", [
        ((1.1 * cmath.exp(0.4j),), (1.3,)),
        ((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7)),
        (tuple(1.15 * cmath.exp(1j * (0.5 + 2 * math.pi * l / 3)) for l in range(3)), (1.0, 0.8, 1.2)),
        (tuple(1.12 * cmath.exp(1j * (0.4 + 2 * math.pi * l / LIST_MAX)) for l in range(LIST_MAX)),
         tuple(1.0 - 0.4 * l for l in range(LIST_MAX))),
    ], ids=["n1", "n2", "n3", "list_max"])
    def test_agrees_with_rk4_in_z(self, positions, gammas):
        # RK4 in l and RK4 in z share the flow, not the truncation error: over
        # 2000 steps of 1e-3 they measured at most 6.2e-12 apart
        st = VortexState(positions, gammas)
        cfg = IntegratorConfig(1e-3, 2000)
        assert np.max(np.abs(integrate(st, cfg).positions[-1] - z_rk4(st, cfg))) <= 1e-10

    def test_dt_guard(self):
        st = VortexState((1.001 + 0j,), (4.0,))
        with pytest.raises(ValueError, match="dt too large"):
            integrate(st, IntegratorConfig(5e-3, 100))


class TestHamiltonian:
    def test_single_vortex_finite(self):
        st = VortexState((1.2 * cmath.exp(0.3j),), (1.0,))
        assert math.isfinite(hamiltonian(st))

    def test_rotation_invariance(self):
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        rot = VortexState(tuple(z * cmath.exp(0.77j) for z in st.positions),
                          st.circulations)
        assert abs(hamiltonian(rot) - hamiltonian(st)) < 1e-10


class TestGreenFunction:
    ZL = 1.18 * cmath.exp(0.9j)

    def test_coincidence_rejected(self):
        with pytest.raises(ValueError):
            green_function(self.ZL, self.ZL)


class TestRingSolution:
    def test_geometric_mean_closed_form(self):
        for n in (1, 2, 3, 5):
            got = ring_frequency(n, GEOMETRIC_MEAN_RADIUS, 1.0)
            assert got == pytest.approx((n - 1) / (4 * math.pi * SQRT_PHI), abs=1e-12)

    def test_single_vortex_reduction(self):
        for r in (1.05, 1.2, 1.26):
            assert ring_frequency(1, r, 1.0) == pytest.approx(
                single_vortex_omega(r, -1.0 / (2 * math.pi)), rel=1e-12)

    def test_simulated_three_ring(self):
        n = 3
        r = GEOMETRIC_MEAN_RADIUS
        st = VortexState(tuple(r * cmath.exp(2j * math.pi * l / n) for l in range(n)),
                         (1.0,) * n)
        traj = integrate(st, IntegratorConfig(1e-3, 4000))
        angles = np.unwrap(np.angle(traj.positions[:, 0]))
        measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        expected = 1.0 * (n - 1) / (4 * math.pi * SQRT_PHI)
        assert abs(measured - expected) / expected < 1e-4

    def test_simulated_sixteen_ring(self):
        # the benchmark's ring: every vortex turns at the closed-form rate to
        # the 1e-7 its gate allows
        n = 16
        st = VortexState(tuple(GEOMETRIC_MEAN_RADIUS * cmath.exp(2j * math.pi * l / n + 0.2j)
                               for l in range(n)), (1.0,) * n)
        traj = integrate(st, IntegratorConfig(1e-3, 30))
        angles = np.unwrap(np.angle(traj.positions), axis=0)
        measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        expected = ring_frequency(n, GEOMETRIC_MEAN_RADIUS, 1.0)
        assert np.max(np.abs(measured - expected)) / expected < 1e-7

    def test_domain(self):
        with pytest.raises(ValueError):
            ring_frequency(0, 1.1, 1.0)
        with pytest.raises(ValueError):
            ring_frequency(3, 1.0, 1.0)


class TestSemiclassicalSpectrum:
    def test_finite_and_bounded(self):
        for n in range(21):
            e = semiclassical_energy(n, 1.0)
            assert math.isfinite(e)
            assert abs(e) < 1e6

    def test_zero_circulation(self):
        assert semiclassical_energy(3, 0.0) == 0.0

    def test_scales_with_gamma_squared(self):
        assert semiclassical_energy(2, 2.0) == pytest.approx(4 * semiclassical_energy(2, 1.0))

    def test_ground_level_against_long_product(self):
        # independent evaluation with 200 explicit factors
        half = 0.5
        total = 0.0
        for arg in (-PHI * half, -(PHI**2) / half):
            for m in range(200):
                total += math.log(abs(1 + arg / PHI ** (m + 2)))
        expected = total / (4 * math.pi)
        assert semiclassical_energy(0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            semiclassical_energy(-1, 1.0)


class TestIO:
    def test_load_initial_conditions(self, tmp_path):
        path = tmp_path / "init.json"
        path.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0},
                                    {"x": 0.0, "y": 1.2, "gamma": -0.5}]))
        st = load_initial_conditions(path)
        assert st.positions == (1.1 + 0j, 1.2j)
        assert st.circulations == (1.0, -0.5)

    def test_load_rejects_bad_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_initial_conditions(path)
        path.write_text('[{"x": 1.1}]')
        with pytest.raises(ValueError):
            load_initial_conditions(path)

    @pytest.mark.parametrize("every", [1, 7])
    def test_trajectory_csv_bytes_match_csv_writer(self, tmp_path, every):
        # 1500 steps x 3 vortices: more rows than one block of to_csv
        rng = np.random.default_rng(5)
        times = np.cumsum(np.full(1501, 1e-3)) - 1e-3
        positions = rng.uniform(-1.2, 1.2, (1501, 3)) + 1j * rng.uniform(-1.2, 1.2, (1501, 3))
        # equal but spelt apart: the writer must tell signed zeros by their bits
        positions[::5, 0] = complex(-0.0, 0.0)
        positions[1::5, 0] = complex(0.0, -0.0)
        assert 1501 * 3 > hydro.CHUNK
        path = tmp_path / "traj.csv"
        Trajectory(times, positions).to_csv(path, every=every)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["step", "t", "vortex_index", "x", "y"])
        for step in sorted(set(range(0, 1501, every)) | {1500}):
            for i, z in enumerate(positions[step].tolist()):
                w.writerow([step, repr(times[step].item()), i, repr(z.real), repr(z.imag)])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_trajectory_csv_rejects_every_below_one(self, tmp_path):
        traj = Trajectory(np.zeros(2), np.ones((2, 1), dtype=complex))
        for every in (0, -3):
            with pytest.raises(ValueError):
                traj.to_csv(tmp_path / "traj.csv", every=every)
        assert not (tmp_path / "traj.csv").exists()

    def test_trajectory_csv(self, tmp_path):
        st = VortexState((1.1 + 0j,), (1.0,))
        traj = integrate(st, IntegratorConfig(1e-3, 5))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,vortex_index,x,y"
        assert len(lines) == 1 + 6  # header + (steps+1) states x 1 vortex
        step, t, idx, x, y = lines[1].split(",")
        assert (step, idx) == ("0", "0")
        assert float(x) == 1.1 and float(y) == 0.0
