import cmath
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import traceback
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldcalc import dynamics, hydro, kernel
from goldcalc.dynamics import (
    ANNULUS,
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
        with pytest.raises(ValueError, match=r"^point at \|z\| = 1.400000 outside the open annulus "
                                             r"1 < \|z\| < 1.272020 of level k = 1$"):
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
        assert single_vortex_omega(ANNULUS.mean_radius, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_zero_strength(self):
        assert single_vortex_omega(1.2, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            single_vortex_omega(1.0, 1.0)
        with pytest.raises(ValueError):
            single_vortex_omega(ANNULUS.outer_radius, 1.0)
        with pytest.raises(ValueError, match="got 1.300000"):
            single_vortex_omega(np.array([1.1, 1.3, 0.9]), 1.0)

    @pytest.mark.parametrize("kappa", [0.7, 0.0])
    def test_radii_as_an_array(self, kappa):
        # each entry equals the float call bit for bit; a float gives a float
        rs = np.linspace(1.001, ANNULUS.outer_radius - 0.001, 12).reshape(3, 4)
        omega = single_vortex_omega(rs, kappa)
        assert omega.shape == rs.shape
        assert omega.tolist() == [[single_vortex_omega(float(r), kappa) for r in row] for row in rs]
        assert type(single_vortex_omega(1.1, kappa)) is float

    def test_boundary_frequency_ratio_is_phi(self):
        # approach the walls at matched relative offsets
        delta = 1e-4
        w_in = single_vortex_omega(1.0 * (1 + delta), 1.0)
        w_out = single_vortex_omega(ANNULUS.outer_radius * (1 - delta), 1.0)
        assert abs(abs(w_in) / abs(w_out) - PHI) < 1e-3


class TestNVortexRhs:
    def test_stationary_point(self):
        st = VortexState((ANNULUS.mean_radius + 0j,), (1.0,))
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
        (complex(math.log(ANNULUS.outer_radius + 1e-3), 2.0), "left the annulus"),
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
        (math.nextafter(ANNULUS.outer_radius, 0.0) * 1j, True),  # one ulp inside sqrt(phi)
        (cmath.rect(1.0, 0.7), True),  # |z| rounds to 1, but ln|z| > 0
        (-ANNULUS.outer_radius + 0j, False),
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
        st = VortexState((ANNULUS.mean_radius + 0j,), (1.0,))
        traj = integrate(st, IntegratorConfig(1e-3, 1000))
        drift = abs(traj.positions[-1, 0] - ANNULUS.mean_radius)
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
                           + (ANNULUS.outer_radius + 0.01 + 0j,))
        object.__setattr__(st, "circulations", (1.0,) * n)
        with pytest.raises(VortexEscapeError) as err:
            integrate(st, IntegratorConfig(1e-3, 10))
        assert err.value.step == 0 and err.value.index == n - 1

    @pytest.mark.parametrize("n", [1, LIST_MAX + 1], ids=["list", "numpy"])
    def test_escape_at_a_later_step_end_detected(self, monkeypatch, n):
        # ln|z| of the last vortex grows by 0.008 a step, from ln 1.2 = 0.1823
        # past ln sqrt(phi) = 0.2406 at step 8; only the velocity of the last
        # stage of each step moves it (dl/dt = 2.4 at the field's call 4 s,
        # the dt guard's being call 0), so every stage sits at the step's
        # start and the step-end check must see it
        def field(gammas):
            calls = itertools.count()

            def velocity(log_z):
                call = next(calls)
                return [0j] * (n - 1) + [2.4 + 0j if call and call % 4 == 0 else 0j]
            return velocity

        monkeypatch.setattr(dynamics, "_velocity_field", field)
        st = VortexState(tuple(1.15 * cmath.exp(1j * l) for l in range(1, n)) + (1.2 + 0j,), (1.0,) * n)
        with pytest.raises(VortexEscapeError, match=f"vortex {n - 1} left the annulus at step 8") as err:
            integrate(st, IntegratorConfig(0.02, 20))
        assert err.value.step == 8 and err.value.index == n - 1

    @pytest.mark.parametrize("n", [2, LIST_MAX + 1], ids=["list", "numpy"])
    def test_collision_at_a_later_step_end_detected(self, monkeypatch, n):
        # vortex 1 turns toward vortex 0 by 1e-3 rad a step, from 0.01 + 3e-7
        # rad, and only the last stage of each step moves it, so the pair
        # bound, lowered step by step from the distance at step 0, must give
        # way to the exact check that finds them 3.3e-7 apart at step 10
        def field(gammas):
            calls = itertools.count()

            def velocity(log_z):
                call = next(calls)
                return [0j, -6j if call and call % 4 == 0 else 0j] + [0j] * (n - 2)
            return velocity

        monkeypatch.setattr(dynamics, "_velocity_field", field)
        st = VortexState((1.1 + 0j, 1.1 * cmath.exp(1j * (0.01 + 3e-7)))
                         + tuple(1.2 * cmath.exp(1j * (1.5 + l)) for l in range(n - 2)), (1.0,) * n)
        with pytest.raises(VortexCollisionError, match="vortices 0 and 1 within 3.3e-07 at step 10") as err:
            integrate(st, IntegratorConfig(1e-3, 20))
        assert err.value.step == 10 and err.value.pair == (0, 1)

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
        monkeypatch.setattr(dynamics, "_velocity_field", lambda gammas: lambda log_z: [1j] * len(log_z))
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        tracemalloc.start()
        try:
            integrate(st, IntegratorConfig(1e-3, 10000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6

    def test_exact_pair_checks_only_where_the_bound_fails(self, monkeypatch):
        # a step end lowers the last exact distance by the most a pair can
        # have moved, 2 r_out d e^d, d = max|delta l|, and 2e-15 for rounding,
        # and takes the exact distances where what is left could not clear a
        # second such step by 2 COLLISION_DISTANCE; no stage of this pair
        # needs them
        checks = []
        check = dynamics._check_pairs
        monkeypatch.setattr(dynamics, "_check_pairs",
                            lambda zs, step: checks.append((step, check(zs, step))) or checks[-1][1])
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        traj = integrate(st, IntegratorConfig(1e-3, 10000))
        assert checks[0][0] == 0 and len(checks) <= 50
        exact = dict(checks)
        assert None not in exact
        d = np.max(np.abs(np.log(traj.positions[1:] / traj.positions[:-1])), axis=1)
        shift = 2 * ANNULUS.outer_radius * d * np.exp(d) + 2e-15
        bound = exact[0]
        for step in range(1, 10001):
            bound -= shift[step - 1]
            assert (step in exact) == (bound - shift[step - 1] < 2 * dynamics.COLLISION_DISTANCE)
            bound = exact.get(step, bound)

    def test_one_vortex_checks_no_pairs_after_step_0(self, monkeypatch):
        # a lone vortex has no pair, and its step end reads no distance
        steps = []
        check = dynamics._check_pairs
        monkeypatch.setattr(dynamics, "_check_pairs",
                            lambda zs, step: steps.append(step) or check(zs, step))
        traj = integrate(VortexState((1.1 * cmath.exp(0.2j),), (1.0,)), IntegratorConfig(1e-3, 50))
        assert steps == [0]
        assert np.isfinite(traj.positions).all()

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
            # count the calls of the run's velocity field
            calls = []
            build = dynamics._velocity_field

            def counted(gammas):
                field = build(gammas)
                return lambda log_z: calls.append(1) or field(log_z)
            monkeypatch.setattr(dynamics, "_velocity_field", counted)
            try:
                end = run(st, cfg)
                result = None
            except (VortexCollisionError, VortexEscapeError) as exc:
                end, result = None, (type(exc), exc.step, str(exc))
            monkeypatch.setattr(dynamics, "_velocity_field", build)
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
        (tuple(ANNULUS.mean_radius * cmath.exp(2j * math.pi * l / 16 + 0.1j) for l in range(16)),
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


@st.composite
def mixed_states(draw) -> VortexState:
    """Up to LIST_MAX + 1 vortices, so both pair evaluators run: one drawn in
    each of n equal sectors, radii 0.05 or more from either wall, a vortex
    within 0.2 of one kept before it dropped; circulations of either sign in
    [-1, 1]."""
    n = draw(st.integers(1, LIST_MAX + 1))
    zs = []
    for l in range(n):
        z = cmath.rect(draw(st.floats(1.05, ANNULUS.outer_radius - 0.05)),
                       2 * math.pi * (l + draw(st.floats(0, 1))) / n)
        if all(abs(z - y) > 0.2 for y in zs):
            zs.append(z)
    return VortexState(tuple(zs), tuple(draw(st.floats(-1, 1)) for _ in zs))


class TestConservation:
    """The annulus flow conserves H and, being invariant under rotation, the
    angular impulse I = sum gamma |z|^2, which shares no code with the kernel
    or with hamiltonian.  200 RK4 steps of 2.5e-4 drifted H by at most
    2.2e-14 and I by 4.2e-15 (relative, as below) over 3,000 random states of
    mixed_states' kind, and H by 8.3e-13 for same-sign pairs 0.2 apart at
    either wall (the example); the bounds leave 120x and 24x."""

    @settings(max_examples=60, deadline=None)
    @given(state=mixed_states())
    @example(state=VortexState((1.05 + 0j, cmath.rect(1.05, 2.0000001 * math.asin(0.1 / 1.05))), (1.0, 1.0)))
    def test_hamiltonian_and_angular_impulse(self, state):
        end = integrate(state, IntegratorConfig(2.5e-4, 200)).positions[-1]
        gs = state.circulations
        h0, h1 = hamiltonian(state), hamiltonian(VortexState(tuple(end), gs))
        # relative to the scales a mixed-sign state cannot cancel
        assert abs(h1 - h0) <= 1e-10 * max(abs(h0), sum(map(abs, gs)) ** 2 / (4 * math.pi))
        impulse = [g * abs(z) ** 2 for g, z in zip(gs, state.positions)]
        drift = sum(g * abs(z) ** 2 for g, z in zip(gs, end)) - sum(impulse)
        assert abs(drift) <= 1e-13 * sum(map(abs, impulse))


@st.composite
def states_at_the_cut(draw) -> VortexState:
    """0 to LIST_MAX + 1 vortices of mixed_states' kind, turned so that the
    first lies within 0.03 rad of the cut at angle pi, which its stages and
    step ends then cross in either direction."""
    if not draw(st.integers(0, LIST_MAX + 1)):
        return VortexState((), ())
    state = draw(mixed_states())
    turn = cmath.exp(1j * (math.pi + draw(st.floats(-0.03, 0.03)) - cmath.phase(state.positions[0])))
    return VortexState(tuple(z * turn for z in state.positions), state.circulations)


class TestCompiledRun:
    """integrate runs the step loop _run_plan compiles for N, at every N:
    with the plain pair sums up to LIST_MAX vortices, with numpy's pair
    block and pair check above it."""

    @settings(max_examples=40, deadline=None)
    @given(state=states_at_the_cut())
    @example(state=VortexState((1.22 * cmath.exp(3.13j), 1.08 * cmath.exp(1.0j)), (1.0, -0.6)))
    @example(state=VortexState(tuple(cmath.rect(PHI**0.25, 2 * math.pi * i / 16) for i in range(16)), (1.0,) * 16))
    def test_equals_plain_array_rk4_across_the_cut(self, state):
        # the first example's first vortex turns 0.4 rad across the cut at
        # pi; the second is the benchmark's simulate ring at phase 0, whose
        # vortex 8 starts on the cut
        cfg = IntegratorConfig(2.5e-3, 160)
        got = integrate(state, cfg).positions[-1]
        assert np.max(np.abs(got - array_rk4(state, cfg)), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("spectators", [0, LIST_MAX - 1], ids=["list", "numpy"])
    def test_field_takes_logs_on_the_principal_branch(self, monkeypatch, spectators):
        # the pair sums size their terms from the angles; the first vortex
        # turns across the cut at pi, from 3.13 to -2.72.  Far vortices of
        # zero circulation, from angle 0.2 to 1.45, take N past LIST_MAX
        # without moving the pair
        angles = []
        build = dynamics._velocity_field

        def recorded(gammas):
            field = build(gammas)
            return lambda log_z: angles.extend(l.imag for l in log_z) or field(log_z)

        monkeypatch.setattr(dynamics, "_velocity_field", recorded)
        far = tuple(1.2 * cmath.exp(1j * (0.2 + 0.25 * l)) for l in range(spectators))
        integrate(VortexState((1.22 * cmath.exp(3.13j), 1.08 * cmath.exp(1.0j)) + far,
                              (1.0, -0.6) + (0.0,) * spectators),
                  IntegratorConfig(2.5e-3, 160))
        assert all(-math.pi < a <= math.pi for a in angles) and min(angles) < -2.7

    @staticmethod
    def out_in_stage_two(n: int):
        """A _velocity_field whose field's second call, stage 1 of step 1
        after the dt guard's, sends the last of n vortices out in stage 2."""
        def build(gammas):
            calls = itertools.count()
            return lambda log_z: [0j] * (n - 1) + [50.0 + 0j if next(calls) == 1 else 0j]
        return build

    @staticmethod
    def escaping(n: int) -> VortexState:
        """n vortices whose last, at 1.2, out_in_stage_two(n) sends out."""
        return VortexState(tuple(1.15 * cmath.exp(1j * (0.3 + 2 * l)) for l in range(n - 1)) + (1.2 + 0j,),
                           (1.0,) * n)

    @pytest.mark.parametrize("n", [1, 2, 3, LIST_MAX, LIST_MAX + 1, 16])
    def test_stage_escape_raises_during_evaluation(self, monkeypatch, n):
        monkeypatch.setattr(dynamics, "_velocity_field", self.out_in_stage_two(n))
        with pytest.raises(VortexEscapeError) as err:
            integrate(self.escaping(n), IntegratorConfig(0.02, 5))
        assert (err.value.step, err.value.index, str(err.value)) == (
            None, n - 1, f"vortex {n - 1} left the annulus during evaluation (|z| = 1.978466)")

    @pytest.mark.parametrize("n", [1, 2, LIST_MAX, LIST_MAX + 1, 16])
    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nan_j"])
    @pytest.mark.parametrize("call, step", [(1, None), (4, 1)], ids=["stage_2", "step_end"])
    def test_non_finite_velocity_raises_before_any_exponential(self, monkeypatch, n, last, bad, call, step):
        # the field's call 1 is stage 1 of step 1 (after the dt guard's), so
        # its velocity moves stage 2; call 4 is step 1's last stage, which
        # moves the step's end.  A nan must reach the escape test, however the
        # running bounds would clear a finite move
        def build(gammas):
            calls = itertools.count()

            def velocity(log_z):
                v = [0j] * n
                if next(calls) == call:
                    v[-1 if last else 0] = bad
                return v
            return velocity

        state = VortexState(tuple(1.15 * cmath.exp(1j * (0.3 + 2 * l)) for l in range(n)), (1.0,) * n)
        exps = []
        monkeypatch.setattr(dynamics, "_velocity_field", build)
        monkeypatch.setattr(cmath, "exp", lambda z, exp=cmath.exp: exps.append(z) or exp(z))
        with pytest.raises(VortexEscapeError) as err:
            integrate(state, IntegratorConfig(1e-3, 5))
        where = "during evaluation" if step is None else f"at step {step}"
        assert (err.value.step, err.value.index) == (step, n - 1 if last else 0)
        assert str(err.value).startswith(f"vortex {err.value.index} position became non-finite {where}")
        assert exps == []

    @pytest.mark.parametrize("n", [1, 2, LIST_MAX, LIST_MAX + 1, 16])
    def test_wrapped_rhs_sees_every_stage_and_changes_no_bit(self, monkeypatch, n):
        st = VortexState(tuple(1.15 * cmath.exp(1j * (0.3 + 2 * l)) for l in range(n)),
                         tuple(1.0 - 0.2 * l for l in range(n)))
        cfg = IntegratorConfig(1e-3, 30)
        plain = integrate(st, cfg)
        calls = []
        rhs = dynamics.n_vortex_rhs
        monkeypatch.setattr(dynamics, "n_vortex_rhs", lambda s: calls.append(s) or rhs(s))
        wrapped = integrate(st, cfg)
        assert len(calls) == 4 * cfg.steps + 1
        assert np.array_equal(wrapped.positions, plain.positions)
        assert np.array_equal(wrapped.times, plain.times)

    @pytest.mark.parametrize("n", [2, LIST_MAX + 1, 16])
    def test_traceback_shows_the_generated_line(self, monkeypatch, n):
        monkeypatch.setattr(dynamics, "_velocity_field", self.out_in_stage_two(n))
        with pytest.raises(VortexEscapeError) as err:
            integrate(self.escaping(n), IntegratorConfig(0.02, 5))
        text = "".join(traceback.format_exception(err.value))
        stage = ", ".join(f"m{i}" for i in range(n))
        assert f'File "<goldcalc.dynamics RK4 run n={n}>", line ' in text
        assert f"[{stage}] = _principal([{stage}], None)" in text

    def test_import_compiles_nothing(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        code = ("import linecache, goldcalc.dynamics as d; print(d._run_plan.cache_info().currsize,"
                " sum(name.startswith('<goldcalc.dynamics') for name in linecache.cache))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestHamiltonian:
    def test_single_vortex_finite(self):
        st = VortexState((1.2 * cmath.exp(0.3j),), (1.0,))
        assert math.isfinite(hamiltonian(st))

    def test_rotation_invariance(self):
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        rot = VortexState(tuple(z * cmath.exp(0.77j) for z in st.positions),
                          st.circulations)
        assert abs(hamiltonian(rot) - hamiltonian(st)) < 1e-10

    @pytest.mark.parametrize("second", [1.1 + 0j, 1.1 + 5e-7j])
    @pytest.mark.parametrize("gammas", [(1.0, 1.0), (1.0, -1.0)])
    def test_close_pair_refused_before_any_log(self, second, gammas):
        # a coincident pair gave -inf or inf and numpy's divide-by-zero warning
        st = VortexState((1.1 + 0j, second), gammas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VortexCollisionError) as err:
                hamiltonian(st)
        assert err.value.pair == (0, 1) and err.value.step is None


class TestGreenFunction:
    ZL = 1.18 * cmath.exp(0.9j)

    def test_coincidence_rejected(self):
        with pytest.raises(ValueError):
            green_function(self.ZL, self.ZL)

    @pytest.mark.parametrize("z_l", [5.0 + 0j, 0.9j, ANNULUS.outer_radius + 0j, complex(math.nan, 0.0)])
    def test_source_outside_the_annulus_rejected(self, z_l):
        # the source point is checked as a vortex position is; 5.0 gave -0.0038
        with pytest.raises(ValueError, match=r"^point at \|z\| = .* outside the open annulus "
                                             r"1 < \|z\| < 1.272020 of level k = 1$"):
            green_function(1.1 + 0j, z_l)

    def test_field_point_on_either_wall_accepted(self):
        # verify evaluates the field point exactly on both walls
        for z in (1.0 + 0j, ANNULUS.outer_radius * cmath.exp(0.4j)):
            assert math.isfinite(green_function(z, self.ZL))

    def test_field_points_as_an_array(self):
        # a point gives a float bit for bit as before; an array takes np.log for the
        # ln|z| term where a point takes math.log, so entries agree to 1e-16 (measured
        # at most 3.6e-17, 1.3 ulps of 1/(2 pi), over 628 points with both walls)
        n = kernel.CHUNK + 100
        zs = (1 + (ANNULUS.outer_radius - 1) * (np.arange(n) + 0.5) / n) * np.exp(0.37j * np.arange(n))
        zs[:64] = np.exp(2j * math.pi * np.arange(64) / 64)
        zs[64:128] = ANNULUS.outer_radius * zs[:64]
        got = green_function(zs, self.ZL)
        one_by_one = [green_function(complex(z), self.ZL) for z in zs]
        assert all(type(g) is float for g in one_by_one)
        assert got.shape == zs.shape and np.max(np.abs(got - one_by_one)) <= 1e-16
        assert np.array_equal(green_function(zs[:200].reshape(10, 20), self.ZL), got[:200].reshape(10, 20))
        assert np.array_equal(green_function(zs[:1], self.ZL), got[:1])
        assert type(green_function(np.complex128(zs[5]), self.ZL)) is float

    def test_coincident_entry_rejected(self):
        zs = np.array([1.1 + 0j, self.ZL + 1e-15, 1.2j])
        with pytest.raises(ValueError, match="green_function arguments coincide"):
            green_function(zs, self.ZL)


class TestRingSolution:
    def test_geometric_mean_closed_form(self):
        for n in (1, 2, 3, 5):
            got = ring_frequency(n, ANNULUS.mean_radius, 1.0)
            assert got == pytest.approx((n - 1) / (4 * math.pi * ANNULUS.outer_radius), abs=1e-12)

    def test_single_vortex_reduction(self):
        for r in (1.05, 1.2, 1.26):
            assert ring_frequency(1, r, 1.0) == pytest.approx(
                single_vortex_omega(r, -1.0 / (2 * math.pi)), rel=1e-12)

    def test_simulated_three_ring(self):
        n = 3
        r = ANNULUS.mean_radius
        st = VortexState(tuple(r * cmath.exp(2j * math.pi * l / n) for l in range(n)),
                         (1.0,) * n)
        traj = integrate(st, IntegratorConfig(1e-3, 4000))
        angles = np.unwrap(np.angle(traj.positions[:, 0]))
        measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        expected = 1.0 * (n - 1) / (4 * math.pi * ANNULUS.outer_radius)
        assert abs(measured - expected) / expected < 1e-4

    def test_simulated_sixteen_ring(self):
        # the benchmark's ring: every vortex turns at the closed-form rate to
        # the 1e-7 its gate allows
        n = 16
        st = VortexState(tuple(ANNULUS.mean_radius * cmath.exp(2j * math.pi * l / n + 0.2j)
                               for l in range(n)), (1.0,) * n)
        traj = integrate(st, IntegratorConfig(1e-3, 30))
        angles = np.unwrap(np.angle(traj.positions), axis=0)
        measured = (angles[-1] - angles[0]) / (traj.times[-1] - traj.times[0])
        expected = ring_frequency(n, ANNULUS.mean_radius, 1.0)
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

    def test_non_integer_level_rejected(self):
        # 1.5 gave -0.4749, the energy at h = 2
        with pytest.raises(ValueError, match="non-negative integer, got 1.5"):
            semiclassical_energy(1.5, 1.0)

    def test_overflowing_energy_rejected(self):
        # gamma^2 = 1e400 gave -inf
        with pytest.raises(ValueError, match="not finite"):
            semiclassical_energy(2, 1e200)


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
