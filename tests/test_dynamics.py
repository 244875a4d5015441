import cmath
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from goldcalc import dynamics, hydro
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


class TestIntegrate:
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

    def test_escape_detected(self):
        # bypass state validation to model a corrupted/boundary-contact state
        st = object.__new__(VortexState)
        object.__setattr__(st, "positions", (SQRT_PHI + 0.01 + 0j,))
        object.__setattr__(st, "circulations", (1.0,))
        with pytest.raises(VortexEscapeError) as err:
            integrate(st, IntegratorConfig(1e-3, 10))
        assert err.value.step == 0

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
        monkeypatch.setattr(dynamics, "n_vortex_rhs", lambda stage: 1j * stage.positions)
        st = VortexState((1.1 * cmath.exp(0.2j), 1.22 * cmath.exp(2.0j)), (1.0, -0.7))
        tracemalloc.start()
        try:
            integrate(st, IntegratorConfig(1e-3, 10000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6

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
