import cmath
import csv
import io
import json
import math
import random
import re

import numpy as np
import pytest

from goldcalc import hydro
from goldcalc.hydro import (
    AnnulusSpec,
    FlowGrid,
    ImageSystem,
    SingularityProximityError,
    field_grid,
    potential_via_e_phi,
    pure_golden_flow,
    stream_function,
    velocity_via_ln_phi,
    vortex_potential,
    vortex_velocity,
    wm_fractal,
    wm_modulation,
)
from goldcalc.ring import PHI, GoldenExact, golden_pow

SQRT_PHI = math.sqrt(PHI)


class TestAnnulusSpec:
    def test_radii(self):
        ann = AnnulusSpec(k=2, truncation=40)
        assert ann.inner_radius == 1.0
        assert ann.outer_radius == pytest.approx(PHI)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnulusSpec(k=0)
        with pytest.raises(ValueError):
            AnnulusSpec(k=1, truncation=0)

    def test_vortex_must_be_interior(self):
        with pytest.raises(ValueError):
            ImageSystem(0.9 + 0j, 1.0, AnnulusSpec(1))
        with pytest.raises(ValueError):
            ImageSystem(1.5 + 0j, 1.0, AnnulusSpec(1))


class TestImagePositions:
    def test_ladder_geometry(self):
        sys = ImageSystem(1.2 * cmath.exp(0.4j), 1.0, AnnulusSpec(2, 20))
        pairs = list(zip(*hydro._ladders(sys, range(0, 3), range(0, 3))))
        assert abs(pairs[1][0]) / abs(pairs[0][0]) == pytest.approx(PHI**2)
        assert abs(pairs[2][0]) / abs(pairs[1][0]) == pytest.approx(PHI**2)
        # |z_n - z*_n| grows geometrically with the same ratio
        d0 = abs(pairs[0][0] - pairs[0][1])
        d1 = abs(pairs[1][0] - pairs[1][1])
        assert d1 / d0 == pytest.approx(PHI**2)

    def test_sqrt_phi_vortex(self):
        sys = ImageSystem(SQRT_PHI * 0.99 + 0j, 1.0, AnnulusSpec(1, 10))
        (zn,), (zs,) = hydro._ladders(sys, [0], [0])
        assert zs == pytest.approx(1.0 / zn.conjugate())

    def test_unit_circle_point_is_self_symmetric(self):
        # the image map z -> 1/conj(z) fixes the unit circle pointwise
        z = cmath.exp(0.77j)
        assert 1.0 / z.conjugate() == pytest.approx(z)

    def test_symmetric_point_identity(self):
        # the points 1/phi and phi are symmetric in the unit circle with
        # unit separation: b - a = 1 and a b = 1, exactly in the ring
        a, b = golden_pow(-1), golden_pow(1)
        assert b - a == GoldenExact(1)
        assert a * b == GoldenExact(1)


class TestVortexPotential:
    SYS = ImageSystem(1.13 * cmath.exp(0.7j), 1.3, AnnulusSpec(1, 80))

    def test_zero_circulation(self):
        sys0 = ImageSystem(self.SYS.z0, 0.0, self.SYS.annulus)
        assert vortex_potential(sys0, 1.2 + 0.1j) == 0
        assert vortex_velocity(sys0, 1.2 + 0.1j) == 0

    @pytest.mark.parametrize("k,n_trunc", [(1, 50), (2, 50)])
    def test_boundary_psi_constant(self, k, n_trunc):
        ann = AnnulusSpec(k, n_trunc)
        z0 = (1 + 0.4 * (ann.outer_radius - 1)) * cmath.exp(0.6j)
        sys = ImageSystem(z0, 1.0, ann)
        for radius in (1.0, ann.outer_radius):
            vals = [stream_function(sys, radius * cmath.exp(1j * th))
                    for th in np.linspace(0, 2 * math.pi, 64, endpoint=False)]
            assert np.std(vals) < 1e-6

    def test_golden_periodicity_reindexed_differences(self):
        n = self.SYS.annulus.truncation
        sh1, sh2 = range(-n - 1, n), range(-n, n)
        z1, z2 = 1.1 * cmath.exp(0.4j), 1.2 * cmath.exp(2.2j)
        moved = [vortex_potential(self.SYS, PHI * z) for z in (z1, z2)]
        base = [vortex_potential(self.SYS, z, fam1_range=sh1, fam2_range=sh2)
                for z in (z1, z2)]
        assert abs((moved[0] - moved[1]) - (base[0] - base[1])) < 1e-7

    def test_velocity_self_similarity(self):
        n = self.SYS.annulus.truncation
        sh1, sh2 = range(-n - 1, n), range(-n, n)
        for z in (1.1 * cmath.exp(0.4j), 1.22 * cmath.exp(3.8j)):
            va = vortex_velocity(self.SYS, PHI * z)
            vb = vortex_velocity(self.SYS, z, fam1_range=sh1, fam2_range=sh2)
            assert abs(va - vb / PHI) < 1e-8

    def test_two_pole_window_matches_hand_formula(self):
        z = 1.18 * cmath.exp(1.9j)
        sys = self.SYS
        got = vortex_velocity(sys, z, fam1_range=[0], fam2_range=[0])
        hand = sys.gamma / (2j * math.pi) * (
            1 / (z - sys.z0) - 1 / (z - 1 / sys.z0.conjugate()))
        assert got == pytest.approx(hand)

    @pytest.mark.parametrize("ranges", [(None, None), (range(-81, 80), range(-80, 80)), ([0], [0, 1, 2])])
    def test_array_of_points_equals_the_points_one_by_one(self, ranges):
        # the top-aligned pairing with a bare tail on either ladder, in one array pass
        zs = np.array([[1.1 * cmath.exp(0.4j), 1.2 * cmath.exp(2.2j), -1.05 + 0.1j],
                       [1.01j, 1.25 + 0j, 1.18 * cmath.exp(-2.9j)]])
        got = vortex_potential(self.SYS, zs, *ranges)
        assert got.shape == zs.shape
        assert got.tolist() == [[vortex_potential(self.SYS, complex(z), *ranges) for z in row] for row in zs]
        assert np.array_equal(stream_function(self.SYS, zs, *ranges), got.imag)
        assert isinstance(vortex_potential(self.SYS, complex(zs[0, 0]), *ranges), complex)

    def test_singularity_proximity_names_the_first_point_too_close(self):
        near = [self.SYS.z0 + 2e-12, self.SYS.z0 * PHI + 1e-12]
        with pytest.raises(SingularityProximityError, match=re.escape(f"point {near[0]} within 2e-12 ")):
            stream_function(self.SYS, np.array([1.1 + 0.2j] + near))

    def test_singularity_proximity_rejected(self):
        with pytest.raises(SingularityProximityError):
            vortex_potential(self.SYS, self.SYS.z0 + 1e-12)
        with pytest.raises(SingularityProximityError):
            vortex_velocity(self.SYS, self.SYS.z0 * PHI + 1e-12)

    def test_circulation_recovery(self):
        rho = 0.02
        ts = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        integral = sum(vortex_velocity(self.SYS, complex(self.SYS.z0 + rho * np.exp(1j * t)))
                       * 1j * rho * np.exp(1j * t) for t in ts) * (2 * math.pi / len(ts))
        assert integral.real == pytest.approx(self.SYS.gamma, rel=1e-6)


class TestPureGoldenFlow:
    def test_quarter_power_value(self):
        _, psi, _ = pure_golden_flow(PHI**0.25 + 0j)
        assert psi == pytest.approx(1.0)

    def test_velocity_is_derivative(self):
        z = 1.2 * cmath.exp(0.5j)
        h = 1e-6
        _, _, v = pure_golden_flow(z)
        fd = (pure_golden_flow(z + h)[0] - pure_golden_flow(z - h)[0]) / (2 * h)
        assert abs(v - fd) < 1e-6 * max(1.0, abs(v))

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            pure_golden_flow(0j)


class TestClosedForms:
    Z0 = 1.13 * cmath.exp(0.7j)
    GAMMA = 1.3
    KAPPA = -GAMMA / (2 * math.pi)

    def test_zero_strength(self):
        assert potential_via_e_phi([(self.Z0, 0.0)], 1.2 + 0.1j) == 0
        assert velocity_via_ln_phi([(self.Z0, 0.0)], 1.2 + 0.1j) == 0

    def test_velocity_matches_image_sum(self):
        rng = random.Random(17)
        sys200 = ImageSystem(self.Z0, self.GAMMA, AnnulusSpec(1, 200))
        checked = 0
        while checked < 20:
            r = rng.uniform(1.02, SQRT_PHI - 0.02)
            z = r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(z - self.Z0) < 0.1:
                continue
            checked += 1
            a = velocity_via_ln_phi([(self.Z0, self.KAPPA)], z)
            b = vortex_velocity(sys200, z)
            assert abs(a - b) < 1e-7

    def test_potential_differences_match_image_sum(self):
        sys200 = ImageSystem(self.Z0, self.GAMMA, AnnulusSpec(1, 200))
        probes = [1.08 * cmath.exp(0.3j), 1.2 * cmath.exp(2.4j), 1.25 * cmath.exp(4.0j)]
        pe = [potential_via_e_phi([(self.Z0, self.KAPPA)], z) for z in probes]
        pi = [vortex_potential(sys200, z) for z in probes]
        for i in range(1, len(probes)):
            assert abs((pe[i] - pe[0]).imag - (pi[i] - pi[0]).imag) < 1e-7

    def test_superposition(self):
        z = 1.2 * cmath.exp(2.0j)
        zs2 = 1.2 * cmath.exp(4.5j)
        single = velocity_via_ln_phi([(self.Z0, self.KAPPA)], z)
        other = velocity_via_ln_phi([(zs2, 0.4)], z)
        both = velocity_via_ln_phi([(self.Z0, self.KAPPA), (zs2, 0.4)], z)
        assert abs(both - single - other) < 1e-12


class TestWMFractal:
    def test_small_t_vanishes(self):
        # with the truncation fixed, every term goes to zero as t -> 0+
        vals = [wm_fractal(t, 0.5, 40) for t in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert vals[-1] < 1e-9

    def test_modulation_periodic_and_consistent(self):
        for t in (0.7, 1.0, 1.6):
            a = wm_modulation(t, 0.5, 60)
            assert abs(wm_modulation(PHI * t, 0.5, 60) - a) < 1e-5
            assert a.real == pytest.approx(wm_fractal(t, 0.5, 60) / t**0.5, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            wm_fractal(1.0, 0.0)
        with pytest.raises(ValueError):
            wm_fractal(1.0, 1.0)
        with pytest.raises(ValueError):
            wm_fractal(-1.0, 0.5)


class TestFieldGrid:
    ANN = AnnulusSpec(1, 60)
    Z0 = 1.13 * cmath.exp(0.7j)

    def test_row_count_bounded_and_interior(self):
        grid = field_grid(self.ANN, [(self.Z0, 1.0)], (20, 20), exclusion=1e-3)
        assert 0 < len(grid.rows) <= 400
        for x, y, *_ in grid.rows:
            assert 1.0 < math.hypot(x, y) < self.ANN.outer_radius

    def test_empty_vortex_list_gives_zero_field(self):
        grid = field_grid(self.ANN, [], (10, 10))
        assert grid.rows
        assert all(r[2] == 0 and r[3] == 0 and r[4] == 0 for r in grid.rows)

    def test_velocity_is_stream_gradient(self):
        # u = d psi / d y and v = -d psi / d x by central differences
        sys = ImageSystem(self.Z0, 1.0, self.ANN)
        grid = field_grid(self.ANN, [(self.Z0, 1.0)], (12, 12), exclusion=5e-2)
        h = 1e-5
        for x, y, psi, u, v in grid.rows[::7]:
            z = complex(x, y)
            du = (stream_function(sys, z + 1j * h) - stream_function(sys, z - 1j * h)) / (2 * h)
            dv = -(stream_function(sys, z + h) - stream_function(sys, z - h)) / (2 * h)
            assert abs(u - du) < 1e-5
            assert abs(v - dv) < 1e-5

    def test_csv_round_trip_bit_exact(self, tmp_path):
        grid = field_grid(self.ANN, [(self.Z0, 1.0)], (14, 14), exclusion=1e-3)
        path = tmp_path / "field.csv"
        grid.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,y,psi,u,v"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert list(map(tuple, back.tolist())) == grid.rows

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # more kept points than one block of to_csv
        grid = field_grid(self.ANN, [(self.Z0, 1.0)], (130, 130), exclusion=1e-3)
        assert len(grid) > hydro.CHUNK
        path = tmp_path / "field.csv"
        grid.to_csv(path)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(FlowGrid.FIELDS)
        for row in grid.rows:
            w.writerow([repr(v) for v in row])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_json_round_trip_bit_exact(self, tmp_path):
        grid = field_grid(self.ANN, [(self.Z0, 1.0)], (10, 10), exclusion=1e-3)
        path = tmp_path / "field.json"
        grid.to_json(path)
        back = json.loads(path.read_text())
        assert [tuple(rec[f] for f in ("x", "y", "psi", "u", "v")) for rec in back] == grid.rows
        # the one-shot write is byte-identical to json.dumps of the records
        records = [dict(zip(("x", "y", "psi", "u", "v"), row)) for row in grid.rows]
        assert path.read_bytes() == json.dumps(records).encode()

    def test_writers_spell_values_by_their_bits(self, tmp_path):
        # each distinct value is formatted once: 0.0 and -0.0 are equal but spelt
        # apart, a constant column has one value, and the values of every column
        # repeat on both sides of a block boundary
        i = np.arange(hydro.CHUNK + 40)
        grid = FlowGrid(np.where(i % 3, 0.0, -0.0), np.full(len(i), 0.25), (i % 7 - 3) / 10,
                        np.where(i % 2, 1e-300, -2.5), (i % 5) * PHI)
        grid.u[[4, hydro.CHUNK + 1]] = math.nan
        grid.v[[5, hydro.CHUNK + 2]] = math.inf, -math.inf
        grid.to_csv(tmp_path / "grid.csv")
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(FlowGrid.FIELDS)
        w.writerows([repr(v) for v in row] for row in grid.rows)
        assert (tmp_path / "grid.csv").read_bytes() == expected.getvalue().encode()
        # json spells the non-finite values NaN, Infinity and -Infinity
        grid.to_json(tmp_path / "grid.json")
        records = [dict(zip(FlowGrid.FIELDS, row)) for row in grid.rows]
        assert (tmp_path / "grid.json").read_bytes() == json.dumps(records).encode()

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            field_grid(self.ANN, [], (1, 5))
        for bad in (-1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                field_grid(self.ANN, [], (5, 5), exclusion=bad)
