import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldcalc import dynamics, hydro, verify
from goldcalc.cli import _fmt_complex, main, parse_complex, parse_grid
from goldcalc.functions import golden_exp
from goldcalc.ring import PHI


def read_field_csv(path) -> np.ndarray:
    """The (x, y, psi, u, v) rows of a `field` CSV, parsed without goldcalc."""
    header, *rows = path.read_text().splitlines()
    assert header == "x,y,psi,u,v"
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def run_cli(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("1.5+2i") == 1.5 + 2j
        assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert parse_complex("-3") == -3 + 0j
        assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_complex_round_trip(self, re, im):
        # floats() draws signed zeros, subnormals and values printed in exponent form
        z = complex(re, im)
        back = parse_complex(_fmt_complex(z))
        assert back == z
        assert math.copysign(1, back.real) == math.copysign(1, re)
        assert math.copysign(1, back.imag) == math.copysign(1, im)

    def test_complex_rejects_garbage(self):
        import argparse
        for bad in ("1.5 + 2i", "abc", "2i+1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_complex(bad)

    def test_grid(self):
        assert parse_grid("50x40") == (50, 40)
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("50by40")


class TestSeq:
    def test_fourth_sequence(self, capsys):
        assert run_cli(["seq", "--k", "4", "--n-max", "5"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["1", "7", "48", "329", "2255"]

    def test_fifth_sequence(self, capsys):
        assert run_cli(["seq", "--k", "5", "--n-max", "5"]) == 0
        assert capsys.readouterr().out.split() == ["1", "11", "122", "1353", "15005"]

    def test_minimal(self, capsys):
        assert run_cli(["seq", "--k", "1", "--n-max", "1"]) == 0
        assert capsys.readouterr().out.split() == ["1"]

    def test_bad_flags_exit_one(self, capsys):
        assert run_cli(["seq", "--k", "0", "--n-max", "5"]) == 1
        assert run_cli(["seq", "--k", "2", "--n-max", "0"]) == 1
        assert run_cli(["seq", "--k", "2"]) == 1
        assert run_cli(["seq", "--k", "2", "--n-max", "3", "--bogus"]) == 1


class TestEval:
    def test_golden_exp(self, capsys):
        assert run_cli(["eval", "--fn", "golden-exp", "--x", "1", "--k", "1"]) == 0
        out = capsys.readouterr().out.strip()
        val = golden_exp(1.0, 1, "e")
        assert out.startswith(repr(val.real)[:12])

    def test_phi_number(self, capsys):
        assert run_cli(["eval", "--fn", "phi-number", "--n", "3", "--k", "1"]) == 0
        assert "2+2*phi" in capsys.readouterr().out

    def test_requires_argument(self, capsys):
        assert run_cli(["eval", "--fn", "golden-exp"]) == 1
        assert run_cli(["eval", "--fn", "phi-number"]) == 1

    def test_unknown_function(self, capsys):
        assert run_cli(["eval", "--fn", "mystery", "--x", "1"]) == 1

    def test_ln_phi_near_pole_is_usage_error(self, capsys):
        bad = repr(-PHI)
        assert run_cli(["eval", "--fn", "ln-phi", "--x", bad, "--k", "1"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--tail-tol", "inf"), ("--tail-tol", "nan"), ("--max-terms", "0")])
    def test_bad_truncation_is_usage_error(self, capsys, flag, value):
        assert run_cli(["eval", "--fn", "e-phi", "--x", "1", flag, value]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith("goldcalc eval: error:") and err.count("\n") == 1
        assert flag[2:].replace("-", "_") in err


class TestField:
    def test_csv_schema_and_summary(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = run_cli(["field", "--z0", "1.2+0i", "--gamma", "1.0", "--k", "2",
                        "--grid", "50x50", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,psi,u,v"
        assert len(lines) - 1 <= 2500
        stdout = capsys.readouterr().out
        assert "psi in [" in stdout
        assert "boundary psi std" in stdout

    def test_zero_gamma_zero_psi(self, tmp_path, capsys):
        out = tmp_path / "f0.csv"
        assert run_cli(["field", "--z0", "1.2+0i", "--gamma", "0", "--k", "1",
                        "--grid", "12x12", "--out", str(out)]) == 0
        rows = read_field_csv(out)
        assert len(rows)
        assert (rows[:, 2] == 0.0).all()

    def test_boundary_report_tight_at_trunc_80(self, tmp_path, capsys):
        out = tmp_path / "f80.csv"
        assert run_cli(["field", "--z0", "1.13+0.2i", "--gamma", "1.0", "--k", "1",
                        "--grid", "8x8", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        stds = [float(line.rsplit(":", 1)[1])
                for line in stdout.splitlines() if "boundary psi std" in line]
        assert len(stds) == 2
        assert all(s < 1e-6 for s in stds)

    def test_json_output_round_trips(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run_cli(["field", "--z0", "1.1+0.1i", "--gamma", "0.5", "--k", "1",
                        "--grid", "10x10", "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert records
        assert all(list(rec) == ["x", "y", "psi", "u", "v"] for rec in records)

    def test_vortex_outside_annulus_is_usage_error(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "2.0+0i", "--gamma", "1.0", "--k", "1",
                        "--grid", "10x10", "--out", str(out)]) == 1

    def test_unwritable_path_is_error(self, capsys):
        assert run_cli(["field", "--z0", "1.2+0i", "--gamma", "1.0", "--k", "1",
                        "--grid", "8x8", "--out", "/nonexistent/dir/f.csv"]) == 1

    def test_non_finite_z0_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "1e999+0i", "--gamma", "1.0", "--k", "1",
                        "--grid", "8x8", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_is_usage_error(self, tmp_path, capsys, gamma):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "1.2+0i", f"--gamma={gamma}", "--k", "1",
                        "--grid", "8x8", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_level_whose_power_overflows_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "1.2+0i", "--gamma", "1.0", "--k", "1475",
                        "--grid", "8x8", "--out", str(out)]) == 1
        assert "overflows" in capsys.readouterr().err

    def test_large_level_probe_is_finite(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "50.1+30.2i", "--gamma", "1.2", "--k", "20",
                        "--grid", "20x20", "--out", str(out)]) == 0
        rows = read_field_csv(out)
        assert len(rows) and np.isfinite(rows).all()

    def test_non_finite_samples_exit_two(self, tmp_path, capsys, monkeypatch):
        def nan_flow(annulus, vortices, z):
            return np.full(np.shape(z), np.nan), np.full(np.shape(z), np.nan, dtype=complex)

        monkeypatch.setattr(hydro, "flow", nan_flow)
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "1.2+0i", "--gamma", "1.0", "--k", "1",
                        "--grid", "8x8", "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_stationary_vortex(self, tmp_path, capsys):
        r = PHI**0.25
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": r, "y": 0.0, "gamma": 1.0}]))
        out = tmp_path / "traj.csv"
        code = run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "500", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "step,t,vortex_index,x,y"
        _, _, _, x, y = rows[-1].split(",")
        assert math.hypot(float(x) - r, float(y)) < 1e-8

    def test_three_ring_frequency(self, tmp_path, capsys):
        import cmath
        r = PHI**0.25
        init = tmp_path / "ring.json"
        pts = [r * cmath.exp(2j * math.pi * l / 3) for l in range(3)]
        init.write_text(json.dumps([{"x": z.real, "y": z.imag, "gamma": 1.0} for z in pts]))
        out = tmp_path / "traj.csv"
        code = run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "2000", "--out", str(out), "--record-every", "10"])
        assert code == 0
        stdout = capsys.readouterr().out
        omegas = [float(line.rsplit("=", 1)[1])
                  for line in stdout.splitlines() if "measured omega" in line]
        expected = 2.0 / (4 * math.pi * math.sqrt(PHI))
        assert len(omegas) == 3
        for om in omegas:
            assert abs(om - expected) / expected < 1e-4

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        init = tmp_path / "bad.json"
        init.write_text("{not json")
        out = tmp_path / "t.csv"
        code = run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)])
        assert code == 1
        assert "cannot load" in capsys.readouterr().err

    def test_collision_exit_two(self, tmp_path, capsys):
        init = tmp_path / "close.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0},
                                    {"x": 1.1, "y": 5e-7, "gamma": 1.0}]))
        out = tmp_path / "t.csv"
        code = run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)])
        assert code == 2
        assert "aborted" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"x": 1.1, "y": 0.0, "gamma": math.nan},
        {"x": 1.1, "y": 0.0, "gamma": math.inf},
        {"x": math.nan, "y": 0.0, "gamma": 1.0},
        {"x": 1.1, "y": math.inf, "gamma": 1.0},
    ])
    def test_non_finite_initial_condition_exit_one(self, tmp_path, capsys, record):
        init = tmp_path / "nan.json"
        init.write_text(json.dumps([record]))  # json writes NaN and Infinity literals
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_dt_exit_one(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        for dt in ("nan", "inf"):
            assert run_cli(["simulate", "--init", str(init), "--dt", dt,
                            "--steps", "10", "--out", str(tmp_path / "t.csv")]) == 1

    def test_non_finite_positions_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "n_vortex_rhs",
                            lambda state: np.full(len(state.positions), np.nan, dtype=complex))
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_record_every_thins_output(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "100", "--out", str(out),
                        "--record-every", "10"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 11  # header + every 10th state incl. endpoints
        for every in ("0", "-3"):
            bad = tmp_path / f"bad{every}.csv"
            assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                            "--steps", "100", "--out", str(bad),
                            "--record-every", every]) == 1
            assert "--record-every" in capsys.readouterr().err
            assert not bad.exists()

    def test_record_every_writes_integrator_steps(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-2",
                        "--steps", "25", "--out", str(out),
                        "--record-every", "10"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [0, 10, 20, 25]
        assert [float(r[1]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.25])


class TestVerify:
    def test_ring_suite_passes(self, capsys):
        assert run_cli(["verify", "--suite", "ring"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite_exit_one(self, capsys, monkeypatch):
        assert run_cli(["verify", "--suite", "nope"]) == 1
        ran = []
        monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: ran.append(a) or [])
        for flag, value in (("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"),
                            ("--tol", "nan"), ("--tol", "2"), ("--tol", "1e300"),
                            ("--seed", "-1")):
            capsys.readouterr()
            assert run_cli(["verify", "--suite", "ring", flag, value]) == 1, (flag, value)
            out, err = capsys.readouterr()
            assert not ran and not out
            assert err.startswith(f"goldcalc verify: error: {flag}") and err.count("\n") == 1

    def test_deterministic_given_seed(self, capsys):
        run_cli(["verify", "--suite", "calculus", "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["verify", "--suite", "calculus", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_impossible_tolerance_exit_three(self, capsys):
        # shrinking every tolerance by 1e-12 must trip at least one check
        assert run_cli(["verify", "--suite", "calculus", "--tol", "1e-12"]) == 3
