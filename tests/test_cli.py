import cmath
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldcalc import dynamics, hydro, kernel, verify
from goldcalc.cli import _fmt_complex, main, parse_complex, parse_grid
from goldcalc.functions import golden_exp
from goldcalc.ring import PHI, fib_divisor, golden_pow


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

    @pytest.mark.parametrize("k", [1, 2, 3, -1, -2, 7])
    def test_recursion_prints_the_divisions(self, capsys, k):
        # seq streams the values by the Lucas recursion; ring.fib_divisor divides
        assert run_cli(["seq", "--k", str(k), "--n-max", "500"]) == 0
        assert capsys.readouterr().out == "".join(f"{fib_divisor(n, k)}\n" for n in range(1, 501))

    def test_bad_flags_exit_one(self, capsys):
        assert run_cli(["seq", "--k", "0", "--n-max", "5"]) == 1
        assert run_cli(["seq", "--k", "2", "--n-max", "0"]) == 1
        assert run_cli(["seq", "--k", "2"]) == 1
        assert run_cli(["seq", "--k", "2", "--n-max", "3", "--bogus"]) == 1

    @pytest.fixture
    def int_digit_limit(self):
        """Sets Python's limit on the digits of an int printed as text for one test."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int digit limit")
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    def test_value_past_the_int_digit_limit_refused_before_any_output(self, capsys, int_digit_limit):
        int_digit_limit(4300)  # the default: F_20577 has 4300 digits, F_20578 4301
        assert run_cli(["seq", "--k", "1", "--n-max", "20600"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "4300 digits" in err

    @pytest.mark.parametrize("k", [1, -1, 2, 7, -30])
    def test_digit_limit_refuses_exactly_the_values_it_cannot_print(self, capsys, int_digit_limit, k):
        limit = 640  # the smallest limit Python accepts
        n = 1  # the last n whose value has at most limit digits
        while len(str(abs(fib_divisor(n + 1, k)))) <= limit:
            n += 1
        int_digit_limit(limit)
        assert run_cli(["seq", "--k", str(k), "--n-max", str(n)]) == 0
        assert len(capsys.readouterr().out.split()[-1].lstrip("-")) <= limit
        assert run_cli(["seq", "--k", str(k), "--n-max", str(n + 1)]) == 1
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("k", [1, -1, 3, -4])
    def test_phi_number_refuses_exactly_the_values_whose_float_overflows(self, capsys, k):
        # the last n whose float conversion is finite, by adding the terms one at a time
        total, n = golden_pow(0), 1
        while True:
            try:
                if not math.isfinite((total + golden_pow(k * n)).to_real()):
                    break
            except OverflowError:
                break
            total, n = total + golden_pow(k * n), n + 1
        assert run_cli(["eval", "--fn", "phi-number", "--n", str(n), "--k", str(k)]) == 0
        assert capsys.readouterr().out == f"{total}  (= {total.to_real()!r})\n"
        assert run_cli(["eval", "--fn", "phi-number", "--n", str(n + 1), "--k", str(k)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "overflows a float" in err

    @pytest.mark.parametrize("n, k", [(10**5, 1), (10**5, -2), (10**400, 1), (10**400, -3),
                                      (10**400, 0)])
    def test_phi_number_of_a_large_n_refused_before_computing(self, capsys, n, k):
        # 10^5 terms take minutes of big-integer sums, and F_100000 has 20,899
        # digits, past Python's default limit of 4300 for printing an int;
        # 10^400 does not fit a float
        assert run_cli(["eval", "--fn", "phi-number", "--n", str(n), "--k", str(k)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "overflows a float" in err

    def test_unknown_function(self, capsys):
        assert run_cli(["eval", "--fn", "mystery", "--x", "1"]) == 1

    @pytest.mark.parametrize("value", ["-0.5+0.2i", "-0.5-0.2i", "-5e-1+2e-1i", "-2e-1-1i"])
    def test_negative_complex_as_separate_argument(self, capsys, value):
        assert run_cli(["eval", "--fn", "e-phi", "--x", value]) == 0
        separate = capsys.readouterr()
        assert run_cli(["eval", "--fn", "e-phi", f"--x={value}"]) == 0
        assert separate == capsys.readouterr() and separate.out

    @pytest.mark.parametrize("argv", [
        ["--x"], ["--x", "--k", "1"], ["--x", "-0.5+0.2i", "--bogus"], ["--x", "-0.5+0.2iz"],
        ["--x", "-0.5+0.2i", "-0.3"]], ids=["missing", "missing before option", "unknown option",
                                            "garbage", "extra value"])
    def test_negative_complex_keeps_usage_errors(self, capsys, argv):
        assert run_cli(["eval", "--fn", "e-phi", *argv]) == 1
        out, err = capsys.readouterr()
        assert not out and "error:" in err

    @pytest.mark.parametrize("value, spelt", [(".5", "0.5"), ("-.5+2e-1i", "-0.5+2e-1i"),
                                              ("1+.5i", "1+0.5i")])
    def test_number_may_start_with_a_dot(self, capsys, value, spelt):
        assert run_cli(["eval", "--fn", "e-phi", "--x", value]) == 0
        dotted = capsys.readouterr()
        assert run_cli(["eval", "--fn", "e-phi", "--x", spelt]) == 0
        assert dotted == capsys.readouterr() and dotted.out

    @pytest.mark.parametrize("value", [".", "1+.i", "1+e5i"])
    def test_malformed_number_is_a_parse_error(self, capsys, value):
        assert run_cli(["eval", "--fn", "e-phi", f"--x={value}"]) == 1
        out, err = capsys.readouterr()
        assert not out and f"cannot parse complex value {value!r}" in err

    def test_ln_phi_near_pole_is_usage_error(self, capsys):
        bad = repr(-PHI)
        assert run_cli(["eval", "--fn", "ln-phi", "--x", bad, "--k", "1"]) == 1

    @pytest.mark.parametrize("flag", ["--max-terms", "--tail-tol"])
    def test_truncation_is_not_an_option(self, capsys, flag):
        # every series sizes itself from its own tail bound
        assert run_cli(["eval", "--fn", "e-phi", "--x", "1", flag, "5"]) == 1
        out, err = capsys.readouterr()
        assert not out and f"unrecognized arguments: {flag} 5" in err

    @pytest.mark.parametrize("x", ["1e20", "1e300", "-1e300"])
    @pytest.mark.parametrize("fn", [["golden-exp"], ["golden-cos"], ["golden-sin"], ["e-phi"],
                                    ["E-phi"], ["e-phi-product"], ["ln-phi", "--form", "series"],
                                    ["ln-phi", "--form", "pole_sum"]],
                             ids=["golden-exp", "golden-cos", "golden-sin", "e-phi", "E-phi",
                                  "e-phi-product", "ln-phi-series", "ln-phi-pole_sum"])
    def test_series_print_a_finite_value_or_refuse(self, capsys, fn, x):
        code = run_cli(["eval", "--fn", *fn, "--x", x])
        out, err = capsys.readouterr()
        if code == 1:
            assert not out and err.startswith("goldcalc eval: error:") and err.count("\n") == 1
            return
        assert code == 0 and not err
        value = parse_complex(out.strip())  # rejects nan and inf
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        if fn[-1] == "pole_sum" and x == "1e20":
            assert out.startswith("58.836")

    @pytest.mark.parametrize("fn", ["wm", "wm-modulation"])
    @pytest.mark.parametrize("flags", [["--x", "1e300"], ["--trunc", "2000"], ["--trunc", "0"],
                                       ["--trunc", "-3"], ["--trunc", "100000000"]],
                             ids=["x=1e300", "trunc=2000", "trunc=0", "trunc=-3", "trunc=1e8"])
    def test_weierstrass_sum_out_of_range_is_usage_error(self, capsys, fn, flags):
        # phi^n t overflows for t = 1e300 at n = 60 and for t = 1 from n = 1475;
        # --trunc below 1 leaves no sum
        assert run_cli(["eval", "--fn", fn, "--x", "1", *flags]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith("goldcalc eval: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fn", ["golden-cos", "golden-sin", "wm", "wm-modulation"])
    def test_real_functions_refuse_an_imaginary_part(self, capsys, fn):
        assert run_cli(["eval", "--fn", fn, "--x", "1+2i"]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err == f"goldcalc eval: error: --fn {fn} takes a real --x, got 1.0+2.0i\n"
        assert run_cli(["eval", "--fn", fn, "--x", "1"]) == 0
        real = capsys.readouterr()
        assert run_cli(["eval", "--fn", fn, "--x", "1+0i"]) == 0
        assert capsys.readouterr() == real and real.out and not real.err


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

    def test_boundary_report_of_a_huge_circulation_is_finite(self, tmp_path, capsys):
        # psi's wall deviations are about 1e184 at gamma = 1e200: squared
        # unscaled, they overflowed to an inf std, a numpy warning and exit 2
        assert run_cli(["field", "--z0=1.1+0i", "--gamma=1e200", "--k=1", "--grid=10x10",
                        "--out", str(tmp_path / "f.csv")]) == 0
        out, err = capsys.readouterr()
        stds = [float(line.rsplit(":", 1)[1]) for line in out.splitlines() if "boundary psi std" in line]
        assert len(stds) == 2 and all(math.isfinite(s) for s in stds)
        assert not err

    def test_boundary_report_at_the_largest_circulation_computes_no_velocity(self, tmp_path, capsys):
        # at gamma = 1e308 the wall velocity gamma / (2 pi i z) (...) overflows
        # where psi does not: the report takes psi from ln|P| alone
        assert run_cli(["field", "--z0=1.1+0i", "--gamma=1e308", "--k=1", "--grid=10x10",
                        "--out", str(tmp_path / "f.csv")]) == 0
        out, err = capsys.readouterr()
        stds = [float(line.rsplit(":", 1)[1]) for line in out.splitlines() if "boundary psi std" in line]
        assert len(stds) == 2 and all(math.isfinite(s) for s in stds)
        assert not err

    def test_json_output_round_trips(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run_cli(["field", "--z0", "1.1+0.1i", "--gamma", "0.5", "--k", "1",
                        "--grid", "10x10", "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert records
        assert all(list(rec) == ["x", "y", "psi", "u", "v"] for rec in records)

    def test_negative_complex_z0_as_separate_argument(self, tmp_path, capsys):
        flags = ["--gamma", "1.0", "--grid", "20x20"]
        assert run_cli(["field", "--z0", "-0.72-0.93i", *flags, "--out", str(tmp_path / "a.csv")]) == 0
        assert run_cli(["field", "--z0=-0.72-0.93i", *flags, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        capsys.readouterr()
        assert run_cli(["field", "--z0", *flags, "--out", str(tmp_path / "c.csv")]) == 1
        assert "--z0: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_vortex_outside_annulus_is_usage_error(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--z0", "2.0+0i", "--gamma", "1.0", "--k", "1",
                        "--grid", "10x10", "--out", str(out)]) == 1

    def test_vortex_outside_the_level_4_annulus_names_its_radius(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run_cli(["field", "--k", "4", "--z0", "2.7+0i", "--gamma", "1.0",
                        "--grid", "10x10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "goldcalc field: error: point at |z| = 2.700000 outside the open annulus "
            "1 < |z| < 2.618034 of level k = 4\n")
        assert not out.exists()

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

    def test_vortex_on_a_grid_node_reports_non_finite_samples_alone(self, tmp_path, capsys):
        # the vortex sits on a node of the 41x41 grid and nothing is excluded:
        # the kernel finds the point on the vortex before any log or division,
        # so stderr holds the one line and no numpy warning
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["field", "--z0=1.1448176845626619+0i", "--gamma=1", "--k=1", "--grid=41x41",
                            "--exclusion=0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"goldcalc field: error: non-finite samples; {out} not written\n"
        assert not out.exists()

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
    def test_unwritable_path_is_error(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        out = tmp_path / "missing" / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-2", "--steps", "5",
                        "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert not stdout and err.count("\n") == 1
        assert err.startswith(f"goldcalc simulate: error: cannot write {out}:")

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

    @pytest.mark.parametrize("key", ["x", "y", "gamma"])
    def test_integer_beyond_float_range_exit_one(self, tmp_path, capsys, key):
        init = tmp_path / "big.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0, key: 10**400}]))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("goldcalc simulate: error: cannot load") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("record, key", [
        ({"x": 1.1, "y": 0.0, "gamma": 10**400}, "'gamma'"),
        ({"x": 1.1, "y": [0.0] * 200, "gamma": 1.0}, "'y'"),
        ({"x": 1.1, "y": 0.0}, "'gamma'"),
        ({"x": "x" * 400, "y": 0.0, "gamma": 1.0}, "'x'"),
        ({"x": 1.1, "y": 0.0, "gamma": True}, "'gamma'"),
        ({"x": "1.1", "y": 0.0, "gamma": 1.0}, "'x'"),
    ], ids=["int beyond float range", "list", "missing", "long string", "boolean", "numeric string"])
    def test_bad_record_named_by_index_and_key(self, tmp_path, capsys, record, key):
        init = tmp_path / "bad.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}] * 2 + [record]))
        out = tmp_path / "t.csv"
        assert run_cli(["simulate", "--init", str(init), "--dt", "1e-3",
                        "--steps", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err.replace(str(init), "INIT")
        assert err.startswith("goldcalc simulate: error: cannot load INIT: ")
        assert "record 2" in err and key in err and len(err) < 100 and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_dt_exit_one(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        for dt in ("nan", "inf"):
            assert run_cli(["simulate", "--init", str(init), "--dt", dt,
                            "--steps", "10", "--out", str(tmp_path / "t.csv")]) == 1

    def test_non_finite_positions_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_velocity_field",
                            lambda gammas: lambda log_z: [complex(math.nan, math.nan)] * len(log_z))
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
        ran = []
        monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: ran.append(a) or [])
        assert run_cli(["verify", "--suite", "nope"]) == 1
        out, err = capsys.readouterr()
        assert not ran and not out
        assert err.startswith("goldcalc verify: error: --suite 'nope'") and err.count("\n") == 1
        assert all(name in err for name in (*verify.SUITE_NAMES, "all"))
        assert run_cli(["verify", "--suite", "ring", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert not ran and not out
        assert err.startswith("goldcalc verify: error: --seed") and err.count("\n") == 1

    def test_tol_is_not_an_option(self, capsys):
        # each check has one stated bound, printed next to its measured value
        assert run_cli(["verify", "--suite", "ring", "--tol", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert not out and "unrecognized arguments: --tol 0.5" in err

    def test_deterministic_given_seed(self, capsys):
        run_cli(["verify", "--suite", "calculus", "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["verify", "--suite", "calculus", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_failing_check_exit_three(self, capsys, monkeypatch):
        failing = verify._bounded("stated bound", ("worst 2.00e-09", 2e-9, 1e-9))
        monkeypatch.setitem(verify._SUITES, "ring", lambda rng: [failing])
        assert run_cli(["verify", "--suite", "ring"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["[FAIL] stated bound  worst 2.00e-09 (bound 1e-09)",
                         "0/1 checks passed"]


# a fresh interpreter imports goldcalc (or runs cli.main on its arguments) and
# prints the exit code and the names then in sys.modules as its last line
_LOADED = """
import sys
if sys.argv[1:]:
    from goldcalc import cli
    rc = cli.main(sys.argv[1:])
else:
    import goldcalc
    rc = 0
loaded = sorted(sys.modules)
import json
print(json.dumps([rc, loaded]))
"""
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """This environment with the tree's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_loaded(argv, cwd) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


class TestStartup:
    """Each command imports only the code it runs; asserts module sets, not times."""

    def test_package_root_imports_no_submodule(self, tmp_path):
        loaded = modules_loaded([], tmp_path)
        assert "goldcalc" in loaded
        assert not [m for m in loaded if m.startswith("goldcalc.")]

    @pytest.mark.parametrize("argv", [["seq", "--k", "1", "--n-max", "3"],
                                      ["eval", "--fn", "e-phi", "--x", "0.5"]])
    def test_exact_commands_start_without_numpy(self, tmp_path, argv):
        loaded = modules_loaded(argv, tmp_path)
        assert "goldcalc.cli" in loaded and "numpy" not in loaded
        assert "orjson" not in loaded  # the file writers' formatter

    def test_verify_loads_no_numpy_random(self, tmp_path):
        # the checks draw from random.Random; numpy.random only costs import time
        loaded = modules_loaded(["verify", "--suite", "ring"], tmp_path)
        assert "goldcalc.verify" in loaded and "numpy" in loaded
        assert not [m for m in loaded if m.split(".")[:2] == ["numpy", "random"]]
        assert "orjson" not in loaded

    def test_field_and_simulate_load_no_oracle_checks(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0}]))
        for argv in (["field", "--z0", "1.1+0.1i", "--gamma", "1", "--grid", "8x8",
                      "--out", str(tmp_path / "f.csv")],
                     ["simulate", "--init", str(init), "--dt", "1e-3", "--steps", "5",
                      "--out", str(tmp_path / "t.csv")]):
            loaded = modules_loaded(argv, tmp_path)
            assert "goldcalc.kernel" in loaded, argv
            for oracles in ("goldcalc.verify", "goldcalc.functions", "goldcalc.combinatorics"):
                assert oracles not in loaded, (argv, oracles)
            assert "numpy.random" not in loaded, argv
            # the writers format with orjson, which imports json
            assert "orjson" in loaded, argv


# runs a prelude, then goldcalc.cli as `python -m` does: its __main__ block
_AS_MAIN = """
import runpy
{prelude}
runpy.run_module("goldcalc.cli", run_name="__main__", alter_sys=True)
"""
# prints the collector's state as the interpreter exits, after the entry returned
_AT_EXIT = """
import atexit, gc, json, sys
atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count()]), file=sys.stderr))
"""


def cli_process(argv, cwd, prelude=None) -> subprocess.CompletedProcess:
    """`python -m goldcalc.cli argv` in a fresh interpreter, or, with a
    prelude, a `-c` script that runs the prelude and then the module's
    __main__ block; stdout and stderr are read through pipes."""
    cmd = ["-m", "goldcalc.cli"] if prelude is None else ["-c", _AS_MAIN.format(prelude=prelude)]
    return subprocess.run([sys.executable, *cmd, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=120, env=child_env())


class TestProcessEntry:
    """`python -m goldcalc.cli` and the `goldcalc` script run `cli.run()`: the
    collector is off for the whole command and the heap frozen on the way out."""

    @pytest.mark.parametrize("argv, code", [
        (["seq", "--k", "1", "--n-max", "3"], 0),
        (["--help"], 0),
        (["seq", "--k", "1"], 1),  # argparse's usage error
        (["seq", "--k", "0", "--n-max", "3"], 1),
    ])
    def test_exit_code(self, tmp_path, argv, code):
        assert cli_process(argv, tmp_path).returncode == code

    def test_grid_numpy_cannot_allocate_is_usage_error(self, tmp_path):
        # a 4e6 x 4e6 complex grid is 256 TB, past any process's address space,
        # so numpy refuses it on every host (its two axes take 64 MB)
        out = tmp_path / "f.csv"
        proc = cli_process(["field", "--z0", "1.1+0.1i", "--gamma", "1", "--grid", "4000000x4000000",
                            "--out", str(out)], tmp_path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("goldcalc field: error: grid 4000000x4000000: Unable to allocate")
        assert len(proc.stderr.splitlines()) == 1 and not out.exists()

    def test_physics_event_exits_two(self, tmp_path):
        init = tmp_path / "close.json"
        init.write_text(json.dumps([{"x": 1.1, "y": 0.0, "gamma": 1.0},
                                    {"x": 1.1, "y": 5e-7, "gamma": 1.0}]))
        proc = cli_process(["simulate", "--init", str(init), "--dt", "1e-3", "--steps", "10",
                            "--out", str(tmp_path / "t.csv")], tmp_path)
        assert proc.returncode == 2 and "aborted" in proc.stderr

    def test_failing_check_exits_three(self, tmp_path):
        prelude = ("from goldcalc import verify\n"
                   "failing = verify._bounded('stated bound', ('worst 2.00e-09', 2e-9, 1e-9))\n"
                   "verify._SUITES['ring'] = lambda rng: [failing]")
        proc = cli_process(["verify", "--suite", "ring"], tmp_path, prelude)
        assert proc.returncode == 3
        assert proc.stdout.splitlines() == ["[FAIL] stated bound  worst 2.00e-09 (bound 1e-09)",
                                            "0/1 checks passed"]

    def test_whole_stdout_through_a_pipe(self, tmp_path):
        proc = cli_process(["seq", "--k", "1", "--n-max", "3000"], tmp_path)
        lines = proc.stdout.splitlines()
        f_prev, f = 0, 1
        for _ in range(2999):
            f_prev, f = f, f_prev + f
        assert proc.returncode == 0 and proc.stderr == ""
        assert len(lines) == 3000 and lines[-1] == str(f)  # F_3000

    @pytest.mark.parametrize("argv, code", [(["seq", "--k", "1", "--n-max", "3"], 0),
                                            (["seq", "--k", "1"], 1)])
    def test_collector_off_and_heap_frozen_at_exit(self, tmp_path, argv, code):
        proc = cli_process(argv, tmp_path, _AT_EXIT)
        assert proc.returncode == code
        enabled, frozen = json.loads(proc.stderr.splitlines()[-1])
        assert not enabled and frozen > 0

    def test_in_process_main_leaves_the_collector_as_it_was(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert before[0]
        assert run_cli(["seq", "--k", "1", "--n-max", "3"]) == 0
        assert run_cli(["seq", "--k", "1"]) == 1
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv, first_line", [
        (["seq", "--k", "1", "--n-max", "20000"], b"1\n"),  # fails mid-stream, on a full pipe
        (["verify", "--suite", "ring"], None),  # fails at the flush on the way out
    ])
    def test_closed_stdout_ends_quietly_with_status_one(self, tmp_path, argv, first_line):
        with subprocess.Popen([sys.executable, "-m", "goldcalc.cli", *argv], cwd=tmp_path,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as proc:
            if first_line is not None:
                assert proc.stdout.readline() == first_line
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
        assert project["scripts"]["goldcalc"] == "goldcalc.cli:run"


def _ring(n: int) -> dynamics.VortexState:
    r = dynamics.GEOMETRIC_MEAN_RADIUS
    return dynamics.VortexState(tuple(r * cmath.exp(2j * math.pi * i / n) for i in range(n)),
                                (1.0,) * n)


def cyclic_garbage_of(work) -> int:
    """The unreachable objects in cycles that work() leaves, with the collector
    off while it runs."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    """The premise of `cli.run()` turning the collector off: a command's work
    leaves no garbage in reference cycles, so memory stays bounded without
    it.  (`cli.main`'s argparse parser leaves 263 objects in cycles, once per
    process.)"""

    @pytest.mark.parametrize("state, steps", [
        (dynamics.VortexState((1.1 + 0j, -1.2 + 0.05j), (1.0, 0.5)), 10**3),
        (dynamics.VortexState((1.1 + 0j, -1.2 + 0.05j), (1.0, 0.5)), 10**4),
        (_ring(16), 10**2),
        (_ring(16), 10**3),
    ])
    def test_integrate_and_write(self, tmp_path, state, steps):
        out = tmp_path / "t.csv"
        assert cyclic_garbage_of(lambda: dynamics.integrate(
            state, dynamics.IntegratorConfig(1e-3, steps)).to_csv(out)) == 0
        assert out.stat().st_size

    @pytest.mark.parametrize("size", [50, 200])
    def test_field_grid_and_write(self, tmp_path, size):
        out = tmp_path / "f.csv"
        assert cyclic_garbage_of(lambda: hydro.field_grid(
            kernel.Annulus(1), [(1.1 + 0.1j, 1.0)], (size, size)).to_csv(out)) == 0
        assert out.stat().st_size

    def test_every_verify_suite(self):
        results = []
        assert cyclic_garbage_of(lambda: results.extend(verify.run_suite("all"))) == 0
        assert results and all(r.passed for r in results)

