"""Tests of the benchmark itself: its contract, its gates and its tracer.

The end-to-end tests run bench/run.py in its reduced-size mode, which keeps
every operation small; they check the shape of the output, not its speed.
"""

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gates  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {section: {m["name"]: m["unit"] for m in SPEC[section]}
         for section in ("end_to_end", "per_layer")}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# --------------------------------------------------------------------------
# contract

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["field", "simulate", "verify"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    budget = (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 5)
    assert budget < 3420


def test_every_per_layer_metric_is_mapped_to_what_it_moves():
    moves = json.loads((BENCH / "layers.json").read_text())["moves"]
    assert set(moves) == set(UNITS["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    for targets in moves.values():
        for metric, workload in targets:
            assert metric in UNITS["end_to_end"] and workload in workloads


# --------------------------------------------------------------------------
# every workload, reduced size

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["field", "simulate", "verify"])
def test_reduced_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--reduced")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = UNITS["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    assert len(failed) == result["failed"]
    # only the k = 20 probe may fail, and it runs only on the field workload
    assert all(line.startswith("FAILED field_k20") for line in failed)
    if trace:
        metrics = result["metrics"]
        steps = {"field": (20, 4), "simulate": (40, 8), "verify": (20, 4)}[workload]
        assert metrics["dynamics.rhs_calls.n2"]["value"] == 4 * steps[0] + 1
        assert metrics["dynamics.rhs_calls.ring16"]["value"] == 4 * steps[1] + 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "field", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_end_to_end_timings_are_divided_by_the_host_slowdown():
    import run

    op = run.Op("setup", [], lambda rc, so, se: gates.passed())
    results = [run.Result(op, wall, 30.0, gates.passed(1), "1", slowdown=slowdown)
               for wall, slowdown in ((0.1, 1.0), (0.2, 2.0), (0.3, 3.0))]
    values, samples = run.end_to_end([results], 3, 0)
    assert values["setup_s"] == pytest.approx(0.1) and samples["setup_s"] == 3
    raw, _ = run.end_to_end([results], 3, 0, wall=lambda r: r.wall)
    assert raw["setup_s"] == pytest.approx(0.2)
    assert run.calibrate() > 0


# --------------------------------------------------------------------------
# gates

def _field_csv(path, rows):
    path.write_text("x,y,psi,u,v\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                              for row in rows))


def _reference_rows(z0, gamma, k):
    r = np.linspace(1.05, gates.PHI ** (k / 2) - 0.05, 12)
    z = r * np.exp(1j * np.linspace(0.3, 5.9, 12))
    vel = gates.ladder_velocity(z, z0, gamma, k)
    return np.column_stack([z.real, z.imag, np.zeros(12), vel.real, -vel.imag])


BOUNDARY_OK = "boundary psi std (inner): 1.0e-16\nboundary psi std (outer): 2.0e-16\n"


def test_field_gate_accepts_reference_rows(tmp_path):
    z0, gamma = 1.1 + 0.25j, -0.8
    for k in (1, 4):
        path = tmp_path / f"k{k}.csv"
        _field_csv(path, _reference_rows(z0, gamma, k))
        verdict = gates.check_field(0, BOUNDARY_OK, "", path, z0, gamma, k, 5)
        assert not verdict.failed, verdict.reason
        assert verdict.count == 12


def test_field_gate_rejects_nan_csv_from_exit_zero_run(tmp_path):
    z0, gamma = 1.1 + 0.25j, 1.0
    rows = _reference_rows(z0, gamma, 4)
    rows[3, 2] = math.nan
    path = tmp_path / "nan.csv"
    _field_csv(path, rows)
    verdict = gates.check_field(0, BOUNDARY_OK, "", path, z0, gamma, 4, 5)
    assert verdict.failed and "non-finite" in verdict.reason


def test_field_gate_rejects_wrong_velocity(tmp_path):
    z0, gamma = 1.1 + 0.25j, 1.0
    rows = _reference_rows(z0, gamma, 4)
    rows[5, 3] += 1e-5
    path = tmp_path / "off.csv"
    _field_csv(path, rows)
    verdict = gates.check_field(0, BOUNDARY_OK, "", path, z0, gamma, 4, 5)
    assert verdict.failed and verdict.wrong


def test_probe_passes_on_error_exit_and_fails_on_nan(tmp_path):
    path = tmp_path / "absent.csv"
    assert not gates.check_field(2, "", "error: overflow", path, 3 + 0j, 1.0, 20, 1,
                                 probe=True).failed
    assert gates.check_field(2, "", "error: overflow", path, 3 + 0j, 1.0, 20, 1).failed
    _field_csv(path, [[3.0, 1.0, math.nan, math.nan, math.nan]])
    assert gates.check_field(0, BOUNDARY_OK, "", path, 3 + 0j, 1.0, 20, 1, probe=True).failed


def _ring_csv(path, n, steps, dt, rate):
    radius = gates.PHI ** 0.25
    lines = ["step,t,vortex_index,x,y"]
    for s in range(steps + 1):
        t = s * dt
        for i in range(n):
            z = complex(radius * np.exp(1j * (0.1 + 2 * math.pi * i / n + rate * t)))
            lines.append(f"{s},{t!r},{i},{z.real!r},{z.imag!r}")
    path.write_text("\n".join(lines) + "\n")


def test_ring_gate_accepts_closed_form_and_rejects_rate_off_by_1e_4(tmp_path):
    n, steps, dt = 16, 50, 1e-3
    rate = gates.ring_rate(n, 1.0)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _ring_csv(good, n, steps, dt, rate)
    _ring_csv(bad, n, steps, dt, rate * (1 + 1e-4))
    assert not gates.check_ring(0, "", good, n, 1.0, steps).failed
    verdict = gates.check_ring(0, "", bad, n, 1.0, steps)
    assert verdict.failed and verdict.wrong


def test_verify_gate_rejects_fail_line():
    ok = "[PASS] a  worst 1e-16\n[PASS] b\n2/2 checks passed\n"
    bad = "[PASS] a  worst 1e-16\n[FAIL] b  worst 3e-2\n1/2 checks passed\n"
    assert not gates.check_verify(0, ok).failed
    verdict = gates.check_verify(3, bad)
    assert verdict.failed and verdict.wrong


# --------------------------------------------------------------------------
# tracer

def test_tracer_counts_rhs_calls_and_restores_functions():
    from goldcalc import dynamics

    original = dynamics.n_vortex_rhs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = dynamics.VortexState((1.1 + 0.1j, -1.15 + 0.2j), (1.0, 0.5))
        dynamics.integrate(state, dynamics.IntegratorConfig(1e-3, 5))
    finally:
        tracer.uninstall()
    assert dynamics.n_vortex_rhs is original
    summary = tracing.summarize(tracer.names, tracer.spans)
    assert summary["dynamics.n_vortex_rhs"]["count"] == 4 * 5 + 1
    integrate = summary["dynamics.integrate"]
    assert integrate["count"] == 1 and integrate["top"] == integrate["total"]
    assert integrate["self"] == pytest.approx(
        integrate["total"] - summary["dynamics.n_vortex_rhs"]["total"])


def test_traced_child_without_spans_fails_and_leaves_no_stale_spans(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "spans.json").write_text('{"left": "by an earlier child"}')
    monkeypatch.setattr(run, "run_child", lambda cmd, deadline, calibrations: (1, 0.1, 10.0, "", "killed"))
    op = run.Op("setup", ["seq", "--k", "1", "--n-max", "1"], lambda rc, so, se: gates.passed())
    log = io.StringIO()
    result = run.run_op(op, 0.0, log, "r")
    assert result.verdict.failed and not result.traced
    assert not (tmp_path / "spans.json").exists()
    assert log.getvalue() == ""


def test_tracer_refuses_a_name_the_module_lacks(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "goldcalc.dynamics", ("no_such_function",))
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()
