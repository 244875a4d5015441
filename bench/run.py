#!/usr/bin/env python3
"""Benchmark of the goldcalc CLI.

    python3 bench/run.py --workload {field,simulate,verify} --seed N \\
        --seconds S --trace {0,1} [--reduced]

The benchmark runs `python -m goldcalc.cli` from this working tree (src/ on
PYTHONPATH), one child process at a time: a closed loop with one client and
no threads.  A run repeats rounds of CLI operations, and stops before a
round that would end past --seconds.  Inputs come from --seed; the CLI sees
only the generated files and flags.  Every operation passes through a
correctness gate (gates.py) or counts as failed.

Every workload runs all three commands each round.  The command the workload
is named after runs at full size; the others run once as small smoke
operations, so that every end-to-end metric is measured on every workload.
The readable output gives each operation's share of the wall time.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with no
tracing.  Each timing there is the operation's wall time divided by the
host's slowdown while it ran, measured by calibrate() (see there); the
readable lines also give the unscaled medians.  --trace 1 runs each
operation twice, untraced and then under tracing.py, and prints the per-layer metrics from the traced copies, the
scalar probes (probes.py) and the tracing overhead.  Spans go to
.bench_out/spans-<workload>.jsonl.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--reduced shrinks every operation so that the benchmark's own tests can run
every workload in seconds; its numbers are not comparable to a full run.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gates
import probes
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = OUT / "work"

PHI = (1 + math.sqrt(5)) / 2
WORKLOADS = ("field", "simulate", "verify")
SUITES = ("ring", "calculus", "functions", "hydro", "dynamics")
SETUP_CALLS_PER_ROUND = 3
DT = 1e-3
RUN_LIMIT_S = 150.0    # no round starts, and every child is killed, past this
# What calibrate() returns on an idle core of the host the bounds were set on
# (Intel Xeon, Python 3.11); end-to-end timings are scaled to this speed.
CALIBRATION_S = 0.0044
CALIBRATE_EVERY_S = 0.5  # of a child's running time

THREAD_ENV = {name: "1" for name in (
    "GOLDCALC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


@dataclass(frozen=True)
class Sizes:
    grid: int             # field grid side at full size
    smoke_grid: int
    probe_grid: int       # the k = 20 probe
    n2_steps: int
    smoke_n2_steps: int
    ring_steps: int
    smoke_ring_steps: int
    suite: str
    smoke_suite: str


FULL = Sizes(200, 48, 20, 10_000, 500, 500, 30, "all", "hydro")
REDUCED = Sizes(24, 12, 20, 40, 20, 8, 4, "ring", "ring")


# --------------------------------------------------------------------------
# inputs

@dataclass(frozen=True)
class Inputs:
    fields: dict          # k -> (z0, gamma)
    pair: tuple           # (positions, circulations)
    ring: tuple
    seed: int


def make_inputs(seed: int) -> Inputs:
    """Seeded field vortices, a free N = 2 pair and a 16-vortex ring phase."""
    rnd = random.Random(seed)
    fields = {}
    for k in (1, 4, 20):
        width = PHI ** (k / 2) - 1
        z0 = cmath.rect(1 + width * rnd.uniform(0.2, 0.8), rnd.uniform(0, 2 * math.pi))
        fields[k] = (z0, rnd.choice((-1.0, 1.0)) * rnd.uniform(0.5, 1.5))
    # both vortices at least 0.06 from either wall (sqrt(phi) = 1.272) and
    # at least pi/3 apart in angle; same-sign circulations co-rotate
    th = rnd.uniform(0, 2 * math.pi)
    positions = [cmath.rect(rnd.uniform(1.06, 1.21), th),
                 cmath.rect(rnd.uniform(1.06, 1.21), th + rnd.uniform(math.pi / 3, 5 * math.pi / 3))]
    sign = rnd.choice((-1.0, 1.0))
    pair = (positions, [sign * rnd.uniform(0.5, 1.5), sign * rnd.uniform(0.5, 1.5)])
    phase = rnd.uniform(0, 2 * math.pi / 16)
    ring = ([cmath.rect(PHI**0.25, phase + 2 * math.pi * i / 16) for i in range(16)], [1.0] * 16)
    return Inputs(fields, pair, ring, seed)


def _write_init(path: Path, vortices) -> None:
    positions, gammas = vortices
    path.write_text(json.dumps([{"x": z.real, "y": z.imag, "gamma": g}
                                for z, g in zip(positions, gammas)]))


# --------------------------------------------------------------------------
# operations

@dataclass
class Op:
    label: str            # setup, field_k1, field_k4, field_k20, sim_n2, sim_ring16, verify
    argv: list
    check: Callable       # (rc, stdout, stderr) -> gates.Verdict
    steps: int = 0
    out: Path | None = None


_CAL_Z = 1.1 * cmath.exp(0.3j) ** np.arange(4096)


def calibrate() -> float:
    """Seconds per pass of a fixed pure-Python and numpy computation.

    The host is shared, and its speed drifts by up to 1.7x, within seconds
    and between phases that last minutes; every CLI call slows with it, CPU
    time as much as wall time.  So calibrate() runs in the benchmark process
    before and after every untraced operation, and every CALIBRATE_EVERY_S
    while the operation's child is stopped.  The mean of those times over
    CALIBRATION_S is the host's slowdown during the operation, and dividing
    the wall time by it cancels most of the drift.  The median of three
    passes keeps a single interrupted pass from reading as a slow host.
    """
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        z, w, acc = 1.1 + 0.2j, -0.3 + 1.15j, 0j
        for _ in range(4_500):
            d = z - w
            acc += cmath.log(abs(d)) + d / (abs(d) ** 2 + 1.0)
            z, w = z * (1 + 1e-9j), w * (1 - 1e-9j)
        a = _CAL_Z
        for _ in range(50):
            a = np.log(np.abs(a) + 1.0) * a / (np.abs(a) + 1.0) + _CAL_Z
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


@dataclass
class Result:
    op: Op
    wall: float
    rss_mb: float
    verdict: object
    stdout: str
    summary: dict = field(default_factory=dict)   # span name -> count/total/self/top
    traced: bool = False  # spans were read back from a traced child
    slowdown: float = 1.0  # host slowdown during the call, from calibrate()
    main_s: float = 0.0
    traj_peak_mb: float = 0.0


def plan_round(workload: str, inputs: Inputs, sizes: Sizes) -> list[Op]:
    """The operations of one round, in order; set-up calls come first."""
    seed = inputs.seed
    ops = [Op("setup", ["seq", "--k", "1", "--n-max", "1"],
              lambda rc, out, err: gates.check_setup(rc, out))
           for _ in range(SETUP_CALLS_PER_ROUND)]

    def field_op(k: int, grid: int, probe: bool = False) -> Op:
        z0, gamma = inputs.fields[k]
        out = WORK / f"field_k{k}.csv"
        argv = ["field", f"--z0={z0.real!r}{z0.imag:+}i", f"--gamma={gamma!r}", f"--k={k}",
                f"--grid={grid}x{grid}", f"--out={out}"]
        return Op(f"field_k{k}", argv, lambda rc, so, se: gates.check_field(
            rc, so, se, out, z0, gamma, k, seed, probe), out=out)

    def sim_op(label: str, vortices, steps: int, ring: bool) -> Op:
        init, out = WORK / f"{label}.json", WORK / f"{label}.csv"
        _write_init(init, vortices)
        positions, gammas = vortices
        if ring:
            check = lambda rc, so, se: gates.check_ring(rc, se, out, len(positions),
                                                        gammas[0], steps)
        else:
            check = lambda rc, so, se: gates.check_pair(rc, se, out, positions, gammas, steps)
        argv = ["simulate", f"--init={init}", f"--dt={DT!r}", f"--steps={steps}",
                f"--out={out}"]
        return Op(label, argv, check, steps=steps, out=out)

    def verify_op(suite: str) -> Op:
        return Op("verify", ["verify", f"--suite={suite}", f"--seed={seed}"],
                  lambda rc, so, se: gates.check_verify(rc, so))

    if workload == "field":
        ops += [field_op(1, sizes.grid), field_op(4, sizes.grid),
                field_op(20, sizes.probe_grid, probe=True)]
    else:
        ops += [field_op(1, sizes.smoke_grid), field_op(4, sizes.smoke_grid)]
    if workload == "simulate":
        ops += [sim_op("sim_n2", inputs.pair, sizes.n2_steps, ring=False),
                sim_op("sim_ring16", inputs.ring, sizes.ring_steps, ring=True)]
    else:
        ops += [sim_op("sim_n2", inputs.pair, sizes.smoke_n2_steps, ring=False),
                sim_op("sim_ring16", inputs.ring, sizes.smoke_ring_steps, ring=True)]
    ops.append(verify_op(sizes.suite if workload == "verify" else sizes.smoke_suite))
    return ops


def child_env() -> dict:
    """A scrubbed environment: this tree's src/ only, one thread everywhere."""
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL") if k in os.environ}
    env.update(THREAD_ENV)
    env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1", PYTHONHASHSEED="0")
    return env


def run_child(cmd: list, deadline: float,
              calibrations: list | None = None) -> tuple[int, float, float, str, str]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout, stderr).

    With a `calibrations` list, the child is stopped after every
    CALIBRATE_EVERY_S seconds of running, calibrate() runs while it is
    stopped and its time is appended to the list, and the stopped time is not
    counted in the wall time.  The child is killed once time.monotonic()
    passes `deadline`.
    """
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=WORK)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        stopped = 0.0
        try:
            signal.alarm(max(1, math.ceil(deadline - time.monotonic())))
            if calibrations is None:
                _, status, usage = os.wait4(proc.pid, 0)
            else:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    exited = select.poll()
                    exited.register(pidfd, select.POLLIN)
                    while True:
                        if not exited.poll(CALIBRATE_EVERY_S * 1000):
                            os.kill(proc.pid, signal.SIGSTOP)
                        # reports the stop, or the exit if the child ended first
                        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):
                            break
                        pause = time.perf_counter()
                        calibrations.append(calibrate())
                        os.kill(proc.pid, signal.SIGCONT)
                        stopped += time.perf_counter() - pause
                finally:
                    os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start - stopped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def run_round(ops: list[Op], deadline: float) -> list[Result]:
    """Run untraced operations in order, each with the host slowdown around it."""
    results = []
    before = calibrate()
    for op in ops:
        calibrations = [before]
        r = run_op(op, deadline, calibrations=calibrations)
        before = calibrate()
        calibrations.append(before)
        r.slowdown = statistics.fmean(calibrations) / CALIBRATION_S
        results.append(r)
    return results


def run_op(op: Op, deadline: float, spans_log=None, run_id: str = "",
           flags: tuple = (), calibrations: list | None = None) -> Result:
    """Run and gate one operation.  With a `spans_log` the operation runs
    under tracing.py, and its spans are read back and appended to the log.
    With a `calibrations` list it is calibrated while it runs (run_child)."""
    spans_path = WORK / "spans.json"
    cmd = [sys.executable, "-m", "goldcalc.cli", *op.argv] if spans_log is None else [
        sys.executable, str(BENCH / "tracing.py"), str(spans_path), *flags, "--", *op.argv]
    spans_path.unlink(missing_ok=True)
    rc, wall, rss, stdout, stderr = run_child(cmd, deadline, calibrations)
    result = Result(op, wall, rss, op.check(rc, stdout, stderr), stdout)
    if spans_log is not None:
        if not spans_path.exists():
            # the traced child died before writing its spans
            result.verdict = gates.failure(f"traced {op.label} exited {rc} and wrote "
                                           f"no spans: {stderr.strip()[-200:]}")
            return result
        doc = json.loads(spans_path.read_text())
        _check_source(doc["goldcalc"])
        result.traced = True
        result.summary = tracing.summarize(doc["names"], doc["spans"])
        result.main_s = doc["main_s"]
        result.traj_peak_mb = (doc["traj_peak_bytes"] or 0) / 2**20
        spans_log.write(json.dumps({"run_id": run_id, "label": op.label, **doc},
                                   separators=(",", ":")) + "\n")
    return result


def _check_source(goldcalc_file: str) -> None:
    if not Path(goldcalc_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"goldcalc imported from {goldcalc_file}, not from {SRC}")


# --------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def scaled_wall(r: Result) -> float:
    """The operation's wall time at the calibration host's idle speed."""
    return r.wall / r.slowdown


def end_to_end(rounds: list[list[Result]], attempted: int, failed: int,
               wall: Callable = scaled_wall) -> tuple[dict, dict]:
    """End-to-end values and, for each median, its sample count."""
    every = [r for rnd in rounds for r in rnd]
    ok = lambda r: not r.verdict.failed
    labelled = lambda label: [r for r in every if r.op.label == label]
    passed = lambda label: [r for r in labelled(label) if ok(r)]
    # plan_round puts each k = 1 call just before its k = 4 partner
    field_rates = [(k1.verdict.count + k4.verdict.count) / (wall(k1) + wall(k4))
                   for k1, k4 in zip(labelled("field_k1"), labelled("field_k4"))
                   if ok(k1) and ok(k4)]
    samples = {
        "setup_s": [wall(r) for r in passed("setup")],
        "field_points_per_s": field_rates,
        "sim_n2_steps_per_s": [r.op.steps / wall(r) for r in passed("sim_n2")],
        "sim_ring16_steps_per_s": [r.op.steps / wall(r) for r in passed("sim_ring16")],
        "verify_s": [wall(r) for r in passed("verify")],
    }
    values = {name: _median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = max(r.rss_mb for r in every)
    values["ok_share"] = (attempted - failed) / attempted
    return values, {name: len(v) for name, v in samples.items()}


def wall_shares(rounds: list[list[Result]]) -> dict[str, float]:
    """Each operation label's share of the untraced rounds' wall time."""
    walls: dict[str, float] = {}
    for r in (r for rnd in rounds for r in rnd):
        walls[r.op.label] = walls.get(r.op.label, 0.0) + r.wall
    total = sum(walls.values())
    return {label: wall / total for label, wall in walls.items()}


def layer_values(traced: list[Result], untraced: list[Result]) -> dict:
    """Per-layer numbers of one round, from its traced operations."""
    by = {}
    for r in traced:
        by.setdefault(r.op.label, r)

    def span(label: str, name: str, key: str = "total") -> float:
        return by[label].summary.get(name, {}).get(key, 0.0) if label in by else 0.0

    v = {}
    for k in ("k1", "k4"):
        label = f"field_{k}"
        grid_s = span(label, "hydro.field_grid")
        points = by[label].verdict.count
        v[f"hydro.field_grid_s.{k}"] = grid_s
        v[f"hydro.points_kept.{k}"] = points
        v[f"hydro.us_per_point.{k}"] = grid_s / points * 1e6 if points else 0.0
    for n in ("n2", "ring16"):
        label = f"sim_{n}"
        v[f"dynamics.integrate_s.{n}"] = span(label, "dynamics.integrate")
        v[f"dynamics.rhs_calls.{n}"] = span(label, "dynamics.n_vortex_rhs", "count")
        v[f"dynamics.rhs_self_s.{n}"] = span(label, "dynamics.n_vortex_rhs", "self")
    v["dynamics.step_overhead_us.n2"] = (
        span("sim_n2", "dynamics.integrate", "self") / by["sim_n2"].op.steps * 1e6)
    for suite in SUITES:
        v[f"verify.suite_s.{suite}"] = span("verify", f"verify.run_suite:{suite}")
    v["verify.checks_failed"] = len(gates.fail_lines(by["verify"].stdout))
    fields, sims = ("field_k1", "field_k4"), ("sim_n2", "sim_ring16")
    v["cli.field_write_s"] = sum(span(f, "hydro.FlowGrid.to_csv") for f in fields)
    v["cli.field_bytes"] = sum(_size(by[f].op.out) for f in fields)
    v["cli.boundary_check_s"] = sum(span(f, "hydro.stream_function", "top") for f in fields)
    v["cli.sim_write_s"] = sum(span(s, "dynamics.Trajectory.to_csv") for s in sims)
    v["cli.sim_bytes"] = sum(_size(by[s].op.out) for s in sims)
    v["cli.self_s"] = sum(r.main_s - sum(s["top"] for s in r.summary.values())
                          for r in traced)
    v["trace.overhead_s"] = sum(t.wall - u.wall for t, u in zip(traced, untraced))
    return v


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def image_terms_per_point() -> int:
    """Image-ladder terms per point, computed from AnnulusSpec (not measured)."""
    from goldcalc import hydro

    return 4 * hydro.AnnulusSpec().truncation + 1


# --------------------------------------------------------------------------
# environment and output

def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": _commit()}


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


# --------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="shrink every operation (for the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into an exception, so that run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "goldcalc" / "cli.py").is_file():
        print(f"bench: no goldcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import goldcalc

    _check_source(goldcalc.__file__)
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    sizes = REDUCED if args.reduced else FULL
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))

    ops = plan_round(args.workload, make_inputs(args.seed), sizes)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warm = run_op(ops[0], deadline)    # fills __pycache__ so set-up is timed warm
    if warm.verdict.failed:
        print(f"bench: warm-up call failed: {warm.verdict.reason}", file=sys.stderr)
        return 2

    results: list[Result] = []
    rounds: list[list[Result]] = []
    layer_rounds: list[dict] = []
    extra: dict[str, float] = {}
    spans_log = open(OUT / f"spans-{args.workload}.jsonl", "w") if args.trace else None
    try:
        if args.trace:
            spans_log.write(json.dumps({"env": env, "workload": args.workload,
                                        "seed": args.seed}) + "\n")
            extra.update(probes.run_probes(args.reduced))
            extra["hydro.image_terms_per_point"] = image_terms_per_point()
            n2 = next(op for op in ops if op.label == "sim_n2")
            peak = run_op(n2, deadline, spans_log,
                          f"s{args.seed}/tracemalloc/sim_n2", flags=("--tracemalloc",))
            results.append(peak)
            if peak.traced:
                extra["dynamics.traj_peak_mb.n2"] = peak.traj_peak_mb
        while True:
            round_start = time.monotonic()
            plain = run_round(ops, deadline)
            rounds.append(plain)
            results += plain
            if args.trace:
                # one traced copy of each distinct operation
                first = {}
                for op, r in zip(ops, plain):
                    if op.label != "setup":
                        first.setdefault(op.label, (op, r))
                traced = [run_op(op, deadline, spans_log,
                                 f"s{args.seed}/round{len(rounds)}/{op.label}")
                          for op, _ in first.values()]
                results += traced
                if all(r.traced for r in traced):
                    layer_rounds.append(layer_values(traced, [r for _, r in first.values()]))
            # stop where a round as long as the last would end past --seconds
            now = time.monotonic()
            last = now - round_start
            if now - start + last > args.seconds or now + last > deadline:
                break
    finally:
        if spans_log is not None:
            spans_log.close()

    attempted = len(results)
    failed = sum(r.verdict.failed for r in results)
    correct = not any(r.verdict.wrong for r in results)
    for r in results:
        if r.verdict.failed:
            print(f"FAILED {r.op.label}: {r.verdict.reason}")
    if args.trace:
        if not layer_rounds:
            print("bench: no round has spans from every traced operation", file=sys.stderr)
            return 1
        values = {name: _median(lr[name] for lr in layer_rounds) for name in layer_rounds[0]}
        values.update(extra)
        samples = {name: len(layer_rounds) for name in layer_rounds[0]}
    else:
        values, samples = end_to_end(rounds, attempted, failed)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, correct={correct}")
    print("share of untraced wall time: " + ", ".join(
        f"{label} {share:.1%}" for label, share in wall_shares(rounds).items()))
    if not args.trace:
        raw, _ = end_to_end(rounds, attempted, failed, wall=lambda r: r.wall)
        slowdowns = [r.slowdown for rnd in rounds for r in rnd]
        print(f"host slowdown from calibrate(): median {_median(slowdowns):.3f}, "
              f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    for name in units:
        note = f"  (median of {samples[name]})" if name in samples else ""
        if not args.trace and name in samples:
            note += f", unscaled {raw[name]:.6g}"
        print(f"  {name} = {values[name]:.6g} {units[name]}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
