"""Correctness gates for the outputs of goldcalc CLI operations.

Each gate turns one operation's exit code, printed summary and output file
into a Verdict.  A verdict separates two ways to fail:

* ``failed``: the operation did not deliver a usable result (unexpected exit
  code, missing or unparseable output, non-finite values, wrong row count).
* ``wrong``: the operation delivered finite output that disagrees with an
  independent reference, or the program reported a failed check itself.

Every wrong verdict is also failed.  The references are written here, not
taken from the program: the field velocity is a direct numpy sum of both
image ladders, and the ring rate is the closed form (N - 1) Gamma /
(4 pi sqrt(phi)).  The only library calls are the ones the gates are meant to
cross-check against (``hydro.velocity_via_ln_phi``) and the conserved
quantity of the run (``dynamics.hamiltonian``); both run outside any timed
region.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHI = (1 + math.sqrt(5)) / 2

BOUNDARY_STD_MAX = 1e-6      # the threshold `goldcalc verify` uses for the walls
VELOCITY_TOL = 1e-7          # field rows against the reference ladder sum
HAMILTONIAN_DRIFT_MAX = 1e-6
RING_RATE_TOL = 1e-7
FIELD_SAMPLE_ROWS = 64
LN_PHI_SAMPLE_ROWS = 16
FIELD_HEADER = ["x", "y", "psi", "u", "v"]
TRAJ_HEADER = ["step", "t", "vortex_index", "x", "y"]

_BOUNDARY_RE = re.compile(r"boundary psi std \((inner|outer)\): (\S+)")


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool = False
    reason: str = ""
    count: int = 0     # rows kept (field) or trajectory rows (simulate)


def passed(count: int = 0) -> Verdict:
    return Verdict(False, False, "", count)


def failure(reason: str) -> Verdict:
    return Verdict(True, False, reason)


def mismatch(reason: str) -> Verdict:
    return Verdict(True, True, reason)


def _read_csv(path: Path, header: list[str]) -> np.ndarray | str:
    """Rows of a numeric CSV with the given header, or a reason string."""
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            if first.split(",") != header:
                return f"{path.name}: header {first!r}, expected {','.join(header)!r}"
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return f"{path.name}: cannot read: {exc}"
    if data.size and data.shape[1] != len(header):
        return f"{path.name}: {data.shape[1]} columns, expected {len(header)}"
    return data.reshape(-1, len(header))


# --------------------------------------------------------------------------
# field

def ladder_depth(k: int) -> int:
    """Ladder half-length whose neglected terms fall below 1e-40 relative."""
    return math.ceil(40 / (k * math.log10(PHI))) + 1


def ladder_velocity(z: np.ndarray, z0: complex, gamma: float, k: int) -> np.ndarray:
    """Conjugate velocity u - i v at points z from both image ladders.

    The first ladder z0 phi^(k n) runs over n in [-N, N] and the second
    phi^(k n) / conj(z0) over n in [1 - N, N], the pairing whose limit is the
    annulus flow.  N is chosen from a tolerance, not from the program's
    truncation, so this is the converged sum.
    """
    n = ladder_depth(k)
    q = PHI**k
    fam1 = z0 * q ** np.arange(-n, n + 1, dtype=float)
    fam2 = q ** np.arange(1 - n, n + 1, dtype=float) / np.conj(z0)
    z = np.asarray(z, dtype=complex)[:, None]
    total = np.sum(1.0 / (z - fam1), axis=1) - np.sum(1.0 / (z - fam2), axis=1)
    return gamma / (2j * math.pi) * total


def _velocity_error(rows: np.ndarray, reference: np.ndarray) -> float:
    got = rows[:, 3] - 1j * rows[:, 4]
    return float(np.max(np.abs(got - reference) / np.maximum(1.0, np.abs(reference))))


def check_field(rc: int, stdout: str, stderr: str, csv_path: Path, z0: complex,
                gamma: float, k: int, sample_seed: int, probe: bool = False) -> Verdict:
    """Gate for `goldcalc field`.

    A probe (an input the program may legitimately refuse) also passes when
    it exits 1 or 2 with an error message; an exit-0 probe gets the full gate.
    """
    if probe and rc in (1, 2) and stderr.strip():
        return passed()
    if rc != 0:
        return failure(f"field k={k} exited {rc}: {stderr.strip()[-200:]}")
    data = _read_csv(csv_path, FIELD_HEADER)
    if isinstance(data, str):
        return failure(data)
    if len(data) == 0:
        return failure(f"field k={k} wrote no samples")
    if not np.all(np.isfinite(data)):
        bad = int(np.sum(~np.all(np.isfinite(data), axis=1)))
        return failure(f"field k={k} wrote {bad} non-finite rows of {len(data)} and exited 0")
    stds = {m.group(1): float(m.group(2)) for m in _BOUNDARY_RE.finditer(stdout)}
    if set(stds) != {"inner", "outer"}:
        return failure(f"field k={k} summary lacks boundary psi std lines")
    if not all(math.isfinite(s) for s in stds.values()):
        return failure(f"field k={k} boundary psi std not finite: {stds}")
    if max(stds.values()) >= BOUNDARY_STD_MAX:
        return mismatch(f"field k={k} boundary psi std {stds} >= {BOUNDARY_STD_MAX:g}")

    rng = np.random.default_rng([sample_seed, k])
    idx = rng.choice(len(data), size=min(FIELD_SAMPLE_ROWS, len(data)), replace=False)
    sample = data[idx]
    z = sample[:, 0] + 1j * sample[:, 1]
    err = _velocity_error(sample, ladder_velocity(z, z0, gamma, k))
    if err > VELOCITY_TOL:
        return mismatch(f"field k={k} velocity off the ladder sum by {err:.3g}")
    if k == 1:
        from goldcalc import hydro

        kappa = -gamma / (2 * math.pi)
        sub = sample[:LN_PHI_SAMPLE_ROWS]
        ref = np.array([hydro.velocity_via_ln_phi([(z0, kappa)], complex(x, y))
                        for x, y in sub[:, :2]])
        err = _velocity_error(sub, ref)
        if err > VELOCITY_TOL:
            return mismatch(f"field k=1 velocity off velocity_via_ln_phi by {err:.3g}")
    return passed(len(data))


# --------------------------------------------------------------------------
# simulate

def ring_rate(n: int, gamma: float) -> float:
    """Rotation rate of n identical vortices on the geometric-mean ring."""
    return (n - 1) * gamma / (4 * math.pi * math.sqrt(PHI))


def _trajectory(rc: int, stderr: str, csv_path: Path, n: int, steps: int):
    if rc != 0:
        return failure(f"simulate N={n} exited {rc}: {stderr.strip()[-200:]}")
    data = _read_csv(csv_path, TRAJ_HEADER)
    if isinstance(data, str):
        return failure(data)
    if len(data) != (steps + 1) * n:
        return failure(f"simulate N={n} wrote {len(data)} rows, expected {(steps + 1) * n}")
    if not np.all(np.isfinite(data)):
        return failure(f"simulate N={n} wrote non-finite rows and exited 0")
    order = np.lexsort((data[:, 2], data[:, 0]))
    data = data[order]
    if not np.array_equal(data[:, 2], np.tile(np.arange(n), steps + 1)):
        return failure(f"simulate N={n} rows do not cover every vortex at every step")
    return data


def check_ring(rc: int, stderr: str, csv_path: Path, n: int, gamma: float,
               steps: int) -> Verdict:
    """Gate for the identical-vortex ring: each vortex turns at the closed-form rate."""
    data = _trajectory(rc, stderr, csv_path, n, steps)
    if isinstance(data, Verdict):
        return data
    t = data[::n, 1]
    expected = ring_rate(n, gamma)
    for i in range(n):
        rows = data[i::n]
        angle = np.unwrap(np.arctan2(rows[:, 4], rows[:, 3]))
        rate = (angle[-1] - angle[0]) / (t[-1] - t[0])
        rel = abs(rate - expected) / abs(expected)
        if rel > RING_RATE_TOL:
            return mismatch(f"ring vortex {i} turns at {rate!r}, closed form "
                            f"{expected!r} (rel {rel:.3g})")
    return passed(len(data))


def check_pair(rc: int, stderr: str, csv_path: Path, positions: list[complex],
               gammas: list[float], steps: int) -> Verdict:
    """Gate for a free vortex run: the Hamiltonian is conserved."""
    n = len(positions)
    data = _trajectory(rc, stderr, csv_path, n, steps)
    if isinstance(data, Verdict):
        return data
    from goldcalc import dynamics

    start = data[:n, 3] + 1j * data[:n, 4]
    if np.max(np.abs(start - np.asarray(positions))) > 1e-12:
        return mismatch("simulate trajectory does not start at the initial positions")
    final = data[-n:, 3] + 1j * data[-n:, 4]
    h0 = dynamics.hamiltonian(dynamics.VortexState(tuple(positions), tuple(gammas)))
    h1 = dynamics.hamiltonian(dynamics.VortexState(tuple(complex(z) for z in final),
                                                   tuple(gammas)))
    drift = abs(h1 - h0) / abs(h0)
    if not drift < HAMILTONIAN_DRIFT_MAX:
        return mismatch(f"Hamiltonian drift {drift:.3g} >= {HAMILTONIAN_DRIFT_MAX:g}")
    return passed(len(data))


# --------------------------------------------------------------------------
# verify and set-up

def check_verify(rc: int, stdout: str) -> Verdict:
    fails = fail_lines(stdout)
    if fails:
        return mismatch(f"verify reported {len(fails)} FAIL lines: {fails[0][:120]}")
    if rc != 0:
        return failure(f"verify exited {rc}")
    m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    if not m or m.group(1) != m.group(2) or int(m.group(2)) == 0:
        return failure("verify printed no complete 'checks passed' summary")
    return passed(int(m.group(2)))


def fail_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("[FAIL]")]


def check_setup(rc: int, stdout: str) -> Verdict:
    if rc != 0:
        return failure(f"seq exited {rc}")
    if stdout.strip() != "1":
        return mismatch(f"seq --k 1 --n-max 1 printed {stdout.strip()[:40]!r}, expected '1'")
    return passed(1)
