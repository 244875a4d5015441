"""Acceptance suite: every check of `goldcalc verify`, one test per suite.

`goldcalc.verify` is the one registry of the paper's criteria; each check
keeps its inputs, bound and name there, and a measured check reports its
value against that bound.  Run with `pytest tests/test_acceptance.py -v -s`
to see one `criterion <suite> NN` line per check.  The seed is the CLI's default, so the checks are the ones
`goldcalc verify --suite all` runs.
"""

import pytest

from goldcalc import dynamics, hydro, verify
from goldcalc.cli import build_parser
from goldcalc.ring import fib_divisor

SEED = build_parser().parse_args(["verify"]).seed


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_suite(suite):
    results = verify.run_suite(suite, seed=SEED)
    for num, r in enumerate(results, 1):
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {suite} {num:02d}: {status}  {r.name}  {r.detail}".rstrip())
    failed = [f"{r.name} ({r.detail})" for r in results if not r.passed]
    assert not failed, "failed checks: " + "; ".join(failed)
    assert all(r.value < r.bound for r in results if r.bound is not None)


def test_bounded_check_is_strict_and_reports_the_nearest_quantity():
    r = verify._bounded("c", ("a 1.0e-12", 1e-12, 1e-10), ("b 5.0e-9", 5e-9, 1e-8))
    assert r.passed and (r.value, r.bound) == (5e-9, 1e-8)
    assert r.detail == "a 1.0e-12 (bound 1e-10), b 5.0e-9 (bound 1e-08)"
    assert not verify._bounded("c", ("a", 1e-10, 1e-10)).passed
    r = verify._bounded("c", ("a", 1e-12, 1e-10), ("b", float("nan"), 1e-8))
    assert not r.passed and r.bound == 1e-8
    assert not verify._bounded("c", ("a", 1e-12, 1e-10), ok=False).passed
    assert verify.run_suite("ring")[1].value is None  # exact checks carry no bound


def test_oracles_are_called_once_per_point_set(monkeypatch):
    # the ladder velocity and the Green function take each check's points as one
    # array (301 and 130 calls when they took one point at a time), and each
    # Fibonacci divisor is computed once (7,521 calls on 469 distinct (n, k))
    calls = {"vortex_velocity": 0, "green_function": 0}
    for module, name in ((hydro, "vortex_velocity"), (dynamics, "green_function")):
        def counted(*args, fn=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    fib_divisor.cache_clear()
    assert all(r.passed for r in verify.run_suite("all", SEED))
    info = fib_divisor.cache_info()
    assert calls["vortex_velocity"] <= 20 and calls["green_function"] <= 4
    assert info.misses == info.currsize <= 469  # nothing evicted: one miss per (n, k)


def test_dynamics_suite_takes_few_exact_pair_checks(monkeypatch):
    # the RK4 runs take the exact pair distances only where the running bound
    # from the last ones runs out (32 calls; 20,011 with one per step)
    calls = []
    check = dynamics._check_pairs
    monkeypatch.setattr(dynamics, "_check_pairs", lambda zs, step: calls.append(step) or check(zs, step))
    assert all(r.passed for r in verify.run_suite("dynamics", SEED))
    assert len(calls) <= 100
