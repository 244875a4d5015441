"""Acceptance suite: every check of `goldcalc verify`, one test per suite.

`goldcalc.verify` is the one registry of the paper's criteria; each check
keeps its inputs, bound and name there, and a measured check reports its
value against that bound.  Run with `pytest tests/test_acceptance.py -v -s`
to see one `criterion <suite> NN` line per check.  The seed is the CLI's default, so the checks are the ones
`goldcalc verify --suite all` runs.
"""

import pytest

from goldcalc import verify
from goldcalc.cli import build_parser

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
