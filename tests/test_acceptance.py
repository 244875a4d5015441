"""Acceptance suite: every check of `goldcalc verify`, one test per suite.

`goldcalc.verify` is the one registry of the paper's criteria; each check
keeps its inputs, tolerance and name there.  Run with
`pytest tests/test_acceptance.py -v -s` to see one `criterion <suite> NN`
line per check.  The seed is the CLI's default, so the checks are the ones
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
