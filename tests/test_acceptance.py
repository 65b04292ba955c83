"""Acceptance gate: the twelve numbered criteria, one pass/fail line each.

Criteria 1-11 call the verification runners directly and assert the passed
flag at the stated tolerances; criterion 12 exercises the command-line
interface through real subprocesses (byte-identical reports, exit codes
0/1/2 on pass, induced failure, malformed input).
"""

import subprocess
import sys
from fractions import Fraction

import pytest

from ellbar import verify

CFG = {
    "curve_a": Fraction(5),
    "curve_b": Fraction(2),
    "tol": None,
}


def _announce(r):
    status = "PASS" if r["passed"] else "FAIL"
    worst = max(r["residuals"].values(), default=None)
    tail = f"worst residual {worst:.3e}" if worst is not None else "exact"
    print(f"criterion {r['id']:2d} [{r['name']}]: {status} ({tail})")


@pytest.mark.parametrize(
    "fn",
    verify.CRITERIA[:11],
    ids=[f"{i + 1:02d}-{f.__name__.replace('crit_', '')}" for i, f in
         enumerate(verify.CRITERIA[:11])],
)
def test_criterion(fn):
    r = fn(CFG)
    _announce(r)
    assert r["passed"], r


def test_criterion_12_cli_determinism(tmp_path):
    cli = [sys.executable, "-m", "ellbar.cli"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    p1 = subprocess.run(
        cli + ["verify", "--json", str(out1)], capture_output=True, text=True
    )
    p2 = subprocess.run(
        cli + ["verify", "--json", str(out2)], capture_output=True, text=True
    )
    identical = out1.read_bytes() == out2.read_bytes()
    induced = subprocess.run(
        cli + ["verify", "--tol", "1e-15"], capture_output=True, text=True
    )
    malformed = subprocess.run(
        cli + ["periods", "--curve", "3", "1"], capture_output=True, text=True
    )
    ok = (
        p1.returncode == 0
        and p2.returncode == 0
        and identical
        and p1.stdout == p2.stdout
        and induced.returncode == 1
        and "QuadratureFailure" in induced.stdout
        and malformed.returncode == 2
    )
    r = {
        "id": 12,
        "name": "cli-determinism",
        "passed": ok,
        "residuals": {},
    }
    _announce(r)
    assert identical, "verify reports differ between identical runs"
    assert p1.returncode == 0, p1.stdout + p1.stderr
    assert induced.returncode == 1, induced.stdout + induced.stderr
    assert "QuadratureFailure" in induced.stdout
    assert malformed.returncode == 2, malformed.stderr
    assert ok
