"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured residuals and running at its stated tolerance."""

import os
import subprocess
import sys
import time

from wavekit import selfcheck

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(name, budget=None):
    start = time.time()
    check_name, passed, detail = selfcheck.CHECKS[name]()
    elapsed = time.time() - start
    line = f"{'PASS' if passed else 'FAIL'} {check_name} [{elapsed:.1f}s] {detail}"
    print(line)
    assert passed, line
    if budget is not None:
        assert elapsed <= budget, f"{check_name} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_moments_oracle():
    # alpha x beta_r grid over all four kinds, closed vs quadrature 1e-8.
    _run("moments-oracle", budget=30.0)


def test_criterion_2_saturation():
    _run("saturation")


def test_criterion_3_spreading_law():
    _run("spreading-law")


def test_criterion_4_greens_continuation():
    _run("greens-continuation")


def test_criterion_5_spacelike_tail():
    _run("spacelike-tail")


def test_criterion_6_lorentz_suite():
    _run("lorentz-suite")


def test_criterion_7_figures():
    _run("figures", budget=120.0)


def test_criterion_8_cosmology():
    _run("cosmology")


def test_criterion_9_special_functions():
    _run("special-functions", budget=10.0)


def test_criterion_10_selfcheck_cli():
    start = time.time()
    cp = subprocess.run(
        [sys.executable, "-m", "wavekit.cli", "selfcheck"],
        capture_output=True,
        text=True,
        # The subprocess imports the wavekit under test, installed or not.
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
    )
    elapsed = time.time() - start
    print(cp.stdout.strip())
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "all checks passed" in cp.stdout
    assert elapsed <= 300.0, f"selfcheck took {elapsed:.0f}s"
