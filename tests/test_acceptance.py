"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured residuals and running at its stated tolerance."""

import time

from wavekit import selfcheck


def _run(name, budget=None):
    result = selfcheck.run_check(name)
    print(result.line)
    assert result.passed, result.line
    if budget is not None:
        assert result.elapsed <= budget, f"{name} exceeded {budget}s budget ({result.elapsed:.1f}s)"


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


def test_criterion_10_selfcheck_cli(launch):
    start = time.time()
    cp = launch("wavekit.cli", "selfcheck")
    elapsed = time.time() - start
    print(cp.stdout.strip())
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "all checks passed" in cp.stdout
    assert elapsed <= 300.0, f"selfcheck took {elapsed:.0f}s"
