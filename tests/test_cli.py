"""End-to-end CLI runs: schemas, determinism, config precedence."""

import csv
import io
import json
import math
import os
import re
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

from wavekit import cli, moments, selfcheck


def run_cli(*args, env_extra=None, cwd=None):
    """Run ``wavekit *args`` through ``cli.main`` in this process and return
    what a subprocess run would: the exit code and the captured stdout and
    stderr. ``env_extra`` patches the environment for the run (a None value
    removes that variable), ``cwd`` is its working directory, and argparse's
    ``SystemExit`` becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        for key, value in (env_extra or {}).items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        try:
            if cwd is not None:
                os.chdir(cwd)
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    return subprocess.CompletedProcess(["wavekit", *args], code, out.getvalue(), err.getvalue())


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


MOMENT_ARGS = (
    "moments",
    "--dispersion",
    "rel",
    "--mass",
    "1",
    "--alpha",
    "1",
    "--beta-re",
    "0.5",
    "--method",
    "both",
)


def test_moments_both_methods(tmp_path):
    out = tmp_path / "m.csv"
    cp = run_cli(*MOMENT_ARGS, "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["quantity", "closed", "quadrature", "abs_diff"]
    by_name = {r[0]: r for r in rows}
    for name, row in by_name.items():
        if row[1] and row[2]:
            assert float(row[3]) <= 1e-8, name
    # The bound's quadrature column is the oracle (1/2)|<E''>|, not a copy.
    assert by_name["uncertainty_bound"][2] != ""
    assert max(abs(float(v)) for v in by_name["saturation_residual"][1:3]) < 1e-7


def test_moments_both_methods_gaussian_core(tmp_path):
    # alpha m = 50: the relativistic density is a narrow Gaussian.
    out = tmp_path / "m.csv"
    args = list(MOMENT_ARGS)
    args[args.index("--alpha") + 1] = "50"
    cp = run_cli(*args, "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_csv(out)
    for name, closed, _quad, diff in rows:
        if closed and diff:
            assert float(diff) <= 1e-8 * max(1.0, abs(float(closed))), name


def test_readme_moments_at_a_tighter_tolerance():
    cp = run_cli(*MOMENT_ARGS, "--tol", "1e-13", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert data["meta"]["tolerance"] == 1e-13
    assert data["meta"]["max_abs_diff"] <= 1e-8
    rows = {row[0]: row for row in data["rows"]}
    assert max(abs(v) for v in rows["saturation_residual"][1:3]) <= 1e-7


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*MOMENT_ARGS, "--out", str(a)).returncode == 0
    assert run_cli(*MOMENT_ARGS, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_json_matches_csv_values(tmp_path):
    c, j = tmp_path / "m.csv", tmp_path / "m.json"
    assert run_cli(*MOMENT_ARGS, "--out", str(c)).returncode == 0
    assert run_cli(*MOMENT_ARGS, "--format", "json", "--out", str(j)).returncode == 0
    _, rows = read_csv(c)
    data = json.loads(j.read_text())
    assert data["columns"] == ["quantity", "closed", "quadrature", "abs_diff"]
    for csv_row, json_row in zip(rows, data["rows"]):
        assert csv_row[0] == json_row[0]
        for s, v in zip(csv_row[1:], json_row[1:]):
            if s == "":
                assert v in (None, "")
            else:
                assert float(s) == v  # exact: both pass through %.15g


def test_evolve_grid_schema(tmp_path):
    out = tmp_path / "e.csv"
    cp = run_cli(
        "evolve",
        "--dispersion",
        "nonrel",
        "--mass",
        "3",
        "--alpha",
        "1",
        "--x-min",
        "-6",
        "--x-max",
        "6",
        "--x-steps",
        "61",
        "--t-min",
        "0",
        "--t-max",
        "2",
        "--t-steps",
        "3",
        "--out",
        str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["t", "x", "density"]
    assert len(rows) == 3 * 61
    assert all(float(r[2]) >= 0.0 for r in rows)


def _evolve_both_ways(*args):
    """``evolve *args`` by the closed form and by the quadrature oracle: the
    oracle's meta and the largest density difference on their one grid."""
    runs = [run_cli("evolve", *args, "--format", "json", "--method", m) for m in ("closed", "quadrature")]
    assert all(cp.returncode == 0 for cp in runs), [cp.stderr for cp in runs]
    closed, quad = (json.loads(cp.stdout) for cp in runs)
    closed_rows, quad_rows = np.array(closed["rows"]), np.array(quad["rows"])
    assert np.array_equal(closed_rows[:, :2], quad_rows[:, :2])
    return quad["meta"], np.max(np.abs(closed_rows[:, 2] - quad_rows[:, 2]))


def test_evolve_quadrature_matches_closed():
    meta, diff = _evolve_both_ways(
        "--dispersion", "rel", "--mass", "1", "--alpha", "1", "--beta-re", "0.5", "--x-min", "-8",
        "--x-max", "8", "--x-steps", "41", "--t-min", "0", "--t-max", "5", "--t-steps", "3",
    )
    assert set(meta) == {"tolerance", "method", "max_mass_deviation"}
    assert diff <= 1e-12


@pytest.mark.parametrize(
    "flags",
    [
        ("--dispersion", "nonrel", "--mass", "3", "--alpha", "1", "--x-steps", "201", "--t-steps", "6"),
        ("--dispersion", "lattice", "--alpha", "1", "--x-steps", "17", "--t-steps", "3"),
    ],
    ids=["readme", "lattice-periodic"],
)
def test_evolve_oracle_matches_closed(flags):
    # The README's evolve grid and the lattice's periodic-rule oracle, whose
    # 17 positions on [-8, 8] are lattice sites.
    _, diff = _evolve_both_ways(*flags, "--x-min", "-8", "--x-max", "8", "--t-min", "0", "--t-max", "5")
    assert diff <= 1e-12


def test_spread_table(tmp_path):
    out = tmp_path / "s.csv"
    cp = run_cli(
        "spread",
        "--dispersion",
        "massless",
        "--alpha",
        "1",
        "--beta-re",
        "0.5",
        "--t-min",
        "0",
        "--t-max",
        "2",
        "--t-steps",
        "3",
        "--out",
        str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["t", "width_sq_analytic", "width_sq_grid", "abs_diff"]
    for row in rows:
        assert float(row[3]) <= 1e-5 * max(1.0, float(row[1]))


def test_readme_spread_to_rounding():
    # The README spread command: grid and law agree to rounding (1.4e-8 with
    # fixed Simpson meshes and geometric massless tails).
    cp = run_cli("spread", "--dispersion", "massless", "--alpha", "1", "--beta-re", "0.5",
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["meta"]["max_rel_deviation"] <= 1e-12


@pytest.mark.parametrize(
    "kind, beta_i",
    [pytest.param(k, b, id=k if b == "1e5" else f"{k}-{b}")
     for b in ("1e5", "1e6") for k in ("nonrel", "rel", "massless", "lattice")],
)
def test_far_translated_spread_meets_the_gate(kind, beta_i):
    # The central variance of the normalised density: the raw second moment
    # minus <x>^2 cancelled beta_i^2 (nonrel read 4.96e-3 at 1e5; rel 1.56e-4
    # and lattice 6.70e-4 at 1e6). Positions taken from the beta_i = 0
    # packet keep the rounding of |beta_i| out of the density's shape
    # (continuum kinds read ~1e-12 from absolute positions).
    cp = run_cli("spread", "--dispersion", kind, "--alpha", "1", "--beta-im", beta_i,
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["meta"]["max_rel_deviation"] <= 1e-13


@pytest.mark.parametrize("method", ["both", "closed", "quadrature"])
def test_moments_runs_the_closed_forms_once(monkeypatch, capsys, method):
    # The bound is read from the one closed set, not from a second
    # uncertainty_bound pass (2, 2 and 1 calls before).
    calls = []
    closed_form = cli.moments_closed_form

    def counted(packet):
        calls.append(packet)
        return closed_form(packet)

    # Both bindings: the CLI's own and the one uncertainty_bound reads.
    monkeypatch.setattr(cli, "moments_closed_form", counted)
    monkeypatch.setattr(moments, "moments_closed_form", counted)
    argv = ["moments", "--dispersion", "rel", "--alpha", "1", "--beta-re", "0.5", "--method", method]
    assert cli.main(argv) == 0
    rows = {line.split(",")[0]: line.split(",") for line in capsys.readouterr().out.splitlines()}
    assert len(calls) == 1
    assert rows["uncertainty_bound"][1] == "0.2197286155329"
    assert (rows["mean_x"][1] != "") == (method != "quadrature")


def test_spread_deviation_is_relative_at_any_scale(monkeypatch, capsys):
    # A grid variance 1e-3 off must read 1e-3 however small Var x is; the
    # old floor max(analytic, 1e-30) read 5e-14 for Var x ~ 5e-41.
    evolved_central = cli._evolved_central

    def off(packet, t, m0, spec):
        mass, mean, var = evolved_central(packet, t, m0, spec)
        return mass, mean, var * (1.0 + 1e-3)

    monkeypatch.setattr(cli, "_evolved_central", off)
    argv = ["spread", "--dispersion", "nonrel", "--alpha", "1e-40", "--t-max", "1e-60",
            "--t-steps", "2", "--format", "json"]
    assert cli.main(argv) == 0
    dev = json.loads(capsys.readouterr().out)["meta"]["max_rel_deviation"]
    assert dev == pytest.approx(1e-3, rel=1e-6)


def test_boost_report(tmp_path):
    out = tmp_path / "b.csv"
    cp = run_cli(
        "boost",
        "--dispersion",
        "rel",
        "--mass",
        "1",
        "--alpha",
        "1",
        "--boost-u",
        "0.6",
        "--out",
        str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["quantity", "predicted", "recomputed", "abs_diff"]
    by_name = {r[0]: r for r in rows}
    assert float(by_name["alpha_prime"][1]) == pytest.approx(1.25)
    assert float(by_name["beta_r_prime"][1]) == pytest.approx(-0.75)
    assert float(by_name["norm"][3]) <= 1e-8
    assert float(by_name["mean_E_b"][3]) <= 1e-7
    assert float(by_name["uncertainty_excess_b"][1]) >= 1e-4
    assert by_name["uncertainty_excess_b"][2:] == ["", ""]


@pytest.mark.parametrize(
    "flags",
    [
        ("--alpha", "50", "--beta-re", "-49.9", "--boost-u", "0.9999"),
        ("--alpha", "50", "--beta-re", "-49.9", "--boost-u", "0.9999", "--beta-im", "10000"),
        ("--alpha", "50", "--beta-re", "49", "--boost-u", "-0.999"),
        ("--alpha", "200", "--beta-re", "199.9", "--boost-u", "-0.9"),
        ("--alpha", "300", "--beta-re", "299.99", "--boost-u", "0.5"),
    ],
)
def test_boost_near_light_speed_is_not_minimal(flags):
    # The raw <v'^2> - <v'>^2 went negative here: a math domain error, a
    # negative var_x, or an excess of about -5e-11.
    cp = run_cli("boost", "--dispersion", "rel", "--mass", "1", *flags, "--format", "json")
    assert cp.returncode == 0, cp.stderr
    rows = {row[0]: row for row in json.loads(cp.stdout)["rows"]}
    assert rows["uncertainty_excess_b"][1] >= 0.0


def test_boost_at_zero_speed_stays_minimal():
    cp = run_cli(
        "boost", "--dispersion", "rel", "--mass", "1", "--alpha", "1", "--boost-u", "0",
        "--beta-im", "1000", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    rows = {row[0]: row for row in json.loads(cp.stdout)["rows"]}
    assert abs(rows["uncertainty_excess_b"][1]) <= 1e-15


@pytest.mark.parametrize(
    "args,message",
    [
        (("moments", "--dispersion", "nonrel", "--alpha", "1e-300"), "float range"),
        (("moments", "--dispersion", "nonrel", "--alpha", "1", "--mass", "1e300"), "float range"),
        (("cosmo", "--dispersion", "nonrel", "--alpha", "1e-300"), "float range"),
        (("moments", "--dispersion", "massless", "--alpha", "1e-300"), "s^2"),
        (("spread", "--dispersion", "massless", "--alpha", "1e-300"), "s^2"),
        (("moments", "--dispersion", "lattice", "--alpha", "1", "--spacing", "1e-200"), "m a^2"),
        (("moments", "--dispersion", "rel", "--alpha", "1e-300"), "s^2"),
        (("moments", "--dispersion", "rel", "--alpha", "1e-100"), "float range"),
        (("moments", "--dispersion", "lattice", "--alpha", "1", "--spacing", "1e100"), "float range"),
    ],
)
def test_float_edge_parameters_are_typed_errors(args, message):
    # Each raised OverflowError or ZeroDivisionError (or, rel at 1e-300, a
    # K_0/K_1 argument error) where a closed form left the float range.
    cp = run_cli(*args)
    _assert_config_error(cp)
    assert message in cp.stderr


def test_cosmo_trace(tmp_path):
    out = tmp_path / "c.csv"
    cp = run_cli(
        "cosmo",
        "--dispersion",
        "massless",
        "--alpha",
        "1",
        "--beta-re",
        "0.5",
        "--model",
        "powerlaw",
        "--exponent",
        "1",
        "--t-min",
        "0",
        "--t-max",
        "2",
        "--t-steps",
        "3",
        "--out",
        str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["t", "mean_rho", "mean_rho2", "mean_x", "mean_v"]
    assert all(float(r[4]) == pytest.approx(0.5, abs=1e-9) for r in rows)


def test_figures_fig4_bimodal(tmp_path):
    out = tmp_path / "fig4.csv"
    cp = run_cli("figures", "--which", "4", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["beta", "t", "x", "density"]
    sel = [
        (float(r[2]), float(r[3]))
        for r in rows
        if float(r[0]) == 0.0 and float(r[1]) == 5.0
    ]
    xs = np.array([x for x, _ in sel])
    dens = np.array([d for _, d in sel])
    peaks = [
        xs[j]
        for j in range(1, len(xs) - 1)
        if dens[j] >= dens[j - 1] and dens[j] >= dens[j + 1] and dens[j] > 0.1 * dens.max()
    ]
    assert len(peaks) == 2
    assert abs(min(peaks) + 5.0) <= 0.5 and abs(max(peaks) - 5.0) <= 0.5


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "dispersion": "rel",
                "mass": 1.0,
                "alpha": 1.0,
                "beta_re": 0.25,
                "method": "closed",
            }
        )
    )
    base = tmp_path / "base.csv"
    assert run_cli("moments", "--config", str(cfg), "--out", str(base)).returncode == 0
    _, rows = read_csv(base)
    mean_v = float({r[0]: r for r in rows}["mean_v"][1])
    assert mean_v == pytest.approx(0.25)

    over = tmp_path / "over.csv"
    cp = run_cli(
        "moments", "--config", str(cfg), "--beta-re", "0.5", "--out", str(over)
    )
    assert cp.returncode == 0
    _, rows = read_csv(over)
    assert float({r[0]: r for r in rows}["mean_v"][1]) == pytest.approx(0.5)


def test_bad_config_exit_code():
    cp = run_cli("moments", "--dispersion", "rel", "--mass", "1")  # missing alpha
    assert cp.returncode == 2
    assert "alpha" in cp.stderr
    cp = run_cli("moments", "--dispersion", "rel", "--mass", "1", "--alpha", "-1")
    assert cp.returncode == 2


def test_tolerance_env_and_flag(tmp_path):
    # Precedence: flag, then config file, then WAVEKIT_TOL, then 1e-10.
    out = tmp_path / "t.json"
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tol": 1e-7}))

    def tolerance(*extra, env):
        cp = run_cli(*MOMENT_ARGS[:-2], "--method", "closed", "--format", "json",
                     "--out", str(out), *extra, env_extra={"WAVEKIT_TOL": env})
        assert cp.returncode == 0, cp.stderr
        return json.loads(out.read_text())["meta"]["tolerance"]

    assert tolerance(env=None) == 1e-10
    assert tolerance(env="1e-8") == 1e-8
    assert tolerance("--config", str(cfg), env="1e-8") == 1e-7
    assert tolerance("--config", str(cfg), "--tol", "1e-9", env="1e-8") == 1e-9
    assert tolerance("--tol", "1e-9", env="1e-8") == 1e-9


def _assert_config_error(cp):
    assert cp.returncode == 2
    assert cp.stderr.startswith("error: ")
    assert len(cp.stderr.splitlines()) == 1
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("u", ["1.5", "1"])
def test_boost_speed_out_of_range(u):
    _assert_config_error(
        run_cli("boost", "--dispersion", "rel", "--mass", "1", "--alpha", "1", "--boost-u", u)
    )


def test_missing_output_directory(tmp_path):
    missing = tmp_path / "missing"
    _assert_config_error(run_cli("figures", "--out-dir", str(missing)))
    _assert_config_error(run_cli(*MOMENT_ARGS, "--out", str(missing / "m.csv")))


@pytest.mark.parametrize("body", ["t,R\n0,1\n", "t,R\n0,1\n1,two\n"])
def test_malformed_model_file(tmp_path, body):
    path = tmp_path / "model.csv"
    path.write_text(body)
    _assert_config_error(
        run_cli(
            "cosmo", "--dispersion", "rel", "--alpha", "1",
            "--model", "tabulated", "--model-file", str(path),
        )
    )


def test_scale_factor_out_of_range():
    _assert_config_error(
        run_cli(
            "cosmo", "--dispersion", "rel", "--alpha", "1", "--beta-re", "0.5",
            "--model", "exp", "--hubble", "-200",
        )
    )


def test_tiny_scale_factor():
    _assert_config_error(
        run_cli(
            "cosmo", "--dispersion", "nonrel", "--alpha", "1", "--beta-re", "0.5",
            "--model", "exp", "--hubble", "-100", "--t-max", "5",
        )
    )


def test_float_edge_packet():
    # K_1(720) is subnormal, so A^2 = pi s / (m alpha K_1) overflows.
    _assert_config_error(run_cli("moments", "--dispersion", "rel", "--mass", "1", "--alpha", "360"))
    # <x>^2 past float max: the raw moments raise OverflowSignal.
    for packet in (("nonrel", "--beta-im", "1e200"), ("lattice", "--spacing", "0.5", "--beta-im", "1.5e308"),
                   ("rel", "--beta-im", "1.5e308"), ("massless", "--beta-im", "1.5e308")):
        _assert_config_error(run_cli("moments", "--alpha", "1", "--dispersion", *packet))


def test_tolerance_whose_floor_underflows():
    # 1e-323 lies in (0, 1), but its floor tol/100 rounds to 0.
    _assert_config_error(run_cli(*MOMENT_ARGS, "--tol", "1e-323"))


@pytest.mark.parametrize("command", ["spread", "cosmo"])
def test_x_grid_only_on_evolve(command, tmp_path):
    # spread and cosmo read only the t grid, so they take no --x-* option,
    # while a config file's x keys are ignored like any key they do not take.
    flags = (command, "--dispersion", "massless", "--alpha", "1", "--t-steps", "3")
    cp = run_cli(*flags, "--x-steps", "1", "--x-min", "5", "--x-max", "-5")
    assert cp.returncode == 2
    assert "unrecognized arguments: --x-steps 1 --x-min 5 --x-max -5" in cp.stderr
    cfg = _write_config(tmp_path, {"x_steps": 1, "x_min": 5, "x_max": -5})
    got = run_cli(*flags, "--config", cfg)
    assert got.returncode == 0, got.stderr
    assert got.stdout == run_cli(*flags).stdout


@pytest.mark.parametrize(
    "args",
    [
        ("moments", "--dispersion", "rel", "--alpha", "1", "--beta-im", "1000", "--method", "both"),
        ("cosmo", "--dispersion", "nonrel", "--alpha", "1", "--beta-im", "1000"),
        ("boost", "--dispersion", "rel", "--alpha", "1", "--beta-im", "10000", "--boost-u", "0.6"),
        ("boost", "--dispersion", "rel", "--alpha", "1", "--beta-im", "1000", "--boost-u", "0"),
        ("spread", "--dispersion", "lattice", "--spacing", "0.7", "--alpha", "1", "--beta-im", "7000000"),
        ("spread", "--dispersion", "lattice", "--spacing", "0.7", "--alpha", "1", "--beta-im", "21000000"),
    ],
    ids=["moments", "cosmo", "boost", "boost-u0", "spread-lattice-1e7-sites", "spread-lattice-3e7-sites"],
)
def test_large_beta_i_converges(args):
    # At beta_r = 0 the correlations are 0 with integrands of size |beta_i|,
    # so they must come from <v> and <W>, not from integrals of their own.
    cp = run_cli(*args, "--format", "json")
    assert cp.returncode == 0, cp.stderr
    out = json.loads(cp.stdout)
    if args[0] == "moments":
        assert out["meta"]["max_abs_diff"] <= 1e-8 * 1000.0**2  # 1e-8 of <x^2>
    if args[0] == "spread":  # sites add as integers: no site falls off
        assert out["meta"]["max_rel_deviation"] <= 1e-12


def test_readme_moments_print_unsigned_zeros(tmp_path):
    out = tmp_path / "m.csv"
    cp = run_cli(*MOMENT_ARGS, "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = {r[0]: r for r in read_csv(out)[1]}
    assert rows["mean_x"] == ["mean_x", "0", "0", "0"]
    assert rows["corr_vx"] == ["corr_vx", "0", "0", "0"]


def test_far_translated_moments_saturate():
    # The widths from <x^2> - <x>^2 gave a residual of -2.86e-6 here.
    cp = run_cli(
        "moments", "--dispersion", "nonrel", "--alpha", "1", "--beta-im", "1e5",
        "--method", "both", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    rows = {row[0]: row for row in json.loads(cp.stdout)["rows"]}
    assert abs(rows["saturation_residual"][1]) <= 1e-7
    assert abs(rows["saturation_residual"][2]) <= 1e-7


def test_far_translated_lattice_moments_saturate():
    cp = run_cli(
        "moments", "--dispersion", "lattice", "--alpha", "1", "--beta-im", "100000",
        "--method", "both", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    rows = {row[0]: row for row in json.loads(cp.stdout)["rows"]}
    assert max(abs(v) for v in rows["saturation_residual"][1:3]) <= 1e-7


def test_rel_closed_form_near_light_speed():
    # beta_r/alpha = 0.999: an adaptive K_0 integral gave mean_x2 < 0 here.
    cp = run_cli(
        "moments", "--dispersion", "rel", "--mass", "5", "--alpha", "100",
        "--beta-re", "99.9", "--method", "closed", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    closed = {row[0]: row[1] for row in json.loads(cp.stdout)["rows"]}
    assert closed["mean_x2"] == pytest.approx(9.23774538417437e-4, rel=1e-8)  # mpmath


def test_rel_bound_near_light_speed_matches_its_oracle():
    cp = run_cli(
        "moments", "--dispersion", "rel", "--mass", "5", "--alpha", "100",
        "--beta-re", "99.9", "--method", "both", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    _, closed, _quad, diff = {row[0]: row for row in json.loads(cp.stdout)["rows"]}["uncertainty_bound"]
    assert diff <= 1e-8 * closed


def test_header_only_model_file(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("t,R\n")
    cp = run_cli(
        "cosmo", "--dispersion", "rel", "--alpha", "1",
        "--model", "tabulated", "--model-file", str(path),
    )
    assert cp.returncode == 2
    assert cp.stderr == "error: model file has no data rows\n"


@pytest.fixture(scope="module")
def selfcheck_process(launch):
    # One `python -m wavekit selfcheck` run serves both tests below.
    return launch("wavekit", "selfcheck")


def test_python_m_wavekit_selfcheck(selfcheck_process):
    assert selfcheck_process.returncode == 0, selfcheck_process.stderr
    assert selfcheck_process.stdout.rstrip().endswith("selfcheck: all checks passed")


def test_selfcheck_lines_are_run_check_lines(selfcheck_process):
    # One report line: the CLI prints CheckResult.line, as the acceptance
    # tests do, for every check in registry order.
    assert selfcheck_process.returncode == 0, selfcheck_process.stderr

    def untimed(line):
        return re.sub(r" \[\d+\.\ds\] ", " ", line)

    printed = [untimed(line) for line in selfcheck_process.stdout.splitlines()[:-1]]
    assert printed == [untimed(selfcheck.run_check(name).line) for name in selfcheck.CHECKS]


@pytest.mark.parametrize(
    "args, code, prefix",
    [
        (("moments", "--dispersion", "nonrel", "--alpha", "1", "--beta-im", "1e200"), 2, "error: "),
        # 1e-18 lies below double rounding, so no quadrature meets it.
        (("moments", "--dispersion", "nonrel", "--alpha", "1", "--tol", "1e-18"), 1,
         "numerical failure: "),
    ],
    ids=["config-error", "numerical-failure"],
)
def test_exit_code_of_a_fresh_interpreter(launch, args, code, prefix):
    # The process boundary: `sys.exit(main())` makes main's return value the
    # exit code, and the failure is one stderr line with no traceback.
    cp = launch("wavekit.cli", *args)
    assert cp.returncode == code
    assert cp.stderr.startswith(prefix)
    assert len(cp.stderr.splitlines()) == 1


def test_run_all_keeps_registry_order():
    results = selfcheck.run_all()
    assert [r.name for r in results] == list(selfcheck.CHECKS)
    assert all(r.passed for r in results)


def _write_config(tmp_path, entries, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.mark.parametrize(
    "command, entries, env, option",
    [
        ("moments", {"alpha": "abc"}, None, "--alpha"),
        ("moments", {"tol": "x"}, None, "--tol"),
        ("evolve", {"x_steps": "many"}, None, "--x-steps"),
        ("boost", {"boost_u": "fast"}, None, "--boost-u"),
        ("moments", {"method": "bogus"}, None, "--method"),
        ("figures", {"which": "7"}, None, "--which"),
        ("moments", {"format": "xml"}, None, "--format"),
        ("moments", {}, "abc", "--tol"),
    ],
)
def test_bad_config_value_is_a_flag_error(tmp_path, command, entries, env, option):
    # Config values and WAVEKIT_TOL meet the flags' own types and choices.
    cfg = _write_config(tmp_path, {"dispersion": "rel", "alpha": 1, **entries})
    cp = run_cli(command, "--config", cfg, env_extra={"WAVEKIT_TOL": env})
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert f"error: argument {option}:" in cp.stderr
    assert cp.stdout == ""


@pytest.mark.parametrize(
    "entries",
    [{"mass": None}, {"boost_u": 0.6, "x_min": 3}, {"config": "missing.json", "command": "evolve"}],
    ids=["null", "other-subcommand", "config-and-command"],
)
def test_config_entries_ignored(tmp_path, entries):
    # A null value counts as absent; keys moments does not take are ignored.
    flags = ("moments", "--dispersion", "rel", "--alpha", "1", "--method", "closed")
    cfg = _write_config(tmp_path, {"dispersion": "rel", "alpha": 1, **entries})
    want = run_cli(*flags)
    got = run_cli("moments", "--config", cfg, "--method", "closed")
    assert want.returncode == 0 and got.returncode == 0, got.stderr
    assert got.stdout == want.stdout


def _as_flags(entries):
    return [tok for key, value in entries.items() for tok in (f"--{key.replace('_', '-')}", str(value))]


@pytest.mark.parametrize(
    "command, entries",
    [
        ("moments", {"dispersion": "rel", "mass": 1, "alpha": 1, "beta_re": -0.5, "method": "both"}),
        ("evolve", {"dispersion": "nonrel", "mass": 3, "alpha": 1, "beta_re": -0.5, "x_min": -8,
                    "x_max": 8, "x_steps": 41, "t_max": 2, "t_steps": 3, "method": "quadrature"}),
        ("cosmo", {"dispersion": "rel", "alpha": 1, "beta_re": -0.5, "model": "exp",
                   "hubble": 0.2, "t_steps": 3, "format": "json"}),
    ],
)
def test_config_file_matches_flags(tmp_path, command, entries):
    want = run_cli(command, *_as_flags(entries))
    got = run_cli(command, "--config", _write_config(tmp_path, entries))
    assert want.returncode == 0, want.stderr
    assert got.returncode == 0, got.stderr
    assert got.stdout == want.stdout


def test_config_file_matches_flags_figures(tmp_path):
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    by_flag.mkdir()
    by_config.mkdir()
    assert run_cli("figures", "--which", "2", "--out-dir", str(by_flag)).returncode == 0
    cfg = _write_config(tmp_path, {"which": 2, "out_dir": str(by_config)})
    cp = run_cli("figures", "--config", cfg)
    assert cp.returncode == 0, cp.stderr
    assert os.listdir(by_config) == ["fig2.csv"]
    assert (by_config / "fig2.csv").read_bytes() == (by_flag / "fig2.csv").read_bytes()


def test_config_values_starting_with_dash(tmp_path):
    # Neither value reads as a number to argparse when split from its option.
    entries = {"dispersion": "nonrel", "alpha": 1, "beta_re": -1e-05, "out": "-m.csv"}
    cfg = _write_config(tmp_path, entries)
    cp = run_cli("moments", "--config", cfg, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    want = tmp_path / "want.csv"
    flags = ("--dispersion", "nonrel", "--alpha", "1", "--beta-re=-1e-05")
    assert run_cli("moments", *flags, "--out", str(want)).returncode == 0
    assert (tmp_path / "-m.csv").read_bytes() == want.read_bytes()


_SCALES = ("1e-300", "1e-100", "1e-50", "1e-10", "1", "1e10", "1e50", "1e100", "1e300")
_SCALED_FLAGS = {
    "nonrel": ("--alpha", "--mass"),
    "rel": ("--alpha", "--mass"),
    "massless": ("--alpha",),
    "lattice": ("--alpha", "--spacing"),
}
# The split packet's two 1e-10-wide peaks sit at theta ~ +-pi/4 of the
# evolved-moment integral over x = c + w tan(theta), finer than the theta
# rule resolves there.
_UNRESOLVED = {("spread", "rel", "--alpha", "1e-10"), ("spread", "massless", "--alpha", "1e-10")}


_SWEEP_FLAGS = {
    "boost": ("--boost-u", "0.5"),
    # x = -10, -5, 0, 5, 10 lie on the sites at a = 1; the default 201-point
    # grid does not, and every lattice run would exit 2.
    "evolve": ("--x-steps", "5", "--t-steps", "2"),
}


def _scale_sweep():
    for command in ("moments", "evolve", "spread", "cosmo", "boost"):
        for kind in ("rel",) if command == "boost" else _SCALED_FLAGS:
            for flag in _SCALED_FLAGS[kind]:
                for value in _SCALES:
                    yield command, kind, flag, value


def _assert_finite_table(out):
    fields = [f for line in out.splitlines()[1:] for f in line.split(",")[1:] if f]
    assert all(math.isfinite(float(f)) for f in fields), out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, kind, flag, value", list(_scale_sweep()))
def test_scale_sweep(command, kind, flag, value, capsys):
    # Physically valid packets from 1e-300 to 1e300 in alpha, mass or spacing
    # (the others at 1): an answer with finite numbers or a typed error, never
    # a traceback or a warning.
    argv = [command, "--dispersion", kind, "--alpha", "1", flag, value, *_SWEEP_FLAGS.get(command, ())]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if (command, kind, flag, value) in _UNRESOLVED:
        assert code == 1
        return
    assert code in (0, 2)
    if code == 0:
        _assert_finite_table(out)
    else:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "args",
    [
        ("moments", "--dispersion", "nonrel", "--alpha", "1e-50"),
        ("moments", "--dispersion", "nonrel", "--alpha", "1", "--mass", "1e100"),
        ("moments", "--dispersion", "nonrel", "--alpha", "1", "--mass", "1e-100"),
        ("spread", "--dispersion", "massless", "--alpha", "1e50"),
        ("boost", "--dispersion", "rel", "--alpha", "1", "--mass", "1e-300", "--boost-u", "0.5"),
    ],
    ids=["nonrel-alpha-1e-50", "nonrel-mass-1e100", "nonrel-mass-1e-100", "massless-alpha-1e50",
         "boost-mass-1e-300"],
)
def test_oracle_at_extreme_scales(args):
    # The sweep accepts a typed error; these packets' oracles must answer.
    cp = run_cli(*args)
    assert cp.returncode == 0, cp.stderr
    _assert_finite_table(cp.stdout)


@pytest.mark.parametrize(
    "args",
    [
        ("moments", "--dispersion", "rel"),
        ("moments", "--dispersion", "massless"),
        ("cosmo", "--dispersion", "rel"),
        ("cosmo", "--dispersion", "massless"),
        ("spread", "--dispersion", "rel"),
        ("spread", "--dispersion", "massless"),
        ("boost", "--dispersion", "rel", "--boost-u", "0.5"),
    ],
    ids=lambda args: f"{args[0]}-{args[2]}",
)
def test_packet_quadratures_near_light_speed(args):
    # beta_r/alpha = 1 - 1e-6; at 1 - 1e-8 these exit 1 (see CHANGES.md).
    cp = run_cli(*args, "--alpha", "1", "--beta-re", "0.999999")
    assert cp.returncode == 0, cp.stderr
    _assert_finite_table(cp.stdout)
