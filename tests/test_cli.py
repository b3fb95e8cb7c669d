"""End-to-end CLI runs: schemas, determinism, config precedence."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def checkout_env(extra=None):
    """The environment with this checkout's ``src/`` first on PYTHONPATH, so a
    CLI subprocess imports the wavekit under test, installed or not. A None
    in ``extra`` removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for key, value in (extra or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "wavekit.cli", *args],
        capture_output=True,
        text=True,
        env=checkout_env(env_extra),
        cwd=cwd,
    )


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


def test_evolve_quadrature_matches_closed(tmp_path):
    args = ("evolve", "--dispersion", "rel", "--mass", "1", "--alpha", "1", "--beta-re", "0.5",
            "--x-min", "-8", "--x-max", "8", "--x-steps", "41", "--t-min", "0", "--t-max", "5",
            "--t-steps", "3", "--format", "json")
    data = {}
    for method in ("closed", "quadrature"):
        out = tmp_path / f"{method}.json"
        cp = run_cli(*args, "--method", method, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        data[method] = json.loads(out.read_text())
    assert set(data["quadrature"]["meta"]) == {"tolerance", "method", "max_mass_deviation"}
    closed = np.array(data["closed"]["rows"])
    quad = np.array(data["quadrature"]["rows"])
    assert np.array_equal(closed[:, :2], quad[:, :2])
    assert np.max(np.abs(closed[:, 2] - quad[:, 2])) <= 1e-12


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
    assert float(by_name["uncertainty_excess_b"][2]) >= 1e-4


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


def test_rel_closed_form_near_light_speed():
    # beta_r/alpha = 0.999: an adaptive K_0 integral gave mean_x2 < 0 here.
    cp = run_cli(
        "moments", "--dispersion", "rel", "--mass", "5", "--alpha", "100",
        "--beta-re", "99.9", "--method", "closed", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    closed = {row[0]: row[1] for row in json.loads(cp.stdout)["rows"]}
    assert closed["mean_x2"] == pytest.approx(9.23774538417437e-4, rel=1e-8)  # mpmath


def test_header_only_model_file(tmp_path):
    path = tmp_path / "model.csv"
    path.write_text("t,R\n")
    cp = run_cli(
        "cosmo", "--dispersion", "rel", "--alpha", "1",
        "--model", "tabulated", "--model-file", str(path),
    )
    assert cp.returncode == 2
    assert cp.stderr == "error: model file has no data rows\n"


def test_python_m_wavekit_selfcheck():
    cp = subprocess.run(
        [sys.executable, "-m", "wavekit", "selfcheck"], capture_output=True, text=True,
        env=checkout_env(),
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.rstrip().endswith("selfcheck: all checks passed")


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
