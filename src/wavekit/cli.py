"""Command-line front end.

Subcommands: ``moments``, ``evolve``, ``spread``, ``boost``, ``cosmo``,
``figures``, ``selfcheck``. Flags may be mirrored in a flat JSON config
file (flags win); the environment variable WAVEKIT_TOL sets the default
relative quadrature tolerance. Numeric output is formatted to 15
significant digits so identical configurations produce byte-identical
files, and JSON carries exactly the values printed to CSV.

Exit codes: 0 success, 1 selfcheck failure or non-convergence, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .analysis import evolved_moments
from .boost import (
    BoostParams,
    boost_minimal_packet,
    boosted_expectations,
    boosted_wave_moments,
    lorentz_boost_params,
)
from .cosmology import ExponentialScale, PowerLawScale, TabulatedScale, comoving_trace
from .dispersion import DispersionRelation
from .errors import ConfigError, NonConvergence, WavekitError
from .moments import (
    moments_closed_form,
    moments_quadrature,
    spreading_width_sq,
    uncertainty_bound,
)
from .numerics import QuadratureSpec
from .packet import make_minimal
from .propagation import density_grid
from .selfcheck import figure_grid, run_all

_KINDS = {
    "nonrel": lambda m, a: DispersionRelation.non_relativistic(m),
    "lattice": lambda m, a: DispersionRelation.lattice(m, a),
    "rel": lambda m, a: DispersionRelation.relativistic(m),
    "massless": lambda m, a: DispersionRelation.massless(),
}


def _fmt(value):
    if value is None:
        return ""
    return format(float(value), ".15g")


def _canon(value):
    """Round-trip through the CSV formatting so JSON holds the same number."""
    return None if value is None else float(_fmt(value))


def _write_output(columns, rows, meta, cfg):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    csv_text = "\n".join(lines) + "\n"
    if cfg["format"] == "csv":
        payload = csv_text
    else:
        json_rows = [
            [v if isinstance(v, str) else _canon(v) for v in row] for row in rows
        ]
        payload = json.dumps(
            {"columns": columns, "rows": json_rows, "meta": meta},
            indent=2,
            sort_keys=True,
        ) + "\n"
    if cfg["out"]:
        try:
            with open(cfg["out"], "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(payload)


def _merge_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a flat JSON object")
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        cfg[key] = value
    cfg.setdefault("format", "csv")
    cfg.setdefault("out", "")
    tol = cfg.get("tol")
    if tol is None:
        tol = os.environ.get("WAVEKIT_TOL")
    cfg["tol"] = float(tol) if tol is not None else 1e-10
    return cfg


def _spec_from(cfg):
    try:
        return QuadratureSpec(
            relative_tolerance=cfg["tol"],
            absolute_floor=min(1e-14, cfg["tol"] * 1e-2),
        )
    except WavekitError as exc:
        raise ConfigError(str(exc))


def _packet_from(cfg):
    kind = cfg.get("dispersion")
    if kind not in _KINDS:
        raise ConfigError("--dispersion must be one of nonrel, lattice, rel, massless")
    mass = float(cfg.get("mass", 1.0))
    spacing = float(cfg.get("spacing", 1.0))
    alpha = cfg.get("alpha")
    if alpha is None:
        raise ConfigError("--alpha is required")
    try:
        rel = _KINDS[kind](mass, spacing)
        return make_minimal(
            rel,
            float(alpha),
            float(cfg.get("beta_re", 0.0)),
            float(cfg.get("beta_im", 0.0)),
        )
    except WavekitError as exc:
        raise ConfigError(str(exc))


def _grid_from(cfg, key, default_min, default_max, default_steps):
    lo = float(cfg.get(f"{key}_min", default_min))
    hi = float(cfg.get(f"{key}_max", default_max))
    steps = int(cfg.get(f"{key}_steps", default_steps))
    if steps < 2:
        raise ConfigError(f"--{key}-steps must be >= 2")
    if not hi > lo:
        raise ConfigError(f"--{key}-max must exceed --{key}-min")
    return np.linspace(lo, hi, steps)


def _cmd_moments(cfg, spec):
    packet = _packet_from(cfg)
    method = cfg.get("method", "both")
    closed = moments_closed_form(packet, spec) if method in ("closed", "both") else None
    quad = moments_quadrature(packet, spec) if method in ("quadrature", "both") else None
    rows = []
    max_diff = 0.0
    base = closed or quad
    for field in base.FIELDS:
        c = getattr(closed, field) if closed else None
        q = getattr(quad, field) if quad else None
        diff = abs(c - q) if (c is not None and q is not None) else None
        if diff is not None:
            max_diff = max(max_diff, diff)
        rows.append((field, c, q, diff))
    bound = uncertainty_bound(packet, spec)
    rows.append(("uncertainty_bound", bound, bound, 0.0))
    source = quad if quad is not None else closed
    residual = source.width_x * source.width_v - bound
    rows.append(("saturation_residual", residual, residual, 0.0))
    meta = {
        "tolerance": cfg["tol"],
        "max_abs_diff": _canon(max_diff),
        "alpha": packet.alpha,
        "beta_r": packet.beta_r,
        "beta_i": packet.beta_i,
        "norm_A": _canon(packet.norm_A),
    }
    _write_output(("quantity", "closed", "quadrature", "abs_diff"), rows, meta, cfg)
    return 0


def _density_rows(grid):
    rows = []
    for i, t in enumerate(grid.t_values):
        for j, x in enumerate(grid.x_values):
            rows.append((t, x, grid.density[i][j]))
    return rows


def _cmd_evolve(cfg, spec):
    packet = _packet_from(cfg)
    xs = _grid_from(cfg, "x", -10.0, 10.0, 201)
    ts = _grid_from(cfg, "t", 0.0, 5.0, 6)
    method = cfg.get("method", "closed")
    if method == "both":
        raise ConfigError("evolve expects --method closed or quadrature")
    grid = density_grid(packet, xs, ts, method, spec)
    masses = [float(np.trapezoid(row, xs)) for row in grid.density]
    meta = {
        "tolerance": cfg["tol"],
        "method": method,
        "max_mass_deviation": _canon(max(abs(m - 1.0) for m in masses)),
    }
    _write_output(("t", "x", "density"), _density_rows(grid), meta, cfg)
    return 0


def _cmd_spread(cfg, spec):
    packet = _packet_from(cfg)
    ts = _grid_from(cfg, "t", 0.0, 5.0, 6)
    m0 = moments_quadrature(packet, spec)
    rows = []
    worst = 0.0
    for t in ts:
        analytic = spreading_width_sq(m0, float(t))
        _, mean, second = evolved_moments(packet, float(t), m0, spec)
        from_grid = second - mean * mean
        diff = abs(analytic - from_grid)
        worst = max(worst, diff / max(analytic, 1e-30))
        rows.append((t, analytic, from_grid, diff))
    meta = {"tolerance": cfg["tol"], "max_rel_deviation": _canon(worst)}
    _write_output(
        ("t", "width_sq_analytic", "width_sq_grid", "abs_diff"), rows, meta, cfg
    )
    return 0


def _cmd_boost(cfg, spec):
    packet = _packet_from(cfg)
    u = cfg.get("boost_u")
    if u is None:
        raise ConfigError("--boost-u is required")
    gamma = BoostParams.lorentz(u).gamma
    u = float(u)
    m0 = moments_quadrature(packet, spec)
    alpha_b, beta_b = lorentz_boost_params(packet.alpha, packet.beta_r, u)
    wave = boost_minimal_packet(packet, u, spec)
    direct = boosted_wave_moments(wave, spec)
    pred = boosted_expectations(packet, u, m0, spec)

    rows = [
        ("alpha_prime", alpha_b, alpha_b, 0.0),
        ("beta_r_prime", beta_b, beta_b, 0.0),
        (
            "alpha2_minus_beta2",
            packet.alpha**2 - packet.beta_r**2,
            alpha_b**2 - beta_b**2,
            abs((packet.alpha**2 - packet.beta_r**2) - (alpha_b**2 - beta_b**2)),
        ),
        ("norm", 1.0, direct["norm"], abs(direct["norm"] - 1.0)),
        ("mean_E_b", pred.mean_E, direct["mean_E"], abs(pred.mean_E - direct["mean_E"])),
        ("mean_p_b", pred.mean_p, direct["mean_p"], abs(pred.mean_p - direct["mean_p"])),
        ("mean_v_b", pred.mean_v, direct["mean_v"], abs(pred.mean_v - direct["mean_v"])),
    ]
    dx_b = math.sqrt(pred.mean_x2 - pred.mean_x**2)
    dv_b = math.sqrt(direct["mean_v2"] - direct["mean_v"] ** 2)
    bound_b = 0.5 * packet.rel.mass**2 * direct["mean_E_m3"]
    rows.append(("uncertainty_excess_b", "", dx_b * dv_b - bound_b, ""))
    meta = {"tolerance": cfg["tol"], "u": u, "gamma": _canon(gamma)}
    _write_output(("quantity", "predicted", "recomputed", "abs_diff"), rows, meta, cfg)
    return 0


def _model_from(cfg):
    name = cfg.get("model", "powerlaw")
    r0 = float(cfg.get("r0", 1.0))
    if name == "powerlaw":
        return PowerLawScale(
            exponent=float(cfg.get("exponent", 1.0)),
            reference=r0,
            t_scale=float(cfg.get("t_scale", 1.0)),
        )
    if name == "exp":
        return ExponentialScale(hubble=float(cfg.get("hubble", 0.1)), reference=r0)
    if name == "tabulated":
        path = cfg.get("model_file")
        if not path:
            raise ConfigError("--model tabulated requires --model-file")
        try:
            with warnings.catch_warnings():
                # A file without data rows is reported below, not as a warning.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read model file: {exc}")
        if data.size == 0:
            raise ConfigError("model file has no data rows")
        if data.shape[1] < 2:
            raise ConfigError("model file needs two columns: t, R(t)")
        return TabulatedScale(tuple(data[:, 0]), tuple(data[:, 1]))
    raise ConfigError("--model must be powerlaw, exp, or tabulated")


def _cmd_cosmo(cfg, spec):
    packet = _packet_from(cfg)
    model = _model_from(cfg)
    ts = _grid_from(cfg, "t", 0.0, 5.0, 6)
    trace = comoving_trace(packet, model, ts, spec)
    rows = [
        (t, trace.mean_rho[i], trace.mean_rho2[i], trace.mean_x[i], trace.mean_v[i])
        for i, t in enumerate(trace.t_values)
    ]
    m0 = moments_quadrature(packet, spec)
    t0_residual = (
        abs(trace.mean_x[0] - m0.mean_x) if float(ts[0]) == 0.0 else None
    )
    meta = {
        "tolerance": cfg["tol"],
        "model": cfg.get("model", "powerlaw"),
        "t0_consistency": _canon(t0_residual),
    }
    _write_output(("t", "mean_rho", "mean_rho2", "mean_x", "mean_v"), rows, meta, cfg)
    return 0


def _cmd_figures(cfg, spec):
    which = cfg.get("which", "all")
    indices = [1, 2, 3, 4] if which == "all" else [int(which)]
    out = cfg.get("out", "")
    if len(indices) > 1 and out:
        raise ConfigError("--out applies to a single figure; use --out-dir for all")
    out_dir = cfg.get("out_dir", ".")
    if not os.path.isdir(out_dir):
        raise ConfigError(f"--out-dir {out_dir} is not a directory")
    for idx in indices:
        grids = figure_grid(idx, spec)
        columns = ("beta", "t", "x", "density") if len(grids) > 1 else ("t", "x", "density")
        rows = []
        for pk, grid in grids:
            for row in _density_rows(grid):
                rows.append((pk.beta_r,) + row if len(grids) > 1 else row)
        path = out if (out and len(indices) == 1) else os.path.join(out_dir, f"fig{idx}.csv")
        sub_cfg = dict(cfg, out=path)
        meta = {"figure": idx, "tolerance": cfg["tol"]}
        _write_output(columns, rows, meta, sub_cfg)
    return 0


def _cmd_selfcheck(cfg, spec):
    results = run_all(spec=spec)
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        sys.stdout.write(f"{status} {r.name} [{r.elapsed:.1f}s] {r.detail}\n")
    sys.stdout.write("selfcheck: %s\n" % ("all checks passed" if all_pass else "FAILURES"))
    return 0 if all_pass else 1


_COMMANDS = {
    "moments": _cmd_moments,
    "evolve": _cmd_evolve,
    "spread": _cmd_spread,
    "boost": _cmd_boost,
    "cosmo": _cmd_cosmo,
    "figures": _cmd_figures,
    "selfcheck": _cmd_selfcheck,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavekit",
        description="Minimal uncertainty wave packets: moments, evolution, boosts, red-shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grids=False):
        p.add_argument("--config", help="flat JSON config file; flags override its keys")
        p.add_argument("--dispersion", choices=sorted(_KINDS), dest="dispersion")
        p.add_argument("--mass", type=float, dest="mass")
        p.add_argument("--spacing", type=float, dest="spacing")
        p.add_argument("--alpha", type=float, dest="alpha")
        p.add_argument("--beta-re", type=float, dest="beta_re")
        p.add_argument("--beta-im", type=float, dest="beta_im")
        p.add_argument("--tol", type=float, dest="tol")
        p.add_argument("--format", choices=("csv", "json"), dest="format")
        p.add_argument("--out", dest="out")
        if grids:
            p.add_argument("--x-min", type=float, dest="x_min")
            p.add_argument("--x-max", type=float, dest="x_max")
            p.add_argument("--x-steps", type=int, dest="x_steps")
            p.add_argument("--t-min", type=float, dest="t_min")
            p.add_argument("--t-max", type=float, dest="t_max")
            p.add_argument("--t-steps", type=int, dest="t_steps")

    p = sub.add_parser("moments", help="moment sets, uncertainty bound, saturation")
    add_common(p)
    p.add_argument("--method", choices=("closed", "quadrature", "both"), dest="method")

    p = sub.add_parser("evolve", help="density grid of the evolved packet")
    add_common(p, grids=True)
    p.add_argument("--method", choices=("closed", "quadrature"), dest="method")

    p = sub.add_parser("spread", help="spreading law vs evolved-grid widths")
    add_common(p, grids=True)

    p = sub.add_parser("boost", help="Lorentz boost map and boosted expectations")
    add_common(p)
    p.add_argument("--boost-u", type=float, dest="boost_u")

    p = sub.add_parser("cosmo", help="comoving trace in an expanding universe")
    add_common(p, grids=True)
    p.add_argument("--model", choices=("powerlaw", "exp", "tabulated"), dest="model")
    p.add_argument("--exponent", type=float, dest="exponent")
    p.add_argument("--t-scale", type=float, dest="t_scale")
    p.add_argument("--hubble", type=float, dest="hubble")
    p.add_argument("--r0", type=float, dest="r0")
    p.add_argument("--model-file", dest="model_file")

    p = sub.add_parser("figures", help="emit the data grids behind figures 1-4")
    add_common(p)
    p.add_argument("--which", choices=("1", "2", "3", "4", "all"), dest="which")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("selfcheck", help="run the full invariant suite")
    add_common(p)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        spec = _spec_from(cfg)
        return _COMMANDS[args.command](cfg, spec)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NonConvergence as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except WavekitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
