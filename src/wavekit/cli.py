"""Command-line front end.

Subcommands: ``moments``, ``evolve``, ``spread``, ``boost``, ``cosmo``,
``figures``, ``selfcheck``. argparse is the one place an input is
converted, checked and defaulted. A flat JSON config file (``--config``)
becomes ``--key=value`` tokens placed before the command-line flags, so its
values meet the flags' own types, choices and errors; a ``null`` value
counts as absent, and keys the subcommand does not take are ignored. The
environment variable WAVEKIT_TOL is the default of ``--tol``. Precedence:
flag, then config file, then WAVEKIT_TOL, then the built-in default.
Numeric output is formatted to 15 significant digits so identical
configurations produce byte-identical files, and JSON carries exactly the
values printed to CSV.

Exit codes: 0 success, 1 selfcheck failure or non-convergence, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .analysis import _evolved_central
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
    MomentSet,
    moments_closed_form,
    moments_quadrature,
    spreading_width_sq,
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


def _write_output(columns, rows, meta, args, path=None):
    """Write the table to ``path`` (default ``--out``), or to stdout when
    that is empty."""
    path = path or args.out
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    csv_text = "\n".join(lines) + "\n"
    if args.format == "csv":
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
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(payload)


def _config_tokens(args):
    """The ``--config`` file's entries as ``--key=value`` tokens for the
    options of ``args.command``; the ``=`` form keeps a value that starts
    with ``-`` from reading as an option."""
    try:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in file_cfg.items()
        if key in vars(args) and key not in ("command", "config") and value is not None
    ]


def _spec_from(args):
    try:
        return QuadratureSpec(args.tol)
    except WavekitError as exc:
        raise ConfigError(str(exc))


def _packet_from(args):
    if args.dispersion is None:
        raise ConfigError("--dispersion must be one of nonrel, lattice, rel, massless")
    if args.alpha is None:
        raise ConfigError("--alpha is required")
    try:
        rel = _KINDS[args.dispersion](args.mass, args.spacing)
        return make_minimal(rel, args.alpha, args.beta_re, args.beta_im)
    except WavekitError as exc:
        raise ConfigError(str(exc))


def _grid_from(args, key):
    lo, hi, steps = (getattr(args, f"{key}_{end}") for end in ("min", "max", "steps"))
    if steps < 2:
        raise ConfigError(f"--{key}-steps must be >= 2")
    if not hi > lo:
        raise ConfigError(f"--{key}-max must exceed --{key}-min")
    return np.linspace(lo, hi, steps)


def _row(name, a, b):
    """A comparison row: both values and |a - b|, blank where either is absent."""
    return (name, a, b, None if a is None or b is None else abs(a - b))


def _cmd_moments(args, spec):
    """The bound's quadrature column is the oracle's (1/2)|<E''>|; massless has none."""
    packet = _packet_from(args)
    method = args.method
    closed_set = moments_closed_form(packet)
    closed = closed_set if method in ("closed", "both") else None
    quad = moments_quadrature(packet, spec) if method in ("quadrature", "both") else None
    rows = [_row(f, getattr(closed, f, None), getattr(quad, f, None)) for f in MomentSet.FIELDS]
    max_diff = max((r[3] for r in rows if r[3] is not None), default=0.0)
    bound = closed_set.bound
    rows.append(_row("uncertainty_bound", bound, getattr(quad, "bound", None)))
    residuals = [m and m.width_x * m.width_v - bound for m in (closed, quad)]
    rows.append(_row("saturation_residual", *residuals))
    meta = {
        "tolerance": args.tol,
        "max_abs_diff": _canon(max_diff),
        "alpha": packet.alpha,
        "beta_r": packet.beta_r,
        "beta_i": packet.beta_i,
        "norm_A": _canon(packet.norm_A),
    }
    _write_output(("quantity", "closed", "quadrature", "abs_diff"), rows, meta, args)
    return 0


def _density_rows(grid):
    rows = []
    for i, t in enumerate(grid.t_values):
        for j, x in enumerate(grid.x_values):
            rows.append((t, x, grid.density[i][j]))
    return rows


def _cmd_evolve(args, spec):
    packet = _packet_from(args)
    xs = _grid_from(args, "x")
    ts = _grid_from(args, "t")
    grid = density_grid(packet, xs, ts, args.method, spec)
    masses = [float(np.trapezoid(row, xs)) for row in grid.density]
    meta = {
        "tolerance": args.tol,
        "method": args.method,
        "max_mass_deviation": _canon(max(abs(m - 1.0) for m in masses)),
    }
    _write_output(("t", "x", "density"), _density_rows(grid), meta, args)
    return 0


def _cmd_spread(args, spec):
    packet = _packet_from(args)
    ts = _grid_from(args, "t")
    m0 = moments_quadrature(packet, spec)
    rows = []
    worst = 0.0
    for t in ts:
        analytic = spreading_width_sq(m0, float(t))
        from_grid = _evolved_central(packet, float(t), m0, spec)[2]
        diff = abs(analytic - from_grid)
        worst = max(worst, diff / analytic)
        rows.append((t, analytic, from_grid, diff))
    meta = {"tolerance": args.tol, "max_rel_deviation": _canon(worst)}
    _write_output(("t", "width_sq_analytic", "width_sq_grid", "abs_diff"), rows, meta, args)
    return 0


def _cmd_boost(args, spec):
    packet = _packet_from(args)
    u = args.boost_u
    if u is None:
        raise ConfigError("--boost-u is required")
    gamma = BoostParams.lorentz(u).gamma
    m0 = moments_quadrature(packet, spec)
    alpha_b, beta_b = lorentz_boost_params(packet.alpha, packet.beta_r, u)
    wave = boost_minimal_packet(packet, u, spec)
    direct = boosted_wave_moments(wave, spec)
    pred = boosted_expectations(packet, u, m0, spec)

    # Factored on both sides: alpha_b**2 - beta_b**2 cancels the large squares.
    invariant = (packet.alpha - packet.beta_r) * (packet.alpha + packet.beta_r)
    invariant_b = (alpha_b - beta_b) * (alpha_b + beta_b)
    rows = [
        _row("alpha_prime", alpha_b, alpha_b),
        _row("beta_r_prime", beta_b, beta_b),
        _row("alpha2_minus_beta2", invariant, invariant_b),
        _row("norm", 1.0, direct["norm"]),
        _row("mean_E_b", pred.mean_E, direct["mean_E"]),
        _row("mean_p_b", pred.mean_p, direct["mean_p"]),
        _row("mean_v_b", pred.mean_v, direct["mean_v"]),
        ("uncertainty_excess_b", pred.width_x * pred.width_v - pred.bound, "", ""),
    ]
    meta = {"tolerance": args.tol, "u": u, "gamma": _canon(gamma)}
    _write_output(("quantity", "predicted", "recomputed", "abs_diff"), rows, meta, args)
    return 0


def _model_from(args):
    if args.model == "powerlaw":
        return PowerLawScale(exponent=args.exponent, reference=args.r0, t_scale=args.t_scale)
    if args.model == "exp":
        return ExponentialScale(hubble=args.hubble, reference=args.r0)
    if not args.model_file:
        raise ConfigError("--model tabulated requires --model-file")
    try:
        with warnings.catch_warnings():
            # A file without data rows is reported below, not as a warning.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.model_file, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read model file: {exc}")
    if data.size == 0:
        raise ConfigError("model file has no data rows")
    if data.shape[1] < 2:
        raise ConfigError("model file needs two columns: t, R(t)")
    return TabulatedScale(tuple(data[:, 0]), tuple(data[:, 1]))


def _cmd_cosmo(args, spec):
    packet = _packet_from(args)
    model = _model_from(args)
    ts = _grid_from(args, "t")
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
        "tolerance": args.tol,
        "model": args.model,
        "t0_consistency": _canon(t0_residual),
    }
    _write_output(("t", "mean_rho", "mean_rho2", "mean_x", "mean_v"), rows, meta, args)
    return 0


def _cmd_figures(args, spec):
    indices = [i for i in (1, 2, 3, 4) if args.which in ("all", str(i))]
    if len(indices) > 1 and args.out:
        raise ConfigError("--out applies to a single figure; use --out-dir for all")
    if not os.path.isdir(args.out_dir):
        raise ConfigError(f"--out-dir {args.out_dir} is not a directory")
    for idx in indices:
        grids = figure_grid(idx)
        columns = ("beta", "t", "x", "density") if len(grids) > 1 else ("t", "x", "density")
        rows = []
        for pk, grid in grids:
            for row in _density_rows(grid):
                rows.append((pk.beta_r,) + row if len(grids) > 1 else row)
        path = args.out or os.path.join(args.out_dir, f"fig{idx}.csv")
        meta = {"figure": idx, "tolerance": args.tol}
        _write_output(columns, rows, meta, args, path)
    return 0


def _cmd_selfcheck(args, spec):
    results = run_all(spec)
    for r in results:
        sys.stdout.write(r.line + "\n")
    all_pass = all(r.passed for r in results)
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
    """The top-level parser and its subparsers by name. Each option's dest
    is its name with ``-`` read as ``_``, the form ``_config_tokens`` maps
    config keys back through."""
    parser = argparse.ArgumentParser(
        prog="wavekit",
        description="Minimal uncertainty wave packets: moments, evolution, boosts, red-shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, summary, grids=()):
        p = subparsers[name] = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat JSON config file; flags override its keys")
        p.add_argument("--dispersion", choices=sorted(_KINDS))
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--spacing", type=float, default=1.0)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta-re", type=float, default=0.0)
        p.add_argument("--beta-im", type=float, default=0.0)
        # A string default passes through type=float like a flag value.
        p.add_argument("--tol", type=float, default=os.environ.get("WAVEKIT_TOL", "1e-10"))
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="")
        if "x" in grids:
            p.add_argument("--x-min", type=float, default=-10.0)
            p.add_argument("--x-max", type=float, default=10.0)
            p.add_argument("--x-steps", type=int, default=201)
        if "t" in grids:
            p.add_argument("--t-min", type=float, default=0.0)
            p.add_argument("--t-max", type=float, default=5.0)
            p.add_argument("--t-steps", type=int, default=6)
        return p

    p = add("moments", "moment sets, uncertainty bound, saturation")
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="both")

    p = add("evolve", "density grid of the evolved packet", grids=("x", "t"))
    p.add_argument("--method", choices=("closed", "quadrature"), default="closed")

    add("spread", "spreading law vs evolved-grid widths", grids=("t",))

    p = add("boost", "Lorentz boost map and boosted expectations")
    p.add_argument("--boost-u", type=float)

    p = add("cosmo", "comoving trace in an expanding universe", grids=("t",))
    p.add_argument("--model", choices=("powerlaw", "exp", "tabulated"), default="powerlaw")
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--t-scale", type=float, default=1.0)
    p.add_argument("--hubble", type=float, default=0.1)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--model-file")

    p = add("figures", "emit the data grids behind figures 1-4")
    p.add_argument("--which", choices=("1", "2", "3", "4", "all"), default="all")
    p.add_argument("--out-dir", default=".")

    add("selfcheck", "run the full invariant suite")
    return parser, subparsers


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Parse again with the file's tokens first: the flags after them win.
            rest = argv[argv.index(args.command) + 1:]
            args = subparsers[args.command].parse_args(
                _config_tokens(args) + rest, argparse.Namespace(command=args.command)
            )
        spec = _spec_from(args)
        return _COMMANDS[args.command](args, spec)
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
