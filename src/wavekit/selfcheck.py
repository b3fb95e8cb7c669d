"""End-to-end verification suite.

Each check pits a closed form against an independent numerical route
(quadrature oracle, evolved density grid, finite differences) at a fixed
tolerance and returns ``(passed, detail)``. The CLI ``selfcheck`` subcommand
and the acceptance tests both print ``run_check``'s report line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import numerics
from .analysis import (
    _evolved_central,
    centroid_slope,
    peak_positions,
    ridge_slope,
    second_difference_sign_changes,
)
from .boost import (
    boost_minimal_packet,
    boosted_expectations,
    boosted_wave_moments,
    lorentz_boost_params,
)
from .cosmology import (
    ExponentialScale,
    PowerLawScale,
    classical_velocity,
    comoving_trace,
    mean_velocity,
)
from .dispersion import DispersionRelation
from .moments import (
    ehrenfest_position,
    moments_closed_form,
    moments_quadrature,
    spreading_width_sq,
    uncertainty_bound,
)
from .numerics import DEFAULT_SPEC, bessel_i_integer, bessel_j0_y0, bessel_k01
from .packet import expectation_many, make_minimal
from .propagation import density_grid, evolve_closed, evolve_quadrature, greens_closed

__all__ = ["CheckResult", "CHECKS", "run_check", "run_all", "reference_packets"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    @property
    def line(self):
        """The report line: ``PASS name [t s] detail``, or ``FAIL ...``."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} [{self.elapsed:.1f}s] {self.detail}"


def _result(worst, tol, extra=""):
    detail = f"worst {worst:.3e} <= {tol:.0e}"
    if extra:
        detail += f"; {extra}"
    return worst <= tol, detail


def _kind_rel(kind):
    if kind == "nonrel":
        return DispersionRelation.non_relativistic(3.0)
    if kind == "lattice":
        return DispersionRelation.lattice(3.0, 1.0)
    if kind == "rel":
        return DispersionRelation.relativistic(1.0)
    return DispersionRelation.massless()


def reference_packets():
    """The acceptance parameter grid: alpha in {0.5, 1, 2} x beta_r in
    {0, 0.25 alpha, 0.5 alpha} per kind (lattice restricted to beta_r = 0)."""
    packets = []
    for kind in ("nonrel", "lattice", "rel", "massless"):
        rel = _kind_rel(kind)
        for alpha in (0.5, 1.0, 2.0):
            fracs = (0.0,) if kind == "lattice" else (0.0, 0.25, 0.5)
            for frac in fracs:
                packets.append((kind, make_minimal(rel, alpha, frac * alpha, 0.0)))
    return packets


def _rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check_moments_oracle(spec=DEFAULT_SPEC):
    """Criterion 1: every closed-form moment matches quadrature to 1e-8."""
    worst = 0.0
    where = ""
    for kind, pk in reference_packets():
        mq = moments_quadrature(pk, spec)
        mc = moments_closed_form(pk)
        for field in mq.FIELDS:
            closed = getattr(mc, field)
            if closed is None:
                continue
            d = _rel_diff(getattr(mq, field), closed)
            if d > worst:
                worst, where = d, f"{kind} a={pk.alpha} b={pk.beta_r} {field}"
    return _result(worst, 1e-8, extra=where)


def check_saturation(spec=DEFAULT_SPEC):
    """Criterion 2: Dx Dv = (1/2)|<d2E/dp2>| to 1e-7 for every packet."""
    worst = 0.0
    for kind, pk in reference_packets():
        mq = moments_quadrature(pk, spec)
        residual = abs(mq.width_x * mq.width_v - uncertainty_bound(pk))
        worst = max(worst, residual)
    return _result(worst, 1e-7)


def _spreading_packets():
    return [
        ("nonrel", make_minimal(_kind_rel("nonrel"), 1.0, 0.5, 0.0)),
        ("lattice", make_minimal(_kind_rel("lattice"), 1.0, 0.0, 0.0)),
        ("rel", make_minimal(_kind_rel("rel"), 1.0, 0.5, 0.0)),
        ("massless", make_minimal(_kind_rel("massless"), 1.0, 0.5, 0.0)),
    ]


def check_spreading_law(spec=DEFAULT_SPEC):
    """Criterion 3: grid-evolved Dx(t)^2 and <x>(t) match the closed laws."""
    worst_var = 0.0
    worst_drift = 0.0
    for kind, pk in _spreading_packets():
        m0 = moments_quadrature(pk, spec)
        for t in (0.0, 1.0, 2.0, 5.0):
            _, mean, var = _evolved_central(pk, t, m0, spec)
            pred_var = spreading_width_sq(m0, t)
            pred_mean = ehrenfest_position(m0, t)
            worst_var = max(worst_var, abs(var - pred_var) / pred_var)
            worst_drift = max(worst_drift, abs(mean - pred_mean) / max(1.0, abs(pred_mean)))
    ok_var, detail = _result(worst_var, 1e-5)
    ok_drift = worst_drift <= 1e-6
    detail += f"; drift {worst_drift:.3e} <= 1e-06"
    return ok_var and ok_drift, detail


def _continuation_grid(kind, m0):
    if kind == "lattice":
        return np.arange(-10.0, 11.0)
    width5 = math.sqrt(spreading_width_sq(m0, 5.0))
    lo = ehrenfest_position(m0, 0.0) - 4.0 * width5
    hi = ehrenfest_position(m0, 5.0) + 4.0 * width5
    return np.linspace(lo, hi, 21)


def check_continuation(spec=DEFAULT_SPEC):
    """Criterion 4: evolve_closed vs evolve_quadrature pointwise <= 1e-6."""
    worst = 0.0
    where = ""
    for kind, pk in _spreading_packets():
        m0 = moments_quadrature(pk, spec)
        xs = _continuation_grid(kind, m0)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            d = np.abs(evolve_closed(pk, xs, t) - evolve_quadrature(pk, xs, t, spec).value)
            j = int(np.argmax(d))
            if d[j] > worst:
                worst, where = float(d[j]), f"{kind} x={xs[j]:.3g} t={t}"
    return _result(worst, 1e-6, extra=where)


def check_spacelike_tail(spec=DEFAULT_SPEC):
    """Criterion 5: nonzero space-like tail with decay rate m, and
    inside/outside agreement across the light cone."""
    m = 1.0
    rel = DispersionRelation.relativistic(m)
    t = 1.0
    s_vals = np.linspace(5.0 / m, 15.0 / m, 21)
    xs = np.sqrt(t * t + s_vals * s_vals)
    g = np.atleast_1d(greens_closed(rel, xs, t))
    mags = np.abs(g)
    if not np.all(mags > 0.0):
        return False, "tail vanished at a space-like point"
    # Remove the known algebraic prefactor ~ s^{-3/2} so the fitted slope
    # isolates the exponential decay constant.
    slope = np.polyfit(s_vals, np.log(mags * s_vals**1.5), 1)[0]
    slope_err = abs(slope + m) / m

    # Overlap band slightly inside the cone: the J/N form against the K form
    # continued with a whisper of negative imaginary time.
    t_band = 2.0
    worst_band = 0.0
    for ratio in np.linspace(1.001, 1.01, 7):
        x = t_band / ratio
        inside = complex(greens_closed(rel, x, t_band))
        continued = complex(greens_closed(rel, x, t_band - 1e-10j))
        worst_band = max(worst_band, abs(inside - continued) / abs(inside))

    passed = slope_err <= 0.05 and worst_band <= 1e-5
    detail = f"log-slope err {slope_err:.3e} <= 5e-02; overlap {worst_band:.3e} <= 1e-05"
    return passed, detail


def check_lorentz_suite(spec=DEFAULT_SPEC):
    """Criterion 6: boosted norm, linear <E>/<p> maps, parameter invariant,
    strict non-minimality, and the infinitesimal generator."""
    rel = DispersionRelation.relativistic(1.0)
    pk = make_minimal(rel, 1.0, 0.0, 0.0)
    m0 = moments_quadrature(pk, spec)
    u = 0.6
    wave = boost_minimal_packet(pk, u, spec)
    direct = boosted_wave_moments(wave, spec)
    pred = boosted_expectations(pk, u, m0, spec)

    norm_err = abs(direct["norm"] - 1.0)
    e_err = abs(direct["mean_E"] - pred.mean_E)
    p_err = abs(direct["mean_p"] - pred.mean_p)
    v_err = abs(direct["mean_v"] - pred.mean_v)

    a2, b2 = lorentz_boost_params(pk.alpha, pk.beta_r, u)
    inv_err = abs((a2 - b2) * (a2 + b2) - (pk.alpha - pk.beta_r) * (pk.alpha + pk.beta_r))

    excess = pred.width_x * pred.width_v - pred.bound

    u_small = 1e-5
    wave_small = boost_minimal_packet(pk, u_small, spec)
    p_grid = np.linspace(-2.0, 2.0, 41)
    lhs = (wave_small.evaluator(p_grid) - pk.amplitude(p_grid)) / u_small
    e = np.sqrt(p_grid**2 + rel.mass**2)
    v = p_grid / e
    psi = pk.amplitude(p_grid)
    rhs = 0.5 * v * psi + e * (pk.beta - pk.alpha * v) * psi
    gen_err = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))

    checks = [
        ("norm", norm_err, 1e-8),
        ("<E>_b", e_err, 1e-7),
        ("<p>_b", p_err, 1e-7),
        ("<v>_b", v_err, 1e-7),
        ("invariant", inv_err, 1e-12),
        ("generator", gen_err, 1e-4),
    ]
    passed = all(err <= tol for _, err, tol in checks) and excess >= 1e-4
    detail = (
        "; ".join(f"{n} {err:.2e}<= {tol:.0e}" for n, err, tol in checks)
        + f"; minimality excess {excess:.2e} >= 1e-04"
    )
    return passed, detail


def figure_grid(which):
    """Density grids for the four reference spreading scenarios: Gaussian,
    lattice, relativistic, and massless packets."""
    t_vals = np.linspace(0.0, 10.0, 21)
    if which == 1:
        rel = _kind_rel("nonrel")
        xs = np.linspace(-8.0, 14.0, 441)
        packets = [make_minimal(rel, 1.0, b, 0.0) for b in (0.0, 0.5)]
    elif which == 2:
        rel = _kind_rel("lattice")
        xs = np.arange(-25.0, 26.0)
        packets = [make_minimal(rel, 1.0, 0.0, 0.0)]
    elif which == 3:
        rel = DispersionRelation.relativistic(1.0)
        # Wide enough to hold the full light cone at t = 10 plus tails.
        xs = np.linspace(-14.0, 16.0, 601)
        packets = [make_minimal(rel, 1.0, b, 0.0) for b in (0.0, 0.5)]
    elif which == 4:
        rel = _kind_rel("massless")
        xs = np.linspace(-12.0, 12.0, 481)
        packets = [make_minimal(rel, 1.0, b, 0.0) for b in (0.0, 0.5)]
    else:
        raise ValueError("figure index must be 1..4")
    return [(pk, density_grid(pk, xs, t_vals)) for pk in packets]


def check_figures(spec=DEFAULT_SPEC):
    """Criterion 7: qualitative figure behaviors at the data level."""
    details = []
    ok = True

    pk1, grid1 = figure_grid(1)[1]
    slope1 = ridge_slope(grid1)
    ok &= abs(slope1 - 0.5) <= 0.01
    details.append(f"fig1 slope {slope1:.4f} (0.5 +/- 2%)")

    _, grid2 = figure_grid(2)[0]
    changes = second_difference_sign_changes(grid2.density[-1])
    ok &= changes >= 3
    details.append(f"fig2 curvature sign changes {changes} >= 3")

    # The relativistic packet is skewed: its density mode outruns <v>, so
    # the drift is measured from the centroid, which follows Ehrenfest.
    pk3, grid3 = figure_grid(3)[1]
    slope3 = centroid_slope(grid3)
    ok &= abs(slope3 - 0.5) <= 0.01
    details.append(f"fig3 centroid slope {slope3:.4f} (0.5 +/- 2%)")

    _, grid4 = figure_grid(4)[0]
    row5 = grid4.density[list(grid4.t_values).index(5.0)]
    peaks = sorted(peak_positions(grid4.x_values, row5, max_peaks=2))
    bimodal = len(peaks) == 2 and abs(peaks[0] + 5.0) <= 0.5 and abs(peaks[1] - 5.0) <= 0.5
    ok &= bimodal
    details.append(f"fig4 peaks at {peaks} (within 0.5 of +/-5)")

    return bool(ok), "; ".join(details)


def check_cosmology(spec=DEFAULT_SPEC):
    """Criterion 8: red-shift laws, comoving traces against exact drifts,
    conservation identity, static reduction."""
    model = PowerLawScale(exponent=1.0, reference=1.0, t_scale=1.0)
    expo = ExponentialScale(hubble=0.3, reference=2.0)

    # Massless constancy: mean_velocity against a quadrature of sign(p).
    pk_ml = make_minimal(_kind_rel("massless"), 1.0, 0.5, 0.0)
    vals, _ = expectation_many(pk_ml, lambda p: np.sign(p)[:, np.newaxis], spec)
    v_ml = float(vals[0].real)
    worst_ml = 0.0
    for mdl, t in ((model, 2.0), (expo, 3.0), (model, 7.0)):
        worst_ml = max(worst_ml, abs(mean_velocity(pk_ml, mdl, t, spec) - v_ml))

    def trace_residual(pk, ts, drift):
        """Worst gap of a power-law trace's mean_v column to mean_velocity
        and of its <rho> drift to the closed form (beta_r/alpha) drift(t)."""
        trace = comoving_trace(pk, model, ts, spec)
        worst = 0.0
        for i, t in enumerate(ts):
            worst = max(
                worst,
                abs(trace.mean_v[i] - mean_velocity(pk, model, t, spec)),
                abs(trace.mean_rho[i] - trace.mean_rho[0] - pk.beta_r / pk.alpha * drift(t)),
            )
        return worst

    # int_0^t R(0) dt'/R(t') = log(1 + t) for R = 1 + t.
    worst_ml = max(worst_ml, trace_residual(pk_ml, np.array([0.0, 2.0, 7.0]), math.log1p))

    # Non-relativistic red-shift: mean_velocity against a quadrature of
    # the red-shifted velocity p R(0) / (m R(t)); the trace drift is
    # int_0^t R(0) dt'/R(t')^2 = t / (1 + t).
    pk_nr = make_minimal(_kind_rel("nonrel"), 1.0, 0.5, 0.0)
    worst_nr = 0.0
    for t in (1.0, 3.0):
        shift = float(model.scale(0.0)) / float(model.scale(t))

        def w(p):
            return (p * shift / pk_nr.rel.mass)[:, np.newaxis]

        vals, _ = expectation_many(pk_nr, w, spec)
        v_nr = mean_velocity(pk_nr, model, t, spec)
        worst_nr = max(worst_nr, abs(v_nr - float(vals[0].real)))
    ts = np.array([0.0, 1.0, 3.0])
    worst_nr = max(worst_nr, trace_residual(pk_nr, ts, lambda t: t / (1.0 + t)))

    # Classical conserved-momentum identity v gamma R = const.
    worst_cl = 0.0
    for v0 in (0.2, 0.6, 0.95):
        for t in (0.5, 2.0, 8.0):
            r = float(model.scale(t))
            v = classical_velocity(v0, 1.0, r)
            g = 1.0 / math.sqrt(1.0 - v * v)
            g0 = 1.0 / math.sqrt(1.0 - v0 * v0)
            worst_cl = max(worst_cl, abs(v * g * r - v0 * g0))

    # Static universe reduces to the flat spreading law.
    pk_rel = make_minimal(DispersionRelation.relativistic(1.0), 1.0, 0.5, 0.0)
    static = PowerLawScale(exponent=0.0, reference=2.0, t_scale=1.0)
    trace = comoving_trace(pk_rel, static, np.array([0.0, 1.0, 2.0, 5.0]), spec)
    m0 = moments_quadrature(pk_rel, spec)
    worst_static = 0.0
    for i, t in enumerate(trace.t_values):
        worst_static = max(worst_static, abs(4.0 * trace.var_rho[i] - spreading_width_sq(m0, t)))

    # Relativistic red-shift on R = 1 + t, where the time integral is exact:
    # W(t, p) = asinh(p/m) - asinh(p/(m (1 + t))).
    ts = np.array([0.0, 1.0, 2.0, 5.0])
    trace = comoving_trace(pk_rel, model, ts, spec)
    mass = pk_rel.rel.mass

    def exact(p):
        w = np.arcsinh(p / mass)[:, np.newaxis] - np.arcsinh(np.outer(p, 1.0 / (mass * (1.0 + ts))))
        return np.column_stack([w, w * w])

    vals, _ = expectation_many(pk_rel, exact, spec, columns=2 * len(ts))
    w_mean, w_sq = vals.real.reshape(2, len(ts))
    worst_rr = float(max(
        np.max(np.abs(trace.mean_rho - (m0.mean_x + w_mean))),
        np.max(np.abs(trace.var_rho - (m0.var_x + w_sq - w_mean**2))),
    ))

    checks = [
        ("massless", worst_ml, 1e-10),
        ("nonrel-redshift", worst_nr, 1e-6),
        ("rel-redshift", worst_rr, 1e-8),
        ("classical", worst_cl, 1e-12),
        ("static", worst_static, 1e-6),
    ]
    passed = all(err <= tol for _, err, tol in checks)
    detail = "; ".join(f"{n} {err:.2e}<= {tol:.0e}" for n, err, tol in checks)
    return passed, detail


def check_special_functions(spec=DEFAULT_SPEC):
    """Criterion 9: Wronskian, derivative identities, conjugation symmetry,
    I_n against its integral representation, and the K series/sum overlap."""
    failures = []

    def fd(fun, z, h):
        return (fun(z + h) - fun(z - h)) / (2.0 * h)

    # Wronskian J0 N0' - J0' N0 = 2/(pi x), Richardson-extrapolated FD.
    for x in (1.0, 5.0, 20.0):
        def wronskian(h):
            j0, y0 = bessel_j0_y0(x)
            dj = fd(lambda s: bessel_j0_y0(s)[0], x, h)
            dy = fd(lambda s: bessel_j0_y0(s)[1], x, h)
            return j0 * dy - dj * y0

        w = (4.0 * wronskian(5e-5) - wronskian(1e-4)) / 3.0
        err = abs(w - 2.0 / (math.pi * x))
        if err > 1e-10:
            failures.append(f"wronskian x={x}: {err:.2e}")

    # K0' = -K1 by central differences.
    for z in (1.0, 2.0 + 1.0j, 5.0 - 3.0j):
        dk0 = fd(lambda s: bessel_k01(s)[0].value, z, 1e-5)
        k1 = bessel_k01(z)[1].value
        err = abs(dk0 + k1)
        if err > 1e-7:
            failures.append(f"K0'=-K1 z={z}: {err:.2e}")

    # I0' = I1 across [0.1, 20].
    for x in np.linspace(0.1, 20.0, 9):
        di0 = fd(lambda s: bessel_i_integer(0, s).value, x, 1e-5)
        err = abs(di0 - bessel_i_integer(1, x).value)
        if err > 1e-8 * max(1.0, abs(bessel_i_integer(1, x).value)):
            failures.append(f"I0'=I1 x={x:.2f}: {err:.2e}")

    # Conjugation symmetry and positivity.
    for z in (2.0 + 3.0j, 0.5 - 0.2j, 7.0 + 6.0j):
        for n in (0, 2):
            a = bessel_i_integer(n, z).value
            b = bessel_i_integer(n, np.conj(z)).value
            if abs(a - np.conj(b)) > 1e-12 * max(1.0, abs(a)):
                failures.append(f"I conj z={z}")
        ka = bessel_k01(z)
        kb = bessel_k01(np.conj(z))
        if abs(ka[0].value - np.conj(kb[0].value)) > 1e-12 * max(1.0, abs(ka[0].value)):
            failures.append(f"K conj z={z}")
    for x in (0.1, 1.0, 5.0, 20.0):
        vals = [
            bessel_i_integer(0, x).value.real,
            bessel_i_integer(1, x).value.real,
            bessel_k01(x)[0].value.real,
            bessel_k01(x)[1].value.real,
        ]
        if min(vals) <= 0.0:
            failures.append(f"positivity x={x}")

    # I_n by the recurrence against (1/pi) int_0^pi e^{z cos t} cos(nt) dt.
    orders = np.array([0, 1, 2, 5])
    for r in (0.5, 4.0, 8.0):
        for phase in (0.0, 0.4, 0.9):
            z = r * complex(math.cos(phase), math.sin(phase))
            ref, _ = numerics._adaptive(
                lambda t: np.exp(z * np.cos(t))[:, None] * np.cos(np.outer(t, orders)) / math.pi,
                np.linspace(0.0, math.pi, 9), spec, columns=len(orders),
            )
            got = numerics._i_recurrence(orders, z)[0]
            err = np.max(np.abs(got - ref) / np.abs(ref))
            if err > 1e-9:
                failures.append(f"I_n vs integral z={z:.2f}: {err:.2e}")

    # K series/sum overlap on |z| in [3, 5], around the switch at 4; at
    # z = -ir it carries J/Y (DLMF 10.27.8).
    worst_overlap = 0.0
    for r in (3.0, 4.0, 5.0):
        zs = [r * complex(math.cos(phase), math.sin(phase)) for phase in (0.0, 0.4, 0.9)]
        for z in zs + [-1j * r]:
            s0, s1, _, _ = numerics._k01_series(np.array([z]))
            q0, q1, _, _ = numerics._k01_quadrature(np.array([z]))
            worst_overlap = max(worst_overlap, abs(s0[0] - q0[0]) / abs(s0[0]))
            worst_overlap = max(worst_overlap, abs(s1[0] - q1[0]) / abs(s1[0]))
    if worst_overlap > 1e-9:
        failures.append(f"regime overlap {worst_overlap:.2e}")

    # Asymptotic ratio check: K0/K1 in (0.9, 1) at large real argument.
    for x in (10.0, 50.0):
        k0, k1 = bessel_k01(x)
        ratio = (k0.value / k1.value).real
        if not 0.9 < ratio < 1.0:
            failures.append(f"K0/K1 ratio x={x}: {ratio}")

    passed = not failures
    detail = "all identities within tolerance" if passed else "; ".join(failures[:4])
    return passed, f"{detail}; overlap {worst_overlap:.2e}"


CHECKS = {
    "moments-oracle": check_moments_oracle,
    "saturation": check_saturation,
    "spreading-law": check_spreading_law,
    "greens-continuation": check_continuation,
    "spacelike-tail": check_spacelike_tail,
    "lorentz-suite": check_lorentz_suite,
    "figures": check_figures,
    "cosmology": check_cosmology,
    "special-functions": check_special_functions,
}


def run_check(name, spec=DEFAULT_SPEC):
    """Run the check registered as ``name`` and time it."""
    start = time.time()
    passed, detail = CHECKS[name](spec)
    return CheckResult(name, passed, detail, time.time() - start)


def run_all(spec=DEFAULT_SPEC):
    """Every check's result, in ``CHECKS`` order."""
    return [run_check(name, spec) for name in CHECKS]
