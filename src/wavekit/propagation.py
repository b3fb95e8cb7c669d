"""Free time evolution: closed-form Green's functions and the Fourier oracle.

A minimal packet evolves as the analytic continuation of the Green's
function, Phi(x, t) = A G(x - i beta, t - i alpha). The relativistic
Green's function is one formula, G = i m t K_1(m w)/(pi w) with
w = sqrt(x^2 - t^2), for real and complex arguments alike. The square root
takes the principal branch (Re >= 0), which keeps the K argument in the
right half-plane whenever Im t < 0 and |beta_r| < alpha. Inside the real
light cone the t - i0 side puts w on the imaginary axis, where K_1 is the
J_1/N_1 form (DLMF 10.27.8), so one K_1 evaluation covers both regions and
both signs of t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Kind
from .errors import InvalidInput, LightConeSingular, NonConvergence, NonIntegerSite, OverflowSignal
from .numerics import (
    DEFAULT_SPEC,
    _amplitude,
    _bessel_i_vec,
    _bessel_k01_vec,
    _MAX_SUBDIVISIONS,
    _PERIODIC_MAX_POINTS,
    _line_integral,
    _periodic,
)
from .packet import density_window

__all__ = [
    "DensityGrid",
    "greens_closed",
    "evolve_closed",
    "evolve_quadrature",
    "density_grid",
]

_CONE_BAND = 1e-12  # relative exclusion band around the light cone
# x points per oracle integral: bounds the integrand's memory (a 20001-point
# rel row in one integral peaked at 289 MB, in blocks of 64 at 34 MB).
_X_BLOCK = 64


@dataclass(frozen=True)
class DensityGrid:
    """Coordinate-space probability density on an (t, x) grid.

    ``density[i][j]`` is |Phi(x_j, t_i)|^2 with the 1/2pi Fourier
    convention, so trapezoid sums over x approximate 1 for wide grids.
    """

    x_values: np.ndarray
    t_values: np.ndarray
    density: np.ndarray
    method: str


def _site_sum(rel, *positions):
    """Sum of the site numbers of lattice ``positions``, added as float64
    integers (exact below 2^53); ``NonIntegerSite`` if any is off the sites,
    ``OverflowSignal`` where infinite site numbers of both signs meet."""
    sites = [rel._sites(x) for x in positions]
    if any(n is None for n in sites):
        raise NonIntegerSite("lattice Green's function is defined on x = n a only")
    with np.errstate(invalid="ignore"):
        total = sum(sites)
    if np.any(np.isnan(total)):
        raise OverflowSignal("lattice site numbers past float max cancel in a sum")
    return total


def _lattice_greens(rel, n, t):
    """G = I_n(i t / m a^2) / a at float64 site numbers ``n``. Every row has
    underflowed by order 2^62, so the clip before the integer cast leaves
    G = 0 there, at infinite site numbers too."""
    a = rel.lattice_spacing
    n = np.clip(n, -(2.0**62), 2.0**62).astype(np.int64)
    vals, _ = _bessel_i_vec(n, 1j * complex(t) / (rel.mass * a * a))
    return vals / a


def _require_off_cone(x, t):
    """Reject real points within the relative band around |x| = |t|."""
    scale = np.maximum(x * x, t * t)
    if np.any(np.abs(x * x - t * t) < _CONE_BAND * np.maximum(scale, 1e-300)):
        raise LightConeSingular("real evaluation point within the light-cone band")


def _greens_relativistic(mass, x, t):
    """G = i m t K_1(m w)/(pi w), w = sqrt(x^2 - t^2) on the principal branch.
    For real arguments the t - i0 side puts w = +-i sqrt(t^2 - x^2), with the
    sign of t, inside the cone, where K_1 is the J_1/N_1 form."""
    x = np.asarray(x, dtype=complex)
    t = complex(t)
    if t.imag == 0.0 and not np.any(x.imag):
        x, t = x.real, t.real
        _require_off_cone(x, t)
        diff = x * x - t * t
        w = np.where(diff > 0.0, 1.0, math.copysign(1.0, t) * 1j) * np.sqrt(np.abs(diff))
    else:
        w = np.sqrt(x * x - t * t)
        if np.any(w == 0.0):
            raise LightConeSingular("argument on the complexified light cone")
        if np.any(w.real <= 0.0):
            raise InvalidInput(
                "continuation requires Re(m sqrt(x^2 - t^2)) > 0; "
                "evolve with Im t < 0 and |beta_r| < alpha"
            )
    _, k1, _, _ = _bessel_k01_vec(mass * w)
    return 1j * mass * t * k1 / (np.pi * w)


def _require_finite(x, t):
    if not (np.all(np.isfinite(x)) and np.isfinite(t)):
        raise InvalidInput("x and t must be finite")


def greens_closed(rel, x, t):
    """Closed-form Green's function G(x, t) for any dispersion kind.

    ``x`` may be an ndarray; ``t`` is a scalar (real or complex); complex ``t``
    needs Im t < 0 for the relativistic continuation. A lattice row is one
    Miller recurrence for I_n: no adaptive or doubling rule."""
    _require_finite(x, t)
    scalar = np.ndim(x) == 0
    m = rel.mass

    if rel.kind is Kind.NON_RELATIVISTIC:
        t_c = complex(t)
        if t_c == 0.0:
            raise InvalidInput("nonrelativistic Green's function requires t != 0")
        x_c = np.asarray(x, dtype=complex)
        pref = cmath.sqrt(m / (2.0 * math.pi * 1j * t_c))
        out = pref * np.exp(1j * m * x_c * x_c / (2.0 * t_c))
    elif rel.kind is Kind.LATTICE:
        if np.iscomplexobj(x) and np.any(np.asarray(x).imag != 0.0):
            raise InvalidInput("lattice sites are real; continuation enters via t")
        out = _lattice_greens(rel, _site_sum(rel, np.real(x)), t)
    elif rel.kind is Kind.RELATIVISTIC:
        out = _greens_relativistic(m, x, t)
    else:  # massless
        t_c = complex(t)
        x_c = np.asarray(x, dtype=complex)
        if t_c.imag == 0.0 and not np.any(x_c.imag):
            _require_off_cone(x_c.real, t_c.real)
        out = (1j / math.pi) * t_c / (x_c * x_c - t_c * t_c)

    out = np.asarray(out, dtype=complex)
    return complex(out.reshape(-1)[0]) if scalar else out


def evolve_closed(packet, x, t):
    """Phi(x, t) = A G(x - i beta, t - i alpha).

    The complex shift x - i beta = (x + beta_i) - i beta_r; for the lattice
    beta is purely imaginary, the continuation enters through t alone, and
    the shifted site is the site of x plus the site of beta_i.
    """
    rel = packet.rel
    t_c = complex(t) - 1j * packet.alpha
    if rel.kind is Kind.LATTICE:
        _require_finite(x, t_c)
        g = _lattice_greens(rel, _site_sum(rel, x, packet.beta_i), t_c)
        return packet.norm_A * (complex(g) if np.ndim(x) == 0 else g)
    x_c = np.asarray(x, dtype=complex) + packet.beta_i - 1j * packet.beta_r
    return packet.norm_A * greens_closed(rel, x_c, t_c)


def evolve_quadrature(packet, x, t, spec=DEFAULT_SPEC):
    """Oracle evolution Phi(x, t) = (1/2pi) int Phi(p) e^{-iE t + ipx} dp.

    ``x`` may have any shape; ``value`` and ``abs_error`` take it (a Python
    complex and float for scalar x). Each block of at most ``_X_BLOCK``
    points is one integral with a column per point.
    """
    rel = packet.rel
    x = np.asarray(x, dtype=float)
    t = float(t)
    _require_finite(x, t)
    flat = x.reshape(-1)
    value = np.empty(flat.shape, dtype=complex)
    err = np.empty(flat.shape)
    if rel.kind is Kind.LATTICE:
        a = rel.lattice_spacing
        sites = _site_sum(rel, flat, packet.beta_i)  # off the sites: no oracle either
        # beta_r = 0 and x + beta_i = a n. A site past float max gives
        # 1j * inf = nan + inf j, but its count is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            shifts = 1j * a * sites
    else:
        shifts = packet.beta + 1j * flat
    lo, hi = density_window(rel, packet.alpha, packet.beta_r, 1, spec)
    v_ends = rel.velocity(np.array([lo, hi]))
    decay = packet.alpha + 1j * t
    scale = packet.norm_A / (2.0 * math.pi)
    for s in range(0, len(flat), _X_BLOCK):
        block = slice(s, s + _X_BLOCK)
        xb, shift = flat[block], shifts[block]

        def f(p):
            # A exp(-(alpha + i t) E + p (beta + i x)) / 2pi. A phase p x
            # past the float range has no representable integral.
            try:
                with np.errstate(over="raise", invalid="raise"):
                    return scale * np.exp(p[:, np.newaxis] * shift - decay * rel.energy(p)[:, np.newaxis])
            except FloatingPointError as exc:
                raise NonConvergence("oracle phase leaves the float range (%s)" % exc) from None

        if rel.kind is Kind.LATTICE:
            # Over the zone column j has frequency n_j; a start below
            # 2 max|n| nodes could accept two doublings aliased alike. A far
            # x gets a count the rule refuses before evaluating.
            with np.errstate(over="ignore"):
                nodes = 2.0 * np.max(np.abs(sites[block]))
            points = 1 << (math.ceil(min(nodes, _PERIODIC_MAX_POINTS)) + 15).bit_length()
            value[block], err[block] = _periodic(f, 2.0 * math.pi / a, spec, points)
        else:
            # The phase p (x + beta_i) - E(p) t turns at the rate
            # x + beta_i - v(p) t, largest at a window end since v is
            # monotone on the window; panels of at most two of its shortest
            # wavelengths (within the subdivision budget) leave the rule
            # little to bisect. A far x makes the count inf, hence the cap.
            with np.errstate(over="ignore"):
                omega = np.max(np.abs((xb + packet.beta_i)[:, np.newaxis] - v_ends * t))
                panels = max(8, math.ceil(min(_MAX_SUBDIVISIONS, (hi - lo) * omega / (4.0 * math.pi))))
            value[block], err[block] = _line_integral(f, lo, hi, spec, panels=panels)
    return _amplitude(value.reshape(x.shape), err.reshape(x.shape))


def density_grid(packet, x_values, t_values, method="closed", spec=DEFAULT_SPEC):
    """Evaluate |Phi(x, t)|^2 on the product grid, row by row in t."""
    if method not in ("closed", "quadrature"):
        raise InvalidInput("method must be 'closed' or 'quadrature'")
    x_values = np.asarray(x_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    if x_values.ndim != 1 or t_values.ndim != 1:
        raise InvalidInput("grids must be 1-D arrays")
    if np.any(np.diff(x_values) <= 0.0) or (
        len(t_values) > 1 and np.any(np.diff(t_values) <= 0.0)
    ):
        raise InvalidInput("grid values must be strictly increasing")

    density = np.empty((len(t_values), len(x_values)))
    for i, t in enumerate(t_values):
        if method == "closed":
            density[i] = np.abs(evolve_closed(packet, x_values, t)) ** 2
        else:
            density[i] = np.abs(evolve_quadrature(packet, x_values, t, spec).value) ** 2
    return DensityGrid(x_values=x_values, t_values=t_values, density=density, method=method)
