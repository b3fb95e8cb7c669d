"""Free time evolution: closed-form Green's functions and the Fourier oracle.

A minimal packet evolves as the analytic continuation of the Green's
function, Phi(x, t) = A G(x - i beta, t - i alpha). The relativistic
Green's function is evaluated region by region for real arguments:
(1/2) d/dt [J_0 - i N_0](m sqrt(t^2 - x^2)) inside the light cone and the
K_1 form outside; for complex arguments the K_1 form applies everywhere.
All square roots take the principal branch (Re >= 0), which keeps the K
argument in the right half-plane whenever Im t < 0 and |beta_r| < alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Kind
from .errors import (
    InvalidInput,
    LightConeSingular,
    NonIntegerSite,
)
from .numerics import (
    DEFAULT_SPEC,
    ComplexAmplitude,
    _bessel_i_vec,
    _bessel_jy_vec,
    _bessel_k01_vec,
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


@dataclass(frozen=True)
class DensityGrid:
    """Coordinate-space probability density on an (t, x) grid.

    ``density[i][j]`` is |Phi(x_j, t_i)|^2 with the 1/2pi Fourier
    convention, so trapezoid sums over x approximate 1 for wide grids.
    ``fallback_points`` lists (i, j) entries where the closed form was
    singular and the quadrature evaluator filled in.
    """

    x_values: np.ndarray
    t_values: np.ndarray
    density: np.ndarray
    method: str
    fallback_points: tuple = ()


def _site_indices(rel, x):
    a = rel.lattice_spacing
    n = np.asarray(x, dtype=float) / a
    n_round = np.round(n)
    if np.any(np.abs(n - n_round) > 1e-9 * np.maximum(1.0, np.abs(n))):
        raise NonIntegerSite("lattice Green's function is defined on x = n a only")
    return n_round.astype(int)


def _greens_relativistic_complex(mass, x, t):
    """K_1 form for complex arguments, valid off the complexified cone."""
    x = np.asarray(x, dtype=complex)
    w = np.sqrt(x * x - t * t)
    if np.any(w == 0.0):
        raise LightConeSingular("argument on the complexified light cone")
    z = mass * w
    if np.any(z.real <= 0.0):
        raise InvalidInput(
            "continuation requires Re(m sqrt(x^2 - t^2)) > 0; "
            "evolve with Im t < 0 and |beta_r| < alpha"
        )
    _, k1, _, _ = _bessel_k01_vec(z)
    return 1j * mass * t * k1 / (np.pi * w)


def _greens_relativistic_real(mass, x, t):
    """Region-split evaluation for real x (array) and real t (scalar)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x.shape, dtype=complex)
    diff = x * x - t * t
    scale = np.maximum(x * x, t * t)
    on_cone = np.abs(diff) < _CONE_BAND * np.maximum(scale, 1e-300)
    if np.any(on_cone):
        raise LightConeSingular("real evaluation point within the light-cone band")
    outside = diff > 0.0
    if np.any(outside):
        w = np.sqrt(diff[outside])
        _, k1, _, _ = _bessel_k01_vec((mass * w).astype(complex))
        out[outside] = 1j * mass * t * k1 / (np.pi * w)
    inside = ~outside
    if np.any(inside):
        s = np.sqrt(-diff[inside])
        _, _, j1, y1 = _bessel_jy_vec(mass * s)
        # (1/2) d/dt [J_0 - i N_0](m s) = -(m t / 2 s)(J_1 - i N_1)(m s)
        out[inside] = -(mass * t / (2.0 * s)) * (j1 - 1j * y1)
    return out


def _require_finite(x, t):
    if not (np.all(np.isfinite(x)) and np.isfinite(t)):
        raise InvalidInput("x and t must be finite")


def greens_closed(rel, x, t, spec=DEFAULT_SPEC):
    """Closed-form Green's function G(x, t) for any dispersion kind.

    ``x`` may be an ndarray; ``t`` is a scalar (real or complex). Complex
    ``t`` must satisfy Im t < 0 for the relativistic continuation.
    """
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
        a = rel.lattice_spacing
        n = _site_indices(rel, np.real(x))
        z = 1j * complex(t) / (m * a * a)
        vals, _ = _bessel_i_vec(n, z, spec)
        out = vals / a
    elif rel.kind is Kind.RELATIVISTIC:
        t_c = complex(t)
        x_arr = np.asarray(x)
        is_complex = t_c.imag != 0.0 or np.iscomplexobj(x_arr) and np.any(x_arr.imag != 0.0)
        if is_complex:
            out = _greens_relativistic_complex(m, x_arr, t_c)
        elif t_c.real >= 0.0:
            out = _greens_relativistic_real(m, x_arr, t_c.real)
        else:
            out = np.conj(_greens_relativistic_real(m, x_arr, -t_c.real))
    else:  # massless
        t_c = complex(t)
        x_c = np.asarray(x, dtype=complex)
        denom = x_c * x_c - t_c * t_c
        real_args = t_c.imag == 0.0 and np.all(x_c.imag == 0.0)
        if real_args:
            scale = np.maximum(np.abs(x_c) ** 2, abs(t_c) ** 2)
            if np.any(np.abs(denom) < _CONE_BAND * np.maximum(scale, 1e-300)):
                raise LightConeSingular("massless Green's function on the light cone")
        out = (1j / math.pi) * t_c / denom

    out = np.asarray(out, dtype=complex)
    return complex(out.reshape(-1)[0]) if scalar else out


def evolve_closed(packet, x, t):
    """Phi(x, t) = A G(x - i beta, t - i alpha).

    The complex shift x - i beta = (x + beta_i) - i beta_r; for the lattice
    beta is purely imaginary and the continuation enters through t alone.
    """
    rel = packet.rel
    t_c = complex(t) - 1j * packet.alpha
    if rel.kind is Kind.LATTICE:
        x_shift = np.asarray(x, dtype=float) + packet.beta_i
        g = greens_closed(rel, x_shift, t_c)
    else:
        x_c = np.asarray(x, dtype=complex) + packet.beta_i - 1j * packet.beta_r
        g = greens_closed(rel, x_c, t_c)
    return packet.norm_A * g


def evolve_quadrature(packet, x, t, spec=DEFAULT_SPEC):
    """Oracle evolution Phi(x, t) = (1/2pi) int Phi(p) e^{-iE t + ipx} dp."""
    rel = packet.rel
    x = float(x)
    t = float(t)
    _require_finite(x, t)

    def f(p):
        e = rel.energy(p)
        return packet.amplitude(p) * np.exp(-1j * e * t + 1j * p * x) / (2.0 * math.pi)

    if rel.kind is Kind.LATTICE:
        # Over the zone the integrand has frequency k = (x + beta_i)/a; a
        # start below 2|k| nodes could accept two doublings aliased alike.
        a = rel.lattice_spacing
        points = 1 << (math.ceil(2.0 * abs(x + packet.beta_i) / a) + 15).bit_length()
        val, err = _periodic(f, 2.0 * math.pi / a, spec, points)
        return ComplexAmplitude(complex(val), float(err))
    lo, hi = density_window(rel, packet.alpha, packet.beta_r, 1, spec)
    val, err = _line_integral(f, lo, hi, spec)
    return ComplexAmplitude(complex(val), float(np.max(err)))


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
    fallback = []
    for i, t in enumerate(t_values):
        if method == "closed":
            try:
                row = evolve_closed(packet, x_values, t)
            except LightConeSingular:
                row = np.empty(len(x_values), dtype=complex)
                for j, xv in enumerate(x_values):
                    try:
                        row[j] = evolve_closed(packet, xv, t)
                    except LightConeSingular:
                        row[j] = evolve_quadrature(packet, xv, t, spec).value
                        fallback.append((i, j))
        else:
            row = np.array(
                [evolve_quadrature(packet, xv, t, spec).value for xv in x_values]
            )
        density[i] = np.abs(row) ** 2
    return DensityGrid(
        x_values=x_values,
        t_values=t_values,
        density=density,
        method=method,
        fallback_points=tuple(fallback),
    )
