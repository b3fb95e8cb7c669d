"""Diagnostics on evolved densities: evolved moments, ridge slopes, peaks.

The continuum moments of |Phi(x,t)|^2 are one adaptive Gauss-Kronrod
integral over the whole line, mapped onto a finite interval by
x = c + w tan(theta) (as QUADPACK's QAGI maps its infinite range); the
massless packet's algebraic C/x^4 tails become bounded integrands there.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dispersion import Kind
from .moments import moments_quadrature, spreading_width_sq, ehrenfest_position
from .numerics import DEFAULT_SPEC, _adaptive
from .propagation import evolve_closed

__all__ = [
    "evolved_moments",
    "ridge_slope",
    "second_difference_sign_changes",
    "peak_positions",
]


def evolved_moments(packet, t, m0=None, spec=DEFAULT_SPEC):
    """Raw (mass, <x>, <x^2>) of the evolved density, from ``_evolved_central``."""
    mass, mean, var = _evolved_central(packet, t, m0, spec)
    return mass, mass * mean, mass * (var + mean * mean)


def _evolved_central(packet, t, m0, spec):
    """(mass, <x>, Var x) of the normalised evolved density.

    Continuum kinds integrate over theta in (-pi/2, pi/2) with
    x = c + w u, u = tan(theta), where c and w^2 are the predicted drift and
    spread; the spreading law sets only these coordinates, never the
    integral, so this stays a valid independent check of that law. The
    columns |Phi|^2 w sec^2(theta) [1, (1 + u)^2, (1 - u)^2] are positive,
    so each meets the relative tolerance: a <u> column, near 0 by
    construction, could only meet the absolute floor through rounding.
    Their sums P and M give <u> = (P - M)/4 and <u^2> = (P + M)/2 - mass,
    so Var x = w^2 (<u^2> - <u>^2) per unit mass never meets c ~ -beta_i.
    The rule starts from 16 equal panels, which costs fewer adaptive rounds
    than it adds points. Both branches evaluate the beta_i = 0 packet: the
    continuum at offset + w u with offset = c + beta_i, returning <x> =
    offset + w <u> - beta_i; the lattice sums the offsets k from its centre
    site in two passes, mean first, and returns <x> = a <k> - beta_i.
    """
    rel = packet.rel
    if m0 is None:
        m0 = moments_quadrature(packet, spec)
    center = ehrenfest_position(m0, t)
    width = math.sqrt(max(spreading_width_sq(m0, t), 1e-12))
    # About -beta_i the density is that of beta_i = 0, so positions are
    # taken from there and the rounding of |beta_i| never enters its shape.
    origin = replace(packet, beta_i=0.0)

    if rel.kind is Kind.LATTICE:
        a = rel.lattice_spacing
        reach = int(math.ceil((12.0 * width + 10.0 * a) / a))
        k = np.arange(-reach, reach + 1)
        probs = a * np.abs(evolve_closed(origin, k * a, t)) ** 2
        mass = float(probs.sum())
        mean_k = float((k * probs).sum()) / mass
        return mass, mean_k * a - packet.beta_i, a * a * float(((k - mean_k) ** 2 * probs).sum()) / mass

    offset = center + packet.beta_i

    def f(theta):
        u = np.tan(theta)
        dens = np.abs(evolve_closed(origin, offset + width * u, t)) ** 2 * width * (1.0 + u * u)
        return dens[:, np.newaxis] * np.stack([np.ones_like(u), (1.0 + u) ** 2, (1.0 - u) ** 2], axis=1)

    sums, _ = _adaptive(f, -0.5 * math.pi, 0.5 * math.pi, spec, initial_panels=16, columns=3)
    mass, plus, minus = sums.real
    mean_u = 0.25 * (plus - minus) / mass
    second_u = (0.5 * (plus + minus) - mass) / mass
    return (float(mass), float(offset + width * mean_u - packet.beta_i),
            float(width * width * (second_u - mean_u * mean_u)))


def _refine_peak(x, y, j):
    """Parabolic refinement of a discrete argmax."""
    if j == 0 or j == len(x) - 1:
        return x[j]
    denom = y[j - 1] - 2.0 * y[j] + y[j + 1]
    if denom == 0.0:
        return x[j]
    shift = 0.5 * (y[j - 1] - y[j + 1]) / denom
    return x[j] + shift * (x[j + 1] - x[j])


def ridge_slope(grid):
    """Least-squares slope of the density-maximum position against t."""
    peaks = []
    for row in grid.density:
        j = int(np.argmax(row))
        peaks.append(_refine_peak(grid.x_values, row, j))
    t = np.asarray(grid.t_values, dtype=float)
    peaks = np.asarray(peaks)
    coeffs = np.polyfit(t, peaks, 1)
    return float(coeffs[0])


def centroid_slope(grid):
    """Least-squares slope of the density centroid against t.

    Skewed packets (relativistic beta != 0) have a density mode that drifts
    faster than <v>; the centroid tracks the Ehrenfest mean.
    """
    centers = []
    for row in grid.density:
        mass = np.trapezoid(row, grid.x_values)
        centers.append(np.trapezoid(grid.x_values * row, grid.x_values) / mass)
    coeffs = np.polyfit(np.asarray(grid.t_values, dtype=float), centers, 1)
    return float(coeffs[0])


def second_difference_sign_changes(values, floor_fraction=1e-8):
    """Sign changes of the discrete second difference across a profile.

    Entries whose magnitude sits below ``floor_fraction`` of the profile
    maximum are ignored so numerical noise in the flat tails does not
    count as oscillation.
    """
    values = np.asarray(values, dtype=float)
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    keep = np.abs(d2) > floor_fraction * np.max(np.abs(values))
    signs = np.sign(d2[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def peak_positions(x, values, max_peaks=4):
    """Positions of local maxima, strongest first."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    idx = [
        j
        for j in range(1, len(values) - 1)
        if values[j] >= values[j - 1] and values[j] >= values[j + 1]
    ]
    idx.sort(key=lambda j: -values[j])
    return [float(_refine_peak(x, values, j)) for j in idx[:max_peaks]]
