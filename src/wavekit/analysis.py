"""Diagnostics on evolved densities: grid moments, ridge slopes, peaks.

The massless minimal packet has |Phi(x,t)|^2 ~ C/x^4 tails (the |p| kink in
momentum space), so its position moments converge slowly in the window
size; geometric tail meshes extend the core Simpson integration far enough
to recover <x^2> at the 1e-7 level.
"""

from __future__ import annotations

import math

import numpy as np

from .dispersion import Kind
from .moments import moments_quadrature, spreading_width_sq, ehrenfest_position
from .propagation import evolve_closed

_CORE_POINTS = 4001  # Simpson points on the core window
_MASSLESS_CORE_POINTS = 8001  # the massless core window is wider
_TAIL_RATIO = 1.001  # step ratio of the massless tails' geometric mesh

__all__ = [
    "simpson_or_trapezoid",
    "evolved_moments",
    "ridge_slope",
    "second_difference_sign_changes",
    "peak_positions",
]


def simpson_or_trapezoid(y, x):
    """Composite Simpson on a uniform mesh, trapezoid otherwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    if len(x) >= 3 and len(x) % 2 == 1 and np.allclose(h, h[0], rtol=1e-9):
        step = h[0]
        return step / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
    return float(np.trapezoid(y, x))


def _grid_stats(x, dens):
    mass = simpson_or_trapezoid(dens, x)
    mean = simpson_or_trapezoid(x * dens, x)
    second = simpson_or_trapezoid(x * x * dens, x)
    return mass, mean, second


def _geometric_tail(packet, t, x0, x_far, sign):
    """Moment contributions of a |Phi|^2 tail on [x0, x_far] (sign=+1)
    or [-x_far, -x0] (sign=-1), integrated on a geometric mesh."""
    n = int(math.log(x_far / x0) / math.log(_TAIL_RATIO)) + 2
    xs = sign * x0 * _TAIL_RATIO ** np.arange(n)
    dens = np.abs(evolve_closed(packet, xs, t)) ** 2
    order = np.argsort(xs)
    xs, dens = xs[order], dens[order]
    mass = np.trapezoid(dens, xs)
    mean = np.trapezoid(xs * dens, xs)
    second = np.trapezoid(xs * xs * dens, xs)
    return mass, mean, second


def evolved_moments(packet, t, m0=None):
    """(mass, <x>, <x^2>) of the evolved coordinate-space density.

    The mesh is sized from the predicted drift and spread; the spreading
    law enters only through the window choice, never the integration
    itself, so this stays a valid independent check of that law.
    """
    rel = packet.rel
    if m0 is None:
        m0 = moments_quadrature(packet)
    center = ehrenfest_position(m0, t)
    width = math.sqrt(max(spreading_width_sq(m0, t), 1e-12))

    if rel.kind is Kind.LATTICE:
        a = rel.lattice_spacing
        reach = int(math.ceil((12.0 * width + 10.0 * a) / a))
        n0 = int(round(-packet.beta_i / a))
        sites = (np.arange(-reach, reach + 1) + n0) * a
        probs = a * np.abs(evolve_closed(packet, sites, t)) ** 2
        mass = probs.sum()
        mean = float((sites * probs).sum())
        second = float((sites * sites * probs).sum())
        return mass, mean, second

    if rel.kind is Kind.RELATIVISTIC:
        half = max(12.0 * width, abs(t) + 30.0 / rel.mass) + abs(center) + 5.0
    elif rel.kind is Kind.MASSLESS:
        half = abs(t) + 12.0 * width + 20.0
    else:
        half = 12.0 * width + abs(center) + 5.0
    core_points = _MASSLESS_CORE_POINTS if rel.kind is Kind.MASSLESS else _CORE_POINTS
    xs = np.linspace(center - half, center + half, core_points)
    dens = np.abs(evolve_closed(packet, xs, t)) ** 2
    mass, mean, second = _grid_stats(xs, dens)

    if rel.kind is Kind.MASSLESS:
        # Algebraic 1/x^4 tails: extend far enough that the truncated
        # <x^2> tail (~C/x) is negligible.
        x_far = 2.0e8
        for sign, edge in ((1, xs[-1]), (-1, -xs[0])):
            dm, dmean, dsec = _geometric_tail(packet, t, edge, x_far, sign)
            mass += dm
            mean += dmean
            second += dsec
    return float(mass), float(mean), float(second)


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
