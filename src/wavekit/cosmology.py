"""Wave packets in an expanding 1-D FRW universe.

The metric (ds)^2 = (dt)^2 - R(t)^2 (d rho)^2 conserves the comoving
momentum p_rho; physical momentum p = p_rho / R(t) is red-shifted as the
universe grows. Packets are specified in physical momentum at t = 0 and
carried forward through the conserved p_rho = p R(0). A comoving moment is
therefore the packet's closed-form t = 0 moment plus the statistics of the
per-momentum drift W(t, p): one momentum quadrature whose weights take W at
every output time from adaptive Gauss-Kronrod integrals over the intervals
between output times, summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dispersion import Kind
from .errors import InvalidInput, KindMismatch, NonConvergence, OverflowSignal
from .moments import moments_closed_form
from .numerics import DEFAULT_SPEC, _adaptive
from .packet import expectation_many

__all__ = [
    "PowerLawScale",
    "ExponentialScale",
    "TabulatedScale",
    "ScaleFactorModel",
    "ComovingTrace",
    "classical_velocity",
    "mean_velocity",
    "comoving_trace",
]

# Momenta per time integral: its panel store holds a column per momentum,
# so blocks bound its memory.
_TIME_BLOCK = 42


@dataclass(frozen=True)
class PowerLawScale:
    """R(t) = R0 (1 + t/t_scale)^exponent, defined for t > -t_scale."""

    exponent: float
    reference: float = 1.0
    t_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.exponent < math.inf and 0.0 < self.reference < math.inf
                and 0.0 < self.t_scale < math.inf):
            raise InvalidInput("power-law scale needs finite exponent >= 0, R0 > 0, t_scale > 0")

    def scale(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= -self.t_scale):
            raise InvalidInput("power-law scale undefined at t <= -t_scale")
        return self.reference * (1.0 + t / self.t_scale) ** self.exponent


@dataclass(frozen=True)
class ExponentialScale:
    """R(t) = R0 exp(H t)."""

    hubble: float
    reference: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.reference < math.inf and math.isfinite(self.hubble)):
            raise InvalidInput("exponential scale needs finite H and R0 > 0")

    def scale(self, t):
        return self.reference * np.exp(self.hubble * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class TabulatedScale:
    """Monotone-in-t table, interpolated piecewise-linearly in ln R."""

    times: tuple
    values: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        r = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or len(t) < 2:
            raise InvalidInput("tabulated scale needs matching 1-D arrays, length >= 2")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
            raise InvalidInput("tabulated times must be finite and strictly increasing")
        if not np.all((r > 0.0) & np.isfinite(r)):
            raise InvalidInput("tabulated scale factors must be finite and positive")

    def scale(self, t):
        t_arr = np.asarray(t, dtype=float)
        knots = np.asarray(self.times, dtype=float)
        if np.any(t_arr < knots[0]) or np.any(t_arr > knots[-1]):
            raise InvalidInput("query outside the tabulated time range")
        ln_r = np.log(np.asarray(self.values, dtype=float))
        return np.exp(np.interp(t_arr, knots, ln_r))


ScaleFactorModel = Union[PowerLawScale, ExponentialScale, TabulatedScale]


@dataclass(frozen=True)
class ComovingTrace:
    """Comoving moments per output time; the spread is stored central."""

    t_values: np.ndarray
    mean_rho: np.ndarray
    var_rho: np.ndarray
    mean_x: np.ndarray
    mean_v: np.ndarray

    @property
    def mean_rho2(self):
        return self.var_rho + self.mean_rho**2


def classical_velocity(v0, r_start, r_now):
    """Red-shifted classical velocity from conserved p_rho = m v gamma R."""
    if not abs(v0) <= 1.0:
        raise InvalidInput("|v0| must not exceed 1")
    if r_start <= 0.0 or r_now <= 0.0:
        raise InvalidInput("scale factors must be positive")
    ratio = r_start / r_now
    return ratio * v0 / math.sqrt(1.0 - v0 * v0 + v0 * v0 * ratio * ratio)


def _scale(model, t):
    """R(t) as a float array; ``OverflowSignal`` where R(t) is not a
    positive finite float (an exponential or power law can leave the float
    range for valid parameters)."""
    with np.errstate(over="ignore", under="ignore"):
        r = np.asarray(model.scale(t), dtype=float)
    if not np.all((r > 0.0) & np.isfinite(r)):
        raise OverflowSignal("scale factor R(t) is not a positive finite float")
    return r


def _check_kind(packet):
    if packet.rel.kind is Kind.LATTICE:
        raise KindMismatch("FRW propagation covers the continuum dispersions only")


def mean_velocity(packet, model, t, spec=DEFAULT_SPEC):
    """<v(t)> of the red-shifted packet.

    Massless packets keep <v> = beta/alpha for all times; non-relativistic
    ones are red-shifted in proportion to the scale factor. The
    relativistic case is a quadrature of v(p R(0)/R(t)).
    """
    _check_kind(packet)
    if not math.isfinite(t):
        raise InvalidInput("t must be finite")
    kind = packet.rel.kind
    ratio = float(_scale(model, 0.0)) / float(_scale(model, t))
    if kind is Kind.MASSLESS:
        return packet.beta_r / packet.alpha
    if kind is Kind.NON_RELATIVISTIC:
        return ratio * packet.beta_r / packet.alpha
    vals, _ = expectation_many(
        packet, lambda p: packet.rel.velocity(p * ratio)[:, np.newaxis], spec
    )
    return float(vals[0].real)


def _time_integral_grid(func, t_values, k, spec=DEFAULT_SPEC):
    """Cumulative time integrals int_0^t func dt' at each sorted t in t_values.

    ``func`` maps an array of times (N,) to real values (N, k). Each
    positive-width interval between consecutive times (the first from 0) is
    one adaptive Gauss-Kronrod integral of width k, and the rows are their
    running sums: a row for t = 0 is exactly 0, repeated times give equal
    rows and zero-width intervals make no call. Returns shape
    (len(t_values), k).
    """
    steps = np.zeros((len(t_values), k))
    edges = np.concatenate([[0.0], t_values])
    for i in np.flatnonzero(edges[1:] > edges[:-1]):
        try:
            steps[i] = _adaptive(func, edges[i], edges[i + 1], spec, columns=k)[0].real
        except NonConvergence as exc:
            raise NonConvergence("time integral: %s" % exc, exc.value, exc.abs_error) from None
    return np.cumsum(steps, axis=0)


def comoving_trace(packet, model, t_values, spec=DEFAULT_SPEC):
    """Comoving moments <rho>(t), Var rho(t) and derived physical traces.

    Because p_rho = p R(t) is conserved, rho(t) = x(0)/R(0) + W(t, p) with
    the per-momentum drift W(t, p) = int_0^t v(p R(0)/R(t'))/R(t') dt'. So
    <rho>(t) = <x>(0)/R(0) + <W> and Var rho(t) = Var x(0)/R(0)^2 + <W^2> -
    <W>^2, with <x>(0) and Var x(0) from the closed forms: the x-W
    covariance Re<W x> - <W><x> is 0 for a minimal packet, where
    Re Phi* i Phi' = -beta_i |Phi|^2. The W statistics for all output times
    come from one p-quadrature whose weights take W at every t from one
    adaptive time integral per interval between output times.
    """
    _check_kind(packet)
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) == 0:
        raise InvalidInput("t_values must be a non-empty 1-D array")
    if not np.all(np.isfinite(t_values)):
        raise InvalidInput("t_values must be finite")
    if np.any(t_values < 0.0) or np.any(np.diff(t_values) < 0.0):
        raise InvalidInput("t_values must be sorted ascending from 0")
    m0 = moments_closed_form(packet)

    rel = packet.rel
    r0 = float(_scale(model, 0.0))
    rt = _scale(model, t_values)
    k = len(t_values)
    # A table's R is only piecewise smooth: its knots inside the traced
    # range become extra interval edges of the time integral, so no
    # interval straddles a kink; only the requested rows are kept.
    grid, rows = t_values, slice(None)
    if isinstance(model, TabulatedScale):
        knots = np.asarray(model.times, dtype=float)
        grid = np.union1d(t_values, knots[(knots > 0.0) & (knots < t_values[-1])])
        rows = np.searchsorted(grid, t_values)

    def drift(p, tp):
        r = model.scale(tp)[:, np.newaxis]
        return rel.velocity(p * (r0 / r)) / r

    def weights(p):
        w = np.concatenate([
            _time_integral_grid(lambda tp: drift(block, tp), grid, len(block), spec)[rows].T
            for block in np.split(p, range(_TIME_BLOCK, len(p), _TIME_BLOCK))
        ])
        v_now = rel.velocity(p[:, np.newaxis] * (r0 / rt))
        return np.column_stack([w, w * w, v_now])

    vals, _ = expectation_many(packet, weights, spec, columns=3 * k)
    w_mean, w_sq, mean_v = vals.real.reshape(3, k)
    mean_rho = m0.mean_x / r0 + w_mean
    return ComovingTrace(
        t_values=t_values,
        mean_rho=mean_rho,
        var_rho=m0.var_x / r0**2 + (w_sq - w_mean * w_mean),
        mean_x=rt * mean_rho,
        mean_v=mean_v,
    )
