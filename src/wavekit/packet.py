"""Minimal position-velocity uncertainty wave packets.

In momentum space a minimal packet is Phi(p) = A exp(-alpha E(p) + beta p)
with alpha > 0 and beta = beta_r + i beta_i. The normalization convention is
(1/2pi) int |Phi(p)|^2 dp = 1 with A real positive. A is the paper's
closed form for each kind (``closed_form_norm_constant``); the test suite
checks it against a quadrature of |Phi|^2.

Every momentum integral over a packet runs over ``density_window``: the
level set of the known log |Phi|^2 = 2 (beta_r p - alpha E(p)) + const at
the tail budget below its maximum (the Brillouin zone for the lattice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionRelation, Kind
from .errors import (
    InvalidInput,
    InvalidParams,
    LatticePeriodicityError,
    NonConvergence,
    OverflowSignal,
    Unsatisfiable,
)
from .numerics import (
    DEFAULT_SPEC,
    _bessel_i_vec,
    _bessel_k01_vec,
    _line_integral,
    _tail_budget,
)

__all__ = ["PacketParams", "MomentTargets", "make_minimal", "solve_parameters"]


@dataclass(frozen=True)
class PacketParams:
    """Parameters of a normalized minimal uncertainty packet."""

    rel: DispersionRelation
    alpha: float
    beta_r: float
    beta_i: float
    norm_A: float

    @property
    def beta(self):
        return complex(self.beta_r, self.beta_i)

    def amplitude(self, p):
        """Phi(p) = A exp(-alpha E(p) + beta p); beta_i only rotates the phase."""
        p = np.asarray(p, dtype=float)
        e = self.rel.energy(p)
        return self.norm_A * np.exp(-self.alpha * e + self.beta * p)

    def density_momentum(self, p):
        """|Phi(p)|^2, independent of beta_i."""
        p = np.asarray(p, dtype=float)
        e = self.rel.energy(p)
        return self.norm_A**2 * np.exp(-2.0 * self.alpha * e + 2.0 * self.beta_r * p)


@dataclass(frozen=True)
class MomentTargets:
    """Physical targets used to solve for packet parameters.

    ``width_parameter`` is either the desired alpha directly or a target
    position uncertainty, depending on the solve mode.
    """

    mean_velocity: float
    mean_position: float
    width_parameter: float

    def __post_init__(self):
        if not self.width_parameter > 0.0:
            raise InvalidInput("width_parameter must be > 0")


def _validate_params(rel, alpha, beta_r, beta_i):
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvalidParams("alpha must be > 0 (normalizability of exp(-alpha E))")
    if not (math.isfinite(beta_r) and math.isfinite(beta_i)):
        raise InvalidParams("beta must be finite")
    if rel.kind in (Kind.RELATIVISTIC, Kind.MASSLESS) and alpha <= abs(beta_r):
        raise InvalidParams(
            "relativistic and massless packets require alpha > |beta_r|"
        )
    if rel.kind is Kind.LATTICE:
        if beta_r != 0.0:
            raise LatticePeriodicityError(
                "lattice periodicity over the Brillouin zone forces beta_r = 0"
            )
        if rel._sites(beta_i) is None:
            raise LatticePeriodicityError(
                "lattice packets require beta_i to be an integer multiple of a"
            )


def density_window(rel, alpha, beta_r, power=2, spec=DEFAULT_SPEC):
    """Momentum window (lo, hi) of integrands carrying |Phi|^power.

    ``power`` = 2 for density-weighted integrals, 1 for single-amplitude
    Fourier integrals. With g(p) = alpha E(p) - beta_r p the window is the
    level set power (g - min g) = B of the tail budget B, where |Phi|^power
    has fallen exp(-B) below its peak; the lattice window is the zone.
    """
    if rel.kind is Kind.LATTICE:
        return -math.pi / rel.lattice_spacing, math.pi / rel.lattice_spacing
    b, m = _tail_budget(spec) / power, rel.mass
    if rel.kind is Kind.NON_RELATIVISTIC:
        # g - min g = alpha (p - p_bar)^2 / 2m with p_bar = m beta_r / alpha.
        half = math.sqrt(2.0 * m * b / alpha)
        return m * beta_r / alpha - half, m * beta_r / alpha + half
    # Rel and massless: min g = m s, s^2 = alpha^2 - beta_r^2, and squaring
    # alpha sqrt(p^2 + m^2) = beta_r p + m s + b gives a quadratic in p.
    s2 = alpha * alpha - beta_r * beta_r
    ms = m * math.sqrt(s2)
    root = alpha * math.sqrt(b * (2.0 * ms + b))
    return ((ms + b) * beta_r - root) / s2, ((ms + b) * beta_r + root) / s2


def expectation_many(packet, weight, spec=DEFAULT_SPEC, columns=1):
    """(1/2pi) int weight(p) |Phi(p)|^2 dp for a stack of weights.

    ``weight`` maps an ndarray of momenta (n,) to an array (n, k), k the
    declared ``columns``; returns (values, errors) of shape (k,). The
    adaptive rule runs over the packet's ``density_window``, on the lattice
    too: weights such as p are not periodic. ``OverflowSignal`` if the
    integrand overflows.
    """

    def f(p):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                dens = packet.density_momentum(p) / (2.0 * math.pi)
                return np.asarray(weight(p)) * dens[:, np.newaxis]
        except FloatingPointError as exc:
            raise OverflowSignal("packet integrand leaves the float range (%s)" % exc) from None

    lo, hi = density_window(packet.rel, packet.alpha, packet.beta_r, 2, spec)
    return _line_integral(f, lo, hi, spec, columns=columns)


def closed_form_norm_constant(rel, alpha, beta_r):
    """Normalization A of the minimal packet from the paper's closed form of
    1/A^2 = (1/2pi) int exp(-2 alpha E + 2 beta_r p) dp: a Gaussian for the
    non-relativistic kind, I_0(2 alpha / m a^2) / a on the lattice,
    m alpha K_1(2 m s) / (pi s) with s^2 = alpha^2 - beta_r^2 for the
    relativistic kind, and alpha / (2 pi s^2) massless.

    ``OverflowSignal`` where 1/A^2 leaves the float range; ``InvalidParams``
    where A^2 is not a finite positive float (1/A^2 underflows to 0).
    """
    m = rel.mass
    with np.errstate(all="ignore"):
        if rel.kind is Kind.NON_RELATIVISTIC:
            inv_a2 = math.sqrt(m / (4.0 * math.pi * alpha)) * np.exp(m * beta_r * beta_r / alpha)
        elif rel.kind is Kind.LATTICE:
            a = rel.lattice_spacing
            inv_a2 = _bessel_i_vec(0, 2.0 * alpha / (m * a * a))[0].real / a
        elif rel.kind is Kind.RELATIVISTIC:
            s = math.sqrt(alpha * alpha - beta_r * beta_r)
            inv_a2 = m * alpha * _bessel_k01_vec(2.0 * m * s)[1][0].real / (math.pi * s)
        else:  # massless
            inv_a2 = alpha / (2.0 * math.pi * (alpha * alpha - beta_r * beta_r))
    inv_a2 = float(inv_a2)
    if not math.isfinite(inv_a2):
        raise OverflowSignal("1/A^2 of the packet leaves the float range")
    norm_a = 1.0 / math.sqrt(inv_a2) if inv_a2 > 0.0 else math.inf
    if not (0.0 < norm_a * norm_a < math.inf):
        raise InvalidParams("A^2 of the packet is not a finite positive float")
    return norm_a


def make_minimal(rel, alpha, beta_r=0.0, beta_i=0.0):
    """Construct a normalized minimal uncertainty packet.

    The stored A is ``closed_form_norm_constant``; no quadrature runs. The
    test suite checks it against a quadrature of |Phi|^2.
    """
    alpha = float(alpha)
    beta_r = float(beta_r)
    beta_i = float(beta_i)
    _validate_params(rel, alpha, beta_r, beta_i)
    return PacketParams(rel, alpha, beta_r, beta_i, closed_form_norm_constant(rel, alpha, beta_r))


def _width_of(rel, alpha, target_v):
    """Closed-form position uncertainty of the packet with <v> = target_v
    centred at x = 0 (beta_i = 0)."""
    from .moments import moments_closed_form  # moments imports this module

    return moments_closed_form(make_minimal(rel, alpha, alpha * target_v)).width_x


def solve_parameters(rel, targets, mode="alpha"):
    """Solve packet parameters from physical targets.

    Integrating d|Phi|^2/dp = 2(beta_r - alpha v)|Phi|^2 over the packet's
    domain gives <v> = beta_r / alpha for every kind, so beta_r is
    ``alpha * targets.mean_velocity`` without a search. ``mode='alpha'``
    takes ``targets.width_parameter`` as alpha directly. ``mode='width'``
    brackets alpha and bisects until the closed-form position uncertainty
    matches the target.
    """
    if mode not in ("alpha", "width"):
        raise InvalidInput("mode must be 'alpha' or 'width'")
    if abs(targets.mean_velocity) >= rel.max_speed():
        raise Unsatisfiable(
            "target |<v>| must be strictly below the dispersion's top speed"
        )
    if rel.kind is Kind.LATTICE:
        if targets.mean_velocity != 0.0:
            raise Unsatisfiable("lattice minimal packets do not move sideways")
        if rel._sites(targets.mean_position) is None:
            raise Unsatisfiable("lattice packets must be centered on a lattice site")

    v = float(targets.mean_velocity)
    beta_i = -float(targets.mean_position)
    if mode == "alpha":
        alpha = float(targets.width_parameter)
        return make_minimal(rel, alpha, alpha * v, beta_i)

    target_dx = float(targets.width_parameter)
    lo = hi = 1.0
    for _ in range(200):
        if _width_of(rel, lo, v) <= target_dx:
            break
        lo *= 0.5
    else:
        raise NonConvergence("no lower bracket for the width solve")
    for _ in range(200):
        if _width_of(rel, hi, v) >= target_dx:
            break
        hi *= 2.0
    else:
        raise NonConvergence("no upper bracket for the width solve")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w_mid = _width_of(rel, mid, v)
        if abs(w_mid - target_dx) <= 1e-8 * target_dx:
            return make_minimal(rel, mid, mid * v, beta_i)
        if w_mid < target_dx:
            lo = mid
        else:
            hi = mid
    raise NonConvergence("width bisection did not converge")
