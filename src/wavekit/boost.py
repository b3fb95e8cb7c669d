"""Galilean and Lorentz boosts of momentum-space wave functions.

A Galilean boost shifts the packet parameters (alpha, beta) -> (alpha,
beta - u alpha) and preserves minimality. A Lorentz boost maps (alpha,
beta) as a space-time vector and multiplies the wave function by the
non-constant residual factor A(-p') with |A(-p')|^2 = gamma (1 + u v'),
so boosted relativistic packets are no longer minimal. The phase of A is
fixed real positive; only |A|^2 is determined by the normalization
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import Kind
from .errors import InvalidBoost, KindMismatch
from .moments import MomentSet, Provenance, moments_quadrature
from .numerics import DEFAULT_SPEC, _line_integral, _tail_budget
from .packet import density_window, expectation_many, make_minimal

__all__ = [
    "BoostParams",
    "BoostedWave",
    "galilean_boost",
    "lorentz_boost_params",
    "lorentz_boost_wavefunction",
    "boost_minimal_packet",
    "boosted_wave_moments",
    "boosted_expectations",
]


@dataclass(frozen=True)
class BoostParams:
    u: float
    gamma: float

    @classmethod
    def lorentz(cls, u):
        u = float(u)
        if not abs(u) < 1.0:
            raise InvalidBoost("Lorentz boosts require |u| < 1")
        return cls(u=u, gamma=1.0 / math.sqrt(1.0 - u * u))


@dataclass(frozen=True)
class BoostedWave:
    """A boosted momentum-space wave function Psi_b(p') = A(-p') Psi(p(p'))."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    residual_factor: Callable[[np.ndarray], np.ndarray]
    u: float
    mass: float
    decay_rate: float

    def __call__(self, p_prime):
        return self.evaluator(p_prime)


def galilean_boost(packet, u):
    """Boost a non-relativistic packet: alpha' = alpha, beta' = beta - u alpha."""
    if packet.rel.kind is not Kind.NON_RELATIVISTIC:
        raise KindMismatch("Galilean boosts apply to non-relativistic packets")
    return make_minimal(
        packet.rel,
        packet.alpha,
        packet.beta_r - u * packet.alpha,
        packet.beta_i,
    )


def lorentz_boost_params(alpha, beta_r, u):
    """(alpha, beta) -> gamma (alpha - u beta), gamma (beta - u alpha).

    The combination alpha^2 - beta^2 is invariant, so alpha > |beta_r|
    survives the boost.
    """
    bp = BoostParams.lorentz(u)
    return (
        bp.gamma * (alpha - u * beta_r),
        bp.gamma * (beta_r - u * alpha),
    )


def lorentz_boost_wavefunction(psi, u, mass, decay_rate=1.0):
    """Boost an arbitrary normalized momentum-space wave function.

    Uses the explicit inverse map p = gamma [p' + u E'(p')] and the real
    positive residual A(-p') = sqrt(gamma (1 + u v'(p'))). ``decay_rate``
    is the exponential-decay hint of |psi|^2 in its own frame; the boosted
    hint shrinks by the worst-case momentum compression gamma (1 - |u|).
    """
    bp = BoostParams.lorentz(u)
    m = float(mass)
    if not m > 0.0:
        raise KindMismatch("the wave-function boost map needs a massive dispersion")
    gamma = bp.gamma

    def residual(p_prime):
        p_prime = np.asarray(p_prime, dtype=float)
        v_prime = p_prime / np.sqrt(p_prime * p_prime + m * m)
        return np.sqrt(gamma * (1.0 + u * v_prime)).astype(complex)

    def evaluator(p_prime):
        p_prime = np.asarray(p_prime, dtype=float)
        e_prime = np.sqrt(p_prime * p_prime + m * m)
        p = gamma * (p_prime + u * e_prime)
        return residual(p_prime) * psi(p)

    boosted_rate = decay_rate * gamma * (1.0 - abs(u))
    return BoostedWave(
        evaluator=evaluator,
        residual_factor=residual,
        u=float(u),
        mass=m,
        decay_rate=boosted_rate,
    )


def boost_minimal_packet(packet, u, spec=DEFAULT_SPEC):
    """Lorentz-boost a relativistic minimal packet's wave function."""
    if packet.rel.kind is not Kind.RELATIVISTIC:
        raise KindMismatch("wave-function boosts are defined for the relativistic kind")
    lo, hi = density_window(packet.rel, packet.alpha, packet.beta_r, 2, spec)
    rate = _tail_budget(spec) / max(-lo, hi)
    return lorentz_boost_wavefunction(packet.amplitude, u, packet.rel.mass, decay_rate=rate)


def boosted_wave_moments(wave, spec=DEFAULT_SPEC):
    """Direct quadrature moments of |Psi_b(p')|^2: norm, <E>, <p>, <v>, <v^2>,
    and <E^-3> (the boosted-frame uncertainty-bound weight)."""
    m = wave.mass

    def f(p_prime):
        vals = wave.evaluator(p_prime)
        dens = np.abs(vals) ** 2 / (2.0 * math.pi)
        e = np.sqrt(p_prime * p_prime + m * m)
        v = p_prime / e
        w = np.stack(
            [np.ones_like(e), e, p_prime, v, v * v, e**-3], axis=1
        )
        return w * dens[:, np.newaxis]

    window = _tail_budget(spec) / wave.decay_rate
    vals, _ = _line_integral(f, -window, window, spec)
    vals = vals.real
    return {
        "norm": float(vals[0]),
        "mean_E": float(vals[1]),
        "mean_p": float(vals[2]),
        "mean_v": float(vals[3]),
        "mean_v2": float(vals[4]),
        "mean_E_m3": float(vals[5]),
    }


def boosted_expectations(packet, u, m0=None, spec=DEFAULT_SPEC):
    """Predicted boosted-frame expectations from the unboosted packet.

    <E>_b and <p>_b follow algebraically from the original moments;
    <v>_b, <x>_b, and <x^2>_b are quadratures of the boosted-velocity
    expressions v' = (v - u)/(1 - u v) in the original state, with
    x = i d/dp applied through the analytic derivative of Phi.
    """
    if packet.rel.kind is not Kind.RELATIVISTIC:
        raise KindMismatch("boosted expectations are defined for the relativistic kind")
    bp = BoostParams.lorentz(u)
    gamma = bp.gamma
    if m0 is None:
        m0 = moments_quadrature(packet, spec)
    rel = packet.rel
    alpha, beta_r, beta_i = packet.alpha, packet.beta_r, packet.beta_i

    def weights(p):
        v = rel.velocity(p)
        curv = rel.curvature(p)
        v_prime = (v - u) / (1.0 - u * v)
        dv_prime = curv * (1.0 - u * u) / (1.0 - u * v) ** 2
        d = beta_r - alpha * v
        x_w = np.full_like(p, -beta_i)  # Re Phi* i Phi' / |Phi|^2
        sym_w = 2.0 * v_prime * x_w  # Re <v'x + xv'> weight
        # B Phi = [(1 + u v') i(beta - alpha v) + i (u/2) dv'/dp] Phi
        coef_re = -(1.0 + u * v_prime) * beta_i
        coef_im = (1.0 + u * v_prime) * d + 0.5 * u * dv_prime
        b_sq = coef_re * coef_re + coef_im * coef_im
        return np.stack([v_prime, x_w, sym_w, b_sq], axis=1)

    vals, _ = expectation_many(packet, weights, spec)
    mean_v_b = float(vals[0].real)
    mean_x = float(vals[1].real)
    sym = float(vals[2].real)
    mean_x_b = gamma * (mean_x + 0.5 * u * sym)
    mean_x2_b = gamma * gamma * float(vals[3].real)
    return MomentSet(
        mean_x=mean_x_b,
        mean_x2=mean_x2_b,
        mean_v=mean_v_b,
        mean_v2=None,
        mean_p=gamma * (m0.mean_p - u * m0.mean_E),
        mean_p2=None,
        mean_E=gamma * (m0.mean_E - u * m0.mean_p),
        mean_E2=None,
        corr_vx=None,
        provenance=Provenance.QUADRATURE,
    )
