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

from .dispersion import DispersionRelation, Kind
from .errors import InvalidBoost, InvalidInput, KindMismatch
from .moments import MomentSet, Provenance, moments_quadrature
from .numerics import DEFAULT_SPEC, _line_integral
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
    window: tuple


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


def lorentz_boost_wavefunction(psi, u, mass, window):
    """Boost an arbitrary normalized momentum-space wave function.

    Uses the explicit inverse map p = gamma [p' + u E'(p')] and the real
    positive residual A(-p') = sqrt(gamma (1 + u v'(p'))). ``window`` (lo,
    hi) bounds the momenta that carry |psi|^2 in its own frame; the boosted
    window is its image under the increasing map p' = gamma (p - u E(p)).
    The map's Jacobian is |A(-p')|^2, so the boosted density outside that
    window has exactly the norm psi has outside its own.
    """
    bp = BoostParams.lorentz(u)
    m = float(mass)
    if not m > 0.0:
        raise KindMismatch("the wave-function boost map needs a massive dispersion")
    gamma = bp.gamma
    rel = DispersionRelation.relativistic(m)

    def residual(p_prime):
        return np.sqrt(gamma * (1.0 + u * rel.velocity(p_prime))).astype(complex)

    def evaluator(p_prime):
        p = gamma * (np.asarray(p_prime, dtype=float) + u * rel.energy(p_prime))
        return residual(p_prime) * psi(p)

    ends = np.asarray(window, dtype=float)
    if not (ends.shape == (2,) and np.all(np.isfinite(ends)) and ends[0] < ends[1]):
        raise InvalidInput("window must be two finite momenta lo < hi")
    ends = gamma * (ends - u * rel.energy(ends))
    return BoostedWave(
        evaluator=evaluator,
        residual_factor=residual,
        u=float(u),
        mass=m,
        window=(float(ends[0]), float(ends[1])),
    )


def boost_minimal_packet(packet, u, spec=DEFAULT_SPEC):
    """Lorentz-boost a relativistic minimal packet's wave function."""
    if packet.rel.kind is not Kind.RELATIVISTIC:
        raise KindMismatch("wave-function boosts are defined for the relativistic kind")
    window = density_window(packet.rel, packet.alpha, packet.beta_r, 2, spec)
    return lorentz_boost_wavefunction(packet.amplitude, u, packet.rel.mass, window)


def boosted_wave_moments(wave, spec=DEFAULT_SPEC):
    """Direct quadrature moments of |Psi_b(p')|^2: ``norm``, ``mean_E``,
    ``mean_p`` and ``mean_v``, the recomputed side of the boost report. The
    boosted spread and <E''> come from ``boosted_expectations``."""
    rel = DispersionRelation.relativistic(wave.mass)

    def f(p_prime):
        vals = wave.evaluator(p_prime)
        dens = np.abs(vals) ** 2 / (2.0 * math.pi)
        e = rel.energy(p_prime)
        w = np.stack([np.ones_like(e), e, p_prime, rel.velocity(p_prime)], axis=1)
        return w * dens[:, np.newaxis]

    vals, _ = _line_integral(f, *wave.window, spec, columns=4)
    vals = vals.real
    return {
        "norm": float(vals[0]),
        "mean_E": float(vals[1]),
        "mean_p": float(vals[2]),
        "mean_v": float(vals[3]),
    }


def boosted_expectations(packet, u, m0=None, spec=DEFAULT_SPEC):
    """Predicted boosted-frame moments from the unboosted packet, the spread
    central: mean_x, var_x, mean_v, var_v, mean_p, mean_E and mean_curv.

    <E>_b and <p>_b follow algebraically from the original moments; the rest
    are quadratures over the packet's own density (the map's Jacobian is
    |A(-p')|^2) of v' = (v - u)/(1 - u v) and E' = gamma (E - u p) = m
    cosh(theta - eta), p = m sinh theta, u = tanh eta, so E' is never a
    difference. Var v' = <(v' - c)^2> - (<v'> - c)^2 about the classical
    boosted velocity c = (v0 - u)/(1 - u v0) = beta_r'/alpha', v0 =
    beta_r/alpha, where v' - c = (alpha p - beta_r E)/(alpha' E') cancels
    nothing, and <E''>_b = m^2 <E'^-3>. x = i d/dp on Phi maps to gamma B, B Phi = [(1 +
    u v') i(beta - alpha v) + i (u/2) dv'/dp] Phi. Re B = -(1 + u v') beta_i
    varies only through u beta_i v', so <x>_b = -gamma beta_i (1 + u <v'>)
    and var_x_b = gamma^2 (<(Im B)^2> + (u beta_i)^2 Var v'): no beta_i^2
    cancelled.
    """
    if packet.rel.kind is not Kind.RELATIVISTIC:
        raise KindMismatch("boosted expectations are defined for the relativistic kind")
    bp = BoostParams.lorentz(u)
    gamma = bp.gamma
    if m0 is None:
        m0 = moments_quadrature(packet, spec)
    rel = packet.rel
    m = rel.mass
    alpha, beta_r, beta_i = packet.alpha, packet.beta_r, packet.beta_i
    alpha_b, beta_b = lorentz_boost_params(alpha, beta_r, u)
    c = beta_b / alpha_b
    eta = math.atanh(u)

    def weights(p):
        e = rel.energy(p)
        v = rel.velocity(p)
        curv = rel.curvature(p)
        v_prime = (v - u) / (1.0 - u * v)
        dv_prime = curv * (1.0 - u * u) / (1.0 - u * v) ** 2
        coef_im = (1.0 + u * v_prime) * (beta_r - alpha * v) + 0.5 * u * dv_prime
        e_prime = m * np.cosh(np.arcsinh(p / m) - eta)
        dev = (alpha * p - beta_r * e) / (alpha_b * e_prime)  # v' - c
        return np.stack([v_prime, dev * dev, coef_im * coef_im, m * m / e_prime**3], axis=1)

    vals, _ = expectation_many(packet, weights, spec, columns=4)
    mean_v_b, dev_sq, im_sq, mean_curv_b = (float(x) for x in vals.real)
    var_v_b = dev_sq - (mean_v_b - c) ** 2
    ub = u * beta_i
    return MomentSet(
        mean_x=gamma * (-beta_i - ub * mean_v_b),
        var_x=gamma * gamma * (im_sq + ub * ub * var_v_b),
        mean_v=mean_v_b,
        var_v=var_v_b,
        mean_p=gamma * (m0.mean_p - u * m0.mean_E),
        mean_p2=None,
        mean_E=gamma * (m0.mean_E - u * m0.mean_p),
        mean_E2=None,
        cov_vx=None,
        provenance=Provenance.QUADRATURE,
        mean_curv=mean_curv_b,
    )
