"""Expectation values, uncertainties, and the spreading law.

``moments_quadrature`` is the generic oracle for any packet; position
moments use the analytic derivative d/dp Phi = (beta - alpha v) Phi rather
than numeric differencing. ``moments_closed_form`` carries every per-kind
closed form: Gaussian moments for the non-relativistic continuum, the
I_0/I_1 list for the lattice, the K_0/K_1 list (plus a semi-infinite
K_0 integral) for the relativistic case, and rational forms for the
massless limit. Fields with no closed form are left absent (None), which
is not the same as zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Kind
from .numerics import DEFAULT_SPEC, _adaptive, _bessel_i_vec, _bessel_k01_vec, _tail_budget
from .packet import expectation_many

__all__ = [
    "Provenance",
    "MomentSet",
    "moments_quadrature",
    "moments_closed_form",
    "uncertainty_bound",
    "ehrenfest_position",
    "spreading_width_sq",
]


class Provenance(enum.Enum):
    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MomentSet:
    mean_x: float | None
    mean_x2: float | None
    mean_v: float | None
    mean_v2: float | None
    mean_p: float | None
    mean_p2: float | None
    mean_E: float | None
    mean_E2: float | None
    corr_vx: float | None
    provenance: Provenance

    FIELDS = (
        "mean_x",
        "mean_x2",
        "mean_v",
        "mean_v2",
        "mean_p",
        "mean_p2",
        "mean_E",
        "mean_E2",
        "corr_vx",
    )

    @property
    def width_x(self):
        return math.sqrt(self.mean_x2 - self.mean_x**2)

    @property
    def width_v(self):
        return math.sqrt(self.mean_v2 - self.mean_v**2)


def moments_quadrature(packet, spec=DEFAULT_SPEC):
    """All moments of a normalized packet by adaptive quadrature.

    x = i d/dp acting on Phi gives <x> = (1/2pi) int Phi* i Phi' dp with
    Phi' = (beta - alpha v) Phi, and <x^2> = (1/2pi) int |Phi'|^2 dp; the
    symmetrized correlation is <vx+xv> = 2 Re (1/2pi) int (v Phi)* i Phi' dp.
    Of Phi* i Phi' / |Phi|^2 = -beta_i + i(beta_r - alpha v) only -beta_i is
    integrated: the rest integrates to exactly 0 by <v> = beta_r / alpha.
    So <vx+xv> = -2 beta_i <v> is taken from the v column: integrated as a
    column of its own, it is 0 at beta_r = 0 with errors of size |beta_i|,
    which no tolerance meets at large beta_i.
    """
    rel = packet.rel
    alpha, beta_r, beta_i = packet.alpha, packet.beta_r, packet.beta_i

    def weights(p):
        v = rel.velocity(p)
        e = rel.energy(p)
        d = beta_r - alpha * v
        x_w = np.full_like(p, -beta_i)  # Re Phi* i Phi' / |Phi|^2
        x2_w = d * d + beta_i * beta_i  # |Phi'|^2 / |Phi|^2
        return np.stack([v, v * v, p, p * p, e, e * e, x_w, x2_w], axis=1)

    vals, _ = expectation_many(packet, weights, spec)
    return MomentSet(
        mean_x=float(vals[6].real),
        mean_x2=float(vals[7].real),
        mean_v=float(vals[0].real),
        mean_v2=float(vals[1].real),
        mean_p=float(vals[2].real),
        mean_p2=float(vals[3].real),
        mean_E=float(vals[4].real),
        mean_E2=float(vals[5].real),
        corr_vx=float(-2.0 * beta_i * vals[0].real) + 0.0,  # + 0.0 turns -0 into 0
        provenance=Provenance.QUADRATURE,
    )


def relativistic_k0_integral(mass, alpha, beta_r, spec=DEFAULT_SPEC):
    """int_alpha^inf K_0(2 m sqrt(a'^2 - beta^2)) da', decay rate 2m."""

    def f(y):
        arg = 2.0 * mass * np.sqrt((alpha + y) ** 2 - beta_r**2)
        k0, _, _, _ = _bessel_k01_vec(arg.astype(complex))
        return k0

    val, _ = _adaptive(f, 0.0, _tail_budget(spec) / (2.0 * mass), spec, initial_panels=8)
    return float(val.real)


def moments_closed_form(packet, spec=DEFAULT_SPEC):
    """Per-kind closed-form moments.

    The closed forms are quoted at beta_i = 0; a nonzero beta_i only
    translates the packet, shifting <x> by -beta_i and <x^2> by beta_i^2.
    """
    rel = packet.rel
    alpha, beta_r, beta_i = packet.alpha, packet.beta_r, packet.beta_i
    mean_x = -beta_i

    if rel.kind is Kind.NON_RELATIVISTIC:
        m = rel.mass
        p_bar = m * beta_r / alpha
        sigma2 = m / (2.0 * alpha)
        p2 = sigma2 + p_bar**2
        p4 = 3.0 * sigma2**2 + 6.0 * sigma2 * p_bar**2 + p_bar**4
        mean_v = beta_r / alpha
        out = dict(
            mean_x2=alpha / (2.0 * m) + beta_i**2,
            mean_v=mean_v,
            mean_v2=1.0 / (2.0 * m * alpha) + (beta_r / alpha) ** 2,
            mean_p=p_bar,
            mean_p2=p2,
            mean_E=p2 / (2.0 * m),
            mean_E2=p4 / (4.0 * m * m),
        )
    elif rel.kind is Kind.LATTICE:
        m, a = rel.mass, rel.lattice_spacing
        arg = 2.0 * alpha / (m * a * a)
        iv, _ = _bessel_i_vec([0, 1], arg)
        i0, i1 = float(iv[0].real), float(iv[1].real)
        ratio = i1 / i0
        out = dict(
            mean_x2=alpha * ratio / (2.0 * m) + beta_i**2,
            mean_v=0.0,
            mean_v2=ratio / (2.0 * m * alpha),
            mean_p=0.0,  # odd integrand over the zone: exact zero
            mean_p2=None,  # no closed form in I_0, I_1
            mean_E=-ratio / (m * a * a),
            mean_E2=(1.0 - m * a * a * ratio / (2.0 * alpha)) / (m * a * a) ** 2,
        )
    elif rel.kind is Kind.RELATIVISTIC:
        m = rel.mass
        s = math.sqrt(alpha**2 - beta_r**2)
        kv = _bessel_k01_vec(2.0 * m * s)
        k0, k1 = float(kv[0][0].real), float(kv[1][0].real)
        kfac = 1.0 + m * s * k0 / k1
        j_int = relativistic_k0_integral(m, alpha, beta_r, spec)
        mean_p2 = m**2 * beta_r**2 / s**2 + (alpha**2 + 3.0 * beta_r**2) / (
            2.0 * s**4
        ) * kfac
        out = dict(
            mean_x2=alpha**2 - beta_r**2 - (2.0 * alpha * m * s / k1) * j_int + beta_i**2,
            mean_v=beta_r / alpha,
            mean_v2=1.0 - (2.0 * m * s / (alpha * k1)) * j_int,
            mean_p=beta_r / s**2 * kfac,
            mean_p2=mean_p2,
            mean_E=alpha / s**2 * kfac - 1.0 / (2.0 * alpha),
            mean_E2=mean_p2 + m**2,
        )
    else:  # massless
        s2 = alpha**2 - beta_r**2
        mean_p2 = (alpha**2 + 3.0 * beta_r**2) / (2.0 * s2**2)
        out = dict(
            mean_x2=s2 + beta_i**2,
            mean_v=beta_r / alpha,
            mean_v2=1.0,
            mean_p=beta_r / s2,
            mean_p2=mean_p2,
            mean_E=(alpha**2 + beta_r**2) / (2.0 * alpha * s2),
            mean_E2=mean_p2,
        )

    # Minimal packets have vanishing connected position-velocity correlation.
    return MomentSet(
        mean_x=mean_x,
        corr_vx=2.0 * out["mean_v"] * mean_x,
        provenance=Provenance.CLOSED_FORM,
        **out,
    )


def uncertainty_bound(packet, spec=DEFAULT_SPEC):
    """(1/2) |<d^2E/dp^2>| for the packet.

    The massless curvature is 2 delta(p); its expectation is taken
    analytically as the momentum density at p = 0 rather than through any
    finite-difference stencil, which would be mesh-dependent garbage.
    """
    rel = packet.rel
    if rel.kind is Kind.MASSLESS:
        # <2 delta(p)> = 2 |Phi(0)|^2 / 2pi; E(0) = 0 so |Phi(0)| = A.
        return 0.5 * 2.0 * packet.norm_A**2 / (2.0 * math.pi)
    vals, _ = expectation_many(
        packet, lambda p: rel.curvature(p)[:, np.newaxis], spec
    )
    return 0.5 * abs(float(vals[0].real))


def ehrenfest_position(m0, t):
    """<x>(t) = <x>(0) + <v> t."""
    return m0.mean_x + m0.mean_v * t


def spreading_width_sq(m0, t):
    """Dx(t)^2 = Dx(0)^2 + [<vx+xv> - 2<v><x>] t + Dv^2 t^2.

    For minimal packets the linear coefficient vanishes.
    """
    var_x = m0.mean_x2 - m0.mean_x**2
    var_v = m0.mean_v2 - m0.mean_v**2
    linear = m0.corr_vx - 2.0 * m0.mean_v * m0.mean_x
    return var_x + linear * t + var_v * t * t
