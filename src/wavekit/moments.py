"""Expectation values, uncertainties, and the spreading law.

``moments_quadrature`` is the generic oracle for any packet; position
moments use the analytic derivative d/dp Phi = (beta - alpha v) Phi rather
than numeric differencing. ``moments_closed_form`` carries every per-kind
closed form: Gaussian moments for the non-relativistic continuum, the
I_0/I_1 list for the lattice, the K_0/K_1 list (plus a semi-infinite
K_0 integral) for the relativistic case, and rational forms for the
massless limit, each with its <E''> for the uncertainty bound. Fields with
no closed form are left absent (None), which is not the same as zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Kind
from .errors import OverflowSignal
from .numerics import DEFAULT_SPEC, _bessel_i_vec, _bessel_k01_vec
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
    """Moments of one packet, the spread stored central: var_x, var_v and
    cov_vx = (1/2)<vx+xv> - <v><x>. Only here do mean_x2, mean_v2 and corr_vx
    derive from them, so a translation beta_i costs the widths no digits.
    mean_curv is <d^2E/dp^2>; half its magnitude is the uncertainty bound."""

    mean_x: float | None
    var_x: float | None
    mean_v: float | None
    var_v: float | None
    mean_p: float | None
    mean_p2: float | None
    mean_E: float | None
    mean_E2: float | None
    cov_vx: float | None
    provenance: Provenance
    mean_curv: float | None = None

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
    def mean_x2(self):
        return None if self.var_x is None else _finite(lambda: self.var_x + self.mean_x**2)

    @property
    def mean_v2(self):
        return None if self.var_v is None else _finite(lambda: self.var_v + self.mean_v**2)

    @property
    def corr_vx(self):
        if self.cov_vx is None:
            return None
        return _finite(lambda: 2.0 * (self.cov_vx + self.mean_v * self.mean_x))

    @property
    def width_x(self):
        return math.sqrt(self.var_x)

    @property
    def width_v(self):
        return math.sqrt(self.var_v)

    @property
    def bound(self):
        """(1/2)|<d^2E/dp^2>|, the paper's bound on Dx Dv; None where mean_curv is."""
        return None if self.mean_curv is None else 0.5 * abs(self.mean_curv)


def _finite(raw):
    """The raw moment ``raw()``; ``OverflowSignal`` where it leaves the float
    range (float ** raises past ~1.3e154, a product turns inf)."""
    try:
        value = raw()
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise OverflowSignal("a raw second moment leaves the float range; the central ones do not")


def moments_quadrature(packet, spec=DEFAULT_SPEC):
    """All moments of a normalized packet by adaptive quadrature.

    x = i d/dp acting on Phi, with Phi' = (beta - alpha v) Phi, gives
    Phi* i Phi' / |Phi|^2 = -beta_i + i(beta_r - alpha v). So <x> = -beta_i,
    var_x is the integral of |(beta_r - alpha v) Phi|^2 / 2pi and var_v that
    of (v - beta_r/alpha)^2 |Phi|^2 / 2pi, both central by <v> = beta_r/alpha;
    beta_i, a pure translation, enters neither. The connected correlation
    is exactly 0: Re (v Phi)* i Phi' = -beta_i v |Phi|^2 integrates to <v><x>.
    The massless curvature 2 delta(p) has no quadrature form: mean_curv None.
    """
    rel = packet.rel
    alpha, beta_r, beta_i = packet.alpha, packet.beta_r, packet.beta_i

    def weights(p):
        v = rel.velocity(p)
        e = rel.energy(p)
        d = beta_r - alpha * v
        dv = v - beta_r / alpha
        x_w = np.full_like(p, -beta_i)  # Re Phi* i Phi' / |Phi|^2
        curv = np.zeros_like(p) if rel.kind is Kind.MASSLESS else rel.curvature(p)
        return np.stack([v, dv * dv, p, p * p, e, e * e, x_w, d * d, curv], axis=1)

    vals, _ = expectation_many(packet, weights, spec, columns=9)
    return MomentSet(
        mean_x=float(vals[6].real),
        var_x=float(vals[7].real),
        mean_v=float(vals[0].real),
        var_v=float(vals[1].real),
        mean_p=float(vals[2].real),
        mean_p2=float(vals[3].real),
        mean_E=float(vals[4].real),
        mean_E2=float(vals[5].real),
        cov_vx=0.0,
        provenance=Provenance.QUADRATURE,
        mean_curv=None if rel.kind is Kind.MASSLESS else float(vals[8].real),
    )


def _rapidity_sum(mass, alpha, beta_r, power):
    """e^-z int exp(-2z sinh^2(u/2)) / cosh^power(u + th_0) du as one fixed
    trapezoid sum, z = 2ms, s^2 = (alpha - beta_r)(alpha + beta_r), sinh th_0 =
    beta_r/s: analytic in a strip, so step min(0.2, 0.5/sqrt z) converges
    geometrically (Trefethen-Weideman 2014)."""
    s = math.sqrt((alpha - beta_r) * (alpha + beta_r))
    z = 2.0 * mass * s
    h = min(0.2, 0.5 / math.sqrt(z))
    k = int(math.acosh(1.0 + 40.0 / z) / h)
    u = h * np.arange(-k, k + 1)
    # At small z, |u| reaches log(80/z): a term past float max is 0, its limit.
    with np.errstate(over="ignore"):
        terms = np.exp(-2.0 * z * np.sinh(0.5 * u) ** 2) / np.cosh(u + math.asinh(beta_r / s)) ** power
    return math.exp(-z) * h * float(terms.sum())


def relativistic_k0_integral(mass, alpha, beta_r):
    """int_alpha^inf K_0(2m sqrt(a^2 - beta_r^2)) da: by K_0(2m sqrt(a^2 - b^2)) =
    (1/2) int exp(-2m(a cosh th - b sinh th)) dth, the power-1 rapidity sum / 4m."""
    return _rapidity_sum(mass, alpha, beta_r, 1) / (4.0 * mass)


def _kind_closed_forms(rel, alpha, beta_r):
    """The fields of ``moments_closed_form`` that depend on the kind."""
    s2 = (alpha - beta_r) * (alpha + beta_r)  # rel and massless; as in the K_0 sum

    if rel.kind is Kind.NON_RELATIVISTIC:
        m = rel.mass
        p_bar = m * beta_r / alpha
        sigma2 = m / (2.0 * alpha)
        p2 = sigma2 + p_bar**2
        p4 = 3.0 * sigma2**2 + 6.0 * sigma2 * p_bar**2 + p_bar**4
        mean_v = beta_r / alpha
        out = dict(
            var_x=alpha / (2.0 * m),
            mean_v=mean_v,
            var_v=1.0 / (2.0 * m * alpha),
            mean_p=p_bar,
            mean_p2=p2,
            mean_E=p2 / (2.0 * m),
            mean_E2=p4 / (4.0 * m * m),
            mean_curv=1.0 / m,
        )
    elif rel.kind is Kind.LATTICE:
        m, a = rel.mass, rel.lattice_spacing
        arg = 2.0 * alpha / (m * a * a)
        iv, _ = _bessel_i_vec([0, 1], arg)
        i0, i1 = float(iv[0].real), float(iv[1].real)
        ratio = i1 / i0
        out = dict(
            var_x=alpha * ratio / (2.0 * m),
            mean_v=0.0,
            var_v=ratio / (2.0 * m * alpha),
            mean_p=0.0,  # odd integrand over the zone: exact zero
            mean_p2=None,  # no closed form in I_0, I_1
            mean_E=-ratio / (m * a * a),
            mean_E2=(1.0 - m * a * a * ratio / (2.0 * alpha)) / (m * a * a) ** 2,
            mean_curv=ratio / m,
        )
    elif rel.kind is Kind.RELATIVISTIC:
        m = rel.mass
        s = math.sqrt(s2)
        kv = _bessel_k01_vec(2.0 * m * s)
        k0, k1 = float(kv[0][0].real), float(kv[1][0].real)
        kfac = 1.0 + m * s * k0 / k1
        j_int = relativistic_k0_integral(m, alpha, beta_r)
        mean_p2 = m**2 * beta_r**2 / s**2 + (alpha**2 + 3.0 * beta_r**2) / (
            2.0 * s**4
        ) * kfac
        out = dict(
            var_x=s2 - (2.0 * alpha * m * s / k1) * j_int,
            mean_v=beta_r / alpha,
            # <v^2> - (beta_r/alpha)^2 with 1 - (beta_r/alpha)^2 = s^2/alpha^2
            var_v=s2 / alpha**2 - (2.0 * m * s / (alpha * k1)) * j_int,
            mean_p=beta_r / s**2 * kfac,
            mean_p2=mean_p2,
            mean_E=alpha / s**2 * kfac - 1.0 / (2.0 * alpha),
            mean_E2=mean_p2 + m**2,
            mean_curv=s * _rapidity_sum(m, alpha, beta_r, 2) / (2.0 * m * alpha * k1),
        )
    else:  # massless
        mean_p2 = (alpha**2 + 3.0 * beta_r**2) / (2.0 * s2**2)
        out = dict(
            var_x=s2,
            mean_v=beta_r / alpha,
            var_v=s2 / alpha**2,
            mean_p=beta_r / s2,
            mean_p2=mean_p2,
            mean_E=(alpha**2 + beta_r**2) / (2.0 * alpha * s2),
            mean_E2=mean_p2,
            mean_curv=2.0 * s2 / alpha,
        )

    return out


def moments_closed_form(packet):
    """Per-kind closed-form moments.

    The spreads are central, so they are the same at every beta_i: a
    nonzero beta_i only translates the packet, shifting <x> by -beta_i.
    <E''> is 1/m, <cos pa>/m, m^2 <E^-3> (the rapidity sum of power 2) and,
    massless, <2 delta(p)> = 2|Phi(0)|^2/2pi = 2 s^2/alpha.
    ``OverflowSignal`` where a value, or a step on the way to it, leaves
    the float range (a float ** overflows, a denominator underflows to 0).
    """
    try:
        out = _kind_closed_forms(packet.rel, packet.alpha, packet.beta_r)
    except (OverflowError, ZeroDivisionError):
        out = None
    if out is None or not all(math.isfinite(v) for v in out.values() if v is not None):
        raise OverflowSignal("a closed-form moment of the packet leaves the float range")
    # Minimal packets have vanishing connected position-velocity correlation.
    return MomentSet(
        mean_x=0.0 - packet.beta_i,  # 0.0, not -0.0, at beta_i = 0
        cov_vx=0.0,
        provenance=Provenance.CLOSED_FORM,
        **out,
    )


def uncertainty_bound(packet):
    """(1/2) |<d^2E/dp^2>| for the packet, from the closed forms."""
    return moments_closed_form(packet).bound


def ehrenfest_position(m0, t):
    """<x>(t) = <x>(0) + <v> t."""
    return m0.mean_x + m0.mean_v * t


def spreading_width_sq(m0, t):
    """Dx(t)^2 = Dx(0)^2 + 2 cov_vx t + Dv^2 t^2, from the central moments.

    For minimal packets the linear coefficient vanishes.
    """
    return m0.var_x + 2.0 * m0.cov_vx * t + m0.var_v * t * t
