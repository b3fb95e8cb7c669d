"""Moment closed forms against the quadrature oracle and spreading laws."""

import math

import pytest

from wavekit import numerics
from wavekit.analysis import evolved_moments
from wavekit.boost import boost_minimal_packet, boosted_wave_moments
from wavekit.dispersion import DispersionRelation, Kind
from wavekit.moments import (
    MomentSet,
    Provenance,
    ehrenfest_position,
    moments_closed_form,
    moments_quadrature,
    relativistic_k0_integral,
    spreading_width_sq,
    uncertainty_bound,
)
from wavekit.packet import make_minimal
from wavekit.selfcheck import reference_packets

NONREL = DispersionRelation.non_relativistic(3.0)
LATTICE = DispersionRelation.lattice(3.0, 1.0)
REL = DispersionRelation.relativistic(1.0)
MASSLESS = DispersionRelation.massless()

# Frozen oracle values: I1(2/3)/(6 I0(2/3)) and
# (2/3)(1 + (sqrt3/2) K0(sqrt3)/K1(sqrt3)).
LATTICE_X2 = 0.052681540211370197
REL_MEAN_P = 1.1246884938136989


def _rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def test_nonrel_reference_values():
    m = moments_quadrature(make_minimal(NONREL, 1.0, 0.0, 0.0))
    assert m.mean_x2 == pytest.approx(1.0 / 6.0, rel=1e-10)
    assert m.mean_v2 == pytest.approx(1.0 / 6.0, rel=1e-10)


def test_massless_reference_values():
    m = moments_quadrature(make_minimal(MASSLESS, 1.0, 0.5, 0.0))
    assert m.mean_v == pytest.approx(0.5, abs=1e-10)
    assert m.mean_v2 == pytest.approx(1.0, rel=1e-10)
    assert m.mean_x2 == pytest.approx(0.75, rel=1e-10)
    assert m.mean_E == pytest.approx(5.0 / 6.0, rel=1e-10)


def test_lattice_reference_value():
    m = moments_closed_form(make_minimal(LATTICE, 1.0, 0.0, 0.0))
    assert m.mean_x2 == pytest.approx(LATTICE_X2, rel=1e-10)


def test_relativistic_mean_p():
    m = moments_closed_form(make_minimal(REL, 1.0, 0.5, 0.0))
    assert m.mean_p == pytest.approx(REL_MEAN_P, rel=1e-10)


def test_correlation_vanishes():
    for rel, beta in ((NONREL, 0.5), (REL, 0.3), (MASSLESS, 0.2)):
        m = moments_quadrature(make_minimal(rel, 1.0, beta, 1.3))
        assert abs(m.corr_vx - 2.0 * m.mean_v * m.mean_x) <= 2e-8


def test_lattice_closed_form_absent_fields():
    m = moments_closed_form(make_minimal(LATTICE, 1.0, 0.0, 0.0))
    assert m.mean_p == 0.0  # odd integrand: exact closed-form zero
    assert m.mean_p2 is None  # genuinely no I0/I1 closed form
    assert m.provenance is Provenance.CLOSED_FORM


@pytest.mark.parametrize(
    "rel,alpha,beta_r",
    [
        (NONREL, 0.5, 0.25),
        (NONREL, 2.0, -1.0),
        (LATTICE, 0.5, 0.0),
        (LATTICE, 2.0, 0.0),
        (REL, 0.5, 0.125),
        (REL, 2.0, 1.0),
        (MASSLESS, 0.5, 0.25),
        (MASSLESS, 2.0, -0.5),
        (LATTICE, 30.0, 0.0),  # I_0, I_1 at 2 alpha/(m a^2) = 20, past the series
    ],
)
def test_closed_vs_quadrature(rel, alpha, beta_r):
    pk = make_minimal(rel, alpha, beta_r, 0.0)
    mq = moments_quadrature(pk)
    mc = moments_closed_form(pk)
    for field in MomentSet.FIELDS:
        closed = getattr(mc, field)
        if closed is None:
            continue
        assert _rel_diff(getattr(mq, field), closed) <= 1e-8, field


@pytest.mark.parametrize(
    "mass,alpha,beta_r",
    [(1.0, 10.0, 0.5), (1.0, 50.0, 0.5), (1.0, 200.0, 0.5), (3.0, 16.0, 9.6), (3.0, 10.0, 6.0)],
)
def test_relativistic_gaussian_core(mass, alpha, beta_r):
    # Large alpha m: the density is a narrow Gaussian far above its
    # exponential tails, and the quadrature window must hold all of it.
    pk = make_minimal(DispersionRelation.relativistic(mass), alpha, beta_r, 0.0)
    mq = moments_quadrature(pk)
    mc = moments_closed_form(pk)
    for field in MomentSet.FIELDS:
        assert _rel_diff(getattr(mq, field), getattr(mc, field)) <= 1e-8, field
    assert abs(mq.width_x * mq.width_v - uncertainty_bound(pk)) <= 1e-7


def test_boosted_norm_of_relativistic_gaussian_core():
    rel = DispersionRelation.relativistic(2.989082)
    pk = make_minimal(rel, 14.545359, 8.633171, 0.0)
    wave = boost_minimal_packet(pk, 0.070485)
    assert abs(boosted_wave_moments(wave)["norm"] - 1.0) <= 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rel, alpha, beta_r, beta_i",
    [
        (REL, 1.0, 0.0, 1000.0),
        (REL, 1.0, 0.5, 1000.0),
        (MASSLESS, 1.0, 0.0, 1000.0),
        (DispersionRelation.lattice(1.0, 1.0), 1.0, 0.0, 1000.0),
        (NONREL, 1.0, 0.0, 1e5),
        (NONREL, 1.0, 0.5, -1e5),
    ],
)
def test_large_beta_i(rel, alpha, beta_r, beta_i):
    # <vx+xv> and the <x> columns scale with beta_i; at beta_r = 0 the
    # correlation is 0, so as a column of its own it could never converge.
    pk = make_minimal(rel, alpha, beta_r, beta_i)
    mq = moments_quadrature(pk)
    mc = moments_closed_form(pk)
    assert mq.mean_x == pytest.approx(-beta_i, rel=1e-12)
    for field in MomentSet.FIELDS:
        if getattr(mc, field) is not None:
            assert _rel_diff(getattr(mq, field), getattr(mc, field)) <= 1e-8, field


@pytest.mark.parametrize("beta_i", [1e5, 1e6])
@pytest.mark.parametrize(
    "rel,beta_r",
    [(NONREL, 0.5), (LATTICE, 0.0), (REL, 0.5), (MASSLESS, 0.5)],
    ids=["nonrel", "lattice", "rel", "massless"],
)
def test_far_translation_keeps_the_spread(rel, beta_r, beta_i):
    # beta_i only translates the packet; widths by difference of raw moments
    # lost ~beta_i^2 ulp here and broke the 1e-7 saturation gate.
    pk = make_minimal(rel, 1.0, beta_r, beta_i)
    centred = make_minimal(rel, 1.0, beta_r, 0.0)
    bound = uncertainty_bound(pk)
    for moments in (moments_closed_form, moments_quadrature):
        m = moments(pk)
        assert abs(m.width_x * m.width_v - bound) <= 1e-7, moments.__name__
        law = spreading_width_sq(moments(centred), 2.0)
        assert spreading_width_sq(m, 2.0) == pytest.approx(law, rel=1e-12), moments.__name__


def test_massless_saturation_near_light_speed():
    # beta_r/alpha = 0.999: <v^2> - <v>^2 = 1 - 0.998001 lost digits.
    pk = make_minimal(MASSLESS, 1.0, 0.999, 0.0)
    for moments in (moments_closed_form, moments_quadrature):
        m = moments(pk)
        assert abs(m.width_x * m.width_v - uncertainty_bound(pk)) <= 1e-15, moments.__name__


def test_raw_moments_derive_from_central():
    m = MomentSet(
        mean_x=-2.0, var_x=0.5, mean_v=0.25, var_v=0.125, mean_p=None, mean_p2=None,
        mean_E=None, mean_E2=None, cov_vx=0.0, provenance=Provenance.CLOSED_FORM,
    )
    assert (m.mean_x2, m.mean_v2, m.corr_vx) == (4.5, 0.1875, -1.0)
    absent = MomentSet(
        mean_x=-2.0, var_x=0.5, mean_v=0.25, var_v=None, mean_p=None, mean_p2=None,
        mean_E=None, mean_E2=None, cov_vx=None, provenance=Provenance.QUADRATURE,
    )
    assert absent.mean_x2 == 4.5 and absent.mean_v2 is None and absent.corr_vx is None


def test_corr_vx_zero_is_unsigned():
    m = moments_quadrature(make_minimal(REL, 1.0, 0.5, 0.0))
    assert math.copysign(1.0, m.corr_vx) == 1.0


def test_variance_nonnegativity():
    for rel, beta, beta_i in (
        (NONREL, 1.2, 0.5),
        (LATTICE, 0.0, 1.0),
        (REL, 0.8, 0.5),
        (MASSLESS, 0.4, 0.5),
    ):
        m = moments_quadrature(make_minimal(rel, 1.0, beta, beta_i))
        assert m.var_x >= 0.0
        assert m.var_v >= 0.0
        assert m.mean_p2 >= m.mean_p**2
        assert m.mean_E2 >= m.mean_E**2


def test_relativistic_energy_identity():
    for alpha, beta in ((0.5, 0.1), (1.0, 0.5), (2.0, -0.8)):
        m = moments_closed_form(make_minimal(REL, alpha, beta, 0.0))
        assert abs(m.mean_E2 - (m.mean_p2 + 1.0)) <= 1e-10 * m.mean_E2


def test_massless_limit_of_relativistic():
    tiny = DispersionRelation.relativistic(1e-6)
    mc_rel = moments_closed_form(make_minimal(tiny, 1.0, 0.5, 0.0))
    mc_ml = moments_closed_form(make_minimal(MASSLESS, 1.0, 0.5, 0.0))
    for field in MomentSet.FIELDS:
        a, b = getattr(mc_rel, field), getattr(mc_ml, field)
        if a is None or b is None:
            continue
        assert _rel_diff(a, b) <= 1e-4, field


def _k0_integral_mpmath(mpmath, mass, alpha, beta_r):
    """(e^-z / 4m) int exp(-z(cosh u - 1)) / cosh(u + th_0) du at 30 digits
    from the float inputs, split where the integrand turns."""
    m, a, b = (mpmath.mpf(v) for v in (mass, alpha, beta_r))
    s = mpmath.sqrt((a - b) * (a + b))
    z, th0 = 2 * m * s, mpmath.atanh(b / a)
    edge = mpmath.acosh(1 + 100 / z)
    step = min(1, 2 / mpmath.sqrt(z))
    cuts = sorted({-edge, mpmath.mpf(0), edge, max(-th0, -edge)})
    nodes = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, int((hi - lo) / step))
        nodes += [lo + (hi - lo) * k / n for k in range(1, n + 1)]
    f = lambda u: mpmath.exp(-z * (mpmath.cosh(u) - 1)) / mpmath.cosh(u + th0)
    return mpmath.exp(-z) / (4 * m) * mpmath.quad(f, nodes)


# (m, alpha, beta_r) with z = 2 m sqrt(alpha^2 - beta_r^2) over [1e-3, 700]
# and beta_r/alpha up to 0.999, plus m = 5, alpha = 100, beta_r = 99.9
# (z = 44.7), where an adaptive rule was 5.7e-5 off.
K0_CASES = [
    (m, z / (2.0 * m) / math.sqrt(1.0 - r * r), r * z / (2.0 * m) / math.sqrt(1.0 - r * r))
    for m in (0.5, 5.0)
    for z in (1e-3, 0.1, 3.0, 50.0, 700.0)
    for r in (0.0, 0.9, 0.999)
] + [(5.0, 100.0, 99.9)]


@pytest.mark.parametrize("mass, alpha, beta_r", K0_CASES)
def test_relativistic_k0_integral_against_mpmath(mass, alpha, beta_r):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(_k0_integral_mpmath(mpmath, mass, alpha, beta_r))
    assert abs(relativistic_k0_integral(mass, alpha, beta_r) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("mass, alpha, ratio", [(1.0, 100.0, 0.99), (5.0, 50.0, 0.999), (5.0, 100.0, 0.999)])
def test_rel_closed_forms_near_light_speed(mass, alpha, ratio):
    # An adaptive K_0 integral missed the 1e-8 gate here (1.1e-3 at the last).
    pk = make_minimal(DispersionRelation.relativistic(mass), alpha, ratio * alpha, 0.0)
    mq, mc = moments_quadrature(pk), moments_closed_form(pk)
    for field in MomentSet.FIELDS:
        if getattr(mc, field) is not None:
            assert _rel_diff(getattr(mq, field), getattr(mc, field)) <= 1e-8, field


CURV_PACKETS = [pk for _, pk in reference_packets()] + [
    make_minimal(DispersionRelation.relativistic(5.0), 100.0, r * 100.0, 0.0) for r in (0.9, 0.99, 0.999)
]


@pytest.mark.parametrize("pk", CURV_PACKETS, ids=lambda pk: f"{pk.rel.kind.value}-a{pk.alpha}-b{pk.beta_r}")
def test_mean_curv_against_the_oracle(pk):
    closed, quad = moments_closed_form(pk).mean_curv, moments_quadrature(pk).mean_curv
    if pk.rel.kind is Kind.MASSLESS:
        # 2 delta(p) has no quadrature form; <2 delta(p)> = 2 |Phi(0)|^2 / 2pi.
        assert quad is None
        assert closed == pytest.approx(pk.norm_A**2 / math.pi, rel=1e-14)
    else:
        assert abs(closed - quad) <= 1e-8 * abs(quad)


def _curv_mpmath(mpmath, mass, alpha, beta_r):
    """m^2 <E^-3> at 30 digits from the float inputs: the ratio of two momentum
    integrals of the unnormalised density, split at p = 0, where E^-3 peaks,
    and at the density peak p = m beta_r / s."""
    m, a, b = (mpmath.mpf(v) for v in (mass, alpha, beta_r))
    s = mpmath.sqrt((a - b) * (a + b))
    peak = m * b / s
    dens = lambda p: mpmath.exp(-2 * a * (mpmath.hypot(p, m) - m * a / s) + 2 * b * (p - peak))
    cuts = sorted({-mpmath.inf, mpmath.mpf(0), peak, mpmath.inf})
    num = mpmath.quad(lambda p: m**2 / mpmath.hypot(p, m) ** 3 * dens(p), cuts)
    return num / mpmath.quad(dens, cuts)


@pytest.mark.parametrize(
    "mass, alpha, ratio",
    [(1.0, 1.0, 0.0), (1.0, 1.0, 0.5), (0.01, 0.5, 0.3), (0.5, 2.0, 0.9), (5.0, 100.0, 0.99),
     (5.0, 100.0, 0.999), (1.0, 10.0, 0.9999)],
)
def test_rel_mean_curv_against_mpmath(mass, alpha, ratio):
    # The quadrature oracle is 1.3e-12 off at ratio 0.999; the rapidity sum ~1e-15.
    mpmath = pytest.importorskip("mpmath")
    pk = make_minimal(DispersionRelation.relativistic(mass), alpha, ratio * alpha, 0.0)
    with mpmath.workdps(30):
        ref = float(_curv_mpmath(mpmath, mass, pk.alpha, pk.beta_r))
    assert abs(moments_closed_form(pk).mean_curv - ref) <= 1e-13 * ref


@pytest.mark.parametrize("rel", [NONREL, LATTICE, REL, MASSLESS], ids=["nonrel", "lattice", "rel", "massless"])
def test_uncertainty_bound_runs_no_quadrature(monkeypatch, rel):
    pk = make_minimal(rel, 1.0, 0.0 if rel is LATTICE else 0.5, 0.0)

    def refuse(*args, **kwargs):
        raise AssertionError("uncertainty_bound ran a quadrature")

    monkeypatch.setattr(numerics, "_adaptive", refuse)
    monkeypatch.setattr(numerics, "_periodic", refuse)
    assert uncertainty_bound(pk) > 0.0


class TestUncertaintyBound:
    def test_nonrel_constant(self):
        for alpha, beta in ((0.5, 0.0), (1.0, 1.0), (2.0, -0.5)):
            pk = make_minimal(NONREL, alpha, beta, 0.0)
            assert uncertainty_bound(pk) == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_lattice_value(self):
        pk = make_minimal(LATTICE, 1.0, 0.0, 0.0)
        # (a^2/2)|<E>| = I1/(2 m I0) at argument 2/3.
        assert uncertainty_bound(pk) == pytest.approx(LATTICE_X2, rel=1e-9)

    def test_massless_value(self):
        pk = make_minimal(MASSLESS, 1.0, 0.5, 0.0)
        assert uncertainty_bound(pk) == pytest.approx(0.75, rel=1e-10)


class TestSpreadingLaw:
    def test_ehrenfest_arithmetic(self):
        m0 = MomentSet(
            mean_x=0.0, var_x=1.0, mean_v=0.5, var_v=0.75, mean_p=None, mean_p2=None,
            mean_E=None, mean_E2=None, cov_vx=0.0, provenance=Provenance.QUADRATURE,
        )
        assert ehrenfest_position(m0, 0.0) == 0.0
        assert ehrenfest_position(m0, 4.0) == 2.0

    def test_nonrel_value(self):
        m0 = moments_quadrature(make_minimal(NONREL, 1.0, 0.0, 0.0))
        assert spreading_width_sq(m0, 2.0) == pytest.approx(5.0 / 6.0, rel=1e-9)

    def test_massless_value(self):
        m0 = moments_quadrature(make_minimal(MASSLESS, 1.0, 0.5, 0.0))
        assert spreading_width_sq(m0, 10.0) == pytest.approx(75.75, rel=1e-9)

    @pytest.mark.parametrize(
        "rel,beta",
        [(NONREL, 0.5), (LATTICE, 0.0), (REL, 0.5), (MASSLESS, 0.5)],
    )
    def test_product_growth(self, rel, beta):
        # Dx(t) Dv = sqrt(bound^2 + Dv^4 t^2) with Dx(t) taken from the
        # evolved coordinate-space density.
        pk = make_minimal(rel, 1.0, beta, 0.0)
        m0 = moments_quadrature(pk)
        bound = uncertainty_bound(pk)
        dv = m0.width_v
        for t in (0.0, 1.0, 2.0):
            _, mean, second = evolved_moments(pk, t, m0)
            dx_t = math.sqrt(second - mean * mean)
            predicted = math.sqrt(bound**2 + dv**4 * t**2)
            assert abs(dx_t * dv - predicted) <= 1e-7 * max(1.0, predicted)
