"""Packet construction, normalization, and parameter solving."""

import math
import warnings

import numpy as np
import pytest

from wavekit import moments, numerics, packet
from wavekit.dispersion import DispersionRelation
from wavekit.errors import (
    DomainError,
    InvalidParams,
    LatticePeriodicityError,
    OverflowSignal,
    Unsatisfiable,
)
from wavekit.moments import moments_quadrature, uncertainty_bound
from wavekit.numerics import DEFAULT_SPEC, _tail_budget
from wavekit.packet import (
    MomentTargets,
    density_window,
    expectation_many,
    make_minimal,
    solve_parameters,
)

NONREL = DispersionRelation.non_relativistic(3.0)
LATTICE = DispersionRelation.lattice(3.0, 1.0)
REL = DispersionRelation.relativistic(1.0)
MASSLESS = DispersionRelation.massless()
NONREL_M1 = DispersionRelation.non_relativistic(1.0)
LATTICE_M1 = DispersionRelation.lattice(1.0, 1.0)
REL_M1 = DispersionRelation.relativistic(1.0)

# Frozen: pi*sqrt(3)/(2 K1(sqrt 3)) and (4 pi / 3)^(1/4).
REL_NORM_SQ = 13.580514884483808
NONREL_NORM_A = 1.4306129511132552

ALL_PACKETS = [
    (NONREL, 1.0, 0.5),
    (NONREL, 0.5, -0.7),
    (LATTICE, 1.0, 0.0),
    (LATTICE, 2.0, 0.0),
    (REL, 1.0, 0.5),
    (REL, 2.0, -0.9),
    (MASSLESS, 1.0, 0.5),
    (MASSLESS, 0.5, 0.2),
]

# Packets at the float edge that construct: K_1(704) and K_1(706) near the
# smallest normal double, I_0(709.6) and exp(705.6) near the largest.
EDGE_PACKETS = [
    (REL_M1, 352.0, 0.0),
    (DispersionRelation.relativistic(0.5), 704.0, 0.0),
    (DispersionRelation.relativistic(2.0), 176.5, 0.0),
    (LATTICE_M1, 354.8, 0.0),
    (NONREL_M1, 1000.0, 840.0),
    (REL_M1, 400.0, 200.0),
    (MASSLESS, 1e6, 0.0),
]


@pytest.mark.parametrize("rel,alpha,beta_r", ALL_PACKETS + EDGE_PACKETS)
def test_norm_invariant(rel, alpha, beta_r):
    # The closed-form A against a quadrature of |Phi|^2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pk = make_minimal(rel, alpha, beta_r, 0.0)
        vals, _ = expectation_many(pk, lambda p: np.ones((len(p), 1)))
    assert float(vals[0].real) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rel", [NONREL, LATTICE, REL, MASSLESS], ids=["nonrel", "lattice", "rel", "massless"])
def test_make_minimal_runs_no_quadrature(monkeypatch, rel):
    def forbidden(*args, **kwargs):
        raise AssertionError("make_minimal ran a quadrature")

    monkeypatch.setattr(packet, "expectation_many", forbidden)
    monkeypatch.setattr(numerics, "_adaptive", forbidden)
    pk = make_minimal(rel, 1.0, 0.0 if rel is LATTICE else 0.5, 0.0)
    assert pk.norm_A == packet.closed_form_norm_constant(rel, pk.alpha, pk.beta_r)


@pytest.mark.parametrize(
    "rel,alpha,beta_r,error",
    [
        pytest.param(REL_M1, 800.0, 400.0, InvalidParams, id="rel-K1-underflow"),
        pytest.param(REL_M1, 360.0, 0.0, InvalidParams, id="rel-A2-overflow"),
        pytest.param(LATTICE_M1, 355.0, 0.0, OverflowSignal, id="lattice-355"),
        pytest.param(LATTICE_M1, 500.0, 0.0, OverflowSignal, id="lattice-500"),
        pytest.param(NONREL_M1, 1e6, 3e5, OverflowSignal, id="nonrel-exp-overflow"),
    ],
)
def test_float_edge_typed_errors(rel, alpha, beta_r, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            make_minimal(rel, alpha, beta_r, 0.0)


def test_relativistic_norm_value():
    pk = make_minimal(REL, 1.0, 0.5, 0.0)
    assert pk.norm_A**2 == pytest.approx(REL_NORM_SQ, rel=1e-9)


def test_nonrel_norm_value():
    pk = make_minimal(NONREL, 1.0, 0.0, 0.0)
    assert pk.norm_A == pytest.approx(NONREL_NORM_A, rel=1e-10)


def test_lattice_periodicity_errors():
    with pytest.raises(LatticePeriodicityError):
        make_minimal(LATTICE, 1.0, 0.1, 0.0)
    with pytest.raises(LatticePeriodicityError):
        make_minimal(LATTICE, 1.0, 0.0, 0.4)
    make_minimal(LATTICE, 1.0, 0.0, 2.0)  # integer site shift is fine
    # One site rule, 1e-9 relative: beta_i/a = 30000000.000000004 is a site,
    # and 1.5e308/a, past float max, an infinite one.
    spaced = DispersionRelation.lattice(1.0, 0.7)
    make_minimal(spaced, 1.0, 0.0, 3e7 * 0.7)
    solve_parameters(spaced, MomentTargets(0.0, 3e7 * 0.7, 1.0))
    make_minimal(DispersionRelation.lattice(1.0, 0.5), 1.0, 0.0, 1.5e308)
    # Far from the origin the rule stays as tight as float rounding allows:
    # beta_i/a = 1428571428.57 and 1e9 + 0.5 are off the sites.
    for beta_i in (0.5 * 0.7, 1e9, (1e9 + 0.5) * 0.7):
        with pytest.raises(LatticePeriodicityError):
            make_minimal(spaced, 1.0, 0.0, beta_i)
    with pytest.raises(Unsatisfiable):
        solve_parameters(spaced, MomentTargets(0.0, 0.5 * 0.7, 1.0))


def test_invalid_params():
    with pytest.raises(InvalidParams):
        make_minimal(REL, -1.0, 0.0, 0.0)
    with pytest.raises(InvalidParams):
        make_minimal(REL, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParams):
        make_minimal(MASSLESS, 0.5, 0.6, 0.0)


class TestAmplitude:
    def test_real_positive_without_phase(self):
        pk = make_minimal(NONREL, 1.0, 0.7, 0.0)
        vals = pk.amplitude(np.linspace(-2, 2, 9))
        assert np.all(vals.imag == 0.0)
        assert np.all(vals.real > 0.0)

    def test_massless_even(self):
        pk = make_minimal(MASSLESS, 1.0, 0.0, 0.0)
        q = np.array([0.3, 1.7])
        np.testing.assert_allclose(pk.amplitude(q), pk.amplitude(-q))

    def test_relativistic_rest_point(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        assert pk.amplitude(0.0) == pytest.approx(pk.norm_A * math.exp(-1.0))

    def test_phase_only_beta_i(self):
        plain = make_minimal(REL, 1.0, 0.3, 0.0)
        shifted = make_minimal(REL, 1.0, 0.3, 1.5)
        p = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(
            np.abs(plain.amplitude(p)), np.abs(shifted.amplitude(p)), rtol=1e-12
        )

    def test_lattice_zone_check(self):
        pk = make_minimal(LATTICE, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            pk.amplitude(7.0)


class TestSolveParameters:
    def test_nonrel_direct(self):
        pk = solve_parameters(NONREL, MomentTargets(0.5, 0.0, 1.0))
        assert pk.beta_r == pytest.approx(0.5, abs=1e-9)

    def test_relativistic_direct(self):
        pk = solve_parameters(REL, MomentTargets(0.5, -2.0, 1.0))
        assert pk.beta_r == pytest.approx(0.5, abs=1e-9)
        assert pk.beta_i == 2.0

    def test_lattice_moving_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            solve_parameters(LATTICE, MomentTargets(0.3, 0.0, 1.0))

    def test_speed_limit(self):
        with pytest.raises(Unsatisfiable):
            solve_parameters(REL, MomentTargets(1.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "rel,v",
        [
            pytest.param(NONREL, 0.25, id="nonrel"),
            pytest.param(REL, 0.25, id="rel"),
            pytest.param(MASSLESS, 0.25, id="massless"),
            pytest.param(LATTICE, 0.0, id="lattice"),
        ],
    )
    def test_width_mode(self, monkeypatch, rel, v):
        def forbidden(*args, **kwargs):
            raise AssertionError("the width solve ran a momentum quadrature")

        with monkeypatch.context() as patch:
            patch.setattr(packet, "expectation_many", forbidden)
            patch.setattr(moments, "expectation_many", forbidden)
            pk = solve_parameters(rel, MomentTargets(v, 0.0, 0.8), mode="width")
        m = moments_quadrature(pk)
        assert m.width_x == pytest.approx(0.8, rel=1e-7)
        assert m.mean_v == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("target_dx", [35.0, 37.0])
    def test_nonrel_width_inverts_in_closed_form(self, target_dx):
        # alpha = 2 m Dx^2 directly. A bracket doubling alpha to 4096 met
        # exp(m alpha v^2) past the float range, although alpha = 2450 fits.
        rel = DispersionRelation.non_relativistic(1.0)
        pk = solve_parameters(rel, MomentTargets(0.5, 0.0, target_dx), mode="width")
        assert pk.alpha == 2.0 * target_dx * target_dx
        assert moments.moments_closed_form(pk).width_x == pytest.approx(target_dx, rel=1e-14)

    @pytest.mark.parametrize("v", [0.0, 0.5, -0.9])
    def test_massless_width_inverts_in_closed_form(self, v):
        # Dx = s = alpha sqrt((1 - v)(1 + v)); the bisection stopped at 1e-8.
        pk = solve_parameters(MASSLESS, MomentTargets(v, 0.0, 20.0), mode="width")
        assert moments.moments_closed_form(pk).width_x == pytest.approx(20.0, rel=1e-14)

    @pytest.mark.parametrize("rel", [NONREL, REL, MASSLESS], ids=["nonrel", "rel", "massless"])
    def test_alpha_mode_uses_velocity_identity(self, rel):
        # <v> = beta_r / alpha holds exactly, so beta_r is set, not searched.
        alpha, v = 1.3, 0.3
        pk = solve_parameters(rel, MomentTargets(v, 0.0, alpha))
        assert pk.alpha == alpha
        assert pk.beta_r == alpha * v
        m = moments_quadrature(pk)
        assert m.mean_v == pytest.approx(v, abs=1e-9)

    def test_solved_packets_saturate(self):
        pk = solve_parameters(MASSLESS, MomentTargets(0.4, 1.0, 1.5))
        m = moments_quadrature(pk)
        assert abs(m.width_x * m.width_v - uncertainty_bound(pk)) <= 1e-7


def test_translation_covariance():
    base = make_minimal(REL, 1.0, 0.3, 0.0)
    shifted = make_minimal(REL, 1.0, 0.3, 0.8)
    m_base = moments_quadrature(base)
    m_shift = moments_quadrature(shifted)
    assert m_shift.mean_x - m_base.mean_x == pytest.approx(-0.8, abs=1e-10)


@pytest.mark.parametrize("rel,alpha,beta_r", ALL_PACKETS)
def test_saturation(rel, alpha, beta_r):
    pk = make_minimal(rel, alpha, beta_r, 0.0)
    m = moments_quadrature(pk)
    assert abs(m.width_x * m.width_v - uncertainty_bound(pk)) <= 1e-7


class TestDensityWindow:
    """The window is the level set power (g - min g) = B of
    g(p) = alpha E(p) - beta_r p, B the tail budget."""

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize(
        "rel,alpha,beta_r,peak",
        [
            (NONREL, 1.0, 0.5, 1.5),
            (NONREL, 0.5, -0.7, -4.2),
            (REL, 1.0, 0.5, 0.5 / math.sqrt(0.75)),
            (REL, 50.0, 0.5, 0.5 / math.sqrt(2499.75)),
            (DispersionRelation.relativistic(3.0), 16.0, 9.6, 3.0 * 9.6 / 12.8),
            (MASSLESS, 1.0, 0.5, 0.0),
            (MASSLESS, 2.0, -1.5, 0.0),
        ],
    )
    def test_level_set_at_both_ends(self, rel, alpha, beta_r, peak, power):
        def g(p):
            return alpha * float(rel.energy(p)) - beta_r * p

        budget = _tail_budget(DEFAULT_SPEC)
        lo, hi = density_window(rel, alpha, beta_r, power, DEFAULT_SPEC)
        assert lo < peak < hi
        for end in (lo, hi):
            assert power * (g(end) - g(peak)) == pytest.approx(budget, rel=1e-12)

    def test_massless_limit_of_relativistic(self):
        for beta_r in (0.0, 0.5, -0.9):
            massless = density_window(MASSLESS, 1.0, beta_r)
            tiny = density_window(DispersionRelation.relativistic(1e-9), 1.0, beta_r)
            assert tiny == pytest.approx(massless, rel=1e-7)
        budget = _tail_budget(DEFAULT_SPEC)
        assert density_window(MASSLESS, 1.0, 0.5, 1) == pytest.approx((-budget / 1.5, budget / 0.5), rel=1e-15)

    def test_lattice_zone(self):
        for spacing in (1.0, 0.5):
            rel = DispersionRelation.lattice(3.0, spacing)
            assert density_window(rel, 2.0, 0.0) == (-math.pi / spacing, math.pi / spacing)
