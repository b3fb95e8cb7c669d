"""Boost maps, boosted-wave normalization, and frame-dependence checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekit.boost import (
    BoostParams,
    boost_minimal_packet,
    boosted_expectations,
    boosted_wave_moments,
    galilean_boost,
    lorentz_boost_params,
    lorentz_boost_wavefunction,
)
from wavekit.dispersion import DispersionRelation
from wavekit.errors import InvalidBoost, InvalidInput, KindMismatch
from wavekit.moments import moments_quadrature
from wavekit.packet import expectation_many, make_minimal

NONREL = DispersionRelation.non_relativistic(3.0)
REL = DispersionRelation.relativistic(1.0)


class TestGalilean:
    def test_identity(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.3)
        out = galilean_boost(pk, 0.0)
        assert (out.alpha, out.beta_r, out.beta_i) == (1.0, 0.5, 0.3)

    def test_parameter_map(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        assert galilean_boost(pk, 0.5).beta_r == 0.0

    def test_velocity_shift(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        m0 = moments_quadrature(pk)
        mb = moments_quadrature(galilean_boost(pk, 0.7))
        assert mb.mean_v == pytest.approx(m0.mean_v - 0.7, abs=1e-9)

    def test_widths_preserved(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        m0 = moments_quadrature(pk)
        mb = moments_quadrature(galilean_boost(pk, 1.3))
        assert mb.width_x == pytest.approx(m0.width_x, rel=1e-10)
        assert mb.width_v == pytest.approx(m0.width_v, rel=1e-10)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_composition(self, u1, u2):
        pk = make_minimal(NONREL, 1.0, 0.25, 0.0)
        two_step = galilean_boost(galilean_boost(pk, u1), u2)
        one_step = galilean_boost(pk, u1 + u2)
        assert two_step.beta_r == pytest.approx(one_step.beta_r, abs=1e-12)

    def test_kind_mismatch(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        with pytest.raises(KindMismatch):
            galilean_boost(pk, 0.5)


@given(st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=50, deadline=None)
def test_boost_params_gamma_invariant(u):
    bp = BoostParams.lorentz(u)
    assert bp.gamma >= 1.0
    assert bp.gamma**2 * (1.0 - u * u) == pytest.approx(1.0, abs=1e-12)


class TestLorentzParams:
    def test_identity(self):
        assert lorentz_boost_params(1.0, 0.25, 0.0) == (1.0, 0.25)

    def test_reference_map(self):
        alpha_b, beta_b = lorentz_boost_params(1.0, 0.0, 0.6)
        assert alpha_b == pytest.approx(1.25)
        assert beta_b == pytest.approx(-0.75)
        assert alpha_b**2 - beta_b**2 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_boost(self):
        with pytest.raises(InvalidBoost):
            lorentz_boost_params(1.0, 0.0, 1.0)
        with pytest.raises(InvalidBoost):
            BoostParams.lorentz(-1.2)

    @given(
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_velocity_addition_composition(self, u1, u2):
        alpha, beta = 1.0, 0.25
        step = lorentz_boost_params(*lorentz_boost_params(alpha, beta, u1), u2)
        u12 = (u1 + u2) / (1.0 + u1 * u2)
        direct = lorentz_boost_params(alpha, beta, u12)
        assert step[0] == pytest.approx(direct[0], abs=1e-12, rel=1e-12)
        assert step[1] == pytest.approx(direct[1], abs=1e-12, rel=1e-12)

    @given(st.floats(min_value=-0.95, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_invariant(self, u):
        alpha, beta = 1.3, -0.4
        alpha_b, beta_b = lorentz_boost_params(alpha, beta, u)
        assert alpha_b**2 - beta_b**2 == pytest.approx(alpha**2 - beta**2, abs=1e-12)


class TestBoostedWave:
    def test_zero_boost_is_identity(self):
        pk = make_minimal(REL, 1.0, 0.3, 0.0)
        wave = boost_minimal_packet(pk, 0.0)
        p = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(wave.evaluator(p), pk.amplitude(p), rtol=1e-14)

    def test_residual_magnitude(self):
        wave = boost_minimal_packet(make_minimal(REL, 1.0, 0.0, 0.0), 0.6)
        p = np.linspace(-2, 2, 9)
        v_prime = p / np.sqrt(p * p + 1.0)
        gamma = 1.25
        np.testing.assert_allclose(
            np.abs(wave.residual_factor(p)) ** 2, gamma * (1.0 + 0.6 * v_prime)
        )

    def test_norm_preserved(self):
        # The map's Jacobian is |A(-p')|^2, so the boosted norm over the
        # mapped window is the packet's norm over its own window.
        pk = make_minimal(REL, 1.0, 0.25, 0.0)
        own = expectation_many(pk, lambda p: np.ones((len(p), 1)))[0][0].real
        for u in (0.2, 0.6, -0.8, 0.95):
            norm = boosted_wave_moments(boost_minimal_packet(pk, u))["norm"]
            assert abs(norm - 1.0) <= 1e-8
            assert abs(norm - own) <= 1e-14

    def test_boosted_packet_factorizes(self):
        # Psi_b(p') = A(-p') * A exp(-alpha' E' + beta' p') pointwise.
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        u = 0.6
        wave = boost_minimal_packet(pk, u)
        alpha_b, beta_b = lorentz_boost_params(pk.alpha, pk.beta_r, u)
        p = np.linspace(-4.0, 4.0, 17)
        reference = wave.residual_factor(p) * pk.norm_A * np.exp(
            -alpha_b * np.sqrt(p * p + 1.0) + beta_b * p
        )
        np.testing.assert_allclose(wave.evaluator(p), reference, atol=1e-8)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            boost_minimal_packet(make_minimal(NONREL, 1.0, 0.0, 0.0), 0.5)
        with pytest.raises(KindMismatch):
            lorentz_boost_wavefunction(lambda p: p, 0.5, mass=0.0, window=(-1.0, 1.0))

    @pytest.mark.parametrize("window", [(1.0, -1.0), (0.0, 0.0), (-1.0, math.inf), (math.nan, 1.0), (1.0,)])
    def test_invalid_window(self, window):
        with pytest.raises(InvalidInput):
            lorentz_boost_wavefunction(lambda p: p, 0.5, 1.0, window)


class TestBoostedExpectations:
    def test_zero_boost_matches_original(self):
        pk = make_minimal(REL, 1.0, 0.25, 0.0)
        m0 = moments_quadrature(pk)
        pred = boosted_expectations(pk, 0.0, m0)
        assert pred.mean_E == pytest.approx(m0.mean_E, rel=1e-12)
        assert pred.mean_p == pytest.approx(m0.mean_p, rel=1e-12)
        assert pred.mean_v == pytest.approx(m0.mean_v, abs=1e-10)
        assert pred.mean_x2 == pytest.approx(m0.mean_x2, rel=1e-10)

    def test_linear_map_against_direct_quadrature(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        m0 = moments_quadrature(pk)
        u, gamma = 0.6, 1.25
        direct = boosted_wave_moments(boost_minimal_packet(pk, u))
        assert abs(direct["mean_E"] - gamma * (m0.mean_E - u * m0.mean_p)) <= 1e-7
        assert abs(direct["mean_p"] - gamma * (m0.mean_p - u * m0.mean_E)) <= 1e-7

    def test_far_translated_packet_at_zero_boost(self):
        # <v'> = 0 here: <v'x + xv'> integrated as a column of size |beta_i|
        # met no tolerance.
        pk = make_minimal(REL, 1.0, 0.0, 1000.0)
        pred = boosted_expectations(pk, 0.0)
        direct = boosted_wave_moments(boost_minimal_packet(pk, 0.0))
        for field in ("mean_E", "mean_p", "mean_v"):
            assert abs(getattr(pred, field) - direct[field]) <= 1e-7, field
        assert pred.mean_x == -1000.0

    def test_minimality_is_frame_dependent(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        u = 0.6
        pred = boosted_expectations(pk, u)
        direct = boosted_wave_moments(boost_minimal_packet(pk, u))
        dv_b = math.sqrt(direct["mean_v2"] - direct["mean_v"] ** 2)
        bound_b = 0.5 * direct["mean_E_m3"]
        assert pred.width_x * dv_b - bound_b >= 1e-4

    def test_far_translated_width_at_zero_boost(self):
        # The boosted <x^2> minus <x>^2 cancelled beta_i^2 = 1e10 here.
        pk = make_minimal(REL, 1.0, 0.5, 1e5)
        m0 = moments_quadrature(pk)
        assert boosted_expectations(pk, 0.0, m0).width_x == pytest.approx(m0.width_x, rel=1e-12)

    def test_infinitesimal_generator(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        u = 1e-5
        wave = boost_minimal_packet(pk, u)
        p = np.linspace(-2.0, 2.0, 41)
        lhs = (wave.evaluator(p) - pk.amplitude(p)) / u
        e = np.sqrt(p * p + 1.0)
        v = p / e
        psi = pk.amplitude(p)
        rhs = 0.5 * v * psi + e * (pk.beta - pk.alpha * v) * psi
        assert np.max(np.abs(lhs - rhs)) <= 1e-4 * np.max(np.abs(rhs))
