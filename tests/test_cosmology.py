"""FRW red-shift laws, conservation identities, and comoving traces."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavekit import cosmology
from wavekit.cosmology import (
    ExponentialScale,
    PowerLawScale,
    TabulatedScale,
    classical_velocity,
    comoving_trace,
    mean_velocity,
)
from wavekit.dispersion import DispersionRelation
from wavekit.errors import InvalidInput, KindMismatch, NonConvergence, OverflowSignal
from wavekit.moments import moments_quadrature, spreading_width_sq
from wavekit.packet import expectation_many, make_minimal

NONREL = DispersionRelation.non_relativistic(3.0)
LATTICE = DispersionRelation.lattice(3.0, 1.0)
REL = DispersionRelation.relativistic(1.0)
MASSLESS = DispersionRelation.massless()

EXPANDING = PowerLawScale(exponent=1.0, reference=1.0, t_scale=1.0)


class TestClassicalVelocity:
    def test_light_speed_preserved(self):
        assert classical_velocity(1.0, 1.0, 7.3) == pytest.approx(1.0)

    def test_static(self):
        assert classical_velocity(0.6, 2.0, 2.0) == pytest.approx(0.6)

    def test_reference_value(self):
        expected = 0.3 / math.sqrt(0.73)
        assert classical_velocity(0.6, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            classical_velocity(1.5, 1.0, 2.0)
        with pytest.raises(InvalidInput):
            classical_velocity(0.5, -1.0, 2.0)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_conserved_momentum_identity(self, v0, r_now):
        v = classical_velocity(v0, 1.0, r_now)
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        gamma0 = 1.0 / math.sqrt(1.0 - v0 * v0)
        assert abs(v * gamma * r_now - v0 * gamma0) <= 1e-12 * max(1.0, abs(v0 * gamma0))


class TestScaleModels:
    def test_power_law(self):
        model = PowerLawScale(exponent=2.0, reference=3.0, t_scale=2.0)
        assert model.scale(2.0) == pytest.approx(12.0)

    def test_exponential(self):
        model = ExponentialScale(hubble=0.5, reference=2.0)
        assert model.scale(2.0) == pytest.approx(2.0 * math.e)

    def test_tabulated_log_linear(self):
        times = np.linspace(0.0, 4.0, 9)
        values = 2.0 * np.exp(0.3 * times)
        model = TabulatedScale(tuple(times), tuple(values))
        # Log-linear interpolation reproduces an exponential exactly.
        assert model.scale(1.37) == pytest.approx(2.0 * math.exp(0.3 * 1.37), rel=1e-12)
        with pytest.raises(InvalidInput):
            model.scale(5.0)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            PowerLawScale(exponent=-1.0)
        with pytest.raises(InvalidInput):
            TabulatedScale((0.0, 1.0), (1.0, -2.0))
        with pytest.raises(InvalidInput):
            TabulatedScale((1.0, 0.0), (1.0, 2.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInput):
                PowerLawScale(exponent=bad)
            with pytest.raises(InvalidInput):
                ExponentialScale(hubble=bad)
            with pytest.raises(InvalidInput):
                TabulatedScale((0.0, bad), (1.0, 2.0))
            with pytest.raises(InvalidInput):
                TabulatedScale((0.0, 1.0), (1.0, bad))


class TestMeanVelocity:
    def test_massless_not_redshifted(self):
        pk = make_minimal(MASSLESS, 1.0, 0.5, 0.0)
        for model in (EXPANDING, ExponentialScale(hubble=1.0, reference=1.0)):
            for t in (0.0, 1.0, 5.0):
                assert mean_velocity(pk, model, t) == pytest.approx(0.5, abs=1e-10)

    def test_nonrel_proportional_redshift(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        for t in (1.0, 3.0):
            rt = float(EXPANDING.scale(t))
            assert mean_velocity(pk, EXPANDING, t) * rt == pytest.approx(0.5, abs=1e-6)

    def test_static_matches_moments(self):
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        static = PowerLawScale(exponent=0.0, reference=1.0, t_scale=1.0)
        m0 = moments_quadrature(pk)
        assert mean_velocity(pk, static, 4.0) == pytest.approx(m0.mean_v, abs=1e-10)

    def test_monotone_redshift(self):
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        vals = [mean_velocity(pk, EXPANDING, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_classical_limit(self):
        # A narrow packet (large alpha) follows the classical red-shift law.
        pk = make_minimal(REL, 100.0, 50.0, 0.0)
        m0 = moments_quadrature(pk)
        quantum = mean_velocity(pk, EXPANDING, 2.0)
        classical = classical_velocity(m0.mean_v, 1.0, float(EXPANDING.scale(2.0)))
        assert abs(quantum - classical) / classical <= 0.01

    def test_lattice_rejected(self):
        pk = make_minimal(LATTICE, 1.0, 0.0, 0.0)
        with pytest.raises(KindMismatch):
            mean_velocity(pk, EXPANDING, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad, monkeypatch):
        monkeypatch.setattr("wavekit.cosmology.expectation_many", _no_quadrature)
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        with pytest.raises(InvalidInput):
            mean_velocity(pk, EXPANDING, bad)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature ran on invalid input")


def _exact_rel_moments(pk, ts):
    """<rho>, <rho^2> on R = 1 + t from the exact per-momentum weight
    W(t, p) = asinh(p/m) - asinh(p/(m (1 + t)))."""
    m, alpha, beta_r, beta_i = pk.rel.mass, pk.alpha, pk.beta_r, pk.beta_i

    def weights(p):
        d = beta_r - alpha * pk.rel.velocity(p)
        x_w = -beta_i + 1j * d
        w = np.arcsinh(p / m)[:, np.newaxis] - np.arcsinh(np.outer(p, 1.0 / (m * (1.0 + ts))))
        return np.column_stack([x_w, d * d + beta_i**2, w, w * w, w * x_w[:, np.newaxis]])

    vals, _ = expectation_many(pk, weights)
    x0, x2_0 = vals.real[:2]
    w_mean, w_sq, w_x = vals.real[2:].reshape(3, len(ts))
    return x0 + w_mean, x2_0 + 2.0 * w_x + w_sq


class TestComovingTrace:
    def test_static_reduces_to_flat_spreading(self):
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        static = PowerLawScale(exponent=0.0, reference=2.0, t_scale=1.0)
        ts = np.array([0.0, 1.0, 2.0, 5.0])
        trace = comoving_trace(pk, static, ts)
        m0 = moments_quadrature(pk)
        for i, t in enumerate(ts):
            var_x = 4.0 * (trace.mean_rho2[i] - trace.mean_rho[i] ** 2)
            assert abs(var_x - spreading_width_sq(m0, t)) <= 1e-6
            drift = m0.mean_x + m0.mean_v * t
            assert abs(trace.mean_x[i] - drift) <= 1e-7

    def test_massless_rho_integral(self):
        # <rho>(t) = <rho>(0) + (beta/alpha) int_0^t dt'/R(t'); for the
        # power-law model the time integral is log(1 + t) exactly.
        pk = make_minimal(MASSLESS, 1.0, 0.5, 0.0)
        ts = np.array([0.0, 2.0])
        trace = comoving_trace(pk, EXPANDING, ts)
        assert trace.mean_rho[1] == pytest.approx(0.5 * math.log(3.0), abs=1e-7)

    def test_offset_packet_carries_initial_rho(self):
        pk = make_minimal(MASSLESS, 1.0, 0.0, -1.5)  # centered at x = +1.5
        trace = comoving_trace(pk, EXPANDING, np.array([0.0]))
        assert trace.mean_rho[0] == pytest.approx(1.5, abs=1e-9)
        assert trace.mean_x[0] == pytest.approx(1.5, abs=1e-9)

    def test_mean_velocity_column(self):
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        ts = np.array([0.0, 1.0])
        trace = comoving_trace(pk, EXPANDING, ts)
        assert trace.mean_v[1] == pytest.approx(mean_velocity(pk, EXPANDING, 1.0), abs=1e-10)

    def test_rel_matches_exact_time_integral(self):
        pk = make_minimal(REL, 1.0, 0.5, -0.7)
        ts = np.arange(1.0, 6.0)
        trace = comoving_trace(pk, EXPANDING, ts)
        rho, rho2 = _exact_rel_moments(pk, ts)
        assert np.max(np.abs(trace.mean_rho - rho)) <= 1e-9
        assert np.max(np.abs(trace.mean_rho2 - rho2)) <= 1e-9

    def test_nonrel_drift(self):
        # <v(t)> = (beta/alpha) R(0)/R(t), so the drift is
        # (beta/alpha) int_0^t dt'/(1 + t')^2 = (beta/alpha) t/(1 + t).
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        ts = np.array([0.0, 0.5, 2.0, 6.0])
        trace = comoving_trace(pk, EXPANDING, ts)
        drift = trace.mean_rho - trace.mean_rho[0]
        assert np.max(np.abs(drift - 0.5 * ts / (1.0 + ts))) <= 1e-9

    def test_repeated_and_offset_grids_agree(self):
        pk = make_minimal(REL, 1.0, 0.5, 0.3)
        full = comoving_trace(pk, EXPANDING, np.array([0.0, 1.0, 1.0, 2.5]))
        plain = comoving_trace(pk, EXPANDING, np.array([0.0, 1.0, 2.5]))
        single = comoving_trace(pk, EXPANDING, np.array([2.5]))
        for name in ("mean_rho", "mean_rho2", "mean_x", "mean_v"):
            a, b, c = getattr(full, name), getattr(plain, name), getattr(single, name)
            assert a[1] == a[2]
            assert np.max(np.abs(a[[0, 1, 3]] - b)) <= 1e-9
            assert abs(b[2] - c[0]) <= 1e-9

    def test_tabulated_knots_split_the_time_integral(self):
        times = (0.0, 0.7, 1.3, 2.2, 3.1, 4.4, 5.0)
        model = TabulatedScale(times, tuple(1.0 + t**1.3 for t in times))
        pk = make_minimal(REL, 1.0, 0.5, 0.3)
        coarse = comoving_trace(pk, model, np.array([0.0, 1.0, 1.0, 5.0]))
        aligned = comoving_trace(pk, model, np.array(sorted(times + (1.0,))))
        assert np.array_equal(coarse.t_values, [0.0, 1.0, 1.0, 5.0])
        for name in ("mean_rho", "mean_rho2", "mean_x", "mean_v"):
            a, b = getattr(coarse, name), getattr(aligned, name)
            assert np.max(np.abs(a - b[[0, 2, 2, 7]])) <= 1e-9

    def test_one_momentum_quadrature(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return expectation_many(*args, **kwargs)

        monkeypatch.setattr("wavekit.cosmology.expectation_many", counting)
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        comoving_trace(pk, EXPANDING, np.linspace(0.0, 5.0, 6))
        assert len(calls) == 1

    def test_time_integral_sees_bounded_momentum_blocks(self, monkeypatch):
        # The time grid holds every node for every momentum, so however many
        # momenta an adaptive round hands over, one time integral takes at
        # most a block of them.
        widths = []
        integrate = cosmology._time_integral_grid

        def recording(func, t_values, k):
            def columns(tp):
                vals = func(tp)
                widths.append(vals.shape[1])
                return vals

            return integrate(columns, t_values, k)

        monkeypatch.setattr(cosmology, "_time_integral_grid", recording)
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        comoving_trace(pk, EXPANDING, np.linspace(0.0, 5.0, 6))
        assert max(widths) == 42

    def test_input_validation(self):
        pk = make_minimal(REL, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidInput):
            comoving_trace(pk, EXPANDING, np.array([1.0, 0.5]))
        with pytest.raises(KindMismatch):
            comoving_trace(make_minimal(LATTICE, 1.0, 0.0, 0.0), EXPANDING, np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad, monkeypatch):
        monkeypatch.setattr("wavekit.cosmology.expectation_many", _no_quadrature)
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        with pytest.raises(InvalidInput):
            comoving_trace(pk, EXPANDING, np.array([0.0, bad]))
        with pytest.raises(InvalidInput):
            comoving_trace(pk, EXPANDING, np.array([bad, 1.0]))


def _reference_time_integral_grid(func, t_values, tol=cosmology._TIME_TOL):
    """The time integral that evaluates every node afresh at each doubling."""
    edges = np.concatenate(([0.0], t_values))
    widths = np.diff(edges)
    n = 16
    prev = None
    while n <= (1 << 18):
        nodes = edges[:-1, np.newaxis] + widths[:, np.newaxis] * np.linspace(0.0, 1.0, n + 1)
        vals = func(nodes.ravel()).reshape(nodes.shape + (-1,))
        simpson = np.ones(n + 1)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        panels = np.einsum("j,ijk->ik", simpson, vals) * (widths / (3.0 * n))[:, np.newaxis]
        cum = np.cumsum(panels, axis=0)
        if prev is not None:
            scale = max(1.0, float(np.max(np.abs(cum))))
            if float(np.max(np.abs(cum - prev))) <= tol * scale:
                return cum
        prev = cum
        n *= 2
    raise AssertionError("reference time integral did not converge")


_KNOTS = (0.0, 0.7, 1.3, 2.2, 3.1, 4.4, 5.0)
_MODELS = {
    "powerlaw": (EXPANDING, np.linspace(0.0, 5.0, 6)),
    "exp": (ExponentialScale(hubble=0.3), np.array([0.0, 0.4, 2.0, 5.0])),
    "tabulated": (TabulatedScale(_KNOTS, tuple(1.0 + t**1.3 for t in _KNOTS)),
                  np.array([0.0, 1.0, 1.0, 5.0])),
}


class TestTimeIntegralGrid:
    def test_each_node_evaluated_once(self):
        # Three intervals with exact edges: the kept levels plus the new
        # midpoints are the final grid, each node evaluated in one call; only
        # an output time between two intervals is a node of both.
        t_values = np.array([0.5, 1.25, 3.0])
        seen = []

        def func(tp):
            seen.append(tp.copy())
            return np.column_stack([np.exp(np.sin(3.0 * tp)), np.cos(tp)])

        cosmology._time_integral_grid(func, t_values, 2)
        calls = len(seen)
        n_final = 16 * 2 ** (calls - 1)
        times = np.concatenate(seen)
        assert calls >= 2
        assert len(times) == len(t_values) * (n_final + 1)
        counts = Counter(times.tolist())
        assert {t for t, c in counts.items() if c > 1} == {0.5, 1.25}
        assert max(counts.values()) == 2
        edges = np.concatenate(([0.0], t_values))
        fractions = np.linspace(0.0, 1.0, n_final + 1)
        grid = edges[:-1, np.newaxis] + np.diff(edges)[:, np.newaxis] * fractions
        assert np.array_equal(np.unique(times), np.unique(grid))

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("rel", [NONREL, REL, MASSLESS], ids=["nonrel", "rel", "massless"])
    def test_drift_integrals_match_reevaluating_grid(self, rel, model, monkeypatch):
        # Same nodes, same sums in the same order: every W(t, p) is the float
        # the re-evaluating loop gives.
        integrate = cosmology._time_integral_grid
        compared = []

        def both(func, t_values, k):
            got = integrate(func, t_values, k)
            compared.append(np.array_equal(got, _reference_time_integral_grid(func, t_values)))
            return got

        monkeypatch.setattr(cosmology, "_time_integral_grid", both)
        scale_model, ts = _MODELS[model]
        comoving_trace(make_minimal(rel, 1.0, 0.5, 0.3), scale_model, ts)
        assert compared and all(compared)

    def test_nonconvergence_names_last_level(self):
        # 2^18 panels on [0, 1] do not resolve a period of 3e-6.
        with pytest.raises(NonConvergence, match=r"at n = 262144 panels per interval the worst "
                           r"increment [1-9][^ ]* exceeds tol\*scale = 1\.000e-09"):
            cosmology._time_integral_grid(lambda tp: np.cos(2e6 * tp)[:, np.newaxis], np.array([1.0]), 1)

    def test_zero_width_intervals_get_no_nodes(self):
        # [0, 1, 1, 5]: the leading [0, 0] and the repeated [1, 1] add
        # exactly 0, so only [0, 1] and [1, 5] get nodes, n + 1 each.
        seen = []

        def func(tp):
            seen.append(tp.copy())
            return np.column_stack([np.exp(np.sin(3.0 * tp)), np.cos(tp)])

        t_values = np.array([0.0, 1.0, 1.0, 5.0])
        got = cosmology._time_integral_grid(func, t_values, 2)
        n_final = 16 * 2 ** (len(seen) - 1)
        times = np.concatenate(seen)
        assert len(times) == 2 * (n_final + 1)
        assert np.array_equal(np.unique(times), np.union1d(np.linspace(0.0, 1.0, n_final + 1),
                                                           np.linspace(1.0, 5.0, n_final + 1)))
        assert np.array_equal(got, _reference_time_integral_grid(func, t_values))
        assert np.all(got[0] == 0.0) and np.array_equal(got[1], got[2])

    def test_time_zero_alone_makes_no_call(self):
        def func(tp):
            raise AssertionError("integrand called for t_values = [0]")

        got = cosmology._time_integral_grid(func, np.array([0.0]), 3)
        assert np.array_equal(got, np.zeros((1, 3)))


@pytest.mark.parametrize("hubble", [-200.0, 200.0])
def test_scale_factor_outside_float_range(hubble):
    # R(5) = exp(+-1000) underflows to 0 or overflows to inf: a library
    # error, raised before any division by R or any warning.
    pk = make_minimal(REL, 1.0, 0.5, 0.0)
    model = ExponentialScale(hubble=hubble)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSignal):
            mean_velocity(pk, model, 5.0)
        with pytest.raises(OverflowSignal):
            comoving_trace(pk, model, np.linspace(0.0, 5.0, 6))


@pytest.mark.parametrize("rel", [NONREL, REL, MASSLESS], ids=["nonrel", "rel", "massless"])
def test_tiny_scale_factor(rel):
    # R(5) = exp(-500) is a positive float, but the drift v(p R0/R)/R or the
    # comoving moments W^2 leave the float range: a library error, raised
    # without any warning.
    pk = make_minimal(rel, 1.0, 0.5, 0.0)
    model = ExponentialScale(hubble=-100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowSignal):
            comoving_trace(pk, model, np.linspace(0.0, 5.0, 6))
        if rel is REL:
            # p R0/R(5) ~ 1e217 p: v(p) = sign(p) without squaring p past
            # the float range.
            expected = expectation_many(pk, lambda p: np.sign(p)[:, np.newaxis])[0][0].real
            assert mean_velocity(pk, model, 5.0) == pytest.approx(expected, rel=0.0, abs=1e-12)
