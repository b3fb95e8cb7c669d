"""FRW red-shift laws, conservation identities, and comoving traces."""

import math
import tracemalloc
import warnings

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
from wavekit.numerics import QuadratureSpec
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

    vals, _ = expectation_many(pk, weights, columns=2 + 3 * len(ts))
    x0, x2_0 = vals.real[:2]
    w_mean, w_sq, w_x = vals.real[2:].reshape(3, len(ts))
    return x0 + w_mean, x2_0 + 2.0 * w_x + w_sq


class TestComovingTrace:
    @pytest.mark.parametrize("beta_i", [0.0, 1e5])
    def test_static_reduces_to_flat_spreading(self, beta_i):
        # The spread is stored central, so beta_i^2 is never cancelled
        # (a raw <rho^2> read 6e-5 relative here at beta_i = 1e5).
        pk = make_minimal(REL, 1.0, 0.5, beta_i)
        static = PowerLawScale(exponent=0.0, reference=2.0, t_scale=1.0)
        ts = np.array([0.0, 1.0, 2.0, 5.0])
        trace = comoving_trace(pk, static, ts)
        m0 = moments_quadrature(pk)
        for i, t in enumerate(ts):
            expected = spreading_width_sq(m0, t)
            assert abs(4.0 * trace.var_rho[i] - expected) <= 1e-12 * expected
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rel", [NONREL, REL, MASSLESS])
    @pytest.mark.parametrize("beta_r", [0.0, 0.5])
    def test_large_beta_i_is_a_shift(self, rel, beta_r):
        # beta_i = 1000 translates the packet by -1000: <rho> moves by
        # -1000/R(0) = -1000, and the comoving spread and <v> stay. The
        # spread sees beta_i in neither the W columns nor the closed var_x.
        ts = np.linspace(0.0, 5.0, 6)
        base = comoving_trace(make_minimal(rel, 1.0, beta_r, 0.0), EXPANDING, ts)
        moved = comoving_trace(make_minimal(rel, 1.0, beta_r, 1000.0), EXPANDING, ts)
        np.testing.assert_allclose(moved.mean_rho, base.mean_rho - 1000.0, rtol=1e-12)
        np.testing.assert_allclose(
            moved.mean_rho2, base.mean_rho2 - 2000.0 * base.mean_rho + 1e6, rtol=1e-12
        )
        np.testing.assert_array_equal(moved.var_rho, base.var_rho)
        np.testing.assert_allclose(moved.mean_x, base.mean_x - 1000.0 * EXPANDING.scale(ts), rtol=1e-12)
        np.testing.assert_allclose(moved.mean_v, base.mean_v, rtol=0.0, atol=1e-12)

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
        # The time integral's panel store holds a column per momentum, so
        # however many momenta an adaptive round hands over, one time
        # integral takes at most a block of them.
        widths = []
        integrate = cosmology._time_integral_grid

        def recording(func, t_values, k, spec):
            def columns(tp):
                vals = func(tp)
                widths.append(vals.shape[1])
                return vals

            return integrate(columns, t_values, k, spec)

        monkeypatch.setattr(cosmology, "_time_integral_grid", recording)
        pk = make_minimal(REL, 1.0, 0.5, 0.0)
        comoving_trace(pk, EXPANDING, np.linspace(0.0, 5.0, 6))
        assert max(widths) == 42

    @pytest.mark.parametrize("grid", ["times", "knots"])
    def test_many_grid_times_bounded_in_memory(self, grid):
        # Hundreds of output times or table knots make hundreds of
        # intervals, each its own integral of one block's width, so memory
        # does not grow with the square of their number.
        if grid == "times":
            pk, model, ts = make_minimal(REL, 1.0, 0.5, -0.7), EXPANDING, np.linspace(0.0, 5.0, 400)
        else:
            knots = np.linspace(0.0, 5.0, 401)
            pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
            model, ts = TabulatedScale(tuple(knots), tuple(1.0 + knots**1.3)), np.array([0.0, 2.5, 5.0])
        tracemalloc.start()
        try:
            trace = comoving_trace(pk, model, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        if grid == "times":
            rho, rho2 = _exact_rel_moments(pk, ts)
            assert np.max(np.abs(trace.mean_rho - rho)) <= 1e-9
            assert np.max(np.abs(trace.mean_rho2 - rho2)) <= 1e-9
        else:
            # Nonrel drift (beta/alpha) int_0^t dt'/R^2: on a log-linear piece
            # R = R_a e^{H (t - t_a)} it adds (R_a^-2 - R_b^-2) / (2 H).
            r = 1.0 + knots**1.3
            piece = (r[:-1] ** -2 - r[1:] ** -2) * np.diff(knots) / (2.0 * np.log(r[1:] / r[:-1]))
            cum = np.concatenate([[0.0], np.cumsum(piece)])
            drift = trace.mean_rho - trace.mean_rho[0]
            assert np.max(np.abs(drift - 0.5 * cum[[0, 200, 400]])) <= 1e-12

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


_KNOTS = (0.0, 0.7, 1.3, 2.2, 3.1, 4.4, 5.0)
_MODELS = {
    "powerlaw": (EXPANDING, np.linspace(0.0, 5.0, 6)),
    "exp": (ExponentialScale(hubble=0.3), np.array([0.0, 0.4, 2.0, 5.0])),
    "tabulated": (TabulatedScale(_KNOTS, tuple(1.0 + t**1.3 for t in _KNOTS)),
                  np.array([0.0, 1.0, 1.0, 5.0])),
}


def _exact_drift(rel, model, p, ts):
    """W(t, p) = int_0^t v(q)/R dt' with q = p R(0)/R(t'), in closed form.

    On R = 1 + t, dW = -v(q) dq / q, whose primitive is q/m (nonrel),
    asinh(q/m) (rel) or sign(q) log|q| (massless). Where R = R_a e^{H (t -
    t_a)} (the exponential model, each log-linear piece of a table),
    dW = -v(q) dq / (p R(0) H), so a piece adds (E(q_a) - E(q_b)) / (p R(0) H).
    """
    m = rel.mass
    if model is EXPANDING:
        prim = {"nonrel": lambda q: q / m, "rel": lambda q: np.arcsinh(q / m),
                "massless": lambda q: np.sign(q) * np.log(np.abs(q))}[rel.kind.value]
        return prim(p) - prim(np.outer(1.0 / (1.0 + ts), p))
    r0 = float(model.scale(0.0))
    knots = np.asarray(getattr(model, "times", ()), dtype=float)
    out = np.zeros((len(ts), len(p)))
    for i, t in enumerate(ts):
        edges = np.union1d([0.0, t], knots[(knots > 0.0) & (knots < t)])
        for a, b in zip(edges[:-1], edges[1:]):
            ra, rb = float(model.scale(a)), float(model.scale(b))
            hubble = math.log(rb / ra) / (b - a)
            out[i] += (rel.energy(p * r0 / ra) - rel.energy(p * r0 / rb)) / (p * r0 * hubble)
    return out


def _drift(rel, model, p):
    r0 = float(model.scale(0.0))

    def func(tp):
        r = model.scale(tp)[:, np.newaxis]
        return rel.velocity(p * (r0 / r)) / r

    return func


class TestTimeIntegralGrid:
    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("rel", [NONREL, REL, MASSLESS], ids=["nonrel", "rel", "massless"])
    def test_drift_integrals_match_exact_drift(self, rel, model):
        # A table's knots are breakpoints too, as comoving_trace adds them.
        scale_model, ts = _MODELS[model]
        knots = np.asarray(getattr(scale_model, "times", ()))
        ts = np.sort(np.concatenate([ts, knots[(knots > 0.0) & (knots < ts[-1])]]))
        p = np.array([-2.3, -0.4, 0.7, 1.9])
        got = cosmology._time_integral_grid(_drift(rel, scale_model, p), ts, len(p))
        assert np.max(np.abs(got - _exact_drift(rel, scale_model, p, ts))) <= 1e-13

    def test_nodes_avoid_output_times(self):
        # Each interval between output times is its own integral, whose
        # Gauss-Kronrod nodes lie strictly inside their panel.
        t_values = np.array([0.0, 0.5, 1.25, 1.25, 3.0])
        seen = []

        def func(tp):
            seen.append(tp.copy())
            return np.column_stack([np.exp(np.sin(3.0 * tp)), np.cos(tp)])

        cosmology._time_integral_grid(func, t_values, 2)
        times = np.concatenate(seen)
        assert np.all((times > 0.0) & (times < 3.0))
        assert not np.isin(times, t_values).any()

    def test_zero_and_repeated_rows(self):
        t_values = np.array([0.0, 1.0, 1.0, 5.0])
        got = cosmology._time_integral_grid(
            lambda tp: np.column_stack([np.cos(tp), np.exp(-tp)]), t_values, 2)
        assert np.all(got[0] == 0.0) and np.array_equal(got[1], got[2])
        exact = np.column_stack([np.sin(t_values), 1.0 - np.exp(-t_values)])
        assert np.max(np.abs(got - exact)) <= 1e-14

    def test_time_zero_alone_makes_no_call(self):
        def func(tp):
            raise AssertionError("integrand called for t_values = [0]")

        got = cosmology._time_integral_grid(func, np.array([0.0]), 3)
        assert np.array_equal(got, np.zeros((1, 3)))

    def test_nonconvergence_names_time_integral(self):
        # 32768 panels on [0, 1] do not resolve a period of 3e-6.
        with pytest.raises(NonConvergence, match=r"^time integral: adaptive quadrature exhausted"):
            cosmology._time_integral_grid(lambda tp: np.cos(2e6 * tp)[:, np.newaxis], np.array([1.0]), 1)

    def test_caller_spec_reaches_time_integral(self, monkeypatch):
        specs = []
        adaptive = cosmology._adaptive

        def recording(f, edges, spec, **kwargs):
            specs.append(spec)
            return adaptive(f, edges, spec, **kwargs)

        monkeypatch.setattr(cosmology, "_adaptive", recording)
        spec = QuadratureSpec(relative_tolerance=1e-8)
        comoving_trace(make_minimal(REL, 1.0, 0.5, 0.0), EXPANDING, np.linspace(0.0, 5.0, 6), spec)
        assert specs and all(s is spec for s in specs)


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
