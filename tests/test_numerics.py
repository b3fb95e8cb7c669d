"""Quadrature and special-function checks against independent oracles."""

import cmath
import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from wavekit import numerics
from wavekit.dispersion import DispersionRelation
from wavekit.errors import DomainError, InvalidInput, NonConvergence, OverflowSignal
from wavekit.numerics import (
    QuadratureSpec,
    bessel_i_integer,
    bessel_j0_y0,
    bessel_j1_y1,
    bessel_k01,
)
from wavekit.packet import expectation_many, make_minimal

# Frozen oracle values (high-precision evaluation of the integral
# representations / series used as cross-checks below).
I0_TWO_THIRDS = 1.1142359006021993
TWO_PI_I0_2 = 14.323056878100513
K0_SQRT3 = 0.15893189833983052
K1_SQRT3 = 0.20033843116359428


def _line(f, decay_rate, spec=numerics.DEFAULT_SPEC, columns=1):
    """(value, err) of ``f``, ``columns`` values per point, over the real
    line: the line rule over the window where exp(-decay_rate |p|) falls by
    the tail budget."""
    w = numerics._tail_budget(spec) / decay_rate
    return numerics._line_integral(f, -w, w, spec, columns=columns)


class TestIntegrateLine:
    def test_gaussian(self):
        value, err = _line(lambda p: np.exp(-p * p), 1.0)
        assert value == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert err <= 1e-10

    def test_two_sided_exponential(self):
        value, _ = _line(lambda p: np.exp(-2.0 * np.abs(p)), 2.0)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand_vanishes(self):
        value, _ = _line(lambda p: np.exp(-2.0 * np.sqrt(p * p + 1.0)) * p, 1.0)
        assert abs(value) < 1e-12

    def test_array_valued_integrand(self):
        # Values of shape (2,) give value and error of shape (2,); a scalar
        # integrand gives 0-d arrays.
        value, err = _line(lambda p: np.stack([np.exp(-p * p), p * p * np.exp(-p * p)], axis=1), 1.0, columns=2)
        assert value.shape == err.shape == (2,)
        assert np.allclose(value, [math.sqrt(math.pi), math.sqrt(math.pi) / 2.0], rtol=0.0, atol=1e-12)
        scalar, scalar_err = _line(lambda p: np.exp(-p * p), 1.0)
        assert scalar.shape == scalar_err.shape == ()
        assert scalar == value[0]

    def test_error_estimate_respects_spec_bound(self):
        spec = QuadratureSpec(relative_tolerance=1e-8)
        value, err = _line(lambda p: np.exp(-p * p) * np.cos(3 * p), 1.0, spec)
        assert err <= 1e-8 * abs(value) + spec.absolute_floor

    def test_refinement_consistency(self):
        f = lambda p: np.exp(-np.abs(p)) * np.cos(p)
        first, first_err = _line(f, 1.0)
        second, _ = _line(f, 1.0, QuadratureSpec(relative_tolerance=1e-13))
        assert abs(first - second) <= max(first_err, 1e-14)

    def test_linearity(self):
        f = lambda p: np.exp(-p * p)
        g = lambda p: np.exp(-2.0 * np.abs(p))
        a, b = 2.5, -1.25
        combo, combo_err = _line(lambda p: a * f(p) + b * g(p), 1.0)
        fa, fa_err = _line(f, 1.0)
        gb, gb_err = _line(g, 2.0)
        assert abs(combo - (a * fa + b * gb)) <= abs(a) * fa_err + abs(b) * gb_err + combo_err + 1e-12

    def test_nonconvergence_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 8)
        spec = QuadratureSpec(relative_tolerance=1e-14)
        with pytest.raises(NonConvergence):
            _line(lambda p: np.exp(-np.abs(p)) * np.cos(40.0 * p), 1.0, spec)


class TestGaussKronrodRule:
    @pytest.mark.parametrize(
        "f, breakpoints, exact",
        [
            (lambda p: np.exp(-p * p), (), math.sqrt(math.pi)),
            (lambda p: np.abs(p) * np.exp(-np.abs(p)), (0.0,), 2.0),
            (lambda p: np.exp(-np.abs(p)) * np.cos(40.0 * p), (), 2.0 / 1601.0),
        ],
    )
    def test_closed_forms(self, f, breakpoints, exact):
        w = numerics._tail_budget(numerics.DEFAULT_SPEC)
        value, _ = numerics._adaptive(f, -w, w, numerics.DEFAULT_SPEC, breakpoints=breakpoints)
        assert abs(value - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("width", [1, 3, 4000])
    def test_points_per_call_capped(self, width):
        sizes = []

        def f(p):
            sizes.append(len(p))
            col = np.exp(-np.abs(p)) * np.cos(40.0 * p)
            return np.repeat(col[:, np.newaxis], width, axis=1)

        w = numerics._tail_budget(numerics.DEFAULT_SPEC)
        value, _ = numerics._line_integral(f, -w, w, numerics.DEFAULT_SPEC, columns=width)
        if width == 4000:
            # One panel is 84000 values, past the 2^16 cap: one per call.
            assert set(sizes) == {21}
        else:
            # The declared width sizes the first call: all 8 initial panels.
            assert sizes[0] == 8 * 21
            assert max(sizes) * width <= 1 << 16
        assert np.all(value == value[0])

    def test_subdivision_budget(self, monkeypatch):
        points = []

        def f(p):
            points.append(len(p))
            return np.exp(-np.abs(p)) * np.cos(40.0 * p)

        monkeypatch.setattr(numerics, "_MAX_SUBDIVISIONS", 8)
        spec = QuadratureSpec(relative_tolerance=1e-14)
        with pytest.raises(NonConvergence, match=r"exhausted 8 subdivisions; worst panel \[.*, .*\] at err/tol"):
            _line(f, 1.0, spec)
        # 8 initial panels, then at most 8 splits of two children each.
        assert sum(points) <= (8 + 16) * 21

    def test_stalled_panel_named(self):
        def f(p):
            # Integrable singularity off every dyadic edge; the offset keeps
            # a node that lands on it finite.
            return 1.0 / np.sqrt(np.abs(p - 1.0 / 3.0) + 1e-30)

        with pytest.raises(NonConvergence, match=r"stalled; worst panel \[0\.333.*\] at err/tol") as info:
            numerics._adaptive(f, -1.0, 1.0, numerics.DEFAULT_SPEC)
        assert info.value.value is not None and info.value.abs_error is not None

    def test_non_finite_value_fails_at_once(self):
        points = []

        def f(p):
            points.append(len(p))
            return np.where(np.abs(p - 0.3) < 0.01, np.nan, 1.0)

        with pytest.raises(NonConvergence, match=r"non-finite integrand value; worst panel \[0\.25, 0\.5\]"):
            numerics._adaptive(f, -1.0, 1.0, numerics.DEFAULT_SPEC, initial_panels=8)
        assert sum(points) == 8 * 21

    @pytest.mark.parametrize("width", [4, 4000])
    def test_identical_columns_bit_identical(self, width):
        pk = make_minimal(DispersionRelation.relativistic(1.0), 1.0, 0.5, 0.3)

        def weights(p):
            cols = [p, p * p] + [np.cos(p)] * (width - 2)
            return np.column_stack(cols).astype(complex) * (1.0 + 0.5j)

        vals, errs = expectation_many(pk, weights, columns=width)
        assert np.all(vals[2:] == vals[2]) and np.all(errs[2:] == errs[2])


class TestIntegrandEvaluation:
    def test_integrand_error_propagates(self):
        calls = []

        def f(p):
            calls.append(len(p))
            raise DomainError("momentum outside the domain")

        with pytest.raises(DomainError):
            numerics._adaptive(f, -1.0, 1.0, numerics.DEFAULT_SPEC)
        assert len(calls) == 1

    def test_scalar_integrand_rejected(self):
        with pytest.raises(InvalidInput):
            numerics._adaptive(lambda p: 1.0, -1.0, 1.0, numerics.DEFAULT_SPEC)

    @pytest.mark.parametrize("returned, declared", [(1, 3), (3, 1), (4, 3)])
    def test_undeclared_width_rejected(self, returned, declared):
        def f(p):
            return np.ones((len(p), returned)) if returned > 1 else np.ones_like(p)

        with pytest.raises(InvalidInput, match="returned %d columns per point; its caller declared %d"
                           % (returned, declared)):
            numerics._adaptive(f, -1.0, 1.0, numerics.DEFAULT_SPEC, columns=declared)
        with pytest.raises(InvalidInput, match="returned %d columns" % returned):
            numerics._periodic(f, 2.0 * math.pi, numerics.DEFAULT_SPEC, columns=declared)


class TestIntegratePeriodic:
    def test_constant(self):
        value, _ = numerics._periodic(lambda p: np.ones_like(p), 2.0 * math.pi, numerics.DEFAULT_SPEC)
        assert value == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_cosine_vanishes(self):
        value, _ = numerics._periodic(lambda p: np.cos(p), 2.0 * math.pi, numerics.DEFAULT_SPEC)
        assert abs(value) < 1e-12

    def test_bessel_normalization_identity(self):
        # 2 pi I_0(2): the lattice-normalization identity.
        value, _ = numerics._periodic(lambda p: np.exp(2.0 * np.cos(p)), 2.0 * math.pi, numerics.DEFAULT_SPEC)
        assert value == pytest.approx(TWO_PI_I0_2, rel=1e-11)
        i0 = bessel_i_integer(0, 2.0)
        assert value == pytest.approx(2.0 * math.pi * i0.value.real, rel=1e-11)

    def test_refinement_consistency(self):
        f = lambda p: np.exp(np.cos(3.0 * p))
        first, first_err = numerics._periodic(f, 2.0 * math.pi, numerics.DEFAULT_SPEC)
        second, _ = numerics._periodic(f, 2.0 * math.pi, QuadratureSpec(relative_tolerance=1e-13))
        assert abs(first - second) <= max(first_err, 1e-14)


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relative_tolerance": 0.0},
            {"relative_tolerance": 2.0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(InvalidInput):
            QuadratureSpec(**kwargs)

    @pytest.mark.parametrize("tol", [math.nan, 1e-323])
    def test_tolerance_refused(self, tol):
        # 1e-323 lies in (0, 1), but its floor tol/100 underflows to 0.
        with pytest.raises(InvalidInput):
            QuadratureSpec(tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-13])
    def test_floor_derived_from_tolerance(self, tol):
        spec = QuadratureSpec(tol)
        assert spec.absolute_floor == min(1e-14, tol / 100)
        with pytest.raises(AttributeError):
            spec.absolute_floor = 0.0

    def test_one_setting(self):
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["relative_tolerance"]
        assert numerics.DEFAULT_SPEC.absolute_floor == 1e-14


class TestBesselI:
    def test_series_constants(self):
        # The recurrence at z = 0 (no 1/z in its step, no log(0) in the
        # underflow order) gives I_n(0) = delta_n0 exactly.
        for n in range(6):
            assert bessel_i_integer(n, 0.0).value == (1.0 if n == 0 else 0.0)

    @pytest.mark.parametrize("z", [5e-324j, -5e-324, 1e-323 + 5e-324j])
    def test_least_subnormal_argument(self, z):
        # |z|/2 rounds to 0 here; the underflow order must not take log(0).
        for n in range(3):
            got = bessel_i_integer(n, z).value
            assert abs(got - (1.0 if n == 0 else 0.0)) <= 1e-300

    def test_integral_representation_oracle(self):
        # (1/2pi) int exp((2/3) cos p) dp computed by the periodic rule.
        oracle, _ = numerics._periodic(
            lambda p: np.exp((2.0 / 3.0) * np.cos(p)) / (2.0 * math.pi), 2.0 * math.pi, numerics.DEFAULT_SPEC
        )
        got = bessel_i_integer(0, 2.0 / 3.0)
        assert got.value.real == pytest.approx(oracle.real, rel=1e-11)
        assert got.value.real == pytest.approx(I0_TWO_THIRDS, rel=1e-12)

    def test_negative_order_symmetry(self):
        z = 1.7 - 0.4j
        assert bessel_i_integer(-3, z).value == bessel_i_integer(3, z).value

    @pytest.mark.parametrize(
        "n,z", [(0, 0.5), (1, 3.0), (2, 7.5), (0, 2 + 3j), (4, 30.0), (1, 10 - 5j), (3, -12 + 1j), (4, -30.0)]
    )
    def test_against_scipy(self, n, z):
        ref = special.iv(n, z)
        got = bessel_i_integer(n, z).value
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_derivative_recurrence(self):
        # I0'(x) = I1(x) by central differences across [0.1, 20].
        h = 1e-5
        for x in np.linspace(0.1, 20.0, 9):
            d = (bessel_i_integer(0, x + h).value - bessel_i_integer(0, x - h).value) / (2 * h)
            i1 = bessel_i_integer(1, x).value
            assert abs(d - i1) <= 1e-8 * max(1.0, abs(i1))

    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    @example(2.2e-313, 2.2e-313, 3)  # subnormal z: a 2k/z step overflows
    def test_conjugation_symmetry(self, re, im, n):
        z = complex(re, im)
        a = bessel_i_integer(n, z).value
        b = bessel_i_integer(n, z.conjugate()).value
        assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))

    def test_positivity(self):
        for x in (0.1, 1.0, 5.0, 50.0):
            assert bessel_i_integer(0, x).value.real > 0.0
            assert bessel_i_integer(1, x).value.real > 0.0

    def test_overflow_signalled(self):
        with pytest.raises(OverflowSignal):
            bessel_i_integer(0, 800.0)

    @pytest.mark.parametrize("z", [705.0, -705.0, 709 + 700j])
    def test_near_float_maximum_against_mpmath(self, z):
        # I_0(705) = 2.26e304: representable, although e^z nears the float
        # maximum inside the recurrence.
        mpmath = pytest.importorskip("mpmath")
        for n in (0, 1, 4):
            got = bessel_i_integer(n, z)
            with mpmath.workdps(30):
                ref = complex(mpmath.besseli(n, mpmath.mpc(z.real, z.imag)))
            assert abs(got.value - ref) <= 1e-15 * abs(ref), n
            assert abs(got.value - ref) <= got.abs_error, n

    def test_overflow_past_float_maximum_without_warning(self):
        # e^710 overflows inside the recurrence: a typed error, no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowSignal):
                bessel_i_integer(0, 710.0)

    @pytest.mark.parametrize(
        "n, z", [(0.5, 1.0), (0, math.nan), (1, complex(1.0, math.inf)), (math.nan, 1.0)]
    )
    def test_invalid_order_or_argument(self, n, z):
        with pytest.raises(InvalidInput):
            bessel_i_integer(n, z)

    def test_small_argument_against_mpmath(self):
        # The recurrence serves small |z| too, to rounding level, and its
        # returned bound covers the true error.
        mpmath = pytest.importorskip("mpmath")
        orders = np.arange(41)
        for r in (1e-8, 1e-3, 0.5, 2.0, 4.0, 6.0, 8.0):
            for phase in np.linspace(0.0, math.pi, 7):
                z = r * cmath.exp(1j * phase)
                got, bound = numerics._bessel_i_vec(orders, z)
                with mpmath.workdps(30):
                    ref = np.array([complex(mpmath.besseli(int(n), mpmath.mpc(z.real, z.imag))) for n in orders])
                err = np.abs(got - ref)
                assert np.all(err <= bound)
                big = np.abs(ref) > 1e-290
                assert np.all(err[big] <= 5e-15 * np.abs(ref[big]))

    def test_high_order_beyond_series_radius(self):
        # A periodic rule on cos(129 t) e^{9 cos t} aliased to 1030.9.
        got = bessel_i_integer(129, 9.0)
        assert got.value == pytest.approx(4.3179144480775e-134, rel=1e-12)

    @pytest.mark.parametrize("z", [3 + 9.5j, -20 + 5j, 40j])
    def test_orders_past_underflow(self, z):
        # Order 2e6 would take 2e6 recurrence steps; I_n/e^{|Re z|} rounds to
        # 0 long before, and the orders below keep their accuracy.
        n = np.append(np.arange(0, 600, 7), 2_000_000)
        got, _ = numerics._i_recurrence(n, z)
        assert got[-1] == 0.0
        assert np.all(np.abs(got[:-1] - special.iv(n[:-1], z)) <= 1e-13 * math.exp(abs(z.real)))

    @pytest.mark.parametrize("z", [3 + 9.5j, 8 + 9.5j, 20 + 40j, 4 + 200j])
    def test_orders_beyond_series_radius(self, z):
        scale = math.exp(z.real)
        for n in range(201):
            got = bessel_i_integer(n, z)
            err = abs(got.value - special.iv(n, z))
            assert err <= 1e-13 * scale, n
            assert err <= got.abs_error, n

    def test_recurrence_length_capped(self):
        # 2|z| steps past the largest order: refused before any allocation.
        with pytest.raises(NonConvergence):
            bessel_i_integer(0, 1e7j)

    @pytest.mark.parametrize("z", [1e308j, -1e308, complex(1.3e308, 1.3e308)])
    def test_huge_argument_refused(self, z):
        # 2|z|, and here |z| itself, leave the float range.
        with pytest.raises(NonConvergence):
            bessel_i_integer(0, z)

    @pytest.mark.parametrize(
        "refuse",
        [lambda: bessel_i_integer(0, 5e5), lambda: make_minimal(DispersionRelation.lattice(1.0, 1.0), 2.5e5)],
        ids=["bessel_i", "lattice-packet"],
    )
    def test_overflow_refused_before_recurrence(self, refuse):
        # Past Re z = 709.78, e^z overflows: refused before 1e6 Miller steps.
        start = time.perf_counter()
        with pytest.raises(OverflowSignal):
            refuse()
        assert time.perf_counter() - start <= 0.1

    def test_high_order_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = float(mpmath.besseli(129, 9))
        assert bessel_i_integer(129, 9.0).value == pytest.approx(ref, rel=1e-12)


class TestBesselK:
    def test_domain(self):
        with pytest.raises(InvalidInput):
            bessel_k01(-1.0)
        for z in (1.0j, 2.0j):
            with pytest.raises(InvalidInput):
                bessel_k01(z)
        # The private evaluator takes the imaginary axis (J/Y, the Green's
        # function inside the cone), but not Re z < 0 or z = 0.
        for z in (-1.0, -1e-300 + 3.0j, 0.0):
            with pytest.raises(InvalidInput):
                numerics._bessel_k01_vec(np.array([2.0, z]))

    @pytest.mark.parametrize("z", [math.nan, complex(1.0, math.nan), math.inf, complex(2.0, -math.inf)])
    def test_non_finite_argument(self, z):
        with pytest.raises(InvalidInput):
            bessel_k01(z)

    def test_sqrt3_values(self):
        k0, k1 = bessel_k01(math.sqrt(3.0))
        assert k0.value.imag == pytest.approx(0.0, abs=1e-14)
        assert k0.value.real == pytest.approx(K0_SQRT3, rel=1e-10)
        assert k1.value.real == pytest.approx(K1_SQRT3, rel=1e-10)
        assert k0.value.real > 0.0 and k1.value.real > 0.0

    def test_asymptotic_ratio(self):
        prev = 0.0
        for x in (10.0, 50.0):
            k0, k1 = bessel_k01(x)
            ratio = (k0.value / k1.value).real
            assert 0.9 < ratio < 1.0
            assert ratio > prev
            prev = ratio

    @pytest.mark.parametrize("z", [1.0, 2.0 + 1.0j, 5.0 - 3.0j])
    def test_derivative_identity(self, z):
        h = 1e-5
        dk0 = (bessel_k01(z + h)[0].value - bessel_k01(z - h)[0].value) / (2 * h)
        k1 = bessel_k01(z)[1].value
        assert abs(dk0 + k1) <= 1e-7

    @pytest.mark.parametrize(
        "z",
        [0.05, 0.5, 3.0, 4.5, 8.0, 40.0, 100.0, 2 + 2j, 10 + 30j,
         8.5 * cmath.exp(1.5j), 8.5 * cmath.exp(-1.5j), 20.0 * cmath.exp(1.57j),
         30.0 * cmath.exp(-1.3j), 600.0],
    )
    def test_against_scipy(self, z):
        # The fixed trapezoid sum at |z| > 4 is held to rounding level, up
        # to the imaginary axis; the series keeps its own gate.
        rtol = 1e-13 if abs(z) > 4.0 else 1e-9
        for idx, ref in enumerate((special.kv(0, z), special.kv(1, z))):
            got = bessel_k01(z)[idx].value
            assert abs(got - ref) <= rtol * abs(ref)

    def test_against_mpmath_near_imaginary_axis(self):
        mpmath = pytest.importorskip("mpmath")
        # 7.998 and 8 on the real axis are where a series up to |z| = 8 lost
        # 3e-10 to 7e-10 relative.
        zs = [r * cmath.exp(1j * phase) for r in (4.01, 8.01, 12.0, 20.0, 30.0)
              for phase in (1.3, 1.5, 1.57, -1.45, -1.5707963)]
        for z in zs + [7.998, 8.0]:
            for v, got in enumerate(bessel_k01(z)):
                with mpmath.workdps(25):
                    ref = complex(mpmath.besselk(v, mpmath.mpc(z.real, z.imag)))
                assert abs(got.value - ref) <= 2e-15 * abs(ref)
                assert abs(got.value - ref) <= got.abs_error

    @given(st.floats(min_value=0.1, max_value=7.0), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_symmetry(self, re, im):
        z = complex(re, im)
        a0, a1 = bessel_k01(z)
        b0, b1 = bessel_k01(z.conjugate())
        assert abs(a0.value - b0.value.conjugate()) <= 1e-12 * max(1.0, abs(a0.value))
        assert abs(a1.value - b1.value.conjugate()) <= 1e-12 * max(1.0, abs(a1.value))

    def test_positivity(self):
        for x in (0.1, 1.0, 5.0, 20.0):
            k0, k1 = bessel_k01(x)
            assert k0.value.real > 0.0 and k1.value.real > 0.0

    def test_regime_overlap(self):
        # The regimes overlap on [3, 5] around the switch at 4. Phase -pi/2
        # is the J/Y overlap: K_v(-ix) carries J_v and Y_v.
        for r in (3.0, 4.0, 5.0):
            for phase in (0.0, 0.6, -0.5 * math.pi):
                z = r * complex(math.cos(phase), math.sin(phase))
                s0, s1, _, _ = numerics._k01_series(np.array([z]))
                q0, q1, _, _ = numerics._k01_quadrature(np.array([z]))
                assert abs(s0[0] - q0[0]) <= 1e-11 * abs(s0[0])
                assert abs(s1[0] - q1[0]) <= 1e-11 * abs(s1[0])


class TestBesselJY:
    def test_domain(self):
        with pytest.raises(InvalidInput):
            bessel_j0_y0(0.0)
        with pytest.raises(InvalidInput):
            bessel_j1_y1(-3.0)

    @pytest.mark.parametrize("f", [bessel_j0_y0, bessel_j1_y1])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_argument(self, f, x):
        with pytest.raises(InvalidInput):
            f(x)

    def test_series_limit_at_origin(self):
        j0, _ = bessel_j0_y0(1e-8)
        assert j0 == pytest.approx(1.0, abs=1e-12)

    def test_sign_change_in_2_3(self):
        # The first positive root of J_0 sits in [2, 3]; cross-check the
        # signs against the (1/pi) int_0^pi cos(x sin t) dt representation.
        def oracle(x):
            val, _ = numerics._adaptive(
                lambda th: np.cos(x * np.sin(th)).astype(complex) / math.pi,
                0.0,
                math.pi,
                numerics.DEFAULT_SPEC,
                initial_panels=8,
            )
            return float(val.real)

        j2, _ = bessel_j0_y0(2.0)
        j3, _ = bessel_j0_y0(3.0)
        assert j2 > 0.0 > j3
        assert j2 == pytest.approx(oracle(2.0), abs=1e-10)
        assert j3 == pytest.approx(oracle(3.0), abs=1e-10)
        signs = np.sign([oracle(x) for x in np.linspace(2.0, 3.0, 11)])
        assert int(np.sum(signs[1:] != signs[:-1])) == 1

    @pytest.mark.parametrize("x", [1.0, 5.0, 20.0])
    def test_wronskian(self, x):
        # J0 N0' - J0' N0 = 2/(pi x), Richardson-extrapolated differences.
        def wronskian(h):
            j0, y0 = bessel_j0_y0(x)
            dj = (bessel_j0_y0(x + h)[0] - bessel_j0_y0(x - h)[0]) / (2 * h)
            dy = (bessel_j0_y0(x + h)[1] - bessel_j0_y0(x - h)[1]) / (2 * h)
            return j0 * dy - dj * y0

        w = (4.0 * wronskian(5e-5) - wronskian(1e-4)) / 3.0
        assert abs(w - 2.0 / (math.pi * x)) <= 1e-10

    @pytest.mark.parametrize("x", [0.3, 2.0, 7.9, 8.1, 50.0, 300.0, 700.0])
    def test_against_scipy(self, x):
        j0, y0 = bessel_j0_y0(x)
        j1, y1 = bessel_j1_y1(x)
        envelope = math.sqrt(2.0 / (math.pi * x))
        assert abs(j0 - special.j0(x)) <= 1e-11 * max(envelope, 1.0)
        assert abs(y0 - special.y0(x)) <= 1e-11 * max(envelope, 1.0)
        assert abs(j1 - special.j1(x)) <= 1e-11 * max(envelope, 1.0)
        assert abs(y1 - special.y1(x)) <= 1e-11 * max(envelope, 1.0)

    def test_against_scipy_above_series_radius(self):
        x = np.linspace(4.0, 1000.0, 4001)[1:]
        envelope = np.sqrt(2.0 / (np.pi * x))
        got = numerics._bessel_jy_vec(x)
        refs = (special.j0(x), special.y0(x), special.j1(x), special.y1(x))
        for a, b in zip(got, refs):
            assert np.max(np.abs(a - b) / envelope) <= 1e-13

    def test_regime_overlap(self, monkeypatch):
        # Move the series radius so each regime of K on the imaginary axis
        # yields J/Y at the same x; both must agree across the switch.
        x = np.array([3.0, 4.0, 5.0])
        monkeypatch.setattr(numerics, "_SERIES_RADIUS", math.inf)
        series = numerics._bessel_jy_vec(x)
        monkeypatch.setattr(numerics, "_SERIES_RADIUS", 0.0)
        quad = numerics._bessel_jy_vec(x)
        scale = np.sqrt(2.0 / (np.pi * x))
        for a, b in zip(series, quad):
            assert np.all(np.abs(a - b) <= 1e-11 * scale)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (8.01, 13.0, 30.0, 999.0):
            envelope = math.sqrt(2.0 / (math.pi * x))
            (j0, y0), (j1, y1) = bessel_j0_y0(x), bessel_j1_y1(x)
            with mpmath.workdps(25):
                refs = [float(f(v, x)) for f in (mpmath.besselj, mpmath.bessely) for v in (0, 1)]
            for got, ref in zip((j0, j1, y0, y1), refs):
                assert abs(got - ref) <= 2e-15 * envelope


class TestFixedBesselRule:
    """K_0/K_1 and J/Y beyond the series radius are one fixed sum and I_n one
    recurrence: no adaptive or periodic rule runs inside a Bessel
    evaluation."""

    def test_no_adaptive_rule_inside_bessel(self, monkeypatch):
        from wavekit.propagation import evolve_closed

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive or periodic rule called")

        calls = []
        k01_quadrature = numerics._k01_quadrature

        def counting(z):
            calls.append(z)
            return k01_quadrature(z)

        pk = make_minimal(DispersionRelation.relativistic(1.0), 1.0, 0.5, 0.0)
        lattice = make_minimal(DispersionRelation.lattice(1.0, 1.0), 3.0, 0.0, 0.0)
        monkeypatch.setattr(numerics, "_adaptive", forbidden)
        monkeypatch.setattr(numerics, "_periodic", forbidden)
        monkeypatch.setattr(numerics, "_k01_quadrature", counting)
        k0, _ = bessel_k01(30.0 + 5.0j)
        assert k0.value == pytest.approx(special.kv(0, 30.0 + 5.0j), rel=1e-13)
        j0, _ = bessel_j0_y0(50.0)
        assert j0 == pytest.approx(special.j0(50.0), rel=1e-12)
        row = evolve_closed(pk, np.linspace(-15.0, 15.0, 301), 10.0)
        assert np.all(np.isfinite(row))
        assert len(calls) == 3
        i5 = bessel_i_integer(5, 30.0 + 5.0j)
        assert i5.value == pytest.approx(special.iv(5, 30.0 + 5.0j), rel=1e-13)
        # A 401-site lattice row at |3 + 9.5i| > 8: one recurrence for all
        # its orders, where a periodic rule held every order at every node.
        tracemalloc.start()
        try:
            row = evolve_closed(lattice, np.arange(-200.0, 201.0), 9.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(row))
        assert peak < 1 << 20

    def test_closed_forms_run_no_adaptive_rule(self, monkeypatch):
        from wavekit import moments

        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive rule called")

        packets = [
            make_minimal(DispersionRelation.non_relativistic(1.0), 1.0, 0.5, 0.0),
            make_minimal(DispersionRelation.lattice(1.0, 1.0), 1.0, 0.0, 0.0),
            make_minimal(DispersionRelation.relativistic(2.0), 3.0, 1.0, 0.0),
            make_minimal(DispersionRelation.relativistic(5.0), 100.0, 99.9, 0.0),
            make_minimal(DispersionRelation.massless(), 1.0, 0.5, 0.0),
        ]
        monkeypatch.setattr(numerics, "_adaptive", forbidden)
        for pk in packets:
            assert moments.moments_closed_form(pk).mean_x2 > 0.0
