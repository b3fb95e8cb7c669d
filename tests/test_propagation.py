"""Green's functions, evolution continuation, and density grids."""

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special

from wavekit import analysis, numerics
from wavekit.analysis import _evolved_central, evolved_moments, ridge_slope
from wavekit.boost import galilean_boost
from wavekit.dispersion import DispersionRelation
from wavekit.errors import InvalidInput, LightConeSingular, NonConvergence, NonIntegerSite, OverflowSignal
from wavekit.moments import moments_quadrature, spreading_width_sq
from wavekit.numerics import QuadratureSpec
from wavekit.packet import make_minimal
from wavekit.propagation import (
    density_grid,
    evolve_closed,
    evolve_quadrature,
    greens_closed,
)

NONREL = DispersionRelation.non_relativistic(3.0)
LATTICE = DispersionRelation.lattice(3.0, 1.0)
REL = DispersionRelation.relativistic(1.0)
MASSLESS = DispersionRelation.massless()


class TestGreensClosed:
    def test_massless_value(self):
        assert greens_closed(MASSLESS, 2.0, 1.0) == pytest.approx(1j / (3 * math.pi))

    def test_nonrel_origin(self):
        for t in (0.5, 2.0):
            expected = cmath.sqrt(3.0 / (2.0 * math.pi * 1j * t))
            assert greens_closed(NONREL, 0.0, t) == pytest.approx(expected)

    def test_nonrel_t_zero_rejected(self):
        with pytest.raises(InvalidInput):
            greens_closed(NONREL, 1.0, 0.0)

    def test_lattice_identity_at_origin(self):
        assert greens_closed(LATTICE, 0.0, 0.0) == pytest.approx(1.0)

    def test_lattice_empty_row(self):
        for t in (0.0, 1.0, 30.0):  # z = 0 and two |z| = |t|/(m a^2) apart
            assert greens_closed(LATTICE, np.array([]), t).shape == (0,)

    def test_lattice_non_integer_site(self):
        with pytest.raises(NonIntegerSite):
            greens_closed(LATTICE, 0.5, 1.0)

    def test_light_cone_band(self):
        with pytest.raises(LightConeSingular):
            greens_closed(MASSLESS, 1.0, 1.0)
        with pytest.raises(LightConeSingular):
            greens_closed(REL, 2.0, 2.0 + 1e-15)

    def test_spacelike_tail_nonzero_with_decay(self):
        t = 1.0
        s = np.linspace(5.0, 15.0, 11)
        xs = np.sqrt(t * t + s * s)
        g = np.abs(np.atleast_1d(greens_closed(REL, xs, t)))
        assert np.all(g > 0.0)
        slope = np.polyfit(s, np.log(g * s**1.5), 1)[0]
        assert abs(slope + 1.0) <= 0.05

    def test_inside_outside_overlap_band(self):
        # Just inside the cone K_1 on the imaginary axis (the J/N form) must
        # agree with K_1 continued through t - i*eps.
        t = 2.0
        for ratio in (1.001, 1.005, 1.01):
            x = t / ratio
            inside = greens_closed(REL, x, t)
            continued = greens_closed(REL, x, t - 1e-10j)
            assert abs(inside - continued) <= 1e-5 * abs(inside)

    def test_negative_time_conjugation(self):
        # t - i0 puts w on the side of sign(t) inside the cone: a row that
        # straddles it, x of both signs, is conjugated bit for bit.
        x = np.linspace(-12.0, 12.0, 199)
        for t in (1.5, 9.0):
            assert np.array_equal(greens_closed(REL, x, -t), np.conj(greens_closed(REL, x, t)))

    @pytest.mark.parametrize("t", [0.5, -0.5, 9.0, -9.0])
    def test_row_against_scipy(self, t):
        # One K_1 formula on both sides of the cone, with m sqrt|x^2 - t^2|
        # on both sides of the K series radius.
        m = 2.0
        x = np.linspace(-15.0, 15.0, 199)
        g = greens_closed(DispersionRelation.relativistic(m), x, t)
        diff = x * x - t * t
        s = np.sqrt(np.abs(diff))
        radius = numerics._SERIES_RADIUS
        assert np.any(m * s < radius) and np.any(m * s > radius)
        outside = 1j * m * t * special.k1(m * s) / (np.pi * s)
        inside = -(m * abs(t) / (2.0 * s)) * (special.j1(m * s) - 1j * np.sign(t) * special.y1(m * s))
        ref = np.where(diff > 0.0, outside, inside)
        assert np.all(np.abs(g - ref) <= 1e-9 * np.abs(ref))


@pytest.mark.parametrize(
    "rel,beta",
    [(NONREL, 0.5), (LATTICE, 0.0), (REL, 0.5), (MASSLESS, 0.5)],
)
def test_initial_state_fourier_oracle(rel, beta):
    # At t = 0 evolve_closed must reproduce (1/2pi) int Phi(p) e^{ipx} dp.
    pk = make_minimal(rel, 1.0, beta, 0.0)
    xs = np.arange(-3.0, 4.0) if rel is LATTICE else np.linspace(-3.0, 3.0, 7)
    closed = np.atleast_1d(evolve_closed(pk, xs, 0.0))
    for j, x in enumerate(xs):
        oracle = evolve_quadrature(pk, float(x), 0.0)
        assert abs(closed[j] - oracle.value) <= 1e-8


@pytest.mark.parametrize(
    "rel,beta",
    [(NONREL, 0.5), (LATTICE, 0.0), (REL, 0.5), (MASSLESS, 0.5)],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x_t_rejected(rel, beta, bad):
    # Rejected before any Bessel call or quadrature: a rel NaN used to spin
    # through every adaptive subdivision, and t = inf returned NaN.
    pk = make_minimal(rel, 1.0, beta, 0.0)
    for fn, first in ((greens_closed, rel), (evolve_closed, pk), (evolve_quadrature, pk)):
        for x, t in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(InvalidInput):
                fn(first, x, t)
    with pytest.raises(InvalidInput):
        evolve_closed(pk, np.array([0.0, bad]), 1.0)


@pytest.mark.parametrize("t,x", [(3.131722, 129.0), (5.846008, -199.0), (5.846008, -119.0)])
def test_lattice_oracle_at_far_sites(t, x):
    # The zone integrand has frequency (x + beta_i)/a; started from too few
    # points, two doublings aliased alike and passed the increment test.
    pk = make_minimal(DispersionRelation.lattice(2.129999, 1.0), 1.270367, 0.0, 0.0)
    oracle = evolve_quadrature(pk, x, t)
    assert abs(oracle.value - evolve_closed(pk, x, t)) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 30.0, 60.0])
def test_lattice_oracle_past_series_radius(x):
    # |alpha + i t|/(m a^2) = |3 + 9.5i| ~ 10. A periodic rule on I_60
    # aliased to 0.25 off here.
    pk = make_minimal(DispersionRelation.lattice(1.0, 1.0), 3.0, 0.0, 0.0)
    oracle = evolve_quadrature(pk, x, 9.5)
    assert abs(oracle.value - evolve_closed(pk, x, 9.5)) <= 1e-12


def test_lattice_row_reaching_underflow():
    # I_n(3 + 9.5i) at n = 2e6 is 0 in double precision: the row's recurrence
    # starts where I_n/e^{Re z} underflows, not 2e6 steps up, and the x = 0
    # site keeps the value it has in a row of its own.
    lat = DispersionRelation.lattice(1.0, 1.0)
    row = greens_closed(lat, np.array([0.0, 2e6]), 9.5 - 3j)
    assert row[1] == 0.0
    assert row[0] == greens_closed(lat, np.array([0.0]), 9.5 - 3j)[0]


@pytest.mark.parametrize(
    "rel,beta",
    [(NONREL, 0.5), (LATTICE, 0.0), (REL, 0.5), (MASSLESS, 0.5)],
)
@pytest.mark.parametrize("t", [0.0, 5.0])
def test_batched_oracle_matches_pointwise(rel, beta, t):
    # One integral per block of x columns refines for its worst column, so
    # every point stays within 1e-12 of its own integral. 150 points span
    # three blocks; a 2-D x keeps its shape.
    pk = make_minimal(rel, 1.0, beta, 0.0)
    row = np.arange(-75.0, 75.0) if rel is LATTICE else np.linspace(-9.0, 14.0, 150)
    pointwise = np.array([evolve_quadrature(pk, xv, t).value for xv in row])
    for x, ref in ((row, pointwise), (row[:12].reshape(3, 4), pointwise[:12].reshape(3, 4))):
        batched = evolve_quadrature(pk, x, t)
        assert batched.value.shape == batched.abs_error.shape == x.shape
        assert np.all(np.abs(batched.value - ref) <= 1e-12)


@pytest.mark.parametrize("t", [0.0, 5.0, 3.131722, 5.846008])
def test_lattice_oracle_row_with_far_sites(t):
    # One block mixing x = 0 with far sites starts from enough points for
    # its highest frequency.
    pk = make_minimal(DispersionRelation.lattice(2.129999, 1.0), 1.270367, 0.0, 0.0)
    x = np.array([0.0, 129.0, -199.0, -119.0])
    batched = evolve_quadrature(pk, x, t).value
    pointwise = np.array([evolve_quadrature(pk, xv, t).value for xv in x])
    assert np.all(np.abs(batched - pointwise) <= 1e-12)
    assert np.all(np.abs(batched - evolve_closed(pk, x, t)) <= 1e-12)
    # beta_i = 1e7 a: the site of x plus the site of beta_i, summed as
    # integers, where x + beta_i in floats fell off the sites.
    far = make_minimal(DispersionRelation.lattice(1.0, 0.7), 1.0, 0.0, 7e6)
    x = (np.arange(-3.0, 4.0) - 1e7) * 0.7
    assert np.all(np.abs(evolve_quadrature(far, x, t).value - evolve_closed(far, x, t)) <= 1e-12)
    # 0.004 of a site off site -1e7 is off the sites, there as at the origin.
    for evolve in (evolve_closed, evolve_quadrature):
        with pytest.raises(NonIntegerSite):
            evolve(far, -7e6 + 0.003, t)
    # Infinite site numbers of both signs (1.5e308 / 0.5) have no sum.
    edge = make_minimal(DispersionRelation.lattice(1.0, 0.5), 1.0, 0.0, -1.5e308)
    with pytest.raises(OverflowSignal):
        evolve_closed(edge, 1.5e308, t)


def test_lattice_oracle_calls_bounded_in_size():
    # 64 sites out to x = 8000 start the trapezoid sum at 32768 nodes; each
    # level is evaluated in calls of at most 2^16 values, so the block's
    # 64 columns never sit at every node at once.
    pk = make_minimal(LATTICE, 1.0, 0.0, 0.0)
    x = np.round(np.linspace(-8000.0, 8000.0, 64))
    tracemalloc.start()
    try:
        oracle = evolve_quadrature(pk, x, 1.0).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert np.all(np.abs(oracle - evolve_closed(pk, x, 1.0)) <= 1e-12)


def test_empty_oracle_row(monkeypatch):
    # Empty x gives empty arrays without an integrand call.
    pk = make_minimal(REL, 1.0, 0.5)
    calls = []
    evaluate = numerics._eval_points
    monkeypatch.setattr(numerics, "_eval_points",
                        lambda f, pts, columns: calls.append(pts) or evaluate(f, pts, columns))
    for x in (np.array([]), np.empty((2, 0))):
        out = evolve_quadrature(pk, x, 5.0)
        assert out.value.shape == out.abs_error.shape == x.shape
    ts = np.array([0.0, 5.0])
    assert density_grid(pk, np.array([]), ts, "quadrature").density.shape == (2, 0)
    assert calls == []


def _count_integrand_calls(monkeypatch):
    sizes = []
    evaluate = numerics._eval_points

    def counting(f, pts, columns):
        sizes.append(len(pts))
        return evaluate(f, pts, columns)

    monkeypatch.setattr(numerics, "_eval_points", counting)
    return sizes


def test_oracle_integrand_calls(monkeypatch):
    # The phase x + beta_i - v(p) t sizes the start: all initial panels in
    # one call, then one call per round (73 + 6 panels, 1659 points, in two
    # calls).
    pk = make_minimal(REL, 1.0, 0.5)
    sizes = _count_integrand_calls(monkeypatch)
    evolve_quadrature(pk, 3.0, 5.0)
    assert sizes[0] == 73 * 21
    assert sum(sizes) == 1659
    assert len(sizes) == 2


def test_lattice_oracle_makes_no_probe_call(monkeypatch):
    # The periodic rule sizes its levels from the declared block width:
    # every call is a level's nodes, none a one-node probe.
    pk = make_minimal(LATTICE, 1.0)
    sizes = _count_integrand_calls(monkeypatch)
    evolve_quadrature(pk, np.arange(-8.0, 9.0), 5.0)
    assert sizes and min(sizes) > 1


@pytest.mark.parametrize("rel", [NONREL, DispersionRelation.non_relativistic(1.0), REL,
                                 DispersionRelation.relativistic(3.0), MASSLESS],
                         ids=["nonrel3", "nonrel1", "rel1", "rel3", "massless"])
def test_oracle_agrees_to_rounding_at_oscillatory_points(rel):
    # Far from the packet and late, the Fourier integrand turns many times
    # across the window; the oracle still meets the closed form to rounding.
    worst = 0.0
    for alpha, beta_r in [(0.6, -0.3), (1.0, 0.5), (2.0, 1.0)]:
        pk = make_minimal(rel, alpha, beta_r)
        for t in (5.0, 10.0):
            for x in (-30.0, -10.0, 10.0, 25.0, 30.0):
                diff = abs(evolve_quadrature(pk, x, t).value - evolve_closed(pk, x, t))
                worst = max(worst, diff)
    assert worst <= 1e-14


@pytest.mark.parametrize("rel", [REL, LATTICE], ids=["rel", "lattice"])
def test_oracle_at_float_limit_raises_typed_error(rel):
    # At x = 1e308 the phase p x and the start's count overflow; the oracle
    # raises its own error without a RuntimeWarning (an error under pytest).
    pk = make_minimal(rel, 1.0, 0.5 if rel is REL else 0.0)
    with pytest.raises(NonConvergence):
        evolve_quadrature(pk, 1e308, 1.0)


def test_lattice_oracle_off_the_sites_fails_fast():
    # The closed form's site check runs before the periodic rule would double
    # to 2^20 points.
    pk = make_minimal(LATTICE, 1.0, 0.0)
    start = time.perf_counter()
    with pytest.raises(NonIntegerSite, match="x = n a only"):
        evolve_quadrature(pk, np.linspace(-8.0, 8.0, 33), 0.0)
    assert time.perf_counter() - start <= 0.1


def test_lattice_site_past_int64():
    # 1e19 / a does not fit int64; the order is past every underflow order.
    pk = make_minimal(DispersionRelation.lattice(1.0, 1.0), 1.0, 0.0)
    row = evolve_closed(pk, np.array([0.0, 1e19]), 5.0)
    assert abs(row[0]) > 0.0 and row[1] == 0.0


def test_lattice_site_past_float_max():
    # 1.5e308 / 0.5 overflows to inf: the site reads G = 0 and the oracle
    # refuses, both without a RuntimeWarning (an error under pytest).
    pk = make_minimal(DispersionRelation.lattice(1.0, 0.5), 1.0, 0.0)
    row = evolve_closed(pk, np.array([0.0, 1.5e308]), 1.0)
    assert abs(row[0]) > 0.0 and row[1] == 0.0
    with pytest.raises(NonConvergence, match="periodic rule would start above"):
        evolve_quadrature(pk, 1.5e308, 1.0)


def test_evolved_gaussian_width():
    pk = make_minimal(NONREL, 1.0, 0.0, 0.0)
    m0 = moments_quadrature(pk)
    for t in (0.0, 1.0, 3.0):
        _, mean, second = evolved_moments(pk, t, m0)
        assert second - mean**2 == pytest.approx(spreading_width_sq(m0, t), rel=1e-12)
    # A lattice packet sums offsets from its centre site, so its variance
    # never meets <x>^2 ~ 2.5e13, and one at an infinite site still spreads.
    for beta_i, a in ((7e6, 0.7), (1.5e308, 0.5)):
        far = make_minimal(DispersionRelation.lattice(1.0, a), 1.0, 0.0, beta_i)
        m0 = moments_quadrature(far)
        for t in (0.0, 1.0, 5.0):
            mass, mean, var = _evolved_central(far, t, m0, numerics.DEFAULT_SPEC)
            assert var == pytest.approx(spreading_width_sq(m0, t), rel=1e-12)
            assert mass == pytest.approx(1.0, rel=1e-12) and mean == -beta_i


@pytest.mark.parametrize(
    "rel,alpha,beta_r,t",
    [(DispersionRelation.relativistic(0.25), 0.08, 0.0, 40.0), (REL, 0.1, 0.0, 40.0),
     (MASSLESS, 0.1, 0.09, 2.0)],
    ids=["rel-light", "rel", "massless"],
)
def test_evolved_moments_of_narrow_packets(rel, alpha, beta_r, t):
    # Narrow fronts far from the centre: fixed Simpson meshes read mass 0.842
    # and Dx^2 17% low on the first case, and 2% off on the massless one.
    pk = make_minimal(rel, alpha, beta_r)
    m0 = moments_quadrature(pk)
    mass, mean, second = evolved_moments(pk, t, m0)
    pred = spreading_width_sq(m0, t)
    assert abs(mass - 1.0) <= 1e-10
    assert abs(second - mean**2 - pred) <= 1e-10 * pred


@pytest.mark.parametrize("rel", [MASSLESS, REL, DispersionRelation.non_relativistic(1.0)],
                         ids=["massless", "rel", "nonrel"])
def test_evolved_moments_cost(monkeypatch, rel):
    # The README packets at t = 5 take 420, 420 and 378 evolve_closed points
    # (fixed meshes with massless tails took 37,535, 4001 and 4001).
    pk = make_minimal(rel, 1.0, 0.5)
    m0 = moments_quadrature(pk)
    points = []
    closed = analysis.evolve_closed
    monkeypatch.setattr(analysis, "evolve_closed",
                        lambda pk, x, t: points.append(np.size(x)) or closed(pk, x, t))
    evolved_moments(pk, 5.0, m0)
    assert sum(points) <= 2000


def test_caller_spec_reaches_evolved_moments(monkeypatch):
    spec = QuadratureSpec(relative_tolerance=1e-8)
    pk = make_minimal(REL, 1.0, 0.5)
    specs = []
    adaptive = analysis._adaptive
    monkeypatch.setattr(analysis, "_adaptive", lambda f, lo, hi, s, **kw: specs.append(s) or adaptive(f, lo, hi, s, **kw))
    mass, _, _ = evolved_moments(pk, 2.0, spec=spec)
    assert specs == [spec]
    assert mass == pytest.approx(1.0, abs=1e-7)


def test_relativistic_spacelike_point_nonzero():
    pk = make_minimal(REL, 1.0, 0.0, 0.0)
    value = evolve_closed(pk, 5.0, 1.0)
    assert abs(value) > 0.0
    oracle = evolve_quadrature(pk, 5.0, 1.0)
    assert abs(value - oracle.value) <= 1e-8


class TestUnitarity:
    @pytest.mark.parametrize("rel,beta", [(NONREL, 0.5), (REL, 0.5)])
    def test_continuum_mass(self, rel, beta):
        pk = make_minimal(rel, 1.0, beta, 0.0)
        m0 = moments_quadrature(pk)
        for t in (0.5, 2.0):
            mass, _, _ = evolved_moments(pk, t, m0)
            assert abs(mass - 1.0) <= 1e-5

    def test_massless_mass_with_tails(self):
        pk = make_minimal(MASSLESS, 1.0, 0.5, 0.0)
        mass, _, _ = evolved_moments(pk, 2.0)
        assert abs(mass - 1.0) <= 1e-12

    def test_lattice_site_sum(self):
        pk = make_minimal(LATTICE, 1.0, 0.0, 0.0)
        for t in (0.0, 2.0, 5.0):
            sites = np.arange(-40.0, 41.0)
            probs = np.abs(evolve_closed(pk, sites, t)) ** 2
            assert abs(probs.sum() - 1.0) <= 1e-6


class TestDensityGrid:
    def test_mass_capture(self):
        pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
        m0 = moments_quadrature(pk)
        t_vals = np.array([0.0, 1.0, 2.0])
        width = math.sqrt(spreading_width_sq(m0, t_vals[-1]))
        center = m0.mean_x + m0.mean_v * t_vals[-1]
        xs = np.linspace(center - 6.5 * width - 2, center + 6.5 * width + 2, 801)
        grid = density_grid(pk, xs, t_vals)
        for row in grid.density:
            mass = np.trapezoid(row, xs)
            assert 0.99 <= mass <= 1.0 + 5e-7

    def test_grid_validation(self):
        pk = make_minimal(NONREL, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidInput):
            density_grid(pk, np.array([1.0, 0.0]), np.array([0.0]))
        with pytest.raises(InvalidInput):
            density_grid(pk, np.array([0.0, 1.0]), np.array([0.0]), method="magic")

    def test_quadrature_method_matches_closed(self):
        pk = make_minimal(MASSLESS, 1.0, 0.0, 0.0)
        xs = np.linspace(-2.0, 2.0, 5)
        ts = np.array([0.0, 1.0])
        closed = density_grid(pk, xs, ts, "closed")
        quad = density_grid(pk, xs, ts, "quadrature")
        np.testing.assert_allclose(closed.density, quad.density, rtol=0.0, atol=1e-12)


def test_galilean_drift_slope_shift():
    # Boosting by u shifts the density ridge slope by exactly -u.
    pk = make_minimal(NONREL, 1.0, 0.5, 0.0)
    boosted = galilean_boost(pk, 0.5)
    xs = np.linspace(-6.0, 8.0, 281)
    ts = np.linspace(0.0, 6.0, 13)
    slope = ridge_slope(density_grid(pk, xs, ts))
    slope_b = ridge_slope(density_grid(boosted, xs, ts))
    assert slope - slope_b == pytest.approx(0.5, abs=1e-6)
