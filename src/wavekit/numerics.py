"""Adaptive quadrature and Bessel-function evaluators.

Every oracle path in the library rests on this module, so the routines are
kept deliberately self-contained: complex-valued integrands throughout, a
conservative absolute-error estimate attached to every result, and no
dependencies beyond numpy.

Finite-interval integrals use a batched, globally adaptive Gauss-Kronrod
10/21 rule (``_adaptive``): one 21-point evaluation per panel gives the
Kronrod value and the |K21 - G10| error estimate, and each round splits the
worst panels together, evaluating their children two panels per vectorised
integrand call. Line integrals run it over a window [lo, hi]; a packet's is
the level set of its log-density at the tail budget (``density_window``).

Bessel strategy: power series for small argument (|z| <= 8). Beyond that,
K_0/K_1 are one fixed 19-node trapezoid sum on the steepest-descent path of
their integral representation (``_k01_quadrature``), uniform in arg z up to
the imaginary axis, and J/Y follow from K_v(-ix); I_n uses Bessel's integral
under the periodic trapezoid rule. K and J/Y evaluations run no adaptive
or doubling rule. The regimes overlap on |z| in [6, 8], where they are
cross-checked in the test suite and by ``wavekit selfcheck``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonConvergence, OverflowSignal

__all__ = [
    "QuadratureSpec",
    "ComplexAmplitude",
    "DEFAULT_SPEC",
    "integrate_line",
    "integrate_periodic",
    "bessel_i_integer",
    "bessel_k01",
    "bessel_j0_y0",
    "bessel_j1_y1",
]

_EULER_GAMMA = 0.5772156649015328606

# Tail safety margin for truncated line integrals: the discarded tail is
# bounded by exp(-safety) relative to the absolute floor.
_WINDOW_SAFETY = math.log(1.0e4)

# Gauss-Kronrod 10/21 pair on [-1, 1] (Piessens et al., QUADPACK, 1983).
# The 21 Kronrod nodes contain the 10 Gauss nodes (every odd index), so one
# evaluation gives the Kronrod value and the Gauss estimate it is checked
# against. Row 0 of _GK_WEIGHTS is the Kronrod rule, row 1 the Kronrod minus
# the Gauss weights, whose sum is the error estimate K21 - G10.
_GK_POSITIVE_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_K21_OUTER_WEIGHTS = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_K21_CENTRE_WEIGHT = 0.149445554002916905664936468389821
_G10_OUTER_WEIGHTS = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_GK_POSITIVE_NODES, [0.0], _GK_POSITIVE_NODES[::-1]])
_K21_WEIGHTS = np.concatenate([_K21_OUTER_WEIGHTS, [_K21_CENTRE_WEIGHT], _K21_OUTER_WEIGHTS[::-1]])
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1:10:2] = _G10_OUTER_WEIGHTS
_G10_WEIGHTS[11:20:2] = _G10_OUTER_WEIGHTS[::-1]
_GK_WEIGHTS = np.stack([_K21_WEIGHTS, _K21_WEIGHTS - _G10_WEIGHTS])

# Panels per integrand call (two: 42 points), and the output values a call
# may produce before wide integrands drop to one panel per call; the cap
# bounds the memory an integrand allocates per call.
_CALL_PANELS = 2
_CALL_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by all integration routines.

    The absolute floor also sets the tail budget (``_tail_budget``): how far
    a line integrand's logarithm falls below its peak at the window's ends.
    """

    relative_tolerance: float = 1.0e-10
    absolute_floor: float = 1.0e-14
    max_subdivisions: int = 32768

    def __post_init__(self):
        if not 0.0 < self.relative_tolerance < 1.0:
            raise InvalidInput("relative_tolerance must lie in (0, 1)")
        if self.absolute_floor < 0.0 or not math.isfinite(self.absolute_floor):
            raise InvalidInput("absolute_floor must be finite and >= 0")
        if self.max_subdivisions < 8:
            raise InvalidInput("max_subdivisions must be >= 8")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class ComplexAmplitude:
    """A complex value together with an absolute-error estimate."""

    value: complex
    abs_error: float

    def __post_init__(self):
        if not math.isfinite(self.abs_error) or self.abs_error < 0.0:
            raise InvalidInput("abs_error must be finite and non-negative")


def _eval_points(f, pts):
    """Evaluate an integrand that is vectorized over the sample axis."""
    vals = np.asarray(f(pts), dtype=complex)
    if vals.shape[:1] != pts.shape:
        raise InvalidInput(
            "integrand returned shape %s for %d points; the leading axis "
            "must be the sample axis" % (vals.shape, len(pts))
        )
    return vals


def _gk_panels(f, a, b):
    """K21 values and |K21 - G10| errors of the panels [a_i, b_i] from one
    integrand call on all their nodes; returns arrays (P, W) with the
    integrand's value shape flattened to W, and that shape."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    vals = _eval_points(f, (mid[:, np.newaxis] + half[:, np.newaxis] * _GK_NODES).ravel())
    shape = vals.shape[1:]
    # Real and imaginary parts are contracted as separate columns, each with
    # the same summation order, so identical integrand columns give
    # bit-identical results (a stacked BLAS product would not).
    v = np.ascontiguousarray(vals).reshape(len(a), len(_GK_NODES), -1).view(float)
    sums = np.einsum("rj,pjw->prw", _GK_WEIGHTS, v).view(complex)
    q = half[:, np.newaxis] * sums[:, 0]
    e = np.abs(half[:, np.newaxis] * sums[:, 1])
    return q, e, shape


def _fill(f, rows, a, b, store, per_call, tol):
    """Put the panels [a_i, b_i] into the store's ``rows`` with their value,
    error and priority (largest err/tol), ``per_call`` panels per integrand
    call."""
    pa, pb, pq, pe, prio = store
    pa[rows], pb[rows] = a, b
    for j in range(0, len(rows), per_call):
        r = rows[j:j + per_call]
        q, e, _ = _gk_panels(f, a[j:j + per_call], b[j:j + per_call])
        pq[r], pe[r], prio[r] = q, e, np.max(e / tol, axis=1)


def _cover(order, err, excess):
    """The leading panels of ``order`` whose errors, summed, reach ``excess``
    in every component (all of ``order`` if none do)."""
    reached = np.zeros_like(excess)
    start, step = 0, 4
    while start < len(order):
        cum = reached + np.cumsum(err[order[start:start + step]], axis=0)
        done = np.all(cum >= excess, axis=1)
        if done.any():
            return order[:start + int(np.argmax(done)) + 1]
        reached = cum[-1]
        start, step = start + step, 2 * step
    return order


def _nonconvergence(message, a, b, err, tol, total, toterr, shape):
    ratio = np.max(err / tol, axis=1)
    i = int(np.argmax(ratio))
    return NonConvergence(
        "%s; worst panel [%.17g, %.17g] at err/tol %.3g" % (message, a[i], b[i], ratio[i]),
        value=total.reshape(shape),
        abs_error=toterr.reshape(shape),
    )


def _adaptive(f, lo, hi, spec, breakpoints=(), initial_panels=1):
    """Globally adaptive Gauss-Kronrod 10/21 quadrature on [lo, hi].

    ``f`` maps an ndarray of points to complex values of shape
    ``(npoints,) + S``; the result and error estimate have shape ``S``
    (scalar integrands give 0-d arrays). Each panel costs 21 evaluations:
    its value is the Kronrod sum and its error |K21 - G10|, the Gauss rule
    sharing every other node. Each round splits, in one batch, the panels of
    highest priority (largest err/tol when they were made) until their
    errors cover the excess of the total error over the tolerance, never
    past ``spec.max_subdivisions``. The children are evaluated two panels
    (42 points) per integrand call, one panel per call once a call would
    exceed ``_CALL_ELEMENTS`` output values; the very first call is one
    panel and tells the rule the integrand's width. Panels live in arrays
    updated in place (children are written straight into them), with
    running totals. Convergence requires every
    component to meet ``rtol*|value| + floor``. ``NonConvergence`` (on an
    exhausted budget, an unsplittable panel or a non-finite value) names
    the worst panel and its err/tol.
    """
    edges = {float(lo), float(hi)}
    edges.update(float(p) for p in breakpoints if lo < p < hi)
    if initial_panels > 1:
        edges.update(np.linspace(lo, hi, initial_panels + 1))
    edges = np.array(sorted(edges))
    rtol, floor = spec.relative_tolerance, spec.absolute_floor

    q, e, shape = _gk_panels(f, edges[:1], edges[1:2])
    width = q.shape[1]
    per_call = max(1, min(_CALL_PANELS, _CALL_ELEMENTS // (len(_GK_NODES) * max(width, 1))))
    n = len(edges) - 1
    cap = 2 * n
    store = (np.empty(cap), np.empty(cap), np.empty((cap, width), dtype=complex),
             np.empty((cap, width)), np.empty(cap))
    pa, pb, pq, pe, prio = store
    pa[0], pb[0], pq[0], pe[0] = edges[0], edges[1], q[0], e[0]
    _fill(f, np.arange(1, n), edges[1:-1], edges[2:], store, per_call, 1.0)
    total = pq[:n].sum(axis=0)
    toterr = pe[:n].sum(axis=0)
    # The initial priorities need the tolerance of the initial total.
    prio[:n] = np.max(pe[:n] / (rtol * np.abs(total) + floor), axis=1)
    splits = 0
    scale = max(abs(lo), abs(hi), 1.0)

    while True:
        tol = rtol * np.abs(total) + floor
        if np.all(toterr <= tol):
            return total.reshape(shape), toterr.reshape(shape)
        if not np.all(np.isfinite(toterr)):
            # The running totals never shed a non-finite panel value, so the
            # rule could only spend its whole budget before failing.
            bad = ~np.all(np.isfinite(pe[:n]), axis=1)
            raise _nonconvergence(
                "adaptive quadrature met a non-finite integrand value",
                pa[:n][bad], pb[:n][bad], pe[:n][bad], tol, total, toterr, shape,
            )
        budget = spec.max_subdivisions - splits
        if budget <= 0:
            raise _nonconvergence(
                "adaptive quadrature exhausted %d subdivisions" % splits,
                pa[:n], pb[:n], pe[:n], tol, total, toterr, shape,
            )
        order = np.argsort(-prio[:n], kind="stable")[:budget]
        sel = _cover(order, pe, toterr - tol)
        a, b = pa[sel], pb[sel]
        narrow = b - a <= 1e-15 * scale
        if narrow.any():
            # Unsplittable panel still dominating the error budget.
            raise _nonconvergence(
                "adaptive quadrature stalled",
                a[narrow], b[narrow], pe[sel[narrow]], tol, total, toterr, shape,
            )

        k = len(sel)
        if n + k > cap:
            # Grow to exactly the panels held: for a wide integrand the store
            # is most of the rule's memory.
            cap = n + k
            store = tuple(np.concatenate([x[:n], np.empty((k,) + x.shape[1:], x.dtype)]) for x in store)
            pa, pb, pq, pe, prio = store
        # Masked sums over the store: gathering the rows would copy them.
        mask = np.zeros((n + k, 1), dtype=bool)
        mask[sel] = True
        total = total - pq[:n + k].sum(axis=0, where=mask)
        toterr = toterr - pe[:n + k].sum(axis=0, where=mask)
        # Left children replace their parents; right children are appended.
        rows = np.column_stack([sel, np.arange(n, n + k)]).ravel()
        mid = 0.5 * (a + b)
        _fill(f, rows, np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel(),
              store, per_call, tol)
        mask[n:] = True
        total = total + pq[:n + k].sum(axis=0, where=mask)
        toterr = toterr + pe[:n + k].sum(axis=0, where=mask)
        n += k
        splits += k


def _tail_budget(spec):
    """Decay exponent past which an integrand's tail sits below the absolute
    floor by the safety margin."""
    return math.log(1.0 / max(spec.absolute_floor, 1e-18)) + _WINDOW_SAFETY


def _line_integral(f, lo, hi, spec, breakpoints=()):
    """Adaptive integral of ``f`` over the momentum window [lo, hi], with a
    breakpoint at 0 (where |p| kinks) and 8 initial panels; returns
    (value, err) arrays."""
    pts = (0.0,) + tuple(breakpoints)
    return _adaptive(f, lo, hi, spec, breakpoints=pts, initial_panels=8)


def integrate_line(f, decay_rate, spec=DEFAULT_SPEC, *, breakpoints=()):
    """Integrate ``f`` over the real line.

    ``f`` must be continuous with ``|f(p)| <= C exp(-decay_rate |p|)`` for
    large ``|p|``; the integral runs over |p| <= budget / decay_rate, so
    that the discarded tail sits below the absolute floor.
    """
    if decay_rate <= 0.0 or not math.isfinite(decay_rate):
        raise InvalidInput("decay_rate must be > 0")
    window = _tail_budget(spec) / decay_rate
    value, err = _line_integral(f, -window, window, spec, breakpoints)
    return ComplexAmplitude(complex(value), float(np.max(err)))


def _periodic(f, period, spec, points=16):
    """Trapezoid sum of a smooth periodic ``f`` over one period from
    ``points`` nodes, doubled until the increment meets the tolerance;
    returns (value, err) arrays. ``points`` must exceed twice the
    integrand's highest frequency, or two doublings can alias alike."""
    a = -0.5 * period
    n = points
    q = period * _eval_points(f, a + period * np.arange(n) / n).mean(axis=0)
    max_points = 1 << 20
    while n <= max_points:
        mids = a + period * (np.arange(n) + 0.5) / n
        q_new = 0.5 * q + 0.5 * period * _eval_points(f, mids).mean(axis=0)
        err = np.abs(q_new - q)
        q = q_new
        n *= 2
        if np.all(err <= spec.relative_tolerance * np.abs(q) + spec.absolute_floor):
            return q, err
    raise NonConvergence(
        "periodic rule did not converge below %d points" % max_points,
        value=q,
    )


def integrate_periodic(f, period, spec=DEFAULT_SPEC):
    """Integrate a smooth periodic ``f`` over one period.

    Equally spaced trapezoid sums are spectrally accurate for smooth
    periodic integrands; the point count doubles until the doubling
    increment falls below tolerance.
    """
    if period <= 0.0 or not math.isfinite(period):
        raise InvalidInput("period must be > 0")
    q, err = _periodic(f, period, spec)
    if np.ndim(q) == 0:
        return ComplexAmplitude(complex(q), float(np.max(err)))
    return q, err


# ---------------------------------------------------------------------------
# Modified Bessel functions I_n (integer order, complex argument)
# ---------------------------------------------------------------------------

_SERIES_RADIUS = 8.0
_SERIES_MAX_TERMS = 400


def _i_series(n, z):
    """Power series I_n(z) = sum_k (z/2)^(n+2k) / (k! (n+k)!).

    Vectorized over broadcast ``n`` (non-negative integers) and complex
    ``z``. Returns (value, abs_error).
    """
    n_arr = np.atleast_1d(np.asarray(n, dtype=int))
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    n_b, z_b = np.broadcast_arrays(n_arr, z_arr)
    shape = n_b.shape

    lgam = np.vectorize(math.lgamma)(n_b + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_half = np.log(z_b / 2.0)
        term = np.exp(n_b * log_half - lgam)
    # Below ~1e-300 the k >= 1 terms underflow anyway; seed the k = 0 term
    # directly so subnormal arguments do not trip on log(0).
    tiny = np.abs(z_b) < 1e-300
    if np.any(tiny):
        term = np.where(tiny, np.where(n_b == 0, 1.0 + 0.0j, 0.0j), term)

    w = z_b * z_b / 4.0
    total = term.copy()
    peak = np.abs(term)
    last = np.abs(term)
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * w / (k * (n_b + k))
        total += term
        mag = np.abs(term)
        peak = np.maximum(peak, mag)
        last = mag
        if k >= 4 and np.all(mag <= 1e-17 * (np.abs(total) + 1e-300)):
            break
    err = last + 1e-15 * peak
    return total.reshape(shape), err.reshape(shape)


def _i_quadrature(n, z, spec=DEFAULT_SPEC):
    """I_n(z) = (1/2pi) int_{-pi}^{pi} exp(z cos t) cos(n t) dt."""
    n_arr = np.atleast_1d(np.asarray(n, dtype=int))
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    n_b, z_b = np.broadcast_arrays(n_arr, z_arr)
    extra = (np.newaxis,) * n_b.ndim

    def f(theta):
        th = theta[(...,) + extra]
        return np.exp(z_b * np.cos(th)) * np.cos(n_b * th) / (2.0 * np.pi)

    return _periodic(f, 2.0 * np.pi, spec)


def _bessel_i_vec(n, z, spec=DEFAULT_SPEC):
    """Vectorized I_n over broadcast integer orders and complex arguments."""
    n_arr = np.abs(np.atleast_1d(np.asarray(n, dtype=int)))  # I_{-n} = I_n
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    n_b, z_b = np.broadcast_arrays(n_arr, z_arr)
    n_b = np.ascontiguousarray(n_b)
    z_b = np.ascontiguousarray(z_b)
    value = np.zeros(n_b.shape, dtype=complex)
    err = np.zeros(n_b.shape, dtype=float)
    small = np.abs(z_b) <= _SERIES_RADIUS
    if np.any(small):
        v, e = _i_series(n_b[small], z_b[small])
        value[small], err[small] = v, e
    if np.any(~small):
        v, e = _i_quadrature(n_b[~small], z_b[~small], spec)
        value[~small], err[~small] = v, e
    return value, err


def bessel_i_integer(n, z, spec=DEFAULT_SPEC):
    """Modified Bessel function I_n of integer order for complex argument."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInput("argument of I_n must be finite")
    if abs(z.real) > 700.0:
        # exp(|Re z|) overflows double precision inside both evaluation
        # routes before the result itself leaves the representable range.
        raise OverflowSignal("I_%d(%s) exceeds the representable range" % (int(n), z))
    value, err = _bessel_i_vec(int(n), z, spec)
    v = complex(value[()] if np.ndim(value) == 0 else value.reshape(-1)[0])
    e = float(err[()] if np.ndim(err) == 0 else err.reshape(-1)[0])
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise OverflowSignal("I_%d(%s) exceeds the representable range" % (int(n), z))
    return ComplexAmplitude(v, e)


# ---------------------------------------------------------------------------
# Modified Bessel functions K_0, K_1 (complex argument, Re z > 0)
# ---------------------------------------------------------------------------


def _k01_series(z):
    """Power series for K_0, K_1 at |z| <= 8, Re z > 0.

    Uses the fused form K_0 = sum_k c_k (H_k - gamma - log(z/2)) with
    c_k = (z^2/4)^k / (k!)^2 (and its K_1 analog), which avoids the
    large-term cancellation of evaluating the log term separately.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    log_half = np.log(z / 2.0)
    w = z * z / 4.0

    c = np.ones_like(z)  # (z^2/4)^k / (k!)^2
    d = np.ones_like(z)  # (z^2/4)^k / (k! (k+1)!)
    h = 0.0  # harmonic number H_k
    k0 = c * (h - _EULER_GAMMA - log_half)
    k1s = d * (log_half + _EULER_GAMMA - 0.5 * (h + h + 1.0))
    peak0 = np.abs(k0)
    peak1 = np.abs(k1s)
    for k in range(1, _SERIES_MAX_TERMS):
        c = c * w / (k * k)
        d = d * w / (k * (k + 1))
        h_next = h + 1.0 / k
        t0 = c * (h_next - _EULER_GAMMA - log_half)
        t1 = d * (log_half + _EULER_GAMMA - 0.5 * (h_next + h_next + 1.0 / (k + 1)))
        k0 += t0
        k1s += t1
        h = h_next
        m0, m1 = np.abs(t0), np.abs(t1)
        peak0 = np.maximum(peak0, m0)
        peak1 = np.maximum(peak1, m1)
        if k >= 4 and np.all(m0 <= 1e-17 * np.abs(k0)) and np.all(m1 <= 1e-17 * (np.abs(k1s) + 1e-300)):
            break
    k1 = 1.0 / z + 0.5 * z * k1s
    err0 = m0 + 2e-15 * peak0
    err1 = m1 + 2e-15 * (peak1 + np.abs(1.0 / z))
    return k0, k1, err0, err1


# _k01_quadrature's nodes y = 0, h, ..., 18h, folded onto y >= 0 (weight h
# at 0, 2h elsewhere) with the exp(-y^2) factor (< 1e-17 past the last
# node). The integrand's singularities lie >= sqrt(|z|) off the real axis,
# so the discretisation error ~exp(a^2 - 2 pi a/h), a = min(sqrt|z|, pi/h),
# is below 1e-16 for |z| >= 6. Rows: K_0's sum and the y^2 part K_1 adds.
_SD_STEP = 0.35
_SD_NODES = _SD_STEP * np.arange(19)
_SD_WEIGHTS = (np.where(_SD_NODES == 0.0, _SD_STEP, 2.0 * _SD_STEP) * np.exp(-_SD_NODES**2)
               * np.stack([np.ones_like(_SD_NODES), _SD_NODES**2]))
# Rounding bound of the sum, relative to the sum of its terms' magnitudes.
_SD_ROUNDING = (len(_SD_NODES) + 4) * np.finfo(float).eps


def _k01_quadrature(z):
    """K_0, K_1 for |z| >= 6, Re z >= 0 (used beyond the series radius), by
    one fixed trapezoid sum on the steepest-descent path.

    From K_v(z) = int_1^inf exp(-z t) t^v (t^2 - 1)^(-1/2) dt, the ray
    t = 1 + y^2/z makes exp(-z t) = exp(-z) exp(-y^2), so
    K_0 = exp(-z) z^(-1/2) int exp(-y^2) (2 + y^2/z)^(-1/2) dy over the
    real line, and K_1 carries the extra factor t = 1 + y^2/z. The rule is
    uniform in arg z up to and including the imaginary axis. The error
    estimate is the rounding bound of the sum.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    inv = 1.0 / z
    r = 1.0 / np.sqrt(2.0 + inv[..., np.newaxis] * _SD_NODES**2)
    sums = np.einsum("kj,...j->...k", _SD_WEIGHTS, r)
    mags = np.einsum("kj,...j->...k", _SD_WEIGHTS, np.abs(r))
    pref = np.exp(-z) / np.sqrt(z)
    k0 = pref * sums[..., 0]
    k1 = pref * (sums[..., 0] + inv * sums[..., 1])
    bound = _SD_ROUNDING * np.abs(pref)
    return k0, k1, bound * mags[..., 0], bound * (mags[..., 0] + np.abs(inv) * mags[..., 1])


def _bessel_k01_vec(z):
    """Vectorized (K_0, K_1) over complex arguments with Re z > 0."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z.real <= 0.0):
        raise InvalidInput("bessel_k01 requires Re z > 0")
    k0 = np.zeros(z.shape, dtype=complex)
    k1 = np.zeros(z.shape, dtype=complex)
    e0 = np.zeros(z.shape, dtype=float)
    e1 = np.zeros(z.shape, dtype=float)
    small = np.abs(z) <= _SERIES_RADIUS
    if np.any(small):
        a, b, ea, eb = _k01_series(z[small])
        k0[small], k1[small], e0[small], e1[small] = a, b, ea, eb
    if np.any(~small):
        a, b, ea, eb = _k01_quadrature(z[~small])
        k0[~small], k1[~small], e0[~small], e1[~small] = a, b, ea, eb
    return k0, k1, e0, e1


def bessel_k01(z):
    """Modified Bessel functions (K_0(z), K_1(z)) for Re z > 0."""
    z = complex(z)
    if z.real <= 0.0:
        raise InvalidInput("bessel_k01 requires Re z > 0")
    k0, k1, e0, e1 = _bessel_k01_vec(z)
    return (
        ComplexAmplitude(complex(k0[0]), float(e0[0])),
        ComplexAmplitude(complex(k1[0]), float(e1[0])),
    )


# ---------------------------------------------------------------------------
# Bessel functions J_0, Y_0, J_1, Y_1 (real positive argument)
# ---------------------------------------------------------------------------


def _jy_series(x):
    """Series evaluation of (J_0, Y_0, J_1, Y_1) for 0 < x <= 8."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log_half = np.log(x / 2.0)
    w = x * x / 4.0

    c = np.ones_like(x)  # (x^2/4)^k / (k!)^2, alternating applied via sign
    d = np.ones_like(x)  # (x^2/4)^k / (k! (k+1)!)
    sign = 1.0
    h = 0.0
    j0 = c.copy()
    y0s = c * (log_half + _EULER_GAMMA - h)
    j1s = d.copy()
    y1s = d * (log_half + _EULER_GAMMA - 0.5 * (h + h + 1.0))
    for k in range(1, _SERIES_MAX_TERMS):
        c = c * w / (k * k)
        d = d * w / (k * (k + 1))
        sign = -sign
        h_next = h + 1.0 / k
        j0 += sign * c
        y0s += sign * c * (log_half + _EULER_GAMMA - h_next)
        j1s += sign * d
        y1s += sign * d * (log_half + _EULER_GAMMA - 0.5 * (h_next + h_next + 1.0 / (k + 1)))
        h = h_next
        if k >= 4 and np.all(np.maximum(c, d) <= 1e-18):
            break
    j1 = 0.5 * x * j1s
    y0 = (2.0 / np.pi) * y0s
    y1 = (2.0 / np.pi) * (-1.0 / x + 0.5 * x * y1s)
    return j0, y0, j1, y1


def _jy_quadrature(x):
    """(J_0, Y_0, J_1, Y_1) for x > 8 from K_v on the imaginary axis:
    K_0(-ix) = (i pi/2)(J_0 + i Y_0), K_1(-ix) = -(pi/2)(J_1 + i Y_1)
    (DLMF 10.27.8)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0, k1, _, _ = _k01_quadrature(-1j * x)
    c = 2.0 / np.pi
    return c * k0.imag, -c * k0.real, -c * k1.real, -c * k1.imag


def _bessel_jy_vec(x):
    """Vectorized (J_0, Y_0, J_1, Y_1) for real x > 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0):
        raise InvalidInput("bessel_j0_y0 requires x > 0")
    out = [np.zeros(x.shape) for _ in range(4)]
    small = x <= _SERIES_RADIUS
    if np.any(small):
        for slot, arr in zip(out, _jy_series(x[small])):
            slot[small] = arr
    if np.any(~small):
        for slot, arr in zip(out, _jy_quadrature(x[~small])):
            slot[~small] = arr
    return tuple(out)


def bessel_j0_y0(x):
    """(J_0(x), N_0(x)) for real x > 0."""
    x = float(x)
    if x <= 0.0:
        raise InvalidInput("bessel_j0_y0 requires x > 0")
    j0, y0, _, _ = _bessel_jy_vec(x)
    return float(j0[0]), float(y0[0])


def bessel_j1_y1(x):
    """(J_1(x), N_1(x)) for real x > 0."""
    x = float(x)
    if x <= 0.0:
        raise InvalidInput("bessel_j1_y1 requires x > 0")
    _, _, j1, y1 = _bessel_jy_vec(x)
    return float(j1[0]), float(y1[0])
