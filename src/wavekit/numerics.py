"""Adaptive quadrature and Bessel-function evaluators.

Every oracle path in the library rests on this module, so the routines are
kept deliberately self-contained: complex-valued integrands throughout, a
conservative absolute-error estimate attached to every result, and no
dependencies beyond numpy.

Finite-interval integrals use a batched, globally adaptive Gauss-Kronrod
10/21 rule (``_adaptive``): one 21-point evaluation per panel gives the
Kronrod value and the |K21 - G10| error estimate. The initial panels come in
one vectorised integrand call, and each round splits the worst panels
together and evaluates all their children in one more; a call is split only
where it would exceed ``_CALL_ELEMENTS`` output values. Every caller declares
its integrand's column count, which sizes the calls and is checked against
what the integrand returns, so no integrator probes. Line integrals run it
over a window [lo, hi]; a packet's is the level set of its log-density at the
tail budget (``density_window``).

Bessel strategy: K_0/K_1 by power series for |z| <= 4 and, beyond that,
one fixed 19-node trapezoid sum on the steepest-descent path of their
integral representation (``_k01_quadrature``), uniform in arg z up to the
imaginary axis. J/Y are K_v(-ix) in both regimes (DLMF 10.27.8). The two K
regimes overlap on |z| in [3, 5], where the test suite and ``wavekit
selfcheck`` compare them. I_n, at every z and all orders asked for, is one
Miller recurrence normalised by e^z (``_i_recurrence``). No Bessel
evaluation runs an adaptive or doubling rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonConvergence, OverflowSignal

__all__ = [
    "QuadratureSpec",
    "ComplexAmplitude",
    "DEFAULT_SPEC",
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

# Output values one integrand call may produce: the initial panels, each
# round's children and each periodic level are split into calls of at most
# this many values (never below one panel or node per call), which bounds the
# memory a wide integrand allocates per call.
_CALL_ELEMENTS = 1 << 16

# Panel splits one ``_adaptive`` call may make, and the cap on the initial
# panels ``propagation.evolve_quadrature`` sizes from the phase.
_MAX_SUBDIVISIONS = 32768


@dataclass(frozen=True)
class QuadratureSpec:
    """The one tolerance shared by all integration routines.

    Its absolute floor, min(1e-14, relative_tolerance / 100), is derived,
    not set; it also sets the tail budget (``_tail_budget``): how far a line
    integrand's logarithm falls below its peak at the window's ends.
    """

    relative_tolerance: float = 1.0e-10

    def __post_init__(self):
        if not 0.0 < self.relative_tolerance < 1.0:
            raise InvalidInput("relative_tolerance must lie in (0, 1)")
        if self.absolute_floor == 0.0:
            raise InvalidInput("relative_tolerance %g gives an absolute floor that underflows to 0"
                               % self.relative_tolerance)

    @property
    def absolute_floor(self):
        return min(1.0e-14, 1.0e-2 * self.relative_tolerance)


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class ComplexAmplitude:
    """A complex value together with an absolute-error estimate: a Python
    complex and float, or arrays of one shape for array input."""

    value: complex
    abs_error: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.abs_error) & (self.abs_error >= 0.0)):
            raise InvalidInput("abs_error must be finite and non-negative")


def _amplitude(value, err):
    """ComplexAmplitude of value and error arrays of one shape; 0-d ones
    become a Python complex and float."""
    if np.ndim(value) == 0:
        return ComplexAmplitude(complex(value), float(err))
    return ComplexAmplitude(value, err)


def _eval_points(f, pts, columns):
    """Evaluate an integrand that is vectorized over the sample axis and
    declared to return ``columns`` values per point (its value shape
    flattened; 1 for a scalar integrand)."""
    vals = np.asarray(f(pts), dtype=complex)
    if vals.shape[:1] != pts.shape:
        raise InvalidInput(
            "integrand returned shape %s for %d points; the leading axis "
            "must be the sample axis" % (vals.shape, len(pts))
        )
    width = math.prod(vals.shape[1:])
    if width != columns:
        raise InvalidInput("integrand returned %d columns per point; its caller declared %d" % (width, columns))
    return vals


def _gk_panels(f, a, b, columns):
    """K21 values and |K21 - G10| errors of the panels [a_i, b_i] from one
    integrand call on all their nodes; returns arrays (P, columns) and the
    integrand's value shape."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    vals = _eval_points(f, (mid[:, np.newaxis] + half[:, np.newaxis] * _GK_NODES).ravel(), columns)
    # Real and imaginary parts are contracted as separate columns, each with
    # the same summation order, so identical integrand columns give
    # bit-identical results (a stacked BLAS product would not).
    v = np.ascontiguousarray(vals).reshape(len(a), len(_GK_NODES), columns).view(float)
    sums = np.einsum("rj,pjw->prw", _GK_WEIGHTS, v).view(complex)
    q = half[:, np.newaxis] * sums[:, 0]
    e = np.abs(half[:, np.newaxis] * sums[:, 1])
    return q, e, vals.shape[1:]


def _fill(f, rows, a, b, store, per_call):
    """Put the panels [a_i, b_i] into the store's ``rows`` with their value
    and error, ``per_call`` panels per integrand call; returns the
    integrand's value shape."""
    pa, pb, pq, pe = store
    pa[rows], pb[rows] = a, b
    for j in range(0, len(rows), per_call):
        r = rows[j:j + per_call]
        pq[r], pe[r], shape = _gk_panels(f, a[j:j + per_call], b[j:j + per_call], pq.shape[1])
    return shape


def _ratio(err, tol):
    """err/tol per component; tol >= the absolute floor > 0, and a
    non-finite total gives inf/inf before ``NonConvergence`` is raised."""
    with np.errstate(invalid="ignore"):
        return err / tol


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
    ratio = np.max(_ratio(err, tol), axis=1)
    i = int(np.argmax(ratio))
    return NonConvergence(
        "%s; worst panel [%.17g, %.17g] at err/tol %.3g" % (message, a[i], b[i], ratio[i]),
        value=total.reshape(shape),
        abs_error=toterr.reshape(shape),
    )


def _adaptive(f, lo, hi, spec, breakpoints=(), initial_panels=1, columns=1):
    """Globally adaptive Gauss-Kronrod 10/21 quadrature on [lo, hi].

    ``f`` maps an ndarray of points to complex values of shape
    ``(npoints,) + S``, where ``S`` holds the declared ``columns`` values
    (``InvalidInput`` otherwise); the result and error estimate have shape
    ``S`` (scalar integrands give 0-d arrays). Each panel costs 21
    evaluations: its value is the Kronrod sum and its error |K21 - G10|,
    the Gauss rule sharing every other node. Each round splits, in one
    batch, the panels of highest priority (largest err/tol at the round's
    tolerance) until their errors cover the excess of the total error over
    the tolerance, never past ``_MAX_SUBDIVISIONS``. The initial panels and
    then each round's children are evaluated in one integrand call, split
    into calls of at most ``_CALL_ELEMENTS`` output values (never below one
    panel per call), so the first call is sized like every other. Children
    reach the integrand in order, each parent's two side by side. Panels
    live in arrays updated in place (children are written straight into
    them), with running totals. Convergence requires every component to
    meet ``rtol*|value| + floor``. ``NonConvergence`` (on an exhausted
    budget, an unsplittable panel or a non-finite value) names the worst
    panel and its err/tol.
    """
    edges = {float(lo), float(hi)}
    edges.update(float(p) for p in breakpoints if lo < p < hi)
    if initial_panels > 1:
        edges.update(np.linspace(lo, hi, initial_panels + 1))
    edges = np.array(sorted(edges))
    rtol, floor = spec.relative_tolerance, spec.absolute_floor

    per_call = max(1, _CALL_ELEMENTS // (len(_GK_NODES) * columns))
    n = len(edges) - 1
    cap = 2 * n
    store = (np.empty(cap), np.empty(cap), np.empty((cap, columns), dtype=complex), np.empty((cap, columns)))
    pa, pb, pq, pe = store
    shape = _fill(f, np.arange(n), edges[:-1], edges[1:], store, per_call)
    total = pq[:n].sum(axis=0)
    toterr = pe[:n].sum(axis=0)
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
        budget = _MAX_SUBDIVISIONS - splits
        if budget <= 0:
            raise _nonconvergence(
                "adaptive quadrature exhausted %d subdivisions" % splits,
                pa[:n], pb[:n], pe[:n], tol, total, toterr, shape,
            )
        order = np.argsort(-np.max(_ratio(pe[:n], tol), axis=1), kind="stable")[:budget]
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
            pa, pb, pq, pe = store
        # Masked sums over the store: gathering the rows would copy them.
        mask = np.zeros((n + k, 1), dtype=bool)
        mask[sel] = True
        total = total - pq[:n + k].sum(axis=0, where=mask)
        toterr = toterr - pe[:n + k].sum(axis=0, where=mask)
        # Left children replace their parents; right children are appended.
        rows = np.column_stack([sel, np.arange(n, n + k)]).ravel()
        mid = 0.5 * (a + b)
        _fill(f, rows, np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel(), store, per_call)
        mask[n:] = True
        total = total + pq[:n + k].sum(axis=0, where=mask)
        toterr = toterr + pe[:n + k].sum(axis=0, where=mask)
        n += k
        splits += k


def _tail_budget(spec):
    """Decay exponent past which an integrand's tail sits below the absolute
    floor by the safety margin."""
    return math.log(1.0 / max(spec.absolute_floor, 1e-18)) + _WINDOW_SAFETY


def _line_integral(f, lo, hi, spec, panels=8, columns=1):
    """Adaptive integral of ``f``, ``columns`` values per point, over the
    momentum window [lo, hi], with a breakpoint at 0 (where |p| kinks) and
    ``panels`` equal initial panels; returns (value, err) arrays."""
    return _adaptive(f, lo, hi, spec, breakpoints=(0.0,), initial_panels=panels, columns=columns)


# Nodes past which the periodic rule stops doubling (and will not start).
_PERIODIC_MAX_POINTS = 1 << 20


def _periodic(f, period, spec, points=16, columns=1):
    """Trapezoid sum of a smooth periodic ``f``, ``columns`` values per
    point, over one period from ``points`` nodes, doubled until the
    increment meets the tolerance; returns (value, err) arrays. ``points``
    must exceed twice the integrand's highest frequency, or two doublings
    can alias alike. Each level's nodes, the first included (the lattice
    oracle starts far sites at 32768 nodes), are evaluated in calls of at
    most ``_CALL_ELEMENTS`` output values."""
    if points > _PERIODIC_MAX_POINTS:
        raise NonConvergence("periodic rule would start above %d points" % _PERIODIC_MAX_POINTS)
    a = -0.5 * period
    per_call = max(1, _CALL_ELEMENTS // columns)

    def mean(n, offset):
        # Mean of f over the nodes a + period (j + offset) / n, j < n; in
        # one call it is the float ndarray.mean gives.
        return sum(
            _eval_points(f, a + period * (np.arange(j, min(j + per_call, n)) + offset) / n, columns).sum(axis=0)
            for j in range(0, n, per_call)
        ) / n

    n = points
    q = period * mean(n, 0.0)
    while n <= _PERIODIC_MAX_POINTS:
        q_new = 0.5 * q + 0.5 * period * mean(n, 0.5)
        err = np.abs(q_new - q)
        q = q_new
        n *= 2
        if np.all(err <= spec.relative_tolerance * np.abs(q) + spec.absolute_floor):
            return q, err
    raise NonConvergence(
        "periodic rule did not converge below %d points" % _PERIODIC_MAX_POINTS,
        value=q,
    )


# ---------------------------------------------------------------------------
# Modified Bessel functions I_n (integer order, complex argument)
# ---------------------------------------------------------------------------

# Below half the least subnormal a double rounds to 0.
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)  # e^x overflows above it


def _i_underflow_order(z, top):
    """The first order k <= ``top`` from which on I_k(z)/e^{Re z} rounds to
    0 in double, or None: the series bound |I_k(z)| <= I_k(|z|) <= (|z|/2)^k
    / k! e^{|z|^2/(4(k+1))} decreases in k beyond |z|/2, so it is bisected
    there. At z = 0 every order from 1 on is 0."""
    r = abs(z)
    lo = int(r / 2.0) + 1
    if top < lo:
        return None
    if r == 0.0:
        return lo
    # Not log(r / 2): half the least subnormal rounds to 0.
    log_half = math.log(r) - math.log(2.0)

    def underflows(k):
        return k * log_half - math.lgamma(k + 1.0) + r * r / (4.0 * (k + 1.0)) - z.real < _LOG_UNDERFLOW

    if not underflows(top):
        return None
    while lo < top:
        mid = (lo + top) // 2
        if underflows(mid):
            top = mid
        else:
            lo = mid + 1
    return top


def _i_recurrence(n, z):
    """I_n(z) at orders ``n`` >= 0 (any shape) for one complex z, at every
    |z|: Miller's backward recurrence (DLMF 3.6(iii)) from zero above
    max(n) + 2|z| + 60 on the ratios I_k/I_{k-1} = z/(2k + z I_{k+1}/I_k),
    whose running products are I_k/I_0; e^z = I_0 + 2 sum I_k (DLMF
    10.35.5) gives I_0. The step has no 1/z, so subnormal z does not
    overflow and z = 0 gives I_n(0) = delta_n0. A row reaching the order
    where I_n/e^{Re z} underflows starts there instead and is 0 above it.
    Re z < 0 runs at -z, I_n(-z) = (-1)^n I_n(z), so that sum does not
    cancel. The error is the rounding bound (steps + 4) eps (|I_0| + 2 sum
    |I_k|)."""
    if z.real < 0.0:
        value, err = _i_recurrence(n, -z)
        return np.where(n % 2 == 1, -value, value), err
    top = int(np.max(n, initial=0))
    if math.hypot(z.real, z.imag) > 1 << 21:
        # Every start below is at least |z|/2, so past the cap; abs(z) and
        # 2|z| could also overflow.
        raise NonConvergence("I_n recurrence at |z| > 2^21 would take over 2^20 steps")
    if z.real > _LOG_MAX:
        raise OverflowSignal("e^z in the I_n recurrence overflows at Re z = %r" % z.real)
    start = _i_underflow_order(z, top)
    if start is None:
        start = int(top + 2.0 * abs(z)) + 60
    if start > 1 << 20:
        raise NonConvergence("I_n recurrence would take %d steps (> 2^20, 16 MB of ratios)" % start)
    ratios = np.ones(start + 1, dtype=complex)  # I_k / I_{k-1}, 1 at k = 0
    r = 0j
    for k in range(start, 0, -1):
        r = ratios[k] = z / (2.0 * k + z * r)
    terms = np.cumprod(ratios)  # I_k / I_0
    i0 = np.exp(z) / (2.0 * terms.sum() - 1.0)
    bound = (start + 4) * np.finfo(float).eps * (2.0 * np.abs(terms).sum() - 1.0) * abs(i0)
    value = np.where(n > start, 0j, i0 * terms[np.minimum(n, start)])
    return value, np.full(np.shape(n), bound)


def _bessel_i_vec(n, z):
    """(I_n(z), abs_error) at integer orders ``n`` (any shape) for one complex
    z, by the recurrence."""
    n = np.abs(np.asarray(n, dtype=int))  # I_{-n} = I_n
    if n.size == 0:
        return np.zeros(n.shape, dtype=complex), np.zeros(n.shape)
    return _i_recurrence(n, complex(z))


def bessel_i_integer(n, z):
    """Modified Bessel function I_n of integer order for complex argument, by
    one Miller recurrence at every z (no series, adaptive or doubling rule).
    ``abs_error`` is the recurrence's absolute rounding bound, (steps + 4)
    eps (|I_0| + 2 sum |I_k|), which holds at every |z|. Past |Re z| =
    709.78, e^z overflows inside the recurrence: ``OverflowSignal``."""
    z = complex(z)
    if not float(n).is_integer():
        raise InvalidInput("order of I_n must be an integer")
    if not cmath.isfinite(z):
        raise InvalidInput("argument of I_n must be finite")
    n = int(n)
    with np.errstate(over="ignore", invalid="ignore"):
        value, err = _bessel_i_vec(n, z)
    v = complex(value)
    if not cmath.isfinite(v):
        raise OverflowSignal("I_%d(%s) exceeds the representable range" % (n, z))
    return ComplexAmplitude(v, float(err))


# ---------------------------------------------------------------------------
# Modified Bessel functions K_0, K_1 (complex argument, Re z >= 0)
# ---------------------------------------------------------------------------

# The series loses digits as |z| grows (3e-14 relative at 4, 1e-12 at 5,
# 7e-10 at 8), while the fixed sum beyond 4 is within 5e-16; the two overlap
# on [3, 5].
_SERIES_RADIUS = 4.0
_SERIES_MAX_TERMS = 400


def _k01_series(z):
    """Power series for K_0, K_1 at |z| <= 4, Re z >= 0.

    Uses the fused form K_0 = sum_k c_k (H_k - gamma - log(z/2)) with
    c_k = (z^2/4)^k / (k!)^2 (and its K_1 analog), which avoids the
    large-term cancellation of evaluating the log term separately. At
    z = -ix its real and imaginary parts are the J/Y series.
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
# is below 1e-16 for |z| >= 6; against mpmath the sum is within 5e-16
# relative from |z| = 4 on (3.6e-15 at 3.5, 3.7e-14 at 3). Rows: K_0's sum
# and the y^2 part K_1 adds.
_SD_STEP = 0.35
_SD_NODES = _SD_STEP * np.arange(19)
_SD_WEIGHTS = (np.where(_SD_NODES == 0.0, _SD_STEP, 2.0 * _SD_STEP) * np.exp(-_SD_NODES**2)
               * np.stack([np.ones_like(_SD_NODES), _SD_NODES**2]))
# Rounding bound of the sum, relative to the sum of its terms' magnitudes.
_SD_ROUNDING = (len(_SD_NODES) + 4) * np.finfo(float).eps


def _k01_quadrature(z):
    """K_0, K_1 for |z| > 4, Re z >= 0 (used beyond the series radius), by
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
    """Vectorized (K_0, K_1) over complex arguments with Re z >= 0, z != 0
    (the imaginary axis carries J/Y)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z.real < 0.0) or np.any(z == 0.0):
        raise InvalidInput("K_0/K_1 require Re z >= 0 and z != 0")
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
    """Modified Bessel functions (K_0(z), K_1(z)) for finite z, Re z > 0."""
    z = complex(z)
    if not (z.real > 0.0 and cmath.isfinite(z)):
        raise InvalidInput("bessel_k01 requires finite z with Re z > 0")
    k0, k1, e0, e1 = _bessel_k01_vec(z)
    return (
        ComplexAmplitude(complex(k0[0]), float(e0[0])),
        ComplexAmplitude(complex(k1[0]), float(e1[0])),
    )


# ---------------------------------------------------------------------------
# Bessel functions J_0, Y_0, J_1, Y_1 (real positive argument)
# ---------------------------------------------------------------------------


def _bessel_jy_vec(x):
    """Vectorized (J_0, Y_0, J_1, Y_1) for real x > 0 from K_v on the
    imaginary axis, in both regimes: K_0(-ix) = (i pi/2)(J_0 + i Y_0),
    K_1(-ix) = -(pi/2)(J_1 + i Y_1) (DLMF 10.27.8)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k0, k1, _, _ = _bessel_k01_vec(-1j * x)
    c = 2.0 / np.pi
    return c * k0.imag, -c * k0.real, -c * k1.real, -c * k1.imag


def bessel_j0_y0(x):
    """(J_0(x), N_0(x)) for finite real x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise InvalidInput("bessel_j0_y0 requires finite x > 0")
    j0, y0, _, _ = _bessel_jy_vec(x)
    return float(j0[0]), float(y0[0])


def bessel_j1_y1(x):
    """(J_1(x), N_1(x)) for finite real x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise InvalidInput("bessel_j1_y1 requires finite x > 0")
    _, _, j1, y1 = _bessel_jy_vec(x)
    return float(j1[0]), float(y1[0])
