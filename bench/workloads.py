"""The benchmark's three seeded workloads.

Each workload turns a seed into a sequence of items, runs one item through
wavekit's public functions, and returns the gate checks for that item as
``(gate, residual, tolerance, detail)`` tuples. A check passes when
``residual <= tolerance``; a NaN residual fails.

Inputs are randomised quasi-Monte Carlo points: item ``r`` of a class takes
the r-th Halton point, shifted modulo 1 by a per-seed random offset
(Cranley-Patterson rotation). Every parameter is still uniform over its
range and every seed gives different points, but any prefix of the sequence
covers the ranges evenly. cosmo-trace, which completes only about fifteen items
per run, keeps its cost-setting inputs on a fixed sequence (see there).

All library calls go through the ``wk`` module attribute, so the tracer can
wrap them without editing this file.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

import wavekit as wk
import wavekit.analysis

_BASES = (2, 3, 5, 7, 11, 13, 17, 19)

# Two known defects at the benchmark's first commit. Failures matching them
# are counted and listed like any other failure; ``correct`` only turns
# false for a failure that matches neither.
KNOWN_DEFECTS = {
    "a": "rel packets with 2m*sqrt(alpha^2-beta_r^2) >= 20: K_v and the "
    "unnormalised density fall under the adaptive rule's 1e-14 absolute floor, "
    "so moments, saturation, boost and spreading residuals drift",
    "b": "lattice evolve_quadrature wrong at far sites "
    "(integrate_periodic accepts an aliased doubling)",
}


def _radical_inverse(i, base):
    out, f = 0.0, 1.0
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out


class Draws:
    """Per-class Halton points with a seeded Cranley-Patterson shift."""

    def __init__(self, seed, salt):
        rng = np.random.default_rng([seed, salt])
        self.shift = rng.random(len(_BASES))
        self._rank = defaultdict(int)

    def next_rank(self, cls):
        r = self._rank[cls]
        self._rank[cls] = r + 1
        return r

    def u(self, dim, index):
        """Point ``index`` of dimension ``dim``'s Halton sequence, shifted
        by the seed's offset for that dimension."""
        return float((_radical_inverse(index, _BASES[dim]) + self.shift[dim]) % 1.0)


# The warm-up item is the README's default packet in each workload's cheapest
# class; it is fixed so that set-up time does not depend on the seed.
WARMUP_PACKET = {"kind": "nonrel", "mass": 1.0, "alpha": 1.0, "beta_r": 0.5}


def _spread(index):
    """Point ``index`` of the base-2 van der Corput sequence, moved off 0 by
    1/32: the first 2^k points (k <= 4) sit one per stratum of width 2^-k."""
    return (_radical_inverse(index, 2) + 1.0 / 32.0) % 1.0


def _dispersion(kind, mass):
    if kind == "nonrel":
        return wk.DispersionRelation.non_relativistic(mass)
    if kind == "lattice":
        return wk.DispersionRelation.lattice(mass, 1.0)
    if kind == "rel":
        return wk.DispersionRelation.relativistic(mass)
    return wk.DispersionRelation.massless()


def _packet_params(draws, kind, r, alpha_range, mass_range):
    """alpha log-uniform over alpha_range, beta_r/alpha uniform in
    [-0.6, 0.6] (0 on the lattice), m uniform over mass_range (0 when
    massless)."""
    lo, hi = alpha_range
    alpha = lo * (hi / lo) ** draws.u(0, r)
    frac = 0.0 if kind == "lattice" else -0.6 + 1.2 * draws.u(1, r)
    m_lo, m_hi = mass_range
    mass = 0.0 if kind == "massless" else m_lo + (m_hi - m_lo) * draws.u(2, r)
    return {"kind": kind, "mass": mass, "alpha": alpha, "beta_r": frac * alpha}


def _make_packet(p):
    return wk.make_minimal(_dispersion(p["kind"], p["mass"]), p["alpha"], p["beta_r"], p.get("beta_i", 0.0))


def _rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _rel_argument(p):
    """2 m sqrt(alpha^2 - beta_r^2), the K-Bessel argument of the rel closed forms."""
    return 2.0 * p["mass"] * math.sqrt(p["alpha"] ** 2 - p["beta_r"] ** 2)


# ---------------------------------------------------------------------------
# moments-sweep
# ---------------------------------------------------------------------------


class MomentsSweep:
    """Fresh packet per item: closed-form vs quadrature moments, saturation,
    and for rel packets a Lorentz boost checked against its predictions."""

    name = "moments-sweep"
    salt = 1
    kinds = ("nonrel", "lattice", "rel", "massless")
    trace_items = 40  # two full 20-item cycles
    verify_items = 1200  # 20 cycles of the mix
    solve_every = 20
    solve_kinds = ("nonrel", "rel", "massless")
    cycle = solve_every * len(solve_kinds)  # kinds and solve kinds line up again

    def generate(self, seed, count):
        draws = Draws(seed, self.salt)
        items = []
        for j in range(count):
            solve = j % self.solve_every == self.solve_every - 1
            if solve:
                kind = self.solve_kinds[(j // self.solve_every) % len(self.solve_kinds)]
            else:
                kind = self.kinds[j % len(self.kinds)]
            cls = ("solve-" if solve else "") + kind
            r = draws.next_rank(cls)
            p = _packet_params(draws, kind, r, (0.5, 16.0), (0.5, 3.0))
            p.update(id=j, cls=cls, solve=solve, u=-0.8 + 1.6 * draws.u(3, r))
            items.append(p)
        return items

    def warmup_item(self):
        return dict(WARMUP_PACKET, id=-1, cls="warm-up", solve=False, u=0.5)

    def reset(self):
        pass

    def run(self, p):
        rel = _dispersion(p["kind"], p["mass"])
        target_v = p["beta_r"] / p["alpha"]
        if p["solve"]:
            targets = wk.MomentTargets(target_v, 0.0, p["alpha"])
            pk = wk.solve_parameters(rel, targets, mode="alpha")
        else:
            pk = wk.make_minimal(rel, p["alpha"], p["beta_r"])
        mc = wk.moments_closed_form(pk)
        mq = wk.moments_quadrature(pk)
        bound = wk.uncertainty_bound(pk)
        residuals = [(_rel_diff(getattr(mq, f), getattr(mc, f)), f) for f in mq.FIELDS if getattr(mc, f) is not None]
        # The worst field, where a NaN is worse than any number.
        worst, where = max(residuals, key=lambda r: (math.isnan(r[0]), r[0]), default=(0.0, ""))
        checks = [
            ("moments", worst, 1e-8, where),
            ("saturation", abs(mq.width_x * mq.width_v - bound), 1e-7, ""),
        ]
        if p["solve"]:
            checks.append(("moments", _rel_diff(mq.mean_v, target_v), 1e-8, "solved <v>"))
        if p["kind"] == "rel":
            u = p["u"]
            gamma = 1.0 / math.sqrt(1.0 - u * u)
            direct = wk.boosted_wave_moments(wk.boost_minimal_packet(pk, u))
            pred = wk.boosted_expectations(pk, u, mq)
            e_pred = gamma * (mq.mean_E - u * mq.mean_p)
            checks += [
                ("boost", abs(direct["norm"] - 1.0), 1e-8, "norm"),
                ("boost", abs(direct["mean_E"] - e_pred), 1e-7, "<E>_b"),
                ("boost", abs(direct["mean_v"] - pred.mean_v), 1e-7, "<v>_b"),
            ]
        return checks

    def known_defect(self, p, check):
        gate = check[0]
        if p["kind"] == "rel" and gate in ("moments", "saturation", "boost") and _rel_argument(p) >= 20.0:
            return "a"
        return None


# ---------------------------------------------------------------------------
# evolve-grid
# ---------------------------------------------------------------------------


class EvolveGrid:
    """Several frames per packet: closed-form row, evolved moments against
    the spreading law, oracle points, and for rel frames the real-time
    Green's function across the light cone against scipy."""

    name = "evolve-grid"
    salt = 2
    frames_per_packet = 4
    row_points = 401
    oracle_points = 3
    trace_items = 16  # one packet of each kind
    verify_items = 200  # 10 cycles of the mix
    # Frame costs by kind run lattice < nonrel < massless < rel. Massless
    # packets come twice per cycle so that the median frame falls inside the
    # massless frames and the 90th percentile inside the rel frames, not on
    # a boundary between kinds.
    kinds = ("nonrel", "lattice", "massless", "rel", "massless")
    cycle = frames_per_packet * len(kinds)
    # A lattice row evaluates I_n for all 401 sites in one vector. Where
    # |alpha + i t|/(m a^2) > 8 that goes through the periodic rule, which
    # doubles its points for every site at once: 50 MB more per frame, and
    # gigabytes where it stops converging (defect c, not drawn). Lattice
    # packets keep m >= 1.5 so that |alpha + i t|/m <= 7.2 throughout.
    alpha_range = (0.5, 4.0)
    mass_range = (1.0, 3.0)
    lattice_mass_range = (1.5, 3.0)
    not_drawn = {
        "c": "lattice evolve_closed/evolved_moments rows with |alpha + i t|/(m a^2) > 8: "
        "the periodic I_n rule doubles its points for every site at once (50 MB more "
        "per 401-site row at alpha/m ~ 3, t/m ~ 9.5; never converges and takes GBs "
        "once alpha/m >~ 8); evolve-grid keeps alpha <= 4, and m >= 1.5 on the lattice",
    }

    def __init__(self):
        self._state = None

    def generate(self, seed, count):
        draws = Draws(seed, self.salt)
        items = []
        n_packets = -(-count // self.frames_per_packet)
        for k in range(n_packets):
            kind = self.kinds[k % len(self.kinds)]
            r = draws.next_rank(kind)
            masses = self.lattice_mass_range if kind == "lattice" else self.mass_range
            base = _packet_params(draws, kind, r, self.alpha_range, masses)
            for f in range(self.frames_per_packet):
                idx = r * self.frames_per_packet + f
                p = dict(base, id=len(items), cls=kind, packet=k)
                p["t"] = 0.5 + 9.5 * draws.u(3, idx)
                p["oracle"] = [draws.u(4 + i, idx) for i in range(self.oracle_points)]
                items.append(p)
        return items[:count]

    def warmup_item(self):
        return dict(WARMUP_PACKET, id=-1, cls="warm-up", packet=-1, t=1.0, oracle=[0.5])

    def reset(self):
        self._state = None

    def _packet(self, p):
        # Frames of one packet share its construction and t=0 moments.
        if self._state is None or self._state[0] != (p["packet"], p["kind"]):
            pk = _make_packet(p)
            self._state = ((p["packet"], p["kind"]), pk, wk.moments_quadrature(pk))
        return self._state[1], self._state[2]

    def _row(self, p, m0, t):
        center = wk.ehrenfest_position(m0, t)
        half_n = self.row_points // 2
        if p["kind"] == "lattice":
            n0 = round(center)
            return np.arange(n0 - half_n, n0 + half_n + 1, dtype=float)
        width = math.sqrt(wk.spreading_width_sq(m0, t))
        half = 8.0 * width + 2.0
        return np.linspace(center - half, center + half, self.row_points)

    def run(self, p):
        pk, m0 = self._packet(p)
        t = p["t"]
        xs = self._row(p, m0, t)
        row = wk.evolve_closed(pk, xs, t)

        _, mean, second = wk.analysis.evolved_moments(pk, t, m0)
        pred_var = wk.spreading_width_sq(m0, t)
        pred_mean = wk.ehrenfest_position(m0, t)
        checks = [
            ("spreading", abs(second - mean * mean - pred_var) / pred_var, 1e-5, "Dx^2"),
            ("spreading", abs(mean - pred_mean) / max(1.0, abs(pred_mean)), 1e-6, "<x>"),
        ]
        for u in p["oracle"]:
            j = min(int(u * len(xs)), len(xs) - 1)
            q = wk.evolve_quadrature(pk, float(xs[j]), t).value
            checks.append(("continuation", abs(row[j] - q), 1e-6, "x=%.6g" % xs[j]))
        if p["kind"] == "rel":
            checks.append(self._tail_check(pk.rel, t))
        return checks

    @staticmethod
    def _tail_check(rel, t):
        """greens_closed at real t on a row straddling the light cone,
        against scipy's K1 outside and J1/Y1 inside the cone."""
        from scipy import special

        r = np.linspace(0.02, 3.0, 200)
        xs = t * r[np.abs(r - 1.0) > 1e-3]
        g = wk.greens_closed(rel, xs, t)
        m = rel.mass
        diff = xs * xs - t * t
        ref = np.empty(len(xs), dtype=complex)
        out = diff > 0.0
        w = np.sqrt(diff[out])
        ref[out] = 1j * m * t * special.k1(m * w) / (np.pi * w)
        s = np.sqrt(-diff[~out])
        ref[~out] = -(m * t / (2.0 * s)) * (special.j1(m * s) - 1j * special.y1(m * s))
        err = np.abs(g - ref) / np.abs(ref)
        return ("tail", float(np.max(err)), 1e-8, "x=%.6g" % xs[int(np.argmax(err))])

    def known_defect(self, p, check):
        gate, _, _, detail = check
        if p["kind"] == "rel" and gate == "spreading" and _rel_argument(p) >= 20.0:
            return "a"
        if p["kind"] != "lattice" or gate != "continuation":
            return None
        # Defect (b) only if the closed form agrees with scipy's I_n there,
        # so the quadrature is the side that is wrong.
        from scipy import special

        pk = _make_packet(p)
        xs = self._row(p, wk.moments_quadrature(pk), p["t"])
        x = float(detail.split("=", 1)[1])
        closed = complex(wk.evolve_closed(pk, xs, p["t"])[np.argmin(np.abs(xs - x))])
        t_c = p["t"] - 1j * p["alpha"]
        a, m = 1.0, p["mass"]
        ref = pk.norm_A * special.iv(round((x + pk.beta_i) / a), 1j * t_c / (m * a * a)) / a
        return "b" if abs(closed - ref) <= 1e-10 + 1e-8 * abs(ref) else None


# ---------------------------------------------------------------------------
# cosmo-trace
# ---------------------------------------------------------------------------


def _inverse_power_integral(model, k, t):
    """Closed form of int_0^t R(t')^-k dt' for the two analytic scale models."""
    r0 = model.reference
    if isinstance(model, wk.PowerLawScale):
        ts, e = model.t_scale, 1.0 - k * model.exponent
        lg = math.log1p(t / ts)
        core = lg if e == 0.0 else math.expm1(e * lg) / e
        return ts * core / r0**k
    h = model.hubble
    return -math.expm1(-k * h * t) / (k * h * r0**k)


class CosmoTrace:
    """One comoving trace per item: expensive integrands (a time integral
    per momentum point), no Bessel evaluator and no propagation."""

    name = "cosmo-trace"
    salt = 3
    trace_items = 3  # one item of each kind
    verify_items = 6  # every kind, both scale models
    kinds = ("nonrel", "rel", "massless")
    exponential_every = 4
    cycle = len(kinds) * exponential_every  # kinds and scale models line up again
    t_values = np.linspace(0.0, 5.0, 6)
    # A run completes only about fifteen traces, and a trace's cost is set by the
    # scale model (2-4.5 s per power-law item, in steps) and the packet's
    # alpha, m and |beta_r|. With those seeded, the median item swung by
    # +-20% between seeds. So they follow one fixed low-discrepancy sequence
    # (packet: alpha=4, |beta_r|=1.2, m=2; models: base-2 points over their
    # ranges), and the seed draws what the gates check but the cost does not
    # depend on: the sign of beta_r and a translation beta_i in [-2, 2].
    packet = {"mass": 2.0, "alpha": 4.0, "beta_r": 1.2}

    def generate(self, seed, count):
        rng = np.random.default_rng([seed, self.salt])
        items = []
        n_power = n_exp = 0
        for j in range(count):
            kind = self.kinds[j % len(self.kinds)]
            p = dict(self.packet, kind=kind, mass=0.0 if kind == "massless" else self.packet["mass"])
            p["beta_r"] *= 1.0 if rng.random() < 0.5 else -1.0
            p["beta_i"] = -2.0 + 4.0 * rng.random()
            if j % self.exponential_every == self.exponential_every - 1:
                p.update(model="exp", hubble=0.05 + 0.45 * _spread(n_exp))
                n_exp += 1
            else:
                p.update(model="powerlaw", exponent=0.5 + 1.5 * _spread(n_power))
                n_power += 1
            p.update(id=j, cls="%s-%s" % (kind, p["model"]))
            items.append(p)
        return items

    def warmup_item(self):
        return dict(WARMUP_PACKET, id=-1, cls="warm-up", model="exp", hubble=0.1)

    def reset(self):
        pass

    @staticmethod
    def _model(p):
        if p["model"] == "exp":
            return wk.ExponentialScale(hubble=p["hubble"])
        return wk.PowerLawScale(exponent=p["exponent"])

    def run(self, p):
        pk = _make_packet(p)
        model = self._model(p)
        tr = wk.comoving_trace(pk, model, self.t_values)
        m0 = wk.moments_quadrature(pk)
        checks = [("cosmo", _rel_diff(tr.mean_x[0], m0.mean_x), 1e-8, "mean_x[0]")]
        v0 = p["beta_r"] / p["alpha"]
        if p["kind"] == "rel":
            for i, t in enumerate(self.t_values):
                v = wk.mean_velocity(pk, model, float(t))
                checks.append(("cosmo", abs(tr.mean_v[i] - v), 1e-9, "<v>(t=%g)" % t))
        else:
            k = 1 if p["kind"] == "massless" else 2
            r0 = model.reference
            for i, t in enumerate(self.t_values):
                drift = v0 * _inverse_power_integral(model, k, float(t)) * r0 ** (k - 1)
                got = tr.mean_rho[i] - tr.mean_rho[0]
                checks.append(("cosmo", _rel_diff(got, drift), 1e-8, "drift(t=%g)" % t))
        return checks

    def known_defect(self, p, check):
        return None


WORKLOADS = {w.name: w for w in (MomentsSweep(), EvolveGrid(), CosmoTrace())}
