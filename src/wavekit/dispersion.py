"""Energy-momentum dispersion relations E(p) with derivatives and domains.

Four kinds are supported: the non-relativistic continuum E = p^2/2m, the
nearest-neighbor lattice E = -cos(p a)/(m a^2) on the Brillouin zone
]-pi/a, pi/a], the relativistic E = sqrt(p^2 + m^2), and its massless limit
E = |p|. Units use hbar = c = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvatureSingular, DomainError, InvalidInput

__all__ = ["Kind", "DispersionRelation", "MomentumDomain"]


def _rel_energy(p, m):
    """sqrt(p^2 + m^2). ``np.hypot`` rounds differently, so it runs only in
    calls where p*p + m*m would overflow."""
    if np.max(np.abs(p), initial=m) > 1e150:
        return np.hypot(p, m)
    return np.sqrt(p * p + m * m)


class Kind(enum.Enum):
    NON_RELATIVISTIC = "nonrel"
    LATTICE = "lattice"
    RELATIVISTIC = "rel"
    MASSLESS = "massless"


@dataclass(frozen=True)
class MomentumDomain:
    """Either the full real line or one Brillouin zone ]-cut, cut]."""

    periodic: bool
    cut: float | None = None  # pi/a for lattice kinds

    @property
    def period(self):
        return 2.0 * self.cut if self.periodic else None


@dataclass(frozen=True)
class DispersionRelation:
    kind: Kind
    mass: float
    lattice_spacing: float | None = None

    def __post_init__(self):
        if self.kind is Kind.MASSLESS:
            if self.mass != 0.0:
                raise InvalidInput("massless dispersion fixes m = 0")
        elif not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidInput("%s dispersion requires m > 0" % self.kind.value)
        if self.kind is Kind.LATTICE:
            a = self.lattice_spacing
            if a is None or not (a > 0.0 and math.isfinite(a)):
                raise InvalidInput("lattice dispersion requires spacing a > 0")
        elif self.lattice_spacing is not None:
            raise InvalidInput("lattice_spacing only applies to the lattice kind")

    # -- constructors -------------------------------------------------------

    @classmethod
    def non_relativistic(cls, mass):
        return cls(Kind.NON_RELATIVISTIC, float(mass))

    @classmethod
    def lattice(cls, mass, spacing):
        return cls(Kind.LATTICE, float(mass), float(spacing))

    @classmethod
    def relativistic(cls, mass):
        return cls(Kind.RELATIVISTIC, float(mass))

    @classmethod
    def massless(cls):
        return cls(Kind.MASSLESS, 0.0)

    # -- domain -------------------------------------------------------------

    def momentum_domain(self):
        if self.kind is Kind.LATTICE:
            return MomentumDomain(periodic=True, cut=math.pi / self.lattice_spacing)
        return MomentumDomain(periodic=False)

    def _check_domain(self, p):
        if self.kind is Kind.LATTICE:
            cut = math.pi / self.lattice_spacing
            # The zone is half-open, but its closure is accepted so that
            # quadrature nodes may touch the boundary.
            if np.any(np.abs(p) > cut * (1.0 + 1e-12)):
                raise DomainError("momentum outside the Brillouin zone ]-pi/a, pi/a]")

    # -- evaluation ---------------------------------------------------------

    def energy(self, p):
        p = np.asarray(p, dtype=float)
        self._check_domain(p)
        m = self.mass
        if self.kind is Kind.NON_RELATIVISTIC:
            return p * p / (2.0 * m)
        if self.kind is Kind.LATTICE:
            a = self.lattice_spacing
            return -np.cos(p * a) / (m * a * a)
        if self.kind is Kind.RELATIVISTIC:
            return _rel_energy(p, m)
        return np.abs(p)

    def velocity(self, p):
        """Group velocity v = dE/dp."""
        p = np.asarray(p, dtype=float)
        self._check_domain(p)
        m = self.mass
        if self.kind is Kind.NON_RELATIVISTIC:
            return p / m
        if self.kind is Kind.LATTICE:
            a = self.lattice_spacing
            return np.sin(p * a) / (m * a)
        if self.kind is Kind.RELATIVISTIC:
            return p / _rel_energy(p, m)
        return np.sign(p)

    def curvature(self, p):
        """Second derivative d^2E/dp^2.

        For the massless kind the curvature is 2 delta(p), which has no
        pointwise value at p = 0; that point is rejected.
        """
        p = np.asarray(p, dtype=float)
        self._check_domain(p)
        m = self.mass
        if self.kind is Kind.NON_RELATIVISTIC:
            return np.full_like(p, 1.0 / m)
        if self.kind is Kind.LATTICE:
            return np.cos(p * self.lattice_spacing) / m
        if self.kind is Kind.RELATIVISTIC:
            e = _rel_energy(p, m)
            return m * m / (e * e * e)
        if np.any(p == 0.0):
            raise CurvatureSingular(
                "massless curvature at p = 0 is distributional (2 delta(p))"
            )
        return np.zeros_like(p)

    def evaluate(self, p):
        """Return the triple (E(p), v(p), d^2E/dp^2) at a single momentum."""
        return (
            float(self.energy(p)),
            float(self.velocity(p)),
            float(self.curvature(p)),
        )

    def max_speed(self):
        """Supremum of |v| over the momentum domain (inf for nonrel)."""
        if self.kind is Kind.NON_RELATIVISTIC:
            return math.inf
        if self.kind is Kind.LATTICE:
            return 1.0 / (self.mass * self.lattice_spacing)
        return 1.0
