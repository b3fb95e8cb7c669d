"""Minimal position-velocity uncertainty wave packets for 1-D dispersion
relations: construction, moments, Green's-function time evolution, boosts,
and propagation in an expanding universe."""

from . import errors
from .boost import (
    BoostParams,
    BoostedWave,
    boost_minimal_packet,
    boosted_expectations,
    boosted_wave_moments,
    galilean_boost,
    lorentz_boost_params,
    lorentz_boost_wavefunction,
)
from .cosmology import (
    ComovingTrace,
    ExponentialScale,
    PowerLawScale,
    TabulatedScale,
    classical_velocity,
    comoving_trace,
    mean_velocity,
)
from .dispersion import DispersionRelation, Kind
from .moments import (
    MomentSet,
    Provenance,
    ehrenfest_position,
    moments_closed_form,
    moments_quadrature,
    spreading_width_sq,
    uncertainty_bound,
)
from .numerics import (
    DEFAULT_SPEC,
    ComplexAmplitude,
    QuadratureSpec,
    bessel_i_integer,
    bessel_j0_y0,
    bessel_j1_y1,
    bessel_k01,
)
from .packet import MomentTargets, PacketParams, make_minimal, solve_parameters
from .propagation import (
    DensityGrid,
    density_grid,
    evolve_closed,
    evolve_quadrature,
    greens_closed,
)

__version__ = "0.1.0"
