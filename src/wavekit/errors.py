"""Exception types raised across the library."""


class WavekitError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(WavekitError, ValueError):
    """An argument violates a precondition (sign, range, domain)."""


class NonConvergence(WavekitError, RuntimeError):
    """An iterative routine exhausted its budget above tolerance.

    Carries the best available estimate so callers can inspect how far the
    computation got.
    """

    def __init__(self, message, value=None, abs_error=None):
        super().__init__(message)
        self.value = value
        self.abs_error = abs_error


class OverflowSignal(WavekitError, OverflowError):
    """A result magnitude exceeds the representable floating-point range."""


class DomainError(WavekitError, ValueError):
    """A momentum lies outside the dispersion relation's domain."""


class CurvatureSingular(WavekitError, ValueError):
    """The dispersion curvature is distributional at the requested point."""


class InvalidParams(WavekitError, ValueError):
    """Packet parameters violate normalizability or periodicity constraints."""


class LatticePeriodicityError(InvalidParams):
    """Lattice packets require beta_r = 0 and beta_i an integer multiple of a."""


class Unsatisfiable(WavekitError, ValueError):
    """The requested moment targets cannot be met by any minimal packet."""


class KindMismatch(WavekitError, TypeError):
    """The operation is not defined for this dispersion kind."""


class InvalidBoost(WavekitError, ValueError):
    """Boost velocity outside the allowed range (|u| >= 1 for Lorentz)."""


class LightConeSingular(WavekitError, ArithmeticError):
    """Closed-form Green's function evaluated too close to the light cone."""


class NonIntegerSite(WavekitError, ValueError):
    """Lattice Green's function requested off the lattice sites."""


class ConfigError(WavekitError, ValueError):
    """Invalid command-line or config-file input."""
