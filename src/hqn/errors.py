"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible lengths or live in different charts."""


class NotInteriorError(ValueError):
    """Point does not satisfy the (strict) chart domain inequality."""


class NotSymplecticError(ValueError):
    """Matrix does not satisfy the quaternionic Lorentz-unitarity identity."""


class DegenerateLocusError(ValueError):
    """Locus parameters are degenerate (e.g. a zero fan normal)."""


class DomainError(ValueError):
    """Point or parameter outside the admissible orbit-space domain."""


class SingularBoundaryError(ValueError):
    """Reduced ODE evaluated on a singular boundary stratum."""


class NoSingularStratumError(ValueError):
    """The requested case has no singular boundary stratum."""


class OutputError(OSError):
    """An output file or directory cannot be written. The CLI reports it in
    one line with exit 1."""


class NumericalError(RuntimeError):
    """A computation on valid input failed numerically. The CLI reports it
    in one line with exit 1."""


class StepSizeUnderflow(NumericalError):
    """Adaptive integrator could not meet the tolerance."""


class ExtrapolationError(NumericalError):
    """Curve tail is not convergent enough to extrapolate an endpoint."""


class DegenerateOrbitError(NumericalError):
    """Killing fields fail to span the expected orbit tangent space."""


class SingularPointError(NumericalError):
    """Level-set gradient (numerically) vanishes at the evaluation point."""
