"""Exception types shared across the package."""


class CurverigError(Exception):
    """Base class for all library-specific errors."""


class DomainError(CurverigError):
    """A parameter value lies outside a curve's open domain interval."""


class PoleError(CurverigError):
    """A rational-function denominator vanishes at the evaluation point."""


class JetOrderError(CurverigError):
    """A curve cannot supply derivative jets of the requested order."""


class SingularParametrization(CurverigError):
    """The parametrization speed dropped below tolerance on the sample grid."""


class DimensionMismatch(CurverigError):
    """Vector arguments do not match the declared ambient dimension."""


class SchemeMismatch(CurverigError):
    """A point-generation scheme was applied to an incompatible curve."""


class ExactnessUnavailable(CurverigError):
    """Exact mode was requested but some input is not exact rational data."""


class InsufficientSamples(CurverigError):
    """Too few samples to perform the requested fit."""


class DegenerateParametrization(CurverigError):
    """No Elekes curve to implicitize: the data are not exact, D does not
    depend on gamma(t), or both coordinates are constant."""


class SingularH(CurverigError):
    """A denominator factor of the rigidity function vanished away from the
    removable points; the simple-pair precondition is violated."""


class DomainExit(CurverigError):
    """A traced vertex left the curve's domain."""


class DisconnectedFramework(CurverigError):
    """Motion propagation requires a connected framework."""
