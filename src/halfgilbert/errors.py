"""Exception types raised by the numerical layers."""


class NumericsError(ValueError):
    """Base class: a computation left its validated numerical domain."""


class PoleError(NumericsError):
    """Argument too close to a pole of gamma (or a 1F1 parameter pole)."""


class SeriesConvergenceError(NumericsError):
    """A power series failed to converge within its term budget."""


class QuadratureConvergenceError(NumericsError):
    """Adaptive quadrature exhausted its subdivisions before converging."""


class DomainError(NumericsError):
    """Input outside the supported domain (order, sign, overflow guard)."""


class DenominatorError(NumericsError):
    """A denominator came too close to zero to divide safely."""
