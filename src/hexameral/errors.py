"""Exception types shared across the toolkit."""


class GeometryError(RuntimeError):
    """Base class for all invariant and feasibility failures.

    ``link_index`` is the chain link at which assembly failed, or None.
    """

    link_index: int | None = None

    def at_link(self, i: int) -> "GeometryError":
        """Tag the error with link ``i``: set ``link_index``, prefix ``link i: ``."""
        self.link_index = i
        self.args = (f"link {i}: {self}",)
        return self


class FrameDeterminantError(GeometryError):
    """Raised when a frame's determinant is too far from one to repair."""


class WedgeMismatch(GeometryError):
    """Raised when a vector pair does not span the required wedge sqrt(3)/2."""


class MissingAcceleration(GeometryError):
    """Raised when a curve sample lacks the acceleration needed for convexity."""


class RankUndefined(GeometryError):
    """Raised when a sampled curve is neither uniformly linear nor uniformly curved."""


class RankZero(GeometryError):
    """Raised when no even-index curve of a multi-curve is strictly curved."""


class ScaleTooSmall(GeometryError):
    """Raised when the square-representation scale gives k = sqrt(3)/(2a^2) >= 1."""


class ParameterOutOfRange(GeometryError):
    """Raised when a link parameter leaves its admissible open interval."""


class NotRankOneCompatible(GeometryError):
    """Raised when a state cannot start a hyperbolic link with the requested index."""


class DegenerateVelocity(GeometryError):
    """Raised when a tangent produces linearly dependent edge velocities."""


class NotClosed(GeometryError):
    """Raised when a chain fails the rotation-by-pi/3 closure condition."""


class LinkLengthViolation(GeometryError):
    """Raised when a closed chain's normalized link count breaks n = 0 mod 3."""


class StarViolation(GeometryError):
    """Raised when a tangent violates the convexity (star) inequalities."""


class SignCondition(GeometryError):
    """Raised when a sampled path violates a required sign constraint."""


class InfeasibleInput(GeometryError):
    """Raised when an optimization harness receives an unusable input chain."""


class ChainFormatError(GeometryError):
    """Raised when a chain file does not match the JSON dialect."""
