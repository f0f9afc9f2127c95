"""Exception types shared across the package."""


class ExcolError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(ExcolError):
    """Bundle specification or fan (validate_fan) violates its invariants."""


class UnknownRay(ExcolError):
    """A ray name does not exist in the fan."""


class NotACone(ExcolError):
    """The named rays do not span a cone of the fan."""


class BoxTooLarge(ExcolError):
    """A T-divisor's polytope box holds more points than the oracle's budget,
    its values could leave int64, the fan's vertex maps do, the fan has too
    many sets of rays to plan (kernels.MAX_PLAN_SETS), or too many primitive
    collections for its rank table (kernels.MAX_PRIMITIVE_COLLECTIONS)."""


class KOutOfRange(ExcolError):
    """Twist exponent outside the range a structured formula supports."""


class UnsupportedExtPair(ExcolError):
    """No structured formula covers this pair of sheaf objects."""


class MutationError(ExcolError):
    """Base class for mutation-rule failures; carries the log so far."""

    def __init__(self, message, log=()):
        self.log = tuple(log)
        super().__init__(message)


class NotOrthogonal(MutationError):
    """Transposition attempted on a pair with nonvanishing graded Hom."""

    def __init__(self, message, hom, log=()):
        self.hom = tuple(hom)
        super().__init__(f"{message}: graded Hom = {self.hom}", log)


class HypothesisFailed(MutationError):
    """A mutation rule's shape or Ext hypothesis does not hold."""


class NonLineBundlePresent(ExcolError):
    """The oracle and the verifier take only line bundle classes (PicClass)."""
