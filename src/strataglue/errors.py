"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class RangeError(InputError):
    """A numeric argument lies outside its admissible range."""


class UnsupportedDimensionError(InputError):
    """A dimension the package does not handle: moduli of dimension
    >= 2 (to import or to compute), a custom flow system outside
    dimensions 1 to 3, or a Morse sweep from a source whose unstable
    space has more than 2 dimensions."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: a collar width underflow, or a
    Morse sweep grid interval whose jump no separatrix angle explains."""


class EpsilonUnderflowError(NumericalError):
    """Collar width shrank below the hard floor during construction."""

    def __init__(self, message, epsilon=None):
        super().__init__(message)
        self.epsilon = epsilon
