"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class RangeError(InputError):
    """A numeric argument lies outside its admissible range."""


class UnsupportedDimensionError(InputError):
    """Moduli data of dimension >= 2 cannot be imported."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: a collar width underflow, or a
    Morse sweep grid interval whose jump no separatrix angle explains."""


class EpsilonUnderflowError(NumericalError):
    """Collar width shrank below the hard floor during construction."""

    def __init__(self, message, epsilon=None):
        super().__init__(message)
        self.epsilon = epsilon
