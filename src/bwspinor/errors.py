"""Exception types raised by bwspinor operations, and the guard that raises them."""

import numpy as np


class BWSpinorError(Exception):
    """Base class for all bwspinor errors."""


class NegativeMass(BWSpinorError):
    pass


class NonUnitDeterminant(BWSpinorError):
    pass


class NotNull(BWSpinorError):
    pass


class NotFuturePointing(BWSpinorError):
    pass


class NotTimelike(BWSpinorError):
    pass


class ZeroSpinor(BWSpinorError):
    pass


class DegenerateReference(BWSpinorError):
    pass


class ComplexEigenvalues(BWSpinorError):
    pass


class DegenerateSpinDirection(BWSpinorError):
    pass


class MasslessNotSupported(BWSpinorError):
    pass


class NotMassive(BWSpinorError):
    pass


class NotFinite(BWSpinorError):
    """A result of finite input that leaves the double range."""


class ValenceMismatch(BWSpinorError):
    pass


class FrameMismatch(BWSpinorError):
    pass


class OrthogonalDirection(BWSpinorError):
    pass


class NotAntisymmetric(BWSpinorError):
    pass


class InconsistentPair(BWSpinorError):
    pass


class InvalidResolution(BWSpinorError):
    pass


class SchemaError(BWSpinorError):
    """Raised on malformed field/amplitude files; carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


def reject(bad, error: type, message: str) -> None:
    """Raise error(message), naming the first sample where bad holds; write
    bad as ~(condition that must hold), so that a NaN fails it."""
    if np.any(bad):
        index = np.argwhere(bad)[0].tolist()
        raise error(f"{message} at sample index {index}" if index else message)
