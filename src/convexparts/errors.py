"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad dimensions, overlapping sets, ...)."""


class CapExceeded(RuntimeError):
    """An enumeration hit its resource cap; carries the cap name and value."""

    def __init__(self, cap_name: str, cap_value: int, needed=None):
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.needed = needed
        extra = f", needed {needed}" if needed is not None else ""
        super().__init__(f"cap {cap_name}={cap_value} exceeded{extra}")


class PreconditionFailed(InputError):
    """A documented precondition does not hold; may carry a witness point."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class InternalInvariantError(RuntimeError):
    """A construction invariant that should be unreachable fired; always a bug."""
