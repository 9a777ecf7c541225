"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad dimensions, overlapping sets, ...)."""


class CapExceeded(RuntimeError):
    """An enumeration hit its resource cap; carries the cap name and value.

    `needed` stays exact; the message writes a need of more than about 100
    digits by its power of two, since Python refuses to print ints of more
    than 4,300 digits."""

    def __init__(self, cap_name: str, cap_value: int, needed=None):
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.needed = needed
        if needed is None:
            extra = ""
        elif needed.bit_length() > 333:
            extra = f", needed about 2^{needed.bit_length() - 1}"
        else:
            extra = f", needed {needed}"
        super().__init__(f"cap {cap_name}={cap_value} exceeded{extra}")


class PreconditionFailed(InputError):
    """A documented precondition does not hold; may carry a witness point."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class InternalInvariantError(RuntimeError):
    """A construction invariant that should be unreachable fired; always a bug."""
