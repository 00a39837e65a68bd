"""Exception types shared across the package."""


class ZdtError(Exception):
    """Base class for all package errors."""


class DuplicateLabelError(ZdtError):
    pass


class UnknownLabelError(ZdtError):
    pass


class AntisymmetryError(ZdtError):
    """The asserted order pairs close into a cycle."""


class NotASubsetError(ZdtError):
    pass


class EmptyInputError(ZdtError):
    pass


class NotMonotoneError(ZdtError):
    """A function table violates order preservation."""


class SizeCapError(ZdtError):
    """A computation would exceed its configured size cap."""

    def __init__(self, what, size, cap):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class ParseError(ZdtError):
    """Malformed poset text input."""


class UnknownClaimError(ZdtError):
    pass


class SupMissingError(ZdtError):
    """A required supremum does not exist in the target poset."""


class LabelDependenceError(ZdtError):
    """A labeled order's verdict differs from its isomorphism class's: the
    checker reads labels where it should read the order relation."""
