"""Exception types shared across the package."""


class Conics800Error(Exception):
    """Base class for package errors."""


class ConstructionError(Conics800Error):
    """An object failed its build-time self test."""


class VerificationError(Conics800Error):
    """A claimed invariant did not hold when checked."""


class UnsupportedSizeError(Conics800Error):
    """Input exceeds a documented size limit of an exact algorithm."""


class NotPositiveDefiniteError(Conics800Error):
    """A Gram matrix required to be positive definite is not."""
