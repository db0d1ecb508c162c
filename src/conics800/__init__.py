"""Exact reconstruction of a quartic K3 surface carrying 800 conics.

The pipeline: build the extended binary Golay code, enumerate the
196560 minimal vectors of the Leech lattice over it, cut out the 800
conic classes by intersection conditions against five fixed ambient
vectors, and assemble the rank-20 Neron-Severi lattice with its
discriminant-form and bad-vector certificates. All lattice arithmetic
is exact (integers and Fractions); numpy is used only for bulk integer
enumeration and filtering.
"""

from .errors import (
    Conics800Error,
    ConstructionError,
    NotPositiveDefiniteError,
    UnsupportedSizeError,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "Conics800Error",
    "ConstructionError",
    "VerificationError",
    "UnsupportedSizeError",
    "NotPositiveDefiniteError",
    "__version__",
]
