"""Exact symbolic computation in hyperalgebras of Chevalley groups over F_p.

The package provides PBW normal-form arithmetic on divided-power monomials,
the Frobenius endomorphism and its splitting, primitive torus idempotents,
and a matrix-rank harness certifying that various multiplication maps are
linear isomorphisms at small rank, prime, and level.
"""

from .rootdata import RootSystem, build_root_system
from .chevalley import StructureConstants
from .straighten import Engine, HPart, PBWElement, InsufficientLevelError, lucas_binom
from .qoracle import QOracle, NotInZFormError
from . import frobenius, idempotents, isocheck

__all__ = [
    "RootSystem",
    "build_root_system",
    "StructureConstants",
    "Engine",
    "HPart",
    "PBWElement",
    "InsufficientLevelError",
    "lucas_binom",
    "QOracle",
    "NotInZFormError",
    "frobenius",
    "idempotents",
    "isocheck",
]
