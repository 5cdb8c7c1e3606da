"""Exact construction and verification of unified Apostol-type polynomial families.

The package builds a two-variable polynomial family from its generating
function over exact rational arithmetic, specializes it to the classical
Apostol-Bernoulli, Apostol-Euler and Apostol-Genocchi families, and
mechanically verifies the family's summation and symmetry identities as
exact polynomial equalities.

Each module lists its public names once, in its own __all__; this package
re-exports exactly those.
"""

from . import family, identities, polyring, series
from .polyring import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .family import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403

__all__ = [*polyring.__all__, *series.__all__, *family.__all__, *identities.__all__]
