"""Exact construction and verification of unified Apostol-type polynomial families.

The package builds a two-variable polynomial family from its generating
function over exact rational arithmetic, specializes it to the classical
Apostol-Bernoulli, Apostol-Euler and Apostol-Genocchi families, and
mechanically verifies the family's summation and symmetry identities as
exact polynomial equalities.
"""

from .polyring import MultiPoly, VarId, format_poly
from .series import (
    NotAUnitError,
    OrderExceededError,
    PowerSeries,
    SeriesError,
    ValuationMismatchError,
)
from .family import (
    ClassicalFamily,
    FamilySpec,
    GouldHopper,
    InvalidFamilySpecError,
    Laguerre,
    LogBase,
    Phi,
    PolyTable,
    PRESETS,
    TruncatedExp,
    Unit,
    ValuationExceedsNumeratorError,
    denominator_series,
    extract_table,
    general_members,
    general_series,
    phi_label,
    phi_series,
    special_case_oracle,
    unified_members,
    unified_series,
)
from .identities import (
    Counterexample,
    IdentityId,
    Verdict,
    verify_all,
    verify_double_index,
    verify_series_def,
    verify_shift,
    verify_shift_general,
    verify_shift_mixed,
    verify_shift_one,
    verify_symmetry,
)

__all__ = [
    "ClassicalFamily",
    "Counterexample",
    "FamilySpec",
    "GouldHopper",
    "IdentityId",
    "InvalidFamilySpecError",
    "Laguerre",
    "LogBase",
    "MultiPoly",
    "NotAUnitError",
    "OrderExceededError",
    "Phi",
    "PolyTable",
    "PowerSeries",
    "PRESETS",
    "SeriesError",
    "TruncatedExp",
    "Unit",
    "ValuationExceedsNumeratorError",
    "ValuationMismatchError",
    "VarId",
    "Verdict",
    "denominator_series",
    "extract_table",
    "format_poly",
    "general_members",
    "general_series",
    "phi_label",
    "phi_series",
    "special_case_oracle",
    "unified_members",
    "unified_series",
    "verify_all",
    "verify_double_index",
    "verify_series_def",
    "verify_shift",
    "verify_shift_general",
    "verify_shift_mixed",
    "verify_shift_one",
    "verify_symmetry",
]
