"""The package's public surface: one export list per module, re-exported once."""

from __future__ import annotations

import apostol
from apostol import family, identities, polyring, series

PUBLIC_NAMES = [
    "Counterexample", "FamilySpec", "GouldHopper", "IdentityId", "InvalidFamilySpecError",
    "Laguerre", "LogBase", "MultiPoly", "NotAUnitError", "OrderExceededError", "PRESETS",
    "Phi", "PolyTable", "PowerSeries", "SeriesError", "TruncatedExp", "Unit",
    "ValuationExceedsNumeratorError", "ValuationMismatchError", "VarId", "Verdict",
    "denominator_series", "extract_table", "format_poly", "general_members",
    "general_series", "phi_label", "phi_series", "unified_members", "unified_series",
    "verify_all", "verify_double_index", "verify_series_def", "verify_shift",
    "verify_shift_general", "verify_shift_mixed", "verify_shift_one", "verify_symmetry",
]

MODULES = (polyring, series, family, identities)


def test_package_exports_the_public_names():
    assert sorted(apostol.__all__) == PUBLIC_NAMES
    assert len(set(apostol.__all__)) == len(apostol.__all__)


def test_each_public_name_is_declared_by_exactly_one_module():
    for name in PUBLIC_NAMES:
        owners = [m for m in MODULES if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(apostol, name) is getattr(owners[0], name)
