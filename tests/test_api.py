"""The package's exported names."""

import dcprox

#: names deleted from the library; none may be exported again by accident
DELETED = ("ExtrapolationState", "extrapolation_coeffs", "check_decrease",
           "adjoint_mismatch", "project", "spectral_norm")


def test_every_exported_name_resolves():
    missing = [name for name in dcprox.__all__ if not hasattr(dcprox, name)]
    assert missing == []
    assert len(set(dcprox.__all__)) == len(dcprox.__all__)


def test_deleted_names_are_not_exported():
    assert [name for name in DELETED if name in dcprox.__all__] == []
    assert [name for name in DELETED if hasattr(dcprox, name)] == []
