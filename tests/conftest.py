import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "battery",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("battery")


@pytest.fixture
def catalogue_residual():
    """residual(check, prec, label="") -> the left side minus the right side of the
    catalogue row with that label, or its terms' sum when they sum to zero, as
    ``qrank verify`` compares them below q^prec."""
    from qrank.rankgen import IDENTITY_CATALOGUE
    from qrank.verify import _row_sides

    def residual(check, prec, label=""):
        row = next(r for r in IDENTITY_CATALOGUE[check][1] if r[0] == label)
        _, lhs, rhs = _row_sides(row, prec)
        return lhs if rhs is None else lhs - rhs
    return residual
