import math

import pytest
from hypothesis import given, strategies as st

from chipcarbon.quantities import CarbonIntensity, CarbonMass, Duration, Energy, Power


def test_duration_from_years_fixtures():
    assert Duration.from_years(0.0).value == 0.0
    assert Duration.from_years(1.0).value == 8760.0
    assert math.isclose(Duration.from_years(2.5).value, 21900.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        Duration.from_years(-1.0)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
def test_years_round_trip(years):
    assert math.isclose(Duration.from_years(years).to_years(), years,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_non_finite_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CarbonMass(bad)
        with pytest.raises(ValueError):
            Energy(bad)


def test_negative_rejected_outside_eol_path():
    with pytest.raises(ValueError):
        CarbonMass.kg(-1.0)
    with pytest.raises(ValueError):
        Energy(-0.1)
    with pytest.raises(ValueError):
        Power(-5.0)
    with pytest.raises(ValueError):
        Duration(-1.0)
    with pytest.raises(ValueError):
        CarbonIntensity(-0.2)
    # the EOL credit path constructs signed masses directly
    assert CarbonMass(-2.5).value == -2.5

