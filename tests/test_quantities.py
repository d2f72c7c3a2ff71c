import math

import pytest
from hypothesis import given, strategies as st

from chipcarbon.quantities import (
    CarbonIntensity,
    CarbonMass,
    Duration,
    Energy,
    Power,
    energy_to_carbon,
)

finite_nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                          allow_infinity=False)


def test_energy_to_carbon_fixtures():
    assert energy_to_carbon(Energy(0.0), CarbonIntensity(0.4)).value == 0.0
    assert math.isclose(energy_to_carbon(Energy(306.6), CarbonIntensity(0.4)).value,
                        122.64, rel_tol=1e-9)
    assert math.isclose(energy_to_carbon(Energy(7.3e6), CarbonIntensity(0.4)).value,
                        2.92e6, rel_tol=1e-9)


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


@given(finite_nonneg, st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1e3))
def test_energy_to_carbon_bilinear(kwh, ci, k):
    base = energy_to_carbon(Energy(kwh), CarbonIntensity(ci)).value
    scaled_e = energy_to_carbon(Energy(kwh * k), CarbonIntensity(ci)).value
    scaled_ci = energy_to_carbon(Energy(kwh), CarbonIntensity(ci * k)).value
    assert math.isclose(scaled_e, base * k, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(scaled_ci, base * k, rel_tol=1e-9, abs_tol=1e-9)


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


def test_power_energy_over_duty():
    e = Power(70.0).energy_over(Duration.from_years(1.0), duty_cycle=0.5)
    assert math.isclose(e.value, 306.6, rel_tol=1e-12)
    with pytest.raises(ValueError):
        Power(1.0).energy_over(Duration(1.0), duty_cycle=1.5)


def test_month_constructor_uses_dev_month():
    assert math.isclose(Duration.from_months(3.0).value, 2190.0, rel_tol=1e-12)
    assert math.isclose(Duration.from_months(1.0, hours_per_month=160.0).value, 160.0)


def test_intensity_unit_conversion():
    assert CarbonIntensity.from_g_per_kwh(400).value == 0.4
    assert CarbonIntensity.from_g_per_kwh(400).to_g_per_kwh() == 400.0
