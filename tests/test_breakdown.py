import math

from chipcarbon.breakdown import COMPONENTS, CfpBreakdown
from chipcarbon.quantities import CarbonMass


def _sample():
    return CfpBreakdown(
        design=CarbonMass.kg(10.0), manufacturing=CarbonMass.kg(20.0),
        packaging=CarbonMass.kg(3.0), eol=CarbonMass(-1.0),
        app_dev=CarbonMass.kg(2.0), operational=CarbonMass.kg(66.0),
    )


def test_total_is_component_sum():
    b = _sample()
    assert math.isclose(b.total.value, 100.0, rel_tol=1e-12)


def test_embodied_and_deployment_partition_total():
    b = _sample()
    assert math.isclose(b.embodied.value + b.deployment.value, b.total.value,
                        rel_tol=1e-12)
    assert math.isclose(b.embodied.value, 32.0, rel_tol=1e-12)


def test_addition_componentwise():
    b = _sample()
    doubled = b + b
    for c in COMPONENTS:
        assert getattr(doubled, c).value == 2 * getattr(b, c).value


def test_as_dict_carries_total():
    d = _sample().as_dict()
    assert set(d) == set(COMPONENTS) | {"total"}
    assert math.isclose(d["total"], 100.0)
