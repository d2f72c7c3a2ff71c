import pytest

from chipcarbon.chips import ApplicationProfile, ChipKind, ChipSpec
from chipcarbon.params import PackageParams
from chipcarbon.quantities import CarbonMass, Duration, Power


def _spec(**overrides):
    base = dict(
        name="chip", kind=ChipKind.ASIC, area_mm2=100.0, peak_power=Power(10.0),
        gates=1_000_000, node_nm=10, package=PackageParams(CarbonMass.kg(0.15)),
        chip_lifetime=Duration.from_years(8.0),
    )
    base.update(overrides)
    return ChipSpec(**base)


class TestChipSpecInvariants:
    def test_valid_spec(self):
        assert _spec().area_mm2 == 100.0

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="area"):
            _spec(area_mm2=0.0)

    def test_zero_gates_rejected(self):
        with pytest.raises(ValueError, match="gates"):
            _spec(gates=0)

    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            _spec(chip_lifetime=Duration(0.0))


class TestApplicationProfileInvariants:
    def _app(self, **overrides):
        base = dict(name="app", size_gates=1_000, lifetime=Duration.from_years(1.0),
                    volume=10)
        base.update(overrides)
        return ApplicationProfile(**base)

    def test_zero_volume_allowed(self):
        assert self._app(volume=0).volume == 0

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match="volume"):
            self._app(volume=-1)

    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            self._app(lifetime=Duration(0.0))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="size_gates"):
            self._app(size_gates=0)

    def test_duty_cycle_range(self):
        assert self._app(duty_cycle=None).duty_cycle is None
        with pytest.raises(ValueError, match="duty_cycle"):
            self._app(duty_cycle=1.2)
