import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from chipcarbon.chips import ApplicationProfile, ChipKind
from chipcarbon.deployment import (
    app_dev_cfp,
    app_dev_time,
    operational_cfp_per_year,
)
from chipcarbon.lifecycle import asic_total_cfp, fpga_total_cfp
from chipcarbon.params import AppDevParams, OperationParams
from chipcarbon.quantities import CarbonIntensity, Duration, Power


OP = OperationParams(duty_cycle=0.5, use_grid_intensity=CarbonIntensity(0.4))

APPDEV = AppDevParams(
    frontend_time=Duration(2.0 * 730.0),
    backend_time=Duration(1.0 * 730.0),
    config_time_fpga=Duration(0.1),
    config_time_asic=Duration(0.0),
    dev_power=Power(500.0),
    dev_grid_intensity=CarbonIntensity(0.4),
)


class TestOperationalRate:
    def test_zero_duty(self):
        assert operational_cfp_per_year(Power(70.0), OP, duty_cycle=0.0).value == 0.0

    def test_hand_fixture_70w(self):
        # 70 W x 0.5 x 8760 h = 306.6 kWh/yr; x 0.4 kg/kWh = 122.64 kg/yr
        rate = operational_cfp_per_year(Power(70.0), OP)
        assert math.isclose(rate.value, 122.64, rel_tol=1e-9)

    def test_hand_fixture_220w(self):
        rate = operational_cfp_per_year(Power(220.0), OP)
        assert math.isclose(rate.value, 385.44, rel_tol=1e-9)
        assert rate.value > operational_cfp_per_year(Power(70.0), OP).value

    def test_duty_outside_unit_interval_refused(self):
        with pytest.raises(ValueError, match=r"^duty_cycle must be in \[0, 1\], got 1\.5$"):
            operational_cfp_per_year(Power(1.0), OP, duty_cycle=1.5)

    @given(st.floats(0.0, 500.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 10.0))
    def test_linear_in_power_duty_and_grid_intensity(self, watts, duty, grid, k):
        op = OperationParams(0.5, CarbonIntensity(grid))
        base = operational_cfp_per_year(Power(watts), op, duty).value
        scaled = [operational_cfp_per_year(Power(watts * k), op, duty).value,
                  operational_cfp_per_year(
                      Power(watts), OperationParams(0.5, CarbonIntensity(grid * k)), duty).value]
        if duty * k <= 1.0:
            scaled.append(operational_cfp_per_year(Power(watts), op, duty * k).value)
        for value in scaled:
            assert math.isclose(value, base * k, rel_tol=1e-9, abs_tol=1e-9)


class TestAppDevTime:
    def test_hand_fixture_7570h(self):
        # 3 apps x 3 months (2190 h) + 1e4 units x 0.1 h = 7570 h
        t = app_dev_time(ChipKind.FPGA, 3, 10_000, APPDEV)
        assert math.isclose(t.value, 7570.0, rel_tol=1e-9)

    def test_asic_zero(self):
        assert app_dev_time(ChipKind.ASIC, 5, 10_000, APPDEV).value == 0.0

    def test_fpga_nothing_to_do(self):
        assert app_dev_time(ChipKind.FPGA, 0, 0, APPDEV).value == 0.0

    @given(st.integers(0, 100), st.integers(0, 100_000))
    def test_per_app_increment_is_fe_plus_be(self, n_app, n_vol):
        a = app_dev_time(ChipKind.FPGA, n_app, n_vol, APPDEV).value
        b = app_dev_time(ChipKind.FPGA, n_app + 1, n_vol, APPDEV).value
        assert math.isclose(b - a, 2190.0, rel_tol=1e-9)


class TestAppDevCfp:
    def test_hand_fixture_1514kg(self):
        # 7570 h x 0.5 kW x 0.4 kg/kWh = 1514 kg
        c = app_dev_cfp(ChipKind.FPGA, 3, 10_000, APPDEV)
        assert math.isclose(c.value, 1514.0, rel_tol=1e-9)

    def test_zero_dev_power(self):
        quiet = dataclasses.replace(APPDEV, dev_power=Power(0.0))
        assert app_dev_cfp(ChipKind.FPGA, 3, 1000, quiet).value == 0.0

    def test_linear_in_n_app(self):
        base = app_dev_cfp(ChipKind.FPGA, 0, 5000, APPDEV).value
        one = app_dev_cfp(ChipKind.FPGA, 1, 5000, APPDEV).value
        ten = app_dev_cfp(ChipKind.FPGA, 10, 5000, APPDEV).value
        assert math.isclose(ten - base, 10 * (one - base), rel_tol=1e-9)


class TestDeploymentCfp:
    """Development and operating carbon as the lifecycle totals book one application."""

    def _app(self, volume=1000, duty=0.5):
        return ApplicationProfile("w", int(1e8), Duration.from_years(2.0), volume,
                                  duty_cycle=duty)

    def _deployment(self, chip, app, params):
        """(operating kg per year, development kg) of `app` on `chip`."""
        total = fpga_total_cfp if chip.kind is ChipKind.FPGA else asic_total_cfp
        b = total([app], chip, params)
        return b.operational.value / app.lifetime.to_years(), b.app_dev.value

    def test_zero_volume_has_no_deployment(self, params, library):
        chip = library.domain("DNN").fpga
        params = dataclasses.replace(params, operation=OP, appdev=APPDEV)
        rate, one_time = self._deployment(chip, self._app(volume=0), params)
        assert rate == 0.0
        assert one_time == 0.0

    def test_volume_scaling(self, params, library):
        chip = library.domain("DNN").fpga
        params = dataclasses.replace(params, operation=OP, appdev=APPDEV)
        r1, o1 = self._deployment(chip, self._app(volume=1000), params)
        r2, o2 = self._deployment(chip, self._app(volume=2000), params)
        assert math.isclose(r2, 2 * r1, rel_tol=1e-12)
        # only the per-unit config part of one_time scales with volume
        fe_be = app_dev_cfp(ChipKind.FPGA, 1, 0, APPDEV).value
        assert math.isclose(o2 - fe_be, 2 * (o1 - fe_be), rel_tol=1e-9)

    def test_dnn_rate_ratio_is_power_ratio(self, params, library):
        dnn = library.domain("DNN")
        fpga_rate = operational_cfp_per_year(dnn.fpga.peak_power, params.operation).value
        asic_rate = operational_cfp_per_year(dnn.asic.peak_power, params.operation).value
        assert math.isclose(fpga_rate, 3.0 * asic_rate, rel_tol=1e-12)

    def test_asic_default_deployment_is_operation_only(self, params, library):
        asic = library.domain("Crypto").asic
        rate, one_time = self._deployment(asic, self._app(volume=500), params)
        assert one_time == 0.0
        assert rate > 0.0
