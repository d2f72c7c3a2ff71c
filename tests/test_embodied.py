import math

import pytest
from hypothesis import given, strategies as st

import yaml
from importlib import resources

from chipcarbon.chips import ApplicationProfile, ChipKind, ChipSpec
from chipcarbon.embodied import (
    design_cfp,
    eol_cfp,
    manufacturing_cfp,
    materials_cfp,
    packaging_cfp,
    unit_embodied_cfp,
)
from chipcarbon.lifecycle import asic_total_cfp, fpga_total_cfp
from chipcarbon.params import (
    DesignHouseParams,
    EolParams,
    PackageParams,
    TechNodeParams,
)
from chipcarbon.quantities import CarbonIntensity, CarbonMass, Duration, Energy, Power


def _design_house(total=20000, project=100, avg_gates=int(1e8), years=2.0):
    return DesignHouseParams(
        annual_energy=Energy(7.3 * 1e6),
        grid_intensity=CarbonIntensity(0.4),
        total_employees=total,
        project_employees=project,
        avg_gates_per_chip=avg_gates,
        project_duration=Duration.from_years(years),
    )


def _chip(area=200.0, node=10, gates=int(1e8), kind=ChipKind.ASIC, power=1.0,
          package_kg=0.15, params=None):
    return ChipSpec(
        name="test-chip", kind=kind, area_mm2=area, peak_power=Power(power),
        gates=gates, node_nm=node, package=PackageParams(CarbonMass.kg(package_kg)),
        chip_lifetime=Duration.from_years(8.0),
    )


def _deployed(chip, n_vol, params, n_fpga=1):
    """One application of `n_vol` units on `chip`, sized to need `n_fpga` FPGAs per unit."""
    app = ApplicationProfile("app", n_fpga * chip.gates, Duration.from_years(1.0), n_vol)
    total = fpga_total_cfp if chip.kind is ChipKind.FPGA else asic_total_cfp
    return total([app], chip, params)


class TestDesignCfp:
    def test_hand_fixture_29200(self):
        # 7.3 GWh x 0.4 kg/kWh / 20000 employees = 146 kg/emp-yr;
        # x 100 engineers x gate ratio 1 x 2 years = 29,200 kg
        d = _design_house()
        assert math.isclose(design_cfp(d, int(1e8)).value, 29200.0, rel_tol=1e-9)

    def test_gate_linearity(self):
        d = _design_house()
        assert math.isclose(design_cfp(d, int(2e8)).value,
                            2 * design_cfp(d, int(1e8)).value, rel_tol=1e-12)

    def test_preconditions(self):
        d = _design_house()
        with pytest.raises(ValueError):
            design_cfp(d, 0)
        with pytest.raises(ValueError):
            DesignHouseParams(
                annual_energy=Energy(2.0 * 1e6), grid_intensity=CarbonIntensity(0.4),
                total_employees=0, project_employees=0, avg_gates_per_chip=1,
                project_duration=Duration.from_years(1.0),
            )


class TestMaterialsCfp:
    NODE = TechNodeParams(
        node_nm=10, energy_per_mm2=0.0, gas_per_mm2=0.0,
        materials_new_per_mm2=1.0, materials_recycled_per_mm2=0.3,
        yield_fraction=1.0, fab_intensity=CarbonIntensity(0.49),
    )

    def test_blend_fixture_86(self):
        # new basis contributes 100 kg, recycled 30 kg; rho=0.2 -> 86 kg
        assert math.isclose(materials_cfp(100.0, self.NODE, 0.2).value, 86.0, rel_tol=1e-9)

    def test_pure_endpoints(self):
        assert math.isclose(materials_cfp(100.0, self.NODE, 0.0).value, 100.0)
        assert math.isclose(materials_cfp(100.0, self.NODE, 1.0).value, 30.0)

    def test_rho_out_of_range(self):
        for rho in (-0.1, 1.1):
            with pytest.raises(ValueError):
                materials_cfp(100.0, self.NODE, rho)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_blend_is_convex(self, rho):
        lo = materials_cfp(100.0, self.NODE, 1.0).value
        hi = materials_cfp(100.0, self.NODE, 0.0).value
        mid = materials_cfp(100.0, self.NODE, rho).value
        assert lo - 1e-12 <= mid <= hi + 1e-12


class TestEolCfp:
    def test_hand_fixture_negative_credit(self):
        # 10 g device, delta=0.3, dis=2.08, rec=29.83 -> -74.93 g CO2e
        eol = EolParams(recycle_fraction=0.3, discard_intensity=2.08,
                        recycle_intensity=29.83, mass_per_mm2_g=0.05)
        chip = _chip(area=200.0)  # 200 mm2 x 0.05 g/mm2 = 10 g
        assert math.isclose(eol_cfp(chip, eol).value, -0.07493, rel_tol=1e-9)

    def test_delta_endpoints(self):
        chip = _chip(area=200.0)
        dis_only = EolParams(0.0, 2.0, 10.0, 0.05)
        assert math.isclose(eol_cfp(chip, dis_only).value, 2.0 * 0.01, rel_tol=1e-12)
        credit_only = EolParams(1.0, 2.0, 10.0, 0.05)
        assert math.isclose(eol_cfp(chip, credit_only).value, -10.0 * 0.01, rel_tol=1e-12)

    @given(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_monotone_decreasing_in_delta(self, deltas):
        lo, hi = sorted(deltas)
        chip = _chip(area=100.0)
        a = eol_cfp(chip, EolParams(lo, 1.0, 15.0, 0.05)).value
        b = eol_cfp(chip, EolParams(hi, 1.0, 15.0, 0.05)).value
        assert b <= a + 1e-12


class TestManufacturingCfp:
    def test_zero_basis(self, params):
        node = TechNodeParams(10, 0.0, 0.0, 0.0, 0.0, 1.0, CarbonIntensity(0.49))
        import dataclasses
        p = dataclasses.replace(params, nodes={10: node})
        assert manufacturing_cfp(_chip(area=100.0), p).value == 0.0

    def test_yield_halving_doubles(self, params):
        import dataclasses
        node = params.nodes[10]
        half = dataclasses.replace(node, yield_fraction=node.yield_fraction / 2)
        p = dataclasses.replace(params, nodes={10: half})
        assert math.isclose(manufacturing_cfp(_chip(), p).value,
                            2 * manufacturing_cfp(_chip(), params).value, rel_tol=1e-12)

    def test_industry_per_unit_ordering(self, params, library):
        big = manufacturing_cfp(library.industry("IndustryASIC2"), params)
        small = manufacturing_cfp(library.industry("IndustryASIC1"), params)
        assert big.value > small.value

    def test_missing_node_is_configuration_error(self, params):
        with pytest.raises(KeyError, match="no manufacturing data"):
            manufacturing_cfp(_chip(node=5), params)


class TestPackagingCfp:
    def test_zero_and_constant_in_volume(self, params):
        assert packaging_cfp(_chip(package_kg=0.0)).value == 0.0
        chip = _chip()
        one = _deployed(chip, 1, params).packaging.value
        million = _deployed(chip, 1_000_000, params).packaging.value
        assert math.isclose(million, one * 1e6, rel_tol=1e-12)

    def test_bundled_default_matches_dataset(self, params, library):
        doc = yaml.safe_load(
            resources.files("chipcarbon.data").joinpath("defaults.yaml").read_text())
        bundled = doc["package"]["carbon_per_package_kg"]
        assert packaging_cfp(library.industry("IndustryFPGA1")).value == bundled


class TestEmbodiedCfp:
    """Embodied carbon as the lifecycle totals book it for one application."""

    def test_zero_volume_is_design_only(self, params):
        b = _deployed(_chip(), 0, params)
        assert b.design.value > 0
        assert b.manufacturing.value == b.packaging.value == b.eol.value == 0.0
        assert math.isclose(b.total.value, b.design.value, rel_tol=1e-12)

    def test_volume_product_against_unit_loop(self, params):
        chip = _chip()
        closed = _deployed(chip, 1_000_000, params).embodied
        # independent accumulator: one chip at a time
        acc = 0.0
        unit = unit_embodied_cfp(chip, params).value
        for _ in range(1_000_000):
            acc += unit
        expected = design_cfp(params.design, chip.gates).value + acc
        assert math.isclose(closed.value, expected, rel_tol=1e-9)

    def test_doubling_n_fpga(self, params):
        chip = _chip(kind=ChipKind.FPGA)
        b1 = _deployed(chip, 1000, params)
        b2 = _deployed(chip, 1000, params, n_fpga=2)
        assert math.isclose(b2.manufacturing.value, 2 * b1.manufacturing.value, rel_tol=1e-12)
        assert b2.design.value == b1.design.value

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_volume_linearity(self, a, b):
        from chipcarbon import load_parameters
        params = load_parameters()
        chip = _chip()
        left = _deployed(chip, a + b, params).embodied.value
        right = (_deployed(chip, a, params).embodied.value
                 + _deployed(chip, b, params).embodied.value
                 - design_cfp(params.design, chip.gates).value)
        assert math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-9)

    def test_components_nonneg_and_total_positive_on_defaults(self, params, library):
        for name in ("IndustryASIC1", "IndustryASIC2", "IndustryFPGA1", "IndustryFPGA2"):
            b = _deployed(library.industry(name), 1_000_000, params)
            assert b.design.value >= 0
            assert b.manufacturing.value >= 0
            assert b.packaging.value >= 0
            assert b.embodied.value > 0  # EOL credit never flips the total on defaults
