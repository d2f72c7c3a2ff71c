"""Embodied carbon: design, manufacturing, packaging, and end-of-life.

Per-unit costs (manufacturing, packaging, EOL) scale with deployed volume and
with the number of devices needed per deployed unit; design carbon is paid
once per distinct chip design regardless of volume.
"""

from __future__ import annotations

from .chips import ChipSpec
from .params import DesignHouseParams, EolParams, ParameterSet, TechNodeParams
from .quantities import CarbonMass


def design_cfp(design: DesignHouseParams, chip_gates: int) -> CarbonMass:
    """One-time carbon of designing and testing a chip.

    Per-employee-year emissions of the design house, times the engineers on
    this project, times the project duration in years, scaled by how much
    bigger this chip is than the house's average design. Never multiplied by
    volume.
    """
    if chip_gates < 1:
        raise ValueError("chip_gates must be >= 1")
    per_employee_year = design.carbon_per_employee_year()
    gate_ratio = chip_gates / design.avg_gates_per_chip
    years = design.project_duration.to_years()
    return CarbonMass.kg(
        per_employee_year.value * design.project_employees * gate_ratio * years
    )


def materials_cfp(area_mm2: float, node: TechNodeParams, rho: float) -> CarbonMass:
    """Raw-material sourcing carbon with a recycled/virgin blend.

    rho is the recycled fraction; the result is a convex combination of the
    two per-area bases, scaled by effective (yield-adjusted) area.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"recycled fraction must be in [0, 1], got {rho!r}")
    per_mm2 = rho * node.materials_recycled_per_mm2 + (1.0 - rho) * node.materials_new_per_mm2
    return CarbonMass.kg(per_mm2 * area_mm2 / node.yield_fraction)


def manufacturing_cfp(chip: ChipSpec, params: ParameterSet, rho: float | None = None) -> CarbonMass:
    """Per-unit fab carbon: fab energy, direct process gases, and materials."""
    node = params.node(chip.node_nm)
    if rho is None:
        rho = params.materials.recycled_fraction
    effective_area = chip.area_mm2 / node.yield_fraction
    energy_and_gas = effective_area * (
        node.fab_intensity.value * node.energy_per_mm2 + node.gas_per_mm2
    )
    return CarbonMass.kg(energy_and_gas) + materials_cfp(chip.area_mm2, node, rho)


def eol_cfp(chip: ChipSpec, eol: EolParams) -> CarbonMass:
    """Per-unit end-of-life carbon; negative when the recycling credit wins.

    Device mass comes from the bundled grams-per-mm² model since e-waste
    intensities are published per ton.
    """
    mass_kg = eol.mass_per_mm2_g * chip.area_mm2 / 1000.0
    delta = eol.recycle_fraction
    per_kg = (1.0 - delta) * eol.discard_intensity - delta * eol.recycle_intensity
    return CarbonMass(per_kg * mass_kg)


def packaging_cfp(chip: ChipSpec) -> CarbonMass:
    """Per-unit package manufacture and assembly carbon (flat constant)."""
    return chip.package.carbon_per_package


def unit_embodied_cfp(chip: ChipSpec, params: ParameterSet, rho: float | None = None) -> CarbonMass:
    """Manufacturing + packaging + EOL for a single manufactured device."""
    return manufacturing_cfp(chip, params, rho) + packaging_cfp(chip) + eol_cfp(chip, params.eol)

