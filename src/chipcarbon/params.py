"""Parameter dataclasses for every model constant the estimators consume.

All fields are in canonical units (kg CO2e, kWh, W, hours). One table,
`_FIELDS`, states each field once: its document key, unit, hard range and
published range. The loader in :mod:`chipcarbon.store` walks it to convert the
human-unit configuration keys (GWh, g/kWh, months, MTCO2e/ton) into these
types, and every section class checks its fields against the same rows through
`_refusal`, so a value is refused at load and by the parameter classes alike:
`replace(params.eol, recycle_fraction=1.5)` raises
`ValueError: recycle_fraction must be in [0, 1], got 1.5`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import HOURS_PER_YEAR, CarbonIntensity, CarbonMass, Duration, Energy, Power

# Hard ranges: (low, high, low excluded, how a refusal states it).
_GE_0 = (0, math.inf, False, "non-negative")
_GT_0 = (0, math.inf, True, "positive")
_GE_1 = (1, math.inf, False, ">= 1")
_FRACTION = (0, 1, False, "in [0, 1]")
_YIELD = (0, 1, True, "in (0, 1]")
_GRIDS = (30.0, 700.0)  # the published range of grid carbon intensities, g/kWh

# Document unit -> (canonical type, multiplier, divisor): canonical = document * mul / div.
# The multiplier of months (None) is options.hours_per_dev_month. Every multiplier is
# positive and every row with a unit is bounded by 0 and inf only, so a row's hard range
# holds in document and canonical units alike.
_UNITS = {
    "GWh": (Energy, 1e6, 1.0),
    "g/kWh": (CarbonIntensity, 1.0, 1000.0),
    "years": (Duration, HOURS_PER_YEAR, 1.0),
    "months": (Duration, None, 1.0),
    "hours": (Duration, 1.0, 1.0), "W": (Power, 1.0, 1.0), "kg": (CarbonMass, 1.0, 1.0),
}

# Every document field, by section: (key, attribute of the section's class, kind, unit,
# hard range, published range). The kind is "number", "integer", "flag" or the tuple of
# accepted choices; a number without a unit is stored as it is; the published range is in
# document units, and `store.validate` warns outside it.
_FIELDS: dict[str, tuple[tuple, ...]] = {
    "design": (
        ("annual_energy_gwh", "annual_energy", "number", "GWh", _GE_0, (2.0, 7.3)),
        ("grid_intensity_g_per_kwh", "grid_intensity", "number", "g/kWh", _GE_0, _GRIDS),
        ("total_employees", "total_employees", "integer", None, _GE_1, None),
        ("project_employees", "project_employees", "integer", None, _GE_1, None),
        ("avg_gates_per_chip", "avg_gates_per_chip", "integer", None, _GE_1, None),
        ("project_duration_years", "project_duration", "number", "years", _GT_0, (1.0, 3.0)),
    ),
    "nodes": (  # the fields of each node; the node number is the key above them
        ("energy_per_mm2_kwh", "energy_per_mm2", "number", None, _GE_0, None),
        ("gas_per_mm2_kg", "gas_per_mm2", "number", None, _GE_0, None),
        ("materials_new_per_mm2_kg", "materials_new_per_mm2", "number", None, _GE_0, None),
        ("materials_recycled_per_mm2_kg", "materials_recycled_per_mm2", "number", None, _GE_0,
         None),
        ("yield", "yield_fraction", "number", None, _YIELD, None),
        ("fab_intensity_g_per_kwh", "fab_intensity", "number", "g/kWh", _GE_0, None),
    ),
    "eol": (
        ("recycle_fraction", "recycle_fraction", "number", None, _FRACTION, None),
        ("discard_mt_per_ton", "discard_intensity", "number", None, _GE_0, (0.03, 2.08)),
        ("recycle_mt_per_ton", "recycle_intensity", "number", None, _GE_0, (7.65, 29.83)),
        ("chip_mass_g_per_mm2", "mass_per_mm2_g", "number", None, _GE_0, None),
    ),
    "package": (("carbon_per_package_kg", "carbon_per_package", "number", "kg", _GE_0, None),),
    "materials": (("recycled_fraction", "recycled_fraction", "number", None, _FRACTION, None),),
    "appdev": (
        ("frontend_months", "frontend_time", "number", "months", _GE_0, (1.5, 2.5)),
        ("backend_months", "backend_time", "number", "months", _GE_0, (0.5, 1.5)),
        ("config_hours_fpga", "config_time_fpga", "number", "hours", _GE_0, None),
        ("config_hours_asic", "config_time_asic", "number", "hours", _GE_0, None),
        ("dev_power_w", "dev_power", "number", "W", _GE_0, None),
        ("dev_grid_intensity_g_per_kwh", "dev_grid_intensity", "number", "g/kWh", _GE_0, _GRIDS),
    ),
    "operation": (
        ("duty_cycle", "duty_cycle", "number", None, _FRACTION, None),
        ("use_grid_intensity_g_per_kwh", "use_grid_intensity", "number", "g/kWh", _GE_0, _GRIDS),
    ),
    "options": (
        ("appdev_scaling", "appdev_scaling", ("one_time", "literal"), None, None, None),
        ("hours_per_dev_month", "hours_per_dev_month", "number", None, _GT_0, None),
        ("replacement_reprogramming", "replacement_reprogramming", "flag", None, None, None),
        ("breakdown_rel_tol", "breakdown_rel_tol", "number", None, _GT_0, None),
        ("crossover_tie_rel_tol", "crossover_tie_rel_tol", "number", None, _GT_0, None),
    ),
}


def _refusal(value, kind, hard) -> str | None:
    """Why `value` cannot fill a field of this kind and hard range, or None if it can.

    The loader prefixes the reason with the field's path, a section class with the
    attribute. A "number" is judged and shown as a float; a bool is not a number.
    """
    if isinstance(kind, tuple):
        return None if value in kind else f"expected {' or '.join(map(repr, kind))}, got {value!r}"
    if kind == "flag":
        return None if isinstance(value, bool) else f"expected true or false, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, int if kind == "integer" else (int, float)):
        return f"expected {'an integer' if kind == 'integer' else 'a number'}, got {value!r}"
    try:  # an integer field must convert too: the model computes in floats
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        return f"must be finite, got {number!r}"
    if kind == "number":
        value = number
    low, high, low_excluded, stated = hard
    if (value <= low if low_excluded else value < low) or value > high:
        return f"must be {stated}, got {value!r}"
    return None


class _Section:
    """A section class: each field keeps its `_FIELDS` row, in canonical units."""

    def __post_init__(self) -> None:
        for _, attr, kind, unit, hard, _ in _ROWS[type(self)]:
            value = getattr(self, attr)
            why = _refusal(value if unit is None else value.value, kind, hard)
            if why:
                raise ValueError(f"{attr} {why}")


@dataclass(frozen=True)
class DesignHouseParams(_Section):
    """Energy profile of the fabless design house that engineers a chip.

    `total_employees` is company-wide headcount and only normalizes the
    house's annual energy into a per-employee-year rate; `project_employees`
    is the team actually staffed on one chip.
    """

    annual_energy: Energy
    grid_intensity: CarbonIntensity
    total_employees: int
    project_employees: int
    avg_gates_per_chip: int
    project_duration: Duration

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.project_employees > self.total_employees:
            raise ValueError("project_employees must be in [1, total_employees]")


@dataclass(frozen=True)
class TechNodeParams(_Section):
    """Per-area fab coefficients for one technology node.

    All per-area terms are per mm² of good die; `yield_fraction` divides the
    effective area in both the energy/gas and the materials terms.
    """

    node_nm: int
    energy_per_mm2: float  # kWh/mm²
    gas_per_mm2: float  # kg CO2e/mm² of direct process GHG
    materials_new_per_mm2: float  # kg CO2e/mm², virgin sourcing
    materials_recycled_per_mm2: float  # kg CO2e/mm², recycled sourcing
    yield_fraction: float
    fab_intensity: CarbonIntensity


@dataclass(frozen=True)
class EolParams(_Section):
    """End-of-life discard/recycle model.

    Rates are kg CO2e per kg of packaged e-waste, numerically identical to the
    metric-tons-CO2e-per-ton figures published in e-waste reports.
    """

    recycle_fraction: float  # fraction of retired silicon routed to recycling
    discard_intensity: float  # kg CO2e per kg discarded
    recycle_intensity: float  # kg CO2e per kg recycled (credited)
    mass_per_mm2_g: float  # packaged-device mass model, grams per mm² of die


@dataclass(frozen=True)
class PackageParams(_Section):
    """Flat per-package manufacturing + assembly carbon (monolithic package)."""

    carbon_per_package: CarbonMass


@dataclass(frozen=True)
class MaterialsParams(_Section):
    """Sourcing mix for fab raw materials."""

    recycled_fraction: float  # blend weight on the recycled-materials basis


@dataclass(frozen=True)
class AppDevParams(_Section):
    """Application-development effort and the compute that powers it.

    Front-end (RTL + verification) and back-end (synth/place/route) time are
    per application; configuration time is per deployed unit. ASICs ship with
    their function baked in, so their per-unit configuration time defaults to
    zero and front-end/back-end effort is already accounted in the design
    phase.
    """

    frontend_time: Duration
    backend_time: Duration
    config_time_fpga: Duration
    config_time_asic: Duration
    dev_power: Power
    dev_grid_intensity: CarbonIntensity


@dataclass(frozen=True)
class OperationParams(_Section):
    """Field-operation defaults: duty cycle and use-phase grid intensity."""

    duty_cycle: float
    use_grid_intensity: CarbonIntensity


@dataclass(frozen=True)
class Options(_Section):
    """Behavioral switches and numeric tolerances; defaults live in data/defaults.yaml.

    appdev_scaling:
        "one_time" books application development once per application;
        "literal" scales it by the application lifetime in years, matching the
        plain reading of the lifetime-weighted deployment sum. Default is
        one_time: development happens once regardless of how long the
        application runs.
    replacement_reprogramming:
        When true, each fleet replacement re-incurs the per-unit configuration
        carbon (re-loading the active bitstream onto the new fleet). Off by
        default so replacement steps are purely embodied.
    """

    appdev_scaling: str
    hours_per_dev_month: float
    replacement_reprogramming: bool
    breakdown_rel_tol: float
    crossover_tie_rel_tol: float


_CLASSES = {"design": DesignHouseParams, "nodes": TechNodeParams, "eol": EolParams,
            "package": PackageParams, "materials": MaterialsParams, "appdev": AppDevParams,
            "operation": OperationParams, "options": Options}
_ROWS = {cls: _FIELDS[section] for section, cls in _CLASSES.items()}


@dataclass(frozen=True)
class ParameterSet:
    """Every model constant, validated and in canonical units."""

    design: DesignHouseParams
    nodes: dict[int, TechNodeParams]
    eol: EolParams
    package: PackageParams
    materials: MaterialsParams
    appdev: AppDevParams
    operation: OperationParams
    options: Options
    provenance: dict[str, str]

    def node(self, node_nm: int) -> TechNodeParams:
        try:
            return self.nodes[node_nm]
        except KeyError:
            known = ", ".join(str(n) for n in sorted(self.nodes))
            raise KeyError(
                f"no manufacturing data for {node_nm} nm (bundled nodes: {known})"
            ) from None
