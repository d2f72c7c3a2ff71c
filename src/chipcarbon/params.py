"""Parameter dataclasses for every model constant the estimators consume.

All fields are in canonical units (kg CO2e, kWh, W, hours). The loader in
:mod:`chipcarbon.store` converts the human-unit configuration keys
(GWh, g/kWh, months, MTCO2e/ton) into these types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantities import CarbonIntensity, CarbonMass, Duration, Energy, Power


@dataclass(frozen=True)
class DesignHouseParams:
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
        if self.total_employees < 1:
            raise ValueError("total_employees must be >= 1")
        if not 1 <= self.project_employees <= self.total_employees:
            raise ValueError("project_employees must be in [1, total_employees]")
        if self.avg_gates_per_chip < 1:
            raise ValueError("avg_gates_per_chip must be >= 1")
        if self.project_duration.value <= 0:
            raise ValueError("project_duration must be positive")


@dataclass(frozen=True)
class TechNodeParams:
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

    def __post_init__(self) -> None:
        for name in ("energy_per_mm2", "gas_per_mm2", "materials_new_per_mm2",
                     "materials_recycled_per_mm2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.yield_fraction <= 1.0:
            raise ValueError("yield_fraction must be in (0, 1]")


@dataclass(frozen=True)
class EolParams:
    """End-of-life discard/recycle model.

    Rates are kg CO2e per kg of packaged e-waste, numerically identical to the
    metric-tons-CO2e-per-ton figures published in e-waste reports.
    """

    recycle_fraction: float  # fraction of retired silicon routed to recycling
    discard_intensity: float  # kg CO2e per kg discarded
    recycle_intensity: float  # kg CO2e per kg recycled (credited)
    mass_per_mm2_g: float  # packaged-device mass model, grams per mm² of die

    def __post_init__(self) -> None:
        if not 0.0 <= self.recycle_fraction <= 1.0:
            raise ValueError("recycle_fraction must be in [0, 1]")
        if self.discard_intensity < 0 or self.recycle_intensity < 0:
            raise ValueError("EOL intensities must be non-negative")
        if self.mass_per_mm2_g < 0:
            raise ValueError("mass_per_mm2_g must be non-negative")


@dataclass(frozen=True)
class PackageParams:
    """Flat per-package manufacturing + assembly carbon (monolithic package)."""

    carbon_per_package: CarbonMass

    def __post_init__(self) -> None:
        if self.carbon_per_package.value < 0:
            raise ValueError("carbon_per_package must be non-negative")


@dataclass(frozen=True)
class MaterialsParams:
    """Sourcing mix for fab raw materials."""

    recycled_fraction: float  # blend weight on the recycled-materials basis

    def __post_init__(self) -> None:
        if not 0.0 <= self.recycled_fraction <= 1.0:
            raise ValueError("recycled_fraction must be in [0, 1]")


@dataclass(frozen=True)
class AppDevParams:
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
class OperationParams:
    """Field-operation defaults: duty cycle and use-phase grid intensity."""

    duty_cycle: float
    use_grid_intensity: CarbonIntensity

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in [0, 1]")


@dataclass(frozen=True)
class Options:
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

    def __post_init__(self) -> None:
        if self.appdev_scaling not in ("one_time", "literal"):
            raise ValueError("appdev_scaling must be 'one_time' or 'literal'")
        if self.hours_per_dev_month <= 0:
            raise ValueError("hours_per_dev_month must be positive")


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
