"""Lifecycle carbon-footprint models for FPGA and ASIC accelerators."""

from .breakdown import CfpBreakdown
from .chips import ApplicationProfile, ChipKind, ChipSpec
from .deployment import app_dev_cfp, app_dev_time, operational_cfp_per_year
from .embodied import (
    design_cfp,
    eol_cfp,
    manufacturing_cfp,
    materials_cfp,
    packaging_cfp,
    unit_embodied_cfp,
)
from .errors import ChipCarbonError, ConsistencyError, ParameterError
from .lifecycle import (
    TimelinePoint,
    asic_total_cfp,
    cumulative_timeline,
    fpga_total_cfp,
    n_fpga_required,
)
from .params import (
    AppDevParams,
    DesignHouseParams,
    EolParams,
    MaterialsParams,
    OperationParams,
    Options,
    PackageParams,
    ParameterSet,
    TechNodeParams,
)
from .quantities import (
    CarbonIntensity,
    CarbonMass,
    Duration,
    Energy,
    Power,
    energy_to_carbon,
)
from .scenario import (
    CrossoverPoint,
    RatioGrid,
    Scenario,
    SweepPoint,
    SweepSpec,
    SweepVariable,
    default_grid,
    estimate_platform,
    evaluate_scenario,
    find_crossovers,
    heatmap,
    sweep,
)
from .store import Finding, TestcaseLibrary, builtin_testcases, load_parameters, serialize, validate

__version__ = "0.1.0"
