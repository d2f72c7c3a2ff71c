"""Deployment carbon: field operation plus application development."""

from __future__ import annotations

from .chips import ChipKind
from .params import AppDevParams, OperationParams
from .quantities import CarbonMass, Duration, Power, energy_to_carbon, HOURS_PER_YEAR


def operational_cfp_per_year(power: Power, op: OperationParams,
                             duty_cycle: float | None = None) -> CarbonMass:
    """Annual per-unit operating emissions: peak power x duty x grid intensity.

    This is a rate (kg CO2e per year of operation); callers multiply by the
    application lifetime.
    """
    duty = op.duty_cycle if duty_cycle is None else duty_cycle
    annual_energy = power.energy_over(Duration.hours(HOURS_PER_YEAR), duty)
    return energy_to_carbon(annual_energy, op.use_grid_intensity)


def app_dev_time(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> Duration:
    """Total application-development compute time.

    FPGAs pay front-end + back-end effort per application and configuration
    time per deployed unit. ASICs pay only their (by default zero)
    configuration time: their front-end/back-end work already lives in the
    design phase.
    """
    if n_app < 0 or n_vol < 0:
        raise ValueError("n_app and n_vol must be >= 0")
    if kind is ChipKind.FPGA:
        per_app = appdev.frontend_time.value + appdev.backend_time.value
        return Duration.hours(n_app * per_app + n_vol * appdev.config_time_fpga.value)
    return Duration.hours(n_vol * appdev.config_time_asic.value)


def app_dev_cfp(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> CarbonMass:
    """Emissions of the CAD/CPU systems running for the development time."""
    hours = app_dev_time(kind, n_app, n_vol, appdev)
    return energy_to_carbon(appdev.dev_power.energy_over(hours), appdev.dev_grid_intensity)

