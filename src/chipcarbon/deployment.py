"""Deployment carbon: field operation plus application development."""

from __future__ import annotations

from .chips import ChipKind
from .params import AppDevParams, OperationParams
from .quantities import HOURS_PER_YEAR, CarbonMass, Duration, Energy, Power


def operational_cfp_per_year(power: Power, op: OperationParams,
                             duty_cycle: float | None = None) -> CarbonMass:
    """Annual per-unit operating emissions: peak power x duty x grid intensity.

    This is a rate (kg CO2e per year of operation); callers multiply by the
    application lifetime.
    """
    duty = op.duty_cycle if duty_cycle is None else duty_cycle
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty_cycle must be in [0, 1], got {duty!r}")
    annual_energy = Energy(power.value * duty * HOURS_PER_YEAR / 1000.0)
    return CarbonMass(annual_energy.value * op.use_grid_intensity.value)


def _dev_hours(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> float:
    if n_app < 0 or n_vol < 0:
        raise ValueError("n_app and n_vol must be >= 0")
    if kind is ChipKind.FPGA:
        per_app = appdev.frontend_time.value + appdev.backend_time.value
        return n_app * per_app + n_vol * appdev.config_time_fpga.value
    return n_vol * appdev.config_time_asic.value


def app_dev_time(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> Duration:
    """Total application-development compute time.

    FPGAs pay front-end + back-end effort per application and configuration
    time per deployed unit. ASICs pay only their (by default zero)
    configuration time: their front-end/back-end work already lives in the
    design phase.
    """
    return Duration(_dev_hours(kind, n_app, n_vol, appdev))


def app_dev_kg(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> float:
    """`app_dev_cfp` in plain floats: the one development formula, the kernel's too."""
    hours = _dev_hours(kind, n_app, n_vol, appdev)
    return appdev.dev_power.value * hours / 1000.0 * appdev.dev_grid_intensity.value


def app_dev_cfp(kind: ChipKind, n_app: int, n_vol: int, appdev: AppDevParams) -> CarbonMass:
    """Emissions of the CAD/CPU systems running for the development time."""
    return CarbonMass(app_dev_kg(kind, n_app, n_vol, appdev))
