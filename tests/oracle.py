"""Discrete-event fleet accumulator used as the independent oracle.

Instead of the closed-form volume products and lifetime sums of the lifecycle
module, this walks the deployment one application and one physical device at a
time, adding raw per-unit costs computed straight from the parameter fields.
Agreement between the two paths checks every aggregation rule (volume scaling,
per-app recurrence, design one-timeness, replacement bookkeeping, horizon
truncation, timeline booking).

Times are hours, as in the API. Every entry must stand for one application
(`count == 1`); the oracle refuses a compressed one rather than read it as
a single application. Consecutive applications with equal lifetime,
volume, size, duty cycle and chip form a run; slot i of a run starts at
`run_start + i * lifetime` and ends where slot i + 1 starts. Boundary rules:
an ASIC application is booked when it starts at or before the horizon; the
FPGA fleet is re-bought at every chip lifetime strictly before
min(horizon, schedule end); a timeline row at t includes every event at t.
"""

from __future__ import annotations

import math

from chipcarbon.chips import ApplicationProfile, ChipKind, ChipSpec
from chipcarbon.params import ParameterSet
from chipcarbon.quantities import HOURS_PER_YEAR


def _unit_costs(chip: ChipSpec, params: ParameterSet) -> dict[str, float]:
    """Raw per-device embodied costs straight from the parameter fields."""
    node = params.nodes[chip.node_nm]
    rho = params.materials.recycled_fraction
    area_eff = chip.area_mm2 / node.yield_fraction
    mfg = area_eff * (node.fab_intensity.value * node.energy_per_mm2 + node.gas_per_mm2)
    mfg += area_eff * (rho * node.materials_recycled_per_mm2
                       + (1.0 - rho) * node.materials_new_per_mm2)
    mass_kg = params.eol.mass_per_mm2_g * chip.area_mm2 / 1000.0
    delta = params.eol.recycle_fraction
    eol = ((1.0 - delta) * params.eol.discard_intensity
           - delta * params.eol.recycle_intensity) * mass_kg
    return {
        "manufacturing": mfg,
        "packaging": chip.package.carbon_per_package.value,
        "eol": eol,
    }


def _design_kg(chip: ChipSpec, params: ParameterSet) -> float:
    d = params.design
    per_emp_year = d.annual_energy.value * d.grid_intensity.value / d.total_employees
    return (per_emp_year * d.project_employees
            * (chip.gates / d.avg_gates_per_chip)
            * d.project_duration.value / HOURS_PER_YEAR)


def _dev_kg_per_hour(params: ParameterSet) -> float:
    a = params.appdev
    return a.dev_power.value / 1000.0 * a.dev_grid_intensity.value


def _op_kg_per_year(chip: ChipSpec, app: ApplicationProfile, params: ParameterSet) -> float:
    duty = app.duty_cycle if app.duty_cycle is not None else params.operation.duty_cycle
    return (chip.peak_power.value / 1000.0 * duty * HOURS_PER_YEAR
            * params.operation.use_grid_intensity.value)


def _zero() -> dict[str, float]:
    return {c: 0.0 for c in
            ("design", "manufacturing", "packaging", "eol", "app_dev", "operational")}


def slots(apps, chips) -> list[tuple[float, float]]:
    """(start, end) hours of every application under the run rule above."""
    out: list[tuple[float, float]] = []
    run_start, index, previous = 0.0, 0, None
    for app, chip in zip(apps, chips):
        if app.count != 1:
            raise ValueError(f"{app.name}: the oracle walks single applications, "
                             f"got count={app.count}")
        key = (app.lifetime.value, app.volume, app.size_gates, app.duty_cycle, chip)
        if key != previous:
            if previous is not None:
                run_start += index * previous[0]
            index, previous = 0, key
        out.append((run_start + index * key[0], run_start + (index + 1) * key[0]))
        index += 1
    return out


def _booked(apps, chips, fpga: ChipSpec | None, params: ParameterSet,
            horizon_h: float | None, t: float) -> dict[str, float]:
    """Carbon booked by hour `t` on the ASICs `chips`, or on the fleet `fpga` if given."""
    kind = ChipKind.ASIC if fpga is None else ChipKind.FPGA
    chips = chips if fpga is None else [fpga] * len(apps)
    total = _zero()
    spans = slots(apps, chips)
    schedule_end = spans[-1][1] if spans else 0.0
    cutoff = schedule_end if horizon_h is None else min(horizon_h, schedule_end)
    until = min(t, cutoff)
    dev = _dev_kg_per_hour(params)
    devices_per_unit = [1 if kind is ChipKind.ASIC else math.ceil(app.size_gates / chip.gates)
                        for app, chip in zip(apps, chips)]

    if fpga is not None:
        fleet = max((app.volume * n for app, n in zip(apps, devices_per_unit)), default=0)
        unit = _unit_costs(fpga, params)
        purchases = [0.0]
        if horizon_h is not None:
            k = 1
            while k * fpga.chip_lifetime.value < cutoff:
                purchases.append(k * fpga.chip_lifetime.value)
                k += 1
        total["design"] += _design_kg(fpga, params)
        for when in purchases:
            if when > t:
                break
            for _ in range(fleet):
                for c in unit:
                    total[c] += unit[c]
            if when > 0.0 and params.options.replacement_reprogramming:
                for app, (start, end) in zip(apps, spans):
                    if start <= when < end:
                        for _ in range(app.volume):
                            total["app_dev"] += dev * params.appdev.config_time_fpga.value

    for app, chip, n, (start, end) in zip(apps, chips, devices_per_unit, spans):
        if kind is ChipKind.ASIC:
            if start > until:
                continue
            total["design"] += _design_kg(chip, params)
            unit = _unit_costs(chip, params)
            for _ in range(app.volume):
                for c in unit:
                    total[c] += unit[c]
        if app.volume == 0:
            continue
        frac = min(1.0, max(0.0, until - start) / (end - start))
        run_years = (end - start) / HOURS_PER_YEAR * frac
        op_rate = _op_kg_per_year(chip, app, params)
        appdev = 0.0
        if kind is ChipKind.FPGA:
            appdev = dev * (params.appdev.frontend_time.value + params.appdev.backend_time.value)
        config = (params.appdev.config_time_fpga if kind is ChipKind.FPGA
                  else params.appdev.config_time_asic).value
        for _ in range(app.volume):
            for _ in range(n):
                total["operational"] += op_rate * run_years
            appdev += dev * config
        if params.options.appdev_scaling == "literal":
            appdev *= app.lifetime.value / HOURS_PER_YEAR
        total["app_dev"] += appdev * frac
    return total


def _hours(years: float | None) -> float | None:
    return None if years is None else years * HOURS_PER_YEAR


def oracle_asic_total(apps, chips, params: ParameterSet,
                      horizon_years: float | None = None) -> dict[str, float]:
    return _booked(list(apps), list(chips), None, params, _hours(horizon_years), math.inf)


def oracle_fpga_total(apps, fpga: ChipSpec, params: ParameterSet,
                      horizon_years: float | None = None) -> dict[str, float]:
    return _booked(list(apps), None, fpga, params, _hours(horizon_years), math.inf)


def oracle_timeline(apps, chips, fpga: ChipSpec | None, params: ParameterSet,
                    horizon_years: float, step_years: float) -> list[tuple[float, dict]]:
    """(hour, booked carbon) rows at every step from 0, plus the horizon itself.

    `fpga` selects the platform as in `_booked`: the fleet if given, else `chips`.
    """
    horizon, step = horizon_years * HOURS_PER_YEAR, step_years * HOURS_PER_YEAR
    grid = [k * step for k in range(math.floor(horizon / step) + 1)]
    if grid[-1] < horizon:
        grid.append(horizon)
    return [(t, _booked(list(apps), chips, fpga, params, horizon, t)) for t in grid]
