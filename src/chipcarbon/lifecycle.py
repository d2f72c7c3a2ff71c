"""Platform totals over sequential application schedules.

An ASIC platform designs, manufactures, and retires fresh silicon for every
application. An FPGA fleet is bought once and reprogrammed from application to
application; when the evaluation horizon carries the schedule past the chip
lifetime, the whole fleet is re-purchased (manufacturing, packaging, and EOL
re-incur; the already-existing design does not).

Replacement accounting only engages when a horizon is passed explicitly.
Plain total queries (`horizon=None`) evaluate the reuse sum as-is, which is
also how the sweep experiments are defined.

A schedule is held as runs of identical applications (see `Run`); every
query evaluates closed-form slot and re-purchase counts per run, so its cost
does not depend on how many applications a run holds. Boundary rules: an
ASIC application is booked when it starts at or before the horizon; the
fleet is re-bought at every multiple of the chip lifetime strictly before
min(horizon, schedule end); a timeline row at t includes every event at t.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .breakdown import CfpBreakdown
from .chips import ApplicationProfile, ChipKind, ChipSpec, Run
from .deployment import app_dev_cfp, deployment_cfp
from .embodied import design_cfp, eol_cfp, manufacturing_cfp, packaging_cfp
from .params import ParameterSet
from .quantities import CarbonMass, Duration, HOURS_PER_YEAR

Schedule = Sequence["ApplicationProfile | Run"]


def n_fpga_required(app_size_gates: int, fpga_capacity_gates: int) -> int:
    """Devices needed to host one application instance at iso-performance."""
    if app_size_gates < 1:
        raise ValueError("app_size_gates must be >= 1")
    if fpga_capacity_gates < 1:
        raise ValueError("fpga_capacity_gates must be >= 1")
    return -(-app_size_gates // fpga_capacity_gates)


@dataclass(frozen=True)
class TimelinePoint:
    time: Duration
    cumulative: CfpBreakdown


def _last(origin: float, period: float, limit: float, strict: bool = False) -> float:
    """Largest integer k with origin + k * period <= limit (< limit if strict).

    Floor division gives k up to rounding; the +-1 fix-up compares the very
    products the boundary rules are stated in. An infinite limit gives inf.
    """
    if limit == math.inf:
        return math.inf
    within = operator.lt if strict else operator.le
    k = math.floor((limit - origin) / period)
    if within(origin + (k + 1) * period, limit):
        return k + 1
    return k if within(origin + k * period, limit) else k - 1


def _runs(apps: Schedule, chips: Sequence[ChipSpec], kind: ChipKind) -> list[list]:
    """Merge consecutive identical (application, chip) entries into runs.

    Each run is [count, proto, chip]; `proto` (an entry of `apps`) carries the
    shared lifetime, volume, size, and duty cycle. Empty runs are dropped.
    """
    runs: list[list] = []
    last_key = None
    for app, chip in zip(apps, chips):
        key = (app.lifetime.value, app.volume, app.size_gates, app.duty_cycle, chip)
        count = app.count if isinstance(app, Run) else 1
        if key == last_key:
            runs[-1][0] += count
        elif count:
            runs.append([count, app, chip])
            last_key = key
    for _, _, chip in runs:
        if chip.kind is not kind:
            raise ValueError(f"{chip.name}: expected an {kind.value} spec")
    return runs


def _unit_embodied(chip: ChipSpec, params: ParameterSet) -> tuple[float, ...]:
    """Design, and manufacturing, packaging and EOL per device, in kg."""
    return (design_cfp(params.design, chip.gates).value, manufacturing_cfp(chip, params).value,
            packaging_cfp(chip).value, eol_cfp(chip, params.eol).value)


class _Kernel:
    """One platform's schedule reduced to per-run coefficients in plain floats.

    `at(t)` returns the carbon booked by hour t in O(runs): slots started,
    slots completed, the one partial slot, and fleet re-purchases are counted
    in closed form. `fpga` is the fleet's spec, or None for ASICs.
    """

    def __init__(self, runs: list[list], fpga: ChipSpec | None, params: ParameterSet,
                 horizon: Duration | None) -> None:
        self.period = None if fpga is None else fpga.chip_lifetime.value  # fleet life
        # (start, lifetime, count, devices, rate, one-time, ASIC per-device embodied)
        self.rows: list[tuple] = []
        self.swaps: list[tuple] = []  # (re-purchases before run, before its end, kg each)
        start = 0.0
        for count, app, chip in runs:
            n_dev = 1 if fpga is None else n_fpga_required(app.size_gates, fpga.gates)
            rate, one_time = deployment_cfp(chip, app, params.operation, params.appdev, n_dev)
            if params.options.appdev_scaling == "literal":
                one_time = one_time * app.lifetime.to_years()
            lifetime_h = app.lifetime.value
            end = start + count * lifetime_h
            self.rows.append((start, lifetime_h, count, app.volume * n_dev, rate.value,
                              one_time.value, None if fpga else _unit_embodied(chip, params)))
            if fpga is not None and params.options.replacement_reprogramming:
                # a re-purchased fleet reloads the application running at that instant
                self.swaps.append((max(0, _last(0.0, self.period, start, strict=True)),
                                   max(0, _last(0.0, self.period, end, strict=True)),
                                   app_dev_cfp(ChipKind.FPGA, 0, app.volume, params.appdev).value))
            start = end
        self.cutoff = math.inf if horizon is None else min(horizon.value, start)
        if fpga is not None:
            self.unit = _unit_embodied(fpga, params)
            self.fleet = max((row[3] for row in self.rows), default=0)
            self.replacements = 0
            if horizon is not None:
                self.replacements = max(0, _last(0.0, self.period, self.cutoff, strict=True))

    def at(self, t: float) -> CfpBreakdown:
        until = min(t, self.cutoff)
        design = mfg = pkg = eol = app_dev = operational = 0.0
        if self.period is not None:
            replaced = min(self.replacements, max(0, _last(0.0, self.period, t)))
            design, m, p, e = self.unit
            mfg, pkg, eol = ((x * self.fleet) * (1 + replaced) for x in (m, p, e))
            for before, through, kg in self.swaps:
                app_dev += kg * (min(replaced, through) - min(replaced, before))
        for start, lifetime_h, count, devices, rate, one_time, unit in self.rows:
            k = _last(start, lifetime_h, until)  # the last slot started by `until`
            done = max(0, min(count, k))
            elapsed_h, share = done * lifetime_h, done
            if 0 <= k < count:
                slot_start = start + k * lifetime_h
                elapsed_h += until - slot_start
                share += (until - slot_start) / (start + (k + 1) * lifetime_h - slot_start)
            operational += rate * elapsed_h / HOURS_PER_YEAR
            app_dev += one_time * share
            if unit is not None:
                started = max(0, min(count, k + 1))
                d, m, p, e = unit
                design += d * started
                mfg += (m * devices) * started
                pkg += (p * devices) * started
                eol += (e * devices) * started
        return CfpBreakdown(*(CarbonMass(x) for x in
                              (design, mfg, pkg, eol, app_dev, operational)))


def asic_total_cfp(
    apps: Schedule,
    asic_per_app: ChipSpec | Sequence[ChipSpec],
    params: ParameterSet,
    horizon: Duration | None = None,
) -> CfpBreakdown:
    """Total carbon of serving the applications with one new ASIC each.

    Every application pays the full embodied cost (a fresh design and a fresh
    production run) plus lifetime-weighted operation. A horizon shorter than
    the schedule truncates it: applications starting past the horizon drop
    out, the one straddling it accrues pro-rata. A `Run` entry of `apps`
    stands for `count` identical applications and takes one ASIC spec.
    """
    chips = [asic_per_app] * len(apps) if isinstance(asic_per_app, ChipSpec) else asic_per_app
    if len(chips) != len(apps):
        raise ValueError("need exactly one ASIC spec per application")
    runs = _runs(apps, chips, ChipKind.ASIC)
    return _Kernel(runs, None, params, horizon).at(math.inf)


def fpga_total_cfp(
    apps: Schedule,
    fpga: ChipSpec,
    params: ParameterSet,
    horizon: Duration | None = None,
) -> CfpBreakdown:
    """Total carbon of serving all applications on one reprogrammable fleet.

    The fleet's embodied cost is paid once, then re-incurred without the
    design share at every chip-lifetime boundary the schedule crosses (only
    when a horizon is given). Per-application costs are operation and
    development.
    """
    if fpga.kind is not ChipKind.FPGA:
        raise ValueError(f"{fpga.name}: expected an FPGA spec")
    runs = _runs(apps, [fpga] * len(apps), ChipKind.FPGA)
    return _Kernel(runs, fpga, params, horizon).at(math.inf)


def cumulative_timeline(
    kind: ChipKind,
    apps: Schedule,
    chips: ChipSpec | Sequence[ChipSpec],
    params: ParameterSet,
    horizon: Duration,
    step: Duration,
) -> list[TimelinePoint]:
    """Cumulative carbon sampled on a regular grid from t=0 to the horizon.

    Operation and development accrue continuously while an application runs;
    embodied carbon books as steps, at application starts for ASICs and at
    purchase/replacement instants for the FPGA fleet. The grid always ends
    exactly on the horizon, so the final point reproduces the total queries.
    """
    if step.value <= 0:
        raise ValueError("step must be positive")
    chip_list = [chips] * len(apps) if isinstance(chips, ChipSpec) else chips
    if len(chip_list) != len(apps):
        raise ValueError("need exactly one chip spec per application")
    runs = _runs(apps, chip_list, kind)
    fpga = chip_list[0] if kind is ChipKind.FPGA and chip_list else None
    kernel = _Kernel(runs, fpga, params, horizon)

    grid = [k * step.value for k in range(math.floor(horizon.value / step.value) + 1)]
    if not grid or grid[-1] < horizon.value:
        grid.append(horizon.value)
    return [TimelinePoint(Duration.hours(t), kernel.at(t)) for t in grid]
