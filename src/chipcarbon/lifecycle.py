"""Platform totals over sequential application schedules.

An ASIC platform designs, manufactures, and retires fresh silicon for every
application. An FPGA fleet is bought once and reprogrammed from application to
application; when the evaluation horizon carries the schedule past the chip
lifetime, the whole fleet is re-purchased (manufacturing, packaging, and EOL
re-incur; the already-existing design does not).

Replacement accounting only engages when a horizon is passed explicitly.
Plain total queries (`horizon=None`) evaluate the reuse sum as-is, which is
also how the sweep experiments are defined.

A schedule is a sequence of `ApplicationProfile` entries, each standing for
`count` identical applications; consecutive identical entries merge into one
run. Every query evaluates closed-form slot and re-purchase counts per run, so
its cost does not depend on how many applications a run holds. Boundary
rules: an ASIC application is booked when it starts at or before the horizon;
the fleet is re-bought at every multiple of the chip lifetime strictly before
min(horizon, schedule end); a timeline row at t includes every event at t.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence

from .breakdown import CfpBreakdown
from .chips import ApplicationProfile, ChipKind, ChipSpec
from .deployment import operational_cfp_per_year
from .embodied import design_cfp, eol_cfp, manufacturing_cfp, packaging_cfp
from .params import ParameterSet
from .quantities import Duration, HOURS_PER_YEAR


def n_fpga_required(app_size_gates: int, fpga_capacity_gates: int) -> int:
    """Devices needed to host one application instance at iso-performance."""
    if app_size_gates < 1:
        raise ValueError("app_size_gates must be >= 1")
    if fpga_capacity_gates < 1:
        raise ValueError("fpga_capacity_gates must be >= 1")
    return -(-app_size_gates // fpga_capacity_gates)


class TimelinePoint(NamedTuple):
    """One timeline row in plain floats.

    `hours` is the time since t=0 and `kg` the carbon booked by then, per
    component in `COMPONENTS` order. Neither is validated; `time` and
    `cumulative` build the validated unit types on access.
    """

    hours: float
    kg: tuple[float, ...]

    @property
    def time(self) -> Duration:
        return Duration.hours(self.hours)

    @property
    def cumulative(self) -> CfpBreakdown:
        return CfpBreakdown.of(self.kg)


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


class ChipTerms:
    """One chip's model terms in plain floats, shared by the schedules of one query.

    Design, and manufacturing, packaging and EOL per device, come from the
    unit functions; the operating rate per device-year from
    `operational_cfp_per_year`, once per duty cycle; development kg from the
    hour terms of `app_dev_time`, in `app_dev_cfp`'s operation order. So every
    total built from these floats is bit-identical to one built through the
    unit functions. Build one per chip and query and drop it with the query.
    """

    def __init__(self, chip: ChipSpec, params: ParameterSet) -> None:
        self.chip = chip
        self.embodied = (design_cfp(params.design, chip.gates).value,
                         manufacturing_cfp(chip, params).value, packaging_cfp(chip).value,
                         eol_cfp(chip, params.eol).value)
        self._operation = params.operation
        self._rates: dict[float | None, float] = {}
        a = params.appdev
        fpga = chip.kind is ChipKind.FPGA
        self.dev_hours_per_app = a.frontend_time.value + a.backend_time.value if fpga else 0.0
        self.dev_hours_per_unit = (a.config_time_fpga if fpga else a.config_time_asic).value
        self._dev_w, self._dev_grid = a.dev_power.value, a.dev_grid_intensity.value
        self.literal = params.options.appdev_scaling == "literal"
        self.reprogramming = params.options.replacement_reprogramming

    def rate(self, duty_cycle: float | None) -> float:
        """Operating kg per device-year; None is the default duty cycle."""
        if duty_cycle not in self._rates:
            self._rates[duty_cycle] = operational_cfp_per_year(
                self.chip.peak_power, self._operation, duty_cycle).value
        return self._rates[duty_cycle]

    def dev_kg(self, hours: float) -> float:
        """Development kg of `hours` of dev-compute time."""
        return self._dev_w * hours / 1000.0 * self._dev_grid


def _runs(apps: Sequence[ApplicationProfile], chips: Sequence[ChipSpec], kind: ChipKind,
          params: ParameterSet, terms: dict[ChipSpec, ChipTerms]) -> list[tuple]:
    """Merge consecutive identical (application, chip) entries into plain runs.

    A plain run is (count, lifetime in hours, volume, size in gates, duty
    cycle, chip terms). Empty runs are dropped. A chip missing from `terms`
    gets its terms added.
    """
    runs: list[list] = []
    last_key = None
    for app, chip in zip(apps, chips):
        key = (app.lifetime.value, app.volume, app.size_gates, app.duty_cycle, chip)
        if key == last_key:
            runs[-1][0] += app.count
        elif app.count:
            if chip.kind is not kind:
                raise ValueError(f"{chip.name}: expected an {kind.value} spec")
            if chip not in terms:
                terms[chip] = ChipTerms(chip, params)
            runs.append([app.count, *key[:4], terms[chip]])
            last_key = key
    return [tuple(run) for run in runs]


class _Kernel:
    """One platform's schedule reduced to per-run coefficients in plain floats.

    `at(t)` returns the carbon booked by hour t in O(runs), as floats in
    `COMPONENTS` order: slots started, slots completed, the one partial slot,
    and fleet re-purchases are counted in closed form. `fleet` is the terms of
    the FPGA fleet, or None for ASICs.
    """

    def __init__(self, runs: Sequence[tuple], fleet: ChipTerms | None,
                 horizon_h: float | None) -> None:
        self.fleet = fleet
        self.period = period = None if fleet is None else fleet.chip.chip_lifetime.value
        # (start, lifetime, count, devices, rate, one-time, ASIC per-device embodied)
        self.rows: list[tuple] = []
        self.swaps: list[tuple] = []  # (re-purchases before run, before its end, kg each)
        self.devices = 0  # fleet size: the most devices any run needs
        start = 0.0
        for count, lifetime_h, volume, size, duty, terms in runs:
            devices = volume * (1 if fleet is None else n_fpga_required(size, fleet.chip.gates))
            rate = one_time = 0.0  # a zero-volume application deploys nothing
            if volume:
                rate = terms.rate(duty) * devices
                one_time = terms.dev_kg(terms.dev_hours_per_app
                                        + volume * terms.dev_hours_per_unit)
                if terms.literal:
                    one_time = one_time * (lifetime_h / HOURS_PER_YEAR)
            end = start + count * lifetime_h
            self.devices = max(self.devices, devices)
            self.rows.append((start, lifetime_h, count, devices, rate, one_time,
                              None if fleet else terms.embodied))
            if fleet is not None and fleet.reprogramming:
                # a re-purchased fleet reloads the application running at that instant
                self.swaps.append((max(0, _last(0.0, period, start, strict=True)),
                                   max(0, _last(0.0, period, end, strict=True)),
                                   fleet.dev_kg(volume * fleet.dev_hours_per_unit)))
            start = end
        self.cutoff = math.inf if horizon_h is None else min(horizon_h, start)
        self.replacements = 0
        if fleet is not None and horizon_h is not None:
            self.replacements = max(0, _last(0.0, period, self.cutoff, strict=True))

    def at(self, t: float) -> tuple[float, ...]:
        until = min(t, self.cutoff)
        design = mfg = pkg = eol = app_dev = operational = 0.0
        if self.fleet is not None:
            replaced = min(self.replacements, max(0, _last(0.0, self.period, t)))
            design, m, p, e = self.fleet.embodied
            bought = 1 + replaced
            mfg = (m * self.devices) * bought
            pkg = (p * self.devices) * bought
            eol = (e * self.devices) * bought
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
        # no devices times a recycling credit is -0.0, which would print as "-0"
        return design, mfg, pkg, eol + 0.0, app_dev, operational


def run_totals(runs: Sequence[tuple], fleet: ChipTerms | None,
               horizon_h: float | None) -> tuple[float, ...]:
    """Component kg, in `COMPONENTS` order, of plain runs (see `_runs`) to the horizon.

    `fleet` is the FPGA fleet's terms, or None for an ASIC per application.
    """
    return _Kernel(runs, fleet, horizon_h).at(math.inf)


def _hours(horizon: Duration | None) -> float | None:
    return None if horizon is None else horizon.value


def asic_total_cfp(
    apps: Sequence[ApplicationProfile],
    asic_per_app: ChipSpec | Sequence[ChipSpec],
    params: ParameterSet,
    horizon: Duration | None = None,
) -> CfpBreakdown:
    """Total carbon of serving the applications with one new ASIC each.

    Every application pays the full embodied cost (a fresh design and a fresh
    production run) plus lifetime-weighted operation. A horizon shorter than
    the schedule truncates it: applications starting past the horizon drop
    out, the one straddling it accrues pro-rata. An entry of `apps` stands for
    its `count` identical applications and takes one ASIC spec.
    """
    chips = [asic_per_app] * len(apps) if isinstance(asic_per_app, ChipSpec) else asic_per_app
    if len(chips) != len(apps):
        raise ValueError("need exactly one ASIC spec per application")
    runs = _runs(apps, chips, ChipKind.ASIC, params, {})
    return CfpBreakdown.of(run_totals(runs, None, _hours(horizon)))


def fpga_total_cfp(
    apps: Sequence[ApplicationProfile],
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
    terms = {fpga: ChipTerms(fpga, params)}
    runs = _runs(apps, [fpga] * len(apps), ChipKind.FPGA, params, terms)
    return CfpBreakdown.of(run_totals(runs, terms[fpga], _hours(horizon)))


def cumulative_timeline(
    kind: ChipKind,
    apps: Sequence[ApplicationProfile],
    chips: ChipSpec | Sequence[ChipSpec],
    params: ParameterSet,
    horizon: Duration,
    step: Duration,
) -> list[TimelinePoint]:
    """Cumulative carbon sampled on a regular grid from t=0 to the horizon, as float rows.

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
    fleet = None
    terms: dict[ChipSpec, ChipTerms] = {}
    if kind is ChipKind.FPGA and chip_list:
        fleet = terms[chip_list[0]] = ChipTerms(chip_list[0], params)
    kernel = _Kernel(_runs(apps, chip_list, kind, params, terms), fleet, horizon.value)

    grid = [k * step.value for k in range(math.floor(horizon.value / step.value) + 1)]
    if not grid or grid[-1] < horizon.value:
        grid.append(horizon.value)
    return [TimelinePoint(t, kernel.at(t)) for t in grid]
