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
its cost does not depend on how many applications a run holds.

A total splits into a timing part (`_Timing`: slot, elapsed-hour, purchase
and swap counts from run counts, lifetimes, the horizon and the chip
lifetime) and a volume part (`_volume`: device-scaled kg from volumes, sizes
and chip terms). `_combine` books carbon from one of each, for totals and
timeline rows alike. `SampleTotals` builds each part once per distinct key
within a query, so a sweep sample or heatmap cell costs two `_combine` calls
of a handful of multiply-adds.

Boundary rules: an ASIC application is booked when it starts at or before the
horizon; the fleet is re-bought at every multiple of the chip lifetime
strictly before min(horizon, schedule end); a timeline row at t includes
every event at t.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .breakdown import CfpBreakdown
from .chips import ApplicationProfile, ChipKind, ChipSpec
from .deployment import app_dev_kg, operational_cfp_per_year
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
        return Duration(self.hours)

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
    k = math.floor((limit - origin) / period)
    if strict:
        if origin + (k + 1) * period < limit:
            return k + 1
        return k if origin + k * period < limit else k - 1
    if origin + (k + 1) * period <= limit:
        return k + 1
    return k if origin + k * period <= limit else k - 1


class ChipTerms:
    """One chip's model terms in plain floats, shared by the schedules of one query.

    Design, and manufacturing, packaging and EOL per device, come from the
    unit functions; the operating rate per device-year from
    `operational_cfp_per_year`, once per duty cycle; development kg from
    `app_dev_kg`, as `app_dev_cfp` books it. So every total built from these
    floats is bit-identical to one built through the unit functions. Build one
    per chip and query and drop it with the query.
    """

    def __init__(self, chip: ChipSpec, params: ParameterSet) -> None:
        self.chip = chip
        self.embodied = (design_cfp(params.design, chip.gates).value,
                         manufacturing_cfp(chip, params).value, packaging_cfp(chip).value,
                         eol_cfp(chip, params.eol).value)
        self._operation = params.operation
        self._rates: dict[float | None, float] = {}
        self.appdev = params.appdev
        self.literal = params.options.appdev_scaling == "literal"
        self.reprogramming = params.options.replacement_reprogramming

    def rate(self, duty_cycle: float | None) -> float:
        """Operating kg per device-year; None is the default duty cycle."""
        if duty_cycle not in self._rates:
            self._rates[duty_cycle] = operational_cfp_per_year(
                self.chip.peak_power, self._operation, duty_cycle).value
        return self._rates[duty_cycle]


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


class _Timing:
    """The slot arithmetic of a schedule, from its run counts and lifetimes alone.

    `at(t)` counts, in closed form, what has happened by hour t: the fleet's
    re-purchases, and per run the hours elapsed, the share of slots done
    (whole slots plus the partial one) and the slots started. `period` is the
    FPGA chip lifetime in hours, or None for an ASIC schedule; the slot
    counts serve both platforms.
    """

    def __init__(self, slots: Sequence[tuple[int, float]], period: float | None,
                 horizon_h: float | None) -> None:
        self.period = period
        self.runs: list[tuple] = []  # (start, lifetime, count)
        self.swaps: list[tuple] = []  # (re-purchases before run, before its end)
        start = 0.0
        for count, lifetime_h in slots:
            end = start + count * lifetime_h
            self.runs.append((start, lifetime_h, count))
            if period is not None:
                # a re-purchased fleet reloads the application running at that instant
                self.swaps.append((max(0, _last(0.0, period, start, strict=True)),
                                   max(0, _last(0.0, period, end, strict=True))))
            start = end
        self.cutoff = math.inf if horizon_h is None else min(horizon_h, start)
        self.replacements = 0
        if period is not None and horizon_h is not None:
            self.replacements = max(0, _last(0.0, period, self.cutoff, strict=True))

    def at(self, t: float) -> tuple:
        """(re-purchases, `swaps`, (elapsed hours, share, started) per run) by hour t."""
        until = min(t, self.cutoff)
        replaced = 0
        if self.period is not None:
            replaced = min(self.replacements, max(0, _last(0.0, self.period, t)))
        slots = []
        for start, lifetime_h, count in self.runs:
            k = _last(start, lifetime_h, until)  # the last slot started by `until`
            if k >= count:  # every slot done (k may be inf)
                slots.append((count * lifetime_h, count, count))
            elif k < 0:  # none started
                slots.append((0.0, 0, 0))
            else:  # k slots done, slot k partly
                slot_start = start + k * lifetime_h
                share = (until - slot_start) / (start + (k + 1) * lifetime_h - slot_start)
                slots.append((k * lifetime_h + (until - slot_start), k + share, k + 1))
        return replaced, self.swaps, slots


def _volume(runs: Sequence[tuple], fleet: ChipTerms | None) -> tuple:
    """The device-scaled terms of plain runs (see `_runs`), none of their timing.

    Returns (fleet kg, swap kg per run, (rate, one-time kg, slot kg) per run):
    the FPGA fleet's design kg and its manufacturing, packaging and EOL kg per
    purchase (None for ASICs); the development kg of reloading each run onto a
    re-purchased fleet (none without reprogramming); and per run the operating
    kg per year, the development kg per application and, for ASICs, the
    design, manufacturing, packaging and EOL kg of one application slot.
    """
    rows, swaps, fleet_devices = [], [], 0
    for _, lifetime_h, volume, size, duty, terms in runs:
        devices = volume * (1 if fleet is None else n_fpga_required(size, fleet.chip.gates))
        rate = one_time = 0.0  # a zero-volume application deploys nothing
        if volume:
            rate = terms.rate(duty) * devices
            one_time = app_dev_kg(terms.chip.kind, 1, volume, terms.appdev)
            if terms.literal:
                one_time = one_time * (lifetime_h / HOURS_PER_YEAR)
        slot = None
        if fleet is None:
            d, m, p, e = terms.embodied
            slot = (d, m * devices, p * devices, e * devices)
        elif fleet.reprogramming:
            swaps.append(app_dev_kg(ChipKind.FPGA, 0, volume, fleet.appdev))
        fleet_devices = max(fleet_devices, devices)  # the fleet hosts the largest run
        rows.append((rate, one_time, slot))
    if fleet is None:
        return None, swaps, rows
    d, m, p, e = fleet.embodied
    return (d, m * fleet_devices, p * fleet_devices, e * fleet_devices), swaps, rows


def _combine(timing: tuple, volume: tuple) -> tuple[float, ...]:
    """Component kg, in `COMPONENTS` order, of one schedule's timing and volume parts.

    `timing` comes from `_Timing.at`, `volume` from `_volume`. Every total,
    sweep sample, heatmap cell and timeline row is booked here.
    """
    replaced, swaps, slots = timing
    fleet, swap_kg, rows = volume
    design = mfg = pkg = eol = app_dev = operational = 0.0
    if fleet is not None:
        design, m, p, e = fleet
        bought = 1 + replaced
        mfg, pkg, eol = m * bought, p * bought, e * bought
        for kg, (before, through) in zip(swap_kg, swaps):
            app_dev += kg * (min(replaced, through) - min(replaced, before))
    for (rate, one_time, slot), (elapsed_h, share, started) in zip(rows, slots):
        operational += rate * elapsed_h / HOURS_PER_YEAR
        app_dev += one_time * share
        if slot is not None:
            d, m, p, e = slot
            design += d * started
            mfg += m * started
            pkg += p * started
            eol += e * started
    # no devices times a recycling credit is -0.0, which would print as "-0"
    return design, mfg, pkg, eol + 0.0, app_dev, operational


class _Kernel:
    """One platform's schedule as its volume and timing parts; `at(t)` combines them.

    `chips` is the FPGA fleet's one spec, or the ASIC spec of every entry of
    `apps` (one spec or one per entry). Every schedule query is set up here.
    """

    def __init__(self, kind: ChipKind, apps: Sequence[ApplicationProfile],
                 chips: ChipSpec | Sequence[ChipSpec], params: ParameterSet,
                 horizon_h: float | None) -> None:
        terms: dict[ChipSpec, ChipTerms] = {}
        fleet = None
        if kind is ChipKind.FPGA:
            if not isinstance(chips, ChipSpec):
                raise ValueError("an FPGA fleet is one chip spec, not one per application")
            if chips.kind is not kind:
                raise ValueError(f"{chips.name}: expected an FPGA spec")
            fleet = terms[chips] = ChipTerms(chips, params)
        chips = [chips] * len(apps) if isinstance(chips, ChipSpec) else chips
        if len(chips) != len(apps):
            raise ValueError("need exactly one ASIC spec per application")
        runs = _runs(apps, chips, kind, params, terms)
        self.volume = _volume(runs, fleet)
        period = None if fleet is None else fleet.chip.chip_lifetime.value
        self.timing = _Timing([run[:2] for run in runs], period, horizon_h)

    def at(self, t: float) -> tuple[float, ...]:
        return _combine(self.timing.at(t), self.volume)


class SampleTotals:
    """Both platforms' totals of one-run samples, sharing parts within one query.

    A sample is (apps, lifetime in hours, volume, size in gates, horizon in
    hours) at the default duty cycle. Its timing part depends on apps,
    lifetime and horizon and serves both platforms; each platform's volume
    part depends on volume, size and, under literal development scaling,
    lifetime. Each part is built once per distinct key, so a volume x NumApps
    heatmap builds one timing part per row and one volume part pair per
    column, and a cell costs two `_combine` calls. Build one per query and
    drop it with the query.
    """

    def __init__(self, fpga: ChipSpec, asic: ChipSpec, params: ParameterSet) -> None:
        self.fpga, self.asic = ChipTerms(fpga, params), ChipTerms(asic, params)
        self.timings: dict[tuple, tuple] = {}
        self.volumes: dict[tuple, tuple] = {}

    def __call__(self, n_app: int, lifetime_h: float, volume: int, size: int,
                 horizon_h: float | None) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(FPGA, ASIC) component kg of one sample."""
        key = (volume, size, lifetime_h if self.fpga.literal else None)
        volumes = self.volumes.get(key)
        if volumes is None:
            run = (n_app, lifetime_h, volume, size, None)
            volumes = self.volumes[key] = (_volume([(*run, self.fpga)], self.fpga),
                                           _volume([(*run, self.asic)], None))
        key = (n_app, lifetime_h, horizon_h)
        timing = self.timings.get(key)
        if timing is None:
            period = self.fpga.chip.chip_lifetime.value
            timing = self.timings[key] = _Timing([(n_app, lifetime_h)], period,
                                                 horizon_h).at(math.inf)
        return _combine(timing, volumes[0]), _combine(timing, volumes[1])


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
    kernel = _Kernel(ChipKind.ASIC, apps, asic_per_app, params, _hours(horizon))
    return CfpBreakdown.of(kernel.at(math.inf))


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
    return CfpBreakdown.of(_Kernel(ChipKind.FPGA, apps, fpga, params, _hours(horizon)).at(math.inf))


# grid steps a timeline may have: at most this many + 2 rows (README "Library");
# the command line also caps a sweep axis's samples and a heatmap's cells at it
TIMELINE_MAX_STEPS = 20_000


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
    `chips` is as for the totals: the fleet's one spec, or the ASIC specs.
    """
    if step.value <= 0:
        raise ValueError("step must be positive")
    if not horizon.value / step.value <= TIMELINE_MAX_STEPS:  # checked before any allocation
        raise ValueError(f"horizon / step must be at most {TIMELINE_MAX_STEPS}, got "
                         f"{horizon.value:g} h / {step.value:g} h")
    kernel = _Kernel(kind, apps, chips, params, horizon.value)
    grid = [k * step.value for k in range(math.floor(horizon.value / step.value) + 1)]
    if grid[-1] < horizon.value:
        grid.append(horizon.value)
    return [TimelinePoint(t, kernel.at(t)) for t in grid]
