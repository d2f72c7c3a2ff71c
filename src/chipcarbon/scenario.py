"""Sweeps, crossover detection, and heatmaps.

Everything here is a pure function of its inputs: repeated runs produce
identical results, and every grid cell is computed by the same code path as
the corresponding one-dimensional sweep sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .breakdown import CfpBreakdown
from .chips import ApplicationProfile, ChipKind, ChipSpec
from .errors import ConsistencyError
from .lifecycle import ChipTerms, asic_total_cfp, fpga_total_cfp, run_totals
from .params import ParameterSet
from .quantities import Duration
from .store import DomainTestcase, TestcaseLibrary


class SweepVariable(enum.Enum):
    NUM_APPS = "NumApps"
    APP_LIFETIME = "AppLifetime"
    APP_VOLUME = "AppVolume"
    HORIZON = "Horizon"


def default_grid(variable: SweepVariable) -> tuple[float, ...]:
    """The stock sample grid for a sweep axis.

    Application count 1..8, lifetime 0.2..2.5 years in 0.1 steps, volume
    1e3..1e6 log-spaced over 25 points, horizon yearly out to 45 years.
    """
    if variable is SweepVariable.NUM_APPS:
        return tuple(float(n) for n in range(1, 9))
    if variable is SweepVariable.APP_LIFETIME:
        return tuple(round(0.2 + 0.1 * i, 10) for i in range(24))
    if variable is SweepVariable.APP_VOLUME:
        return tuple(float(round(10 ** (3 + i * 3.0 / 24))) for i in range(25))
    return tuple(float(y) for y in range(1, 46))


@dataclass(frozen=True)
class Scenario:
    """One fully-specified comparison setting for a workload domain."""

    domain: str
    n_app: int
    lifetime_years: float
    volume: int
    horizon_years: float | None = None

    def __post_init__(self) -> None:
        if self.n_app < 1:
            raise ValueError("n_app must be >= 1")
        if self.lifetime_years <= 0:
            raise ValueError("lifetime_years must be positive")
        if self.volume < 0:
            raise ValueError("volume must be >= 0")

    def schedule(self, testcase: DomainTestcase) -> list[ApplicationProfile]:
        """The scenario's applications: one entry of `n_app` identical ones."""
        return [ApplicationProfile(self.domain, testcase.default_app_size_gates,
                                   Duration.from_years(self.lifetime_years), self.volume,
                                   count=self.n_app)]


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVariable
    values: tuple[float, ...]
    fixed: Scenario

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sweep range must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep range must be strictly increasing")
        if self.variable is SweepVariable.NUM_APPS:
            for v in self.values:
                if v != int(v) or v < 1:
                    raise ValueError("NumApps samples must be positive integers")


@dataclass(frozen=True)
class SweepPoint:
    value: float
    fpga: CfpBreakdown
    asic: CfpBreakdown


@dataclass(frozen=True)
class CrossoverPoint:
    """A sign change of (FPGA total - ASIC total) along a sweep.

    A2F: the FPGA becomes the lower-carbon platform past this value.
    F2A: the FPGA loses its advantage past this value.
    """

    kind: str  # "A2F" | "F2A"
    value: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RatioGrid:
    """FPGA:ASIC total-carbon ratios over a pairwise parameter sweep."""

    x_variable: SweepVariable
    y_variable: SweepVariable
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    cells: tuple[tuple[float, ...], ...]  # cells[iy][ix]

    def unity_crossings(self) -> list[tuple[float, float]]:
        """(y, interpolated x) points where a row's ratio crosses 1.0."""
        crossings = []
        for iy, y in enumerate(self.y_values):
            row = self.cells[iy]
            for ix in range(len(row) - 1):
                a, b = row[ix] - 1.0, row[ix + 1] - 1.0
                if a == 0.0 or (a < 0.0) == (b < 0.0):
                    continue
                x0, x1 = self.x_values[ix], self.x_values[ix + 1]
                crossings.append((y, x0 + (x1 - x0) * (-a) / (b - a)))
        return crossings


# A scenario in plain values: [apps, lifetime h, volume, size in gates, horizon h]
_FIELD = {SweepVariable.NUM_APPS: 0, SweepVariable.APP_LIFETIME: 1,
          SweepVariable.APP_VOLUME: 2, SweepVariable.HORIZON: 4}


def _sample(scenario: Scenario, library: TestcaseLibrary) -> list:
    """The scenario in plain values, checked as its schedule and horizon are built."""
    [app] = scenario.schedule(library.domain(scenario.domain))
    horizon = scenario.horizon_years
    return [app.count, app.lifetime.value, app.volume, app.size_gates,
            None if horizon is None else Duration.from_years(horizon).value]


def _totals(sample: Sequence, fpga: ChipTerms,
            asic: ChipTerms) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both platforms' component kg of one plain sample, as (FPGA, ASIC)."""
    n_app, lifetime_h, volume, size, horizon_h = sample
    return (run_totals([(n_app, lifetime_h, volume, size, None, fpga)], fpga, horizon_h),
            run_totals([(n_app, lifetime_h, volume, size, None, asic)], None, horizon_h))


def _terms(domain: str, params: ParameterSet, library: TestcaseLibrary) -> tuple[ChipTerms, ...]:
    """The (FPGA, ASIC) terms of a domain, built once per query."""
    testcase = library.domain(domain)
    return ChipTerms(testcase.fpga, params), ChipTerms(testcase.asic, params)


def evaluate_scenario(
    scenario: Scenario, params: ParameterSet, library: TestcaseLibrary
) -> tuple[CfpBreakdown, CfpBreakdown]:
    """Both platforms' totals for one scenario, as (FPGA, ASIC)."""
    sample = _sample(scenario, library)
    fpga, asic = _totals(sample, *_terms(scenario.domain, params, library))
    return CfpBreakdown.of(fpga), CfpBreakdown.of(asic)


def estimate_platform(
    chip: ChipSpec,
    n_app: int,
    lifetime_years: float,
    volume: int,
    params: ParameterSet,
    horizon_years: float | None = None,
) -> CfpBreakdown:
    """Single-platform estimate: run `n_app` chip-sized applications in turn."""
    schedule = [ApplicationProfile(chip.name, chip.gates, Duration.from_years(lifetime_years),
                                   volume, count=n_app)]
    horizon = Duration.from_years(horizon_years) if horizon_years is not None else None
    if chip.kind is ChipKind.FPGA:
        return fpga_total_cfp(schedule, chip, params, horizon)
    return asic_total_cfp(schedule, chip, params, horizon)


def _apply(scenario: Scenario, variable: SweepVariable, value: float) -> Scenario:
    if variable is SweepVariable.NUM_APPS:
        return replace(scenario, n_app=int(value))
    if variable is SweepVariable.APP_LIFETIME:
        return replace(scenario, lifetime_years=float(value))
    if variable is SweepVariable.APP_VOLUME:
        return replace(scenario, volume=int(round(value)))
    return replace(scenario, horizon_years=float(value))


def _axis(fixed: Scenario, variable: SweepVariable, values: Sequence[float],
          library: TestcaseLibrary) -> list[list]:
    """`fixed` at every axis value, in plain values; each value is checked once."""
    return [_sample(_apply(fixed, variable, value), library) for value in values]


def sweep(spec: SweepSpec, params: ParameterSet, library: TestcaseLibrary) -> list[SweepPoint]:
    """Evaluate both platforms at every sample of a one-dimensional sweep."""
    samples = _axis(spec.fixed, spec.variable, spec.values, library)
    terms = _terms(spec.fixed.domain, params, library)
    points = []
    for value, sample in zip(spec.values, samples):
        fpga, asic = _totals(sample, *terms)
        points.append(SweepPoint(float(value), CfpBreakdown.of(fpga), CfpBreakdown.of(asic)))
    return points


def find_crossovers(
    points: Sequence[SweepPoint],
    variable: SweepVariable,
    tie_rel_tol: float = 1e-9,
) -> list[CrossoverPoint]:
    """Locate every sign change of (FPGA - ASIC) between adjacent samples.

    Ties within the relative tolerance count as FPGA-favored. Crossovers on
    the integer NumApps axis report the first sample past the change;
    continuous axes interpolate the root linearly inside the bracket (exact
    wherever the totals are linear in the swept variable, which they are for
    lifetime and volume under the default models).
    """
    if len(points) < 2:
        return []

    def fpga_favored(p: SweepPoint) -> bool:
        diff = p.fpga.total.value - p.asic.total.value
        scale = max(abs(p.fpga.total.value), abs(p.asic.total.value), 1.0)
        return diff <= tie_rel_tol * scale

    crossovers = []
    for left, right in zip(points, points[1:]):
        lf, rf = fpga_favored(left), fpga_favored(right)
        if lf == rf:
            continue
        kind = "A2F" if rf else "F2A"
        if variable is SweepVariable.NUM_APPS:
            value = right.value
        else:
            dl = left.fpga.total.value - left.asic.total.value
            dr = right.fpga.total.value - right.asic.total.value
            if (dl <= 0.0) != (dr <= 0.0):
                value = left.value + (right.value - left.value) * (-dl) / (dr - dl)
            else:
                # the flip came from the tie band, so the root is at the tied
                # sample itself; interpolating would leave the bracket
                value = left.value if lf else right.value
        crossovers.append(CrossoverPoint(kind, value, (left.value, right.value)))
    return crossovers


def heatmap(
    x_variable: SweepVariable,
    x_values: Sequence[float],
    y_variable: SweepVariable,
    y_values: Sequence[float],
    fixed: Scenario,
    params: ParameterSet,
    library: TestcaseLibrary,
) -> RatioGrid:
    """Pairwise sweep of FPGA:ASIC total ratios with the third variable fixed."""
    if x_variable is y_variable:
        raise ValueError("heatmap axes must sweep distinct variables")
    SweepSpec(x_variable, tuple(x_values), fixed)  # reuse range validation
    SweepSpec(y_variable, tuple(y_values), fixed)
    # checked in the order a cell-by-cell build meets them (the first y, every x, the
    # other ys), so the first invalid sample is the one reported
    ys = _axis(fixed, y_variable, y_values[:1], library)
    xs = _axis(fixed, x_variable, x_values, library)
    ys += _axis(fixed, y_variable, y_values[1:], library)
    terms = _terms(fixed.domain, params, library)
    ix_field = _FIELD[x_variable]
    rows = []
    for y, sample in zip(y_values, ys):
        sample = list(sample)
        row = []
        for x, x_sample in zip(x_values, xs):
            sample[ix_field] = x_sample[ix_field]
            fpga, asic = (sum(b) for b in _totals(sample, *terms))  # as CfpBreakdown.total
            if asic <= 0.0 or not math.isfinite(fpga / asic):
                raise ConsistencyError(
                    f"non-finite or non-positive ratio at ({x_variable.value}={x}, "
                    f"{y_variable.value}={y})"
                )
            row.append(fpga / asic)
        rows.append(tuple(row))
    return RatioGrid(x_variable, y_variable, tuple(float(v) for v in x_values),
                     tuple(float(v) for v in y_values), tuple(rows))

