"""Unit-carrying scalar quantities shared by all carbon models.

Internal math runs in one canonical unit system: kilograms of CO2-equivalent,
kilowatt-hours, watts, and hours. Configuration files speak human units
(g CO2/kWh, GWh, months, years, metric tons CO2e per ton); the parameter loader
converts those once, through its unit table (`params._UNITS`), so no model
formula ever mixes units. The only named conversions here are for the
command-line and scenario boundary: `CarbonMass.kg` and `Duration.from_years`
/ `to_years`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteError

HOURS_PER_YEAR = 8760.0


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} must be finite, got {value!r}")


def _require_non_negative(name: str, value: float) -> None:
    _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class CarbonMass:
    """Mass of CO2-equivalent emissions in kilograms.

    A negative value is legal only for the end-of-life recycling credit, which
    is why the bare constructor admits it. Use :meth:`kg` everywhere else so an
    accidental negative fails fast.
    """

    value: float

    def __post_init__(self) -> None:
        _require_finite("CarbonMass", self.value)

    @classmethod
    def kg(cls, value: float) -> "CarbonMass":
        _require_non_negative("CarbonMass", value)
        return cls(value)

    def __add__(self, other: "CarbonMass") -> "CarbonMass":
        return CarbonMass(self.value + other.value)


@dataclass(frozen=True)
class Energy:
    """Electric energy in kilowatt-hours."""

    value: float

    def __post_init__(self) -> None:
        _require_non_negative("Energy", self.value)


@dataclass(frozen=True)
class CarbonIntensity:
    """Carbon intensity of an energy source in kg CO2e per kWh.

    The type only enforces non-negativity; the plausibility ceiling
    (2.0 kg/kWh) is a configuration-validation concern, not a type invariant.
    """

    value: float

    def __post_init__(self) -> None:
        _require_non_negative("CarbonIntensity", self.value)


@dataclass(frozen=True)
class Power:
    """Electrical power in watts (TDP / peak power for chips)."""

    value: float

    def __post_init__(self) -> None:
        _require_non_negative("Power", self.value)


@dataclass(frozen=True)
class Duration:
    """A span of time in hours."""

    value: float

    def __post_init__(self) -> None:
        _require_non_negative("Duration", self.value)

    @classmethod
    def from_years(cls, years: float) -> "Duration":
        _require_non_negative("years", years)
        return cls(years * HOURS_PER_YEAR)

    def to_years(self) -> float:
        return self.value / HOURS_PER_YEAR
