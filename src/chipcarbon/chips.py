"""Chip and workload descriptions."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .params import PackageParams
from .quantities import Duration, Power


class ChipKind(enum.Enum):
    ASIC = "ASIC"
    FPGA = "FPGA"


@dataclass(frozen=True)
class ChipSpec:
    """One silicon platform.

    `gates` is the logic-gate count of the design for ASICs. For FPGAs it is
    the device's effective logic capacity in application-equivalent gates, and
    doubles as the design-complexity input of the design-phase model.
    """

    name: str
    kind: ChipKind
    area_mm2: float
    peak_power: Power
    gates: int
    node_nm: int
    package: PackageParams
    chip_lifetime: Duration

    def __post_init__(self) -> None:
        if self.area_mm2 <= 0:
            raise ValueError(f"{self.name}: area_mm2 must be positive")
        if self.gates < 1:
            raise ValueError(f"{self.name}: gates must be >= 1")
        if self.chip_lifetime.value <= 0:
            raise ValueError(f"{self.name}: chip_lifetime must be positive")


@dataclass(frozen=True)
class ApplicationProfile:
    """`count` back-to-back applications with the same workload (one by default).

    `volume` may be zero to model a design that is never deployed (nothing is
    manufactured, operated, or configured; only design carbon remains).
    `duty_cycle` of None defers to the global operation parameters. Slot i of
    an entry starts at the entry's start plus i * lifetime, and the next entry
    starts where slot `count` would; `name` only labels error messages.
    """

    name: str
    size_gates: int
    lifetime: Duration
    volume: int
    duty_cycle: float | None = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.size_gates < 1:
            raise ValueError(f"{self.name}: size_gates must be >= 1")
        if self.lifetime.value <= 0:
            raise ValueError(f"{self.name}: lifetime must be positive")
        if self.volume < 0:
            raise ValueError(f"{self.name}: volume must be >= 0")
        if self.duty_cycle is not None and not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError(f"{self.name}: duty_cycle must be in [0, 1]")
        if self.count < 0:
            raise ValueError(f"{self.name}: count must be >= 0")
