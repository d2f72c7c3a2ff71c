"""Per-component carbon results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .quantities import CarbonMass

COMPONENTS = ("design", "manufacturing", "packaging", "eol", "app_dev", "operational")


@dataclass(frozen=True)
class CfpBreakdown:
    """Carbon footprint split into its six lifecycle components.

    `eol` may be negative (net recycling credit); everything else is
    non-negative. The total is always derived, never stored.
    """

    design: CarbonMass
    manufacturing: CarbonMass
    packaging: CarbonMass
    eol: CarbonMass
    app_dev: CarbonMass
    operational: CarbonMass

    @classmethod
    def of(cls, values: Iterable[float]) -> "CfpBreakdown":
        """A breakdown of plain kg values in `COMPONENTS` order."""
        return cls(*(CarbonMass(x) for x in values))

    @property
    def total(self) -> CarbonMass:
        return CarbonMass(sum(getattr(self, c).value for c in COMPONENTS))

    @property
    def embodied(self) -> CarbonMass:
        """Design + manufacturing + packaging + EOL (everything except use)."""
        return self.design + self.manufacturing + self.packaging + self.eol

    @property
    def deployment(self) -> CarbonMass:
        return self.app_dev + self.operational

    def __add__(self, other: "CfpBreakdown") -> "CfpBreakdown":
        return CfpBreakdown(*(getattr(self, c) + getattr(other, c) for c in COMPONENTS))

    def as_dict(self) -> dict[str, float]:
        d = {c: getattr(self, c).value for c in COMPONENTS}
        d["total"] = self.total.value
        return d
