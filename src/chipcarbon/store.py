"""Parameter ingestion, validation, and the bundled testcase library.

Configuration documents are YAML with human-friendly units (GWh, months,
g CO2/kWh, MTCO2e per ton); this module converts them to canonical units,
rejects unknown keys outright, and applies the bundled defaults for anything
omitted. Warnings flag values that leave the published plausibility ranges
without being outright invalid.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from importlib import resources
from typing import Any, IO, Mapping

import yaml

from .chips import ChipKind, ChipSpec
from .errors import ParameterError
from .params import (
    AppDevParams,
    DesignHouseParams,
    EolParams,
    MaterialsParams,
    OperationParams,
    Options,
    PackageParams,
    ParameterSet,
    TechNodeParams,
)
from .quantities import CarbonIntensity, CarbonMass, Duration, Energy, Power

_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "design": (
        "annual_energy_gwh", "grid_intensity_g_per_kwh", "total_employees",
        "project_employees", "avg_gates_per_chip", "project_duration_years",
    ),
    "nodes": (),  # node numbers, validated separately
    "eol": ("recycle_fraction", "discard_mt_per_ton", "recycle_mt_per_ton",
            "chip_mass_g_per_mm2"),
    "package": ("carbon_per_package_kg",),
    "materials": ("recycled_fraction",),
    "appdev": ("frontend_months", "backend_months", "config_hours_fpga",
               "config_hours_asic", "dev_power_w", "dev_grid_intensity_g_per_kwh"),
    "operation": ("duty_cycle", "use_grid_intensity_g_per_kwh"),
    "options": ("appdev_scaling", "hours_per_dev_month", "replacement_reprogramming",
                "breakdown_rel_tol", "crossover_tie_rel_tol"),
    "provenance": (),  # free-form section -> note
}

_NODE_KEYS = (
    "energy_per_mm2_kwh", "gas_per_mm2_kg", "materials_new_per_mm2_kg",
    "materials_recycled_per_mm2_kg", "yield", "fab_intensity_g_per_kwh",
)

# Published plausibility ranges used for soft validation, in document units.
_WARN_RANGES = {
    "design.annual_energy_gwh": (2.0, 7.3),
    "design.grid_intensity_g_per_kwh": (30.0, 700.0),
    "design.project_duration_years": (1.0, 3.0),
    "eol.discard_mt_per_ton": (0.03, 2.08),
    "eol.recycle_mt_per_ton": (7.65, 29.83),
    "appdev.frontend_months": (1.5, 2.5),
    "appdev.backend_months": (0.5, 1.5),
}

_INTENSITY_CEILING_G_PER_KWH = 2000.0  # no real grid is dirtier than 2 kg/kWh


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str


@functools.cache
def _parse_bundled(name: str) -> dict:
    text = resources.files("chipcarbon.data").joinpath(name).read_text(encoding="utf-8")
    return yaml.safe_load(text)


def _read_bundled(name: str) -> dict:
    """A bundled document, parsed once per process; each caller gets its own copy."""
    return copy.deepcopy(_parse_bundled(name))


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"{path}: expected true or false, got {value!r}")
    return value


def _check_keys(doc: Mapping[str, Any], allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ParameterError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(allowed)}"
        )


def _merge(defaults: dict, override: Mapping[str, Any]) -> dict:
    merged = copy.deepcopy(defaults)
    for section, content in override.items():
        if content is None:
            continue
        if not isinstance(content, Mapping):
            raise ParameterError(f"{section}: expected a mapping of fields")
        merged.setdefault(section, {})
        for key, value in content.items():
            if section == "nodes":
                # per-node field merge; a brand-new node must be complete
                if not isinstance(value, Mapping):
                    raise ParameterError(f"nodes.{key}: expected a mapping of fields")
                merged[section].setdefault(key, {})
                merged[section][key].update(value)
            else:
                merged[section][key] = value
    return merged


def _build(doc: dict) -> ParameterSet:
    _check_keys(doc, tuple(_SECTION_KEYS), "document")

    d = doc.get("design", {})
    _check_keys(d, _SECTION_KEYS["design"], "design")
    o = doc.get("options", {})
    _check_keys(o, _SECTION_KEYS["options"], "options")
    try:
        options = Options(
            appdev_scaling=o.get("appdev_scaling", "one_time"),
            hours_per_dev_month=_as_number(o.get("hours_per_dev_month", 730.0),
                                           "options.hours_per_dev_month"),
            replacement_reprogramming=_as_bool(o.get("replacement_reprogramming", False),
                                               "options.replacement_reprogramming"),
            breakdown_rel_tol=_as_number(o.get("breakdown_rel_tol", 1e-9),
                                         "options.breakdown_rel_tol"),
            crossover_tie_rel_tol=_as_number(o.get("crossover_tie_rel_tol", 1e-9),
                                             "options.crossover_tie_rel_tol"),
        )

        design = DesignHouseParams(
            annual_energy=Energy.from_gwh(_as_number(d["annual_energy_gwh"],
                                                     "design.annual_energy_gwh")),
            grid_intensity=CarbonIntensity.from_g_per_kwh(
                _as_number(d["grid_intensity_g_per_kwh"], "design.grid_intensity_g_per_kwh")),
            total_employees=_as_int(d["total_employees"], "design.total_employees"),
            project_employees=_as_int(d["project_employees"], "design.project_employees"),
            avg_gates_per_chip=_as_int(d["avg_gates_per_chip"], "design.avg_gates_per_chip"),
            project_duration=Duration.from_years(
                _as_number(d["project_duration_years"], "design.project_duration_years")),
        )

        nodes: dict[int, TechNodeParams] = {}
        for raw_nm, fields in doc.get("nodes", {}).items():
            nm = _as_int(raw_nm, "nodes.<key>")
            path = f"nodes.{nm}"
            _check_keys(fields, _NODE_KEYS, path)

            def per_area(key: str) -> float:
                value = _as_number(fields[key], f"{path}.{key}")
                if value < 0:
                    raise ParameterError(f"{path}.{key}: must be non-negative, got {value!r}")
                return value

            yield_fraction = _as_number(fields["yield"], f"{path}.yield")
            if not 0.0 < yield_fraction <= 1.0:
                raise ParameterError(
                    f"{path}.yield: must be in (0, 1], got {yield_fraction!r}")
            nodes[nm] = TechNodeParams(
                node_nm=nm,
                energy_per_mm2=per_area("energy_per_mm2_kwh"),
                gas_per_mm2=per_area("gas_per_mm2_kg"),
                materials_new_per_mm2=per_area("materials_new_per_mm2_kg"),
                materials_recycled_per_mm2=per_area("materials_recycled_per_mm2_kg"),
                yield_fraction=yield_fraction,
                fab_intensity=CarbonIntensity.from_g_per_kwh(
                    per_area("fab_intensity_g_per_kwh")),
            )

        e = doc.get("eol", {})
        _check_keys(e, _SECTION_KEYS["eol"], "eol")
        eol = EolParams(
            recycle_fraction=_as_number(e["recycle_fraction"], "eol.recycle_fraction"),
            discard_intensity=_as_number(e["discard_mt_per_ton"], "eol.discard_mt_per_ton"),
            recycle_intensity=_as_number(e["recycle_mt_per_ton"], "eol.recycle_mt_per_ton"),
            mass_per_mm2_g=_as_number(e["chip_mass_g_per_mm2"], "eol.chip_mass_g_per_mm2"),
        )

        p = doc.get("package", {})
        _check_keys(p, _SECTION_KEYS["package"], "package")
        package = PackageParams(CarbonMass.kg(
            _as_number(p["carbon_per_package_kg"], "package.carbon_per_package_kg")))

        m = doc.get("materials", {})
        _check_keys(m, _SECTION_KEYS["materials"], "materials")
        materials = MaterialsParams(
            recycled_fraction=_as_number(m["recycled_fraction"], "materials.recycled_fraction"))

        a = doc.get("appdev", {})
        _check_keys(a, _SECTION_KEYS["appdev"], "appdev")
        month = options.hours_per_dev_month
        appdev = AppDevParams(
            frontend_time=Duration.from_months(
                _as_number(a["frontend_months"], "appdev.frontend_months"), month),
            backend_time=Duration.from_months(
                _as_number(a["backend_months"], "appdev.backend_months"), month),
            config_time_fpga=Duration.hours(
                _as_number(a["config_hours_fpga"], "appdev.config_hours_fpga")),
            config_time_asic=Duration.hours(
                _as_number(a["config_hours_asic"], "appdev.config_hours_asic")),
            dev_power=Power.watts(_as_number(a["dev_power_w"], "appdev.dev_power_w")),
            dev_grid_intensity=CarbonIntensity.from_g_per_kwh(
                _as_number(a["dev_grid_intensity_g_per_kwh"],
                           "appdev.dev_grid_intensity_g_per_kwh")),
        )

        op = doc.get("operation", {})
        _check_keys(op, _SECTION_KEYS["operation"], "operation")
        operation_params = OperationParams(
            duty_cycle=_as_number(op["duty_cycle"], "operation.duty_cycle"),
            use_grid_intensity=CarbonIntensity.from_g_per_kwh(
                _as_number(op["use_grid_intensity_g_per_kwh"],
                           "operation.use_grid_intensity_g_per_kwh")),
        )
    except KeyError as exc:
        raise ParameterError(f"missing required field: {exc.args[0]}") from exc
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc

    provenance = {str(k): str(v) for k, v in (doc.get("provenance") or {}).items()}
    return ParameterSet(
        design=design, nodes=nodes, eol=eol, package=package, materials=materials,
        appdev=appdev, operation=operation_params, options=options, provenance=provenance,
    )


def load_parameters(source: str | IO[str] | None = None) -> ParameterSet:
    """Load a parameter document, falling back to the bundled defaults.

    `source` may be a path, an open text stream, or None for defaults only.
    User documents override the defaults field by field; unknown keys are an
    error, and every out-of-range value is reported with its field path.
    """
    defaults = _read_bundled("defaults.yaml")
    defaults["nodes"] = _read_bundled("tech_nodes.yaml")["nodes"]

    if source is None:
        merged = defaults
    else:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        else:
            raw = yaml.safe_load(source)
        if raw is None:
            raw = {}
        if not isinstance(raw, Mapping):
            raise ParameterError("parameter document must be a mapping at the top level")
        _check_keys(raw, tuple(_SECTION_KEYS), "document")
        merged = _merge(defaults, raw)
        for nm, fields in (raw.get("nodes") or {}).items():
            if not isinstance(fields, Mapping):
                raise ParameterError(f"nodes.{nm}: expected a mapping of fields")
            missing = sorted(set(_NODE_KEYS) - set(merged["nodes"].get(nm, {})))
            if missing:
                raise ParameterError(
                    f"nodes.{nm}: new node is missing field(s): {', '.join(missing)}")

    return _build(merged)


def serialize(params: ParameterSet) -> dict:
    """Render a ParameterSet back into document form (human units)."""
    return {
        "design": {
            "annual_energy_gwh": params.design.annual_energy.value / 1e6,
            "grid_intensity_g_per_kwh": params.design.grid_intensity.to_g_per_kwh(),
            "total_employees": params.design.total_employees,
            "project_employees": params.design.project_employees,
            "avg_gates_per_chip": params.design.avg_gates_per_chip,
            "project_duration_years": params.design.project_duration.to_years(),
        },
        "nodes": {
            nm: {
                "energy_per_mm2_kwh": n.energy_per_mm2,
                "gas_per_mm2_kg": n.gas_per_mm2,
                "materials_new_per_mm2_kg": n.materials_new_per_mm2,
                "materials_recycled_per_mm2_kg": n.materials_recycled_per_mm2,
                "yield": n.yield_fraction,
                "fab_intensity_g_per_kwh": n.fab_intensity.to_g_per_kwh(),
            }
            for nm, n in sorted(params.nodes.items())
        },
        "eol": {
            "recycle_fraction": params.eol.recycle_fraction,
            "discard_mt_per_ton": params.eol.discard_intensity,
            "recycle_mt_per_ton": params.eol.recycle_intensity,
            "chip_mass_g_per_mm2": params.eol.mass_per_mm2_g,
        },
        "package": {"carbon_per_package_kg": params.package.carbon_per_package.value},
        "materials": {"recycled_fraction": params.materials.recycled_fraction},
        "appdev": {
            "frontend_months": params.appdev.frontend_time.value / params.options.hours_per_dev_month,
            "backend_months": params.appdev.backend_time.value / params.options.hours_per_dev_month,
            "config_hours_fpga": params.appdev.config_time_fpga.value,
            "config_hours_asic": params.appdev.config_time_asic.value,
            "dev_power_w": params.appdev.dev_power.value,
            "dev_grid_intensity_g_per_kwh": params.appdev.dev_grid_intensity.to_g_per_kwh(),
        },
        "operation": {
            "duty_cycle": params.operation.duty_cycle,
            "use_grid_intensity_g_per_kwh": params.operation.use_grid_intensity.to_g_per_kwh(),
        },
        "options": {
            "appdev_scaling": params.options.appdev_scaling,
            "hours_per_dev_month": params.options.hours_per_dev_month,
            "replacement_reprogramming": params.options.replacement_reprogramming,
            "breakdown_rel_tol": params.options.breakdown_rel_tol,
            "crossover_tie_rel_tol": params.options.crossover_tie_rel_tol,
        },
        "provenance": dict(params.provenance),
    }


def validate(params: ParameterSet) -> list[Finding]:
    """Plausibility findings for a structurally valid parameter set.

    Hard invariant violations (fractions outside [0,1], zero yield, negative
    quantities) are rejected earlier, at load time, with their field paths;
    this pass reports values that are legal but outside the published ranges
    (warnings) or physically implausible (errors).
    """
    findings: list[Finding] = []
    doc = serialize(params)

    for path, (lo, hi) in _WARN_RANGES.items():
        section, key = path.split(".")
        value = doc[section][key]
        if not lo <= value <= hi:
            findings.append(Finding(
                "warning", path,
                f"value {value:g} outside the published range [{lo:g}, {hi:g}]"))

    intensity_paths = [
        ("design.grid_intensity_g_per_kwh", doc["design"]["grid_intensity_g_per_kwh"]),
        ("appdev.dev_grid_intensity_g_per_kwh", doc["appdev"]["dev_grid_intensity_g_per_kwh"]),
        ("operation.use_grid_intensity_g_per_kwh", doc["operation"]["use_grid_intensity_g_per_kwh"]),
    ] + [
        (f"nodes.{nm}.fab_intensity_g_per_kwh", n["fab_intensity_g_per_kwh"])
        for nm, n in doc["nodes"].items()
    ]
    for path, value in intensity_paths:
        if value > _INTENSITY_CEILING_G_PER_KWH:
            findings.append(Finding(
                "error", path,
                f"carbon intensity {value:g} g/kWh exceeds the {_INTENSITY_CEILING_G_PER_KWH:g} "
                f"g/kWh plausibility ceiling"))
        elif path.startswith(("operation.", "appdev.")) and not 30.0 <= value <= 700.0:
            findings.append(Finding(
                "warning", path,
                f"value {value:g} outside the published range [30, 700]"))
    return findings


@dataclass(frozen=True)
class DomainTestcase:
    """Iso-performance platform pair for one application domain."""

    domain: str
    area_ratio: float
    power_ratio: float
    asic: ChipSpec
    fpga: ChipSpec
    default_app_size_gates: int


@dataclass(frozen=True)
class TestcaseLibrary:
    domains: dict[str, DomainTestcase]
    industry_chips: dict[str, ChipSpec]

    def domain(self, name: str) -> DomainTestcase:
        try:
            return self.domains[name]
        except KeyError:
            known = ", ".join(sorted(self.domains))
            raise KeyError(f"unknown domain {name!r} (available: {known})") from None

    def industry(self, name: str) -> ChipSpec:
        try:
            return self.industry_chips[name]
        except KeyError:
            known = ", ".join(sorted(self.industry_chips))
            raise KeyError(f"unknown testcase {name!r} (available: {known})") from None


def builtin_testcases(params: ParameterSet | None = None) -> TestcaseLibrary:
    """The bundled testcase library (domain pairs and industry chips)."""
    if params is None:
        params = load_parameters()
    doc = _read_bundled("testcases.yaml")

    domains: dict[str, DomainTestcase] = {}
    for name, tc in doc["domains"].items():
        base = tc["baseline_asic"]
        asic = ChipSpec(
            name=f"{name}-ASIC",
            kind=ChipKind.ASIC,
            area_mm2=float(base["area_mm2"]),
            peak_power=Power.watts(float(base["power_w"])),
            gates=int(base["gates"]),
            node_nm=int(base["node_nm"]),
            package=params.package,
            chip_lifetime=Duration.from_years(float(base["lifetime_years"])),
        )
        fpga = ChipSpec(
            name=f"{name}-FPGA",
            kind=ChipKind.FPGA,
            area_mm2=asic.area_mm2 * float(tc["area_ratio"]),
            peak_power=Power.watts(asic.peak_power.value * float(tc["power_ratio"])),
            gates=int(tc["fpga_capacity_gates"]),
            node_nm=asic.node_nm,
            package=params.package,
            chip_lifetime=Duration.from_years(float(tc["fpga_lifetime_years"])),
        )
        domains[name] = DomainTestcase(
            domain=name,
            area_ratio=float(tc["area_ratio"]),
            power_ratio=float(tc["power_ratio"]),
            asic=asic,
            fpga=fpga,
            default_app_size_gates=int(tc["default_app_size_gates"]),
        )

    industry: dict[str, ChipSpec] = {}
    for name, tc in doc["industry"].items():
        industry[name] = ChipSpec(
            name=name,
            kind=ChipKind[tc["kind"]],
            area_mm2=float(tc["area_mm2"]),
            peak_power=Power.watts(float(tc["power_w"])),
            gates=int(tc["gates"]),
            node_nm=int(tc["node_nm"]),
            package=params.package,
            chip_lifetime=Duration.from_years(float(tc["lifetime_years"])),
        )
    return TestcaseLibrary(domains=domains, industry_chips=industry)
