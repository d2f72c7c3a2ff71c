"""Parameter ingestion, validation, and the bundled testcase library.

Configuration documents are YAML with human-friendly units (GWh, months,
g CO2/kWh, MTCO2e per ton); this module converts them to canonical units,
rejects unknown keys outright, and applies the bundled defaults for anything
omitted. Warnings flag values that leave the published plausibility ranges
without being outright invalid.

One table, `params._FIELDS`, drives all of it: loading, `serialize` and
`validate` each walk its rows, and the parameter classes check their fields
against the same rows, so a field is spelled out once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, IO, Mapping

import yaml

from .chips import ChipKind, ChipSpec
from .errors import ParameterError
from .params import _CLASSES, _FIELDS, _UNITS, PackageParams, ParameterSet, _refusal
from .quantities import Duration, Power

_SECTION_KEYS = {section: tuple(row[0] for row in rows) for section, rows in _FIELDS.items()}
_SECTIONS = (*_SECTION_KEYS, "provenance")  # provenance: free-form section -> note
_NODE_KEYS = _SECTION_KEYS["nodes"]

_INTENSITY_CEILING_G_PER_KWH = 2000.0  # no real grid is dirtier than 2 kg/kWh
# the rows `validate` reads: a published range, or a carbon intensity under the ceiling
_CHECKED = {section: tuple(row for row in rows if row[5] or row[3] == "g/kWh")
            for section, rows in _FIELDS.items()}


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str


# libyaml's parser where PyYAML was built with it: the same documents, parsed several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse(stream: str | IO[str]) -> Any:
    """One YAML document; a malformed one is a one-line `ParameterError`."""
    try:
        return yaml.load(stream, Loader=_LOADER)
    except yaml.YAMLError as exc:
        problem = " ".join(str(exc).split())
        raise ParameterError(f"parameter document is not valid YAML: {problem}") from None


@functools.cache
def _parse_bundled(name: str) -> dict:
    """A bundled document, parsed once per process; callers must not modify it."""
    return _parse(resources.files("chipcarbon.data").joinpath(name).read_text(encoding="utf-8"))


def _check_keys(doc: Mapping[str, Any], allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(doc) - set(allowed), key=str)  # keys may mix str and int
    if unknown:
        raise ParameterError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(allowed)}"
        )


def _merge(defaults: dict, override: Mapping[str, Any]) -> dict:
    """`override` laid over `defaults` field by field; neither is modified."""
    merged = dict(defaults)
    for section, content in override.items():
        if content is None:
            continue
        if not isinstance(content, Mapping):
            raise ParameterError(f"{section}: expected a mapping of fields")
        if section != "nodes":
            if section in _SECTION_KEYS:
                _check_keys(content, _SECTION_KEYS[section], section)
            merged[section] = {**merged.get(section, {}), **content}
            continue
        nodes = merged["nodes"] = dict(merged["nodes"])
        for nm, fields in content.items():
            # per-node field merge; a brand-new node must be complete
            if isinstance(nm, bool) or not isinstance(nm, int):  # 10.0 would patch node 10
                raise ParameterError(f"nodes.<key>: expected an integer, got {nm!r}")
            if not isinstance(fields, Mapping):
                raise ParameterError(f"nodes.{nm}: expected a mapping of fields")
            _check_keys(fields, _NODE_KEYS, f"nodes.{nm}")
            nodes[nm] = {**nodes.get(nm, {}), **fields}
            missing = sorted(set(_NODE_KEYS) - set(nodes[nm]))
            if missing:
                raise ParameterError(
                    f"nodes.{nm}: new node is missing field(s): {', '.join(missing)}")
    return merged


def _field(raw: Any, path: str, kind, unit: str | None, hard: tuple, month: float) -> Any:
    """One document value, checked against its row and converted to canonical units."""
    why = _refusal(raw, kind, hard)
    if why:
        raise ParameterError(f"{path}: {why}")
    value = float(raw) if kind == "number" else raw
    if unit is None:
        return value
    cls, mul, div = _UNITS[unit]
    try:
        return cls(value * (month if mul is None else mul) / div)
    except ValueError as exc:  # a product beyond the float range
        raise ParameterError(f"{path}: {exc}") from exc


def _section(section: str, fields: Mapping[str, Any], path: str, month: float, **extra):
    """The `_CLASSES[section]` instance that a document section's fields describe."""
    values = extra
    for key, attr, kind, unit, hard, _ in _FIELDS[section]:  # the bundled defaults give each key
        values[attr] = _field(fields[key], f"{path}.{key}", kind, unit, hard, month)
    try:
        return _CLASSES[section](**values)
    except ValueError as exc:  # an invariant across fields, e.g. project_employees
        raise ParameterError(f"{path}: {exc}") from exc


def _build(doc: dict) -> ParameterSet:
    options = _section("options", doc["options"], "options", 0.0)
    month = options.hours_per_dev_month  # development months load in these hours
    built: dict[str, Any] = {"options": options}
    for section in _FIELDS:
        if section == "nodes":
            built["nodes"] = nodes = {}
            for nm, fields in doc["nodes"].items():
                nodes[nm] = _section("nodes", fields, f"nodes.{nm}", month, node_nm=nm)
        elif section != "options":
            built[section] = _section(section, doc[section], section, month)
    provenance = {str(k): str(v) for k, v in (doc.get("provenance") or {}).items()}
    return ParameterSet(**built, provenance=provenance)


def load_parameters(source: str | IO[str] | None = None) -> ParameterSet:
    """Load a parameter document, falling back to the bundled defaults.

    `source` may be a path, an open text stream, or None for defaults only.
    User documents override the defaults field by field; unknown keys are an
    error, and every out-of-range value is reported with its field path.
    """
    defaults = {**_parse_bundled("defaults.yaml"),
                "nodes": _parse_bundled("tech_nodes.yaml")["nodes"]}
    if source is None:
        return _build(defaults)
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            raw = _parse(fh)
    else:
        raw = _parse(source)
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ParameterError("parameter document must be a mapping at the top level")
    _check_keys(raw, _SECTIONS, "document")
    return _build(_merge(defaults, raw))


def serialize(params: ParameterSet) -> dict:
    """Render a ParameterSet back into document form (human units)."""
    month = params.options.hours_per_dev_month

    def fields(owner, rows) -> dict:
        doc = {}
        for key, attr, _, unit, _, _ in rows:
            value = getattr(owner, attr)
            if unit is not None:  # the inverse of `_field`'s conversion
                _, mul, div = _UNITS[unit]
                value = value.value * div / (month if mul is None else mul)
            doc[key] = value
        return doc

    doc = {section: ({nm: fields(n, rows) for nm, n in sorted(params.nodes.items())}
                     if section == "nodes" else fields(getattr(params, section), rows))
           for section, rows in _FIELDS.items()}
    doc["provenance"] = dict(params.provenance)
    return doc


def validate(params: ParameterSet) -> list[Finding]:
    """Plausibility findings for a structurally valid parameter set.

    Hard invariant violations (fractions outside [0,1], zero yield, negative
    quantities) are rejected earlier, at load time, with their field paths;
    this pass reports values that are legal but outside the published ranges
    (warnings) or carbon intensities above the plausibility ceiling (errors,
    in place of a warning). It reads the `serialize` form, in document units.
    """
    doc = serialize(params)
    owners = [(s, doc[s], rows) for s, rows in _CHECKED.items() if s != "nodes"]
    owners += [(f"nodes.{nm}", fields, _CHECKED["nodes"]) for nm, fields in doc["nodes"].items()]
    findings: list[Finding] = []
    for prefix, fields, rows in owners:
        for key, _, _, unit, _, published in rows:
            value = fields[key]
            if unit == "g/kWh" and value > _INTENSITY_CEILING_G_PER_KWH:
                findings.append(Finding(
                    "error", f"{prefix}.{key}",
                    f"carbon intensity {value:g} g/kWh exceeds the "
                    f"{_INTENSITY_CEILING_G_PER_KWH:g} g/kWh plausibility ceiling"))
            elif published and not published[0] <= value <= published[1]:
                findings.append(Finding(
                    "warning", f"{prefix}.{key}",
                    f"value {value:g} outside the published range "
                    f"[{published[0]:g}, {published[1]:g}]"))
    return findings


@dataclass(frozen=True)
class DomainTestcase:
    """Iso-performance platform pair for one application domain."""

    domain: str
    asic: ChipSpec
    fpga: ChipSpec
    default_app_size_gates: int

    def with_ratios(self, area_ratio: float, power_ratio: float) -> "DomainTestcase":
        """This pair with its FPGA's area and power set to the ASIC's times the ratios."""
        fpga = replace(self.fpga, area_mm2=self.asic.area_mm2 * area_ratio,
                       peak_power=Power(self.asic.peak_power.value * power_ratio))
        return replace(self, fpga=fpga)


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


def _chip(name: str, kind: ChipKind, entry: Mapping[str, Any], package: PackageParams) -> ChipSpec:
    """One chip entry of testcases.yaml: a domain's `baseline_asic` or an industry device."""
    return ChipSpec(
        name=name,
        kind=kind,
        area_mm2=float(entry["area_mm2"]),
        peak_power=Power(float(entry["power_w"])),
        gates=int(entry["gates"]),
        node_nm=int(entry["node_nm"]),
        package=package,
        chip_lifetime=Duration.from_years(float(entry["lifetime_years"])),
    )


def builtin_testcases(params: ParameterSet | None = None) -> TestcaseLibrary:
    """The bundled testcase library (domain pairs and industry chips)."""
    if params is None:
        params = load_parameters()
    doc = _parse_bundled("testcases.yaml")

    domains: dict[str, DomainTestcase] = {}
    for name, tc in doc["domains"].items():
        asic = _chip(f"{name}-ASIC", ChipKind.ASIC, tc["baseline_asic"], params.package)
        fpga = replace(asic, name=f"{name}-FPGA", kind=ChipKind.FPGA,
                       gates=int(tc["fpga_capacity_gates"]),
                       chip_lifetime=Duration.from_years(float(tc["fpga_lifetime_years"])))
        base = DomainTestcase(name, asic, fpga, int(tc["default_app_size_gates"]))
        domains[name] = base.with_ratios(float(tc["area_ratio"]), float(tc["power_ratio"]))
    industry = {name: _chip(name, ChipKind[tc["kind"]], tc, params.package)
                for name, tc in doc["industry"].items()}
    return TestcaseLibrary(domains=domains, industry_chips=industry)
