import copy
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from importlib import resources

from chipcarbon.errors import ParameterError
from chipcarbon.quantities import CarbonIntensity, Duration, Energy
from chipcarbon.store import (
    _FIELDS, _NODE_KEYS, _SECTION_KEYS, _UNITS, Finding, _parse_bundled, load_parameters,
    serialize, validate,
)

from conftest import params_with


class TestLoadDefaults:
    def test_empty_document_is_defaults_verbatim(self, params):
        assert load_parameters(io.StringIO("")) == params

    def test_defaults_validate_clean(self, params):
        assert validate(params) == []

    def test_bundled_nodes_present(self, params):
        assert sorted(params.nodes) == [7, 10, 12, 14, 28]

    def test_provenance_preserved(self, params):
        assert "nodes" in params.provenance
        assert "calibration" in params.provenance["testcases"]


class TestOverrides:
    @pytest.mark.parametrize("raw", ['"false"', '"true"', "0", "1", "no_such_flag"])
    def test_replacement_reprogramming_needs_a_yaml_boolean(self, raw):
        # bool("false") is True, so a quoted string used to switch the option on
        with pytest.raises(ParameterError, match="options.replacement_reprogramming"):
            params_with(f"options:\n  replacement_reprogramming: {raw}\n")

    def test_replacement_reprogramming_yaml_booleans(self):
        for raw, expected in (("false", False), ("true", True), ("no", False)):
            p = params_with(f"options:\n  replacement_reprogramming: {raw}\n")
            assert p.options.replacement_reprogramming is expected

    def test_field_override_keeps_other_defaults(self, params):
        p = params_with("operation:\n  duty_cycle: 0.5\n")
        assert p.operation.duty_cycle == 0.5
        assert p.design == params.design

    def test_upper_bound_recycle_rate_accepted(self):
        p = params_with("eol:\n  recycle_mt_per_ton: 29.83\n")
        assert p.eol.recycle_intensity == 29.83
        assert validate(p) == []

    def test_unknown_section_rejected(self):
        with pytest.raises(ParameterError, match="unknown key.*'typo_section'"):
            params_with("typo_section:\n  x: 1\n")

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ParameterError, match="eol"):
            params_with("eol:\n  recycle_fractoin: 0.5\n")

    def test_zero_yield_rejected_with_field_path(self):
        with pytest.raises(ParameterError, match=r"nodes\.10\.yield"):
            params_with("nodes:\n  10:\n    yield: 0.0\n")

    def test_delta_out_of_range_rejected_with_path(self):
        with pytest.raises(ParameterError, match="recycle_fraction"):
            params_with("eol:\n  recycle_fraction: 1.5\n")

    def test_new_node_requires_all_fields(self):
        with pytest.raises(ParameterError, match=r"nodes\.5.*missing"):
            params_with("nodes:\n  5:\n    yield: 0.9\n")

    def test_new_node_fully_specified_works(self):
        p = params_with("""
nodes:
  5:
    energy_per_mm2_kwh: 0.024
    gas_per_mm2_kg: 0.0033
    materials_new_per_mm2_kg: 0.0065
    materials_recycled_per_mm2_kg: 0.0026
    yield: 0.75
    fab_intensity_g_per_kwh: 490
""")
        assert p.nodes[5].yield_fraction == 0.75

    def test_node_override_does_not_leak_into_later_loads(self, params, tmp_path):
        bundled = copy.deepcopy(_parse_bundled("tech_nodes.yaml"))
        doc = tmp_path / "nodes.yaml"
        doc.write_text("nodes:\n  7:\n    yield: 0.5\n  5:\n"
                       + "".join(f"    {key}: 0.1\n" for key in _NODE_KEYS))
        custom = load_parameters(str(doc))
        assert custom.nodes[7].yield_fraction == 0.5 and 5 in custom.nodes
        assert _parse_bundled("tech_nodes.yaml") == bundled  # a load modifies no parsed file
        assert load_parameters() == params

    def test_boolean_not_accepted_as_number(self):
        with pytest.raises(ParameterError, match="duty_cycle"):
            params_with("operation:\n  duty_cycle: true\n")

    def test_dev_month_override_changes_hours(self):
        p = params_with("options:\n  hours_per_dev_month: 160.0\n")
        assert p.appdev.frontend_time.value == 2.0 * 160.0


# Refusals: (document, the exact error line). Each line names its field path.
REFUSALS = [
    *((f"options:\n  replacement_reprogramming: {raw}\n",
       f"options.replacement_reprogramming: expected true or false, got {shown}")
      for raw, shown in (('"false"', "'false'"), ('"true"', "'true'"), ("0", "0"), ("1", "1"),
                         ("no_such_flag", "'no_such_flag'"))),
    ("typo_section:\n  x: 1\n",
     "document: unknown key(s) 'typo_section'; accepted: design, nodes, eol, package, "
     "materials, appdev, operation, options, provenance"),
    ("eol:\n  recycle_fractoin: 0.5\n",
     "eol: unknown key(s) 'recycle_fractoin'; accepted: recycle_fraction, "
     "discard_mt_per_ton, recycle_mt_per_ton, chip_mass_g_per_mm2"),
    ("nodes:\n  10:\n    yield: 0.0\n", "nodes.10.yield: must be in (0, 1], got 0.0"),
    ("eol:\n  recycle_fraction: 1.5\n", "eol.recycle_fraction: must be in [0, 1], got 1.5"),
    ("nodes:\n  5:\n    yield: 0.9\n",
     "nodes.5: new node is missing field(s): energy_per_mm2_kwh, fab_intensity_g_per_kwh, "
     "gas_per_mm2_kg, materials_new_per_mm2_kg, materials_recycled_per_mm2_kg"),
    ("operation:\n  duty_cycle: true\n", "operation.duty_cycle: expected a number, got True"),
    ("appdev:\n  dev_power_w: -5\n", "appdev.dev_power_w: must be non-negative, got -5.0"),
    ("design:\n  total_employees: 0\n", "design.total_employees: must be >= 1, got 0"),
    ("design:\n  project_duration_years: 0\n",
     "design.project_duration_years: must be positive, got 0.0"),
    ("design:\n  project_employees: 30000\n",  # an invariant across fields: its section
     "design: project_employees must be in [1, total_employees]"),
    ("design:\n  annual_energy_gwh: 1.0e+303\n",  # finite, but not in kWh
     "design.annual_energy_gwh: Energy must be finite, got inf"),
    ("design:\n  annual_energy_gwh: 1" + "0" * 400 + "\n",
     "design.annual_energy_gwh: must be finite, got inf"),
    ("design:\n  total_employees: 1" + "0" * 400 + "\n",  # the model divides by it
     "design.total_employees: must be finite, got inf"),
    ("options:\n  appdev_scaling: daily\n",
     "options.appdev_scaling: expected 'one_time' or 'literal', got 'daily'"),
    ("options:\n  hours_per_dev_month: 0\n",
     "options.hours_per_dev_month: must be positive, got 0.0"),
    # a node key is an integer, checked before its fields; 10.0 used to patch node 10
    *((f"nodes:\n  {raw}:\n    yield: 0.9\n", f"nodes.<key>: expected an integer, got {shown}")
      for raw, shown in (('"10"', "'10'"), ("true", "True"), ("10.0", "10.0"))),
    ("nodes:\n  5:\n    yeild: 0.9\n",  # an unknown field before the missing ones
     "nodes.5: unknown key(s) 'yeild'; accepted: energy_per_mm2_kwh, gas_per_mm2_kg, "
     "materials_new_per_mm2_kg, materials_recycled_per_mm2_kg, yield, fab_intensity_g_per_kwh"),
]


@pytest.mark.parametrize("doc, line", REFUSALS)
def test_refusal_line(doc, line):
    with pytest.raises(ParameterError) as info:
        params_with(doc)
    assert str(info.value) == line


def _doc(path: str, raw) -> str:
    """A document setting the field at a dotted path, e.g. `nodes.10.yield`."""
    *sections, key = path.split(".")
    lines = [f"{'  ' * depth}{name}:" for depth, name in enumerate(sections)]
    return "\n".join(lines + [f"{'  ' * len(sections)}{key}: {raw}"]) + "\n"


# every number field's path, with node 10 standing for each node
NUMBER_PATHS = [f"{'nodes.10' if section == 'nodes' else section}.{row[0]}"
                for section, rows in _FIELDS.items() for row in rows if row[2] == "number"]


class TestFiniteAndPositive:
    # nine of these (the EOL intensities and mass, both tolerances, the per-area node
    # terms) used to load and fail later with `CarbonMass must be finite, got nan`
    @pytest.mark.parametrize("path", NUMBER_PATHS)
    @pytest.mark.parametrize("raw, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
    def test_every_number_must_be_finite(self, path, raw, shown):
        with pytest.raises(ParameterError) as info:
            params_with(_doc(path, raw))
        assert str(info.value) == f"{path}: must be finite, got {shown}"

    @pytest.mark.parametrize("key", ["breakdown_rel_tol", "crossover_tie_rel_tol"])
    @pytest.mark.parametrize("raw", ["0", "-1.0e-9"])
    def test_tolerances_must_be_positive(self, key, raw):
        with pytest.raises(ParameterError) as info:
            params_with(_doc(f"options.{key}", raw))
        assert str(info.value) == f"options.{key}: must be positive, got {float(raw)!r}"

    def test_positive_tolerances_load(self):
        p = params_with("options:\n  breakdown_rel_tol: 1.0e-6\n  crossover_tie_rel_tol: 0.5\n")
        assert (p.options.breakdown_rel_tol, p.options.crossover_tie_rel_tol) == (1e-6, 0.5)


def _canonical(unit, value):
    """`value` as an attribute of this unit holds it. A quantity is built past its own
    checks, so that only the section class can refuse it."""
    if unit is None:
        return value
    quantity = object.__new__(_UNITS[unit][0])
    object.__setattr__(quantity, "value", value)
    return quantity


# (section, row) of every row with a hard range
HARD_ROWS = [(section, row) for section, rows in _FIELDS.items() for row in rows if row[4]]


class TestSectionClassesKeepTheTable:
    """Each parameter class refuses, by attribute, what the loader refuses by field path."""

    @staticmethod
    def owner(params, section):
        return params.nodes[10] if section == "nodes" else getattr(params, section)

    @pytest.mark.parametrize("section, row", HARD_ROWS, ids=[row[1] for _, row in HARD_ROWS])
    def test_non_finite_and_just_outside_are_refused(self, params, section, row):
        _, attr, kind, unit, (low, high, low_excluded, stated), _ = row
        if low_excluded:
            outside = [low]
        else:
            outside = [low - 1 if kind == "integer" else math.nextafter(low, -math.inf)]
        if high < math.inf:
            outside.append(math.nextafter(high, math.inf))
        for bad in (math.nan, math.inf, -math.inf, 10**400, *outside):
            with pytest.raises(ValueError) as info:
                replace(self.owner(params, section), **{attr: _canonical(unit, bad)})
            number = math.inf if bad == 10**400 else float(bad)  # an int beyond the float range
            if kind == "integer" and isinstance(bad, float):  # nan and inf are no integers
                why = f"expected an integer, got {bad!r}"
            elif not math.isfinite(number):
                why = f"must be finite, got {number!r}"
            else:
                why = f"must be {stated}, got {number if kind == 'number' else bad!r}"
            assert str(info.value) == f"{attr} {why}"

    @pytest.mark.parametrize("section, row", HARD_ROWS, ids=[row[1] for _, row in HARD_ROWS])
    def test_inclusive_bounds_are_accepted(self, params, section, row):
        _, attr, _, unit, (low, high, low_excluded, _), _ = row
        # total_employees = 1 needs project_employees <= 1, the one cross-field invariant
        extra = {"project_employees": 1} if section == "design" else {}
        for bound in ([] if low_excluded else [low]) + ([high] if high < math.inf else []):
            made = replace(self.owner(params, section), **{**extra, attr: _canonical(unit, bound)})
            assert getattr(made, attr) == _canonical(unit, bound)

    # a value of the wrong kind, and how the refusal states the kind
    WRONG = {"number": (True, "a number"), "integer": (2.0, "an integer"),
             "flag": ("false", "true or false")}
    ROWS = [(section, row) for section, rows in _FIELDS.items() for row in rows]

    @pytest.mark.parametrize("section, row", ROWS, ids=[row[1] for _, row in ROWS])
    def test_a_value_of_the_wrong_kind_is_refused(self, params, section, row):
        _, attr, kind, unit, _, _ = row
        bad, expected = self.WRONG.get(kind, ("daily", "'one_time' or 'literal'"))
        with pytest.raises(ValueError) as info:
            replace(self.owner(params, section), **{attr: _canonical(unit, bad)})
        assert str(info.value) == f"{attr} expected {expected}, got {bad!r}"

    def test_a_range_holds_in_document_and_canonical_units(self):
        # every unit multiplier is positive and every row with a unit is bounded by 0 and inf
        # only, so one row serves the loader (document units) and the classes (canonical)
        for section, rows in _FIELDS.items():
            for key, _, _, unit, hard, _ in rows:
                if unit is not None:
                    _, mul, div = _UNITS[unit]
                    assert div > 0 and (mul is None or mul > 0), unit
                    assert hard[:2] == (0, math.inf), f"{section}.{key}"
        # the months multiplier (None) is options.hours_per_dev_month, which must be positive
        [hours] = [row for row in _FIELDS["options"] if row[0] == "hours_per_dev_month"]
        assert hours[4][:3] == (0, math.inf, True)


def test_example_document_loads_clean():
    """README calls `example_params.yaml` a fully commented document: it loads, no findings."""
    p = load_parameters(str(Path(__file__).resolve().parents[1] / "example_params.yaml"))
    assert validate(p) == []
    assert (p.nodes[10].yield_fraction, p.design.grid_intensity) == (0.9, CarbonIntensity(0.25))


class TestValidateFindings:
    def test_out_of_range_grid_intensity_warns(self):
        p = params_with("design:\n  grid_intensity_g_per_kwh: 900\n")
        findings = validate(p)
        assert any(f.severity == "warning" and f.path == "design.grid_intensity_g_per_kwh"
                   for f in findings)

    def test_implausible_intensity_is_error(self):
        p = params_with("operation:\n  use_grid_intensity_g_per_kwh: 2500\n")
        findings = validate(p)
        assert any(f.severity == "error" for f in findings)

    @pytest.mark.parametrize("path", [
        "design.grid_intensity_g_per_kwh", "appdev.dev_grid_intensity_g_per_kwh",
        "operation.use_grid_intensity_g_per_kwh", "nodes.10.fab_intensity_g_per_kwh",
    ])
    def test_intensity_above_the_ceiling_is_only_an_error(self, path):
        assert validate(params_with(_doc(path, 2000.5))) == [Finding(
            "error", path,
            "carbon intensity 2000.5 g/kWh exceeds the 2000 g/kWh plausibility ceiling")]
        at_ceiling = [] if path.startswith("nodes.") else [Finding(
            "warning", path, "value 2000 outside the published range [30, 700]")]
        assert validate(params_with(_doc(path, 2000))) == at_ceiling

    def test_frontend_two_months_is_clean(self):
        p = params_with("appdev:\n  frontend_months: 2.0\n")
        assert validate(p) == []

    def test_frontend_out_of_published_range_warns(self):
        p = params_with("appdev:\n  frontend_months: 6.0\n")
        findings = validate(p)
        assert [f.path for f in findings if f.severity == "warning"] == ["appdev.frontend_months"]


class TestRoundTrip:
    # (path, its attribute, the canonical value it must load as, the document value back)
    UNITS = [
        ("design.annual_energy_gwh", lambda p: p.design.annual_energy,
         lambda x: Energy(x * 1e6), lambda q: q.value / 1e6),
        ("design.grid_intensity_g_per_kwh", lambda p: p.design.grid_intensity,
         lambda x: CarbonIntensity(x / 1000.0), lambda q: q.value * 1000.0),
        ("design.project_duration_years", lambda p: p.design.project_duration,
         Duration.from_years, Duration.to_years),
        ("appdev.frontend_months", lambda p: p.appdev.frontend_time,
         lambda x: Duration(x * 730.0), lambda q: q.value / 730.0),
    ]

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(1e-3, 1e6))
    def test_units_convert_at_the_reference_factors(self, x):
        for path, attribute, load, dump in self.UNITS:
            p = params_with(_doc(path, repr(x)))
            assert attribute(p) == load(x), path
            section, key = path.split(".")
            assert serialize(p)[section][key] == dump(load(x)), path

    def test_serialize_load_identity(self, params):
        doc = serialize(params)
        again = load_parameters(io.StringIO(yaml.safe_dump(doc)))
        assert again == params

    def test_round_trip_with_overrides(self):
        p = params_with("eol:\n  recycle_fraction: 0.55\noperation:\n  duty_cycle: 0.35\n")
        again = load_parameters(io.StringIO(yaml.safe_dump(serialize(p))))
        assert again == p


class TestTestcaseLibrary:
    def test_domain_ratios_match_published_table(self, library):
        expected = {"DNN": (4.0, 3.0), "ImgProc": (7.42, 1.25), "Crypto": (1.0, 1.0)}
        for name, (area, power) in expected.items():
            tc = library.domain(name)
            assert tc.fpga.area_mm2 == tc.asic.area_mm2 * area
            assert tc.fpga.peak_power.value == tc.asic.peak_power.value * power

    def test_industry_fpga2_spec(self, library):
        chip = library.industry("IndustryFPGA2")
        assert chip.area_mm2 == 550.0
        assert chip.peak_power.value == 220.0
        assert chip.node_nm == 10

    def test_industry_table_values(self, library):
        rows = {
            "IndustryASIC1": (340.0, 70.0, 12),
            "IndustryASIC2": (600.0, 192.0, 7),
            "IndustryFPGA1": (380.0, 160.0, 14),
        }
        for name, (area, power, node) in rows.items():
            chip = library.industry(name)
            assert (chip.area_mm2, chip.peak_power.value, chip.node_nm) == (area, power, node)

    def test_unknown_lookup_reports_available(self, library):
        with pytest.raises(KeyError, match="IndustryASIC1"):
            library.industry("NoSuchChip")
        with pytest.raises(KeyError, match="Crypto"):
            library.domain("NoSuchDomain")

    def test_fpga_lifetime_is_fifteen_years(self, library):
        assert library.domain("DNN").fpga.chip_lifetime.to_years() == 15.0


class TestYamlLoaders:
    """Documents parse to the same values with libyaml's loader and PyYAML's own."""

    @pytest.mark.parametrize("name", ["defaults.yaml", "params_schema.yaml", "tech_nodes.yaml",
                                      "testcases.yaml", "example_params.yaml"])
    def test_c_and_python_loaders_agree(self, name):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if name == "example_params.yaml":
            text = (Path(__file__).resolve().parents[1] / name).read_text(encoding="utf-8")
        else:
            text = resources.files("chipcarbon.data").joinpath(name).read_text(encoding="utf-8")
        c_doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert c_doc  # repr also tells 1 from 1.0 and True from 1
        assert repr(c_doc) == repr(yaml.load(text, Loader=yaml.SafeLoader))

    def test_malformed_document_is_one_line(self):
        with pytest.raises(ParameterError) as info:
            params_with("options: [1,\n")
        assert str(info.value).startswith("parameter document is not valid YAML: ")
        assert "\n" not in str(info.value)


class TestSchemaFile:
    """`params_schema.yaml` documents the field table that load, serialize and validate run on."""

    # the schema's `hard` texts, as (low, high, low excluded) of the table's hard ranges;
    # the cross-field half of project_employees is a `DesignHouseParams` invariant
    HARD = {">= 0": (0, math.inf, False), "> 0": (0, math.inf, True),
            ">= 1": (1, math.inf, False), "1 -- total_employees": (1, math.inf, False),
            "0 -- 1": (0, 1, False), "(0, 1]": (0, 1, True)}

    @staticmethod
    def schema():
        return yaml.safe_load(
            resources.files("chipcarbon.data").joinpath("params_schema.yaml").read_text())

    def fields(self):
        """(section, row, the schema's entry for the row) for every table row."""
        doc = self.schema()
        for section, rows in _FIELDS.items():
            entries = doc[section]["<node_nm>"] if section == "nodes" else doc[section]
            for row in rows:
                yield section, row, entries[row[0]]

    def test_schema_lists_exactly_the_accepted_keys(self):
        doc = self.schema()
        assert list(doc) == [*_FIELDS, "provenance"]
        assert list(doc["nodes"]) == ["<node_nm>"]
        for section, rows in _FIELDS.items():
            entries = doc[section]["<node_nm>"] if section == "nodes" else doc[section]
            assert list(entries) == [row[0] for row in rows], section

    def test_kind_and_hard_range_match_the_table(self):
        for section, (key, _, kind, _, hard, _), entry in self.fields():
            if isinstance(kind, tuple):
                assert (entry["type"], tuple(entry["values"])) == ("string", kind), key
            else:
                assert entry["type"] == kind, key
            assert self.HARD.get(entry.get("hard")) == (hard and hard[:3]), f"{section}.{key}"

    def test_plausible_range_is_the_published_range(self):
        for section, (key, *_, published), entry in self.fields():
            plausible = entry.get("plausible")
            stated = tuple(map(float, plausible.split(" -- "))) if plausible else None
            assert stated == published, f"{section}.{key}"

    def test_bundled_defaults_give_every_field(self):
        defaults = _parse_bundled("defaults.yaml")
        assert list(defaults) == [s for s in _SECTION_KEYS if s != "nodes"] + ["provenance"]
        for section, keys in _SECTION_KEYS.items():
            if section != "nodes":
                assert list(defaults[section]) == list(keys), section
        for fields in _parse_bundled("tech_nodes.yaml")["nodes"].values():
            assert list(fields) == list(_NODE_KEYS)
