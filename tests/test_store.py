import io

import pytest
import yaml
from importlib import resources

from chipcarbon.errors import ParameterError
from chipcarbon.store import load_parameters, serialize, validate

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
        from chipcarbon.store import _NODE_KEYS, _read_bundled

        doc = tmp_path / "nodes.yaml"
        doc.write_text("nodes:\n  7:\n    yield: 0.5\n  5:\n"
                       + "".join(f"    {key}: 0.1\n" for key in _NODE_KEYS))
        custom = load_parameters(str(doc))
        assert custom.nodes[7].yield_fraction == 0.5 and 5 in custom.nodes
        _read_bundled("tech_nodes.yaml")["nodes"].clear()  # each caller owns its copy
        assert load_parameters() == params

    def test_boolean_not_accepted_as_number(self):
        with pytest.raises(ParameterError, match="duty_cycle"):
            params_with("operation:\n  duty_cycle: true\n")

    def test_dev_month_override_changes_hours(self):
        p = params_with("options:\n  hours_per_dev_month: 160.0\n")
        assert p.appdev.frontend_time.value == 2.0 * 160.0


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

    def test_frontend_two_months_is_clean(self):
        p = params_with("appdev:\n  frontend_months: 2.0\n")
        assert validate(p) == []

    def test_frontend_out_of_published_range_warns(self):
        p = params_with("appdev:\n  frontend_months: 6.0\n")
        findings = validate(p)
        assert [f.path for f in findings if f.severity == "warning"] == ["appdev.frontend_months"]


class TestRoundTrip:
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
            assert (tc.area_ratio, tc.power_ratio) == (area, power)
            assert tc.fpga.area_mm2 == pytest.approx(tc.asic.area_mm2 * area)
            assert tc.fpga.peak_power.value == pytest.approx(tc.asic.peak_power.value * power)

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


class TestSchemaFile:
    def test_schema_lists_exactly_the_accepted_keys(self):
        from chipcarbon.store import _NODE_KEYS, _SECTION_KEYS
        doc = yaml.safe_load(
            resources.files("chipcarbon.data").joinpath("params_schema.yaml").read_text())
        assert set(doc) == set(_SECTION_KEYS)
        for section, keys in _SECTION_KEYS.items():
            if keys:
                assert set(doc[section]) == set(keys), section
        assert set(doc["nodes"]["<node_nm>"]) == set(_NODE_KEYS)
