import dataclasses
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chipcarbon import quantities, store
from chipcarbon.breakdown import COMPONENTS
from chipcarbon.chips import ChipKind
from chipcarbon.cli import _parse_sweep, main
from chipcarbon.errors import ParameterError
from chipcarbon.lifecycle import _Kernel, cumulative_timeline
from chipcarbon.quantities import HOURS_PER_YEAR, Duration, Power
from chipcarbon.scenario import Scenario, evaluate_scenario

from cli_env import cli_env
from conftest import params_with


def run_cli(*args, check=True):
    proc = subprocess.run([sys.executable, "-m", "chipcarbon", *args],
                          capture_output=True, env=cli_env())
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


class TestEstimate:
    def test_breakdown_table(self):
        proc = run_cli("estimate", "--testcase", "IndustryFPGA1", "--apps", "3",
                       "--lifetime", "2", "--volume", "1e6")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "platform,component,kg_co2e"
        values = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert values["app_dev"] < values["design"] < values["manufacturing"]
        assert values["operational"] == max(
            v for k, v in values.items() if k != "total")

    def test_zero_volume_design_only(self):
        proc = run_cli("estimate", "--testcase", "IndustryASIC1", "--volume", "0",
                       "--format", "record")
        record = json.loads(proc.stdout)
        b = record["results"]["breakdown"]
        assert b["design"] > 0
        assert b["total"] == b["design"]

    def test_unknown_testcase_exit_1_names_available(self):
        proc = run_cli("estimate", "--testcase", "NoSuchChip", check=False)
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert "IndustryFPGA1" in err and "IndustryASIC2" in err


class TestCompare:
    def test_dnn_ten_apps_fpga_favored(self):
        proc = run_cli("compare", "--domain", "DNN", "--apps", "10",
                       "--format", "record")
        record = json.loads(proc.stdout)
        assert record["results"]["verdict"] == "FPGA-favored"
        assert 0.65 <= record["results"]["ratio"] <= 0.85

    def test_crypto_two_apps_fpga_favored(self):
        proc = run_cli("compare", "--domain", "Crypto", "--apps", "2",
                       "--format", "record")
        assert json.loads(proc.stdout)["results"]["verdict"] == "FPGA-favored"

    def test_identical_platforms_tie(self, tmp_path):
        overrides = tmp_path / "zero_dev.yaml"
        overrides.write_text(
            "appdev:\n  frontend_months: 0\n  backend_months: 0\n"
            "  config_hours_fpga: 0\n")
        proc = run_cli("--params", str(overrides), "compare", "--domain", "Crypto",
                       "--apps", "1", "--area-ratio", "1.0", "--power-ratio", "1.0",
                       "--format", "record")
        assert json.loads(proc.stdout)["results"]["verdict"] == "tie"

    def test_record_carries_full_parameter_echo(self):
        proc = run_cli("compare", "--domain", "DNN", "--format", "record")
        record = json.loads(proc.stdout)
        assert record["parameters"]["design"]["total_employees"] == 20000
        assert record["parameters"]["operation"]["duty_cycle"] == 0.25
        assert record["version"]
        assert record["inputs"]["domain"] == "DNN"

    def test_ratio_flags_equal_a_hand_derived_fpga(self, capsys, params, library):
        tc = library.domain("DNN")
        fpga = dataclasses.replace(tc.fpga, area_mm2=tc.asic.area_mm2 * 2.0,
                                   peak_power=Power(tc.asic.peak_power.value * 2.5))
        custom = store.TestcaseLibrary(domains={**library.domains,
                                                "DNN": dataclasses.replace(tc, fpga=fpga)},
                                       industry_chips=library.industry_chips)
        expected = [b.as_dict() for b in evaluate_scenario(
            Scenario("DNN", n_app=1, lifetime_years=2.0, volume=10**6), params, custom)]
        code, out, err = run_main(capsys, "compare", "--domain", "DNN", "--area-ratio", "2",
                                  "--power-ratio", "2.5", "--format", "record")
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        for platform, want in zip(("fpga", "asic"), expected):
            assert {k: v.hex() for k, v in results[platform].items()} == {
                k: v.hex() for k, v in want.items()}
        assert results["ratio"].hex() == (expected[0]["total"] / expected[1]["total"]).hex()


class TestSweepCommand:
    def test_dnn_numapps_annotates_a2f_at_six(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--domain", "DNN", "--sweep", "NumApps:1:8:8",
                       "--apps", "5", "--out", str(out))
        text = proc.stdout.decode()
        assert out.read_text() == text
        assert "# crossover,A2F,6," in text
        assert text.splitlines()[0].startswith("value,fpga_total,asic_total,fpga_design")

    def test_bad_sweep_syntax_exit_1(self):
        proc = run_cli("sweep", "--domain", "DNN", "--sweep", "NumApps:1:8", check=False)
        assert proc.returncode == 1
        assert "VAR:START:STOP:STEPS" in proc.stderr.decode()

    def test_unknown_variable_exit_1(self):
        proc = run_cli("sweep", "--domain", "DNN", "--sweep", "Wat:1:8:8", check=False)
        assert proc.returncode == 1
        assert "NumApps" in proc.stderr.decode()

    def test_bare_variable_uses_stock_grid(self):
        proc = run_cli("sweep", "--domain", "DNN", "--sweep", "AppLifetime", "--apps", "5")
        rows = [l for l in proc.stdout.decode().splitlines()
                if l and not l.startswith(("#", "value"))]
        assert len(rows) == 24
        assert rows[0].startswith("0.2,") and rows[-1].startswith("2.5,")


class TestHeatmapCommand:
    def test_single_cell_matches_compare_ratio(self):
        grid = run_cli("heatmap", "--domain", "DNN",
                       "--sweep", "NumApps:5:5:1", "--sweep", "AppLifetime:2:2:1",
                       "--format", "record")
        cell = json.loads(grid.stdout)["results"]["cells"][0][0]
        cmp_record = run_cli("compare", "--domain", "DNN", "--apps", "5",
                             "--lifetime", "2", "--format", "record")
        assert cell == json.loads(cmp_record.stdout)["results"]["ratio"]

    def test_requires_two_axes(self):
        proc = run_cli("heatmap", "--domain", "DNN", "--sweep", "NumApps:1:8:8",
                       check=False)
        assert proc.returncode == 1


class TestTimelineCommand:
    def test_imgproc_45_years_jumps_at_15_and_30(self):
        proc = run_cli("timeline", "--domain", "ImgProc", "--lifetime", "1",
                       "--horizon", "45", "--step", "1", "--format", "record")
        points = json.loads(proc.stdout)["results"]["points"]
        jump_years = []
        for a, b in zip(points, points[1:]):
            if b["fpga"]["manufacturing"] > a["fpga"]["manufacturing"] + 1e-9:
                jump_years.append(b["t_years"])
        assert jump_years == [15.0, 30.0]


class TestDeterminism:
    def test_byte_identical_repeats(self):
        invocations = [
            ("compare", "--domain", "DNN", "--apps", "10", "--format", "record"),
            ("sweep", "--domain", "DNN", "--sweep", "AppLifetime:0.2:2.5:24"),
            ("estimate", "--testcase", "IndustryFPGA2", "--apps", "3"),
        ]
        for args in invocations:
            first = run_cli(*args).stdout
            second = run_cli(*args).stdout
            assert first == second


class TestNonFiniteFlags:
    @pytest.mark.parametrize("args, flag", [
        (("compare", "--domain", "DNN", "--volume", "inf"), "--volume"),
        (("compare", "--domain", "DNN", "--area-ratio", "nan", "--power-ratio", "1"),
         "--area-ratio"),
        (("compare", "--domain", "DNN", "--area-ratio", "2", "--power-ratio", "-inf"),
         "--power-ratio"),
        (("estimate", "--testcase", "IndustryFPGA1", "--volume", "nan"), "--volume"),
        (("timeline", "--domain", "DNN", "--horizon", "inf"), "--horizon"),
    ])
    def test_rejected_at_the_flag(self, args, flag):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], lines
        assert proc.stdout == b""


class TestAppsFlag:
    @pytest.mark.parametrize("args", [
        ("estimate", "--testcase", "IndustryASIC1", "--apps", "0"),
        ("estimate", "--testcase", "IndustryFPGA1", "--apps", "-1"),
        ("compare", "--domain", "DNN", "--apps", "0"),
        ("sweep", "--domain", "DNN", "--sweep", "AppLifetime", "--apps", "0"),
        ("heatmap", "--domain", "DNN", "--sweep", "AppVolume", "--sweep", "AppLifetime",
         "--apps", "-3"),
    ])
    def test_rejected_at_the_flag(self, args):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [f"error: --apps must be >= 1, got {args[-1]}"]
        assert proc.stdout == b""


class TestVolumeFlag:
    def test_rounds_as_the_sweep_sample_at_the_same_value(self):
        cmp = json.loads(run_cli("compare", "--domain", "DNN", "--volume", "999999.9",
                                 "--format", "record").stdout)
        swp = json.loads(run_cli("sweep", "--domain", "DNN",
                                 "--sweep", "AppVolume:999999.9:999999.9:1",
                                 "--format", "record").stdout)
        [point] = swp["results"]["points"]
        assert cmp["inputs"]["volume"] == point["value"] == 1_000_000
        assert (cmp["results"]["fpga"], cmp["results"]["asic"]) == (point["fpga"], point["asic"])

    def test_zero_volume_prints_no_negative_zero(self):
        # no devices times the negative EOL credit is -0.0, which printed as "-0"
        table = run_cli("compare", "--domain", "DNN", "--volume", "0").stdout.decode()
        assert "-0" not in [row.split(",")[2] for row in table.splitlines()]
        record = run_cli("compare", "--domain", "DNN", "--volume", "0",
                         "--format", "record").stdout.decode()
        assert "-0.0" not in record


class TestCostIndependentOfAppCount:
    def test_billion_year_timeline_returns(self):
        proc = subprocess.run([sys.executable, "-m", "chipcarbon", "timeline", "--domain", "DNN",
                               "--horizon", "1e9", "--step", "1e8"],
                              capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        assert len(proc.stdout.decode().splitlines()) == 1 + 11


class TestInProcessMain:
    def test_main_keeps_no_reference_to_its_streams(self):
        # a caller that runs main() in-process with fresh streams each time must
        # not accumulate them (and every output written to them)
        import contextlib
        import gc
        import io
        import weakref

        from chipcarbon.cli import main

        refs = []
        for argv in (["compare", "--domain", "DNN"], ["compare", "--domain", "NoSuch"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    main(argv)
                except SystemExit:
                    pass
            assert out.getvalue() or err.getvalue().startswith("error: ")
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)


def run_capped(*args):
    """`main(args)` in a child with a 512 MB address space: a grid too large to
    build fails fast there instead of reaching the host."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from chipcarbon.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=cli_env(), timeout=60)


def run_main(capsys, *args):
    """`main` in this process: (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# every subcommand, with the flags it needs to run
SUBCOMMANDS = {
    "estimate": ("estimate", "--testcase", "IndustryFPGA1"),
    "compare": ("compare", "--domain", "DNN"),
    "sweep": ("sweep", "--domain", "DNN", "--sweep", "NumApps:1:3:3"),
    "heatmap": ("heatmap", "--domain", "DNN", "--sweep", "NumApps:1:2:2",
                "--sweep", "AppLifetime:1:2:2"),
    "timeline": ("timeline", "--domain", "DNN"),
}
BAD_FLAG_VALUES = [
    *((cmd, "--volume", v, ">= 0") for cmd in SUBCOMMANDS for v in ("-1", "-0.4")),
    *((cmd, "--lifetime", v, "> 0") for cmd in SUBCOMMANDS for v in ("0", "-1")),
    *((cmd, "--horizon", "-1", ">= 0") for cmd in SUBCOMMANDS),
    *(("timeline", "--step", v, "> 0") for v in ("0", "-1")),
    *(("compare", flag, v, "> 0") for flag in ("--area-ratio", "--power-ratio")
      for v in ("0", "-1")),
]


SCENARIO_FLAGS = ("--apps", "3", "--lifetime", "1.5", "--volume", "1234.4", "--horizon", "4")
SCENARIO_INPUTS = {"apps": 3, "lifetime_years": 1.5, "volume": 1234, "horizon_years": 4.0}
# every subcommand with every flag given, and the `inputs` its record echoes
ENVELOPES = {
    "estimate": (("--testcase", "IndustryFPGA1", *SCENARIO_FLAGS),
                 {"testcase": "IndustryFPGA1", **SCENARIO_INPUTS}),
    "compare": (("--domain", "DNN", "--area-ratio", "2", "--power-ratio", "2.5",
                 *SCENARIO_FLAGS),
                {"domain": "DNN", "area_ratio": 2.0, "power_ratio": 2.5, **SCENARIO_INPUTS}),
    "sweep": (("--domain", "DNN", "--sweep", "NumApps:1:3:3", *SCENARIO_FLAGS),
              {"domain": "DNN", "sweep": "NumApps:1:3:3", **SCENARIO_INPUTS}),
    "heatmap": (("--domain", "DNN", "--sweep", "NumApps:1:2:2", "--sweep", "AppLifetime:1:2:2",
                 *SCENARIO_FLAGS),
                {"domain": "DNN", "x": "NumApps:1:2:2", "y": "AppLifetime:1:2:2",
                 **SCENARIO_INPUTS}),
    "timeline": (("--domain", "ImgProc", "--lifetime", "1.5", "--horizon", "4", "--step", "0.5",
                  "--volume", "1234.4"),
                 {"domain": "ImgProc", "lifetime_years": 1.5, "horizon_years": 4.0,
                  "step_years": 0.5, "volume": 1234, "apps": 3}),
}


class TestRecordEnvelope:
    @pytest.mark.parametrize("command", sorted(ENVELOPES))
    def test_every_command_echoes_its_inputs_and_parameters(self, capsys, tmp_path, command):
        from chipcarbon import load_parameters, serialize

        args, inputs = ENVELOPES[command]
        out = tmp_path / "record.json"
        code, text, err = run_main(capsys, command, *args, "--format", "record",
                                   "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_text() == text
        record = json.loads(text)
        assert set(record) == {"tool", "version", "command", "inputs", "parameters", "results"}
        assert record["command"] == command
        assert record["inputs"] == inputs
        # as JSON carries it: the node table's integer keys become strings
        assert record["parameters"] == json.loads(json.dumps(serialize(load_parameters())))


class TestFlagBounds:
    @pytest.mark.parametrize("command, flag, value, bound", BAD_FLAG_VALUES)
    def test_rejected_at_the_flag(self, capsys, command, flag, value, bound):
        args = SUBCOMMANDS[command] + (flag, value)
        if command == "timeline" and flag != "--horizon":
            args += ("--horizon", "10")
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {flag} must be {bound}, got {float(value)}"]

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_bounds_themselves_are_accepted(self, capsys, command):
        args = SUBCOMMANDS[command] + ("--volume", "0", "--horizon", "0")
        code, out, err = run_main(capsys, *args)
        assert (code, err) == (0, ""), err


def _old_integer_samples(start, stop, steps, log):
    """The integer axes' samples as `_parse_sweep` built them: all STEPS, then distinct."""
    if steps == 1:
        values = [start]
    elif log:
        la, lb = math.log10(start), math.log10(stop)
        values = [10 ** (la + i * (lb - la) / (steps - 1)) for i in range(steps)]
    else:
        values = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    return tuple(sorted({float(int(round(v))) for v in values}))


class TestSweepRange:
    @pytest.mark.parametrize("spec", [
        "AppVolume:1:inf:3", "Horizon:1:1e400:3", "AppLifetime:nan:2:3",
        "NumApps:-inf:8:8", "AppVolume:1e3:nan:5:log", "NumApps:-1e308:1e308:3",
    ])
    def test_non_finite_bounds_name_the_flag(self, capsys, spec):
        code, out, err = run_main(capsys, "sweep", "--domain", "DNN", "--sweep", spec)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: --sweep START, STOP and their difference must be finite, got {spec!r}"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_axes_equal_the_full_formula(self, data):
        log = data.draw(st.booleans())
        magnitude = st.floats(1e-3, 1e7) if log else st.floats(-1e3, 1e7)
        start = data.draw(magnitude)
        stop = data.draw(st.one_of(magnitude, st.floats(0.0, 50.0).map(lambda d: start + d)))
        if log and stop <= 0:
            stop = start
        steps = data.draw(st.one_of(st.integers(1, 60), st.integers(1, 100_000)))
        spec = f"AppVolume:{start!r}:{stop!r}:{steps}" + (":log" if log else "")
        expected = _old_integer_samples(start, stop, steps, log)
        for axis_spec in (spec, "NumApps" + spec[len("AppVolume"):]):
            if len(expected) > 20_000:
                with pytest.raises(ParameterError, match="^--sweep must give at most 20000 "):
                    _parse_sweep(axis_spec)
            else:
                assert _parse_sweep(axis_spec)[1] == expected

    def test_huge_step_count_costs_its_distinct_samples(self):
        proc = run_capped("sweep", "--domain", "DNN", "--sweep", "NumApps:1:8:100000000000")
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        eight = run_cli("sweep", "--domain", "DNN", "--sweep", "NumApps:1:8:8").stdout
        assert proc.stdout == eight


class TestSweepGrid:
    """An axis gives at most 20,000 samples and a heatmap at most 20,000 cells."""

    @pytest.mark.parametrize("args, line", [
        (("sweep", "--sweep", "AppLifetime:1:2:100000000"),
         "--sweep must give at most 20000 samples, got more from 'AppLifetime:1:2:100000000'"),
        (("sweep", "--sweep", "NumApps:1:1000000000:1000000000"),
         "--sweep must give at most 20000 samples, got more from "
         "'NumApps:1:1000000000:1000000000'"),
        (("sweep", "--sweep", "NumApps:1:20001:20001"),
         "--sweep must give at most 20000 samples, got more from 'NumApps:1:20001:20001'"),
        (("heatmap", "--sweep", "NumApps:1:3000:3000", "--sweep", "AppVolume:1:3000:3000"),
         "--sweep axes must give at most 20000 heatmap cells, got 3000 x 3000 from "
         "'NumApps:1:3000:3000' and 'AppVolume:1:3000:3000'"),
        (("heatmap", "--sweep", "NumApps:1:100:100", "--sweep", "AppVolume:1:201:201"),
         "--sweep axes must give at most 20000 heatmap cells, got 100 x 201 from "
         "'NumApps:1:100:100' and 'AppVolume:1:201:201'"),
    ])
    def test_refused_above_the_limit(self, args, line):
        proc = run_capped(args[0], "--domain", "DNN", *args[1:])
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode().splitlines() == [f"error: {line}"]

    @pytest.mark.parametrize("spec", ["AppLifetime:1:2:20000", "NumApps:1:20000:20000"])
    def test_a_sweep_at_the_limit_is_accepted(self, capsys, spec):
        code, out, err = run_main(capsys, "sweep", "--domain", "DNN", "--sweep", spec)
        assert (code, err) == (0, "")
        rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
        assert len(rows) == 20_000

    def test_a_heatmap_at_the_limit_is_accepted(self, capsys):
        code, out, err = run_main(capsys, "heatmap", "--domain", "DNN", "--sweep",
                                  "NumApps:1:100:100", "--sweep", "AppVolume:1:200:200")
        assert (code, err) == (0, "")
        cells = [line for line in out.splitlines()[1:] if not line.startswith("#")]
        assert len(cells) == 20_000


class TestOverflow:
    """A total past the float range is refused in one line naming the flags given."""

    @pytest.mark.parametrize("args, named", [
        (("compare", "--domain", "DNN", "--lifetime", "1e300"), "--lifetime 1e+300"),
        (("estimate", "--testcase", "IndustryASIC1", "--volume", "1e300", "--apps", "1000"),
         "--apps 1000, --volume 1e+300"),
        (("compare", "--domain", "DNN", "--lifetime", "1e306"), "--lifetime 1e+306"),
        (("compare", "--domain", "DNN", "--area-ratio", "1e305", "--power-ratio", "1"),
         "--area-ratio 1e+305, --power-ratio 1"),
        (("sweep", "--domain", "DNN", "--sweep", "AppLifetime:1:1e300:3"),
         "--sweep AppLifetime:1:1e300:3"),
        (("heatmap", "--domain", "DNN", "--sweep", "AppLifetime:1:1e300:3",
          "--sweep", "NumApps:1:2:2"), "--sweep AppLifetime:1:1e300:3, --sweep NumApps:1:2:2"),
        (("timeline", "--domain", "DNN", "--lifetime", "1e-300", "--horizon", "1e300",
          "--step", "1e299"), "--lifetime 1e-300, --horizon 1e+300, --step 1e+299"),
        # slots too short to tell apart at 10 years: once a ZeroDivisionError traceback
        (("timeline", "--domain", "ImgProc", "--lifetime", "1e-300", "--horizon", "1e3",
          "--step", "10"), "--lifetime 1e-300, --horizon 1000, --step 10"),
    ])
    def test_names_the_flags(self, capsys, args, named):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: the model overflows at {named}: "), line

    def test_a_huge_integer_flag_is_named_exactly(self, capsys):
        apps = "1" + "0" * 400  # beyond the float range: the flag must print without one
        code, out, err = run_main(capsys, "compare", "--domain", "DNN", "--apps", apps)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: the model overflows at --apps {apps}: "), line


class TestTimelineGrid:
    @pytest.mark.parametrize("horizon, step", [("1e300", "1e-10"), ("1", "1e-300"),
                                               ("20000.1", "1")])
    def test_refused_above_the_step_limit(self, horizon, step):
        proc = run_capped("timeline", "--domain", "DNN", "--horizon", horizon, "--step", step)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode().splitlines() == [
            f"error: --horizon / --step must be at most 20000, got "
            f"{float(horizon):g} / {float(step):g}"]

    def test_the_limit_itself_is_accepted(self, capsys):
        code, out, err = run_main(capsys, "timeline", "--domain", "DNN", "--horizon", "20000",
                                  "--step", "1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 20001


def test_malformed_params_document_is_one_line(capsys, tmp_path):
    doc = tmp_path / "bad.yaml"
    doc.write_text("options: [1,\n")
    code, out, err = run_main(capsys, "--params", str(doc), "compare", "--domain", "DNN")
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: parameter document is not valid YAML: ")


@pytest.mark.parametrize("doc, path", [
    ("1: 2\nfoo: 3\n", "document"),
    ("design:\n  1: 2\n  foo: 3\n", "design"),
    ("nodes:\n  10:\n    1: 2\n    foo: 3\n", "nodes.10"),
])
def test_unknown_keys_of_mixed_types_are_one_line(capsys, tmp_path, doc, path):
    params = tmp_path / "mixed.yaml"
    params.write_text(doc)
    code, out, err = run_main(capsys, "--params", str(params), "compare", "--domain", "DNN")
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: {path}: unknown key(s) 1, 'foo'; accepted: "), line


class TestParamsEnvironment:
    """`$CHIPCARBON_PARAMS` names the parameter document when `--params` is not given."""

    def _duty(self, capsys, *args):
        code, out, err = run_main(capsys, *args, "compare", "--domain", "DNN", "--format", "record")
        assert (code, err) == (0, "")
        return json.loads(out)["parameters"]["operation"]["duty_cycle"]

    def _doc(self, tmp_path, name, duty):
        doc = tmp_path / name
        doc.write_text(f"operation:\n  duty_cycle: {duty}\n")
        return str(doc)

    def test_the_variable_names_the_document(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CHIPCARBON_PARAMS", self._doc(tmp_path, "env.yaml", 0.5))
        assert self._duty(capsys) == 0.5

    def test_the_flag_wins_over_the_variable(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CHIPCARBON_PARAMS", self._doc(tmp_path, "env.yaml", 0.5))
        assert self._duty(capsys, "--params", self._doc(tmp_path, "flag.yaml", 0.75)) == 0.75

    def test_an_empty_value_means_the_bundled_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("CHIPCARBON_PARAMS", "")
        assert self._duty(capsys) == 0.25


class TestUsageErrors:
    """A command line the CLI cannot run is one `error:` line, exit 1 and nothing on stdout."""

    @pytest.mark.parametrize("args, named", [
        (("compare",), "--domain"),
        (("compare", "--domain", "DNN", "--bogus", "1"), "'--bogus'"),
        (("compare", "--domain", "DNN", "--apps"), "--apps"),
        (("compare", "--domain", "DNN", "--apps", "abc"), "--apps"),
        (("compare", "--domain", "DNN", "--apps", "1e3"), "--apps"),
        (("compare", "--domain", "DNN", "--format", "xml"), "--format"),
        (("frobnicate",), "'frobnicate'"),
        (("--params", "{tmp}/missing.yaml", "compare", "--domain", "DNN"), "--params"),
        (("--params", "{tmp}", "compare", "--domain", "DNN"), "--params"),
        (("compare", "--dom", "DNN"), "'--dom'"),
        (("compare", "--domain", "DNN", "--area-ratio", "2", "--power-ratio", "-inf"),
         "--power-ratio"),
        (("compare", "--domain", "DNN", "--horizon", "-1e3"), "--horizon"),
    ])
    def test_one_line(self, capsys, tmp_path, args, named):
        code, out, err = run_main(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in args))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and named in line, line

    @pytest.mark.parametrize("args", [("--help",), ("compare", "--help"), ("--version",)])
    def test_help_and_version_print_to_stdout(self, capsys, args):
        code, out, err = run_main(capsys, *args)
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("target", ["{tmp}/missing/out.csv", "{tmp}"])
    def test_a_failed_out_write_is_one_line(self, capsys, tmp_path, target):
        target = target.replace("{tmp}", str(tmp_path))
        code, out, err = run_main(capsys, "compare", "--domain", "DNN", "--out", target)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: --out: ") and repr(target) in line, line


def test_import_adds_no_third_party_module():
    """`import chipcarbon.cli` loads only the package, PyYAML and the standard library.

    The bare interpreter is the baseline: `site` may load more (a `.pth` file).
    PyYAML's compiled loader registers the Cython runtime modules it was built with.
    """
    listing = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    bare, loaded = (set(json.loads(subprocess.run(
        [sys.executable, "-c", code + listing], capture_output=True, check=True,
        env=cli_env(), timeout=60).stdout)) for code in ("", "import chipcarbon.cli; "))
    added = {name.split(".")[0] for name in loaded - bare} - sys.stdlib_module_names
    allowed = {"chipcarbon", "yaml", "_yaml", "cython_runtime"}
    assert {name for name in added - allowed if not name.startswith("_cython_")} == set()


# -------------------------------------------------------------- argv fuzz property

FUZZ_CHILD = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from chipcarbon.cli import main
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            traceback.print_exc()
    outcomes.append([code, out.getvalue() != "", err.getvalue()])
json.dump(outcomes, sys.stdout)
"""

EDGE_VALUES = st.sampled_from(("0", "-1", "-0.5", "1e-300", "1e300", "inf", "-inf", "nan",
                               "1" + "0" * 400, ""))
NUMBERS = {int: st.sampled_from(("1", "2", "5", "12")),
           float: st.sampled_from(("0.5", "1.5", "2", "10", "45", "1e3", "1e6"))}
SWEEP_SPECS = st.one_of(
    st.sampled_from(["NumApps:1:8:8", "AppLifetime", "AppVolume:1e3:1e6:5:log", "Horizon",
                     "NumApps:1:8", "Wat:1:2:3", "Horizon:1:2:3:lin", "AppVolume:0:1e6:3:log",
                     "::::", ""]),
    st.builds("{}:{}:{}:{}{}".format, st.sampled_from(["NumApps", "AppLifetime", "AppVolume",
                                                       "Horizon"]),
              st.one_of(NUMBERS[float], EDGE_VALUES), st.one_of(NUMBERS[float], EDGE_VALUES),
              st.one_of(NUMBERS[int], EDGE_VALUES), st.sampled_from(["", ":log"])))
FLAG_VALUES = {
    "--domain": st.sampled_from(["DNN", "ImgProc", "Crypto"]),
    "--testcase": st.sampled_from(["IndustryFPGA1", "IndustryASIC2"]),
    "--sweep": SWEEP_SPECS,
    "--format": st.sampled_from(["tabular", "record"]),
}
MALFORMED = (["frobnicate"], ["--bogus", "1"], ["--dom", "DNN"], ["stray"], ["--apps"],
             ["--sweep"], ["--help"], ["--version"], ["--params", ""],
             ["--params=missing.yaml"], ["--domain", "dnn"], ["--testcase", "NoSuch"],
             ["--format", "xml"])


@st.composite
def argv_vectors(draw):
    """A command line drawn from the CLI's flag table: valid values, at times an edge
    value in their place or a malformed token among them."""
    from chipcarbon.cli import _COMMANDS, _REQUIRED

    def rarely() -> bool:
        return draw(st.integers(0, 7)) == 7

    name = draw(st.sampled_from(sorted(_COMMANDS)))
    pairs = []
    for flag, _, kind, default, _, _ in _COMMANDS[name][1].values():
        # --out writes files and --help is a switch: MALFORMED gives the latter
        if flag in ("--out", "--help") or (rarely() if default is _REQUIRED
                                           else draw(st.booleans())):
            continue
        for _ in range(2 if kind is list else 1):
            valid = FLAG_VALUES[flag] if flag in FLAG_VALUES else NUMBERS[kind]
            pairs.append([flag, draw(EDGE_VALUES if rarely() else valid)])
    pairs = draw(st.permutations(pairs))
    argv = [name] + [a for pair in pairs for a in (
        [f"{pair[0]}={pair[1]}"] if draw(st.booleans()) else pair)]
    if rarely():  # one malformed or extra token, anywhere: before the command too
        argv[draw(st.integers(0, len(argv))):0] = draw(st.sampled_from(MALFORMED))
    return argv


class TestArgvFuzz:
    @settings(max_examples=10, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(vectors=st.lists(argv_vectors(), min_size=100, max_size=100))
    def test_every_vector_is_a_result_or_one_line(self, tmp_path_factory, vectors):
        proc = subprocess.run([sys.executable, "-c", FUZZ_CHILD], input=json.dumps(vectors),
                              capture_output=True, text=True, env=cli_env(), timeout=60,
                              cwd=tmp_path_factory.mktemp("fuzz"))
        assert proc.returncode == 0, proc.stderr[-2000:]
        for argv, (code, wrote, err) in zip(vectors, json.loads(proc.stdout), strict=True):
            if code == 0:
                assert err == "", (argv, err)
            else:
                assert code in (1, 2) and not wrote and len(err.splitlines()) == 1, (
                    argv, code, err[-2000:])


TIMELINE_PARAMS = {
    "default": "",
    "reprogramming": "options:\n  replacement_reprogramming: true\n",
    "literal": "options:\n  appdev_scaling: literal\n",
}


class TestClosureTolerance:
    """Every printed total is checked once, to options.breakdown_rel_tol."""

    # sum() rounds 1e16 + 1 back to 1e16, so it gives 5.0 where the exact sum is 6.0
    CANCELLING = (1e16, 1.0, -1e16, 0.0, 0.0, 5.0)

    @pytest.mark.parametrize("fmt", ["tabular", "record"])
    @pytest.mark.parametrize("command", sorted(set(SUBCOMMANDS) - {"heatmap"}))
    def test_the_documented_key_governs(self, capsys, monkeypatch, tmp_path, command, fmt):
        from chipcarbon import cli

        monkeypatch.setattr(cli, "_kg", lambda b: list(self.CANCELLING))
        monkeypatch.setattr(_Kernel, "at", lambda kernel, t: self.CANCELLING)
        args = SUBCOMMANDS[command] + ("--format", fmt)
        if command == "timeline":
            args += ("--horizon", "2")
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("internal inconsistency: breakdown closure violated: total=5.0")
        tight = tmp_path / "tight.yaml"
        tight.write_text("options:\n  breakdown_rel_tol: 1.0e-300\n")
        code, out, err = run_main(capsys, "--params", str(tight), *args)
        assert (code, out) == (2, "")
        assert err.startswith("internal inconsistency: breakdown closure violated: total=5.0")
        loose = tmp_path / "loose.yaml"
        loose.write_text("options:\n  breakdown_rel_tol: 0.5\n")
        code, out, err = run_main(capsys, "--params", str(loose), *args)
        assert (code, err) == (0, "")


    @pytest.mark.parametrize("args", [
        ("sweep", "--domain", "ImgProc", "--sweep", "AppVolume:1e3:1e6:25:log", "--apps", "5"),
        ("timeline", "--domain", "ImgProc", "--lifetime", "1", "--horizon", "45", "--step", "0.5"),
    ])
    def test_float_rounding_is_not_an_inconsistency(self, capsys, tmp_path, args):
        # each command has a row whose float sum is an ulp off the correctly rounded one
        tight = tmp_path / "tight.yaml"
        tight.write_text("options:\n  breakdown_rel_tol: 1.0e-300\n")
        default = run_main(capsys, *args)
        assert default[0] == 0
        assert run_main(capsys, "--params", str(tight), *args) == default


class TestTimelineRows:
    """`timeline` prints the rows `cumulative_timeline` returns, from plain floats."""

    ARGS = ("--domain", "ImgProc", "--lifetime", "1", "--horizon", "45", "--step", "0.5",
            "--volume", "58238")

    def _api_rows(self, params, library):
        tc = library.domain("ImgProc")
        schedule = Scenario("ImgProc", n_app=45, lifetime_years=1.0, volume=58238,
                            horizon_years=45.0).schedule(tc)
        horizon, step = Duration.from_years(45.0), Duration.from_years(0.5)
        return [cumulative_timeline(kind, schedule, chip, params, horizon, step)
                for kind, chip in ((ChipKind.FPGA, tc.fpga), (ChipKind.ASIC, tc.asic))]

    @pytest.mark.parametrize("option", sorted(TIMELINE_PARAMS))
    def test_rows_equal_the_api(self, capsys, tmp_path, library, option):
        doc = tmp_path / "params.yaml"
        doc.write_text(TIMELINE_PARAMS[option] or "{}\n")
        fpga_tl, asic_tl = self._api_rows(params_with(TIMELINE_PARAMS[option]), library)
        assert len(fpga_tl) == len(asic_tl) == 91

        code, out, err = run_main(capsys, "--params", str(doc), "timeline", *self.ARGS,
                                  "--format", "record")
        assert (code, err) == (0, "")
        points = json.loads(out)["results"]["points"]
        assert len(points) == len(fpga_tl)
        for point, f, a in zip(points, fpga_tl, asic_tl):
            assert point["t_years"].hex() == (f.hours / HOURS_PER_YEAR).hex()
            for platform, row in (("fpga", f), ("asic", a)):
                expected = dict(zip(COMPONENTS, row.kg), total=sum(row.kg))
                assert {k: v.hex() for k, v in point[platform].items()} == {
                    k: v.hex() for k, v in expected.items()}

        code, out, err = run_main(capsys, "--params", str(doc), "timeline", *self.ARGS)
        assert (code, err) == (0, "")
        lines = out.splitlines()[1:]
        assert lines == [",".join(f"{x:.6g}" for x in (
            f.hours / HOURS_PER_YEAR, sum(f.kg), sum(a.kg), *f.kg, *a.kg))
            for f, a in zip(fpga_tl, asic_tl)]

    def test_carbon_masses_do_not_grow_with_rows(self, capsys, monkeypatch):
        created = []
        post_init = quantities.CarbonMass.__post_init__

        def counted(self):
            created.append(self)
            post_init(self)
        monkeypatch.setattr(quantities.CarbonMass, "__post_init__", counted)
        counts = []
        for step in ("0.5", "0.005"):
            created.clear()
            code, out, _ = run_main(capsys, "timeline", "--domain", "ImgProc", "--lifetime",
                                    "1", "--horizon", "45", "--step", step)
            assert code == 0 and len(out.splitlines()) > 90
            counts.append(len(created))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("fmt", ["tabular", "record"])
    @pytest.mark.parametrize("patch, message", [
        ({1: math.inf, 5: math.nan}, "CarbonMass must be finite, got inf"),
        ({4: math.nan}, "CarbonMass must be finite, got nan"),
        ({0: 1e308, 1: 1e308}, "CarbonMass must be finite, got inf"),  # only the sum overflows
    ])
    def test_non_finite_row_fails_as_a_carbon_mass(self, capsys, monkeypatch, fmt, patch,
                                                   message):
        at = _Kernel.at

        def broken(self, t):
            kg = list(at(self, t))
            if t >= 10 * HOURS_PER_YEAR:
                for i, value in patch.items():
                    kg[i] = value
            return tuple(kg)
        monkeypatch.setattr(_Kernel, "at", broken)
        code, out, err = run_main(capsys, "timeline", "--domain", "DNN", "--horizon", "20",
                                  "--format", fmt)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: the model overflows at --horizon 20: {message}"]
