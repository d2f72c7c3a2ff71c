import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chipcarbon import quantities
from chipcarbon.breakdown import COMPONENTS
from chipcarbon.chips import ChipKind
from chipcarbon.cli import _parse_sweep, main
from chipcarbon.lifecycle import _Kernel, cumulative_timeline
from chipcarbon.quantities import HOURS_PER_YEAR, Duration
from chipcarbon.scenario import Scenario

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
        assert _parse_sweep(spec)[1] == _old_integer_samples(start, stop, steps, log)
        assert _parse_sweep("NumApps" + spec[len("AppVolume"):])[1] == _parse_sweep(spec)[1]

    def test_huge_step_count_costs_its_distinct_samples(self):
        # in a child with a capped address space, so a regression fails fast
        # instead of allocating 1e11 samples on the host
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
                "from chipcarbon.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", code, "sweep", "--domain", "DNN",
                               "--sweep", "NumApps:1:8:100000000000"],
                              capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        eight = run_cli("sweep", "--domain", "DNN", "--sweep", "NumApps:1:8:8").stdout
        assert proc.stdout == eight


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
        assert err.splitlines() == [f"error: {message}"]
