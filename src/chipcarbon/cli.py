"""Command-line front end.

Five subcommands cover the tool's use cases: `estimate` (one platform),
`compare` (FPGA vs ASIC verdict), `sweep` / `heatmap` (design-space
exploration with crossover annotations), and `timeline` (cumulative carbon
with chip-lifetime replacement).

Output is deterministic: identical invocations produce byte-identical bytes.
Tabular numbers are fixed at six significant digits; record output is JSON
with sorted keys and carries the fully resolved parameter echo needed to
reproduce the run. Exit codes: 0 success, 1 validation error, 2 internal
inconsistency.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import click

from . import __version__
from .breakdown import COMPONENTS, CfpBreakdown
from .chips import ChipKind
from .errors import ConsistencyError, ParameterError
from .lifecycle import cumulative_timeline
from .quantities import HOURS_PER_YEAR, Duration, Power
from .scenario import (
    Scenario,
    SweepSpec,
    SweepVariable,
    default_grid,
    estimate_platform,
    evaluate_scenario,
    find_crossovers,
    heatmap,
    sweep,
)
from .store import TestcaseLibrary, builtin_testcases, load_parameters, serialize, validate


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load(params_path: str | None):
    params = load_parameters(params_path)
    findings = validate(params)
    errors = [f for f in findings if f.severity == "error"]
    for f in findings:
        if f.severity == "warning":
            click.echo(f"warning: {f.path}: {f.message}", file=sys.stderr)
    if errors:
        lines = "; ".join(f"{f.path}: {f.message}" for f in errors)
        raise ParameterError(lines)
    return params, builtin_testcases(params)


def _tabular(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _breakdown_rows(label: str, kg: list[float], rel_tol: float) -> list[list[str]]:
    rows = [[label, c, _fmt(x)] for c, x in zip(COMPONENTS, kg)]
    rows.append([label, "total", _fmt(_total(kg, rel_tol))])
    return rows


def _parse_sweep(text: str) -> tuple[SweepVariable, tuple[float, ...]]:
    parts = text.split(":")
    if len(parts) not in (1, 4, 5) or (len(parts) == 5 and parts[4] != "log"):
        raise ParameterError(
            f"--sweep must look like VAR:START:STOP:STEPS[:log] or a bare VAR, got {text!r}")
    try:
        variable = SweepVariable(parts[0])
    except ValueError:
        names = ", ".join(v.value for v in SweepVariable)
        raise ParameterError(f"unknown sweep variable {parts[0]!r} (one of: {names})") from None
    if len(parts) == 1:
        return variable, default_grid(variable)
    try:
        start, stop, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParameterError(f"bad sweep range {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, stop - start))):
        raise ParameterError(
            f"--sweep START, STOP and their difference must be finite, got {text!r}")
    if steps < 1:
        raise ParameterError("sweep STEPS must be >= 1")
    log = steps > 1 and len(parts) == 5
    lo, hi = start, stop
    if log:
        if start <= 0 or stop <= 0:
            raise ParameterError("log-spaced sweeps need positive bounds")
        lo, hi = math.log10(start), math.log10(stop)

    def sample(i: int) -> float:  # monotone in i, as `_distinct_rounded` needs
        if steps == 1:
            return start
        x = lo + i * (hi - lo) / (steps - 1)
        return 10 ** x if log else x
    if variable in (SweepVariable.NUM_APPS, SweepVariable.APP_VOLUME):
        return variable, tuple(sorted(float(n) for n in _distinct_rounded(sample, steps)))
    return variable, tuple(map(sample, range(steps)))


def _distinct_rounded(sample, steps: int) -> list[int]:
    """The distinct values of round(sample(i)) over range(steps), for a monotone `sample`.

    Equal rounded values then sit at consecutive indices, so each one costs a
    galloping search for the end of its run: the work grows with the number of
    distinct values (times a log), not with `steps`.
    """
    found, i = [], 0
    while i < steps:
        value = round(sample(i))
        found.append(value)
        same, jump = i, 1  # round(sample(same)) == value; find the first index past the run
        while same + jump < steps and round(sample(same + jump)) == value:
            same += jump
            jump *= 2
        past = min(same + jump, steps)
        while past - same > 1:
            mid = (same + past) // 2
            if round(sample(mid)) == value:
                same = mid
            else:
                past = mid
        i = past
    return found


def _finite(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    """Option callback: refuse inf and nan at the flag that carries them."""
    if value is not None and not math.isfinite(value):
        raise ParameterError(f"{param.opts[0]} must be a finite number, got {value!r}")
    return value


def _at_least(low: float, strict: bool = False):
    """Option callback refusing, at its flag, a number below `low` (or equal, if strict)."""
    def check(ctx: click.Context, param: click.Parameter, value):
        _finite(ctx, param, value)
        if value is not None and (value <= low if strict else value < low):
            raise ParameterError(
                f"{param.opts[0]} must be {'>' if strict else '>='} {low:g}, got {value}")
        return value
    return check


_positive, _non_negative = _at_least(0, strict=True), _at_least(0)


def _units(ctx: click.Context, param: click.Parameter, value: float) -> int:
    """Option callback: a volume >= 0, rounded to whole units as sweep samples are."""
    return int(round(_non_negative(ctx, param, value)))


@click.group()
@click.option("--params", "params_path", envvar="CHIPCARBON_PARAMS", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Parameter document (YAML); bundled defaults when omitted. "
                   "Also read from $CHIPCARBON_PARAMS.")
@click.version_option(version=__version__)
@click.pass_context
def cli(ctx: click.Context, params_path: str | None) -> None:
    """Lifecycle carbon-footprint estimation for FPGA and ASIC accelerators."""
    ctx.obj = params_path


_scenario_options = [
    click.option("--apps", default=1, show_default=True, type=int,
                 callback=_at_least(1), help="Number of sequential applications."),
    click.option("--lifetime", "lifetime_years", default=2.0, show_default=True, type=float,
                 callback=_positive, help="Lifetime of each application, years."),
    click.option("--volume", default=1e6, show_default=True, type=float, callback=_units,
                 help="Deployed units per application (rounded to a whole number)."),
    click.option("--horizon", "horizon_years", default=None, type=float,
                 callback=_non_negative,
                 help="Evaluation horizon in years; enables fleet replacement."),
]

_output_options = [
    click.option("--out", default=None, type=click.Path(dir_okay=False),
                 help="Also write the output to this file."),
    click.option("--format", "fmt", default="tabular", show_default=True,
                 type=click.Choice(["tabular", "record"])),
]


def _command(name: str, options: list):
    """Register `fn(params, library, inputs, record)` as the subcommand `name`.

    The subcommand takes `options` plus --out/--format and loads the
    parameters. `inputs` is the dict of its flag values; the body may adjust
    it, and the record echoes it. The body returns the tabular text, or with
    --format record the results of the record. The output goes to stdout and,
    with --out, to that file too.
    """
    def register(fn):
        def run(params_path, out, fmt, **inputs):
            params, library = _load(params_path)
            text = results = fn(params, library, inputs, fmt == "record")
            if fmt == "record":
                text = json.dumps({"tool": "chipcarbon", "version": __version__,
                                   "command": name, "inputs": inputs,
                                   "parameters": serialize(params), "results": results},
                                  sort_keys=True, indent=2) + "\n"
            # Every echo names its stream: without `file`, click caches a wrapper per
            # stream in a weak-key map whose value is the stream itself, so a caller
            # that redirects stdout for each in-process `main()` would keep every output.
            click.echo(text, nl=False, file=sys.stdout)
            if out:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text)
        run = click.pass_obj(run)
        for option in reversed(options + _output_options):  # listed order is --help order
            run = option(run)
        return cli.command(name=name, help=fn.__doc__)(run)
    return register


def _scenario(inputs: dict) -> Scenario:
    return Scenario(inputs["domain"], n_app=inputs["apps"],
                    lifetime_years=inputs["lifetime_years"], volume=inputs["volume"],
                    horizon_years=inputs["horizon_years"])


@_command("estimate", [click.option("--testcase", required=True, help="Industry testcase name."),
                       *_scenario_options])
def estimate(params, library, inputs, record):
    """Component breakdown for one named platform."""
    chip = library.industry(inputs["testcase"])
    kg = _kg(estimate_platform(chip, inputs["apps"], inputs["lifetime_years"], inputs["volume"],
                               params, inputs["horizon_years"]))
    tol = params.options.breakdown_rel_tol
    if record:
        return {"breakdown": _kg_dict(kg, tol)}
    return _tabular(["platform", "component", "kg_co2e"],
                    _breakdown_rows(inputs["testcase"], kg, tol))


@_command("compare", [
    click.option("--domain", required=True, help="Workload domain (e.g. DNN, ImgProc, Crypto)."),
    click.option("--area-ratio", default=None, type=float, callback=_positive,
                 help="Custom FPGA:ASIC area ratio (with --power-ratio)."),
    click.option("--power-ratio", default=None, type=float, callback=_positive,
                 help="Custom FPGA:ASIC power ratio (with --area-ratio)."),
    *_scenario_options])
def compare(params, library, inputs, record):
    """FPGA vs ASIC totals, their ratio, and the verdict."""
    area_ratio, power_ratio = inputs["area_ratio"], inputs["power_ratio"]
    if (area_ratio is None) != (power_ratio is None):
        raise ParameterError("--area-ratio and --power-ratio must be given together")
    if area_ratio is not None:
        base = library.domain(inputs["domain"])
        fpga = replace(base.fpga, area_mm2=base.asic.area_mm2 * area_ratio,
                       peak_power=Power.watts(base.asic.peak_power.value * power_ratio))
        custom = replace(base, area_ratio=area_ratio, power_ratio=power_ratio, fpga=fpga)
        library = TestcaseLibrary(domains={**library.domains, inputs["domain"]: custom},
                                  industry_chips=library.industry_chips)
    fpga, asic = (_kg(b) for b in evaluate_scenario(_scenario(inputs), params, library))
    tol = params.options.breakdown_rel_tol
    fpga_total, asic_total = _total(fpga, tol), _total(asic, tol)
    ratio = fpga_total / asic_total
    tie_tol = params.options.crossover_tie_rel_tol
    if abs(fpga_total - asic_total) <= tie_tol * max(abs(fpga_total), abs(asic_total), 1.0):
        verdict = "tie"
    else:
        verdict = "FPGA-favored" if fpga_total < asic_total else "ASIC-favored"
    if record:
        return {"fpga": _kg_dict(fpga, tol), "asic": _kg_dict(asic, tol),
                "ratio": ratio, "verdict": verdict}
    rows = _breakdown_rows("FPGA", fpga, tol) + _breakdown_rows("ASIC", asic, tol)
    rows.append(["both", "ratio", _fmt(ratio)])
    rows.append(["both", "verdict", verdict])
    return _tabular(["platform", "component", "value"], rows)


def _kg(b: CfpBreakdown) -> list[float]:
    return [getattr(b, c).value for c in COMPONENTS]


def _total(kg, rel_tol: float) -> float:
    """The total of one output row's kg (in `COMPONENTS` order), checked once.

    An inf or nan component makes the sum non-finite; the error then names the
    first bad value, as building the row's `CfpBreakdown` would. A sum that
    differs from the correctly rounded one by more than `rel_tol`
    (options.breakdown_rel_tol) plus the float rounding of the sum itself,
    one machine epsilon per addition, is an internal inconsistency.
    """
    total = sum(kg)
    if not math.isfinite(total):
        bad = next((x for x in kg if not math.isfinite(x)), total)
        raise ValueError(f"CarbonMass must be finite, got {bad!r}")
    exact = math.fsum(kg)
    rounding = (len(kg) - 1) * sys.float_info.epsilon
    if not math.isclose(total, exact, rel_tol=rel_tol + rounding, abs_tol=1e-12):
        raise ConsistencyError(
            f"breakdown closure violated: total={total!r} components sum={exact!r}")
    return total


def _kg_dict(kg, rel_tol: float) -> dict[str, float]:
    """`CfpBreakdown.as_dict` of a row's kg."""
    return {**dict(zip(COMPONENTS, kg)), "total": _total(kg, rel_tol)}


# one row of `_pair_table`: x, both totals, both platforms' components
_PAIR_ROW = ",".join(["{:.6g}"] * (3 + 2 * len(COMPONENTS))).format


def _pair_table(x_name: str, rows, rel_tol: float) -> str:
    """CSV of (x, FPGA kg, ASIC kg) float rows: both totals, then components."""
    header = ([x_name, "fpga_total", "asic_total"]
              + [f"fpga_{c}" for c in COMPONENTS] + [f"asic_{c}" for c in COMPONENTS])
    lines = [",".join(header)]
    lines += [_PAIR_ROW(x, _total(fpga, rel_tol), _total(asic, rel_tol), *fpga, *asic)
              for x, fpga, asic in rows]
    return "\n".join(lines) + "\n"


@_command("sweep", [
    click.option("--domain", required=True),
    click.option("--sweep", required=True,
                 help="VAR:START:STOP:STEPS[:log]; VAR is NumApps, AppLifetime, "
                      "AppVolume, or Horizon."),
    *_scenario_options])
def sweep_cmd(params, library, inputs, record):
    """One-dimensional sweep of both platforms with crossover annotations."""
    variable, values = _parse_sweep(inputs["sweep"])
    points = sweep(SweepSpec(variable, values, _scenario(inputs)), params, library)
    crossovers = find_crossovers(points, variable, params.options.crossover_tie_rel_tol)
    tol = params.options.breakdown_rel_tol
    if record:
        return {
            "points": [{"value": pt.value, "fpga": _kg_dict(_kg(pt.fpga), tol),
                        "asic": _kg_dict(_kg(pt.asic), tol)} for pt in points],
            "crossovers": [{"kind": c.kind, "value": c.value, "bracket": list(c.bracket)}
                           for c in crossovers],
        }
    text = _pair_table("value", ((pt.value, _kg(pt.fpga), _kg(pt.asic)) for pt in points), tol)
    return text + "".join(f"# crossover,{c.kind},{_fmt(c.value)},bracket,"
                          f"{_fmt(c.bracket[0])},{_fmt(c.bracket[1])}\n" for c in crossovers)


@_command("heatmap", [
    click.option("--domain", required=True),
    click.option("--sweep", required=True, multiple=True,
                 help="Give twice: x axis, then y axis."),
    *_scenario_options])
def heatmap_cmd(params, library, inputs, record):
    """Pairwise sweep emitting long-form FPGA:ASIC ratio cells."""
    if len(inputs["sweep"]) != 2:
        raise ParameterError("heatmap needs exactly two --sweep axes")
    inputs["x"], inputs["y"] = inputs.pop("sweep")
    (x_var, x_values), (y_var, y_values) = map(_parse_sweep, (inputs["x"], inputs["y"]))
    grid = heatmap(x_var, x_values, y_var, y_values, _scenario(inputs), params, library)
    if record:
        return {"x_values": list(grid.x_values), "y_values": list(grid.y_values),
                "cells": [list(r) for r in grid.cells],
                "unity_crossings": [list(c) for c in grid.unity_crossings()]}
    lines = [f"{grid.x_variable.value},{grid.y_variable.value},fpga_to_asic_ratio"]
    for iy, y in enumerate(grid.y_values):
        for ix, x in enumerate(grid.x_values):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(grid.cells[iy][ix])}")
    for y, x in grid.unity_crossings():
        lines.append(f"# crossover,{grid.y_variable.value}={_fmt(y)},"
                     f"{grid.x_variable.value}={_fmt(x)}")
    return "\n".join(lines) + "\n"


@_command("timeline", [
    click.option("--domain", required=True),
    click.option("--lifetime", "lifetime_years", default=1.0, show_default=True, type=float,
                 callback=_positive, help="Lifetime of each application, years."),
    click.option("--horizon", "horizon_years", required=True, type=float,
                 callback=_non_negative),
    click.option("--step", "step_years", default=0.5, show_default=True, type=float,
                 callback=_positive),
    click.option("--volume", default=1e6, show_default=True, type=float, callback=_units)])
def timeline_cmd(params, library, inputs, record):
    """Cumulative carbon for both platforms out to a horizon."""
    inputs["apps"] = max(1, math.ceil(inputs["horizon_years"] / inputs["lifetime_years"]))
    testcase = library.domain(inputs["domain"])
    schedule = _scenario(inputs).schedule(testcase)  # the same applications as the sweeps
    horizon = Duration.from_years(inputs["horizon_years"])
    step = Duration.from_years(inputs["step_years"])
    fpga_tl = cumulative_timeline(ChipKind.FPGA, schedule, testcase.fpga, params, horizon, step)
    asic_tl = cumulative_timeline(ChipKind.ASIC, schedule, testcase.asic, params, horizon, step)
    rows = [(f.hours / HOURS_PER_YEAR, f.kg, a.kg) for f, a in zip(fpga_tl, asic_tl)]
    tol = params.options.breakdown_rel_tol
    if record:
        return {"points": [{"t_years": t, "fpga": _kg_dict(fpga, tol),
                            "asic": _kg_dict(asic, tol)} for t, fpga, asic in rows]}
    return _pair_table("t_years", rows, tol)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except ConsistencyError as exc:
        click.echo(f"internal inconsistency: {exc}", file=sys.stderr)
        sys.exit(2)
    except (ParameterError, KeyError, ValueError, OverflowError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        click.echo(f"error: {message}", file=sys.stderr)
        sys.exit(1)
    return 0
