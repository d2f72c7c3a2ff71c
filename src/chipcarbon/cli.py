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
import os
import sys

from . import __version__
from .breakdown import COMPONENTS, CfpBreakdown
from .chips import ChipKind
from .errors import ConsistencyError, NonFiniteError, ParameterError
from .lifecycle import TIMELINE_MAX_STEPS, cumulative_timeline
from .quantities import HOURS_PER_YEAR, Duration
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


def _load(params_path: str | None, source: str):
    try:
        params = load_parameters(params_path)
    except OSError as exc:
        raise ParameterError(f"{source}: cannot read {params_path!r}: {exc.strerror}") from None
    findings = validate(params)
    errors = [f for f in findings if f.severity == "error"]
    for f in findings:
        if f.severity == "warning":
            sys.stderr.write(f"warning: {f.path}: {f.message}\n")
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
    # An axis, like a timeline, is at most TIMELINE_MAX_STEPS rows: build one more at most.
    if variable in (SweepVariable.NUM_APPS, SweepVariable.APP_VOLUME):
        values = tuple(sorted(
            float(n) for n in _distinct_rounded(sample, steps, TIMELINE_MAX_STEPS)))
    else:
        values = tuple(map(sample, range(min(steps, TIMELINE_MAX_STEPS + 1))))
    if len(values) > TIMELINE_MAX_STEPS:
        raise ParameterError(
            f"--sweep must give at most {TIMELINE_MAX_STEPS} samples, got more from {text!r}")
    return variable, values


def _distinct_rounded(sample, steps: int, limit: int) -> list[int]:
    """The distinct values of round(sample(i)) over range(steps), for a monotone `sample`.

    Equal rounded values then sit at consecutive indices, so each one costs a
    galloping search for the end of its run: the work grows with the number of
    distinct values (times a log), not with `steps`. It stops past `limit` values.
    """
    found, i = [], 0
    while i < steps and len(found) <= limit:
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


def _at_least(low: float, strict: bool = False):
    """A flag check refusing a number below `low` (or equal, if strict)."""
    def check(flag: str, value):
        if value <= low if strict else value < low:
            raise ParameterError(
                f"{flag} must be {'>' if strict else '>='} {low:g}, got {value}")
        return value
    return check


_positive, _non_negative = _at_least(0, strict=True), _at_least(0)


def _units(flag: str, value: float) -> int:
    """A volume >= 0, rounded to whole units as sweep samples are."""
    return int(round(_non_negative(flag, value)))


# One row per flag: (flag, input key, kind, default, check, help). The kind is int, float,
# str, list (a str flag given once per value), bool (a switch, no value) or the tuple of
# accepted choices. A float is refused unless finite; `check(flag, value)` then refuses a
# value out of range, or returns the value to use. A default of _REQUIRED makes the flag
# mandatory; other defaults are used as they stand, unchecked.
_REQUIRED = ...
_HELP = ("--help", "help", bool, None, None, "Show this message and exit.")
_TOP = {row[0]: row for row in (
    ("--params", "params_path", str, None, None,
     "Parameter document (YAML); bundled defaults when omitted. "
     "Also read from $CHIPCARBON_PARAMS."),
    ("--version", "version", bool, None, None, "Show the version and exit."),
    _HELP)}
_DOMAIN = ("--domain", "domain", str, _REQUIRED, None,
           "Workload domain (e.g. DNN, ImgProc, Crypto).")
_VOLUME = ("--volume", "volume", float, 10**6, _units,
           "Deployed units per application (rounded to a whole number).")
_SCENARIO_FLAGS = (
    ("--apps", "apps", int, 1, _at_least(1), "Number of sequential applications."),
    ("--lifetime", "lifetime_years", float, 2.0, _positive,
     "Lifetime of each application, years."),
    _VOLUME,
    ("--horizon", "horizon_years", float, None, _non_negative,
     "Evaluation horizon in years; enables fleet replacement."),
)
_OUTPUT_FLAGS = (
    ("--out", "out", str, None, None, "Also write the output to this file."),
    ("--format", "fmt", ("tabular", "record"), "tabular", None, "Output format."),
    _HELP,
)
_METAVARS = {int: "INTEGER", float: "NUMBER", str: "TEXT", list: "TEXT", bool: ""}

# subcommand name -> (body, its flag table by flag, in --help order)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, flags: tuple):
    """Register `fn(params, library, inputs, record)` as the subcommand `name`.

    The subcommand takes `flags` plus --out/--format/--help and loads the parameters.
    `inputs` is the dict of its flag values; the body may adjust it, and the
    record echoes it. The body returns the tabular text, or with --format
    record the results of the record. The output goes to stdout and, with
    --out, to that file too.
    """
    def register(fn):
        _COMMANDS[name] = fn, {row[0]: row for row in flags + _OUTPUT_FLAGS}
        return fn
    return register


def _split(table: dict, args: list[str], command: str) -> tuple[dict, list[str]]:
    """The flags at the head of `args`, as {flag: [value text, ...]}, and the arguments after.

    A flag's value follows `=` or is the next argument as it stands, so `--horizon -1`
    reaches the bound check. A flag is spelled out in full; a switch takes no value.
    """
    given: dict[str, list[str]] = {}
    i = 0
    while i < len(args) and args[i].startswith("-"):
        flag, eq, text = args[i].partition("=")
        if flag not in table or (eq and table[flag][2] is bool):
            raise ParameterError(
                f"{command}: unknown flag {args[i]!r} (flags: {', '.join(table)})")
        if not eq and table[flag][2] is not bool:
            i += 1
            if i == len(args):
                raise ParameterError(f"{flag} needs a value")
            text = args[i]
        given.setdefault(flag, []).append(text)
        i += 1
    return given, args[i:]


def _values(table: dict, given: dict[str, list[str]], command: str) -> dict:
    """Input key -> value of every flag with a value: the last one given, or the default."""
    values = {}
    for flag, key, kind, default, check, _ in table.values():
        if kind is bool:
            continue
        if flag in given:
            parsed = [_value(flag, kind, text, check)
                      for text in (given[flag] if kind is list else given[flag][-1:])]
            values[key] = parsed if kind is list else parsed[0]
        elif default is _REQUIRED:
            raise ParameterError(f"{command} needs {flag}")
        else:
            values[key] = default
    return values


def _value(flag: str, kind, text: str, check):
    """One flag's text as its kind, checked."""
    if isinstance(kind, tuple) and text not in kind:
        raise ParameterError(f"{flag} must be {' or '.join(kind)}, got {text!r}")
    if kind not in (int, float):
        return text
    try:
        value = kind(text)
    except ValueError:
        raise ParameterError(f"{flag} must be {'an integer' if kind is int else 'a number'}, "
                             f"got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ParameterError(f"{flag} must be a finite number, got {value!r}")
    return check(flag, value) if check else value


def _help(command: str | None) -> str:
    """--help: the usage line, what `command` does and its flags (or the commands)."""
    if command is None:
        table, about = _TOP, "Lifecycle carbon-footprint estimation for FPGA and ASIC accelerators."
    else:
        fn, table = _COMMANDS[command]
        about = fn.__doc__
    lines = [f"usage: chipcarbon [--params FILE] {command or 'COMMAND'} [FLAGS]", "", about, ""]
    for flag, _, kind, default, _, text in table.values():
        metavar = "|".join(kind) if isinstance(kind, tuple) else _METAVARS[kind]
        note = ("" if default is None
                else " (required)" if default is _REQUIRED else f" (default: {default})")
        lines.append(f"  {flag} {metavar}".ljust(28) + text + note)
    if command is None:
        lines += ["", "commands:", *(f"  {name:<10}{fn.__doc__}"
                                     for name, (fn, _) in _COMMANDS.items())]
    return "\n".join(lines) + "\n"


def _given_flags(table: dict, values: dict, given: dict) -> list[str]:
    """The subcommand's numeric and --sweep flags given on the command line, as parsed.

    They come in the table's order. An integer flag prints exactly: as a float, a
    huge one would overflow.
    """
    flags = []
    for flag, key, kind, *_ in table.values():
        if flag in given and key not in ("domain", "testcase", "out", "fmt"):
            shown = values[key] if kind is list else (values[key],)
            flags += [f"{flag} {_fmt(v) if kind is float else v}" for v in shown]
    return flags


def _scenario(inputs: dict) -> Scenario:
    return Scenario(inputs["domain"], n_app=inputs["apps"],
                    lifetime_years=inputs["lifetime_years"], volume=inputs["volume"],
                    horizon_years=inputs["horizon_years"])


@_command("estimate", (("--testcase", "testcase", str, _REQUIRED, None,
                        "Industry testcase name."), *_SCENARIO_FLAGS))
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


@_command("compare", (
    _DOMAIN,
    ("--area-ratio", "area_ratio", float, None, _positive,
     "Custom FPGA:ASIC area ratio (with --power-ratio)."),
    ("--power-ratio", "power_ratio", float, None, _positive,
     "Custom FPGA:ASIC power ratio (with --area-ratio)."),
    *_SCENARIO_FLAGS))
def compare(params, library, inputs, record):
    """FPGA vs ASIC totals, their ratio, and the verdict."""
    area_ratio, power_ratio = inputs["area_ratio"], inputs["power_ratio"]
    if (area_ratio is None) != (power_ratio is None):
        raise ParameterError("--area-ratio and --power-ratio must be given together")
    if area_ratio is not None:
        custom = library.domain(inputs["domain"]).with_ratios(area_ratio, power_ratio)
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

    An inf or nan component makes the sum non-finite; the `NonFiniteError` then
    names the first bad value, as building the row's `CfpBreakdown` would. A sum that
    differs from the correctly rounded one by more than `rel_tol`
    (options.breakdown_rel_tol) plus the float rounding of the sum itself,
    one machine epsilon per addition, is an internal inconsistency.
    """
    total = sum(kg)
    if not math.isfinite(total):
        bad = next((x for x in kg if not math.isfinite(x)), total)
        raise NonFiniteError(f"CarbonMass must be finite, got {bad!r}")
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


@_command("sweep", (
    _DOMAIN,
    ("--sweep", "sweep", str, _REQUIRED, None,
     "VAR:START:STOP:STEPS[:log]; VAR is NumApps, AppLifetime, AppVolume, or Horizon."),
    *_SCENARIO_FLAGS))
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


@_command("heatmap", (
    _DOMAIN,
    ("--sweep", "sweep", list, _REQUIRED, None, "Give twice: x axis, then y axis."),
    *_SCENARIO_FLAGS))
def heatmap_cmd(params, library, inputs, record):
    """Pairwise sweep emitting long-form FPGA:ASIC ratio cells."""
    if len(inputs["sweep"]) != 2:
        raise ParameterError("heatmap needs exactly two --sweep axes")
    inputs["x"], inputs["y"] = inputs.pop("sweep")
    (x_var, x_values), (y_var, y_values) = map(_parse_sweep, (inputs["x"], inputs["y"]))
    if len(x_values) * len(y_values) > TIMELINE_MAX_STEPS:
        raise ParameterError(
            f"--sweep axes must give at most {TIMELINE_MAX_STEPS} heatmap cells, got "
            f"{len(x_values)} x {len(y_values)} from {inputs['x']!r} and {inputs['y']!r}")
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


@_command("timeline", (
    _DOMAIN,
    ("--lifetime", "lifetime_years", float, 1.0, _positive,
     "Lifetime of each application, years."),
    ("--horizon", "horizon_years", float, _REQUIRED, _non_negative, "Horizon, years."),
    ("--step", "step_years", float, 0.5, _positive, "Row spacing, years."),
    _VOLUME))
def timeline_cmd(params, library, inputs, record):
    """Cumulative carbon for both platforms out to a horizon."""
    steps = inputs["horizon_years"] / inputs["step_years"]
    if not steps <= TIMELINE_MAX_STEPS:  # the grid, and the output, grow with it
        raise ParameterError(f"--horizon / --step must be at most {TIMELINE_MAX_STEPS}, got "
                             f"{inputs['horizon_years']:g} / {inputs['step_years']:g}")
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


def _main(args: list[str]) -> None:
    """Run the command line `args`: top-level flags, then a subcommand and its flags."""
    given, rest = _split(_TOP, args, "chipcarbon")
    if "--help" in given or "--version" in given:
        sys.stdout.write(_help(None) if "--help" in given else f"chipcarbon {__version__}\n")
        return
    if not rest or rest[0] not in _COMMANDS:
        problem = f"unknown command {rest[0]!r}" if rest else "missing command"
        raise ParameterError(f"{problem} (one of: {', '.join(_COMMANDS)})")
    source = "--params" if "--params" in given else "$CHIPCARBON_PARAMS"
    # an empty variable is no document
    params_path = given.get("--params", [os.environ.get("CHIPCARBON_PARAMS") or None])[-1]
    name = rest[0]
    fn, table = _COMMANDS[name]
    given, rest = _split(table, rest[1:], name)
    if "--help" in given:
        sys.stdout.write(_help(name))
        return
    if rest:
        raise ParameterError(f"{name}: unexpected argument {rest[0]!r}")
    values = _values(table, given, name)
    inputs = dict(values)  # the body may adjust it; `values` stays as parsed
    out, fmt = inputs.pop("out"), inputs.pop("fmt")
    params, library = _load(params_path, source)
    try:
        text = results = fn(params, library, inputs, fmt == "record")
    except (NonFiniteError, OverflowError) as exc:
        flags = _given_flags(table, values, given)
        if not flags:
            raise
        raise ParameterError(f"the model overflows at {', '.join(flags)}: {exc}") from None
    if fmt == "record":
        text = json.dumps({"tool": "chipcarbon", "version": __version__, "command": name,
                           "inputs": inputs, "parameters": serialize(params),
                           "results": results}, sort_keys=True, indent=2) + "\n"
    if out is not None:  # written first: a failed write leaves nothing on stdout
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"--out: cannot write {out!r}: {exc.strerror}") from None
    sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes: returns 0 or raises SystemExit(1 or 2)."""
    try:
        _main(sys.argv[1:] if argv is None else list(argv))
    except ConsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        sys.exit(2)
    except (ParameterError, KeyError, ValueError, OverflowError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)
    return 0
