"""Seeded inputs for the three workloads, and the check of every output.

Each workload is a list of `Op`s: one CLI argument vector, the exit status it
must end with, and a check that recomputes the printed numbers through the
public `chipcarbon` API (and, where it applies, the independent event oracle in
`tests/oracle.py`). A check returns the number of scenario totals the output
carries (one per compare/estimate result, sweep sample, heatmap cell or
timeline row) and raises `Mismatch` on any difference.

The inputs depend only on the seed. On `design_space` and `timelines` the seed
picks only values that do not change how much work a cycle does (domain order,
volumes, horizons past the schedule end); `cli_queries` keeps a fixed mix of
query kinds per block. So throughput stays comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

DOMAINS = ("DNN", "ImgProc", "Crypto")
INDUSTRY = ("IndustryASIC1", "IndustryASIC2", "IndustryFPGA1", "IndustryFPGA2")
# The oracle books one device at a time, so it is run on small volumes only.
ORACLE_MAX_VOLUME = 1000
ORACLE_REL_TOL = 1e-9


class Mismatch(Exception):
    """A printed or computed number differs from its reference."""


def g6(x: float) -> str:
    """The CLI's tabular number format: six significant digits."""
    return f"{x:.6g}"


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str, "Model"], int] | None = None  # None: an invalid input
    scenarios: int = 0  # filled in by the check

    @property
    def expect_exit(self) -> int:
        return 0 if self.check else 1


class Model:
    """The public API and the oracle, imported only after the source is found."""

    def __init__(self) -> None:
        import chipcarbon as cc
        import oracle

        self.cc = cc
        self.oracle = oracle
        self.params = cc.load_parameters()
        self.library = cc.builtin_testcases(self.params)

    def totals(self, domain, n_app, lifetime, volume, horizon) -> tuple[float, float]:
        scenario = self.cc.Scenario(domain, n_app=n_app, lifetime_years=lifetime,
                                    volume=volume, horizon_years=horizon)
        fpga, asic = self.cc.evaluate_scenario(scenario, self.params, self.library)
        return fpga.total.value, asic.total.value

    def oracle_totals(self, domain, n_app, lifetime, volume, horizon) -> tuple[float, float]:
        tc = self.library.domain(domain)
        apps = [self.cc.ApplicationProfile(f"bench-app{i}", tc.default_app_size_gates,
                                           self.cc.Duration.from_years(lifetime), volume)
                for i in range(n_app)]
        fpga = self.oracle.oracle_fpga_total(apps, tc.fpga, self.params, horizon)
        asic = self.oracle.oracle_asic_total(apps, [tc.asic] * n_app, self.params)
        return sum(fpga.values()), sum(asic.values())


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: printed {got!r}, expected {want!r}")


def _parse(stdout: str, fmt: str):
    """Tabular output as (header, rows) without comment lines; record as JSON."""
    if fmt == "record":
        return json.loads(stdout)["results"]
    lines = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
    return lines[0], lines[1:]


def _scenario_args(n_app, lifetime, volume, horizon) -> list[str]:
    argv = ["--apps", str(n_app), "--lifetime", repr(lifetime), "--volume", str(volume)]
    return argv + (["--horizon", repr(horizon)] if horizon is not None else [])


def compare_op(domain, n_app, lifetime, volume, horizon, fmt) -> Op:
    oracle_applies = (volume <= ORACLE_MAX_VOLUME
                      and (horizon is None or horizon >= n_app * lifetime))

    def check(stdout: str, m: Model) -> int:
        fpga, asic = m.totals(domain, n_app, lifetime, volume, horizon)
        res = _parse(stdout, fmt)
        if fmt == "record":
            printed = res["fpga"]["total"], res["asic"]["total"]
            _expect("compare totals", tuple(map(g6, printed)), (g6(fpga), g6(asic)))
        else:
            rows = {(r[0], r[1]): r[2] for r in res[1]}
            _expect("compare totals", (rows[("FPGA", "total")], rows[("ASIC", "total")]),
                    (g6(fpga), g6(asic)))
        if oracle_applies:
            for name, api, ref in zip(("FPGA", "ASIC"), (fpga, asic),
                                      m.oracle_totals(domain, n_app, lifetime, volume, horizon)):
                if not math.isclose(api, ref, rel_tol=ORACLE_REL_TOL, abs_tol=1e-12):
                    raise Mismatch(f"{name} API total {api!r} vs oracle {ref!r}")
        return 1

    argv = ["compare", "--domain", domain, *_scenario_args(n_app, lifetime, volume, horizon)]
    return Op(argv + ["--format", fmt], check)


def estimate_op(testcase, n_app, lifetime, volume, horizon, fmt) -> Op:
    def check(stdout: str, m: Model) -> int:
        chip = m.library.industry(testcase)
        total = m.cc.estimate_platform(chip, n_app, lifetime, volume, m.params, horizon).total
        res = _parse(stdout, fmt)
        if fmt == "record":
            printed = g6(res["breakdown"]["total"])
        else:
            printed = {r[1]: r[2] for r in res[1]}["total"]
        _expect("estimate total", printed, g6(total.value))
        return 1

    argv = ["estimate", "--testcase", testcase,
            *_scenario_args(n_app, lifetime, volume, horizon)]
    return Op(argv + ["--format", fmt], check)


def _points(res, fmt: str, key: str) -> list[tuple[str, str, str]]:
    """(x, fpga_total, asic_total) of each sweep or timeline row, as printed."""
    if fmt == "record":
        return [(g6(p[key]), g6(p["fpga"]["total"]), g6(p["asic"]["total"]))
                for p in res["points"]]
    return [tuple(r[:3]) for r in res[1]]


def _grid(start: float, stop: float, steps: int, log: bool, whole: bool) -> list[float]:
    """The CLI's grid for `VAR:START:STOP:STEPS[:log]`."""
    if log:
        la, lb = math.log10(start), math.log10(stop)
        values = [10 ** (la + i * (lb - la) / (steps - 1)) for i in range(steps)]
    else:
        values = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    return sorted({float(int(round(v))) for v in values}) if whole else values


def _spec_grid(m: Model, spec: str) -> list[float]:
    """The values the CLI samples for `--sweep SPEC`; a bare name is the stock grid."""
    parts = spec.split(":")
    if len(parts) == 1:
        return list(m.cc.default_grid(m.cc.SweepVariable(spec)))
    return _grid(float(parts[1]), float(parts[2]), int(parts[3]), log=len(parts) == 5,
                 whole=parts[0] in ("NumApps", "AppVolume"))


def _with_axis(scenario, axis: str, value: float):
    """`scenario` with the sweep variable `axis` set to `value`, as the CLI sets it."""
    if axis == "NumApps":
        return replace(scenario, n_app=int(value))
    if axis == "AppVolume":
        return replace(scenario, volume=int(round(value)))
    if axis == "AppLifetime":
        return replace(scenario, lifetime_years=float(value))
    return replace(scenario, horizon_years=float(value))


def _picks(seed: float, size: int, count: int | None) -> range | list[int]:
    """All indices, or `count` of them chosen by `seed`."""
    if count is None or count >= size:
        return range(size)
    return sorted(random.Random(seed).sample(range(size), count))


def sweep_op(domain, spec, n_app, lifetime, volume, horizon, fmt, rng: random.Random,
             sampled: int | None = None) -> Op:
    """`sweep --sweep SPEC`; each row is recomputed with the public `sweep`.

    Every row is recomputed unless `sampled` is given; then that many seeded
    rows are, for sweeps that cost as much to check as to run.
    """
    pick_seed = rng.random()

    def check(stdout: str, m: Model) -> int:
        grid = _spec_grid(m, spec)
        rows = _points(_parse(stdout, fmt), fmt, "value")
        _expect("sweep values", [r[0] for r in rows], [g6(v) for v in grid])
        cc = m.cc
        variable = cc.SweepVariable(spec.split(":")[0])
        fixed = cc.Scenario(domain, n_app=n_app, lifetime_years=lifetime, volume=volume,
                            horizon_years=horizon)
        for i in _picks(pick_seed, len(grid), sampled):
            (pt,) = cc.sweep(cc.SweepSpec(variable, (grid[i],), fixed), m.params, m.library)
            _expect(f"sweep row {i}", rows[i][1:],
                    (g6(pt.fpga.total.value), g6(pt.asic.total.value)))
        return len(rows)

    argv = ["sweep", "--domain", domain, "--sweep", spec,
            *_scenario_args(n_app, lifetime, volume, horizon)]
    return Op(argv + ["--format", fmt], check)


def heatmap_op(domain, x_spec, y_spec, lifetime, volume, horizon, fmt, rng: random.Random,
               sampled_rows: int | None = None) -> Op:
    """An x by y ratio grid; every row, or `sampled_rows` seeded ones, is recomputed.

    A heatmap row is the x sweep at that y value, so each checked row is
    compared with the public `sweep`.
    """
    pick_seed = rng.random()
    x_axis, y_axis = x_spec.split(":")[0], y_spec.split(":")[0]

    def check(stdout: str, m: Model) -> int:
        xs, ys = _spec_grid(m, x_spec), _spec_grid(m, y_spec)
        res = _parse(stdout, fmt)
        if fmt == "record":
            _expect("heatmap axes", ([g6(x) for x in res["x_values"]],
                                     [g6(y) for y in res["y_values"]]),
                    ([g6(x) for x in xs], [g6(y) for y in ys]))
            cells = [[g6(c) for c in row] for row in res["cells"]]
        else:
            rows = res[1]
            _expect("heatmap axes", [(r[0], r[1]) for r in rows],
                    [(g6(x), g6(y)) for y in ys for x in xs])
            cells = [[r[2] for r in rows[i * len(xs):(i + 1) * len(xs)]]
                     for i in range(len(ys))]
        cc = m.cc
        base = cc.Scenario(domain, n_app=1, lifetime_years=lifetime, volume=volume,
                           horizon_years=horizon)
        for iy in _picks(pick_seed, len(ys), sampled_rows):
            fixed = _with_axis(base, y_axis, ys[iy])
            spec = cc.SweepSpec(cc.SweepVariable(x_axis), tuple(xs), fixed)
            ratios = [g6(p.fpga.total.value / p.asic.total.value)
                      for p in cc.sweep(spec, m.params, m.library)]
            _expect(f"heatmap row {iy}", cells[iy], ratios)
        return len(xs) * len(ys)

    argv = ["heatmap", "--domain", domain, "--sweep", x_spec, "--sweep", y_spec,
            "--lifetime", repr(lifetime), "--volume", str(volume)]
    if horizon is not None:
        argv += ["--horizon", repr(horizon)]
    return Op(argv + ["--format", fmt], check)


def timeline_op(domain, lifetime, horizon, step, volume, fmt) -> Op:
    """A timeline whose last row must equal the matching total query."""
    def check(stdout: str, m: Model) -> int:
        rows = _points(_parse(stdout, fmt), fmt, "t_years")
        n_app = max(1, math.ceil(horizon / lifetime))
        fpga, asic = m.totals(domain, n_app, lifetime, volume, horizon)
        _expect("timeline last row", rows[-1], (g6(horizon), g6(fpga), g6(asic)))
        return len(rows)

    argv = ["timeline", "--domain", domain, "--lifetime", repr(lifetime),
            "--horizon", repr(horizon), "--step", repr(step), "--volume", str(volume)]
    return Op(argv + ["--format", fmt], check)


# ---------------------------------------------------------------- generators


def _lifetime(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _oracle_horizon(rng: random.Random, n_app: int, lifetime: float) -> float | None:
    """No horizon, or one at or past the schedule end: where the oracle applies."""
    end = n_app * lifetime
    return rng.choice([None, end, round(end + rng.uniform(0.5, 20.0), 3)])


def _volume(rng: random.Random, small: bool) -> int:
    if small:
        return rng.randint(1, ORACLE_MAX_VOLUME)
    return int(round(10 ** rng.uniform(4, 7)))


# The commands README.md documents: its "Command line" examples, then
# "Reproducing the bundled studies" A-E and the two industry estimates. Each
# block runs all of them, plus three invalid inputs that must be refused. The
# kind and, for sweeps and heatmaps, the axes stay as documented; the seed
# varies the rest (see `cli_query_block`).
README_QUERIES = (
    ("estimate",), ("compare",), ("sweep", "NumApps:1:8:8"),
    ("heatmap", "NumApps:1:8:8", "AppVolume:1e3:1e7:25:log"), ("timeline",),
    ("sweep", "NumApps:1:8:8"), ("sweep", "NumApps:1:8:8"), ("sweep", "NumApps:1:15:15"),
    ("sweep", "AppLifetime:0.2:2.5:24"), ("sweep", "AppVolume:1e3:1e6:25:log"),
    ("heatmap", "NumApps:1:8:8", "AppVolume:1e3:1e7:25:log"), ("timeline",),
    ("estimate",), ("estimate",),
)
INVALID_QUERIES = (("unknown_domain",), ("bad_sweep",), ("volume_inf",))
QUERY_BLOCK = len(README_QUERIES) + len(INVALID_QUERIES)  # 17


def cli_query_block(rng: random.Random) -> list[Op]:
    """One block of `cli_queries`: every README command once, in seeded order.

    The seed draws the domain or industry testcase, 1-10 applications, the
    lifetime and the volume of each command, and alternates tabular and record
    output; the timelines keep README's `--lifetime 1 --horizon 45 --step 0.5`
    (45 applications). Half of the compares use volumes small enough for the
    event oracle. Every block has the same mix, so latency percentiles and the
    failure share do not depend on where a run stops.
    """
    kinds = list(README_QUERIES + INVALID_QUERIES)
    rng.shuffle(kinds)
    ops: list[Op] = []
    for i, (kind, *specs) in enumerate(kinds):
        fmt = "record" if i % 2 else "tabular"
        domain = rng.choice(DOMAINS)
        n_app = rng.randint(1, 10)
        lifetime = _lifetime(rng, 0.5, 4.0)
        if kind == "compare":
            small = rng.random() < 0.5
            ops.append(compare_op(domain, n_app, lifetime, _volume(rng, small), None, fmt))
        elif kind == "estimate":
            ops.append(estimate_op(rng.choice(INDUSTRY), n_app, _lifetime(rng, 0.5, 6.0),
                                   _volume(rng, False), None, fmt))
        elif kind == "sweep":
            ops.append(sweep_op(domain, specs[0], n_app, lifetime, _volume(rng, False), None,
                                fmt, rng))
        elif kind == "heatmap":
            ops.append(heatmap_op(domain, *specs, lifetime, _volume(rng, False), None, fmt, rng))
        elif kind == "timeline":
            ops.append(timeline_op(domain, 1.0, 45.0, 0.5, _volume(rng, False), fmt))
        elif kind == "unknown_domain":
            ops.append(Op(["compare", "--domain", rng.choice(["dnn", "FFT", "Video"])]))
        elif kind == "bad_sweep":
            spec = rng.choice(["NumApps:1:2", "Apps", "AppVolume:1:10:0", "Horizon:a:b:3"])
            ops.append(Op(["sweep", "--domain", domain, "--sweep", spec]))
        else:  # an invalid volume; see README "Known defects"
            ops.append(Op(["compare", "--domain", domain, "--volume", "inf"]))
    return ops


def design_space_cycle(rng: random.Random) -> list[Op]:
    """Per domain: a 25x40 AppVolume x NumApps heatmap and one sweep per axis.

    Applications live 2 y and heatmap horizons are at least 100 y, so no seed
    truncates the 40-application schedule and the work per cycle is fixed. The
    NumApps sweep runs to 1000 applications at a 500 y horizon; the stock
    AppLifetime, AppVolume and Horizon sweeps use README's 5 applications.
    """
    ops: list[Op] = []
    domains = list(DOMAINS)
    rng.shuffle(domains)
    lifetime = 2.0
    for domain in domains:
        volume = _volume(rng, False)
        ops.append(heatmap_op(domain, "AppVolume:1e3:1e7:25:log", "NumApps:1:40:40", lifetime,
                              volume, round(rng.uniform(100.0, 120.0), 3), "tabular", rng, 2))
        ops.append(sweep_op(domain, "NumApps:1:1000:25", 1, lifetime, volume, 500.0,
                            "tabular", rng, sampled=3))
        for axis in ("AppLifetime", "AppVolume", "Horizon"):
            ops.append(sweep_op(domain, axis, 5, lifetime, volume, None, "tabular", rng,
                                sampled=5))
    return ops


def oracle_points(rng: random.Random, count: int) -> list[Op]:
    """`compare` queries small enough for the event oracle, checked outside timing."""
    ops = []
    for _ in range(count):
        n_app = rng.randint(1, 10)
        lifetime = _lifetime(rng, 0.25, 4.0)
        ops.append(compare_op(rng.choice(DOMAINS), n_app, lifetime, _volume(rng, True),
                              _oracle_horizon(rng, n_app, lifetime), "tabular"))
    return ops


def timelines_cycle(rng: random.Random) -> list[Op]:
    """Fine-step 45 y timelines for each domain, then one 2000 y timeline.

    The 2000 y run builds 2000 applications but prints only 21 rows, which
    separates work bound by the number of applications from work bound by the
    output size. Lifetimes are fixed at 1 y, which fixes the application count.
    """
    domains = list(DOMAINS)
    rng.shuffle(domains)
    ops = [timeline_op(d, 1.0, 45.0, 0.05, _volume(rng, False), "tabular") for d in domains]
    ops.append(timeline_op("DNN", 1.0, 2000.0, 100.0, _volume(rng, False), "tabular"))
    return ops
