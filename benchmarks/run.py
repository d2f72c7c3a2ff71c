"""chipcarbon benchmark: three workloads, end-to-end metrics or per-layer traces.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {cli_queries,design_space,timelines} \
        --seed N --seconds S --trace {0,1}

With `--trace 0` the run measures for S seconds with nothing wrapped and
reports the end-to-end metrics, with every timing scaled to a fixed host
speed measured during the run; with `--trace 1` it alternates untraced and
traced passes over one fixed cycle of the same inputs and reports the
per-layer metrics. Either way every output is checked (see workloads.py) and
the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment and sample counts. Failed operations are listed on stderr.
benchmarks/README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

WORKLOADS = ("cli_queries", "design_space", "timelines")
# `python -I` ignores PYTHONPATH, so the floor cannot depend on the program
FLOOR_CMD = [sys.executable, "-I", "-c", "pass"]
SETUP_CODE = ("import chipcarbon.cli as c; p = c.load_parameters(); c.validate(p); "
              "c.builtin_testcases(p)")
FLOOR_REF_S = 0.05  # the interpreter floor that start-up times are quoted at
PROBE_EVERY_S = 0.01  # CPU time between two speed-probe loops
PROBE_LOOP = 2000  # additions per probe loop
PROBE_REF_S = 1e-4  # the probe-loop time that in-process times are quoted at
PRE_STARTS = 5  # start-up samples before the workload; more follow during it
MIN_QUERIES = 102  # six blocks, so that at least ten latencies lie beyond p90
MIN_CYCLES = 2  # runs of each in-process command; the first is the reference
ORACLE_POINTS = 24
CHILD_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "query_p50_s": "s", "query_p90_s": "s",
                    "scenarios_per_s": "1/s", "peak_rss_mb": "MB", "success_rate": "ratio"}


# ------------------------------------------------------------------ running


@dataclass
class Result:
    """One run of one op; `snapshot` holds a traced child's tracer counts."""

    seconds: float
    code: int
    out: str
    err: str
    snapshot: dict | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHIPCARBON_PARAMS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(cmd: list[str], env: dict, pass_fds=()) -> Result:
    """Run `cmd` to its end; wall time is from spawn until the child is reaped.

    `communicate()` without a timeout reaps the child with a blocking wait,
    which ends the clock exactly at exit; a timeout there would poll with
    sleeps of up to 50 ms instead. A timer signal bounds a hung child.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=pass_fds)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        out, err = proc.communicate()
    except TimeoutError:
        proc.kill()
        out, err = proc.communicate()
        err += b"\nbenchmark: timed out"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Result(time.perf_counter() - start, proc.returncode, out.decode(), err.decode())


def spawn_wall(cmd: list[str], env: dict) -> float:
    """Wall time of one command that must succeed."""
    res = spawn(cmd, env)
    if res.code != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {res.err.strip()}")
    return res.seconds


class Starts:
    """Fresh-interpreter samples, taken in between the workload's own runs.

    A sample is one bare interpreter (`FLOOR_CMD`) and, unless only the floor
    is wanted, one interpreter that runs `SETUP_CODE` right after it. Spread
    over the run, the floor samples see the same host speed as the workload.
    """

    def __init__(self, env: dict, with_setup: bool) -> None:
        self.env = env
        self.with_setup = with_setup
        self.floor: list[float] = []
        self.setup_ratios: list[float] = []  # SETUP_CODE wall over the floor just before it
        self.setup: list[float] = []

    def sample(self, reps: int = 1, setup: bool = True) -> None:
        for _ in range(reps):
            self.floor.append(spawn_wall(FLOOR_CMD, self.env))
            if self.with_setup and setup:
                self.setup.append(spawn_wall([sys.executable, "-c", SETUP_CODE], self.env))
                self.setup_ratios.append(self.setup[-1] / self.floor[-1])


class SpeedProbe:
    """The host's speed, sampled inside this process while it works.

    Every PROBE_EVERY_S of CPU time a SIGPROF handler times a fixed loop of
    PROBE_LOOP additions. The loop does the same work each time, so its time
    tracks how fast the shared cores run at that moment; the program's code
    has no part in it.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.loops.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, res: "Result", first_loop: int) -> float:
        """`res.seconds` less the probe loops run in it, at PROBE_REF_S per loop.

        A command too short to be probed takes the speed of the last few loops.
        """
        loops = self.loops[first_loop:]
        speed = statistics.mean(loops or self.loops[-8:]) / PROBE_REF_S
        return (res.seconds - sum(loops)) / speed


def run_inprocess(argv: list[str], tracer=None) -> Result:
    """`chipcarbon.cli.main(argv)` with stdout and stderr captured."""
    from chipcarbon.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                main(argv)
            else:
                tracer.call("cli.main", main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is an outcome to report, not to stop on
            traceback.print_exc()
            code = 1
    return Result(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


def run_subprocess(argv: list[str], env: dict, traced: bool = False) -> Result:
    """`python -m chipcarbon ARGV`, or the traced launcher that behaves the same.

    The traced child writes its tracer snapshot (a few kB, below the pipe
    buffer) to an inherited pipe, so its stdout and stderr stay untouched.
    """
    if not traced:
        return spawn([sys.executable, "-m", "chipcarbon", *argv], env)
    read_fd, write_fd = os.pipe()
    try:
        cmd = [sys.executable, str(BENCH / "traced_main.py"), str(write_fd), *argv]
        res = spawn(cmd, env, pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    res.snapshot = json.loads(data) if data else None
    return res


# ------------------------------------------------------------------ checking


class Ledger:
    """Attempted and failed ops, and whether any printed result was wrong."""

    def __init__(self, model) -> None:
        self.model = model
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, op, res: Result, reference: str | None = None, check: bool = False) -> None:
        """Judge one run of `op`.

        An op fails on a traceback, an unexpected exit status, an invalid input
        that does not end in one `error:` line, stdout that differs from the
        `reference` run, or a check mismatch. `correct` turns false only when a
        result was printed and is wrong: a valid input failing, or an invalid
        one exiting 0. Invalid inputs that end in a traceback only fail.
        """
        self.attempted += 1
        problem = None
        if "Traceback" in res.err:
            problem = "traceback on stderr: " + res.err.strip().splitlines()[-1]
        elif res.code != op.expect_exit:
            problem = f"exit status {res.code}, expected {op.expect_exit}"
        elif op.check is None:
            lines = res.err.strip().splitlines()
            if res.out or len(lines) != 1 or not lines[0].startswith("error:"):
                problem = "invalid input did not end in one `error:` line"
        elif reference is not None and res.out != reference:
            problem = "stdout differs from the reference run of the same command"
        elif check:
            try:
                op.scenarios = op.check(res.out, self.model)
            except workloads.Mismatch as exc:
                problem = f"mismatch: {exc}"
            except Exception as exc:  # malformed output; report it and carry on
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            if op.check is not None or res.code == 0:
                self.correct = False
            self.problems.append(f"{' '.join(op.argv)}: {problem}")


# ------------------------------------------------------------------ metrics


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(snapshots: list[dict], scenarios: int, bytes_out: int, overhead: float,
                  floor: float, import_cli: float) -> dict:
    """Per-layer metrics from the tracer snapshots of identical cycles.

    Call counts come from the first cycle (every cycle makes the same calls);
    self times are medians over cycles. A layer's self time sums the self
    times of all its public functions, not only the ones listed by name.
    """
    first = snapshots[0]["spans"]

    def calls(name):
        return first.get(name, [0, 0.0])[0]

    def self_s(name=None, layer=None):
        return statistics.median(
            sum(v[1] for k, v in s["spans"].items()
                if k == name or (layer and k.startswith(layer + ".")))
            for s in snapshots)

    m = {"import.floor_s": floor, "import.cli_s": import_cli}
    for fn in ("load_parameters", "validate", "builtin_testcases"):
        m[f"store.{fn}.calls"] = calls(f"store.{fn}")
        m[f"store.{fn}.self_s"] = self_s(f"store.{fn}")
    for fn in ("design_cfp", "manufacturing_cfp", "packaging_cfp", "eol_cfp"):
        m[f"embodied.{fn}.calls"] = calls(f"embodied.{fn}")
    m["embodied.self_s"] = self_s(layer="embodied")
    m["embodied.calls_per_scenario"] = sum(
        v[0] for k, v in first.items() if k.startswith("embodied.")) / scenarios
    for fn in ("deployment_cfp", "app_dev_cfp"):
        m[f"deployment.{fn}.calls"] = calls(f"deployment.{fn}")
    m["deployment.self_s"] = self_s(layer="deployment")
    for name in ("lifecycle.asic_total_cfp", "lifecycle.fpga_total_cfp",
                 "lifecycle.cumulative_timeline", "scenario.evaluate_scenario",
                 "scenario.sweep", "scenario.heatmap", "scenario.find_crossovers", "cli.main"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m.update(snapshots[0]["counts"])
    m["cli.bytes_out"] = bytes_out
    m["trace.overhead_s"] = overhead
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("calls_per_scenario"):
        return "1/scenario"
    return "count"


# ------------------------------------------------------------------ workloads


def measure_inprocess(workload: str, rng: random.Random, seconds: int, trace: bool,
                      ledger: Ledger, starts: Starts) -> tuple[dict, dict]:
    """design_space / timelines: warm `cli.main` calls in this process.

    The run repeats one cycle of commands until `seconds` have passed and at
    least MIN_CYCLES cycles ran. The first cycle is the warm-up and its stdout
    the reference: every later run of a command must repeat it byte for byte,
    and it is checked against the API and the oracle after the timed window.
    A start-up sample follows every few commands.

    Untraced, each command's time is scaled by the SpeedProbe to a fixed host
    speed (README "Host-speed scaling"). A command's latency is the median of
    its runs; throughput is the cycle's scenarios over its median wall.
    """
    if workload == "design_space":
        cycle = workloads.design_space_cycle(rng)
        checks = workloads.oracle_points(rng, ORACLE_POINTS)
    else:
        cycle = workloads.timelines_cycle(rng)
        checks = []
    sample_every = max(1, len(cycle) // 4)
    first: list[Result] = []

    def one_cycle(probe=None, tracer=None) -> tuple[list[float], list[float], int]:
        raw, scaled, bytes_out = [], [], 0
        for i, op in enumerate(cycle):
            first_loop = len(probe.loops) if probe else 0
            res = run_inprocess(op.argv, tracer)
            raw.append(res.seconds)
            if probe:
                scaled.append(probe.scaled(res, first_loop))
            if len(first) < len(cycle):
                first.append(res)  # judged and checked after the window
            else:
                ledger.record(op, res, reference=first[i].out)
            bytes_out += len(res.out.encode())
            if tracer is None and (i + 1) % sample_every == 0:
                starts.sample()
        return raw, scaled, bytes_out

    def more(walls) -> bool:
        return len(walls) < MIN_CYCLES or time.perf_counter() - start < seconds

    walls, traced_walls, snapshots, runs = [], [], [], []
    if trace:
        start = time.perf_counter()
        while more(walls):
            raw, _, bytes_out = one_cycle()
            walls.append(sum(raw))
            tracer = Tracer()
            tracer.install()
            try:
                raw, _, _ = one_cycle(tracer=tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(raw))
            snapshots.append(tracer.snapshot())
    else:
        with SpeedProbe() as probe:
            run_inprocess(["compare", "--domain", "DNN"])  # untimed: first-call imports
            start = time.perf_counter()
            while more(walls):
                raw, scaled, bytes_out = one_cycle(probe)
                walls.append(sum(raw))
                runs.append((raw, scaled))

    for op, res in zip(cycle, first):
        ledger.record(op, res, check=True)
    for op in checks:
        ledger.record(op, run_inprocess(op.argv), check=True)
    scenarios = sum(op.scenarios for op in cycle)
    samples = {"cycles": len(walls), "cycle_walls": walls, "ops_per_cycle": len(cycle),
               "check_ops": len(checks), "scenarios_per_cycle": scenarios}
    if trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        return samples, {"snapshots": snapshots, "scenarios": scenarios,
                         "bytes_out": bytes_out, "overhead": overhead}

    def summary(k: int) -> dict:
        """Latency percentiles over commands and throughput, from raw (0) or scaled (1) times."""
        latencies = [statistics.median(op_runs) for op_runs in zip(*(r[k] for r in runs))]
        return {"query_p50_s": statistics.median(latencies),
                "query_p90_s": quantile(latencies, 90),
                "scenarios_per_s": scenarios / statistics.median(sum(r[k]) for r in runs)}

    samples.update(probe_loops=len(probe.loops), unscaled=summary(0))
    return samples, {**summary(1),
                     "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_cli_queries(rng: random.Random, seconds: int, trace: bool, env: dict,
                        ledger: Ledger, starts: Starts) -> tuple[dict, dict]:
    """cli_queries: one client, one `python -m chipcarbon` subprocess at a time."""

    def run_block(block, traced=False):
        results = [run_subprocess(op.argv, env, traced) for op in block]
        return sum(r.seconds for r in results), results

    if trace:
        # One fixed block, run untraced and traced in turn; the first untraced
        # run is the reference the traced runs must repeat byte for byte.
        block = workloads.cli_query_block(rng)
        _, references = run_block(block)
        for op, res in zip(block, references):
            ledger.record(op, res, check=True)
        scenarios = sum(op.scenarios for op in block)
        start = time.perf_counter()
        walls, traced_walls, snapshots = [], [], []
        while not walls or time.perf_counter() - start < seconds:
            wall, results = run_block(block)
            walls.append(wall)
            for op, res, ref in zip(block, results, references):
                ledger.record(op, res, reference=ref.out)
            wall, results = run_block(block, traced=True)
            traced_walls.append(wall)
            for op, res, ref in zip(block, results, references):
                ledger.record(op, res, reference=ref.out)
            snapshots.append(merge(r.snapshot for r in results if r.snapshot))
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        bytes_out = sum(len(r.out.encode()) for r in references)
        return ({"blocks": len(walls), "ops_per_block": len(block)},
                {"snapshots": snapshots, "scenarios": scenarios, "bytes_out": bytes_out,
                 "overhead": overhead})

    # A floor sample runs before each query and after the block; each query's
    # scale is FLOOR_REF_S over the mean of the two around it (README
    # "Host-speed scaling").
    blocks = []
    start = time.perf_counter()
    while (len(blocks) * workloads.QUERY_BLOCK < MIN_QUERIES
           or time.perf_counter() - start < seconds):
        block = workloads.cli_query_block(rng)
        results = []
        for op in block:
            starts.sample(setup=False)
            results.append(run_subprocess(op.argv, env))
        starts.sample()
        floors = starts.floor[-len(block) - 1:]
        scales = [2 * FLOOR_REF_S / (a + b) for a, b in zip(floors, floors[1:])]
        blocks.append((block, results, scales))
    # checks run after the timed window
    for block, results, _ in blocks:
        for op, res in zip(block, results):
            ledger.record(op, res, check=True)

    def summary(scaled: bool) -> tuple[dict, int]:
        """The latency and throughput metrics, and how many latencies lie beyond p90."""
        latencies, rates = [], []
        for block, results, scales in blocks:
            times = [res.seconds * (k if scaled else 1.0) for res, k in zip(results, scales)]
            latencies += times
            rates.append(sum(op.scenarios for op in block) / sum(times))
        p90 = quantile(latencies, 90)
        return ({"query_p50_s": statistics.median(latencies), "query_p90_s": p90,
                 "scenarios_per_s": statistics.median(rates)},
                sum(x > p90 for x in latencies))

    metrics, beyond_p90 = summary(scaled=True)
    return ({"blocks": len(blocks), "latencies": len(blocks) * workloads.QUERY_BLOCK,
             "beyond_p90": beyond_p90, "unscaled": summary(scaled=False)[0]},
            {**metrics,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024})


# ------------------------------------------------------------------ main


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    missing = [p for p in (SRC / "chipcarbon" / "cli.py", TESTS / "oracle.py") if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    os.environ.pop("CHIPCARBON_PARAMS", None)

    env = child_env()
    rng = random.Random(args.seed)
    trace = bool(args.trace)
    spawn(FLOOR_CMD, env)
    spawn_wall([sys.executable, "-c", SETUP_CODE], env)  # writes bytecode caches first
    starts = Starts(env, with_setup=not trace)
    starts.sample(PRE_STARTS)
    ledger = Ledger(workloads.Model())
    if args.workload == "cli_queries":
        samples, measured = measure_cli_queries(rng, args.seconds, trace, env, ledger, starts)
    else:
        samples, measured = measure_inprocess(args.workload, rng, args.seconds, trace, ledger,
                                              starts)
    floor = statistics.median(starts.floor)

    if trace:
        import_cli = statistics.median(
            spawn_wall([sys.executable, "-c", "import chipcarbon.cli"], env) for _ in range(9))
        metrics = layer_metrics(measured["snapshots"], measured["scenarios"],
                                measured["bytes_out"], measured["overhead"], floor, import_cli)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup = statistics.median(starts.setup)
        samples["unscaled_setup_s"] = setup
        metrics = {"setup_s": statistics.median(starts.setup_ratios) * FLOOR_REF_S, **measured,
                   "success_rate": 1.0 - ledger.failed / ledger.attempted}
        units = END_TO_END_UNITS
    for problem in ledger.problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "env": {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
                "commit": git_commit(), "import_floor_s": floor},
        "samples": {"workload": args.workload, "seed": args.seed,
                    "start_samples": len(starts.floor), **samples},
    }))
    print(json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
