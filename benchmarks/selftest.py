"""Self-tests of the benchmark harness.

Run from the repository root: python3 benchmarks/selftest.py

They show that tracing changes no output, that every wrapped binding is put
back, that self times are consistent with wall time, that call counts and
generated inputs repeat exactly for a seed, that the speed probe samples and
is removed, and that the metric names agree with BENCHMARK.json.
"""

import json
import random
import signal
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, Tracer  # noqa: E402

# Small commands covering every subcommand and every traced layer.
ARGVS = [
    ["compare", "--domain", "DNN", "--apps", "4", "--horizon", "20"],
    ["estimate", "--testcase", "IndustryFPGA1", "--apps", "3", "--format", "record"],
    ["sweep", "--domain", "ImgProc", "--sweep", "NumApps", "--horizon", "30"],
    ["heatmap", "--domain", "Crypto", "--sweep", "AppVolume", "--sweep", "NumApps"],
    ["timeline", "--domain", "DNN", "--horizon", "12", "--step", "0.5"],
]


def bindings() -> dict:
    """Every module attribute of the package and every attribute of its classes."""
    import chipcarbon  # noqa: F401

    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "chipcarbon" or name.startswith("chipcarbon."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def traced_runs(argvs):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        outs = [run.run_inprocess(argv, tracer).out for argv in argvs]
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return outs, tracer.snapshot(), wall


class TracerTest(unittest.TestCase):
    def test_traced_and_untraced_stdout_identical(self):
        plain = [run.run_inprocess(argv) for argv in ARGVS]
        for res in plain:
            self.assertEqual(res.code, 0, res.err)
        traced, _, _ = traced_runs(ARGVS)
        self.assertEqual([res.out for res in plain], traced)

    def test_traced_cli_subprocess_matches_plain_one(self):
        env = run.child_env()
        plain = run.run_subprocess(ARGVS[0], env)
        traced = run.run_subprocess(ARGVS[0], env, traced=True)
        self.assertEqual((plain.code, plain.out, plain.err), (traced.code, traced.out, traced.err))
        self.assertEqual(traced.snapshot["spans"]["cli.main"][0], 1)

    def test_every_wrapped_name_is_restored(self):
        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            wrapped = {(getattr(owner, "__name__", None), attr)
                       for owner, attr, _ in tracer.patched()}
            # names bound by `from .x import y` are wrapped where they are called
            for name in [("chipcarbon.cli", "heatmap"), ("chipcarbon.cli", "load_parameters"),
                         ("chipcarbon.scenario", "fpga_total_cfp"),
                         ("chipcarbon.lifecycle", "design_cfp"),
                         ("chipcarbon.lifecycle", "deployment_cfp")]:
                self.assertIn(name, wrapped)
        finally:
            tracer.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(changed, [])
        self.assertEqual(tracer.patched(), [])

    def test_self_times_non_negative_and_within_wall(self):
        _, snap, wall = traced_runs(ARGVS)
        self_times = [s for _, s in snap["spans"].values()]
        self.assertTrue(all(s >= 0.0 for s in self_times), snap["spans"])
        self.assertLessEqual(sum(self_times), wall)
        self.assertEqual(snap["spans"]["cli.main"][0], len(ARGVS))

    def test_call_counts_repeat_exactly(self):
        _, first, _ = traced_runs(ARGVS)
        _, second, _ = traced_runs(ARGVS)
        calls = {k: v[0] for k, v in first["spans"].items()}
        self.assertEqual(calls, {k: v[0] for k, v in second["spans"].items()})
        self.assertEqual(first["counts"], second["counts"])
        self.assertEqual(set(first["counts"]), set(COUNTERS))
        self.assertGreater(first["counts"]["quantities.CarbonMass.created"], 0)


class SpeedProbeTest(unittest.TestCase):
    def test_probe_samples_a_command_and_is_removed(self):
        with run.SpeedProbe() as probe:
            res = run.run_inprocess(ARGVS[4])
        self.assertGreater(len(probe.loops), 0)
        self.assertGreater(probe.scaled(res, 0), 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGPROF), signal.SIG_DFL)


class InputsTest(unittest.TestCase):
    @staticmethod
    def generated(seed):
        rng = random.Random(seed)
        ops = (workloads.cli_query_block(rng) + workloads.cli_query_block(rng)
               + workloads.design_space_cycle(rng) + workloads.oracle_points(rng, 5)
               + workloads.timelines_cycle(rng))
        return [op.argv for op in ops]

    def test_inputs_repeat_for_a_seed(self):
        self.assertEqual(self.generated(7), self.generated(7))
        self.assertNotEqual(self.generated(7), self.generated(8))

    def test_query_block_mix_is_fixed(self):
        def mix(seed):
            block = workloads.cli_query_block(random.Random(seed))
            return sorted((op.argv[0], op.check is None) for op in block)
        self.assertEqual(mix(3), mix(4))
        self.assertEqual(len(mix(3)), workloads.QUERY_BLOCK)
        self.assertEqual(sum(invalid for _, invalid in mix(3)), 3)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        snap = {"spans": {}, "counts": {name: 0 for name in COUNTERS}}
        layer = run.layer_metrics([snap], 1, 0, 0.0, 0.0, 0.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in layer})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
