"""The names the benchmark harness binds in the package still exist.

`benchmarks/tracer.py` wraps public functions and counts three constructors or
operators, and `benchmarks/run.py` times a setup snippet that calls
`chipcarbon.cli`'s loaders. A package change that removes one of those names
fails here, not only in a traced benchmark run.
"""

import pathlib
import subprocess
import sys

from cli_env import cli_env

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
assert tracer.patched() == [], tracer.patched()
import run
exec(run.SETUP_CODE)
"""


def test_tracer_installs_and_setup_code_runs():
    # in a child: `install` imports every submodule and rebinds module globals
    proc = subprocess.run([sys.executable, "-c", CHILD, str(BENCHMARKS)],
                          capture_output=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
