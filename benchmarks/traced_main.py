"""`python -m chipcarbon ARGS...` with layer tracing, for traced CLI subprocesses.

Usage: python traced_main.py FD ARGS...

Runs the CLI exactly as `python -m chipcarbon` does (same stdout, stderr and
exit status) and writes the tracer's snapshot as JSON to the inherited file
descriptor FD when the command ends, however it ends.
"""

import json
import os
import sys

from tracer import Tracer

import chipcarbon.cli


def _run(fd: int, argv: list[str]) -> None:
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("cli.main", chipcarbon.cli.main, argv)
    finally:
        tracer.uninstall()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.snapshot(), out)


if __name__ == "__main__":
    _run(int(sys.argv[1]), sys.argv[2:])
