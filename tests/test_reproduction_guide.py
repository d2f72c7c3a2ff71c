"""Every CLI command and Python block documented in the README runs from bundled defaults.

`readme_golden.txt` holds the stdout of each command, after a `$ chipcarbon ...`
line that names it; the README commands must keep printing it byte for byte.
"""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from cli_env import cli_env

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = pathlib.Path(__file__).with_name("readme_golden.txt")


def readme_commands():
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("chipcarbon "):
                commands.append(line)
    return commands


def readme_python_blocks() -> list[tuple[str, str]]:
    """(the `## ` heading it sits under, code) of each ```python block."""
    sections = re.split(r"^## ", README.read_text(encoding="utf-8"), flags=re.M)[1:]
    return [(section.split("\n", 1)[0], code) for section in sections
            for code in re.findall(r"```python\n(.*?)```", section, flags=re.S)]


# the stdout a block prints, by its heading
PYTHON_STDOUT = {"Library": b"[CrossoverPoint(kind='A2F', value=6.0, bracket=(5.0, 6.0))]\n",
                 "Model parameters": b"recycle_fraction must be in [0, 1], got 1.5\n"
                                     b"energy_per_mm2 must be finite, got nan\n"}


def golden_outputs() -> dict[str, bytes]:
    """Command (arguments joined by single spaces) -> its recorded stdout."""
    text = GOLDEN.read_bytes().decode("utf-8")
    blocks = re.split(r"^\$ ", text, flags=re.M)[1:]
    return {head: body.encode("utf-8")
            for head, body in (block.split("\n", 1) for block in blocks)}


@pytest.mark.parametrize("command", readme_commands(), ids=lambda c: c[:70])
def test_readme_command_runs(command, tmp_path):
    args = shlex.split(command)[1:]
    expected = golden_outputs()[" ".join(["chipcarbon", *args])]
    # redirect any documented output file into the sandbox
    if "--out" in args:
        args[args.index("--out") + 1] = str(tmp_path / "out.csv")
    proc = subprocess.run([sys.executable, "-m", "chipcarbon", *args],
                          capture_output=True, cwd=tmp_path, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == expected


@pytest.mark.parametrize("heading, code", readme_python_blocks(),
                         ids=[heading for heading, _ in readme_python_blocks()])
def test_readme_python_block_runs(heading, code, tmp_path):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=tmp_path,
                          env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    if heading in PYTHON_STDOUT:
        assert proc.stdout == PYTHON_STDOUT[heading]


def test_readme_actually_documents_the_studies():
    commands = readme_commands()
    assert len(commands) >= 10
    assert any("timeline" in c for c in commands)
    assert any("heatmap" in c for c in commands)
    assert set(PYTHON_STDOUT) <= {heading for heading, _ in readme_python_blocks()}
