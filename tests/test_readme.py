"""The README's examples run as written.

The library quick start runs in a child interpreter, and each line it
prints must match the comment on its print call: equal to it, or the start
of it followed by a comma and a remark.  Each `fptkit` line of the command
line block runs as `python -m fptkit` and exits 0, and the lines whose
comment is their answer print it.
"""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from conftest import src_env

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# subcommands whose README comment is their answer; stdout shows it as a
# whole line or after " = "
ANSWERS = {"fpt": "5/6", "candidates": "0, 1/3, 1/2, 2/3"}


def _block(heading: str) -> list[str]:
    """The lines of the first fenced block after a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]


def _run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=src_env(), capture_output=True, text=True, timeout=120
    )


def test_library_quick_start_prints_its_comments():
    code = _block("## Library quick start")
    comments = [line.partition("#")[2].strip() for line in code if line.startswith("print(")]
    proc = _run(["-c", "\n".join(code)])
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(comments) == 7
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + ","), (line, comment)


COMMANDS = [line for line in _block("## Command line") if line.startswith("fptkit ")]


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_command_line_example_runs(line):
    args = shlex.split(line, comments=True)
    proc = _run(["-m", "fptkit", *args[1:]])
    assert proc.returncode == 0, proc.stderr
    answer = ANSWERS.get(args[1])
    if answer is not None:
        assert answer == line.partition("#")[2].strip()
        assert re.search(rf"(^| = ){re.escape(answer)}(\s|$)", proc.stdout, re.M), proc.stdout


def test_every_subcommand_is_shown():
    assert len(COMMANDS) == 9
    assert set(ANSWERS) <= {line.split()[1] for line in COMMANDS}
