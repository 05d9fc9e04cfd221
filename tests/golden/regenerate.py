"""Rewrite the golden CLI reports from the current sources.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs every command on every problem file in ``problems/`` and stores the
outcome under ``tests/golden/<problem>/``: ``<command>.json`` holds the
byte-exact stdout of a run that exits 0; ``<command>.error.json`` holds
the exit code and stderr of a run that does not.  Only run this when a
change to the reports is intended, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from starobs.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent
PROBLEMS = GOLDEN.parent.parent / "problems"


def problem_files() -> list[Path]:
    return sorted(PROBLEMS.glob("*.json"))


def run_cli(problem: Path, command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--problem", str(problem), "--command", command])
    return code, out.getvalue(), err.getvalue()


def expected_path(problem: Path, command: str, code: int) -> Path:
    suffix = ".json" if code == 0 else ".error.json"
    return GOLDEN / problem.stem / f"{command}{suffix}"


def error_record(code: int, stderr: str) -> str:
    return json.dumps({"exit": code, "stderr": stderr}, indent=2, sort_keys=True) + "\n"


def regenerate():
    for problem in problem_files():
        (GOLDEN / problem.stem).mkdir(exist_ok=True)
        for command in COMMANDS:
            code, stdout, stderr = run_cli(problem, command)
            for stale in (expected_path(problem, command, 0), expected_path(problem, command, 1)):
                stale.unlink(missing_ok=True)
            text = stdout if code == 0 else error_record(code, stderr)
            expected_path(problem, command, code).write_text(text, encoding="utf-8")
            print(f"{problem.stem} {command}: exit {code}")


if __name__ == "__main__":
    regenerate()
