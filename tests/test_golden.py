"""Byte-exact CLI reports for every command on every shipped problem.

The expected files under ``tests/golden/`` are only ever read here; they
are rewritten by ``tests/golden/regenerate.py`` when a report change is
intended.
"""

import pytest
from golden.regenerate import COMMANDS, error_record, expected_path, problem_files, run_cli

CASES = [(problem, command) for problem in problem_files() for command in COMMANDS]


def test_goldens_cover_all_problems_and_commands():
    assert len(CASES) == 30


@pytest.mark.parametrize(
    "problem, command", CASES, ids=[f"{p.stem}-{c}" for p, c in CASES]
)
def test_report_matches_golden(problem, command):
    code, stdout, stderr = run_cli(problem, command)
    expected = expected_path(problem, command, code)
    assert expected.is_file(), f"no golden for exit {code} at {expected.name}"
    leftover = expected_path(problem, command, 1 if code == 0 else 0)
    assert not leftover.exists(), f"leftover golden {leftover.name} for another exit code"
    actual = stdout if code == 0 else error_record(code, stderr)
    assert actual.encode("utf-8") == expected.read_bytes()
