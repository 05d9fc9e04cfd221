"""Byte-exact CLI reports for every command on every shipped problem.

The expected files under ``tests/golden/`` are only ever read here; they
are rewritten by ``tests/golden/regenerate.py`` when a report change is
intended.
"""

import json
from fractions import Fraction

import pytest
from golden.regenerate import (
    COMMANDS,
    GOLDEN,
    error_record,
    expected_path,
    problem_files,
    run_cli,
)

from starobs import Polynomial, linsolve
from starobs.cli import render_report

CASES = [(problem, command) for problem in problem_files() for command in COMMANDS]


def test_goldens_cover_all_problems_and_commands():
    assert len(CASES) == 36


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


GOLDEN_FILES = sorted(GOLDEN.glob("*/*.json"))


def test_every_golden_is_listed():
    assert len(GOLDEN_FILES) == 36


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[f"{p.parent.name}-{p.name}" for p in GOLDEN_FILES]
)
def test_golden_text_is_a_render_report_fixed_point(path):
    """Parsing a golden and rendering it again gives its bytes back."""
    text = path.read_text(encoding="utf-8")
    assert render_report(json.loads(text)) == text


@pytest.mark.parametrize(
    "problem, command", CASES, ids=[f"{p.stem}-{c}" for p, c in CASES]
)
def test_run_stores_no_float_and_no_integral_fraction(problem, command, monkeypatch):
    """Every stored Polynomial coefficient is an int or a non-integral Fraction,
    and every solution and nullspace value is an int or a Fraction.

    A Polynomial is stored by __init__ from outside input and by _trusted
    from arithmetic, so both are recorded.  The CLI turns an exception into
    an exit code, so the wrappers record what they see and the test asserts
    afterwards.
    """
    coefficients, trusted_coefficients, solved = [], [], []
    init, trusted, solve = Polynomial.__init__, Polynomial._trusted, linsolve.solve_sparse

    def recording_init(self, dim, terms=None):
        init(self, dim, terms)
        coefficients.extend(self.terms.values())

    def recording_trusted(cls, dim, terms):
        p = trusted(dim, terms)
        trusted_coefficients.extend(p.terms.values())
        return p

    def recording_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        found = [*(result.solution or {}).values(), *result.nullspace]
        solved.extend(v for x in found for v in (x.values() if isinstance(x, dict) else (x,)))
        return result

    monkeypatch.setattr(Polynomial, "__init__", recording_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(recording_trusted))
    monkeypatch.setattr(linsolve, "solve_sparse", recording_solve)
    run_cli(problem, command)
    # every run stores a Polynomial by _trusted; since the loader checks coordinate
    # names without building their variables, some store none by __init__
    assert trusted_coefficients
    coefficients += trusted_coefficients
    exact = [type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coefficients]
    assert all(exact), [c for c, ok in zip(coefficients, exact) if not ok][:5]
    assert all(type(v) in (int, Fraction) for v in solved), solved[:5]
