"""The sparse exact solver and the labelled system assembler.

`solve_sparse` is checked against `reference_solve_sparse`, the plain
row-by-pivot Gauss-Jordan elimination it replaced: every field must agree,
dict key order included.  A solve with vector right-hand sides must agree
with one scalar solve per label.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import reference_solve_sparse, row_labels
from starobs.linsolve import _SparseSystem, solve_sparse


def combine(weights, rows):
    """The sparse row sum of w * row."""
    out: dict[int, Fraction] = {}
    for w, row in zip(weights, rows):
        for c, v in row.items():
            out[c] = out.get(c, Fraction(0)) + w * v
    return {c: v for c, v in out.items() if v}


def random_system(rng: random.Random, consistent: bool):
    """Sparse rows of low rank (so there is fill-in and a nullspace) and a rhs.

    A consistent system has b = A x for a random x.  An inconsistent one
    gets one extra row, a combination of the others with its rhs moved
    by a nonzero amount, inserted at a random position.
    """
    ncols = rng.randint(1, 16)
    nbasis = rng.randint(1, 12)
    basis = []
    for _ in range(nbasis):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(1, min(ncols, 4))):
            row[c] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
        basis.append(row)
    x = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(ncols)}

    rows = []
    for _ in range(rng.randint(1, 16)):
        weights = [rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in basis]
        rows.append(combine(weights, basis) if any(weights) else dict(rng.choice(basis)))
    rhs = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
    if not consistent:
        weights = [rng.choice([0, 1, -1, 3]) for _ in rows]
        bad = combine(weights, rows)
        shift = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        target = sum((w * b for w, b in zip(weights, rhs)), Fraction(0)) + shift
        at = rng.randint(0, len(rows))
        rows.insert(at, bad)
        rhs.insert(at, target)
    return rows, rhs, ncols


def fields(result):
    return (
        result.solved,
        result.rank,
        result.residual,
        None if result.solution is None else list(result.solution.items()),
        [list(vec.items()) for vec in result.nullspace],
    )


def apply_rows(rows, vec):
    return [sum((v * vec.get(c, 0) for c, v in row.items()), Fraction(0)) for row in rows]


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
def test_matches_reference_solver(consistent):
    rng = random.Random(f"linsolve:{consistent}")
    outcomes = set()
    for _ in range(500):
        rows, rhs, ncols = random_system(rng, consistent)
        snapshot = ([dict(r) for r in rows], list(rhs))
        for want_nullspace in (False, True):
            got = solve_sparse(rows, rhs, ncols, want_nullspace)
            want = reference_solve_sparse(rows, rhs, ncols, want_nullspace)
            assert fields(got) == fields(want)
            assert (rows, rhs) == snapshot  # the inputs are not modified
            outcomes.add(got.solved)
            if got.solved:
                assert apply_rows(rows, got.solution) == rhs
                assert len(got.nullspace) == (ncols - got.rank if want_nullspace else 0)
                for vec in got.nullspace:
                    assert not any(apply_rows(rows, vec))
            else:
                assert got.residual
    assert outcomes == {consistent}


def test_vector_rhs_matches_one_scalar_solve_per_label():
    rng = random.Random("linsolve:vector")
    outcomes = set()
    for _ in range(300):
        rows, _, ncols = random_system(rng, consistent=True)
        per_label = {}
        for label in "abcd"[: rng.randint(1, 4)]:
            if rng.random() < 0.8:  # consistent: b = A x
                x = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(ncols)}
                per_label[label] = apply_rows(rows, x)
            else:
                per_label[label] = [Fraction(rng.randint(-2, 2)) for _ in rows]
        rhs = [{k: b[r] for k, b in per_label.items() if b[r]} for r in range(len(rows))]
        snapshot = ([dict(r) for r in rows], [dict(b) for b in rhs])
        got = solve_sparse(rows, rhs, ncols, want_nullspace=True)
        assert (rows, rhs) == snapshot  # the inputs are not modified
        scalar = {k: solve_sparse(rows, b, ncols, want_nullspace=True) for k, b in per_label.items()}
        outcomes.add(got.solved)
        if not all(one.solved for one in scalar.values()):
            assert not got.solved and got.residual
            continue
        assert got.solved
        for k, one in scalar.items():
            assert fields(replace(got, solution=got.solution.get(k, {}))) == fields(one)
    assert outcomes == {True, False}


def test_unit_pivots_keep_integer_entries_int():
    # a -1 pivot is negated, not divided by Fraction(-1), so integer rows stay int
    solved = solve_sparse([{0: -1, 1: 2}, {1: -1, 2: 3}], [3, 1], 3, want_nullspace=True)
    assert solved.solution == {0: -5, 1: -1}
    assert solved.nullspace == [{2: 1, 0: 6, 1: 3}]
    values = [*solved.solution.values(), *solved.nullspace[0].values()]
    assert all(type(v) is int for v in values)
    assert solve_sparse([{0: 2}], [1], 1).solution == {0: Fraction(1, 2)}


def test_cost_scales_with_nonzeros():
    # each row holds its own pivot and one free column: no fill-in at all,
    # but rows x rank is 10^8
    n = 10_000
    rows = [{i: Fraction(2), n + i: Fraction(1)} for i in range(n)]
    rhs = [Fraction(i) for i in range(n)]
    start = time.perf_counter()
    result = solve_sparse(rows, rhs, 2 * n, want_nullspace=True)
    elapsed = time.perf_counter() - start
    assert result.rank == n
    # each nullspace vector is 1 on its own free column, the first column it holds
    assert [next(iter(vec)) for vec in result.nullspace] == list(range(n, 2 * n))
    assert result.solution == {i: Fraction(i, 2) for i in range(1, n)}
    assert result.nullspace[7] == {n + 7: 1, 7: Fraction(-1, 2)}
    assert elapsed < 3.0, f"solve took {elapsed:.2f} s"


# -- the labelled assembler ----------------------------------------------------------


def test_sparse_system_sums_entries_and_drops_zero_sums():
    system = _SparseSystem(["a", "b"])
    system._add("r", "a", Fraction(1, 2))
    system._add("r", "a", Fraction(1, 3))
    system._add("r", "b", Fraction(2))
    system._add("r", "b", Fraction(-2))
    system._add_rhs("r", Fraction(1))
    system._add_rhs("r", Fraction(1))
    assert system.rows == [{0: Fraction(5, 6)}]
    assert system.rhs == [Fraction(2)]


def test_sparse_system_rows_keep_order_of_first_use():
    system = _SparseSystem(["a"])
    system._add_rhs("second", Fraction(0))
    system._add("first", "a", Fraction(1))
    system._add("second", "a", Fraction(3))
    system._add("third", "a", Fraction(4))
    assert row_labels(system) == ["second", "first", "third"]
    assert system.rows == [{0: Fraction(3)}, {0: Fraction(1)}, {0: Fraction(4)}]


def test_sparse_system_infeasible_solve_is_none():
    system = _SparseSystem(["a"])
    system._add("r1", "a", Fraction(1))
    system._add_rhs("r1", Fraction(1))
    system._add("r2", "a", Fraction(2))
    system._add_rhs("r2", Fraction(3))
    assert system._solve() is None
    assert system._solve(want_nullspace=True) is None


def test_sparse_system_solution_and_nullspace_keyed_by_label():
    # x + 2y = 3 over the columns (y, x, z): y is the pivot, x and z are free
    system = _SparseSystem(["y", "x", "z"])
    system._add("eq", "x", Fraction(1))
    system._add("eq", "y", Fraction(2))
    system._add_rhs("eq", Fraction(3))
    solution, nullspace = system._solve(want_nullspace=True)
    assert solution == {"y": Fraction(3, 2)}
    assert nullspace == [{"x": 1, "y": Fraction(-1, 2)}, {"z": 1}]
    assert system._solve() == (solution, [])
