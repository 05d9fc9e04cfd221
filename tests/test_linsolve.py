"""The sparse exact solver and the labelled system assembler.

`solve_sparse` eliminates in integers.  It is checked against two
references: `reference_solve_sparse`, the plain row-by-pivot Gauss-Jordan
elimination, and `reference_fraction_solve_sparse`, the indexed
elimination in Fractions that it replaced.  Every field must agree, dict
key order, residual and partial rank included, on random systems and on
the systems the shipped problems assemble.  A solve with vector
right-hand sides must agree with one scalar solve per label.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from golden.regenerate import COMMANDS, problem_files, run_cli
from helpers import reference_fraction_solve_sparse, reference_solve_sparse, row_labels

from starobs import linsolve
from starobs.cli import main
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


def ordered(value):
    """value with every dict turned into its list of items, so that == sees key order."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    return value


def fields(result):
    return (
        result.solved,
        result.rank,
        ordered(result.residual),
        ordered(result.solution),
        [ordered(vec) for vec in result.nullspace],
    )


def reported_values(result):
    """Every number the result reports: solution, nullspace and residual entries."""
    found = [result.solution, *result.nullspace, result.residual]
    while any(isinstance(x, dict) for x in found):
        found = [v for x in found for v in (x.values() if isinstance(x, dict) else (x,))]
    return [x for x in found if x is not None]


def assert_exact_types(result):
    """Each reported number is an int, or a Fraction that is not integral."""
    values = reported_values(result)
    bad = [v for v in values if not (type(v) is int or type(v) is Fraction and v.denominator > 1)]
    assert not bad, bad[:5]


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


def integer_rows(rows, rhs):
    """Each row and its rhs times the lcm of their denominators, as ints."""
    scaled_rows, scaled_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = math.lcm(*(Fraction(v).denominator for v in (*row.values(), b)))
        scaled_rows.append({c: int(v * scale) for c, v in row.items()})
        scaled_rhs.append(int(b * scale))
    return scaled_rows, scaled_rhs


def labelled_rhs(rng: random.Random, rows, ncols):
    """A vector rhs for `rows`: up to four labels, each b = A x or (rarely) random."""
    per_label = {}
    for label in "abcd"[: rng.randint(1, 4)]:
        if rng.random() < 0.8:
            x = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(ncols)}
            per_label[label] = apply_rows(rows, x)
        else:
            per_label[label] = [rng.randint(-2, 2) for _ in rows]
    return [{k: b[r] for k, b in per_label.items() if b[r]} for r in range(len(rows))]


@pytest.mark.parametrize("shape", ["scalar", "vector"])
@pytest.mark.parametrize("entries", ["fraction", "int"])
def test_matches_the_fraction_solver(entries, shape):
    """Random systems, consistent or not, with Fraction or int rows and scalar or
    vector right-hand sides: every field equals the Fraction elimination's, and
    every reported number is an int exactly when it is integral."""
    rng = random.Random(f"linsolve:fraction:{entries}:{shape}")
    outcomes = set()
    for i in range(300):
        rows, rhs, ncols = random_system(rng, consistent=i % 2 == 0)
        if entries == "int":
            rows, rhs = integer_rows(rows, rhs)
        if shape == "vector":
            rhs = labelled_rhs(rng, rows, ncols)
        snapshot = copy.deepcopy((rows, rhs))
        for want_nullspace in (False, True):
            got = solve_sparse(rows, rhs, ncols, want_nullspace)
            want = reference_fraction_solve_sparse(rows, rhs, ncols, want_nullspace)
            assert fields(got) == fields(want)
            assert_exact_types(got)
            assert (rows, rhs) == snapshot  # the inputs are not modified
            outcomes.add(got.solved)
    assert outcomes == {True, False}


# larger bounds on shipped problems; rotation_momenta at (2, 6) ends in an
# inconsistent 334 x 211 system
LARGER_BOUNDS = [
    ("rotation_momenta", "eliminate", (2, 6)),
    ("moyal_extension", "extend-star", (1, 4)),
    ("removable_class", "eliminate", (3, 3)),
]


def test_matches_the_fraction_solver_on_the_shipped_problems(monkeypatch):
    """Every system that the golden requests assemble, and those of a few larger bounds.

    The CLI turns an exception into an exit code, so the wrapper records what it
    sees and the test asserts afterwards.
    """
    solve, seen, mismatched = linsolve.solve_sparse, [], []

    def checked(rows, rhs, ncols, want_nullspace=False):
        got = solve(rows, rhs, ncols, want_nullspace)
        want = reference_fraction_solve_sparse(rows, rhs, ncols, want_nullspace)
        seen.append(got)
        if fields(got) != fields(want):
            mismatched.append((len(rows), ncols))
        return got

    monkeypatch.setattr(linsolve, "solve_sparse", checked)
    for problem in problem_files():
        for command in COMMANDS:
            run_cli(problem, command)
    problems = {path.stem: str(path) for path in problem_files()}
    for name, command, (degree, op_order) in LARGER_BOUNDS:
        argv = ["--problem", problems[name], "--command", command]
        argv += ["--degree-bound", str(degree), "--op-order-bound", str(op_order)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert not mismatched, mismatched
    # the four extend-star runs that the bounds once left undecided now solve too
    assert len(seen) == 16 and {result.solved for result in seen} == {True, False}
    for result in seen:
        assert_exact_types(result)


def test_long_chain_with_pivots_2_and_3_matches_and_stays_small():
    # x_i - x_(i+1) = b_i / p_i with p_i = 2, 3, 2, ...: the reduced rows are
    # x_j - x_400 = c_j with c_j's denominator dividing 6.  Every new pivot is
    # back-eliminated from every earlier row, scaling it by 2 or 3 where the
    # pivots differ; the time bound guards against entries that grow with the
    # number of eliminations instead of staying the size of the reduced rows'
    n = 400
    rows = [{i: 2 + i % 2, i + 1: -(2 + i % 2)} for i in range(n)]
    rhs = [1 + i % 5 for i in range(n)]
    start = time.perf_counter()
    got = solve_sparse(rows, rhs, n + 1, want_nullspace=True)
    elapsed = time.perf_counter() - start
    assert fields(got) == fields(reference_fraction_solve_sparse(rows, rhs, n + 1, True))
    assert got.rank == n and got.nullspace == [{n: 1, **{j: 1 for j in range(n)}}]
    assert {Fraction(v).denominator for v in got.solution.values()} <= {1, 2, 3, 6}
    assert elapsed < 1.0, f"solve took {elapsed:.2f} s"


def test_unit_pivots_keep_integer_entries_int():
    # a -1 pivot keeps integer rows int
    solved = solve_sparse([{0: -1, 1: 2}, {1: -1, 2: 3}], [3, 1], 3, want_nullspace=True)
    assert solved.solution == {0: -5, 1: -1}
    assert solved.nullspace == [{2: 1, 0: 6, 1: 3}]
    values = [*solved.solution.values(), *solved.nullspace[0].values()]
    assert all(type(v) is int for v in values)
    assert solve_sparse([{0: 2}], [1], 1).solution == {0: Fraction(1, 2)}
    # so does any pivot, Fraction entries included, wherever the value is integral
    halved = solve_sparse([{0: 2, 1: Fraction(4)}], [Fraction(6)], 2, want_nullspace=True)
    assert halved.solution == {0: 3} and halved.nullspace == [{1: 1, 0: -2}]
    assert_exact_types(halved)


def test_row_by_pivot_reference_stays_exact_on_integer_rows():
    # the reference divides by its pivot as a Fraction: with an int pivot it
    # used to return floats, {0: -0.5, 1: 0.666...} on the first system
    rng = random.Random("linsolve:integer rows")
    systems = [([{0: 2, 1: 3}, {1: 3, 2: 2}], [1, 2], 3)]
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = [
            {c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in rng.sample(range(ncols), size)}
            for size in (rng.randint(1, ncols) for _ in range(rng.randint(1, 8)))
        ]
        systems.append((rows, [rng.randint(-4, 4) for _ in rows], ncols))
    for rows, rhs, ncols in systems:
        got = solve_sparse(rows, rhs, ncols, want_nullspace=True)
        want = reference_solve_sparse(rows, rhs, ncols, want_nullspace=True)
        assert fields(got) == fields(want)
        assert all(type(v) in (int, Fraction) for v in reported_values(want))
    first = reference_solve_sparse(*systems[0], want_nullspace=True)
    assert first.solution == {0: Fraction(-1, 2), 1: Fraction(2, 3)}


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


def test_sparse_system_solution_keyed_by_label_and_nullspace_by_column():
    # x + 2y = 3 over the columns (y, x, z): y is the pivot, x and z are free; each
    # column is a (monomial, key) label, and the solution comes back grouped by key
    y, x, z = ((0,), "b"), ((1,), "a"), ((0,), "a")
    system = _SparseSystem([y, x, z])
    system._add("eq", x, Fraction(1))
    system._add("eq", y, Fraction(2))
    system._add_rhs("eq", Fraction(3))
    assert system._solve() == {"b": {(0,): Fraction(3, 2)}}
    # the nullspace, which only the weight table reads, comes from the solver by column index
    solved = solve_sparse(system.rows, system.rhs, len(system.columns), want_nullspace=True)
    assert solved.nullspace == [{1: 1, 0: Fraction(-1, 2)}, {2: 1}]
    assert [list(vec) for vec in solved.nullspace] == [[1, 0], [2]]
    # x - y = 1 as well pins x: both keys, in order of first use
    system._add("eq2", x, Fraction(1))
    system._add("eq2", y, Fraction(-1))
    system._add_rhs("eq2", Fraction(1))
    solved = system._solve()
    assert solved == {"b": {(0,): Fraction(2, 3)}, "a": {(1,): Fraction(5, 3)}}
    assert list(solved) == ["b", "a"]
