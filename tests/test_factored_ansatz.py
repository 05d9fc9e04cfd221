"""The ansatz kernels factor the coefficient monomial out of each column.

For a product that is commutative at order 0, d(x^e D) = x^e d(D), so
the unary gauge solve evaluates one row value per derivative index and
generator monomial and shifts it by e, and the one-order extension solves
one matrix over the derivative keys with one right-hand side per
coefficient monomial.  Both solves keep only the weight blocks their
target reaches.  These tests pin the factored, graded solvers to the
per-column references in helpers.py, and the unary solve on generator
monomials to the pair assembler it replaced.  The unary columns are checked
by brute force to be exactly those that enter a row.
"""

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    _op_coordinates,
    canonical_pi2,
    canonical_pi4,
    flat_scenario,
    generator_monomials,
    obstructed_scenario,
    p3,
    p4,
    plane_pi3,
    rand_op,
    reference_associator,
    reference_extend_one_order,
    reference_extension_keys,
    reference_extension_matrix,
    reference_hochschild_d,
    reference_key_differential,
    reference_pair_unary_correction,
    reference_partial_multi,
    reference_pair_unary_rows,
    reference_solve_columns,
    reference_unary_columns,
    reference_unary_correction,
    reference_unary_rows,
    removable_scenario,
    row_labels,
    scaled,
    trivial_star,
)

from starobs import (
    Bounds,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    StarProduct,
    extend_one_order,
    gauge_transform,
    hochschild_d,
    linsolve,
    moyal_star,
)
from starobs import obstruction as obstruction_module
from starobs import star as star_module
from starobs.cli import load_problem, load_problem_data, render_report, run_command
from starobs.obstruction import (
    _raw_class,
    _solve_unary_correction,
    _unary_ansatz_rows,
)
from starobs.poly import _accumulate, exponents_upto, sub_exponents, zero_exponents
from starobs.polydiff import _key_differential, _leibniz, _TermMap


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def planted(system, order, n, alpha, exps, coeff):
    """Flat Moyal product hidden behind id + h^n coeff x^exps d^alpha."""
    dim = system.dim
    gauge = FormalDiffeo.from_parts(
        dim, order, {n: PolyDiffOp.single(dim, [alpha], Polynomial.monomial(dim, exps, coeff))}
    )
    return gauge_transform(moyal_star(system.pi, order), gauge)


def plane_system(*generators):
    return IntegrableSystem(plane_pi3(), [p3(g) for g in generators])


def rotation_system():
    """H = p1^2 + p2^2 and L = x1 p2 - x2 p1 on R^4, homogeneous in x and in p."""
    return IntegrableSystem(canonical_pi4(), [p4("p1^2 + p2^2"), p4("x1*p2 - x2*p1")])


def as_mapping(labels, rows, rhs):
    return {label: (row, b) for label, row, b in zip(labels, rows, rhs)}


def graded_rows(target, system, degree, alphas, emons):
    """Columns, row labels, rows and rhs of the system reference_pair_unary_rows assembles."""
    eqs = reference_pair_unary_rows(target, system, degree, alphas, emons)
    return eqs.columns, (row_labels(eqs), eqs.rows, eqs.rhs)


def assert_monomial_rows_match_pair_reference(star, system, n, bounds, columns):
    """obstruction's monomial rows keep the pair assembler's columns, in order,
    and the unary solve gives the pair reference's correction."""
    assert _unary_ansatz_rows(star.term(n), system, bounds).columns == columns
    want = reference_pair_unary_correction(star, system, n, bounds)
    assert _solve_unary_correction(star, system, n, _raw_class(star, system, n), bounds) == want


def reference_on_columns(target, mons, alphas, emons, columns):
    """reference_unary_rows on the given columns and the rows they reach or that carry a rhs.

    Asserts on the way that those rows meet no other column, i.e. that the
    dropped columns form blocks of their own with a zero right-hand side.
    """
    position = {label: ci for ci, label in enumerate((e, (a,)) for a in alphas for e in emons)}
    kept = {position[label]: k for k, label in enumerate(columns)}
    assert list(kept) == sorted(kept), "kept columns keep their relative order"
    labels, rows, rhs = reference_unary_rows(target, mons, alphas, emons)
    out = ([], [], [])
    for label, row, b in zip(labels, rows, rhs):
        live = {kept[ci]: v for ci, v in row.items() if ci in kept}
        if live or b:
            assert len(live) == len(row), f"row {label} mixes weight blocks"
            for part, item in zip(out, (label, live, b)):
                part.append(item)
    return out


@pytest.mark.parametrize("arity", [1, 2])
def test_hochschild_d_commutes_with_coefficient_monomials(arity):
    rng = random.Random(5 + arity)
    for _ in range(10):
        op = rand_op(rng, 3, arity, order=2, coeff_degree=1, terms=3)
        e = tuple(rng.randint(0, 2) for _ in range(3))
        x_e = Polynomial.monomial(3, e)
        assert hochschild_d(scaled(op, x_e)) == scaled(hochschild_d(op), x_e)


def test_unary_rows_match_per_column_reference_on_planted_product():
    system = plane_system("y", "z")
    star = planted(system, 2, 2, (0, 0, 2), (0, 0, 1), Fraction(3, 2))
    mons = generator_monomials(system, 3)
    alphas, emons = exponents_upto(3, 2), exponents_upto(3, 1)
    target = star.term(2)
    columns, graded = graded_rows(target, system, 3, alphas, emons)
    assert 0 < len(columns) < len(alphas) * len(emons)
    # monomial generators: the pair assembler sees the very same rows, in the same order
    assert graded == reference_on_columns(target, mons, alphas, emons, columns)
    assert_monomial_rows_match_pair_reference(star, system, 2, Bounds(1, 2), columns)


def test_unary_rows_match_reference_in_order_with_derivation_and_constant_columns():
    # D_2 = y d_y^2 + 2z: the weight of y d_y^2 holds the derivation d_y, which
    # enters no row and is no column, and multiplication by z reaches the pairs
    # (1, v) through the column z d^0
    system = plane_system("y", "z")
    gauge = PolyDiffOp.single(3, [(0, 2, 0)], p3("y"))
    gauge = gauge + PolyDiffOp.single(3, [(0, 0, 0)], p3("2*z"))
    star = gauge_transform(moyal_star(system.pi, 2), FormalDiffeo.from_parts(3, 2, {2: gauge}))
    mons = generator_monomials(system, 2)
    alphas, emons = exponents_upto(3, 2), exponents_upto(3, 1)
    target = star.term(2)
    columns, graded = graded_rows(target, system, 2, alphas, emons)
    alphas_kept = {a for _, (a,) in columns}
    assert {(0, 0, 0), (0, 2, 0)} <= alphas_kept and (0, 1, 0) not in alphas_kept
    labels = graded[0]
    assert any(ue == (0, 0) for (ue, _), _ in labels)
    assert graded == reference_on_columns(target, mons, alphas, emons, columns)
    assert_monomial_rows_match_pair_reference(star, system, 2, Bounds(1, 2), columns)


def test_unary_rows_match_per_column_reference_on_polynomial_generators():
    system = rotation_system()
    star = moyal_star(system.pi, 2)
    target = star.term(2)
    mons = generator_monomials(system, 2)
    # the target has weight (-2, -2) in (x-degree, p-degree): d^a needs |a| = 4 to reach it
    alphas, emons = exponents_upto(4, 4), exponents_upto(4, 1)
    columns, graded = graded_rows(target, system, 2, alphas, emons)
    assert 0 < len(columns) < len(alphas) * len(emons)
    reference = reference_on_columns(target, mons, alphas, emons, columns)
    assert as_mapping(*graded) == as_mapping(*reference)
    assert_monomial_rows_match_pair_reference(star, system, 2, Bounds(1, 4), columns)
    short = exponents_upto(4, 3)
    assert reference_pair_unary_rows(target, system, 2, short, emons) is None
    assert _unary_ansatz_rows(target, system, Bounds(1, 3)) is None


PLANTED = pytest.mark.parametrize(
    "system, order, n, alpha, exps, bounds",
    [
        (plane_system("y", "z"), 2, 2, (0, 0, 2), (0, 0, 1), Bounds(1, 2)),
        (plane_system("y", "z"), 3, 3, (0, 1, 1), (0, 1, 0), Bounds(1, 2)),
        (plane_system("y", "z"), 1, 1, (0, 0, 2), (0, 0, 0), Bounds(1, 2)),
        (plane_system("y + z^2", "z"), 2, 2, (0, 1, 1), (0, 0, 1), Bounds(1, 2)),
        (plane_system("y + 1", "z"), 2, 2, (0, 0, 2), (0, 0, 1), Bounds(1, 2)),
        (rotation_system(), 2, 1, (0, 0, 1, 1), (0, 0, 0, 0), Bounds(0, 2)),
        # no operator of order 2 fits the bounds: the graded system is infeasible too
        (plane_system("y", "z"), 2, 2, (0, 0, 2), (0, 0, 1), Bounds(0, 1)),
    ],
    ids=[
        "order-2",
        "order-3",
        "first-order-normalization",
        "non-homogeneous",
        "constant-term",
        "rotation-momenta",
        "bounds-too-small",
    ],
)


@PLANTED
def test_unary_correction_matches_reference_solve(system, order, n, alpha, exps, bounds):
    star = planted(system, order, n, alpha, exps, Fraction(-2, 3))
    graded = _solve_unary_correction(star, system, n, _raw_class(star, system, n), bounds)
    assert graded == reference_unary_correction(star, system, n, bounds)
    if sum(alpha) <= bounds.op_order:
        assert graded is not None and not graded.is_zero()
    else:
        assert graded is None


RANDOM_GENERATORS = [
    ("y", "z"),
    ("y + z^2", "z"),
    ("y + 1", "z"),
    ("y^2", "z"),
    ("y", "z^2"),
    ("y + z", "z^3"),
]


def random_planted(rng):
    """A flat Moyal product on R^3 behind a random unary gauge of operator order
    <= 2 at order n <= 3, its system and random bounds up to (2, 3).  The gauge
    does not differentiate in x, which no generator holds."""
    system = plane_system(*rng.choice(RANDOM_GENERATORS))
    n = rng.randint(1, 3)
    gauge = PolyDiffOp.zero(3, 1)
    for _ in range(rng.randint(1, 2)):
        alpha = (0,) + rng.choice(exponents_upto(2, 2))
        exps = rng.choice(exponents_upto(3, 1))
        coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        gauge = gauge + PolyDiffOp.single(3, [alpha], Polynomial.monomial(3, exps, coeff))
    star = gauge_transform(moyal_star(system.pi, n), FormalDiffeo.from_parts(3, n, {n: gauge}))
    return system, star, n, Bounds(rng.randint(0, 2), rng.randint(0, 3))


def test_unary_correction_matches_pair_reference_on_random_planted_products():
    rng = random.Random(2101)
    outcomes = []
    for case in range(120):
        system, star, n, bounds = random_planted(rng)
        got = _solve_unary_correction(star, system, n, _raw_class(star, system, n), bounds)
        assert got == reference_pair_unary_correction(star, system, n, bounds), case
        if case < 8:
            assert got == reference_unary_correction(star, system, n, bounds), case
        outcomes.append("none" if got is None else "zero" if got.is_zero() else "solved")
    assert min(outcomes.count(k) for k in ("none", "zero", "solved")) >= 10


def test_unary_correction_matches_pair_reference_on_rotation_momenta():
    system = rotation_system()
    for star in (moyal_star(system.pi, 2), planted(system, 2, 2, (0, 0, 2, 0), (1, 0, 0, 0), 1)):
        got = _solve_unary_correction(star, system, 2, _raw_class(star, system, 2), Bounds(2, 4))
        assert got == reference_pair_unary_correction(star, system, 2, Bounds(2, 4))


def test_unary_correction_is_none_on_an_antisymmetric_part():
    # B_1 = d_y (x) d_z is a cocycle with B_1(y, z) - B_1(z, y) = 1, which no
    # symmetric dD cancels; its monomial rows alone (phi0(yz) = 1) are met by d_y d_z
    system = plane_system("y", "z")
    star = StarProduct(3, 1, [PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)])])
    chi = _raw_class(star, system, 1)
    assert chi.component((0, 1)) == Polynomial.constant(3, 1)
    for bounds in (Bounds(0, 2), Bounds(2, 3)):
        assert _solve_unary_correction(star, system, 1, chi, bounds) is None
        assert reference_pair_unary_correction(star, system, 1, bounds) is None
        eqs = _unary_ansatz_rows(star.term(1), system, bounds)
        assert eqs._solve() == {((0, 1, 1),): {(0, 0, 0): 1}}


def test_rotation_momenta_at_bounds_2_6_solves_a_small_monomial_system():
    system = rotation_system()
    target = moyal_star(system.pi, 2).term(2)
    eqs = _unary_ansatz_rows(target, system, Bounds(2, 6))
    assert (len(eqs.columns), len(eqs.rows)) == (211, 334)
    assert eqs._solve() is None
    data = json.loads((PROBLEMS / "rotation_momenta.json").read_text())
    for (degree, op_order), digest in [((2, 6), "087116a3"), ((2, 4), "553774fc")]:
        data["bounds"] = {"degree": degree, "op_order": op_order}
        report = render_report(run_command(load_problem_data(data), "eliminate", None))
        assert hashlib.sha256(report.encode()).hexdigest().startswith(digest)


def assert_key_differential_matches_reference(dim, key):
    """_key_differential(key) is d(d^key), coordinate for coordinate and in order."""
    z = zero_exponents(dim)
    got = [((dkey, z), v) for dkey, v in _key_differential(dim, key).items()]
    want = _op_coordinates(reference_hochschild_d(PolyDiffOp.single(dim, key)))
    assert got == list(want.items())


# (4, 3) is the 1,225-key M of the R^4 Moyal order-2 extension at operator order 3
@pytest.mark.parametrize("dim, op_order", [(2, 3), (3, 2), (4, 2), (4, 3)])
def test_key_differential_matches_hochschild_d(dim, op_order):
    for key in itertools.product(exponents_upto(dim, op_order), repeat=2):
        assert_key_differential_matches_reference(dim, key)


@pytest.mark.parametrize("dim, op_order", [(2, 3), (4, 3)])
def test_one_leibniz_table_serves_every_key_of_a_call(dim, op_order):
    # the Leibniz table is _leibniz's process-wide memo; keys in reverse and in
    # extend_one_order's order, so each key meets a memo filled by others: an
    # entry spoiled by one key would show on a later one
    keys = list(itertools.product(exponents_upto(dim, op_order), repeat=2))
    _leibniz.cache_clear()
    for order in (keys[::-1], keys):
        for key in order:
            assert_key_differential_matches_reference(dim, key)
        # one entry per multi-index of the keys, each split once
        assert _leibniz.cache_info().misses == len(exponents_upto(dim, op_order))


def test_key_differential_matches_the_boundary_term_loop():
    # every zero pattern of arity 1-4: leading, interior and trailing zero runs of
    # odd and even length, and the all-zero key; then random keys
    rng = random.Random(4401)
    keys = []
    for dim in range(1, 5):
        z = zero_exponents(dim)
        nonzero = [a for a in exponents_upto(dim, 3) if any(a)]
        for arity in range(1, 5):
            for zeros in itertools.product((False, True), repeat=arity):
                for _ in range(3):
                    keys.append((dim, tuple(z if zero else rng.choice(nonzero) for zero in zeros)))
        alphas = exponents_upto(dim, 3)
        for _ in range(300):
            keys.append((dim, tuple(rng.choice(alphas) for _ in range(rng.randint(1, 4)))))
    for dim, key in keys:
        got = _key_differential(dim, key)
        assert list(got.items()) == list(reference_key_differential(dim, key).items()), key
        assert all(got.values())


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_hochschild_d_matches_term_by_term_reference(dim, arity):
    rng = random.Random(100 * dim + arity)
    for _ in range(8):
        op = rand_op(rng, dim, arity, order=2, coeff_degree=2, terms=3)
        assert hochschild_d(op) == reference_hochschild_d(op)
        for key in op.terms:
            assert_key_differential_matches_reference(dim, key)


def gauged_product(pi, order, parts):
    """Moyal product of pi to the given order behind id + sum_k h^k (3/2) x^exps d^alpha."""
    dim = pi.dim
    ops = {
        k: PolyDiffOp.single(dim, [alpha], Polynomial.monomial(dim, exps, Fraction(3, 2)))
        for k, (alpha, exps) in parts.items()
    }
    return gauge_transform(moyal_star(pi, order), FormalDiffeo.from_parts(dim, order, ops))


def gauged_truncation(pi, n, parts):
    """Order-n truncation of a gauge-transformed Moyal product, and the bounds of its B_{n+1}."""
    full = gauged_product(pi, n + 1, parts)
    known = full.term(n + 1)
    return StarProduct(pi.dim, n, full.corrections[:n]), known.coefficient_degree(), known.order()


R2O2 = {1: ((0, 1), (1, 0)), 2: ((0, 2), (0, 0))}
R4O1 = {1: ((0, 0, 1, 0), (1, 0, 0, 0))}


# each case with the bounds (degree, op_order) that the replaced bounded solve took;
# the unbounded solve reads its columns from the target and ignores them
SOLVED_EXTENSIONS = [
    pytest.param(moyal_star(canonical_pi2(), 1), 0, 2, id="moyal-r2-o1"),
    pytest.param(moyal_star(canonical_pi2(), 2), 0, 3, id="moyal-r2-o2"),
    pytest.param(moyal_star(canonical_pi2(), 3), 0, 4, id="moyal-r2-o3"),
    pytest.param(moyal_star(canonical_pi2(), 2), 1, 3, id="moyal-r2-o2-degree-1"),
    pytest.param(moyal_star(plane_pi3(), 1), 1, 2, id="moyal-plane-r3"),
    pytest.param(moyal_star(canonical_pi4(), 1), 0, 2, id="moyal-r4"),
    pytest.param(*gauged_truncation(canonical_pi2(), 2, R2O2), id="gauged-r2-o2"),
    pytest.param(*gauged_truncation(canonical_pi4(), 1, R4O1), id="gauged-r4-o1"),
    pytest.param(
        gauged_truncation(canonical_pi4(), 1, R4O1)[0], 0, 2, id="gauged-r4-o1-degree-0"
    ),
    pytest.param(trivial_star(2, 2), 1, 1, id="trivial"),
    # 1,225 keys, of which the graded solve keeps the target's weight blocks
    pytest.param(moyal_star(canonical_pi4(), 2), 0, 3, id="moyal-r4-o2"),
    # an operator-order bound above the order 2 that the order-2 target needs
    pytest.param(moyal_star(canonical_pi2(), 1), 0, 3, id="target-within-order-plus-one"),
]


EXTENSIONS = SOLVED_EXTENSIONS + [
    pytest.param(moyal_star(canonical_pi2(), 1), 0, 1, id="bounds-too-small"),
    pytest.param(
        gauged_truncation(canonical_pi2(), 2, R2O2)[0], 1, 3, id="target-above-degree-bound"
    ),
]


def target_of(star):
    """The order-(n+1) target of an order-n product, by the reference associator."""
    n = star.order
    return reference_associator(star, n + 1, range(1, n + 1))


@pytest.mark.parametrize("star, degree, op_order", EXTENSIONS)
def test_extension_matches_reference_solve(star, degree, op_order):
    # every case extends, those whose bounds were too small for the bounded solve
    # too, with the bounded reference's candidate at K = K_T, the target's largest
    # slot order, and a degree bound that covers the target
    target = target_of(star)
    got = extend_one_order(star)
    want = reference_extend_one_order(
        star, max(degree, target.coefficient_degree()), target.order()
    )
    assert got.solved and want.solved
    assert got.trivector is None
    assert got.particular == want.particular


def counting_solves(monkeypatch):
    """Record the column count of every solve_sparse call."""
    solves = []
    real_solve = linsolve.solve_sparse

    def counting(rows, rhs, ncols, want_nullspace=False):
        solves.append(ncols)
        return real_solve(rows, rhs, ncols, want_nullspace)

    monkeypatch.setattr(linsolve, "solve_sparse", counting)
    return solves


def weight(key):
    return tuple(map(sum, zip(*key)))


def test_extension_makes_one_solve_over_the_derivative_keys(monkeypatch):
    solves = counting_solves(monkeypatch)
    star = moyal_star(canonical_pi2(), 1)
    assert extend_one_order(star).solved
    # one column per derivative key (a, b) with |a|, |b| <= K_T = 2 and the weight
    # (2, 2) of every order-2 target key
    assert target_of(star).order() == 2
    keys = itertools.product(exponents_upto(2, 2), repeat=2)
    graded = [k for k in keys if weight(k) == (2, 2)]
    assert len(graded) == 3
    assert solves == [len(graded)]


def recording_key_differentials(monkeypatch):
    """Record the key of every _key_differential call of extend_one_order, in order."""
    keys = []
    real_differential = star_module._key_differential

    def recording(dim, key):
        keys.append(key)
        return real_differential(dim, key)

    monkeypatch.setattr(star_module, "_key_differential", recording)
    return keys


def test_extension_of_a_target_above_a_degree_bound_makes_one_solve(monkeypatch):
    solves = counting_solves(monkeypatch)
    differentials = recording_key_differentials(monkeypatch)
    star = gauged_truncation(canonical_pi2(), 2, R2O2)[0]
    # the order-3 target has coefficients of degree 2: no degree is checked, and
    # every coefficient monomial is one right-hand side of the one solve
    assert target_of(star).coefficient_degree() == 2
    assert extend_one_order(star).solved
    assert len(solves) == 1
    assert solves == [len(differentials)]


def recording_right_hand_sides(monkeypatch):
    """Record a copy of the right-hand sides of every solve_sparse call: the
    extension's post-check adds into the dicts it passes."""
    seen = []
    real_solve = linsolve.solve_sparse

    def recording(rows, rhs, ncols, want_nullspace=False):
        seen.append([dict(b) for b in rhs])
        return real_solve(rows, rhs, ncols, want_nullspace)

    monkeypatch.setattr(linsolve, "solve_sparse", recording)
    return seen


@pytest.mark.parametrize("star, degree, op_order", SOLVED_EXTENSIONS)
def test_extension_right_hand_sides_are_integer_numerators(monkeypatch, star, degree, op_order):
    seen = recording_right_hand_sides(monkeypatch)
    assert extend_one_order(star).solved
    [rhs] = seen
    assert all(type(v) is int for b in rhs for v in b.values())


SOLVED_BY_ID = {p.id: p.values for p in SOLVED_EXTENSIONS}


@pytest.mark.parametrize(
    "case, den", [("gauged-r2-o2", 16), ("moyal-r2-o3", 192), ("trivial", 1)]
)
def test_extension_divides_the_integer_solution_by_the_targets_denominator(case, den):
    star, degree, op_order = SOLVED_BY_ID[case]
    n = star.order
    assert star._insertions(n + 1, range(1, n + 1), _TermMap()).den == den
    target = target_of(star)
    got = extend_one_order(star)
    want = reference_extend_one_order(star, target.coefficient_degree(), target.order())
    assert got.particular == want.particular


@pytest.mark.parametrize(
    "full, n",
    [
        pytest.param(moyal_star(canonical_pi2(), 2), 1, id="moyal-r2-o1"),
        pytest.param(moyal_star(canonical_pi2(), 3), 2, id="moyal-r2-o2"),
        pytest.param(moyal_star(canonical_pi2(), 4), 3, id="moyal-r2-o3"),
        pytest.param(moyal_star(canonical_pi4(), 2), 1, id="moyal-r4-o1"),
        pytest.param(moyal_star(canonical_pi4(), 3), 2, id="moyal-r4-o2"),
        pytest.param(gauged_product(canonical_pi2(), 3, R2O2), 2, id="gauged-r2-o2"),
        pytest.param(gauged_product(canonical_pi4(), 2, R4O1), 1, id="gauged-r4-o1"),
    ],
)
def test_extension_differs_from_the_true_next_term_by_its_freedom(full, n):
    # any two solutions differ by a Hochschild 2-cocycle, the freedom the report states
    known = full.term(n + 1)
    truncated = StarProduct(full.dim, n, full.corrections[:n])
    result = extend_one_order(truncated)
    assert result.solved
    assert reference_hochschild_d(result.particular - known).is_zero()
    # d(d_1^2 (x) 1)(f, g, h) = -(d_1^2 f) g h - 2 (d_1 f)(d_1 g) h: not a cocycle
    z = zero_exponents(full.dim)
    not_a_cocycle = PolyDiffOp.single(full.dim, ((2,) + z[1:], z))
    assert not reference_hochschild_d(result.particular - known + not_a_cocycle).is_zero()


def test_weight_map_grades_by_the_scalings_that_keep_generators_homogeneous():
    for e in exponents_upto(3, 3):
        # monomial generators constrain no scaling: Z^dim
        assert plane_system("y", "z").weights[e] == e
        # y + z^2 ties y to twice z and leaves x free
        assert plane_system("y + z^2", "z").weights[e] == (e[0], 2 * e[1] + e[2])
        # a constant term pins y at weight 0
        assert plane_system("y + 1", "z").weights[e] == (e[0], e[2])
    weights = rotation_system().weights
    for e in exponents_upto(4, 3):
        assert weights[e] == (e[0] + e[1], e[2] + e[3])


def test_rotation_momenta_at_bounds_3_3_has_no_live_column(monkeypatch):
    system = rotation_system()
    star = moyal_star(system.pi, 2)
    solves = counting_solves(monkeypatch)
    chi = _raw_class(star, system, 2)
    assert _solve_unary_correction(star, system, 2, chi, Bounds(3, 3)) is None
    # the one solve is the weight table's nullspace over the 4 coordinates:
    # none of the 1,225 ansatz columns reaches the target's weight
    assert solves == [4]


# -- the one weight-block selector against the filters it replaced ----------------


class Selected(Exception):
    """Stops _unary_ansatz_rows once its weight blocks are chosen."""


def unary_selection(monkeypatch, target, system, bounds, assemble=True):
    """The live weights _unary_ansatz_rows hands the selector, and its columns
    (None when a live weight has no column).  Without assemble, the call stops
    after the selection and the columns are read off the selector's blocks."""
    calls, select = [], obstruction_module._weight_blocks

    def selecting(outer, inner, keep):
        calls.append((keep, select(outer, inner, keep)))
        if not assemble:
            raise Selected
        return calls[-1][1]

    monkeypatch.setattr(obstruction_module, "_weight_blocks", selecting)
    try:
        eqs = _unary_ansatz_rows(target, system, bounds)
        columns = None if eqs is None else eqs.columns
    except Selected:
        blocks, unreached = calls[0][1]
        columns = None if unreached else [(e, (a,)) for a, es in blocks for e in es]
    [(live, _)] = calls
    return live, columns


@pytest.mark.parametrize(
    "bounds, count",
    [(Bounds(2, 6), 211), (Bounds(4, 8), 1414), (Bounds(6, 10), 5754)],
    ids=["2-6", "4-8", "6-10"],
)
def test_rotation_momenta_columns_match_the_replaced_weight_filter(monkeypatch, bounds, count):
    system = rotation_system()
    target = moyal_star(system.pi, 2).term(2)
    live, columns = unary_selection(monkeypatch, target, system, bounds, assemble=False)
    assert columns == reference_unary_columns(system, live, bounds)
    assert len(columns) == count


@PLANTED
def test_planted_columns_match_the_replaced_weight_filter(
    monkeypatch, system, order, n, alpha, exps, bounds
):
    target = planted(system, order, n, alpha, exps, Fraction(-2, 3)).term(n)
    live, columns = unary_selection(monkeypatch, target, system, bounds)
    assert live
    assert columns == reference_unary_columns(system, live, bounds)


def test_random_planted_columns_match_the_replaced_weight_filter(monkeypatch):
    rng = random.Random(2101)
    outcomes = []
    for case in range(60):
        system, star, n, bounds = random_planted(rng)
        live, columns = unary_selection(monkeypatch, star.term(n), system, bounds)
        assert columns == reference_unary_columns(system, live, bounds), case
        outcomes.append(columns is None)
    assert 10 <= sum(outcomes) <= 50


# -- the unary columns are exactly those that enter a row ---------------------------


def every_alpha(system, alphas):
    """The column filter's multi-indices without either rule."""
    return alphas


def unary_row_value(mons, a, alpha):
    """d^a f^alpha - sum_i alpha_i f^(alpha - e_i) d^a f_i in Polynomials: the rows
    of x^e d^a at f^alpha, shifted by e."""
    value = reference_partial_multi(mons[alpha], a)
    for i, x in enumerate(alpha):
        if x:
            unit = tuple(int(k == i) for k in range(len(alpha)))
            chain = mons[sub_exponents(alpha, unit)] * reference_partial_multi(mons[unit], a)
            value = value - chain * x
    return value


def dead_unary_columns(monkeypatch, target, system, bounds):
    """The number of dead columns the unary solve leaves out, after asserting that
    its columns are those of the filter without the two rules that enter a row,
    found by brute force over every f^alpha, and that each enters one of its rows.
    A live weight that only dead columns reach makes both None."""
    live, columns = unary_selection(monkeypatch, target, system, bounds)
    every = reference_unary_columns(system, live, bounds, alphas=every_alpha)
    if every is None:
        assert columns is None
        return 0
    mons = dict(generator_monomials(system, max(target.order(), bounds.op_order) + 1))
    enters = {}
    for _, (a,) in every:
        if a not in enters:
            enters[a] = any(unary_row_value(mons, a, alpha) for alpha in mons)
    entering = [(e, (a,)) for e, (a,) in every if enters[a]]
    weights = system.weights
    if live <= {sub_exponents(weights[e], weights[a]) for e, (a,) in entering}:
        assert columns == entering
        eqs = _unary_ansatz_rows(target, system, bounds)
        assert {ci for row in eqs.rows for ci in row} == set(range(len(eqs.columns)))
    else:
        assert columns is None
    return len(every) - len(entering)


def column_rule_cases():
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        if problem.star is not None and problem.integrable is not None:
            out.append(pytest.param(problem.star, problem.system(), problem.bounds, id=path.stem))
    scenarios = [flat_scenario, removable_scenario, obstructed_scenario]
    for name, scenario in zip(["flat", "removable", "obstructed"], scenarios):
        star, system = scenario()
        out.append(pytest.param(star, system, Bounds(2, 3), id=name))
    return out


@pytest.mark.parametrize("star, system, bounds", column_rule_cases())
def test_unary_columns_are_those_that_enter_a_row(monkeypatch, star, system, bounds):
    for n in range(1, star.order + 1):
        for b in (bounds, Bounds(bounds.degree + 1, bounds.op_order + 1)):
            dead_unary_columns(monkeypatch, star.term(n), system, b)


def test_random_planted_unary_columns_are_those_that_enter_a_row(monkeypatch):
    rng = random.Random(4601)
    dead = [dead_unary_columns(monkeypatch, star.term(n), system, bounds)
            for system, star, n, bounds in (random_planted(rng) for _ in range(40))]
    # x enters no generator, so every d^a through x and every derivation is dead
    assert sum(1 for d in dead if d) >= 10


@pytest.mark.parametrize("bounds", [Bounds(2, 4), Bounds(2, 6)], ids=["2-4", "2-6"])
def test_rotation_momenta_unary_columns_are_those_that_enter_a_row(monkeypatch, bounds):
    system = rotation_system()
    target = moyal_star(system.pi, 2).term(2)
    # every coordinate is used and no derivation reaches the target's weight
    assert dead_unary_columns(monkeypatch, target, system, bounds) == 0


@pytest.mark.parametrize("star, degree, op_order", EXTENSIONS)
def test_extension_keys_match_the_replaced_key_filter(monkeypatch, star, degree, op_order):
    # the keys are the replaced filter's at K = K_T, whatever the case's bounds,
    # less the blocks with |a| + |b| <= K + 1 that it also kept
    keys = recording_key_differentials(monkeypatch)
    extend_one_order(star)
    target = target_of(star)
    weights = {weight(k) for k in target.terms}
    want = reference_extension_keys(target, star.dim, target.order())
    assert keys == [k for k in want if weight(k) in weights]


# -- the extension solve with one row per pinned column ---------------------------


def live_weights(terms):
    """{key: its weight} for each key where the target term map is nonzero."""
    return {key: weight(key) for key, t in terms.items() if t}


def solve_inputs(star):
    """The next-order target term map of star, its live keys' weights and the two
    bounds that _solve_target tries: K_T and the target's order."""
    n = star.order
    terms = star._insertions(n + 1, range(1, n + 1), _TermMap())
    live = live_weights(terms)
    slot_order = max((max(map(sum, key)) for key in live), default=0)
    return terms, live, (slot_order, max(map(sum, live.values()), default=0))


def store_items(op):
    """An operator's store as lists, so that a comparison sees the order of every dict."""
    if op is None:
        return None
    den, numerators = op._store
    return den, [(key, list(c.items())) for key, c in numerators.items()]


def assert_solve_columns_match_reference(dim, terms, live, bound):
    got = star_module._solve_columns(dim, terms, live, bound)
    want = reference_solve_columns(dim, terms, live, bound)
    assert store_items(got) == store_items(want)
    return got


def bench_extend_products(seed):
    """The products of bench/workloads.py's seeded `extend` cases."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return [load_problem_data(case.problem).star for case in workloads.build("extend", seed)]


SHIPPED_PRODUCTS = [
    "casimir_obstruction",
    "moyal_extension",
    "plane_momenta",
    "removable_class",
    "rotation_momenta",
]


def test_solve_columns_matches_the_all_rows_reference():
    stars = [p.values[0] for p in SOLVED_EXTENSIONS]
    stars += bench_extend_products(1) + bench_extend_products(7)
    for name in SHIPPED_PRODUCTS:
        data = json.loads((PROBLEMS / f"{name}.json").read_text())
        stars.append(load_problem_data(data).star)
    for star in stars:
        terms, live, bounds = solve_inputs(star)
        for bound in bounds:
            assert_solve_columns_match_reference(star.dim, terms, live, bound)
        # every one of these products extends within K_T
        assert star_module._solve_columns(star.dim, terms, live, bounds[0]) is not None


def perturbed(terms, dkey):
    """A copy of the target term map with 1 added to the constant monomial at dkey."""
    copy = _TermMap({key: dict(t) for key, t in terms.items()})
    copy.den = terms.den
    _accumulate(copy.setdefault(dkey, {}), zero_exponents(len(dkey[0])), 1)
    return copy


@pytest.mark.parametrize(
    "star, duplicates, two_entry, refused",
    [
        pytest.param(gauged_truncation(canonical_pi2(), 2, R2O2)[0], 24, 10, 9, id="gauged-r2-o2"),
        pytest.param(moyal_star(canonical_pi2(), 2), 20, 0, 0, id="moyal-r2-o2"),
    ],
)
def test_solve_columns_refuses_a_perturbed_target_like_the_all_rows_reference(
    star, duplicates, two_entry, refused
):
    terms, live, (bound, _) = solve_inputs(star)
    _, matrix = reference_extension_matrix(star.dim, live, bound)
    pinned, later, pairs = set(), [], []
    for dkey, row in matrix.items():
        if len(row) == 2:
            pairs.append(dkey)
        elif len(row) == 1:
            [c] = row
            if c in pinned:
                later.append(dkey)
            pinned.add(c)
    assert (len(later), len(pairs)) == (duplicates, two_entry)
    # a later one-entry row of a pinned column, its right-hand side changed: the
    # cross-multiplication check refuses it, as the whole system does
    for dkey in later:
        p = perturbed(terms, dkey)
        assert assert_solve_columns_match_reference(star.dim, p, live_weights(p), bound) is None
    # a two-entry row changed: solve_sparse decides, as before
    nones = 0
    for dkey in pairs:
        p = perturbed(terms, dkey)
        nones += assert_solve_columns_match_reference(star.dim, p, live_weights(p), bound) is None
    assert nones == refused
