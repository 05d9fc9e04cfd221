"""The ansatz kernels factor the coefficient monomial out of each column.

For a product that is commutative at order 0, d(x^e D) = x^e d(D), so
the unary gauge solve and the one-order extension evaluate one
differential per derivative index and shift it by e.  These tests pin
the factored assemblers to the per-column references in helpers.py.
"""

import random
from fractions import Fraction

import pytest
from helpers import (
    p3,
    p4,
    plane_pi3,
    rand_op,
    reference_extension_columns,
    reference_unary_correction,
    reference_unary_rows,
)

from starobs import (
    Bounds,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    gauge_transform,
    hochschild_d,
    moyal_star,
)
from starobs.obstruction import _solve_unary_correction, _unary_ansatz_rows
from starobs.poly import exponents_upto
from starobs.polydiff import generator_monomials
from starobs.star import _extension_columns, bidiff_basis


def planted(order, n, alpha, exps, coeff):
    """Flat Moyal product on R^3 hidden behind id + h^n coeff x^exps d^alpha."""
    gauge = FormalDiffeo.from_parts(
        3, order, {n: PolyDiffOp.single(3, [alpha], Polynomial.monomial(3, exps, coeff))}
    )
    star = gauge_transform(moyal_star(plane_pi3(), order), gauge)
    return star, IntegrableSystem(plane_pi3(), [p3("y"), p3("z")])


def as_mapping(labels, rows, rhs):
    return {label: (row, b) for label, row, b in zip(labels, rows, rhs)}


def factored_rows(target, mons, alphas, emons):
    """Row labels, rows and rhs of the system _unary_ansatz_rows assembles."""
    eqs = _unary_ansatz_rows(target, mons, alphas, emons)
    return eqs.row_labels, eqs.rows, eqs.rhs


@pytest.mark.parametrize("arity", [1, 2])
def test_hochschild_d_commutes_with_coefficient_monomials(arity):
    rng = random.Random(5 + arity)
    for _ in range(10):
        op = rand_op(rng, 3, arity, order=2, coeff_degree=1, terms=3)
        e = tuple(rng.randint(0, 2) for _ in range(3))
        x_e = Polynomial.monomial(3, e)
        assert hochschild_d(op.scaled(x_e)) == hochschild_d(op).scaled(x_e)


def test_unary_rows_match_per_column_reference_on_planted_product():
    star, system = planted(2, 2, (0, 0, 2), (0, 0, 1), Fraction(3, 2))
    mons = generator_monomials(system, 3)
    alphas, emons = exponents_upto(3, 2), exponents_upto(3, 1)
    target = star.term(2)
    factored = factored_rows(target, mons, alphas, emons)
    reference = reference_unary_rows(target, mons, alphas, emons)
    assert as_mapping(*factored) == as_mapping(*reference)
    # monomial generators: the solver sees the very same system
    assert factored == reference


def test_unary_rows_match_per_column_reference_on_polynomial_generators():
    pi = Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1})
    system = IntegrableSystem(pi, [p4("p1^2 + p2^2"), p4("x1*p2 - x2*p1")])
    target = moyal_star(pi, 2).term(2)
    mons = generator_monomials(system, 2)
    alphas, emons = exponents_upto(4, 1), exponents_upto(4, 1)
    factored = factored_rows(target, mons, alphas, emons)
    reference = reference_unary_rows(target, mons, alphas, emons)
    assert as_mapping(*factored) == as_mapping(*reference)


@pytest.mark.parametrize(
    "order, n, alpha, exps, bounds",
    [
        (2, 2, (0, 0, 2), (0, 0, 1), Bounds(1, 2)),
        (3, 3, (0, 1, 1), (0, 1, 0), Bounds(1, 2)),
        (1, 1, (0, 0, 2), (0, 0, 0), Bounds(1, 2)),
    ],
    ids=["order-2", "order-3", "first-order-normalization"],
)
def test_unary_correction_matches_reference_solve(order, n, alpha, exps, bounds):
    star, system = planted(order, n, alpha, exps, Fraction(-2, 3))
    factored = _solve_unary_correction(star, system, n, bounds)
    assert factored is not None and not factored.is_zero()
    assert factored == reference_unary_correction(star, system, n, bounds)


@pytest.mark.parametrize("dim, degree, op_order", [(2, 2, 2), (3, 1, 2), (2, 0, 3)])
def test_extension_columns_match_per_column_reference(dim, degree, op_order):
    basis = bidiff_basis(dim, degree, op_order)
    assert _extension_columns(dim, basis) == reference_extension_columns(dim, basis)
