"""Verdicts belong to a product up to gauge equivalence.

The obstructions are cohomology classes, so `eliminate` must give a product s
and each conjugate s^D = gauge_transform(s, D) compatible verdicts.  For random
formal diffeomorphisms D (D_1 and D_2 of operator order <= 2 and coefficient
degree <= 1, fixed seeds) on the four shipped `eliminate` problems and the
scenarios of helpers.py, at each product's own bounds:

1. s and s^D never split into one TRIVIALIZED and one OBSTRUCTED: a gauge that
   trivializes one of them gives one for the other;
2. s is OBSTRUCTED at order 1, where the rule uses no bound, exactly when s^D is;
3. when s^D is TRIVIALIZED with gauge E, s under D o E is the reported product;
4. the order-2 class of s^D is that of s plus d_hor(Y), with Y_j = D_1(f_j).

At order 3 that lemma fails: a gauge moves the class of Casimir generators,
so a class that no d_hor(Y) reaches (zero image) may still be removable, and
`eliminate` must not call it OBSTRUCTED.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    casimir_order_three_scenario,
    flat_scenario,
    invert_diffeo,
    obstructed_scenario,
    rand_op,
    reference_gauge_transform,
    removable_scenario,
)

from starobs import (
    OBSTRUCTED,
    TRIVIALIZED,
    UNDECIDED,
    Bounds,
    FormalDiffeo,
    PolyDiffOp,
    Polynomial,
    RelativeClass,
    compose_diffeo,
    d_hor,
    eliminate_to_order,
    gauge_transform,
    vanishes_on_generators,
)
from starobs.cli import load_problem
from starobs.obstruction import _raw_class

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GAUGES = 10


def shipped(name):
    problem = load_problem(str(PROBLEMS / f"{name}.json"))
    return problem.star, problem.system(), problem.bounds


PRODUCTS = {
    name: (lambda name=name: shipped(name))
    for name in ("casimir_obstruction", "plane_momenta", "removable_class", "rotation_momenta")
}
PRODUCTS["flat"] = lambda: (*flat_scenario(order=3), Bounds(2, 2))
PRODUCTS["removable"] = lambda: (*removable_scenario(), Bounds(2, 4))
PRODUCTS["obstructed"] = lambda: (*obstructed_scenario(), Bounds(2, 2))
PRODUCTS["casimir-order-3"] = lambda: (*casimir_order_three_scenario(), Bounds(2, 2))


def random_gauges(rng, dim, order):
    """GAUGES diffeos id + h D_1 + h^2 D_2 (truncated at the product's order)."""
    for _ in range(GAUGES):
        parts = {k: rand_op(rng, dim, 1, order=2, coeff_degree=1) for k in (1, 2) if k <= order}
        yield FormalDiffeo.from_parts(dim, order, parts)


def obstructed_at_order_one(report):
    return report.status == OBSTRUCTED and report.order_reached == 1


@pytest.mark.parametrize("seed, name", list(enumerate(PRODUCTS)), ids=list(PRODUCTS))
def test_verdicts_agree_across_random_gauges(seed, name):
    s, system, bounds = PRODUCTS[name]()
    base = eliminate_to_order(s, system, s.order, bounds)
    statuses = {base.status}
    for D in random_gauges(random.Random(2800 + seed), s.dim, s.order):
        report = eliminate_to_order(gauge_transform(s, D), system, s.order, bounds)
        statuses.add(report.status)
        assert obstructed_at_order_one(report) == obstructed_at_order_one(base)
        if report.status == TRIVIALIZED:
            assert reference_gauge_transform(s, compose_diffeo(D, report.gauge)) == report.star
    # s and its conjugates are all gauge-equivalent to one another
    assert not {TRIVIALIZED, OBSTRUCTED} <= statuses


@pytest.mark.parametrize("seed, name", list(enumerate(PRODUCTS)), ids=list(PRODUCTS))
def test_order_two_class_shifts_by_the_horizontal_differential(seed, name):
    s, system, _ = PRODUCTS[name]()
    chi = _raw_class(s, system, 2)
    for D in random_gauges(random.Random(2900 + seed), s.dim, s.order):
        values = {(j,): D.term(1).apply([f]) for j, f in enumerate(system.generators)}
        Y = RelativeClass(s.dim, system.size, 1, values)
        assert _raw_class(gauge_transform(s, D), system, 2) == chi + d_hor(system, Y)


@pytest.mark.parametrize("bounds", [Bounds(2, 2), Bounds(2, 4)], ids=["2-2", "2-4"])
def test_a_zero_image_class_at_order_three_that_a_gauge_removes_is_not_obstructed(bounds):
    s3, system = casimir_order_three_scenario()
    trivialized = eliminate_to_order(s3, system, 3, bounds)
    assert trivialized.status == TRIVIALIZED
    # D = exp(h x d_w): x d_w, x^2/2 d_w^2 and x^3/6 d_w^3
    parts = {
        k: PolyDiffOp.single(4, [(0, 0, 0, k)], Polynomial.monomial(4, (k, 0, 0, 0), c))
        for k, c in ((1, 1), (2, Fraction(1, 2)), (3, Fraction(1, 6)))
    }
    D = FormalDiffeo.from_parts(4, 3, parts)
    s = gauge_transform(s3, D)
    report = eliminate_to_order(s, system, 3, bounds)
    # the order-3 class is nonzero and d_hor has zero image, yet D^-1 o E removes it
    assert (report.status, report.order_reached) == (UNDECIDED, 3)
    assert not report.classes[-1].is_zero()
    assert "identically zero image" in report.detail
    gauged = gauge_transform(s, compose_diffeo(invert_diffeo(D), trivialized.gauge))
    assert gauged.certified_order() == 3
    assert all(vanishes_on_generators(gauged.term(k), system) for k in (1, 2, 3))
