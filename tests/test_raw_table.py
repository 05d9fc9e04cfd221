"""The raw generator table and the kernels that read it, against their Polynomial forms.

The system's table holds d^a of each generator monomial as a plain
{monomial: coefficient} dict.  The restricted stream, the order-n class and
the unary gauge rows read it with the operator's numerators over one
denominator and divide each reported value once; the lift and the exactness
solve shift one polynomial per generator and coordinate by each ansatz
monomial.  These tests pin each of them to the Polynomial form it replaced,
kept in helpers.py: the same values with their terms in the same order, the
same rows and right-hand sides, the same witnesses; and one test checks
that apply and each evaluation on generator monomials run on the one walk,
polydiff._values.  The cases are the shipped problems, planted products on
R^3 and R^4, and a system whose generators have non-integral coefficients,
so that table entries hold Fractions.
"""

import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    ReferenceGeneratorTable,
    canonical_pi4,
    p3,
    p4,
    plane_pi3,
    rand_poly,
    reference_exactness_solve,
    reference_raw_class,
    reference_table_restricted_items,
    reference_unary_ansatz_rows,
    row_labels,
)

from starobs import (
    Bounds,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    RelativeClass,
    d_hor,
    eliminate_to_order,
    exactness_solve,
    gauge_transform,
    hochschild_d,
    moyal_star,
    restricted_values,
    vanishes_on_generators,
)
from starobs import obstruction, polydiff
from starobs.cli import load_problem
from starobs.obstruction import _raw_class, _unary_ansatz_rows
from starobs.poly import exponents_upto
from starobs.polydiff import _restricted_items

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def planted(generators, parse, pi, n, gauge_terms, bounds):
    """A flat Moyal product behind id + h^n sum c x^e d^a, its system and bounds."""
    system = IntegrableSystem(pi, [parse(g) for g in generators])
    dim = pi.dim
    gauge = PolyDiffOp.zero(dim, 1)
    for alpha, exps, coeff in gauge_terms:
        gauge = gauge + PolyDiffOp.single(dim, [alpha], Polynomial.monomial(dim, exps, coeff))
    star = gauge_transform(moyal_star(pi, n), FormalDiffeo.from_parts(dim, n, {n: gauge}))
    return star, system, bounds


def cases():
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        if problem.star is not None and problem.integrable is not None:
            out.append(pytest.param(problem.star, problem.system(), problem.bounds, id=path.stem))
    r3 = [((0, 2, 0), (0, 0, 1), Fraction(1, 2)), ((0, 1, 1), (0, 1, 0), -3)]
    r3_star = planted(("y + z^2", "z"), p3, plane_pi3(), 2, r3, Bounds(2, 3))
    out.append(pytest.param(*r3_star, id="r3"))
    r4 = [((0, 0, 2, 0), (1, 0, 0, 0), Fraction(1, 3))]
    momenta = ("p1^2 + p2^2", "x1*p2 - x2*p1")
    r4_star = planted(momenta, p4, canonical_pi4(), 2, r4, Bounds(2, 2))
    out.append(pytest.param(*r4_star, id="r4"))
    halves = [((0, 1, 1), (1, 0, 0), Fraction(3, 2)), ((0, 2, 0), (0, 0, 0), 1)]
    out.append(
        pytest.param(
            *planted(("1/2*y^2", "2/3*z"), p3, plane_pi3(), 2, halves, Bounds(1, 3)),
            id="fraction-generators",
        )
    )
    return out


CASES = cases()


def terms(p):
    return list(p.terms.items())


def stream(items):
    """A stream of (key, Polynomial) pairs with each value's terms in order."""
    return [(key, terms(value)) for key, value in items]


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_table_entries_match_the_polynomial_table(star, system, bounds):
    table, reference = system._monomials, ReferenceGeneratorTable(system)
    entries = [
        (a, e) for a in exponents_upto(system.dim, 2) for e in exponents_upto(system.size, 3)
    ]
    got = [list(table[key].items()) for key in entries]
    assert got == [terms(reference[key]) for key in entries]
    assert all(type(k) is tuple and v for key in entries for k, v in table[key].items())


def test_fraction_generators_give_fraction_entries():
    star, system, _ = next(c.values for c in CASES if c.id == "fraction-generators")
    table = system._monomials
    values = [v for e in exponents_upto(2, 2) for v in table[table.zero, e].values()]
    assert Fraction(1, 2) in values and Fraction(4, 9) in values


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_restricted_stream_matches_the_polynomial_walk(star, system, bounds):
    for n in range(1, star.order + 1):
        op = star.term(n)
        widths = ((hochschild_d(op), op.order()), (op, op.order() + 1), (op, op.order()))
        for target, degree in widths:
            got = stream(_restricted_items(target, system, degree))
            assert got == stream(reference_table_restricted_items(target, system, degree))
        assert vanishes_on_generators(op, system) == (not got)


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_class_matches_the_applied_class(star, system, bounds):
    for n in range(1, star.order + 1):
        got, want = _raw_class(star, system, n), reference_raw_class(star, system, n)
        assert got == want
        assert [(i, terms(p)) for i, p in got.components.items()] == [
            (i, terms(p)) for i, p in want.components.items()
        ]


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_unary_rows_match_the_polynomial_rows(star, system, bounds):
    outcomes = []
    for n in range(1, star.order + 1):
        for b in (bounds, Bounds(bounds.degree + 1, bounds.op_order + 1)):
            got = _unary_ansatz_rows(star.term(n), system, b)
            want = reference_unary_ansatz_rows(star.term(n), system, b)
            assert (got is None) == (want is None)
            outcomes.append(got is None)
            if got is not None:
                assert got.columns == want.columns
                assert row_labels(got) == row_labels(want)
                assert [list(row.items()) for row in got.rows] == [
                    list(row.items()) for row in want.rows
                ]
                assert got.rhs == want.rhs
    assert False in outcomes


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_kernels_take_no_polynomial_product_and_apply_nothing(star, system, bounds, monkeypatch):
    fresh = IntegrableSystem(system.pi, system.generators)  # its table is built under guard
    expected = [
        (stream(reference_table_restricted_items(star.term(n), system, star.term(n).order())),
         reference_raw_class(star, system, n))
        for n in range(1, star.order + 1)
    ]

    def forbidden(*args):
        raise AssertionError("a rewritten kernel used the Polynomial path")

    for cls, name in [(Polynomial, "__mul__"), (Polynomial, "__rmul__"),
                      (Polynomial, "partial"), (PolyDiffOp, "apply")]:
        monkeypatch.setattr(cls, name, forbidden)
    # every derivative is _partial's, of a generator monomial in the system's table
    differentiated, partial = [], polydiff._partial

    def watched(t, alpha):
        differentiated.append(t)
        return partial(t, alpha)

    monkeypatch.setattr(polydiff, "_partial", watched)
    for n, (values, chi) in zip(range(1, star.order + 1), expected):
        op = star.term(n)
        table = restricted_values(op, fresh)
        assert [(k, terms(v)) for k, v in table.items() if v] == values
        assert vanishes_on_generators(op, fresh) == (not values)
        assert _raw_class(star, fresh, n) == chi
        _unary_ansatz_rows(op, fresh, bounds)
    monomials = {id(t) for t in fresh._monomials.values()}
    assert differentiated and all(id(t) in monomials for t in differentiated)


def test_every_evaluation_runs_on_the_one_walk(monkeypatch):
    # apply, the class, phi0 and the restricted stream have no term loop of their own
    star, system, bounds = next(c.values for c in CASES if c.id == "r3")
    op, calls, values = star.term(2), [], polydiff._values

    def counting(*args):
        calls.append(args)
        return values(*args)

    monkeypatch.setattr(polydiff, "_values", counting)
    monkeypatch.setattr(obstruction, "_values", counting)
    runs = {
        "apply": lambda: op.apply(system.generators),
        "_raw_class": lambda: _raw_class(star, system, 2),
        "_unary_ansatz_rows": lambda: _unary_ansatz_rows(op, system, bounds),
        "_restricted_items": lambda: list(_restricted_items(op, system, 1)),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, name


def test_evaluation_walks_leave_no_garbage():
    # with the collector paused, eliminate on every case, apply, and a flatness
    # test that stops at its first value: a walk that referred to itself would
    # leave a cycle holding its table until the collector ran
    def made_by_polydiff(obj):
        code = getattr(obj, "__code__", getattr(obj, "gi_code", None))
        tables = (polydiff._ArgumentTable, polydiff._GeneratorTable)
        return isinstance(obj, tables) or getattr(code, "co_filename", None) == polydiff.__file__

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for case in CASES:
            star, system, bounds = case.values
            eliminate_to_order(star, system, star.order, bounds)
            op = star.term(star.order)
            op.apply([system.generators[-1]] * op.arity)
            vanishes_on_generators(op, system)
        gc.collect()
        left = [obj for obj in gc.garbage if made_by_polydiff(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


@pytest.mark.parametrize("star, system, bounds", CASES)
def test_exactness_matches_the_monomial_bracket_solve(star, system, bounds):
    # classes d_hor(Y) of random Y up to degree 2, at degree bounds below and at Y's
    rng = random.Random(len(system.generators) * 100 + system.dim)
    outcomes = []
    for _ in range(4):
        Y = RelativeClass(
            system.dim, system.size, 1,
            {(j,): rand_poly(rng, system.dim, 2, terms=2) for j in range(system.size)},
        )
        c = d_hor(system, Y)
        for degree in range(3):
            got = exactness_solve(system, c, degree)
            want = reference_exactness_solve(system, c, degree)
            assert got.witness == want.witness and got.certificate == want.certificate
            outcomes.append(got.certificate)
    assert None in outcomes
