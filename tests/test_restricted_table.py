"""The restricted table computes each generator-monomial derivative once.

`restricted_values` memoizes d^a of every generator monomial per
distinct multi-index and shares each term's coefficient products across
tuples with common leading slots.  These tests pin it to the per-tuple
reference in helpers.py: same keys in the same order, the same values
with their terms in the same order, and a bounded derivative count.
"""

import random

import pytest
from helpers import (
    p3,
    p4,
    plane_pi3,
    rand_op,
    reference_restricted_values,
)

from starobs import (
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    hochschild_d,
    moyal_star,
    restricted_values,
    vanishes_on_generators,
)
from starobs.obstruction import _cascade, _raw_class
from starobs.polydiff import generator_monomials


def plane_system():
    return IntegrableSystem(plane_pi3(), [p3("y"), p3("z")])


def rotational_system():
    pi = Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1})
    return IntegrableSystem(pi, [p4("p1^2 + p2^2"), p4("x1*p2 - x2*p1")])


def flattened(table):
    """Keys in order, each value's terms in order."""
    return [(key, list(value.terms.items())) for key, value in table.items()]


def non_closed_order_two():
    """Moyal on R^3 with B_2 += z * d_y^2 (u) v, whose Hochschild differential
    is -(2 d_y u d_y v + d_y^2 u v) z w on the subalgebra: not closed."""
    extra = PolyDiffOp.single(3, [(0, 2, 0), (0, 0, 0)], p3("z"))
    return moyal_star(plane_pi3(), 2).plus_term(2, extra), plane_system()


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_table_matches_per_tuple_reference_on_monomial_generators(arity):
    rng = random.Random(40 + arity)
    system = plane_system()
    for _ in range(4):
        op = rand_op(rng, 3, arity, order=2, coeff_degree=1, terms=3)
        slot_degree = 2 if arity == 3 else op.order() + 1
        table = restricted_values(op, system, slot_degree)
        reference = reference_restricted_values(op, system, slot_degree)
        assert flattened(table) == flattened(reference)
        assert vanishes_on_generators(op, system) == all(
            v.is_zero() for v in reference_restricted_values(op, system, op.order() + 1).values()
        )


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_table_matches_per_tuple_reference_on_polynomial_generators(arity):
    rng = random.Random(50 + arity)
    system = rotational_system()
    slot_degree = 1 if arity == 3 else 2
    for _ in range(3):
        op = rand_op(rng, 4, arity, order=2, coeff_degree=1, terms=3)
        table = restricted_values(op, system, slot_degree)
        assert flattened(table) == flattened(reference_restricted_values(op, system, slot_degree))


def test_table_matches_reference_on_moyal_differential():
    # the cascade's own input: the arity-3 differential of a second-order term
    star, system = non_closed_order_two()
    dop = hochschild_d(star.term(2))
    table = restricted_values(dop, system, dop.order() + 1)
    assert flattened(table) == flattened(reference_restricted_values(dop, system, dop.order() + 1))


def test_cascade_witness_is_first_nonzero_reference_key():
    star, system = non_closed_order_two()
    report = _cascade(star, system, 2, _raw_class(star, system, 2))
    dop = hochschild_d(star.term(2))
    reference = reference_restricted_values(dop, system, dop.order() + 1)
    first = next(key for key in sorted(reference) if not reference[key].is_zero())
    assert not report.cochain_closed
    assert report.cochain_witness == first


def test_table_takes_each_derivative_once(monkeypatch):
    # an arity-3 operator with several terms per multi-index
    star, system = non_closed_order_two()
    dop = hochschild_d(star.term(2))
    slot_degree = dop.order() + 1
    mons = generator_monomials(system, slot_degree)
    alphas = {a for key in dop.terms for a in key}
    calls = []
    original = Polynomial.partial_multi

    def counting(self, alpha):
        calls.append(alpha)
        return original(self, alpha)

    monkeypatch.setattr(Polynomial, "partial_multi", counting)
    restricted_values(dop, system, slot_degree)
    assert 0 < len(calls) <= len(mons) * len(alphas)
