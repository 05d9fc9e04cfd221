"""The restricted table: its degree, and each generator-monomial derivative once.

An operator of per-slot order r is fixed on C = k[f_1..f_m] by its values
on generator monomials of degree <= r (`restricted_values` says why).  The
rank tests check that claim on ansatz spaces: the restriction map has the
same rank at degree r as at r + 1, its kernel at r vanishes at r + 1, and
the rank at r - 1 is lower, so r is tight.

`restricted_values` reads d^a of every generator monomial from the
system's table, which builds each monomial and each derivative once per
system, and shares each term's coefficient products across tuples with
common leading slots, carrying only the terms still nonzero.
These tests pin it to the per-tuple and dense-walk references in
helpers.py: same keys in the same order (the sparse stream without the
zero entries), the same values with their terms in the same order, a
bounded derivative count, and no product spent on a dead term.
"""

import itertools
import random

import pytest
from helpers import (
    generator_monomials,
    hkr_to_cochain,
    p3,
    p4,
    plane_pi3,
    rand_op,
    record_table_work,
    reference_restricted_items,
    reference_restricted_values,
)
from oracles import hamiltonian_field

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
from starobs.linsolve import solve_sparse
from starobs.obstruction import _cascade, _raw_class
from starobs.poly import add_exponents, exponents_upto
from starobs.polydiff import _restricted_items


def plane_system():
    return IntegrableSystem(plane_pi3(), [p3("y"), p3("z")])


def rotational_system():
    pi = Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1})
    return IntegrableSystem(pi, [p4("p1^2 + p2^2"), p4("x1*p2 - x2*p1")])


def flattened(table):
    """Keys in order, each value's terms in order."""
    return [(key, list(value.terms.items())) for key, value in table.items()]


def nonzero(table):
    """The table without its zero entries, which the sparse stream omits."""
    return {key: value for key, value in table.items() if value}


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
        table = dict(_restricted_items(op, system, slot_degree))
        reference = reference_restricted_values(op, system, slot_degree)
        assert flattened(table) == flattened(nonzero(reference))
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
        table = dict(_restricted_items(op, system, slot_degree))
        reference = reference_restricted_values(op, system, slot_degree)
        assert flattened(table) == flattened(nonzero(reference))


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_sparse_stream_is_the_dense_walk_without_zeros(arity):
    # monomial and polynomial generators; every third operator has a term
    # killed by the subalgebra (d_x on k[y, z], a Hamiltonian field on R^4)
    rng = random.Random(70 + arity)
    for system, fields in killing_fields():
        degree = 1 if arity == 3 else 2
        mons = generator_monomials(system, degree)
        for trial in range(6):
            op = rand_op(rng, system.dim, arity, order=2, coeff_degree=1, terms=3)
            if arity and trial % 3 == 0:
                outer = rand_op(rng, system.dim, arity, order=1, coeff_degree=1, terms=2)
                op = op + outer.compose_at(rng.randrange(arity), rng.choice(fields))
            sparse = _restricted_items(op, system, degree)
            dense = reference_restricted_items(op, mons)
            expected = [(key, list(v.terms.items())) for key, v in dense if v]
            assert [(key, list(v.terms.items())) for key, v in sparse] == expected
    zero = PolyDiffOp.zero(3, arity)
    assert list(_restricted_items(zero, plane_system(), 2)) == []


def test_dead_term_costs_no_products(monkeypatch):
    # d_x kills every element of C = k[y, z] in the first slot, so the term
    # that starts with it is dropped there and adds no product to any slot
    system = plane_system()
    generator_monomials(system, 2)  # the system's monomials, built before counting
    live = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1), (0, 1, 0)], p3("z"))
    dead = PolyDiffOp.single(3, [(1, 0, 0), (0, 1, 0), (0, 0, 0)], p3("y"))
    _, products = record_table_work(monkeypatch)

    def cost(op):
        products.clear()
        values = flattened(dict(_restricted_items(op, system, 2)))
        return values, len(products)

    assert cost(dead) == ([], 0)
    values, products_live = cost(live)
    assert values and products_live > 0
    assert cost(live + dead) == (values, products_live)


def test_table_matches_reference_on_moyal_differential():
    # the cascade's own input: the arity-3 differential of a second-order term
    star, system = non_closed_order_two()
    dop = hochschild_d(star.term(2))
    table = restricted_values(dop, system)
    assert flattened(table) == flattened(reference_restricted_values(dop, system, dop.order()))


def test_cascade_witness_is_first_nonzero_reference_key():
    star, system = non_closed_order_two()
    report = _cascade(star, system, 2, _raw_class(star, system, 2))
    dop = hochschild_d(star.term(2))
    reference = reference_restricted_values(dop, system, dop.order() + 1)
    first = next(key for key in sorted(reference) if not reference[key].is_zero())
    assert not report.cochain_closed
    assert report.cochain_witness == first


@pytest.mark.parametrize("make", [plane_system, rotational_system])
def test_generator_monomials_are_built_once_per_system(make, monkeypatch):
    system = make()
    misses, products = record_table_work(monkeypatch)
    first = generator_monomials(system, 3)
    # each monomial is one miss, and one product but for the constant 1
    assert misses == [(system._monomials.zero, e) for e in exponents_upto(system.size, 3)]
    assert len(products) == len(misses) - 1
    misses.clear()
    # a second call, and any lower degree, reads the table and multiplies nothing
    assert generator_monomials(system, 3) == first
    assert generator_monomials(system, 2) == [(e, u) for e, u in first if sum(e) <= 2]
    assert misses == [] and len(products) == len(first) - 1
    monkeypatch.undo()
    # equal to a fresh build, and to the generator powers multiplied out
    fresh = generator_monomials(make(), 3)
    assert [(e, list(p.terms.items())) for e, p in first] == [
        (e, list(p.terms.items())) for e, p in fresh
    ]
    gens = system.generators
    expected = []
    for exps in exponents_upto(len(gens), 3):
        poly = Polynomial.constant(system.dim, 1)
        for g, k in zip(gens, exps):
            poly = poly * g**k
        expected.append((exps, poly))
    assert first == expected


def test_restricted_walks_share_the_systems_derivatives(monkeypatch):
    star, system = non_closed_order_two()
    dop = hochschild_d(star.term(2))
    table = restricted_values(dop, system)
    misses, _ = record_table_work(monkeypatch)
    # a second walk, and another kind of walk, build no table entry
    assert restricted_values(dop, system) == table
    assert not vanishes_on_generators(dop, system)
    assert misses == []


def test_table_takes_each_derivative_once(monkeypatch):
    # an arity-3 operator with several terms per multi-index
    star, system = non_closed_order_two()
    dop = hochschild_d(star.term(2))
    mons = generator_monomials(system, dop.order())
    alphas = {a for key in dop.terms for a in key}
    misses, _ = record_table_work(monkeypatch)
    restricted_values(dop, system)
    derivatives = [key for key in misses if any(key[0])]
    assert 0 < len(derivatives) == len(set(derivatives)) <= len(mons) * len(alphas)
    assert set(misses) == set(derivatives)  # the monomials were already built
    misses.clear()
    restricted_values(dop, system)
    assert misses == []


# -- the degree that decides: order(op), not order(op) + 1 --------------------------


def restriction_rank(system, arity, op_order, coeff_degree, degree):
    """The restriction map of the ansatz x^e d^key (|e| <= coeff_degree, every
    slot of order <= op_order) to tuples of generator monomials of degree <= degree,
    solved with solve_sparse: (basis, result with rank and nullspace)."""
    dim = system.dim
    keys = list(itertools.product(exponents_upto(dim, op_order), repeat=arity))
    emons = exponents_upto(dim, coeff_degree)
    basis = [(e, key) for key in keys for e in emons]
    rows, index = [], {}
    for ki, key in enumerate(keys):
        # x^e d^key takes the values of d^key times x^e
        for exps, value in _restricted_items(PolyDiffOp.single(dim, key), system, degree):
            for ei, e in enumerate(emons):
                for mono, c in value.terms.items():
                    label = (exps, add_exponents(mono, e))
                    if label not in index:
                        index[label] = len(rows)
                        rows.append({})
                    rows[index[label]][ki * len(emons) + ei] = c
    return basis, solve_sparse(rows, [0] * len(rows), len(basis), want_nullspace=True)


@pytest.mark.parametrize(
    "system, arity, op_order, coeff_degree, ranks",
    [
        (rotational_system, 1, 2, 2, (77, 176, 176)),
        (rotational_system, 1, 3, 1, (89, 145, 145)),
        (rotational_system, 2, 1, 1, (5, 99, 99)),
        (rotational_system, 2, 2, 0, (43, 201, 201)),
        (plane_system, 2, 2, 1, (36, 144, 144)),
    ],
    ids=["R4-unary-2-2", "R4-unary-3-1", "R4-binary-1-1", "R4-binary-2-0", "R3-binary-2-1"],
)
def test_degree_order_decides_the_restriction(system, arity, op_order, coeff_degree, ranks):
    system = system()
    found = [
        restriction_rank(system, arity, op_order, coeff_degree, d)[1].rank
        for d in (op_order - 1, op_order + 1)
    ]
    basis, at_r = restriction_rank(system, arity, op_order, coeff_degree, op_order)
    # equal rank at r and r + 1, lower at r - 1: degree r decides, and no less does
    assert (found[0], at_r.rank, found[1]) == ranks
    for vec in at_r.nullspace:
        op = PolyDiffOp.zero(system.dim, arity)
        for ci, v in vec.items():
            e, key = basis[ci]
            op = op + PolyDiffOp.single(system.dim, key, Polynomial.monomial(system.dim, e, v))
        assert op.order() <= op_order
        reference = reference_restricted_values(op, system, op_order + 1)
        assert all(value.is_zero() for value in reference.values())


def killing_fields():
    """Unary operators vanishing on C, one list per system: the x-derivative on
    R^3 with C = k[y, z], and the Hamiltonian fields of H and L on R^4."""
    plane, rotational = plane_system(), rotational_system()
    dx = PolyDiffOp.single(3, [(1, 0, 0)], p3("y - 2*z"))
    fields = [hkr_to_cochain(hamiltonian_field(rotational.pi, g)) for g in rotational.generators]
    return [(plane, [dx]), (rotational, fields)]


def test_vanishing_agrees_with_the_reference_at_one_degree_more():
    # op.compose_at(slot, X) with X vanishing on C vanishes on C; adding a
    # random operator usually breaks that
    rng = random.Random(61)
    outcomes = []
    for system, fields in killing_fields():
        for arity in (1, 2):
            for _ in range(4):
                outer = rand_op(rng, system.dim, arity, order=1, coeff_degree=1, terms=2)
                op = outer.compose_at(rng.randrange(arity), rng.choice(fields))
                if rng.random() < 0.5:
                    op = op + rand_op(rng, system.dim, arity, order=2, coeff_degree=1, terms=1)
                reference = reference_restricted_values(op, system, op.order() + 1)
                expected = all(value.is_zero() for value in reference.values())
                assert vanishes_on_generators(op, system) == expected
                outcomes.append(expected)
    assert True in outcomes and False in outcomes
