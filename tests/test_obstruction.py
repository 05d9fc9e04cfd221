import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    canonical_pi2,
    canonical_pi4,
    flat_scenario,
    hkr_to_cochain,
    is_identity,
    obstructed_scenario,
    p2,
    p3,
    p4,
    pzw,
    rand_op,
    rand_poly,
    reference_d_hor,
    rand_vector_field,
    record_table_work,
    reference_lift_witness,
    reference_poisson_bracket,
    removable_scenario,
    so3_pi,
    trivial_star,
)

from starobs import (
    OBSTRUCTED,
    TRIVIALIZED,
    UNDECIDED,
    Bounds,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    RelativeClass,
    StarProduct,
    cocycle_cascade_check,
    d_hor,
    eliminate_to_order,
    exactness_solve,
    gauge_transform,
    lift_witness,
    moyal_star,
    restricted_values,
    validate_system,
    vanishes_on_generators,
)
from starobs import obstruction
from starobs.cli import load_problem
from starobs.linsolve import _SparseSystem
from starobs.obstruction import _raw_class, gauge_step

BOUNDS = Bounds(degree=2, op_order=2)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def two_e12(dim: int) -> RelativeClass:
    return RelativeClass(dim, 2, 2, {(0, 1): Polynomial.constant(dim, 2)})


# -- validation -----------------------------------------------------------------


def test_canonical_momenta_validate():
    system = IntegrableSystem(canonical_pi4(), [p4("p1"), p4("p2")])
    assert validate_system(system).ok


def test_dependent_generators_rejected():
    system = IntegrableSystem(canonical_pi2(), [p2("x"), p2("x^2")])
    report = validate_system(system)
    assert not report.ok and not report.independent


def test_noncommuting_generators_rejected():
    system = IntegrableSystem(canonical_pi2(), [p2("x"), p2("p")])
    report = validate_system(system)
    assert not report.ok
    (i, j, bracket), = report.commuting_failures
    assert (i, j) == (0, 1) and bracket == Polynomial.constant(2, 1)


def test_non_poisson_bivector_rejected():
    pi = Polyvector(3, 2, {(0, 1): p3("z"), (1, 2): p3("y")})
    report = validate_system(IntegrableSystem(pi, [p3("z")]))
    assert not report.ok and not report.jacobi_ok


# -- obstruction classes ----------------------------------------------------------


def test_flat_scenario_class_vanishes():
    star, system = flat_scenario(order=2)
    assert cocycle_cascade_check(star, system, 2).obstruction.is_zero()


def test_removable_scenario_class():
    star, system = removable_scenario()
    assert cocycle_cascade_check(star, system, 2).obstruction == two_e12(3)


def test_obstructed_scenario_class():
    star, system = obstructed_scenario()
    assert cocycle_cascade_check(star, system, 2).obstruction == two_e12(4)


def test_class_requires_certificate():
    # adding a symmetric junk term at order 1 breaks associativity at
    # order 2, so the certificate check must refuse
    star, system = removable_scenario()
    broken = star.plus_term(1, PolyDiffOp.single(3, [(0, 1, 0), (0, 1, 0)]))
    with pytest.raises(ValueError):
        cocycle_cascade_check(broken, system, 2).obstruction


def test_class_requires_lower_orders_flat():
    # a symmetric first-order term that survives on the subalgebra
    D = FormalDiffeo.from_parts(2, 2, {1: PolyDiffOp.single(2, [(2, 0)], Fraction(-1, 2))})
    star = gauge_transform(trivial_star(2, 2), D)
    system = IntegrableSystem(canonical_pi2(), [p2("x")])
    assert not vanishes_on_generators(star.term(1), system)
    with pytest.raises(ValueError, match="order 1"):
        cocycle_cascade_check(star, system, 2).obstruction


def test_class_matches_commutator_coefficients():
    # independent evaluation path: the truncated commutator series
    for star, system in (removable_scenario(), obstructed_scenario()):
        chi = cocycle_cascade_check(star, system, 2).obstruction
        gens = system.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                series = star.commutator(gens[i], gens[j])
                assert series[1].is_zero()
                assert series[2] == chi.component((i, j))


def test_class_is_the_antisymmetrized_operator_on_generator_pairs(monkeypatch):
    # a random, mostly symmetric B_1 on three generators: component (i, j) is
    # B_1(f_i, f_j) - B_1(f_j, f_i), read from the table at the unit exponents
    rng = random.Random(44)
    units = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def forbidden(self, args):
        raise AssertionError("the class is read from the table, not applied")

    for _ in range(10):
        system = IntegrableSystem(canonical_pi2(), [p2("x"), p2("p + x^2"), p2("x*p")])
        gens = system.generators
        op = rand_op(rng, 2, 2, order=2, coeff_degree=1, terms=3)
        expected = {}
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            value = op.apply([gens[i], gens[j]]) - op.apply([gens[j], gens[i]])
            if value:
                expected[(i, j)] = value
        monkeypatch.setattr(PolyDiffOp, "apply", forbidden)
        misses, products = record_table_work(monkeypatch)
        assert _raw_class(StarProduct(2, 1, [op]), system, 1) == RelativeClass(2, 3, 2, expected)
        # each entry is built once, at a unit exponent or the constant 1 below it,
        # and each of the 6 ordered pairs takes at most two products per term
        assert len(set(misses)) == len(misses)
        assert {e for _, e in misses} <= units | {(0, 0, 0)}
        assert len(products) <= 3 + 6 * 2 * len(op.terms)
        monkeypatch.undo()


# -- closedness -------------------------------------------------------------------


def test_cascade_flat():
    star, system = flat_scenario(order=2)
    report = cocycle_cascade_check(star, system, 2)
    assert report.ok


def test_cascade_removable():
    star, system = removable_scenario()
    report = cocycle_cascade_check(star, system, 2)
    assert report.cochain_closed and report.class_closed


def test_cascade_obstructed():
    star, system = obstructed_scenario()
    report = cocycle_cascade_check(star, system, 2)
    assert report.ok


# -- exactness ---------------------------------------------------------------------


def test_zero_class_solves_trivially():
    _, system = removable_scenario()
    result = exactness_solve(system, RelativeClass.zero(3, 2, 2), 2)
    assert result.solved and result.witness.is_zero()


def test_removable_class_is_exact():
    _, system = removable_scenario()
    result = exactness_solve(system, two_e12(3), 2)
    assert result.solved
    assert d_hor(system, result.witness) == two_e12(3)


def test_obstructed_class_zero_image_certificate():
    _, system = obstructed_scenario()
    for bound in (1, 2, 4):
        result = exactness_solve(system, two_e12(4), bound)
        assert not result.solved
        assert result.certificate == "zero_image"


def test_rank_infeasibility_at_tiny_bound():
    # constant components have zero bracket with everything, so the
    # degree-0 ansatz cannot hit a nonzero class; this is bound-limited
    _, system = removable_scenario()
    result = exactness_solve(system, two_e12(3), 0)
    assert not result.solved
    assert result.certificate == "rank_at_bound"


def test_unclosed_class_rejected():
    # with only two generators every degree-2 class sits in top degree;
    # a third generator leaves room for d_hor to see non-closedness
    pi = Polyvector.bivector(4, {(0, 1): 1})
    system = IntegrableSystem(pi, [pzw("y"), pzw("z"), pzw("w")])
    assert validate_system(system).ok
    bad = RelativeClass(4, 3, 2, {(1, 2): pzw("x")})
    assert not d_hor(system, bad).is_zero()
    with pytest.raises(ValueError):
        exactness_solve(system, bad, 2)


# -- lifting -----------------------------------------------------------------------


def test_coordinate_lift_closed_form():
    _, system = removable_scenario()
    Y = RelativeClass(3, 2, 1, {(1,): p3("-2*x")})
    lifted = lift_witness(system, Y, 2)
    assert lifted == PolyDiffOp.single(3, [(0, 0, 1)], p3("-2*x"))


def test_coordinate_lift_honours_degree_bound():
    _, system = removable_scenario()
    Y = RelativeClass(3, 2, 1, {(0,): p3("x^3"), (1,): p3("y")})
    assert lift_witness(system, Y, 2) is None
    expected = PolyDiffOp(3, 1, {((0, 1, 0),): p3("x^3"), ((0, 0, 1),): p3("y")})
    assert lift_witness(system, Y, 3) == expected


def test_generic_lift_by_linear_solve():
    pi = canonical_pi4()
    system = IntegrableSystem(pi, [p4("p1"), p4("p2 + p1^2")])
    assert validate_system(system).ok
    Y = RelativeClass(4, 2, 1, {(0,): p4("x1"), (1,): p4("p1")})
    lifted = lift_witness(system, Y, 2)
    assert lifted is not None
    assert lifted.arity == 1 and lifted.order() == 1
    assert all(sum(a) == 1 for (a,) in lifted.terms)  # a derivation: no d^0 term
    for j, g in enumerate(system.generators):
        assert lifted.apply([g]) == Y.component((j,))


def test_lift_zero_class():
    _, system = removable_scenario()
    assert lift_witness(system, RelativeClass.zero(3, 2, 1), 2) == PolyDiffOp.zero(3, 1)


def lift_systems():
    """The plane system k[y, z], R^4 k[p1, p2 + p1^2] and rotation_momenta."""
    rotation = load_problem(str(PROBLEMS / "rotation_momenta.json")).integrable
    polynomial = IntegrableSystem(canonical_pi4(), [p4("p1"), p4("p2 + p1^2")])
    return [removable_scenario()[1], polynomial, rotation]


@pytest.mark.parametrize("index", range(3), ids=["plane", "p1-p2+p1^2", "rotation_momenta"])
def test_lift_matches_the_vector_field_reference(index):
    # the operator lift is the HKR image of the vector-field lift, None and zero included
    system = lift_systems()[index]
    rng = random.Random(90 + index)
    dim, size = system.dim, system.size
    outcomes = set()
    for trial in range(24):
        if trial % 8 == 0:
            Y = RelativeClass.zero(dim, size, 1)
        elif trial % 2:  # the generator values of a field: a lift exists at degree 2
            field = hkr_to_cochain(rand_vector_field(rng, dim, degree=1))
            values = {(j,): field.apply([g]) for j, g in enumerate(system.generators)}
            Y = RelativeClass(dim, size, 1, values)
        else:
            Y = RelativeClass(dim, size, 1, {(j,): rand_poly(rng, dim) for j in range(size)})
        for bound in (1, 2):
            got = lift_witness(system, Y, bound)
            field_ = reference_lift_witness(system, Y, bound)
            assert got == (None if field_ is None else hkr_to_cochain(field_))
            outcomes.add("none" if got is None else "zero" if got.is_zero() else "lift")
    assert outcomes == {"none", "zero", "lift"}


# -- gauge step --------------------------------------------------------------------


def test_gauge_step_removable_post_condition():
    star, system = removable_scenario()
    chi = cocycle_cascade_check(star, system, 2).obstruction
    step = gauge_step(star, system, 2, chi, exactness_solve(system, chi, 2).witness, BOUNDS)
    assert step.solved
    transformed = gauge_transform(star, step.diffeo)
    assert vanishes_on_generators(transformed.term(2), system)
    assert vanishes_on_generators(transformed.term(1), system)


def test_gauge_step_zero_witness_is_symmetric_cleanup():
    star, system = flat_scenario(order=2)
    chi = _raw_class(star, system, 2)
    step = gauge_step(star, system, 2, chi, RelativeClass.zero(3, 2, 1), BOUNDS)
    assert step.solved
    assert is_identity(step.diffeo)


def test_gauge_step_identity_on_momentum_subalgebra():
    star = moyal_star(canonical_pi4(), 3)
    system = IntegrableSystem(canonical_pi4(), [p4("p1"), p4("p2")])
    for n in (2, 3):
        chi = _raw_class(star, system, n)
        step = gauge_step(star, system, n, chi, RelativeClass.zero(4, 2, 1), BOUNDS)
        assert step.solved
        assert is_identity(step.diffeo)


def test_gauge_step_at_order_one_takes_only_a_zero_witness():
    D = FormalDiffeo.from_parts(2, 2, {1: PolyDiffOp.single(2, [(2, 0)], Fraction(-1, 2))})
    star = gauge_transform(trivial_star(2, 2), D)
    system = IntegrableSystem(canonical_pi2(), [p2("x")])
    chi = _raw_class(star, system, 1)
    step = gauge_step(star, system, 1, chi, RelativeClass.zero(2, 1, 1), BOUNDS)
    assert step.solved
    assert not vanishes_on_generators(star.term(1), system)
    assert vanishes_on_generators(step.transformed.term(1), system)
    nonzero = RelativeClass(2, 1, 1, {(0,): Polynomial.constant(2, 1)})
    for n, Y in ((1, nonzero), (0, RelativeClass.zero(2, 1, 1))):
        with pytest.raises(ValueError, match="start at order 1"):
            gauge_step(star, system, n, chi, Y, BOUNDS)


# -- elimination --------------------------------------------------------------------


def test_eliminate_flat():
    star, system = flat_scenario(order=4)
    report = eliminate_to_order(star, system, 4, BOUNDS)
    assert report.status == TRIVIALIZED
    assert is_identity(report.gauge)
    assert all(c.is_zero() for c in report.classes)


def test_eliminate_removable():
    star, system = removable_scenario()
    report = eliminate_to_order(star, system, 2, BOUNDS)
    assert report.status == TRIVIALIZED
    assert not is_identity(report.gauge)
    assert report.classes[1] == two_e12(3)
    # independent audit of the reported product
    for k in (1, 2):
        op = report.star.term(k)
        table = restricted_values(op, system)
        assert all(v.is_zero() for v in table.values())
    # the reported gauge reproduces the reported product
    assert gauge_transform(star, report.gauge) == report.star


def test_eliminate_reads_each_class_once_and_composes_in_term_maps(monkeypatch):
    # the shipped removable_class product behind id + h/3 d_y d_z: a zero-witness
    # step at order 1, then the lift of a nonzero witness staged at order 2
    problem = load_problem(str(PROBLEMS / "removable_class.json"))
    D = FormalDiffeo.from_parts(3, 2, {1: PolyDiffOp.single(3, [(0, 1, 1)], Fraction(1, 3))})
    star, system = gauge_transform(problem.star, D), problem.integrable
    reads, inside, made = [], [], []
    raw_class, add, zero = obstruction._raw_class, PolyDiffOp.__add__, PolyDiffOp.zero
    compose = obstruction.compose_diffeo

    def read(s, system, n):
        reads.append((s, n))
        return raw_class(s, system, n)

    def composing(D, E):
        inside.append(True)
        try:
            return compose(D, E)
        finally:
            inside.pop()

    def summed(a, b):
        if inside:
            made.append("sum")
        return add(a, b)

    def zeroed(cls, dim, arity):
        if inside:
            made.append("zero")
        return zero(dim, arity)

    monkeypatch.setattr(obstruction, "_raw_class", read)
    monkeypatch.setattr(obstruction, "compose_diffeo", composing)
    monkeypatch.setattr(PolyDiffOp, "__add__", summed)
    monkeypatch.setattr(PolyDiffOp, "zero", classmethod(zeroed))
    report = eliminate_to_order(star, system, 2, Bounds(2, 4))
    assert report.status == TRIVIALIZED
    first, second = report.records
    assert first.exactness is None and first.step.solved
    assert not second.exactness.witness.is_zero() and not second.step.diffeo.term(1).is_zero()
    assert [i for i, read in enumerate(reads) if read in reads[:i]] == []
    assert made == []


def test_eliminate_obstructed():
    star, system = obstructed_scenario()
    report = eliminate_to_order(star, system, 2, BOUNDS)
    assert report.status == OBSTRUCTED
    assert report.order_reached == 2
    assert report.classes[1] == two_e12(4)
    assert report.records[1].exactness.certificate == "zero_image"


def test_eliminate_undecided_when_bounds_exhausted():
    star, system = removable_scenario()
    report = eliminate_to_order(star, system, 2, Bounds(degree=0, op_order=2))
    assert report.status == UNDECIDED
    assert report.records[1].exactness.certificate == "rank_at_bound"


def test_eliminate_normalizes_first_order():
    # push a symmetric first-order term onto the subalgebra, then remove
    # it; the second-order cleanup needs fourth-order operators (the
    # inverse gauge squares the second derivative), hence the wide bound
    D = FormalDiffeo.from_parts(2, 2, {1: PolyDiffOp.single(2, [(2, 0)], Fraction(-1, 2))})
    star = gauge_transform(trivial_star(2, 2), D)
    system = IntegrableSystem(canonical_pi2(), [p2("x")])
    assert not vanishes_on_generators(star.term(1), system)
    report = eliminate_to_order(star, system, 2, Bounds(degree=2, op_order=4))
    assert report.status == TRIVIALIZED
    assert vanishes_on_generators(report.star.term(1), system)


def test_eliminate_rejects_invalid_system():
    star = moyal_star(canonical_pi2(), 2)
    system = IntegrableSystem(canonical_pi2(), [p2("x"), p2("p")])
    with pytest.raises(ValueError):
        eliminate_to_order(star, system, 2, BOUNDS)


def test_eliminate_requires_certificate():
    bad = StarProduct(
        3, 2, [PolyDiffOp.single(3, [(1, 0, 0), (1, 0, 0)]), PolyDiffOp.zero(3, 2)]
    )
    _, system = removable_scenario()
    with pytest.raises(ValueError):
        eliminate_to_order(bad, system, 2, BOUNDS)


def test_obstructed_is_monotone_in_bounds():
    star, system = obstructed_scenario()
    for bounds in (Bounds(1, 1), Bounds(2, 2), Bounds(3, 2)):
        report = eliminate_to_order(star, system, 2, bounds)
        assert report.status == OBSTRUCTED


# -- gauge covariance of the classes ---------------------------------------------------


def test_class_shift_is_exact_for_derivation_gauges():
    # a first-order derivation gauge shifts the order-2 class by the
    # horizontal differential of the generator values of the field
    rng = random.Random(41)
    star, system = removable_scenario()
    chi = cocycle_cascade_check(star, system, 2).obstruction
    for _ in range(10):
        field = Polyvector(
            3, 1, {(i,): rand_poly(rng, 3, degree=1) for i in range(3)}
        )
        D = FormalDiffeo.from_parts(3, 2, {1: hkr_to_cochain(field)})
        moved = gauge_transform(star, D)
        values = RelativeClass(
            3,
            2,
            1,
            {
                (j,): hkr_to_cochain(field).apply([g])
                for j, g in enumerate(system.generators)
            },
        )
        shifted = cocycle_cascade_check(moved, system, 2).obstruction
        assert shifted == chi + d_hor(system, values)


def test_commutative_star_stays_flat_under_admissible_gauges():
    rng = random.Random(42)
    star, system = flat_scenario(order=3)
    for _ in range(5):
        # every term carries a transverse derivative, so each D_k kills
        # the subalgebra and the commutator table must stay flat
        parts = {}
        for k in (1, 2):
            alpha = [rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1)]
            parts[k] = PolyDiffOp.single(3, [tuple(alpha)], rand_poly(rng, 3, 1, terms=1))
        D = FormalDiffeo.from_parts(3, 3, parts)
        moved = gauge_transform(star, D)
        gens = system.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                series = moved.commutator(gens[i], gens[j])
                assert all(c.is_zero() for c in series)


def test_eliminate_removes_third_order_class():
    # same removable geometry, planted one order higher: exercises the
    # higher-order branch where the witness rides at slot n-1 = 2
    extra = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)]) - PolyDiffOp.single(
        3, [(0, 0, 1), (0, 1, 0)]
    )
    pi = Polyvector.bivector(3, {(0, 1): 1})
    star = moyal_star(pi, 3).plus_term(3, extra)
    system = IntegrableSystem(pi, [p3("y"), p3("z")])
    assert star.certified_order() == 3
    chi = cocycle_cascade_check(star, system, 3).obstruction
    assert chi == two_e12(3)
    report = eliminate_to_order(star, system, 3, BOUNDS)
    assert report.status == TRIVIALIZED
    assert not is_identity(report.gauge)
    # the gauge rides at orders 2 and 3, never at order 1
    assert report.gauge.term(1).is_zero()
    for k in (1, 2, 3):
        op = report.star.term(k)
        table = restricted_values(op, system)
        assert all(v.is_zero() for v in table.values())


def test_lift_infeasible_within_degree_bound():
    pi = canonical_pi4()
    system = IntegrableSystem(pi, [p4("p1"), p4("p2 + p1^2")])
    # the second constraint forces a component of degree 6
    Y = RelativeClass(4, 2, 1, {(0,): p4("x1^5")})
    assert lift_witness(system, Y, 1) is None
    assert lift_witness(system, Y, 6) is not None


def test_first_order_commutator_obstruction_is_rigid():
    # an antisymmetric first-order term on generator pairs cannot be
    # gauged away: coboundaries of unary operators are symmetric there
    pi = Polyvector.bivector(3, {(0, 1): 1})
    extra = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)]) - PolyDiffOp.single(
        3, [(0, 0, 1), (0, 1, 0)]
    )
    star = moyal_star(pi, 1).plus_term(1, extra)
    assert star.certified_order() == 1
    system = IntegrableSystem(pi, [p3("y"), p3("z")])
    report = eliminate_to_order(star, system, 1, BOUNDS)
    assert report.status == OBSTRUCTED
    assert report.order_reached == 1
    assert report.classes[0] == two_e12(3)
    assert "gauge-invariant" in report.detail


def messy_gauge_scenario():
    """The flat product hidden behind a three-order diffeo: a derivation,
    a symmetric second-order term and a mixed term."""
    pi = Polyvector.bivector(3, {(0, 1): 1})
    star = moyal_star(pi, 3)
    system = IntegrableSystem(pi, [p3("y"), p3("z")])
    D = FormalDiffeo(
        3,
        3,
        [
            PolyDiffOp.single(3, [(0, 0, 1)], p3("x")),
            PolyDiffOp.single(3, [(0, 0, 2)], p3("z")),
            PolyDiffOp.single(3, [(0, 1, 1)]),
        ],
    )
    return gauge_transform(star, D), system


def test_eliminate_recovers_from_messy_gauge():
    # construct-and-recover: the loop must undo all of the hidden gauge
    # and pass the final audit
    dirty, system = messy_gauge_scenario()
    assert not vanishes_on_generators(dirty.term(2), system)
    assert not vanishes_on_generators(dirty.term(3), system)
    report = eliminate_to_order(dirty, system, 3, Bounds(degree=3, op_order=3))
    assert report.status == TRIVIALIZED
    # the planted derivation shifts the order-2 class by an exact term
    assert report.classes[1] == RelativeClass(
        3, 2, 2, {(0, 1): Polynomial.constant(3, -1)}
    )
    for k in (1, 2, 3):
        op = report.star.term(k)
        table = restricted_values(op, system)
        assert all(v.is_zero() for v in table.values())
    assert gauge_transform(dirty, report.gauge) == report.star


def test_eliminate_checks_each_flatness_table_once(monkeypatch):
    import starobs.obstruction as obstruction

    calls = []

    def counting(op, system):
        calls.append(op)
        return vanishes_on_generators(op, system)

    monkeypatch.setattr(obstruction, "vanishes_on_generators", counting)
    dirty, system = messy_gauge_scenario()
    report = eliminate_to_order(dirty, system, 3, Bounds(degree=3, op_order=3))
    assert report.status == TRIVIALIZED
    # order 1 once; orders 2 and 3 once by the loop and once by the gauge
    # post-check each; then the final audit of orders 1..3.  Re-running the
    # public preconditions would re-check the lower orders at every order.
    assert len(calls) == 1 + 2 * 2 + 3


# -- per-system tables ------------------------------------------------------------


def table_systems():
    """Every shipped system, and so(3)* with generators x^2 + y^2 + z^2 and z: the
    first non-constant bivector with generators here."""
    shipped = [load_problem(str(path)).integrable for path in sorted(PROBLEMS.glob("*.json"))]
    so3 = IntegrableSystem(so3_pi(), [p3("x^2 + y^2 + z^2"), p3("z")])
    return [system for system in shipped if system is not None] + [so3]


def test_d_hor_matches_the_sort_and_accumulate_loop():
    # random classes of degree 0-2, their keys in any order, on every table system
    rng = random.Random(4502)
    nonzero = 0
    for system in table_systems():
        for degree in range(min(2, system.size) + 1):
            for _ in range(8):
                keys = [tuple(rng.sample(range(system.size), degree)) for _ in range(3)]
                comps = {key: rand_poly(rng, system.dim) for key in keys}
                c = RelativeClass(system.dim, system.size, degree, comps)
                got, want = d_hor(system, c), reference_d_hor(system, c)
                assert got == want and repr(got) == repr(want)
                nonzero += not got.is_zero()
    assert nonzero >= 40


@pytest.mark.parametrize("index", range(6))
def test_jacobian_and_hamiltonian_tables_match_partial_and_poisson_bracket(index):
    # entry by entry, monomials in order, every integral value an int; H is
    # multivec._bracket, so it is checked against the replaced Polynomial bracket
    system = table_systems()[index]
    assert len(table_systems()) == 6
    for j, g in enumerate(system.generators):
        for k in range(system.dim):
            x_k = Polynomial.variable(system.dim, k)
            for got, want in [
                (system.jacobian[j][k], g.partial(k).terms),
                (system.hamiltonian[j][k], reference_poisson_bracket(system.pi, g, x_k).terms),
            ]:
                assert list(got.items()) == list(want.items())
                assert all(type(v) is int for v in got.values() if v == int(v))
    assert any(any(row) for row in system.hamiltonian) == (index != 0)  # casimir_obstruction


def test_so3_tables_are_not_constant():
    system = table_systems()[-1]
    # {x^2 + y^2 + z^2, .} = 0 and {z, x} = y, {z, y} = -x: H is linear, not constant
    assert system.hamiltonian[0] == [{}, {}, {}]
    assert system.hamiltonian[1] == [{(0, 1, 0): 1}, {(1, 0, 0): -1}, {}]
    assert system.jacobian[0] == [{(1, 0, 0): 2}, {(0, 1, 0): 2}, {(0, 0, 1): 2}]


def test_eliminate_builds_each_table_once_and_shifts_no_empty_row(monkeypatch):
    # the shipped problems, and two products that lift nonzero witnesses at
    # several orders: the gauged removable_class and the three-order messy gauge
    built, empty, variables, inside = [], [], [], []
    shifted, variable = _SparseSystem._add_shifted, Polynomial.variable.__func__
    exactness = obstruction.exactness_solve

    def counted(name, build):
        def counting(system):
            built.append((name, id(system)))
            return build(system)

        monkeypatch.setattr(obstruction, name, counting)

    def adding(eqs, group, base, shift, column, factor=1):
        if not base:
            empty.append(group)
        return shifted(eqs, group, base, shift, column, factor)

    def making(cls, dim, i):
        if inside:
            variables.append(i)
        return variable(cls, dim, i)

    def solving(*args):
        inside.append(True)
        try:
            return exactness(*args)
        finally:
            inside.pop()

    for name in ("_jacobian", "_hamiltonian", "_Weights"):
        counted(name, getattr(obstruction, name))
    monkeypatch.setattr(_SparseSystem, "_add_shifted", adding)
    monkeypatch.setattr(Polynomial, "variable", classmethod(making))
    monkeypatch.setattr(obstruction, "exactness_solve", solving)
    runs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        if problem.integrable is not None and problem.star is not None:
            runs.append((problem.star, problem.integrable, problem.star.order, problem.bounds))
    problem = load_problem(str(PROBLEMS / "removable_class.json"))
    D = FormalDiffeo.from_parts(3, 2, {1: PolyDiffOp.single(3, [(0, 1, 1)], Fraction(1, 3))})
    runs.append((gauge_transform(problem.star, D), problem.integrable, 2, Bounds(2, 4)))
    runs.append((*messy_gauge_scenario(), 3, Bounds(degree=3, op_order=3)))
    statuses = []
    for star, system, order, bounds in runs:
        statuses.append(eliminate_to_order(star, system, order, bounds).status)
    assert statuses.count(TRIVIALIZED) == 5 and OBSTRUCTED in statuses
    assert empty == [] and variables == []
    assert len(built) == len(set(built))  # each table at most once per system
    assert {name for name, _ in built} == {"_jacobian", "_hamiltonian", "_Weights"}


@pytest.mark.parametrize("scenario", ["removable", "obstructed", "flat", "messy"])
def test_the_staged_order_n_term_is_the_full_transforms(scenario):
    # gauge_step stages -V on the product truncated to order n: the order-n term
    # of that transform equals the full transform's, key for key and in order
    star, _ = {
        "removable": removable_scenario,
        "obstructed": obstructed_scenario,
        "flat": flat_scenario,
        "messy": messy_gauge_scenario,
    }[scenario]()
    rng = random.Random(len(scenario))
    dim = star.dim
    for n in range(2, star.order + 1):
        for trial in range(3):
            field = hkr_to_cochain(rand_vector_field(rng, dim, degree=1 + trial % 2))
            parts = {n - 1: field}
            if trial == 2:
                parts[n] = rand_op(rng, dim, 1)
            truncated = StarProduct(dim, n, star.corrections[:n])
            got = gauge_transform(truncated, FormalDiffeo.from_parts(dim, n, parts)).term(n)
            want = gauge_transform(star, FormalDiffeo.from_parts(dim, star.order, parts)).term(n)
            assert got == want
            assert list(got.terms) == list(want.terms)
            for key, c in got.terms.items():
                assert list(c.terms.items()) == list(want.terms[key].terms.items())
