import random
from fractions import Fraction

import pytest
from helpers import (
    canonical_pi2,
    canonical_pi4,
    coordinate_field,
    non_poisson_pi,
    obstructed_scenario,
    p2,
    p3,
    p4,
    plane_pi3,
    pv_add,
    pv_equal,
    rand_poly,
    rand_polyvector,
    reference_schouten_bracket,
    removable_scenario,
    scaled,
    sign,
    so3_pi,
)
from oracles import d_pi, from_polynomial, hamiltonian_field, wedge

from starobs import (
    IntegrableSystem,
    Polynomial,
    Polyvector,
    RelativeClass,
    d_hor,
    jacobi_check,
    poisson_bracket,
    schouten_bracket,
)


def dx(i=0):
    return coordinate_field(2, i)


# -- wedge ----------------------------------------------------------------------


def test_wedge_self_vanishes():
    assert wedge(dx(), dx()).is_zero()


def test_wedge_basis_element():
    assert wedge(dx(0), dx(1)) == canonical_pi2()


def test_wedge_function_linear():
    xdx = Polyvector(2, 1, {(0,): p2("x")})
    assert wedge(xdx, dx(1)) == Polyvector(2, 2, {(0, 1): p2("x")})


def test_wedge_graded_commutative():
    rng = random.Random(3)
    for _ in range(40):
        pdeg, qdeg = rng.randint(0, 2), rng.randint(0, 2)
        P = rand_polyvector(rng, 3, pdeg)
        Q = rand_polyvector(rng, 3, qdeg)
        assert wedge(P, Q) == scaled(wedge(Q, P), sign(pdeg * qdeg))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(dx(), coordinate_field(3, 0))


# -- poisson bracket --------------------------------------------------------------


def test_canonical_normalization():
    assert poisson_bracket(canonical_pi2(), p2("x"), p2("p")) == Polynomial.one(2)


def test_hamiltonian_flow_example():
    H = p2("x^2 + p^2") * Fraction(1, 2)
    assert poisson_bracket(canonical_pi2(), H, p2("x")) == p2("-p")


def test_bracket_direct_expansion():
    assert poisson_bracket(canonical_pi2(), p2("x^2*p"), p2("p^2")) == p2("4*x*p^2")


def test_bracket_antisymmetry_random():
    rng = random.Random(4)
    pi = canonical_pi4()
    for _ in range(40):
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        assert (
            poisson_bracket(pi, f, g) + poisson_bracket(pi, g, f)
        ).is_zero()


def test_bracket_leibniz_random():
    rng = random.Random(5)
    pi = canonical_pi2()
    for _ in range(40):
        f, g, h = (rand_poly(rng, 2) for _ in range(3))
        assert poisson_bracket(pi, f, g * h) == poisson_bracket(pi, f, g) * h + g * poisson_bracket(pi, f, h)


def test_bracket_requires_degree_two():
    with pytest.raises(ValueError):
        poisson_bracket(dx(), p2("x"), p2("p"))


# -- schouten bracket --------------------------------------------------------------


def test_derivation_on_functions():
    out = schouten_bracket(dx(), from_polynomial(p2("x^2")))
    assert out == from_polynomial(p2("2*x"))


def test_bivector_contracts_differential():
    out = schouten_bracket(canonical_pi2(), from_polynomial(p2("x")))
    assert out == dx(1)


def test_leibniz_expansion_example():
    xdx = Polyvector(2, 1, {(0,): p2("x")})
    assert schouten_bracket(canonical_pi2(), xdx) == canonical_pi2()


def test_schouten_reduces_to_lie_bracket():
    rng = random.Random(6)
    for _ in range(30):
        X = rand_polyvector(rng, 3, 1)
        Y = rand_polyvector(rng, 3, 1)
        lie = schouten_bracket(X, Y)
        for f in (p3("x*y"), p3("z^2"), p3("x + 2*y*z")):
            xy = poisson_like(X, poisson_like(Y, f)) - poisson_like(Y, poisson_like(X, f))
            assert poisson_like(lie, f) == xy


def poisson_like(X: Polyvector, f: Polynomial) -> Polynomial:
    total = Polynomial.zero(X.dim)
    for (i,), c in X.components.items():
        total = total + c * f.partial(i)
    return total


def test_schouten_graded_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(80):
        dim = rng.choice([2, 3])
        pdeg, qdeg = rng.randint(0, 3), rng.randint(0, 3)
        P = rand_polyvector(rng, dim, pdeg)
        Q = rand_polyvector(rng, dim, qdeg)
        rhs = scaled(schouten_bracket(Q, P), -sign((pdeg - 1) * (qdeg - 1)))
        assert pv_equal(schouten_bracket(P, Q), rhs)


def test_schouten_graded_jacobi_random():
    rng = random.Random(8)
    for _ in range(80):
        dim = rng.choice([2, 3])
        pdeg, qdeg, rdeg = (rng.randint(0, 2) for _ in range(3))
        P = rand_polyvector(rng, dim, pdeg)
        Q = rand_polyvector(rng, dim, qdeg)
        R = rand_polyvector(rng, dim, rdeg)
        lhs = schouten_bracket(P, schouten_bracket(Q, R))
        rhs = pv_add(
            schouten_bracket(schouten_bracket(P, Q), R),
            scaled(schouten_bracket(Q, schouten_bracket(P, R)), sign((pdeg - 1) * (qdeg - 1))),
        )
        assert pv_equal(lhs, rhs)


def test_schouten_leibniz_over_wedge_random():
    rng = random.Random(9)
    for _ in range(60):
        pdeg = rng.randint(1, 2)
        qdeg, rdeg = rng.randint(0, 2), rng.randint(0, 2)
        P = rand_polyvector(rng, 3, pdeg)
        Q = rand_polyvector(rng, 3, qdeg)
        R = rand_polyvector(rng, 3, rdeg)
        lhs = schouten_bracket(P, wedge(Q, R))
        rhs = pv_add(
            scaled(wedge(schouten_bracket(P, Q), R), sign((pdeg - 1) * rdeg)),
            wedge(Q, schouten_bracket(P, R)),
        )
        assert pv_equal(lhs, rhs)


def test_schouten_matches_factor_wise_reference():
    rng = random.Random(10)
    for _ in range(300):
        dim = rng.randint(1, 4)
        P = rand_polyvector(rng, dim, rng.randint(0, 3))
        Q = rand_polyvector(rng, dim, rng.randint(0, 3))
        assert schouten_bracket(P, Q) == reference_schouten_bracket(P, Q)


# -- jacobi_check -------------------------------------------------------------------


def test_jacobi_canonical_plane():
    ok, witness = jacobi_check(canonical_pi2())
    assert ok and witness.is_zero()


def test_jacobi_rotation_algebra():
    ok, witness = jacobi_check(so3_pi())
    assert ok and witness.is_zero()


def test_jacobi_failure_with_witness():
    ok, witness = jacobi_check(non_poisson_pi())
    assert not ok
    w = witness.component((0, 1, 2))
    assert not w.is_zero()
    # the jacobiator is a constant multiple of the z coordinate
    assert w.terms.keys() == {(0, 0, 1)}


def test_jacobi_requires_bivector():
    with pytest.raises(ValueError):
        jacobi_check(dx())


# -- poisson differential ------------------------------------------------------------


def test_d_pi_on_coordinate():
    out = d_pi(canonical_pi2(), from_polynomial(p2("x")))
    assert out == dx(1)


def test_d_pi_squared_on_function():
    step = d_pi(canonical_pi2(), from_polynomial(p2("x^3")))
    assert d_pi(canonical_pi2(), step).is_zero()


def test_d_pi_on_vector_field():
    xdx = Polyvector(2, 1, {(0,): p2("x")})
    assert d_pi(canonical_pi2(), xdx) == canonical_pi2()


def test_d_pi_rejects_non_poisson():
    with pytest.raises(ValueError):
        d_pi(non_poisson_pi(), from_polynomial(p3("x")))


def test_d_pi_squared_random_corpus():
    rng = random.Random(10)
    for pi, dim in ((canonical_pi2(), 2), (so3_pi(), 3), (plane_pi3(), 3)):
        for _ in range(25):
            T = rand_polyvector(rng, dim, rng.randint(0, 2))
            assert d_pi(pi, d_pi(pi, T)).is_zero()


# -- relative classes -----------------------------------------------------------------


def canonical_r4_system() -> IntegrableSystem:
    return IntegrableSystem(canonical_pi4(), [p4("p1"), p4("p2")])


def test_relative_class_canonicalization():
    c = RelativeClass(4, 2, 2, {(1, 0): p4("x1")})
    assert c.component((0, 1)) == -p4("x1")
    assert c.component((1, 0)) == p4("x1")
    assert RelativeClass(4, 2, 2, {(0, 0): p4("x1")}).is_zero()


def test_d_hor_on_coordinate_function():
    system = canonical_r4_system()
    c = RelativeClass(4, 2, 0, {(): p4("x1")})
    out = d_hor(system, c)
    assert out == RelativeClass(4, 2, 1, {(0,): Polynomial.constant(4, -1)})


def test_d_hor_kills_constants():
    system = canonical_r4_system()
    c = RelativeClass(4, 2, 2, {(0, 1): Polynomial.constant(4, 2)})
    assert d_hor(system, c).is_zero()


def test_d_hor_vanishes_for_casimir_generators():
    rng = random.Random(11)
    _, system = obstructed_scenario()
    for _ in range(10):
        comps = {(j,): rand_poly(rng, 4) for j in range(2)}
        c = RelativeClass(4, 2, 1, comps)
        assert d_hor(system, c).is_zero()


def test_d_hor_squared_random():
    rng = random.Random(12)
    systems = [
        canonical_r4_system(),
        removable_scenario()[1],
        obstructed_scenario()[1],
    ]
    for system in systems:
        for _ in range(20):
            degree = rng.randint(0, 1)
            if degree == 0:
                comps = {(): rand_poly(rng, system.dim)}
            else:
                comps = {(j,): rand_poly(rng, system.dim) for j in range(system.size)}
            c = RelativeClass(system.dim, system.size, degree, comps)
            assert d_hor(system, d_hor(system, c)).is_zero()


def test_d_hor_size_mismatch():
    system = canonical_r4_system()
    with pytest.raises(ValueError):
        d_hor(system, RelativeClass(4, 3, 1, {}))


def test_wedge_above_top_degree_is_zero():
    top = Polyvector(2, 2, {(0, 1): Polynomial.one(2)})
    assert wedge(top, dx()).is_zero()
    assert wedge(top, top).is_zero()


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda degree, comps: Polyvector(3, degree, comps), RelativeClass),
        (lambda degree, comps: RelativeClass(3, 3, degree, comps), Polyvector),
    ],
    ids=["Polyvector", "RelativeClass"],
)
def test_alternating_class_core(make, other):
    # both classes live over the indices 0..2 of R^3 here
    x, y = p3("x"), p3("y")
    a = make(2, {(1, 0): x, (2, 2): y})
    assert a.components == {(0, 1): -x}
    assert a.component((1, 0)) == x
    assert a.component((1, 1)).is_zero()
    b = make(2, {(0, 1): y, (1, 2): x})
    assert (a + b).components == {(0, 1): y - x, (1, 2): x}
    assert a - b == a + (-b) == make(2, {(0, 1): -x - y, (1, 2): -x})
    assert (a - a).is_zero()
    assert (-a).components == {(0, 1): x}
    assert scaled(a, y) == make(2, {(1, 0): x * y})
    assert scaled(a, 0).is_zero()
    assert hash(a) == hash(make(2, {(0, 1): -x}))
    with pytest.raises(IndexError):
        make(2, {(0, 3): x})
    with pytest.raises(ValueError):
        make(2, {(0,): x})
    # above the top degree every tuple repeats an index, and a short one is still wrong
    assert make(4, {(0, 1, 2, 0): x}).is_zero()
    with pytest.raises(ValueError):
        make(4, {(0,): x})
    same = other(3, 2, {(0, 1): -x}) if other is Polyvector else other(3, 3, 2, {(0, 1): -x})
    assert a != same and same != a


def test_polyvector_component_lookup_antisymmetric():
    pi = canonical_pi2()
    assert pi.component((1, 0)) == Polynomial.constant(2, -1)
    assert pi.component((0, 0)).is_zero()


def test_hamiltonian_field_matches_bracket():
    from helpers import rand_poly as _rand

    rng = random.Random(77)
    pi = canonical_pi2()
    for _ in range(20):
        f, g = _rand(rng, 2), _rand(rng, 2)
        field = hamiltonian_field(pi, f)
        applied = sum(
            (c * g.partial(i) for (i,), c in field.components.items()),
            Polynomial.zero(2),
        )
        assert applied == poisson_bracket(pi, f, g)
