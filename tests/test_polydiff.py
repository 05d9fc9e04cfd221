import random
from fractions import Fraction

import pytest
from helpers import (
    canonical_pi2,
    flat_scenario,
    hkr_to_cochain,
    op_from_polynomial,
    p2,
    rand_multi_index,
    rand_op,
    rand_poly,
    rand_vector_field,
    reference_apply,
    reference_compose_at,
    scaled,
    sign,
)
from oracles import cup, from_polynomial, gerst_bracket, gerst_circ

from starobs import (
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    gauge_transform,
    hochschild_d,
    moyal_star,
    parse_polynomial,
    restricted_values,
    schouten_bracket,
    vanishes_on_generators,
)
from starobs import polydiff
from starobs.polydiff import _numerators, _restricted_items, _TermMap

P1 = lambda t: parse_polynomial(t, ["x"])


def dxdp():
    return PolyDiffOp.single(2, [(1, 0), (0, 1)])


# -- application -------------------------------------------------------------------


def test_apply_tensor_derivatives():
    assert dxdp().apply([p2("x^2"), p2("p^3")]) == p2("6*x*p^2")


def test_apply_arity_zero():
    c = p2("x*p - 3")
    assert op_from_polynomial(c).apply([]) == c


def test_apply_polynomial_coefficient():
    op = PolyDiffOp.single(2, [(0, 1)], p2("x"))
    assert op.apply([p2("p^2")]) == p2("2*x*p")


def test_apply_arity_mismatch():
    with pytest.raises(ValueError):
        dxdp().apply([p2("x")])


def test_canonical_merge_and_prune():
    a = PolyDiffOp.single(2, [(1, 0)], p2("x"))
    b = PolyDiffOp.single(2, [(1, 0)], -p2("x"))
    assert (a + b).is_zero()
    assert a.order() == 1
    assert PolyDiffOp.single(2, [(2, 1), (0, 1)]).order() == 3


# -- hochschild differential ---------------------------------------------------------


def test_derivations_are_cocycles():
    assert hochschild_d(PolyDiffOp.single(2, [(1, 0)])).is_zero()


def test_second_derivative_coboundary():
    got = hochschild_d(PolyDiffOp.single(1, [(2,)]))
    assert got == PolyDiffOp.single(1, [(1,), (1,)], Fraction(-2))


def test_multiplication_is_closed():
    assert hochschild_d(PolyDiffOp.multiplication(2)).is_zero()


def test_d_squared_random():
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.choice([1, 2, 3, 4])
        op = rand_op(rng, dim, rng.randint(0, 2))
        assert hochschild_d(hochschild_d(op)).is_zero()


# -- cup product ----------------------------------------------------------------------


def test_cup_sign_on_derivations():
    out = cup(PolyDiffOp.single(2, [(1, 0)]), PolyDiffOp.single(2, [(0, 1)]))
    assert out.apply([p2("x"), p2("p")]) == Polynomial.constant(2, -1)


def test_cup_with_arity_zero():
    f = op_from_polynomial(p2("x"))
    psi = PolyDiffOp.single(2, [(0, 1)])
    out = cup(f, psi)
    assert out.apply([p2("p^2")]) == p2("2*x*p")


def test_cup_repeated_derivation():
    dp = PolyDiffOp.single(2, [(0, 1)])
    out = cup(dp, dp)
    assert out.apply([p2("p^2"), p2("p")]) == p2("-2*p")


# -- gerstenhaber circle and bracket ---------------------------------------------------


def test_insert_derivation_into_product():
    m = PolyDiffOp.multiplication(2)
    D = PolyDiffOp.single(2, [(1, 0)], p2("x"))
    out = gerst_circ(m, D)
    a, b = p2("x^2"), p2("p")
    assert out.apply([a, b]) == D.apply([a]) * b + a * D.apply([b])


def test_insert_product_into_derivation():
    m = PolyDiffOp.multiplication(2)
    D = PolyDiffOp.single(2, [(1, 0)], p2("x"))
    out = gerst_circ(D, m)
    a, b = p2("x^2"), p2("p")
    assert out.apply([a, b]) == D.apply([a * b])


def test_self_insertion_matches_residual_witness():
    b1 = PolyDiffOp.single(1, [(1,), (1,)])
    out = gerst_circ(b1, b1)
    assert out.apply([P1("x"), P1("x^2"), P1("x^3")]) == P1("-12*x^2")


def test_circ_rejects_arity_zero_outer():
    with pytest.raises(ValueError):
        gerst_circ(op_from_polynomial(p2("x")), dxdp())


def test_bracket_with_multiplication_measures_derivation_failure():
    m = PolyDiffOp.multiplication(2)
    assert gerst_bracket(m, PolyDiffOp.single(2, [(1, 0)])).is_zero()
    assert gerst_bracket(m, m).is_zero()


def test_bracket_reduces_to_lie_on_unary():
    lhs = gerst_bracket(
        PolyDiffOp.single(2, [(1, 0)]), PolyDiffOp.single(2, [(1, 0)], p2("x"))
    )
    assert lhs == PolyDiffOp.single(2, [(1, 0)])


def test_bracket_graded_antisymmetry_random():
    rng = random.Random(22)
    for _ in range(60):
        dim = rng.choice([1, 2])
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        phi, psi = rand_op(rng, dim, i, order=1), rand_op(rng, dim, j, order=1)
        back = scaled(gerst_bracket(psi, phi), sign((i - 1) * (j - 1)))
        assert (gerst_bracket(phi, psi) + back).is_zero()


def test_bracket_graded_jacobi_random():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.choice([1, 2])
        i, j, k = (rng.randint(1, 2) for _ in range(3))
        f, g, h = (
            rand_op(rng, dim, a, order=1, coeff_degree=1) for a in (i, j, k)
        )
        lhs = gerst_bracket(f, gerst_bracket(g, h))
        rhs = gerst_bracket(gerst_bracket(f, g), h) + scaled(
            gerst_bracket(g, gerst_bracket(f, h)), sign((i - 1) * (j - 1))
        )
        assert (lhs - rhs).is_zero()


def test_differential_is_bracket_with_multiplication():
    # d(phi) = -[phi, m] uniformly; via antisymmetry d = (-1)^(arity-1) [m, phi]
    rng = random.Random(24)
    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        arity = rng.randint(0, 2)
        phi = rand_op(rng, dim, arity)
        m = PolyDiffOp.multiplication(dim)
        d = hochschild_d(phi)
        assert (d + gerst_bracket(phi, m)).is_zero()
        assert (d - scaled(gerst_bracket(m, phi), sign(arity - 1))).is_zero()


# -- the antisymmetrization map ---------------------------------------------------------


@pytest.mark.parametrize("text", ["x*p + 3", "0", "2/3"])
def test_function_maps_to_multiplication_by_it(text):
    op = hkr_to_cochain(from_polynomial(p2(text)))
    want = op_from_polynomial(p2(text))
    assert op == want and list(op.terms) == list(want.terms)
    assert op.arity == 0 and op.apply([]) == p2(text)


def test_vector_field_maps_to_itself():
    X = Polyvector(2, 1, {(0,): p2("p"), (1,): p2("x^2")})
    op = hkr_to_cochain(X)
    f = p2("x*p^2")
    assert op.apply([f]) == p2("p") * f.partial(0) + p2("x^2") * f.partial(1)


def test_basis_bivector_normalization():
    op = hkr_to_cochain(canonical_pi2())
    assert op.apply([p2("x"), p2("p")]) == Polynomial.constant(2, Fraction(1, 2))


def test_bivector_on_quadratic():
    op = hkr_to_cochain(canonical_pi2())
    assert op.apply([p2("x^2"), p2("p")]) == p2("x")


def test_output_antisymmetric():
    rng = random.Random(25)
    for _ in range(20):
        P = Polyvector(3, 2, {(0, 1): rand_poly(rng, 3), (1, 2): rand_poly(rng, 3)})
        op = hkr_to_cochain(P)
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        assert op.apply([a, b]) == -op.apply([b, a])


def test_bracket_compatibility_on_vector_fields():
    rng = random.Random(26)
    for _ in range(50):
        dim = rng.choice([2, 3])
        X, Y = rand_vector_field(rng, dim), rand_vector_field(rng, dim)
        lhs = gerst_bracket(hkr_to_cochain(X), hkr_to_cochain(Y))
        rhs = hkr_to_cochain(schouten_bracket(X, Y))
        assert (lhs - rhs).is_zero()


def test_derivation_closedness_matches_cocycle_condition():
    rng = random.Random(27)
    for _ in range(20):
        X = rand_vector_field(rng, 2)
        assert hochschild_d(hkr_to_cochain(X)).is_zero()


# -- restriction tables -------------------------------------------------------------------


def momentum_line() -> IntegrableSystem:
    return IntegrableSystem(canonical_pi2(), [p2("p")])


def test_moyal_first_correction_vanishes_on_momenta():
    star = moyal_star(canonical_pi2(), 2)
    table = restricted_values(star.term(1), momentum_line())
    assert all(v.is_zero() for v in table.values())
    assert vanishes_on_generators(star.term(1), momentum_line())


def test_restricted_value_entries():
    op = PolyDiffOp.single(2, [(0, 1), (0, 1)])
    table = dict(_restricted_items(op, momentum_line(), 2))
    assert table[((1,), (2,))] == p2("2*p")
    m = PolyDiffOp.multiplication(2)
    table_m = dict(_restricted_items(m, momentum_line(), 1))
    assert table_m[((1,), (1,))] == p2("p^2")


def test_vanishing_table_predicts_higher_degrees():
    # zero table at generator degree <= order implies vanishing on any
    # polynomials in the generators: spot-check at higher degree
    rng = random.Random(28)
    star, system = flat_scenario(order=2)
    op = star.term(2)
    assert vanishes_on_generators(op, system)
    gens = list(system.generators)
    for _ in range(10):
        def rand_element():
            acc = Polynomial.zero(3)
            for _ in range(3):
                term = Polynomial.constant(3, Fraction(rng.randint(-3, 3)))
                for g in gens:
                    term = term * g ** rng.randint(0, op.order() + 3)
                acc = acc + term
            return acc

        assert op.apply([rand_element(), rand_element()]).is_zero()


def test_differential_of_scalar_cochain_vanishes():
    out = hochschild_d(op_from_polynomial(p2("x*p")))
    assert out.arity == 1 and out.is_zero()


def test_restricted_values_arity_zero():
    op = op_from_polynomial(p2("x"))
    table = restricted_values(op, momentum_line())
    assert table == {(): p2("x")}


def test_insertion_matches_value_level_oracle():
    # canonical-form composition against direct evaluation: insert psi's
    # value into phi's arguments slot by slot, no operator algebra
    rng = random.Random(29)
    for _ in range(30):
        dim = rng.choice([1, 2])
        i = rng.randint(1, 2)
        j = rng.randint(1, 2)
        phi, psi = rand_op(rng, dim, i, order=2), rand_op(rng, dim, j, order=2)
        args = [rand_poly(rng, dim, degree=3) for _ in range(i + j - 1)]
        direct = Polynomial.zero(dim)
        for l in range(i):
            inner = psi.apply(args[l : l + j])
            outer_args = args[:l] + [inner] + args[l + j :]
            piece = phi.apply(outer_args)
            if (l * (j - 1)) % 2:
                piece = -piece
            direct = direct + piece
        assert gerst_circ(phi, psi).apply(args) == direct


def rand_poly_op(rng, dim, arity, order=2, terms=3):
    """Random operator whose coefficients are polynomials of several terms."""
    return PolyDiffOp(
        dim,
        arity,
        {
            tuple(rand_multi_index(rng, dim, order) for _ in range(arity)): rand_poly(
                rng, dim, degree=3, terms=3
            )
            for _ in range(terms)
        },
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("outer_arity", [1, 2, 3])
@pytest.mark.parametrize("inner_arity", [0, 1, 2, 3])
def test_compose_at_matches_pairwise_leibniz_reference(dim, outer_arity, inner_arity):
    # term order is compared too: it is what keeps the rendered reports byte-identical
    rng = random.Random(1000 * dim + 10 * outer_arity + inner_arity)
    for _ in range(3):
        outer = rand_poly_op(rng, dim, outer_arity, order=3)
        inner = rand_poly_op(rng, dim, inner_arity)
        for slot in range(outer_arity):
            got = outer.compose_at(slot, inner)
            want = reference_compose_at(outer, slot, inner)
            assert (got.dim, got.arity) == (want.dim, want.arity)
            assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inserting_the_identity_returns_the_outer_operator(dim):
    # the Leibniz path would rebuild the same terms in the same order
    rng = random.Random(1100 + dim)
    identity = PolyDiffOp.identity(dim)
    for arity in (1, 2, 3):
        outer = rand_poly_op(rng, dim, arity, order=3)
        for slot in range(arity):
            assert outer.compose_at(slot, identity) is outer
            want = reference_compose_at(outer, slot, identity)
            assert list(outer.terms.items()) == list(want.terms.items())
    # a scaled identity or a second term is no identity
    dx = PolyDiffOp.single(dim, [(1,) + (0,) * (dim - 1)])
    for inner in (scaled(identity, 2), identity + dx):
        outer = rand_poly_op(rng, dim, 2, order=2)
        assert outer.compose_at(0, inner) == reference_compose_at(outer, 0, inner)


# -- the numerator store ----------------------------------------------------------


def test_an_unreduced_term_map_gives_the_canonical_operator():
    # numerators over 12, all even, and a cancelled key: the operator is the one
    # built from the Polynomials, over 6, with its hash and its numerators
    dx, dp, z = (1, 0), (0, 1), (0, 0)
    terms = _TermMap({(dx, z): {z: 6, (1, 1): -4}, (z, dp): {}, (z, z): {(2, 0): 8}})
    terms.den = 12
    got = PolyDiffOp._from_term_map(2, 2, terms)
    want = PolyDiffOp(
        2,
        2,
        {
            (dx, z): Polynomial(2, {z: Fraction(1, 2), (1, 1): Fraction(-1, 3)}),
            (z, z): Polynomial(2, {(2, 0): Fraction(2, 3)}),
        },
    )
    assert got == want and hash(got) == hash(want)
    stored = (6, {(dx, z): {z: 3, (1, 1): -2}, (z, z): {(2, 0): 4}})
    assert _numerators(got) == _numerators(want) == stored
    assert list(got.terms.items()) == list(want.terms.items())
    # numerators that the denominator divides leave integer coefficients over 1
    terms = _TermMap({(dx, dp): {z: 4, (0, 2): -8}})
    terms.den = 4
    integral = PolyDiffOp._from_term_map(2, 2, terms)
    assert _numerators(integral) == (1, {(dx, dp): {z: 1, (0, 2): -2}})


def test_no_kernel_renumerates_an_operator():
    # the operators that kernels hand each other keep their numerators: every read
    # returns the one stored pair
    s = moyal_star(canonical_pi2(), 2)
    D = FormalDiffeo(
        2,
        2,
        [
            PolyDiffOp.single(2, [(1, 0)], p2("x*p") * Fraction(1, 3)),
            PolyDiffOp.single(2, [(0, 2)], Fraction(1, 7)),
        ],
    )
    gauged = gauge_transform(s, D)
    bent = s.plus_term(2, PolyDiffOp.single(2, [(1, 0), (0, 0)], p2("x") * Fraction(1, 2)))
    ops = [
        s.term(2).compose_at(1, D.term(1)),
        hochschild_d(D.term(2)),
        gauged.term(1),
        gauged.term(2),
        bent.assoc_residual(2),
    ]
    for op in ops:
        assert not op.is_zero()
        assert _numerators(op) is _numerators(op)


def test_apply_differentiates_each_argument_scaled_to_integers(monkeypatch):
    # each argument's dict enters the walk times the lcm of its denominators, through
    # polydiff._partial, and the value is divided once by 6 * 4 * the operator's
    # denominator
    op = PolyDiffOp(2, 2, {((1, 0), (0, 1)): p2("1/3*x"), ((0, 0), (0, 0)): p2("1/2")})
    args = [p2("1/2*x^2 + 1/3*p"), p2("3/4*p^2 - x")]
    seen = []
    partial = polydiff._partial

    def recording(t, alpha):
        seen.append(Polynomial(2, t))
        return partial(t, alpha)

    monkeypatch.setattr(polydiff, "_partial", recording)
    value = op.apply(args)
    assert set(seen) == {args[0] * 6, args[1] * 4}
    assert all(type(c) is int for p in seen for c in p.terms.values())
    want = reference_apply(op, args)
    assert list(value.terms.items()) == list(want.terms.items())
    assert [type(c) for c in value.terms.values()] == [type(c) for c in want.terms.values()]
