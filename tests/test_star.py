import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import (
    associator,
    canonical_pi2,
    canonical_pi4,
    hkr_to_cochain,
    invert_diffeo,
    is_identity,
    p2,
    p3,
    p4,
    plane_pi3,
    rand_multi_index,
    rand_op,
    rand_poly,
    reference_associator,
    reference_compose_into,
    reference_differential_into,
    reference_from_term_map,
    reference_gauge_transform,
    reference_hochschild_d,
    reference_moyal_star,
    reference_ordered_moyal_star,
    reference_trivector,
    so3_pi,
    trivial_star,
)

from starobs import (
    FormalDiffeo,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    StarProduct,
    compose_diffeo,
    extend_one_order,
    gauge_transform,
    hochschild_d,
    jacobi_check,
    moyal_star,
    linsolve,
    parse_polynomial,
    poisson_bracket,
)
from starobs import polydiff as polydiff_module
from starobs import star as star_module
from starobs.poly import _divided, exponents_upto, unit_exponents, zero_exponents
from starobs.polydiff import _differential_into, _leibniz, _numerators, _split_over, _TermMap

P1 = lambda t: parse_polynomial(t, ["x"])


def h_energy():
    return p2("x^2 + p^2") * Fraction(1, 2)


# -- the constant-coefficient product ---------------------------------------------


def test_first_order_asymmetry():
    star = moyal_star(canonical_pi2(), 2)
    assert star.eval(p2("x"), p2("p"))[:2] == (p2("x*p"), Polynomial.constant(2, Fraction(1, 2)))
    assert star.eval(p2("p"), p2("x"))[:2] == (p2("x*p"), Polynomial.constant(2, Fraction(-1, 2)))


def test_energy_square():
    star = moyal_star(canonical_pi2(), 2)
    H = h_energy()
    series = star.eval(H, H)
    assert series[0] == H * H
    assert series[1].is_zero()
    assert series[2] == Polynomial.constant(2, Fraction(1, 4))


def test_unit_is_transparent():
    star = moyal_star(canonical_pi2(), 4)
    f = p2("x^2*p - 3*x")
    series = star.eval(f, Polynomial.constant(2, 1))
    assert series[0] == f
    assert all(series[k].is_zero() for k in range(1, 5))


def test_requires_constant_bivector():
    with pytest.raises(ValueError):
        moyal_star(so3_pi(), 2)


@pytest.mark.parametrize(
    "pi, order",
    [
        (plane_pi3(), 8),
        (plane_pi3(), 12),
        (canonical_pi4(), 4),
        (canonical_pi4(), 6),
        (Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1, (0, 1): 1}), 4),
        (Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1, (0, 1): 1}), 6),
        (Polyvector.bivector(3, {(0, 1): Fraction(3, 2), (1, 2): Fraction(-2, 5)}), 5),
    ],
    ids=["R3-8", "R3-12", "R4-two-4", "R4-two-6", "R4-three-4", "R4-three-6", "R3-rational-5"],
)
def test_moyal_matches_ordered_tuple_reference(pi, order):
    built, reference = moyal_star(pi, order), reference_ordered_moyal_star(pi, order)
    for ours, theirs in zip(built.corrections, reference.corrections):
        assert list(ours.terms.items()) == list(theirs.terms.items())
        for c, d in zip(ours.terms.values(), theirs.terms.values()):
            assert [type(v) for v in c.terms.values()] == [type(v) for v in d.terms.values()]


# R^4 entries with pi^13 pi^24 = -pi^14 pi^23, whose d_1 d_2 (x) d_3 d_4 terms cancel at order 2
CANCELLING = {(0, 2): 1, (1, 3): 1, (0, 3): 1, (1, 2): -1}


@pytest.mark.parametrize(
    "pi",
    [
        canonical_pi2(),
        Polyvector.bivector(2, {(0, 1): Fraction(-3, 4)}),
        plane_pi3(),
        Polyvector.bivector(3, {(0, 1): Fraction(3, 2), (1, 2): Fraction(-2, 5), (0, 2): 7}),
        canonical_pi4(),
        Polyvector.bivector(4, CANCELLING),
        Polyvector.bivector(4, {k: Fraction(v, 6) for k, v in CANCELLING.items()}),
        Polyvector.bivector(4, {(0, 2): Fraction(1, 3), (1, 3): 2, (0, 1): Fraction(-5, 2)}),
    ],
    ids=["R2-int", "R2-rational", "R3-int", "R3-rational", "R4-int", "R4-cancelling",
         "R4-cancelling-rational", "R4-rational"],
)
def test_moyal_stores_match_the_fraction_builder(pi):
    # the numerator stores built directly equal those PolyDiffOp's constructor made
    # from the Fraction coefficients, key order included, and so do the certificates
    for order in range(1, 5):
        built, reference = moyal_star(pi, order), reference_moyal_star(pi, order)
        for ours, theirs in zip(built.corrections, reference.corrections, strict=True):
            assert _numerators(ours) == _numerators(theirs)
            assert list(_numerators(ours)[1]) == list(_numerators(theirs)[1])
    assert built.certified_order() == reference.certified_order() == 4


def test_moyal_drops_the_keys_whose_weights_cancel():
    # at order 2 the two multisets that reach d_1 d_2 (x) d_3 d_4 cancel, so the key
    # is absent, as it was from the Fraction builder
    key = ((1, 1, 0, 0), (0, 0, 1, 1))
    for pi in (CANCELLING, {(0, 2): 1, (1, 3): 1, (0, 3): 1, (1, 2): 1}):
        B2 = moyal_star(Polyvector.bivector(4, pi), 2).term(2)
        assert (key in _numerators(B2)[1]) == (pi[1, 2] == 1)


def test_moyal_visits_each_multiset_of_entries_once(monkeypatch):
    # m entries give 2m signed ones; order k visits C(2m+k-1, k) multisets, not (2m)^k tuples
    visits = []
    accumulate = star_module._accumulate

    def counting(terms, key, value):
        visits.append(key)
        accumulate(terms, key, value)

    monkeypatch.setattr(star_module, "_accumulate", counting)
    moyal_star(plane_pi3(), 10)
    assert len(visits) == sum(math.comb(2 + k - 1, k) for k in range(1, 11))


def test_associative_to_full_order():
    assert moyal_star(canonical_pi2(), 4).certified_order() == 4
    assert moyal_star(canonical_pi4(), 4).certified_order() == 4


def test_momentum_subalgebra_is_transparent():
    star = moyal_star(canonical_pi4(), 3)
    series = star.eval(p4("p1^2"), p4("p2^3"))
    assert series[0] == p4("p1^2*p2^3")
    assert all(series[k].is_zero() for k in range(1, 4))


def test_trivial_star_multiplies():
    star = trivial_star(2, 3)
    f, g = p2("x*p"), p2("x - p^2")
    series = star.eval(f, g)
    assert series[0] == f * g
    assert all(series[k].is_zero() for k in range(1, 4))


# -- associativity residuals --------------------------------------------------------


def bad_star():
    return StarProduct(1, 2, [PolyDiffOp.single(1, [(1,), (1,)]), PolyDiffOp.zero(1, 2)])


def test_residuals_of_bad_star():
    star = bad_star()
    assert star.assoc_residual(1).is_zero()
    r2 = star.assoc_residual(2)
    assert r2.apply([P1("x"), P1("x^2"), P1("x^3")]) == P1("-12*x^2")
    assert star.certified_order() == 1


def test_trivial_star_residuals_vanish():
    star = trivial_star(3, 3)
    assert all(star.assoc_residual(n).is_zero() for n in range(4))


def test_residual_order_range():
    with pytest.raises(IndexError):
        bad_star().assoc_residual(3)


def random_product(seed, dim, order):
    """Random bidifferential corrections; the associators at orders >= 1 are nonzero."""
    rng = random.Random(seed)
    ops = [rand_op(rng, dim, 2, order=2, coeff_degree=2, terms=3) for _ in range(order)]
    return StarProduct(dim, order, ops)


REFERENCE_PRODUCTS = [
    pytest.param(random_product(11, 1, 3), id="random-r1-o3"),
    pytest.param(random_product(12, 2, 3), id="random-r2-o3"),
    pytest.param(random_product(13, 3, 2), id="random-r3-o2"),
    pytest.param(moyal_star(canonical_pi2(), 3), id="moyal-r2-o3"),
    pytest.param(
        moyal_star(Polyvector.bivector(3, {(0, 1): 1, (0, 2): Fraction(-1, 2), (1, 2): 3}), 2),
        id="moyal-r3-o2",
    ),
    pytest.param(moyal_star(canonical_pi4(), 2), id="moyal-r4-o2"),
    # stores from PolyDiffOp's constructor, not from a term map, so a fault in how
    # _from_term_map divides cannot reach the operands' denominators
    pytest.param(
        reference_moyal_star(
            Polyvector.bivector(3, {(0, 1): 1, (0, 2): Fraction(-1, 2), (1, 2): 3}), 2
        ),
        id="fraction-moyal-r3-o2",
    ),
]


@pytest.mark.parametrize("star", REFERENCE_PRODUCTS)
def test_associator_matches_compose_then_merge_reference(star):
    # every order n and every subset ks of 0..n, the empty one included
    for n in range(star.order + 1):
        for size in range(n + 2):
            for ks in itertools.combinations(range(n + 1), size):
                assert associator(star, n, ks) == reference_associator(star, n, ks)


@pytest.mark.parametrize("star", REFERENCE_PRODUCTS)
def test_residual_matches_compose_then_merge_reference(star):
    # the residual adds -dB_n in place of the four insertions of m
    for n in range(star.order + 1):
        assert star.assoc_residual(n) == reference_associator(star, n, range(n + 1))


def memo_results(star):
    """The terms of every kernel that splits d^alpha, on one product: each
    B_i o_slot B_j, each dB_k, each residual and, for an associative product,
    the next-order extension."""
    n = star.order
    ops = [
        star.term(i).compose_at(slot, star.term(j))
        for i, j in itertools.product(range(n + 1), repeat=2)
        for slot in (0, 1)
    ]
    ops += [hochschild_d(star.term(k)) for k in range(n + 1)]
    ops += [star.assoc_residual(k) for k in range(n + 1)]
    if star.certified_order() == n:
        result = extend_one_order(star)
        assert result.solved
        ops.append(result.particular)
    return [[(key, list(c.terms.items())) for key, c in op.terms.items()] for op in ops]


def clear_leibniz_memos():
    _leibniz.cache_clear()
    _split_over.cache_clear()


def test_cold_and_warm_leibniz_memos_give_the_same_terms():
    # the splittings are memoized for the whole process, so no result may
    # depend on which multi-indices were split before it, or in what order
    products = [param.values[0] for param in REFERENCE_PRODUCTS]
    cold = []
    for star in products:
        clear_leibniz_memos()
        cold.append(memo_results(star))
    clear_leibniz_memos()
    for star in products[::-1]:
        for alpha in exponents_upto(star.dim, 6)[::-1]:
            for parts in (3, 2, 1, 0):
                assert type(_split_over(alpha, parts)) is tuple
            assert type(_leibniz(alpha)) is tuple
    warm = [memo_results(star) for star in products[::-1]][::-1]
    assert cold == warm


# -- integer term maps against the exact-coefficient kernels they replaced ------------


def assert_ints_where_integral(op: PolyDiffOp):
    for c in op.terms.values():
        for v in c.terms.values():
            assert type(v) is int or type(v) is Fraction and v.denominator > 1, v


def assert_same_terms(got: PolyDiffOp, want: PolyDiffOp):
    """Keys and monomials in the same order, equal values, and every value an
    int exactly where it is integral."""
    assert (got.dim, got.arity) == (want.dim, want.arity)
    assert list(got.terms) == list(want.terms)
    for key, c in got.terms.items():
        assert list(c.terms.items()) == list(want.terms[key].terms.items())
    assert_ints_where_integral(got)


def fraction_op(rng, dim, arity, den, terms=3):
    """Random operator whose coefficients are multiples of 1/den, integral ones included."""
    out = {}
    for _ in range(terms):
        key = tuple(tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(arity))
        coeff = {
            tuple(rng.randint(0, 2) for _ in range(dim)): Fraction(rng.randint(-6, 6) or 1, den)
            for _ in range(2)
        }
        out[key] = Polynomial(dim, coeff)
    return PolyDiffOp(dim, arity, out)


def copy_map(terms: _TermMap) -> _TermMap:
    """A copy for _from_term_map, which divides the map it is given in place."""
    copy = _TermMap({k: dict(t) for k, t in terms.items()})
    copy.den = terms.den
    return copy


@pytest.mark.parametrize("star", REFERENCE_PRODUCTS)
def test_term_maps_match_the_fraction_kernels(star):
    # every insertion B_k o_slot B_(n-k) and every dB_n, with either sign,
    # alone and summed in one map as the residual sums them
    dim = star.dim
    for n in range(star.order + 1):
        got, want = _TermMap(), {}
        for k in range(n + 1):
            outer, inner = star.term(k), star.term(n - k)
            for slot, sign in itertools.product((0, 1), (1, -1)):
                alone_got, alone_want = _TermMap(), {}
                for ours, theirs in ((alone_got, alone_want), (got, want)):
                    outer._compose_into(ours, slot, inner, sign)
                    reference_compose_into(outer, theirs, slot, inner, sign)
                assert_same_terms(
                    PolyDiffOp._from_term_map(dim, 3, alone_got),
                    reference_from_term_map(dim, 3, alone_want),
                )
        for sign in (1, -1):
            alone_got, alone_want = _TermMap(), {}
            for ours, theirs in ((alone_got, alone_want), (got, want)):
                _differential_into(ours, star.term(n), sign)
                reference_differential_into(theirs, star.term(n), sign)
            assert_same_terms(
                PolyDiffOp._from_term_map(dim, 3, alone_got),
                reference_from_term_map(dim, 3, alone_want),
            )
        assert_same_terms(
            PolyDiffOp._from_term_map(dim, 3, got), reference_from_term_map(dim, 3, want)
        )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_term_map_rescales_when_a_new_denominator_arrives(dim):
    # one map takes int-only operators first, then operators over 1/2, 1/3 and
    # 1/7, so its denominator grows partway through, each time with entries in it
    rng = random.Random(2700 + dim)
    for _ in range(4):
        got, want = _TermMap(), {}
        dens = []
        for den in (1, 1, 2, 1, 3, 6, 7, 2):
            kind = rng.randrange(3)
            if kind == 0:  # a bidifferential operator into a bidifferential one
                outer, inner = fraction_op(rng, dim, 2, den), fraction_op(rng, dim, 2, 1)
            elif kind == 1:  # a unary operator into a tridifferential one
                outer, inner = fraction_op(rng, dim, 3, 1), fraction_op(rng, dim, 1, den)
            if kind < 2:
                slot, sign = rng.randrange(outer.arity), rng.choice((1, -1, 2))
                outer._compose_into(got, slot, inner, sign)
                reference_compose_into(outer, want, slot, inner, sign)
            else:
                op, sign = fraction_op(rng, dim, 2, den), rng.choice((1, -1))
                _differential_into(got, op, sign)
                reference_differential_into(want, op, sign)
            dens.append(got.den)
            assert_same_terms(
                PolyDiffOp._from_term_map(dim, 3, copy_map(got)),
                reference_from_term_map(dim, 3, {k: dict(t) for k, t in want.items()}),
            )
        assert dens[0] == 1 and dens[-1] > 1 and dens == sorted(dens)


def mixed_op(rng, dim, arity, terms):
    """Random operator with up to `terms` keys, zero for none, whose coefficients
    are constants, a constant plus a coordinate, or a monomial of degree <= 2."""
    z, out = zero_exponents(dim), {}
    for _ in range(terms):
        key = tuple(rand_multi_index(rng, dim, 2) for _ in range(arity))
        c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
        kind = rng.randrange(3)
        if kind == 0:
            coeff = {z: c}
        elif kind == 1:
            coeff = {z: c, unit_exponents(dim, rng.randrange(dim)): 1}
        else:
            coeff = {rand_multi_index(rng, dim, 2): c}
        out[key] = Polynomial(dim, coeff)
    return PolyDiffOp(dim, arity, out)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_compose_into_matches_the_reference_on_zero_operators_and_constant_coefficients(dim):
    # one running map, compared after every insertion: keys (cancelled ones
    # included) and monomials in the same order, values equal over the map's den
    rng = random.Random(4100 + dim)
    z, seen = zero_exponents(dim), set()
    got, want = _TermMap(), {}
    for step in range(30):
        outer = mixed_op(rng, dim, rng.choice((1, 2)), 0 if step % 7 == 6 else rng.randint(1, 3))
        inner = mixed_op(rng, dim, rng.choice((1, 2)), 0 if step % 5 == 4 else rng.randint(1, 3))
        slot, sign = rng.randrange(outer.arity), rng.choice((1, -1, 2))
        outer._compose_into(got, slot, inner, sign)
        reference_compose_into(outer, want, slot, inner, sign)
        assert list(got) == list(want)
        for key, t in got.items():
            assert list(_divided(dict(t), got.den).items()) == list(want[key].items())
        if outer.is_zero() or inner.is_zero():
            seen.add("zero outer" if outer.is_zero() else "zero inner")
        for c in inner.terms.values():
            seen.add("constant" if list(c.terms) == [z] else "plus" if z in c.terms else "none")
    assert seen == {"zero outer", "zero inner", "constant", "plus", "none"}


def multiplication_gauge(dim, parts):
    """FormalDiffeo id + sum_k h^k D_k, each D_k a sum of c x^e d^alpha terms
    given as (alpha, e, c); alpha = 0 is a multiplication term."""
    terms = []
    for part in parts:
        op = PolyDiffOp.zero(dim, 1)
        for alpha, e, c in part:
            op = op + PolyDiffOp.single(dim, [alpha], Polynomial.monomial(dim, e, c))
        terms.append(op)
    return FormalDiffeo(dim, len(parts), terms)


ZERO_KEY_PRODUCTS = [
    # bench's gauged R^2 order-2 builder's gauge, x and 2y^2 times the identity added
    pytest.param(
        moyal_star(Polyvector.bivector(2, {(0, 1): Fraction(2, 3)}), 3),
        multiplication_gauge(
            2,
            [
                [((0, 1), (1, 0), Fraction(1, 2)), ((0, 0), (1, 0), 1)],
                [((0, 2), (0, 0), Fraction(-3, 2)), ((0, 0), (0, 2), 2)],
                [],
            ],
        ),
        id="r2-o3",
    ),
    pytest.param(
        moyal_star(Polyvector.bivector(3, {(0, 1): 1, (0, 2): Fraction(-1, 2), (1, 2): 3}), 2),
        multiplication_gauge(
            3, [[((0, 0, 0), (0, 1, 1), Fraction(1, 3)), ((1, 0, 1), (1, 0, 0), -2)], []]
        ),
        id="r3-o2",
    ),
    # bench's gauged R^4 order-1 builder's gauge, p2 times the identity added
    pytest.param(
        moyal_star(canonical_pi4(), 2),
        multiplication_gauge(
            4,
            [
                [((0, 0, 1, 0), (1, 0, 0, 0), Fraction(1, 2)), ((0, 0, 0, 0), (0, 0, 0, 1), 3)],
                [((0, 0, 0, 0), (0, 0, 1, 0), Fraction(-1, 2))],
            ],
        ),
        id="r4-o2",
    ),
]


@pytest.mark.parametrize("star, D", ZERO_KEY_PRODUCTS)
def test_compose_into_matches_the_reference_on_zero_keys_with_polynomial_coefficients(star, D):
    # every B_k and D_k of a product gauged by multiplication terms into every
    # B_k, both slots of a bidifferential outer, both signs: keys (cancelled
    # ones included) and monomials in the same order as the reference's
    gauged = gauge_transform(star, D)
    inners = [gauged.term(k) for k in range(gauged.order + 1)]
    inners += [D.term(k) for k in range(1, D.order + 1)]

    def zero_keys(op):
        return [c for key, c in op.terms.items() if not any(map(any, key))]

    # a zero key with a non-constant coefficient, next to derivative keys
    mixed = [op for op in inners if len(zero_keys(op)) < len(op.terms)]
    assert any(c.degree() > 0 for op in mixed for c in zero_keys(op))
    for outer, inner in itertools.product(inners[: gauged.order + 1], inners):
        for slot, sign in itertools.product(range(outer.arity), (1, -1)):
            got, want = _TermMap(), {}
            outer._compose_into(got, slot, inner, sign)
            reference_compose_into(outer, want, slot, inner, sign)
            assert list(got) == list(want)
            for key, t in got.items():
                assert list(_divided(dict(t), got.den).items()) == list(want[key].items())


def test_gauge_transform_with_fraction_gauges_matches_reference():
    # Moyal products conjugated by gauges whose coefficients are multiples of
    # 1/2, 1/3 and 1/7: every order's map gets a new denominator partway through
    rng = random.Random(2701)
    pi3 = Polyvector.bivector(3, {(0, 1): 1, (0, 2): Fraction(-1, 2), (1, 2): 3})
    for s in (moyal_star(canonical_pi2(), 3), moyal_star(pi3, 2), moyal_star(canonical_pi4(), 2)):
        for dens in ((2, 3, 7), (7, 1, 2), (1, 1, 3)):
            D = FormalDiffeo(
                s.dim, s.order, [fraction_op(rng, s.dim, 1, den, terms=2) for den in dens[: s.order]]
            )
            got = gauge_transform(s, D)
            assert got == reference_gauge_transform(s, D)
            for op in got.corrections:
                assert_ints_where_integral(op)


@pytest.mark.parametrize("k", [-2, -1, 3])
def test_term_outside_0_to_order_raises(k):
    # B_-1 used to read corrections[-2], i.e. B_1, and B_-2 a stray IndexError
    star = moyal_star(canonical_pi2(), 2)
    diffeo = FormalDiffeo.identity(2, 2)
    with pytest.raises(IndexError):
        star.term(k)
    with pytest.raises(IndexError):
        diffeo.term(k)
    assert star.term(0) == PolyDiffOp.multiplication(2)
    assert diffeo.term(0) == PolyDiffOp.identity(2)


# -- commutators ----------------------------------------------------------------------


def test_canonical_commutator():
    star = moyal_star(canonical_pi2(), 3)
    series = star.commutator(p2("x"), p2("p"))
    assert series[0].is_zero()
    assert series[1] == Polynomial.constant(2, 1)
    assert series[2].is_zero()
    assert series[3].is_zero()


def test_self_commutator_vanishes():
    star = moyal_star(canonical_pi2(), 3)
    H = h_energy()
    series = star.commutator(H, H)
    assert all(c.is_zero() for c in series)


def test_momentum_commutators_vanish():
    star = moyal_star(canonical_pi4(), 3)
    series = star.commutator(p4("p1^2"), p4("p2^3"))
    assert all(c.is_zero() for c in series)


def test_first_commutator_coefficient_is_poisson_bracket():
    rng = random.Random(31)
    star = moyal_star(canonical_pi4(), 2)
    for _ in range(25):
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        assert star.commutator(f, g)[1] == poisson_bracket(
            canonical_pi4(), f, g
        )


# -- formal diffeomorphisms -------------------------------------------------------------


def test_geometric_series_inverse():
    D1 = PolyDiffOp.single(1, [(1,)], P1("x"))
    D = FormalDiffeo.from_parts(1, 3, {1: D1})
    E = invert_diffeo(D)
    assert E.term(1) == -D1
    assert E.term(2) == D1.compose_at(0, D1)
    assert is_identity(compose_diffeo(D, E))
    assert is_identity(compose_diffeo(E, D))


def test_second_order_inverse_coefficient():
    D1 = PolyDiffOp.single(1, [(1,)], P1("x"))
    D2 = PolyDiffOp.single(1, [(2,)], Fraction(1, 3))
    E = invert_diffeo(FormalDiffeo(1, 2, [D1, D2]))
    assert E.term(2) == D1.compose_at(0, D1) - D2


def test_identity_inverse():
    D = FormalDiffeo.identity(2, 3)
    assert invert_diffeo(D) == D


def test_inverse_random_two_sided():
    rng = random.Random(32)
    for _ in range(15):
        dim = rng.choice([1, 2])
        D = FormalDiffeo(dim, 3, [rand_op(rng, dim, 1, order=2) for _ in range(3)])
        E = invert_diffeo(D)
        assert is_identity(compose_diffeo(D, E))
        assert is_identity(compose_diffeo(E, D))


# -- gauge action -------------------------------------------------------------------------


def test_gauge_of_trivial_by_second_derivative():
    D = FormalDiffeo.from_parts(1, 2, {1: PolyDiffOp.single(1, [(2,)], Fraction(1, 2))})
    out = gauge_transform(trivial_star(1, 2), D)
    assert out.term(1) == -PolyDiffOp.single(1, [(1,), (1,)])
    series = out.eval(P1("x"), P1("x"))
    assert series[0] == P1("x^2")
    assert series[1] == Polynomial.constant(1, -1)


def test_gauge_of_trivial_by_derivation():
    D = FormalDiffeo.from_parts(1, 2, {1: PolyDiffOp.single(1, [(1,)])})
    out = gauge_transform(trivial_star(1, 2), D)
    assert out.term(1).is_zero()
    assert out.term(2) == PolyDiffOp.single(1, [(1,), (1,)])


def test_identity_gauge_is_noop():
    star = moyal_star(canonical_pi2(), 3)
    assert gauge_transform(star, FormalDiffeo.identity(2, 3)) == star


def test_gauge_round_trip_random():
    rng = random.Random(33)
    star = moyal_star(canonical_pi2(), 3)
    for _ in range(8):
        D = FormalDiffeo(2, 3, [rand_op(rng, 2, 1, order=2) for _ in range(3)])
        there = gauge_transform(star, D)
        back = gauge_transform(there, invert_diffeo(D))
        assert back == star


def test_gauge_preserves_associativity_order():
    rng = random.Random(34)
    for base in (moyal_star(canonical_pi2(), 3), trivial_star(2, 3)):
        D = FormalDiffeo(2, 3, [rand_op(rng, 2, 1, order=2) for _ in range(3)])
        out = gauge_transform(base, D)
        # recompute residuals from scratch rather than trusting the cache
        fresh = StarProduct(out.dim, out.order, out.corrections)
        assert fresh.certified_order() == 3


def test_gauge_transform_matches_explicit_inverse_reference():
    rng = random.Random(36)
    for _ in range(20):
        dim, order = rng.randint(1, 3), rng.randint(1, 3)
        D = FormalDiffeo(dim, order, [rand_op(rng, dim, 1, order=2) for _ in range(order)])
        products = [
            # not associative: random corrections
            StarProduct(dim, order, [rand_op(rng, dim, 2, order=2) for _ in range(order)]),
            moyal_star(Polyvector.bivector(dim, {(0, dim - 1): rng.randint(1, 3)}), order),
        ]
        for s in products:
            for diffeo in (D, FormalDiffeo.identity(dim, order)):
                assert gauge_transform(s, diffeo) == reference_gauge_transform(s, diffeo)


def test_gauge_transform_at_order_four_with_zero_diffeo_terms_matches_reference():
    rng = random.Random(37)
    for dim, zero in ((1, {2}), (2, {1, 3}), (2, {4}), (3, {2, 3})):
        D = FormalDiffeo(
            dim,
            4,
            [
                PolyDiffOp.zero(dim, 1) if k in zero else rand_op(rng, dim, 1, order=2)
                for k in range(1, 5)
            ],
        )
        products = [StarProduct(dim, 4, [rand_op(rng, dim, 2, order=2) for _ in range(4)])]
        if dim > 1:
            products.append(moyal_star(Polyvector.bivector(dim, {(0, dim - 1): 1}), 4))
        for s in products:
            assert gauge_transform(s, D) == reference_gauge_transform(s, D)


def test_gauge_order_mismatch():
    with pytest.raises(ValueError):
        gauge_transform(moyal_star(canonical_pi2(), 2), FormalDiffeo.identity(2, 3))


# -- one-order extension --------------------------------------------------------------------


def test_extending_trivial_star():
    result = extend_one_order(trivial_star(2, 2))
    assert result.solved
    assert result.particular.is_zero()
    assert result.extended.certified_order() == 3


def test_extending_truncated_exponential_product():
    full = moyal_star(canonical_pi2(), 2)
    result = extend_one_order(moyal_star(canonical_pi2(), 1))
    assert result.solved
    # the found candidate differs from the canonical continuation by a cocycle
    diff = result.particular - full.term(2)
    assert hochschild_d(diff).is_zero()
    # and the canonical continuation itself satisfies the constraint
    assert StarProduct(2, 2, [full.term(1), full.term(2)]).assoc_residual(2).is_zero()


def test_extension_freedom_contains_commuting_derivation_pair():
    star = moyal_star(plane_pi3(), 1)
    result = extend_one_order(star)
    assert result.solved
    cocycle = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)]) - PolyDiffOp.single(
        3, [(0, 0, 1), (0, 1, 0)]
    )
    assert hochschild_d(cocycle).is_zero()
    shifted = StarProduct(3, 2, [star.term(1), result.particular + cocycle])
    assert shifted.assoc_residual(2).is_zero()


def test_extension_post_check_property():
    # every solved extension already passed its built-in residual check;
    # verify independently for a couple of bases
    for base in (moyal_star(canonical_pi2(), 1), trivial_star(3, 1)):
        result = extend_one_order(base)
        if result.solved:
            fresh = StarProduct(
                result.extended.dim, result.extended.order, result.extended.corrections
            )
            assert fresh.assoc_residual(base.order + 1).is_zero()


def test_extension_post_check_reuses_the_target(monkeypatch):
    # target takes 2n insertions and the post-check adds only B_{n+1}'s four
    star = moyal_star(canonical_pi2(), 2)
    star.certified_order()
    calls = []
    compose_into = PolyDiffOp._compose_into

    def counting(self, terms, slot, inner, sign):
        calls.append(slot)
        return compose_into(self, terms, slot, inner, sign)

    monkeypatch.setattr(PolyDiffOp, "_compose_into", counting)
    assert extend_one_order(star).solved
    assert len(calls) == 2 * star.order + 4


def test_extension_post_check_shifts_no_key(monkeypatch):
    # the post-check inserts m into and around B_{n+1}: either the inner key or
    # the split is all zeros, and adding a zero multi-index is no work
    star = moyal_star(canonical_pi4(), 2)
    star.certified_order()
    shifts, post_check = [], []
    add, insertions = polydiff_module.add_exponents, StarProduct._insertions

    def adding(a, b):
        shifts.append(post_check[-1] if post_check else False)
        return add(a, b)

    def inserting(self, n, ks, terms):
        post_check.append(tuple(ks) == (0, n))
        try:
            return insertions(self, n, ks, terms)
        finally:
            post_check.pop()

    monkeypatch.setattr(polydiff_module, "add_exponents", adding)
    monkeypatch.setattr(StarProduct, "_insertions", inserting)
    assert extend_one_order(star).solved
    assert False in shifts  # the target's middle insertions do shift keys
    assert shifts.count(True) == 0


def test_extension_post_check_catches_a_perturbed_solve(monkeypatch):
    solve = linsolve.solve_sparse

    def perturbed(*args, **kwargs):
        result = solve(*args, **kwargs)
        block = next(iter(result.solution.values()))
        block[next(iter(block))] += 1
        return result

    monkeypatch.setattr(linsolve, "solve_sparse", perturbed)
    with pytest.raises(AssertionError, match="residual post-check"):
        extend_one_order(moyal_star(canonical_pi2(), 2))


def test_extension_solves_where_an_order_one_ansatz_was_too_small():
    # the truncated exponential product needs order-2 operators at the next
    # order; the columns are read from the target, so none is missing
    result = extend_one_order(moyal_star(canonical_pi2(), 1))
    assert result.solved
    assert result.trivector is None
    assert result.particular.order() == 2


def half_bracket_product(pi: Polyvector) -> StarProduct:
    """The order-1 product B_1 = pi/2, certified to order 1."""
    star = StarProduct(pi.dim, 1, [hkr_to_cochain(pi)])
    assert star.certified_order() == 1
    return star


def test_extension_of_a_non_poisson_bracket_is_refused_with_its_trivector():
    # B_1 = (x dx^dy + y dy^dz)/2: the order-2 target, antisymmetrized on
    # (x, y, z), is -x, half the Jacobiator -2x of the bivector
    pi = Polyvector.bivector(3, {(0, 1): p3("x"), (1, 2): p3("y")})
    assert jacobi_check(pi)[1].components == {(0, 1, 2): p3("-2*x")}
    result = extend_one_order(half_bracket_product(pi))
    assert not result.solved
    assert result.particular is None and result.extended is None
    assert result.trivector == Polyvector(3, 3, {(0, 1, 2): p3("-x")})


def test_trivector_of_the_non_poisson_half_bracket_matches_the_sign_table_loop():
    # the README's example: the order-2 target of B_1 = (x dx^dy + y dy^dz)/2
    pi = Polyvector.bivector(3, {(0, 1): p3("x"), (1, 2): p3("y")})
    terms = half_bracket_product(pi)._insertions(2, range(1, 2), _TermMap())
    assert terms.den != 1
    got = star_module._trivector(3, terms)
    assert got == reference_trivector(3, terms) == Polyvector(3, 3, {(0, 1, 2): p3("-x")})


def test_trivector_matches_the_sign_table_loop_on_random_targets():
    # arity-3 term maps with slot orders <= 1, the ones coordinates see, over a
    # denominator; below dimension 3 both trivectors are zero
    rng = random.Random(4501)
    nonzero = 0
    for case in range(200):
        dim = 1 + case % 4
        terms = _TermMap()
        terms.den = rng.choice((1, 2, 3, 6))
        for _ in range(rng.randint(1, 6)):
            key = tuple(rand_multi_index(rng, dim, 1) for _ in range(3))
            terms[key] = {rand_multi_index(rng, dim, 1): rng.choice((-3, -1, 1, 2, 5))}
        got, want = star_module._trivector(dim, terms), reference_trivector(dim, terms)
        assert got == want and repr(got) == repr(want), case
        nonzero += not got.is_zero()
        assert dim >= 3 or got.is_zero()
    assert nonzero >= 50


def test_extension_of_a_linear_poisson_bracket_reaches_order_four():
    pi = Polyvector.bivector(3, {(0, 1): p3("z"), (1, 2): p3("x")})
    assert jacobi_check(pi)[0]
    star = half_bracket_product(pi)
    for n in (2, 3, 4):
        result = extend_one_order(star)
        assert result.solved and result.trivector is None
        star = result.extended
        # an independent residual re-check of the built-in post-check
        assert StarProduct(3, n, star.corrections).assoc_residual(n).is_zero()


def test_extension_cocycle_lies_in_reported_freedom_span():
    # the reported freedom is every Hochschild 2-cocycle: the commuting-derivation
    # cocycle and the candidate's difference from the Moyal B_2 are cocycles
    star = moyal_star(plane_pi3(), 1)
    result = extend_one_order(star)
    assert result.solved
    cocycle = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)]) - PolyDiffOp.single(
        3, [(0, 0, 1), (0, 1, 0)]
    )
    assert reference_hochschild_d(cocycle).is_zero()
    difference = result.particular - moyal_star(plane_pi3(), 2).term(2)
    assert reference_hochschild_d(difference).is_zero()
    # d(d_1^2 (x) 1)(f, g, h) = -(d_1^2 f) g h - 2 (d_1 f)(d_1 g) h: not a cocycle
    not_a_cocycle = PolyDiffOp.single(3, [(2, 0, 0), (0, 0, 0)])
    assert not reference_hochschild_d(difference + not_a_cocycle).is_zero()


@pytest.mark.parametrize("K", [1, 2, 3])
def test_a_target_beyond_the_slot_order_subcomplex_solves_over_every_split(monkeypatch, K):
    # on R^1, T = d(d^(1, K+1)) has slot orders <= K, and no column within K reaches
    # all its keys; its trivector is zero (R^1 has no coordinate triple), so the
    # second solve, over every split of the weight K + 2, decides
    T = _TermMap()
    _differential_into(T, PolyDiffOp.single(1, ((1,), (K + 1,))), 1)
    assert max(sum(a) for key, t in T.items() if t for a in key) == K
    bounds = []
    solve_columns = star_module._solve_columns

    def recording(dim, terms, live, bound):
        found = solve_columns(dim, terms, live, bound)
        bounds.append((bound, found is not None))
        return found

    monkeypatch.setattr(star_module, "_solve_columns", recording)
    particular, trivector = star_module._solve_target(1, T)
    assert bounds == [(K, False), (K + 2, True)]
    assert trivector is None
    want = PolyDiffOp._from_term_map(1, 3, T)
    assert reference_hochschild_d(particular) == want


SERIES = {StarProduct: 2, FormalDiffeo: 1}  # each truncated series type and its arity


@pytest.mark.parametrize(
    "order, op_dim, wrong_arity, count",
    [
        pytest.param(1, 2, True, 1, id="arity"),
        pytest.param(1, 3, False, 1, id="dimension"),
        pytest.param(2, 2, False, 1, id="count"),
        pytest.param(-1, 2, False, 0, id="negative-order"),
    ],
)
@pytest.mark.parametrize("series", SERIES, ids=lambda cls: cls.__name__)
def test_series_rejects_a_bad_shape(series, order, op_dim, wrong_arity, count):
    arity = 3 - SERIES[series] if wrong_arity else SERIES[series]
    op = PolyDiffOp.single(op_dim, [(1,) + (0,) * (op_dim - 1)] * arity)
    assert series(2, 1, [PolyDiffOp.single(2, [(1, 0)] * SERIES[series])]).order == 1
    with pytest.raises(ValueError):
        series(2, order, [op] * count)


@pytest.mark.parametrize("series", SERIES, ids=lambda cls: cls.__name__)
def test_series_is_immutable_and_named_in_its_repr(series):
    s = series(2, 1, [PolyDiffOp.zero(2, SERIES[series])])
    with pytest.raises(AttributeError, match=f"^{series.__name__} is immutable$"):
        s.order = 2
    assert s.order == 1
    assert repr(s) == f"{series.__name__}(dim=2, order=1)"


def test_series_equality_is_type_exact():
    assert StarProduct(2, 0, []) == StarProduct(2, 0, [])
    assert FormalDiffeo(2, 0, []) == FormalDiffeo.identity(2, 0)
    assert StarProduct(2, 0, []) != FormalDiffeo(2, 0, [])
    assert FormalDiffeo(2, 0, []) != StarProduct(2, 0, [])


def test_gauge_transform_matches_value_level_oracle():
    # the operator-level conjugation against a brute-force series
    # computation of D^-1(D(a) * D(b)) on random arguments
    rng = random.Random(35)
    star = moyal_star(canonical_pi2(), 3)
    for _ in range(6):
        D = FormalDiffeo(2, 3, [rand_op(rng, 2, 1, order=2) for _ in range(3)])
        gauged = gauge_transform(star, D)
        E = invert_diffeo(D)
        for _ in range(3):
            a, b = rand_poly(rng, 2), rand_poly(rng, 2)
            da = [D.term(j).apply([a]) for j in range(4)]
            db = [D.term(k).apply([b]) for k in range(4)]
            product = []
            for n in range(4):
                acc = Polynomial.zero(2)
                for i in range(n + 1):
                    for j in range(n - i + 1):
                        k = n - i - j
                        acc = acc + star.term(i).apply([da[j], db[k]])
                product.append(acc)
            expected = []
            for n in range(4):
                acc = Polynomial.zero(2)
                for r in range(n + 1):
                    acc = acc + E.term(r).apply([product[n - r]])
                expected.append(acc)
            assert gauged.eval(a, b) == tuple(expected)
