import random
import sys
import time
from fractions import Fraction

import pytest
from helpers import R2, p2, rand_poly, reference_exponents_upto

from starobs import Polynomial, PolynomialParseError, parse_polynomial
from starobs.poly import _Parser, exponents_upto


def test_difference_of_squares():
    assert p2("x+p") * p2("x-p") == p2("x^2 - p^2")


def test_multiplicative_unit():
    q = p2("3*x^2*p - 1/2")
    assert q * Polynomial.one(2) == q


def test_exponent_addition():
    assert p2("x^2") * p2("x^3") == p2("x^5")


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == Polynomial.zero(2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        p2("x") * parse_polynomial("x", ["x"])


def test_partial_power_rule():
    assert p2("x^2*p^3").partial(1) == p2("3*x^2*p^2")


def test_partial_of_constant():
    assert Polynomial.constant(2, 7).partial(0).is_zero()


def test_partial_product():
    assert p2("x*p").partial(0) == p2("p")


def test_partial_index_range():
    with pytest.raises(IndexError):
        p2("x").partial(2)


def test_partial_leibniz_random():
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        i = rng.randrange(2)
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


# -- parsing and printing ------------------------------------------------------


def test_parse_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        q = rand_poly(rng, 2, degree=3, terms=3)
        assert parse_polynomial(q.to_string(R2), R2) == q


def test_parse_rational_coefficients():
    assert p2("3/4*x - 1/2") == Polynomial(
        2, {(1, 0): Fraction(3, 4), (0, 0): Fraction(-1, 2)}
    )


def test_parse_parentheses_and_signs():
    assert p2("-(x - p)^2") == -(p2("x") - p2("p")) ** 2


def test_parse_unknown_variable():
    with pytest.raises(PolynomialParseError):
        p2("x + q")


def test_parse_trailing_garbage():
    with pytest.raises(PolynomialParseError):
        p2("x + ")


def test_parse_error_quotes_a_window_around_the_position():
    with pytest.raises(PolynomialParseError, match=r"^at position 5 in 'x \+ q': "):
        p2("x + q")
    text = "x + " * 20 + "q" + " + x" * 20
    with pytest.raises(PolynomialParseError) as info:
        p2(text)
    assert str(info.value).startswith(f"at position 81 in …{text[51:111]!r}…: ")


@pytest.mark.parametrize("text, pos", [("x+", 2), ("x*", 2), ("(", 1), ("", 0)])
def test_a_missing_atom_at_the_end_of_input_says_what_could_stand_there(text, pos):
    # the end token is no digit, so it reads as any other character that starts no atom
    with pytest.raises(PolynomialParseError) as info:
        p2(text)
    assert info.value.pos == pos
    assert str(info.value) == f"at position {pos} in {text!r}: expected a number, variable or '('"


def test_the_token_classes_are_isspace_and_the_name_characters():
    """On every code point, the tokenizer skips exactly what str.isspace takes,
    and a name's run goes on exactly over is_name's isalnum() or '_'."""
    code_points = [chr(k) for k in range(sys.maxunicode + 1)]
    # joined by '_', a name character falls in a token of two or more characters,
    # and any other character but whitespace is a token of its own
    tokens = _Parser.TOKEN.findall("_".join(code_points))
    kept = set("".join(tokens))
    assert {c for c in code_points if c not in kept} == {c for c in code_points if c.isspace()}
    runs = set("".join(t for t in tokens if len(t) > 1))
    assert runs == {c for c in code_points if c.isalnum() or c == "_"}


@pytest.mark.parametrize("text", ["1", "1/2", "(3)^2", "0", "", "x", "1 +"])
def test_parse_with_no_variables_raises_value_error(text):
    # a polynomial needs at least one variable: no text parses to dimension 0
    with pytest.raises(ValueError):
        parse_polynomial(text, [])


def test_parse_requires_explicit_multiplication():
    with pytest.raises(PolynomialParseError):
        p2("3 x")


def test_to_string_canonical_and_stable():
    q = p2("p^2 - x + 3")
    assert q.to_string(R2) == "3 + p^2 - x"
    assert Polynomial.zero(2).to_string(R2) == "0"


def test_parse_power_zero():
    assert p2("x^0") == Polynomial.one(2)


def test_polynomial_immutability():
    q = p2("x")
    with pytest.raises(AttributeError):
        q.dim = 3
    with pytest.raises(AttributeError):
        q.terms = {}


def test_hash_consistent_with_equality():
    a = p2("x + 1/2*p")
    b = p2("1/2*p + x")
    assert a == b and hash(a) == hash(b)


def test_parse_huge_power_is_one_monomial():
    assert parse_polynomial("x^1000000", ["x"]) == Polynomial.monomial(1, (1000000,))


def test_parse_rejects_a_coefficient_power_no_report_can_print():
    names = ["x", "y"]
    start = time.perf_counter()
    with pytest.raises(PolynomialParseError, match=r"^at position 8 in .*: a coefficient of this"):
        parse_polynomial("(3/7*x)^3000000", names)
    assert time.perf_counter() - start < 0.05
    # 2^14284 has 4,300 digits, the most an int prints; 2^14285 has 4,301
    assert parse_polynomial("2^14284*x", names) == Polynomial.monomial(2, (1, 0), 2**14284)
    assert parse_polynomial("(1/2*y)^14284", names).terms == {(0, 14284): Fraction(1, 2**14284)}
    for text in ("2^14285*x", "(1/2*y)^14285", "(x + 10^400*y)^11"):
        with pytest.raises(PolynomialParseError, match="more than 4300 digits"):
            parse_polynomial(text, names)


def test_parse_rejects_a_sum_or_product_no_report_can_print_at_its_operator():
    names = ["x", "y"]
    nines = "9" * 4300  # 10^4300 - 1, the longest integer the interpreter prints
    cases = [
        ("2^14000*2^14000*x", 7, "product"),
        (nines + "*x + x", 4303, "sum"),
        (nines + "*x - (-x)", 4303, "sum"),
        (f"1/{nines}*x + 1/{nines[:-1]}7*x", 4305, "sum"),
        # each term passes; the sum is caught at its first '+', before the
        # denominators of the others are multiplied in
        (" + ".join(f"1/{nines[:-1]}{d}*x" for d in "1379" * 25), 4305, "sum"),
    ]
    start = time.perf_counter()
    for text, at, what in cases:
        message = rf"^at position {at} in .*: a coefficient of this {what} has more than 4300"
        with pytest.raises(PolynomialParseError, match=message):
            parse_polynomial(text, names)
    assert time.perf_counter() - start < 1.0
    # at 4,300 digits the result still loads
    loaded = parse_polynomial(nines + "*x + 0*x + y", names)
    assert loaded.terms == {(1, 0): 10**4300 - 1, (0, 1): 1}
    assert parse_polynomial("2^14000*2^284*x", names) == Polynomial.monomial(2, (1, 0), 2**14284)


@pytest.mark.parametrize("coeff", [0.5, 1.0, "1/3", True, None])
def test_polynomial_takes_only_exact_coefficients(coeff):
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        Polynomial(1, {(1,): coeff})
    assert Polynomial(1, {(1,): Fraction(2, 4)}).terms == {(1,): Fraction(1, 2)}
    assert Polynomial(1, {(1,): Fraction(4, 2)}).terms == {(1,): 2}


def test_power_matches_repeated_product():
    base = parse_polynomial("x+1", ["x"])
    product = Polynomial.one(1)
    for _ in range(7):
        product = product * base
    assert base**7 == product
    assert base**0 == Polynomial.one(1)
    assert base**1 == base


def test_parse_rejects_a_large_power_of_a_sum_before_expanding_it():
    names = ["x", "y", "z", "w"]
    cap = _Parser.MAX_SUM_POWER
    # at the cap the power is expanded: C(12 + 4, 4) terms
    assert len(parse_polynomial(f"(x+y+z+w+1)^{cap}", names).terms) == 1820
    start = time.perf_counter()
    with pytest.raises(PolynomialParseError, match=r"^at position 12 in .*: exponent 24 on a base"):
        parse_polynomial("(x+y+z+w+1)^24", names)
    assert time.perf_counter() - start < 0.05
    # a monomial base, or a sum that collapses to one term, takes any power
    big = Polynomial.monomial(4, (100, 100, 0, 0), 2**100)
    assert parse_polynomial("(2*x*y)^100", names) == big
    assert parse_polynomial("(x + y - y)^40", names) == Polynomial.monomial(4, (40, 0, 0, 0))


@pytest.mark.parametrize("dim", range(6))
def test_exponents_upto_matches_the_filtered_product(dim):
    for max_total in range(7):
        assert exponents_upto(dim, max_total) == reference_exponents_upto(dim, max_total)


def test_exponents_upto_works_in_proportion_to_its_output():
    # the filtered product took 0.8 s at dim 8, degree 6 for 3,003 tuples
    start = time.perf_counter()
    assert len(exponents_upto(8, 6)) == 3003
    assert len(exponents_upto(6, 12)) == 18564
    assert time.perf_counter() - start < 0.25
