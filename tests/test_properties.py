"""Property tests, run when Hypothesis is installed."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import math

import pytest
from helpers import (
    reference_add,
    reference_add_multiple,
    reference_apply,
    reference_compose_diffeo,
    reference_divided,
    reference_mul,
    reference_numerators,
    reference_parse_polynomial,
    reference_partial,
    reference_partial_multi,
    reference_poisson_bracket,
    reference_poly_det,
    reference_product,
    reference_render_report,
    reference_sum,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from starobs import FormalDiffeo, PolyDiffOp, Polynomial, Polyvector, compose_diffeo  # noqa: E402
from starobs import parse_polynomial, poisson_bracket  # noqa: E402
from starobs import PolynomialParseError  # noqa: E402
from starobs.cli import Problem, load_problem_data, main, render_report  # noqa: E402
from starobs.obstruction import _det  # noqa: E402
from starobs.poly import (  # noqa: E402
    _add_into,
    _divided,
    _integers,
    _multiplied,
    _partial,
    _product,
    is_name,
)
from starobs.polydiff import _differential_into, _numerators, _TermMap  # noqa: E402
from starobs.star import _trivector  # noqa: E402

NAMES = ["x", "p1", "_q", "Zeta_2"]

coefficients = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
).filter(bool)


@st.composite
def polynomials(draw) -> Polynomial:
    dim = draw(st.integers(1, len(NAMES)))
    exponents = st.tuples(*[st.integers(0, 4)] * dim)
    return Polynomial(dim, draw(st.dictionaries(exponents, coefficients, max_size=6)))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=150)
@hypothesis.given(polynomials())
def test_to_string_parses_back_to_the_same_terms(p):
    names = NAMES[: p.dim]
    q = parse_polynomial(p.to_string(names), names)
    assert q == p and q.terms == p.terms
    types = {e: type(c) for e, c in q.terms.items()}
    assert types == {e: type(c) for e, c in p.terms.items()}
    assert all(t is int or q.terms[e].denominator > 1 for e, t in types.items())


# parser input: mostly well-formed expressions over NAMES, some with one character
# inserted or deleted, the strings that reach each cap, and non-ASCII digits (which
# str.isdigit takes and the grammar does not) and whitespace
NINES = "9" * 4300  # the longest integer the interpreter converts
numbers = (
    st.integers(0, 10**6).map(str)
    | st.sampled_from(["0", "3/4", "10/5", "0/3", "1/0", NINES, NINES + "9", "1/" + NINES])
)
atoms = numbers | st.sampled_from(NAMES + ["y", "p", "Zeta", "x\u00b2", "x\u0663"])
spaces = st.sampled_from(["", "", " ", "\t", "\n", "\u00a0", "\u2003"])
expressions = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.tuples(children, spaces).map(lambda t: f"({t[1]}{t[0]})"),
        st.tuples(children, st.sampled_from(["+", "-", "*", "+-", "--"]), spaces, children).map(
            lambda t: f"{t[0]}{t[2]}{t[1]}{t[2]}{t[3]}"
        ),
        st.tuples(children, st.sampled_from(["0", "1", "2", "3", "2/3", "", "x"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
        children.map(lambda e: "-" + e),
    ),
    max_leaves=8,
)
capped = st.one_of(
    st.integers(98, 102).map(lambda n: "(" * n + "x" + ")" * n),
    st.sampled_from(["(x+p1)^12", "(x+p1)^13", "(x - 1)^4300", "(2*x)^20000", "x^99999999",
                     "(3/7*x)^3000000", "2^14000*2^14000*x", NINES + "*x + x", NINES + "*x - x",
                     f"1/{NINES}*x + 1/{NINES[:-1]}7*x", "2^14000*2^284*x", "(x\u00b2)", "x\u0663"]),
)


@st.composite
def parser_inputs(draw) -> str:
    text = draw(expressions | capped)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from("()+-*/^ x09\u00b2\u0663\u00a0_")) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return text


def parsed(parse, text: str, names: list[str]):
    """parse's polynomial as its dimension and typed terms, or its error's message
    and position."""
    try:
        p = parse(text, names)
    except PolynomialParseError as error:
        return "error", str(error), error.pos
    return "polynomial", p.dim, typed(p.terms)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=400)
@hypothesis.given(st.integers(1, len(NAMES)), parser_inputs())
@hypothesis.example(2, "(" * 101 + "x" + ")" * 101)
@hypothesis.example(2, "(x+p1)^13")
@hypothesis.example(2, NINES + "9")
@hypothesis.example(2, NINES + "*" + NINES)
@hypothesis.example(2, NINES + "*x + x")
@hypothesis.example(1, "(3/7*x)^3000000")
@hypothesis.example(2, "1/2*x + 1/2*x - p1 + 2/4")
@hypothesis.example(4, "\u00a0x\u2003*\tZeta_2 - _q^2 + p1\u00b2")
@hypothesis.example(2, "x\u0663 + 1")
@hypothesis.example(2, "x+")  # end of input after each operator
@hypothesis.example(2, "x*")
@hypothesis.example(2, "x^")
@hypothesis.example(2, "3/")
@hypothesis.example(2, "(")
@hypothesis.example(2, "")
@hypothesis.example(2, " \t ")
@hypothesis.example(2, "3 / 4")
@hypothesis.example(2, "x ^ 2")
@hypothesis.example(2, "x\u00b2\u0663")  # a name that runs into non-ASCII digits
@hypothesis.example(2, "\u00b2x")  # an atom that starts with one
@hypothesis.example(2, "q + x")  # an unknown name, then a space
@hypothesis.example(2, "x + q ")
def test_parser_matches_the_replaced_polynomial_parser(dim, text):
    """The dict-valued parser gives the Polynomial-valued one's terms, in order
    and of the same types, or the same PolynomialParseError message and position."""
    names = NAMES[:dim]
    assert parsed(parse_polynomial, text, names) == parsed(reference_parse_polynomial, text, names)


@st.composite
def kernel_operands(draw) -> tuple[Polynomial, Polynomial, tuple[int, ...]]:
    """Two polynomials of one dimension, int-only in about half the draws, small
    enough that monomials meet in a product, and a multi-index, zero included."""
    dim = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    values = draw(st.sampled_from([st.integers(-20, 20).filter(bool), coefficients]))
    p = Polynomial(dim, draw(st.dictionaries(exponents, values, max_size=5)))
    q = Polynomial(dim, draw(st.dictionaries(exponents, values, max_size=5)))
    return p, q, draw(exponents)


def typed(d) -> list:
    """d's items in order, each with its value's type: int and Fraction differ."""
    return [(k, v, type(v)) for k, v in d.items()]


# factors as the program's values are: an integral one is an int
factors = st.sampled_from([1, -1]) | coefficients.map(
    lambda c: c.numerator if c.denominator == 1 else c
)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
@hypothesis.given(kernel_operands(), factors, st.integers(1, 12))
def test_the_shared_kernels_match_the_loops_they_replaced(operands, factor, divisor):
    """Each poly kernel, and each Polynomial operation on one, gives its replaced
    loop's dict: the same values of the same types in the same order."""
    p, q, gamma = operands
    zero = (0,) * p.dim
    assert typed(_product(p.terms, q.terms)) == typed(reference_product(p.terms, q.terms))
    assert typed((p * q).terms) == typed(reference_mul(p, q).terms)
    acc = dict(p.terms)
    _add_into(acc, q.terms)
    assert typed(acc) == typed(reference_sum(p.terms, q.terms))
    assert typed((p + q).terms) == typed(reference_add(p, q).terms)
    for f in (1, -1, factor):
        got, want = dict(p.terms), dict(p.terms)
        _add_into(got, q.terms, f)
        reference_add_multiple(want, q.terms, f)
        assert typed(got) == typed(want)
        # the in-place scaling is the solver's and the term maps' replaced v * m loop
        scaled = dict(p.terms)
        assert _multiplied(scaled, f) is scaled
        assert typed(scaled) == typed({e: v * f for e, v in p.terms.items()})
    # the replaced derivative made an integral Fraction an int at each step, _partial
    # keeps a value's type: the values and their order agree, and the types once an
    # integral Fraction is made an int
    for alpha in (gamma, zero):
        got, want = _partial(p.terms, alpha), reference_partial_multi(p, alpha).terms
        assert list(got.items()) == list(want.items())
        assert typed(Polynomial._trusted(p.dim, dict(got)).terms) == typed(want)
    assert _partial(p.terms, zero) is p.terms
    op = PolyDiffOp.single(p.dim, (zero, gamma), p) + PolyDiffOp.single(p.dim, (gamma, zero), q)
    den, numerators = _numerators(op)
    want_den, want = reference_numerators(op)
    assert den == want_den and list(numerators) == list(want)
    assert all(typed(numerators[key]) == typed(want[key]) for key in want)
    lcm = math.lcm(*[v.denominator for v in p.terms.values()])
    for scale in (lcm, lcm * divisor):
        scaled = _integers(p.terms, scale)
        assert typed(scaled) == typed({e: int(v * scale) for e, v in p.terms.items()})
        for d in (1, divisor, scale, math.lcm(scale, divisor)):
            assert typed(_divided(dict(scaled), d)) == typed(reference_divided(scaled, d))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
@hypothesis.given(polynomials(), st.integers(0, len(NAMES) - 1))
def test_partial_matches_the_replaced_derivative_loop(p, i):
    """Polynomial.partial, now _partial on a unit multi-index, gives the replaced
    loop's terms: the same values of the same types in the same order."""
    if i >= p.dim:
        with pytest.raises(IndexError):
            p.partial(i)
        return
    assert typed(p.partial(i).terms) == typed(reference_partial(p, i).terms)


@st.composite
def bracket_operands(draw) -> tuple[Polyvector, Polynomial, Polynomial]:
    """A bivector with random polynomial entries on some coordinate pairs, and two
    polynomials, over coefficients that are ints or Fractions."""
    dim = draw(st.integers(2, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    terms = st.dictionaries(exponents, coefficients, max_size=3)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    pi = Polyvector(dim, 2, {ij: Polynomial(dim, draw(terms)) for ij in pairs if draw(st.booleans())})
    return pi, Polynomial(dim, draw(terms)), Polynomial(dim, draw(terms))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
@hypothesis.given(bracket_operands())
def test_poisson_bracket_matches_the_replaced_polynomial_loop(operands):
    """poisson_bracket on the dict kernels gives the Polynomial loop's terms, in order
    and of the same types, for two polynomials and for each coordinate function."""
    pi, f, g = operands
    for h in [g] + [Polynomial.variable(pi.dim, k) for k in range(pi.dim)]:
        assert typed(poisson_bracket(pi, f, h).terms) == typed(
            reference_poisson_bracket(pi, f, h).terms
        )


@st.composite
def square_matrices(draw) -> list[list[Polynomial]]:
    """A square matrix, 1 by 1 to 4 by 4, of polynomials in 1 to 3 variables with
    int and Fraction coefficients, about a third of its entries zero."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    terms = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    entries = st.one_of(st.just({}), terms, terms)
    return [[Polynomial(dim, draw(entries)) for _ in range(n)] for _ in range(n)]


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
@hypothesis.given(square_matrices())
def test_det_matches_the_replaced_polynomial_cofactor_expansion(matrix):
    """The validation's _det on the entries' dicts is the Polynomial cofactor
    expansion's determinant, and zero on a matrix with a repeated row."""
    rows = [[p.terms for p in row] for row in matrix]
    assert Polynomial._trusted(matrix[0][0].dim, dict(_det(rows))) == reference_poly_det(matrix)
    if len(rows) > 1:
        assert not _det([rows[0], rows[0], *rows[2:]])


# coordinate names: letters, '_', digits that int() takes and digits it does not,
# operators, inner and outer whitespace, NBSP among it, and the empty string
name_texts = st.text(st.sampled_from("xZé_09\u00b2\u0663+*( \u00a0\u2003"), max_size=4)


def parses_back(name: str, names: list[str]) -> bool:
    """The loader's replaced check: the name parses as its own variable."""
    try:
        return parse_polynomial(name, names) == Polynomial.variable(len(names), names.index(name))
    except PolynomialParseError:
        return False


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=400)
@hypothesis.given(name_texts, st.booleans())
@hypothesis.example("", False)
@hypothesis.example("x\u00b2", True)
@hypothesis.example("\u00b2x", True)
@hypothesis.example("x\u0663", False)
@hypothesis.example("_", True)
@hypothesis.example(" x", True)
@hypothesis.example("x\u00a0", True)
@hypothesis.example("x y", True)
def test_is_name_agrees_with_the_replaced_parse_back_check(name, with_x):
    names = [name] + (["x"] if with_x and name != "x" else [])
    assert is_name(name) == parses_back(name, names)


@st.composite
def cochains(draw) -> PolyDiffOp:
    """A 2-cochain on R^3 or R^4: up to four terms, each slot of order at most 2
    in each coordinate, each coefficient a sum of up to two monomials of degree
    at most 2 in each coordinate."""
    dim = draw(st.integers(3, 4))
    indices = st.tuples(*[st.integers(0, 2)] * dim)
    polys = st.dictionaries(indices, coefficients, min_size=1, max_size=2).map(
        lambda t: Polynomial(dim, t)
    )
    terms = st.dictionaries(st.tuples(indices, indices), polys, min_size=1, max_size=4)
    return PolyDiffOp(dim, 2, draw(terms))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=100)
@hypothesis.given(cochains())
def test_the_trivector_of_a_coboundary_is_zero(cochain):
    """Alt dC, dC evaluated on coordinate triples and antisymmetrized, is zero:
    a nonzero trivector of a target shows that no cochain reaches it."""
    terms = _TermMap()
    _differential_into(terms, cochain, 1)
    assert _trivector(cochain.dim, terms).is_zero()


@st.composite
def applications(draw) -> tuple[PolyDiffOp, PolyDiffOp, list[Polynomial]]:
    """Two operators of one arity, 0 to 3, and nonzero arguments for them, int-only
    in about half the draws; the first has a term on the zero multi-index in
    about half the draws."""
    dim = draw(st.integers(1, 3))
    arity = draw(st.integers(0, 3))
    values = draw(st.sampled_from([st.integers(-20, 20).filter(bool), coefficients]))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    polys = st.dictionaries(exponents, values, min_size=1, max_size=3).map(
        lambda t: Polynomial(dim, t)
    )

    def ops(exponents, min_size):
        keys = st.tuples(*[exponents] * arity)
        terms = st.dictionaries(keys, polys, min_size=min_size, max_size=4)
        return terms.map(lambda t: PolyDiffOp(dim, arity, t))

    op = draw(ops(exponents, 0))
    if draw(st.booleans()):
        op = op + PolyDiffOp.single(dim, [(0,) * dim] * arity, draw(polys))
    # first derivatives at most, so that the second operator's terms seldom vanish
    part = draw(ops(st.tuples(*[st.integers(0, 1)] * dim), 1))
    return op, part, list(draw(st.tuples(*[polys] * arity)))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
@hypothesis.given(applications())
def test_apply_matches_the_replaced_term_loop(application):
    """PolyDiffOp.apply on the one evaluation walk gives the Polynomial loop's
    value, the same values of the same types in the same order: on the drawn
    arguments; with the second operator less its slot-swapped copy added, on
    equal first two arguments, where those terms cancel; and with a zero
    argument in a middle slot."""
    op, part, args = application
    cases = [(op, args)]
    if op.arity >= 2:
        swapped = {(k[1], k[0]) + k[2:]: c for k, c in part.terms.items()}
        cancelling = op + part - PolyDiffOp(op.dim, op.arity, swapped)
        cases.append((cancelling, [args[0], *args[:1], *args[2:]]))
    if op.arity == 3:
        cases.append((op, [args[0], Polynomial.zero(op.dim), args[2]]))
    for operator, arguments in cases:
        want = reference_apply(operator, arguments)
        assert typed(operator.apply(arguments).terms) == typed(want.terms)


def test_applications_draw_arguments_over_different_denominators():
    """Some draws of applications() hand apply arguments whose coefficients have
    different lcm denominators, none of them 1, so each argument's own scale counts."""

    def scale(p):
        return math.lcm(*[Fraction(v).denominator for v in p.terms.values()])

    def different(application):
        scales = [scale(p) for p in application[2]]
        return min(scales, default=1) > 1 and len(set(scales)) > 1

    hits = []

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hypothesis.given(applications())
    def draw(application):
        hits.append(different(application))

    draw()
    assert sum(hits) >= 10


@st.composite
def operator_pairs(draw) -> tuple[PolyDiffOp, PolyDiffOp]:
    """Two operators of one dimension and arity, 1 to 3, int-only in about half
    the draws."""
    dim = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 3))
    values = draw(st.sampled_from([st.integers(-20, 20).filter(bool), coefficients]))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    polys = st.dictionaries(exponents, values, max_size=3).map(lambda t: Polynomial(dim, t))
    ops = st.dictionaries(st.tuples(*[exponents] * arity), polys, max_size=4).map(
        lambda t: PolyDiffOp(dim, arity, t)
    )
    return draw(ops), draw(ops)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
@hypothesis.given(operator_pairs())
def test_an_operator_is_stored_as_its_reduced_numerators(pair):
    """den is the lcm of the coefficients' reduced denominators and shares no
    factor with every numerator, the view is those numerators over den, and the
    operator rebuilt from its view, or from sums whose maps are not reduced, is
    the same operator with the same hash and numerators."""
    op, other = pair
    den, numerators = _numerators(op)
    values = [v for c in op.terms.values() for v in c.terms.values()]
    assert den == math.lcm(*[Fraction(v).denominator for v in values])
    assert math.gcd(den, *[v for t in numerators.values() for v in t.values()]) == 1
    assert all(type(v) is int for t in numerators.values() for v in t.values())
    rebuilt = PolyDiffOp(op.dim, op.arity, op.terms)
    assert rebuilt == op and hash(rebuilt) == hash(op) and _numerators(rebuilt) == (den, numerators)
    summed = (op + other) - other
    assert summed == op and hash(summed) == hash(op) and _numerators(summed) == (den, numerators)
    # the view built from the numerators: an int exactly where a value is integral
    view = {k: {e: Fraction(v, den) for e, v in t.items()} for k, t in numerators.items()}
    for built in (op, summed):
        assert view == {k: dict(c.terms) for k, c in built.terms.items()}
        for c in built.terms.values():
            assert all(type(v) is int or v.denominator > 1 for v in c.terms.values())
    assert (op - op).is_zero() and _numerators(op - op) == (1, {})


@st.composite
def diffeo_pairs(draw) -> tuple[FormalDiffeo, FormalDiffeo]:
    """Two unary formal diffeos of one dimension, 1 to 3, and order, 1 to 3, int-only
    in about half the draws; each part is zero, the identity or a drawn operator."""
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    values = draw(st.sampled_from([st.integers(-20, 20).filter(bool), coefficients]))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    polys = st.dictionaries(exponents, values, max_size=3).map(lambda t: Polynomial(dim, t))
    drawn = st.dictionaries(st.tuples(exponents), polys, min_size=1, max_size=3).map(
        lambda t: PolyDiffOp(dim, 1, t)
    )
    parts = st.sampled_from([PolyDiffOp.zero(dim, 1), PolyDiffOp.identity(dim)]) | drawn
    diffeos = st.lists(parts, min_size=order, max_size=order).map(
        lambda ops: FormalDiffeo(dim, order, ops)
    )
    return draw(diffeos), draw(diffeos)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
@hypothesis.given(diffeo_pairs())
def test_compose_diffeo_matches_the_replaced_sum_loop(pair):
    """compose_diffeo, every insertion into one term map per order, gives the diffeo
    of the loop that summed one compose_at operator at a time, in both orders."""
    D, E = pair
    for outer, inner in ((D, E), (E, D)):
        assert compose_diffeo(outer, inner) == reference_compose_diffeo(outer, inner)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PLANE_MOMENTA = json.loads((PROBLEMS / "plane_momenta.json").read_text())
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))}

# JSON values that often hit the loader's own keys, names and polynomial syntax
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.text("xp0123^()+-*/ ", max_size=12)
    | st.sampled_from(["moyal", "terms", "x", "p", "1", "(1,2)"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["type", "order", "terms", "degree", "op_order", "coeff", "derivs", "1"])
        | st.text(),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=400)
@hypothesis.given(st.sampled_from(sorted(PLANE_MOMENTA)), json_values)
def test_loader_returns_a_problem_or_raises_value_error(field, value):
    """One top-level field of a shipped problem replaced: a Problem or a ValueError."""
    data = dict(PLANE_MOMENTA, **{field: value})
    try:
        problem = load_problem_data(data)
    except ValueError:
        return
    assert isinstance(problem, Problem)


# scalars weighted up, as json_values mostly nests: a small integer reaches the
# order checks, null an absent entry
field_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 40), json_values)


@st.composite
def one_field_replaced(draw, name: str) -> dict:
    data = dict(SHIPPED[name])
    data[draw(st.sampled_from(sorted(data)))] = draw(field_values)
    return data


@pytest.mark.parametrize("name", sorted(SHIPPED))
@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=40)
@hypothesis.given(data=st.data())
def test_main_on_a_shipped_problem_with_one_field_replaced_exits_0_or_1(name, data):
    """Exit 0 with a report or exit 1 with a message; never exit 2 or a traceback."""
    problem = data.draw(one_field_replaced(name))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        code = main(["--problem", str(path), "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 1)


# report strings: any code point, lone surrogates included, and the characters
# the escaper treats specially weighted up
report_strings = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "/", "\x00", "\b", "\t", "\n", "\x1f", "\x7f", "\u00e9",
                       "\u2028", "\ud800", "\udfff", "\U0001f600"]),
    max_size=8,
)
report_ints = st.integers() | st.integers(max_value=-1) | st.integers(2**64, 2**200)
# a list of ints is written in one join, and a bool in it must not be
report_trees = st.recursive(
    st.none()
    | st.booleans()
    | report_ints
    | report_strings
    | st.lists(report_ints | st.booleans(), min_size=1),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(report_strings, children, max_size=4),
    max_leaves=20,
)


@st.composite
def nested_reports(draw):
    """A report tree, sometimes buried under up to 60 single-entry lists and dicts."""
    value = draw(report_trees)
    for key in draw(st.lists(st.none() | report_strings, max_size=60)):
        value = [value] if key is None else {key: value}
    return value


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=400)
@hypothesis.given(nested_reports())
def test_render_report_matches_the_stdlib_encoder(report):
    assert render_report(report) == reference_render_report(report)
