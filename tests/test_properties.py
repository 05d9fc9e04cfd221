"""Property tests, run when Hypothesis is installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from starobs import Polynomial, parse_polynomial  # noqa: E402

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
