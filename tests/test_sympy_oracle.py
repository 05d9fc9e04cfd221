"""The Jacobi witness, the Moyal product and the coefficient kernels against
independent sympy computations.

sympy is a test-only oracle: the package itself has no dependencies.
"""

import itertools
import random

import pytest
from helpers import (
    canonical_pi2,
    canonical_pi4,
    non_poisson_pi,
    rand_fraction,
    rand_multi_index,
    rand_poly,
    rand_polyvector,
    so3_pi,
)

from starobs import Polynomial, Polyvector, jacobi_check, moyal_star
from starobs.poly import _integers, _partial, _product

sympy = pytest.importorskip("sympy")


def to_sympy(p: Polynomial, xs) -> "sympy.Expr":
    return sum(
        (
            sympy.Rational(c) * sympy.prod([x**e for x, e in zip(xs, exps)])
            for exps, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def sympy_jacobiator(pi: Polyvector, xs, i: int, j: int, k: int) -> "sympy.Expr":
    """sum_l pi^il d_l pi^jk + pi^jl d_l pi^ki + pi^kl d_l pi^ij."""
    m = [[to_sympy(pi.component((a, b)), xs) for b in range(pi.dim)] for a in range(pi.dim)]
    return sum(
        (
            m[a][l] * sympy.diff(m[b][c], xs[l])
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for l in range(pi.dim)
        ),
        sympy.Integer(0),
    )


def random_bivectors():
    rng = random.Random(41)
    return [rand_polyvector(rng, dim, 2) for dim in (3, 4) for _ in range(6)]


@pytest.mark.parametrize(
    "pi",
    [so3_pi(), non_poisson_pi()] + random_bivectors(),
    ids=["so3", "non_poisson"] + [f"random{n}" for n in range(12)],
)
def test_jacobi_witness_is_minus_twice_the_jacobiator(pi):
    xs = sympy.symbols(f"x0:{pi.dim}")
    ok, witness = jacobi_check(pi)
    jacobiators = []
    for i, j, k in itertools.combinations(range(pi.dim), 3):
        jac = sympy.expand(sympy_jacobiator(pi, xs, i, j, k))
        assert sympy.expand(to_sympy(witness.component((i, j, k)), xs) + 2 * jac) == 0
        jacobiators.append(jac)
    assert ok == all(jac == 0 for jac in jacobiators)


def sympy_moyal_terms(pi: Polyvector, f: Polynomial, g: Polynomial, order: int) -> list:
    """B_k(f, g) = P^k(f(x) g(y)) / (2^k k!) at y = x for k = 0..order,
    with P = sum_ij pi^ij d_{x_i} d_{y_j} on functions of two copies of R^dim."""
    dim = pi.dim
    xs = sympy.symbols(f"x0:{dim}")
    ys = sympy.symbols(f"y0:{dim}")
    m = [[to_sympy(pi.component((i, j)), xs) for j in range(dim)] for i in range(dim)]
    h = to_sympy(f, xs) * to_sympy(g, ys)
    out = []
    for k in range(order + 1):
        at_diagonal = h.subs(dict(zip(ys, xs)), simultaneous=True)
        out.append(sympy.expand(at_diagonal / (2**k * sympy.factorial(k))))
        h = sympy.expand(
            sum(
                (m[i][j] * sympy.diff(h, xs[i], ys[j]) for i in range(dim) for j in range(dim)),
                sympy.Integer(0),
            )
        )
    return out


def random_constant_bivector(dim: int) -> Polyvector:
    rng = random.Random(43)
    return Polyvector.bivector(
        dim, {ij: rand_fraction(rng) for ij in itertools.combinations(range(dim), 2)}
    )


@pytest.mark.parametrize(
    "pi",
    [canonical_pi2(), canonical_pi4(), random_constant_bivector(3)],
    ids=["canonical_R2", "canonical_R4", "random_R3"],
)
def test_moyal_terms_match_the_exponential_of_the_bidifferential(pi):
    order = 3
    star = moyal_star(pi, order)
    xs = sympy.symbols(f"x0:{pi.dim}")
    rng = random.Random(47 + pi.dim)
    top_nonzero = 0
    for _ in range(4):
        f = rand_poly(rng, pi.dim, degree=4, terms=3)
        g = rand_poly(rng, pi.dim, degree=4, terms=3)
        got = [sympy.expand(to_sympy(b, xs)) for b in star.eval(f, g)]
        assert got == sympy_moyal_terms(pi, f, g, order)
        top_nonzero += got[order] != 0
    assert top_nonzero  # the draws reach B_3


@pytest.mark.parametrize("seed", range(8))
def test_dict_product_and_derivative_match_expand_and_diff(seed):
    """poly._product against sympy.expand and poly._partial against sympy.diff, on
    Fraction coefficients and on their integer numerators."""
    rng = random.Random(53 + seed)
    dim = 1 + seed % 3
    xs = sympy.symbols(f"x0:{dim}")
    p, q = (rand_poly(rng, dim, degree=4, terms=4) for _ in range(2))
    if seed % 2:
        p, q = (Polynomial(dim, _integers(f.terms, 6)) for f in (p, q))
    product = Polynomial(dim, _product(p.terms, q.terms))
    assert sympy.expand(to_sympy(product, xs) - to_sympy(p, xs) * to_sympy(q, xs)) == 0
    for order in range(4):
        gamma = rand_multi_index(rng, dim, order)
        derivative = Polynomial(dim, _partial(p.terms, gamma))
        want = to_sympy(p, xs)
        for x, k in zip(xs, gamma):
            want = sympy.diff(want, x, k)
        assert sympy.expand(to_sympy(derivative, xs) - want) == 0
