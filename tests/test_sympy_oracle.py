"""The Jacobi witness against an independent sympy computation of the Jacobiator.

sympy is a test-only oracle: the package itself has no dependencies.
"""

import itertools
import random

import pytest
from helpers import non_poisson_pi, rand_polyvector, so3_pi

from starobs import Polynomial, Polyvector, jacobi_check

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
