"""Shared builders for the test suite: parsing shortcuts, random element
generators and the three reference scenarios used across modules."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Hashable, Sequence

from oracles import hamiltonian_field

from starobs import (
    ExactnessResult,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    RelativeClass,
    d_hor,
    moyal_star,
    parse_polynomial,
    poisson_bracket,
)
from starobs import obstruction, polydiff
from starobs.cli import ProblemError, _field, _integer, _parse_poly_field
from starobs.linsolve import LinearSolveResult, _SparseSystem, _weight_blocks, solve_sparse
from starobs.multivec import IndexTuple, sort_with_sign
from starobs.obstruction import _weight_map
from starobs.poly import (
    Exponents,
    PolynomialParseError,
    _accumulate,
    _ratio,
    add_exponents,
    exponents_upto,
    sub_exponents,
    zero_exponents,
)
from starobs.polydiff import (
    DerivKey,
    _binom_multi,
    _GeneratorTable,
    _key_differential,
    _leibniz,
    _numerated,
    _peel,
    _split_over,
    _sub_multi_indices,
    _TermMap,
)
from starobs.star import ExtensionResult, StarProduct

R2 = ["x", "p"]
R3 = ["x", "y", "z"]
R4 = ["x1", "x2", "p1", "p2"]
R4ZW = ["x", "y", "z", "w"]


def p2(text):
    return parse_polynomial(text, R2)


def p3(text):
    return parse_polynomial(text, R3)


def p4(text):
    return parse_polynomial(text, R4)


def pzw(text):
    return parse_polynomial(text, R4ZW)


def canonical_pi2() -> Polyvector:
    return Polyvector.bivector(2, {(0, 1): 1})


def canonical_pi4() -> Polyvector:
    return Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1})


def so3_pi() -> Polyvector:
    return Polyvector(
        3,
        2,
        {
            (0, 1): p3("z"),
            (1, 2): p3("x"),
            (0, 2): p3("-y"),
        },
    )


def non_poisson_pi() -> Polyvector:
    return Polyvector(3, 2, {(0, 1): p3("z"), (1, 2): p3("y")})


def plane_pi3() -> Polyvector:
    """Constant rank-2 bivector on three coordinates (z is a Casimir)."""
    return Polyvector.bivector(3, {(0, 1): 1})


def plane_pi4() -> Polyvector:
    """Constant rank-2 bivector on four coordinates (z, w are Casimirs)."""
    return Polyvector.bivector(4, {(0, 1): 1})


def flat_scenario(order: int = 4):
    """Star commutative on the subalgebra: nothing to eliminate."""
    star = moyal_star(plane_pi3(), order)
    system = IntegrableSystem(plane_pi3(), [p3("y"), p3("z")])
    return star, system


def removable_scenario():
    """Nonzero order-2 class that a gauge can remove."""
    extra = PolyDiffOp.single(3, [(0, 1, 0), (0, 0, 1)]) - PolyDiffOp.single(
        3, [(0, 0, 1), (0, 1, 0)]
    )
    star = moyal_star(plane_pi3(), 2).plus_term(2, extra)
    system = IntegrableSystem(plane_pi3(), [p3("y"), p3("z")])
    return star, system


def obstructed_scenario():
    """Nonzero order-2 class on Casimir generators: removable by nothing."""
    extra = PolyDiffOp.single(4, [(0, 0, 1, 0), (0, 0, 0, 1)]) - PolyDiffOp.single(
        4, [(0, 0, 0, 1), (0, 0, 1, 0)]
    )
    star = moyal_star(plane_pi4(), 2).plus_term(2, extra)
    system = IntegrableSystem(plane_pi4(), [pzw("z"), pzw("w")])
    return star, system


# -- random element generators ---------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return value if value else Fraction(1)


def rand_poly(rng: random.Random, dim: int, degree: int = 2, terms: int = 2) -> Polynomial:
    out = {}
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        out[tuple(exps)] = rand_fraction(rng)
    return Polynomial(dim, out)


def rand_multi_index(rng: random.Random, dim: int, order: int) -> tuple[int, ...]:
    exps = [0] * dim
    for _ in range(rng.randint(0, order)):
        exps[rng.randrange(dim)] += 1
    return tuple(exps)


def rand_op(
    rng: random.Random,
    dim: int,
    arity: int,
    order: int = 2,
    coeff_degree: int = 1,
    terms: int = 2,
) -> PolyDiffOp:
    acc = PolyDiffOp.zero(dim, arity)
    for _ in range(terms):
        key = tuple(rand_multi_index(rng, dim, order) for _ in range(arity))
        acc = acc + PolyDiffOp.single(
            dim, key, rand_poly(rng, dim, coeff_degree, terms=1)
        )
    return acc


def rand_polyvector(rng: random.Random, dim: int, degree: int) -> Polyvector:
    comps = {
        idx: rand_poly(rng, dim) for idx in itertools.combinations(range(dim), degree)
    }
    return Polyvector(dim, degree, comps)


def rand_vector_field(rng: random.Random, dim: int, degree: int = 1) -> Polyvector:
    return Polyvector(
        dim, 1, {(i,): rand_poly(rng, dim, degree) for i in range(dim)}
    )


# -- degree-tolerant polyvector comparison (zero brackets may clamp degree) -------


def pv_equal(a: Polyvector, b: Polyvector) -> bool:
    if a.degree != b.degree:
        return a.is_zero() and b.is_zero()
    return (a - b).is_zero()


def pv_add(a: Polyvector, b: Polyvector) -> Polyvector:
    if a.degree != b.degree:
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        raise AssertionError("incompatible degrees on nonzero polyvectors")
    return a + b


def scaled(P, factor):
    """A PolyDiffOp, Polyvector or RelativeClass with every coefficient times factor."""
    if isinstance(P, PolyDiffOp):
        return PolyDiffOp(P.dim, P.arity, {k: c * factor for k, c in P.terms.items()})
    return P._like({i: p * factor for i, p in P.components.items()})


def op_from_polynomial(p: Polynomial) -> PolyDiffOp:
    """The arity-0 operator of a function: multiplication by p."""
    return PolyDiffOp(p.dim, 0, {(): p})


def generator_monomials(system: IntegrableSystem, max_degree: int) -> list:
    """(exponents over the generators, expanded polynomial) pairs of the
    generator monomials up to max_degree, in lex order, read from the
    system's table and wrapped as Polynomials."""
    table = system._monomials
    return [
        (e, Polynomial(system.dim, table[table.zero, e]))
        for e in exponents_upto(system.size, max_degree)
    ]


def record_table_work(monkeypatch) -> tuple[list, list]:
    """(misses, products): lists that record the key of every generator-table
    miss and the second factor of every dict product, in polydiff and in
    obstruction, until monkeypatch is undone."""
    misses, products = [], []
    missing = _GeneratorTable.__missing__
    product = polydiff._product

    def counting_missing(self, key):
        misses.append(key)
        return missing(self, key)

    def counting_product(p, q):
        products.append(q)
        return product(p, q)

    monkeypatch.setattr(_GeneratorTable, "__missing__", counting_missing)
    monkeypatch.setattr(polydiff, "_product", counting_product)
    monkeypatch.setattr(obstruction, "_product", counting_product)
    return misses, products


def coordinate_field(dim: int, i: int) -> Polyvector:
    """The vector field d_i."""
    return Polyvector(dim, 1, {(i,): Polynomial.one(dim)})


def trivial_star(dim: int, order: int) -> StarProduct:
    """The undeformed product: every correction B_1..B_order zero."""
    return StarProduct(dim, order, [PolyDiffOp.zero(dim, 2)] * order)


def is_identity(D: FormalDiffeo) -> bool:
    """Whether every correction D_1..D_order is zero."""
    return all(op.is_zero() for op in D.corrections)


def row_labels(eqs: _SparseSystem) -> list:
    """A sparse system's row labels, in order of first use."""
    return list(eqs._row_index)


def sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# -- arity-tolerant operator comparison (brackets of two arity-0 operators
# -- clamp their formal arity -1 to 0, so zero results may disagree in arity)


def op_equal(a: PolyDiffOp, b: PolyDiffOp) -> bool:
    if a.arity != b.arity:
        return a.is_zero() and b.is_zero()
    return (a - b).is_zero()


def op_add(a: PolyDiffOp, b: PolyDiffOp) -> PolyDiffOp:
    if a.arity != b.arity:
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        raise AssertionError("incompatible arities on nonzero operators")
    return a + b


# -- the HKR map and the vector-field lift, the reference for the operator lift ----


def hkr_to_cochain(P: Polyvector) -> PolyDiffOp:
    """Antisymmetrized first-order cochain of a polyvector field.

    Degree k maps to the arity-k operator
    (1/k!) sum_sigma sgn(sigma) X_1(g_sigma(1)) ... X_k(g_sigma(k)),
    expanded on the coordinate decomposition of P; degree 0 gives
    multiplication by the function, an arity-0 operator.
    """
    dim = P.dim
    k = P.degree
    terms: dict[DerivKey, Polynomial] = {}
    norm = Fraction(1, math.factorial(k))
    units = [tuple(1 if t == s else 0 for t in range(dim)) for s in range(dim)]
    for idx, c in P.components.items():
        for sigma in itertools.permutations(range(k)):
            sign = sort_with_sign(sigma)[1]
            derivs: list[Exponents] = [zero_exponents(dim)] * k
            for a in range(k):
                derivs[sigma[a]] = units[idx[a]]
            _accumulate(terms, tuple(derivs), c * (norm * sign))
    return PolyDiffOp(dim, k, terms)


def polynomials(dim: int, solved: dict) -> dict:
    """{key: Polynomial} from a _SparseSystem._solve solution {key: {monomial: value}},
    each by the validating constructor, as the solves built them before they read
    the grouped solution as it comes."""
    return {key: Polynomial(dim, t) for key, t in solved.items()}


def reference_lift_witness(
    system: IntegrableSystem, Y: RelativeClass, degree_bound: int
) -> Polyvector | None:
    """Vector field V with V(f_j) = Y_j for every generator, column (e, (k,))
    for x^e d_k, post-checked through hkr_to_cochain: the lift as it was
    solved before it returned its derivation."""
    dim = system.dim
    if Y.is_zero():
        return Polyvector.zero(dim, 1)
    emons = exponents_upto(dim, degree_bound)
    eqs = _SparseSystem([(e, (k,)) for k in range(dim) for e in emons])
    for j, g in enumerate(system.generators):
        for k in range(dim):
            partial = g.partial(k)
            for e in emons:
                for mono, v in (Polynomial.monomial(dim, e) * partial).terms.items():
                    eqs._add((j, mono), (e, (k,)), v)
        for mono, v in Y.component((j,)).terms.items():
            eqs._add_rhs((j, mono), v)
    solved = eqs._solve()
    if solved is None:
        return None
    field_ = Polyvector(dim, 1, polynomials(dim, solved))
    derivation = hkr_to_cochain(field_)
    assert all(derivation.apply([g]) == Y.component((j,)) for j, g in enumerate(system.generators))
    return field_


def reference_exactness_solve(
    system: IntegrableSystem, c: RelativeClass, degree_bound: int
) -> ExactnessResult:
    """obstruction.exactness_solve with one Poisson bracket {f_i, x^e} per
    generator and ansatz monomial, each a Polynomial, as it was assembled before
    it shifted {f_i, x_k} by each monomial; the witness is post-checked."""
    n, dim = system.size, system.dim
    if c.is_zero():
        return ExactnessResult(witness=RelativeClass.zero(dim, n, 1))
    if all(hamiltonian_field(system.pi, g).is_zero() for g in system.generators):
        return ExactnessResult(certificate="zero_image")
    emons = exponents_upto(dim, degree_bound)
    brackets = {
        (i, e): poisson_bracket(system.pi, g, Polynomial.monomial(dim, e))
        for i, g in enumerate(system.generators)
        for e in emons
    }
    eqs = _SparseSystem([(e, (j,)) for j in range(n) for e in emons])
    for i in range(n):
        for j in range(i + 1, n):
            for e in emons:
                for mono, v in brackets[(i, e)].terms.items():
                    eqs._add(((i, j), mono), (e, (j,)), v)
                for mono, v in brackets[(j, e)].terms.items():
                    eqs._add(((i, j), mono), (e, (i,)), -v)
            for mono, v in c.component((i, j)).terms.items():
                eqs._add_rhs(((i, j), mono), v)
    solved = eqs._solve()
    if solved is None:
        return ExactnessResult(certificate="rank_at_bound")
    witness = RelativeClass(dim, n, 1, polynomials(dim, solved))
    assert d_hor(system, witness) == c
    return ExactnessResult(witness=witness)


# -- per-column ansatz assemblers, the reference for the factored kernels ---------


def reference_unary_rows(target, mons, alphas, emons):
    """Labels, rows and rhs of d(D) = -target with one apply triple per column.

    Column (e, a) is x^e d^a in the order [(e, a) for a in alphas for e in
    emons]; d(op)(u, v) = u op(v) - op(uv) + op(u) v is evaluated for every
    column and every pair of generator monomials.
    """
    dim = target.dim
    basis_ops = [
        PolyDiffOp.single(dim, (a,), Polynomial.monomial(dim, e)) for a in alphas for e in emons
    ]
    row_index = {}
    rows, rhs = [], []

    def row_of(key):
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append({})
            rhs.append(Fraction(0))
        return row_index[key]

    for (ue, u), (ve, v) in itertools.product(mons, repeat=2):
        uv = u * v
        for ci, op in enumerate(basis_ops):
            value = u * op.apply([v]) - op.apply([uv]) + op.apply([u]) * v
            for mono, c in value.terms.items():
                r = row_of(((ue, ve), mono))
                rows[r][ci] = rows[r].get(ci, Fraction(0)) + c
        for mono, c in target.apply([u, v]).terms.items():
            rhs[row_of(((ue, ve), mono))] = -c
    return list(row_index), rows, rhs


def reference_pair_unary_rows(
    target: PolyDiffOp,
    system: IntegrableSystem,
    degree: int,
    alphas: list[Exponents],
    emons: list[Exponents],
) -> _SparseSystem | None:
    """The live weight blocks of d(D) = -target on all pairs of generator
    monomials of degree <= `degree`, read from the system's table: the pair
    assembler the unary gauge solve used before it moved to generator
    monomials, kept as the reference for that layout.

    D ranges over x^e d^a, column (e, (a,)), in the order
    [(e, (a,)) for a in alphas for e in emons].  A row is labelled by the
    pair's generator exponents and an ambient monomial.

    Scaling by _weight_map(system) commutes with d and with the order-0
    product, and generator monomials are homogeneous, so column x^e d^a only
    meets rows whose ambient monomial, less those of u and v, weighs
    weight(e - a).  The system is thus block-diagonal, and a block with a
    zero right-hand side is consistent with its columns zero in the solution,
    so only the columns of live weights (those of rows where the target's
    table is nonzero) are kept, in the order above, with d^a only for their
    alphas.  None when a live weight has no column: its block reads 0 = b, b != 0.
    """
    weight = _weight_map(system)
    mons = generator_monomials(system, degree)
    table = ReferenceGeneratorTable(system)
    values = dict(reference_table_restricted_items(target, system, degree))
    # generator monomials are homogeneous: one monomial gives each one's weight
    ambient = {ue: next(iter(u.terms)) for ue, u in mons if not u.is_zero()}
    live = {
        weight(sub_exponents(mono, add_exponents(ambient[ue], ambient[ve])))
        for (ue, ve), value in values.items()
        for mono in value.terms
    }
    # weight is linear: weight(e - a) = weight(e) - weight(a), each weighed once
    e_weights = [(e, weight(e)) for e in emons]
    by_alpha: dict[Exponents, list[Exponents]] = {}
    reached = set()
    for a in alphas:
        wa = weight(a)
        for e, we in e_weights:
            w = sub_exponents(we, wa)
            if w in live:
                by_alpha.setdefault(a, []).append(e)
                reached.add(w)
    if reached != live:
        return None
    eqs = _SparseSystem([(e, (a,)) for a, es in by_alpha.items() for e in es])
    # d(d^a) = 0 for |a| = 1, a derivation: those columns meet no row
    evaluated = [(a, es) for a, es in by_alpha.items() if sum(a) != 1]
    for (ue, u), (ve, v) in itertools.product(mons, repeat=2):
        uve = add_exponents(ue, ve)
        for a, es in evaluated:
            du, dv, duv = table[a, ue], table[a, ve], table[a, uve]
            if du or dv or duv:
                # d(x^e D) = x^e d(D) (order 0 is commutative): w_a = d(d^a)(u, v) serves every e
                w = u * dv - duv + du * v
                for e in es:
                    column = (e, (a,))
                    for mono, c in w.terms.items():
                        eqs._add(((ue, ve), add_exponents(mono, e)), column, c)
        value = values.get((ue, ve))
        if value is not None:
            for mono, c in value.terms.items():
                eqs._add_rhs(((ue, ve), mono), -c)
    return eqs


def reference_pair_unary_correction(s, system, n, bounds):
    """The unary gauge solve on the rows of reference_pair_unary_rows, at
    degree max(order(B_n), op order), as it ran before the monomial rows."""
    target = s.term(n)
    alphas = exponents_upto(system.dim, bounds.op_order)
    emons = exponents_upto(system.dim, bounds.degree)
    degree = max(target.order(), bounds.op_order)
    eqs = reference_pair_unary_rows(target, system, degree, alphas, emons)
    solved = None if eqs is None else eqs._solve()
    if solved is None:
        return None
    return PolyDiffOp(system.dim, 1, polynomials(system.dim, solved))


def reference_unary_correction(s, system, n, bounds):
    """The unary gauge solve assembled column by column."""
    target = s.term(n)
    slot_degree = max(target.order(), bounds.op_order) + 1
    mons = generator_monomials(system, slot_degree)
    alphas = exponents_upto(system.dim, bounds.op_order)
    emons = exponents_upto(system.dim, bounds.degree)
    basis = [(e, a) for a in alphas for e in emons]
    _, rows, rhs = reference_unary_rows(target, mons, alphas, emons)
    result = solve_sparse(rows, rhs, len(basis))
    if not result.solved:
        return None
    acc = PolyDiffOp.zero(system.dim, 1)
    for ci, v in result.solution.items():
        e, a = basis[ci]
        acc = acc + PolyDiffOp.single(system.dim, (a,), Polynomial.monomial(system.dim, e, v))
    return acc


def _op_coordinates(op):
    """{(derivative key, coefficient monomial): coefficient} of an operator."""
    coords = {}
    for key, poly in op.terms.items():
        for emon, c in poly.terms.items():
            coords[(key, emon)] = c
    return coords


def reference_extend_one_order(s, coefficient_degree, operator_order):
    """The one-order extension as one scalar system over every column x^e d^key.

    Columns are (e, key), key-major, each the coordinates of one
    d(d^key) per key shifted by e; rows are (arity-3 key, monomial).
    """
    n = s.order
    dim = s.dim
    target = associator(s, n + 1, range(1, n + 1))
    alphas = exponents_upto(dim, operator_order)
    emons = exponents_upto(dim, coefficient_degree)
    basis = [(e, key) for key in itertools.product(alphas, repeat=2) for e in emons]
    per_key = {}
    eqs = _SparseSystem(basis)
    for emon, key in basis:
        coords = per_key.get(key)
        if coords is None:
            d_key = reference_hochschild_d(PolyDiffOp.single(dim, key))
            coords = per_key[key] = _op_coordinates(d_key)
        for (dkey, mono), c in coords.items():
            eqs._add((dkey, add_exponents(mono, emon)), (emon, key), c)
    for coord, v in _op_coordinates(target).items():
        eqs._add_rhs(coord, v)
    solved = eqs._solve()
    if solved is None:
        return ExtensionResult()
    particular = PolyDiffOp(dim, 2, polynomials(dim, solved))
    extended = StarProduct(dim, n + 1, list(s.corrections) + [particular])
    assert extended.assoc_residual(n + 1).is_zero()
    return ExtensionResult(particular, extended)


# -- the weight-block filters that linsolve._weight_blocks replaced ---------------


def reference_unary_columns(weight, live, dim, bounds):
    """_unary_ansatz_rows' columns (e, (a,)) as its own filter chose them: every
    (e, a) pair weighed as weight(e) - weight(a), a-major, kept when that weight
    is live; None when some live weight has no pair."""
    e_weights = [(e, weight(e)) for e in exponents_upto(dim, bounds.degree)]
    a_weights = [(a, weight(a)) for a in exponents_upto(dim, bounds.op_order)]
    if not live <= {sub_exponents(we, wa) for _, wa in a_weights for _, we in e_weights}:
        return None
    by_alpha = [
        (a, [e for e, we in e_weights if sub_exponents(we, wa) in live]) for a, wa in a_weights
    ]
    return [(e, (a,)) for a, es in by_alpha for e in es]


def reference_extension_keys(target, dim, operator_order):
    """extend_one_order's derivative keys (a, b) as its own filter chose them while
    it listed the freedom: |a|, |b| <= K in product order, kept when |a| + |b| <=
    K + 1 or a + b is the weight of a key of the target."""
    weights = {tuple(map(sum, zip(*k))) for k in target.terms}
    return [
        (a, b)
        for a, b in itertools.product(exponents_upto(dim, operator_order), repeat=2)
        if sum(a) + sum(b) <= operator_order + 1 or tuple(map(sum, zip(a, b))) in weights
    ]


# -- term-by-term Hochschild differential, the reference for the key-factored one --


def reference_hochschild_d(op: PolyDiffOp) -> PolyDiffOp:
    """Hochschild differential, arity k -> k+1, expanded term by term.

    d phi (f_1..f_{k+1}) = f_1 phi(f_2..) + sum_j (-1)^j phi(.., f_j f_{j+1}, ..)
                          + (-1)^(k+1) phi(..) f_{k+1}.
    """
    k = op.arity
    dim = op.dim
    z = zero_exponents(dim)
    terms: dict[DerivKey, Polynomial] = {}
    sign_last = -1 if (k + 1) % 2 else 1
    for key, c in op.terms.items():
        _accumulate(terms, (z,) + key, c)
        _accumulate(terms, key + (z,), c * sign_last)
        for j in range(1, k + 1):
            alpha = key[j - 1]
            sign = -1 if j % 2 else 1
            for beta in _sub_multi_indices(alpha):
                rest = tuple(a - b for a, b in zip(alpha, beta))
                weight = _binom_multi(alpha, beta) * sign
                _accumulate(terms, key[: j - 1] + (beta, rest) + key[j:], c * weight)
    return PolyDiffOp(dim, k + 1, terms)


# -- the boundary-term loop, the reference for the proper-split differential ---------


def reference_key_differential(dim: int, key: DerivKey) -> dict[DerivKey, int]:
    """polydiff._key_differential as it was before it enumerated only proper splits:
    the boundary terms (z,) + key and key + (z,), then every Leibniz split of
    every slot, each added by _accumulate, so cancelled keys are deleted and a
    key put back after its deletion moves to the end."""
    k = len(key)
    z = zero_exponents(dim)
    terms: dict[DerivKey, int] = {}
    _accumulate(terms, (z,) + key, 1)
    _accumulate(terms, key + (z,), (-1) ** (k + 1))
    for j in range(1, k + 1):
        sign = (-1) ** j
        head, tail = key[: j - 1], key[j:]
        for beta, rest, weight in _leibniz(key[j - 1]):
            _accumulate(terms, head + (beta, rest) + tail, sign * weight)
    return terms


# -- the all-rows extension solve, the reference for the one-row-per-pinned-column one


def reference_extension_matrix(dim: int, live: dict, bound: int):
    """The column keys of star._solve_columns and its M by rows,
    {arity-3 key: {column: entry}}, built by reference_key_differential."""
    splits = (split[:2] for w in set(live.values()) for split in _leibniz(w))
    keys = sorted(key for key in splits if max(map(sum, key)) <= bound)
    matrix: dict[DerivKey, dict[int, int]] = {}
    for ci, key in enumerate(keys):
        for dkey, v in reference_key_differential(dim, key).items():
            matrix.setdefault(dkey, {})[ci] = v
    return keys, matrix


def reference_solve_columns(dim: int, terms: _TermMap, live: dict, bound: int):
    """star._solve_columns as it was before it dropped the repeated one-entry
    rows of a column: every row of M goes to solve_sparse, which alone checks
    consistency."""
    keys, matrix = reference_extension_matrix(dim, live, bound)
    if not all(k in matrix for k in live):
        return None
    rhs = [terms.get(k, {}) for k in matrix]
    result = solve_sparse(list(matrix.values()), rhs, len(keys))
    if not result.solved:
        return None
    coefficients: dict[DerivKey, dict] = {}
    for e, block in result.solution.items():
        for ci, v in block.items():
            coefficients.setdefault(keys[ci], {})[e] = _ratio(v, terms.den)
    return PolyDiffOp._trusted(dim, 2, *_numerated(coefficients))


# -- Leibniz rule split per pair of terms, the reference for compose_at -------------


def reference_splittings(alpha, parts):
    """Ways to write alpha as an ordered sum of `parts` multi-indices.

    Returns (split, multinomial coefficient) pairs; the coefficient is the
    product over coordinates of multinomials, i.e. the Leibniz weight of
    distributing d^alpha over `parts` factors.
    """
    if parts == 0:
        return [((), 1)] if all(a == 0 for a in alpha) else []
    if parts == 1:
        return [((alpha,), 1)]
    out = []
    for beta in _sub_multi_indices(alpha):
        remainder = tuple(a - b for a, b in zip(alpha, beta))
        weight = _binom_multi(alpha, beta)
        for rest, w in reference_splittings(remainder, parts - 1):
            out.append(((beta,) + rest, weight * w))
    return out


def reference_compose_at(op: PolyDiffOp, slot: int, inner: PolyDiffOp) -> PolyDiffOp:
    """Insert `inner` into argument slot `slot` (0-based), no sign.

    Every pair of (outer term, inner term) splits the slot's d^alpha over
    the inner coefficient and the inner slots anew, and differentiates the
    inner coefficient anew.
    """
    if not 0 <= slot < op.arity:
        raise IndexError(f"slot {slot} out of range for arity {op.arity}")
    if inner.dim != op.dim:
        raise ValueError("dimension mismatch")
    j = inner.arity
    out_terms: dict[DerivKey, Polynomial] = {}
    for key, c_out in op.terms.items():
        alpha = key[slot]
        for in_key, c_in in inner.terms.items():
            for split, weight in reference_splittings(alpha, j + 1):
                gamma0, gammas = split[0], split[1:]
                coeff = reference_mul(c_out, reference_partial_multi(c_in, gamma0))
                if coeff.is_zero():
                    continue
                if weight != 1:
                    coeff = coeff * weight
                inserted = tuple(
                    add_exponents(b, g) for b, g in zip(in_key, gammas)
                )
                _accumulate(out_terms, key[:slot] + inserted + key[slot + 1 :], coeff)
    return PolyDiffOp(op.dim, op.arity + j - 1, out_terms)


def associator(s: StarProduct, n: int, ks) -> PolyDiffOp:
    """sum over k in ks of B_k(B_{n-k}(.,.),.) - B_k(., B_{n-k}(.,.)) as an
    operator: StarProduct._insertions' integer term map, divided out."""
    return PolyDiffOp._from_term_map(s.dim, 3, s._insertions(n, ks, _TermMap()))


def reference_associator(s: StarProduct, n: int, ks) -> PolyDiffOp:
    """sum over k in ks of B_k(B_{n-k}(.,.),.) - B_k(., B_{n-k}(.,.)), compose then merge.

    Every insertion is built as an operator by compose_at, and the slot-1
    operators are negated term by term before they are merged in.
    """
    terms: dict[DerivKey, Polynomial] = {}
    for k in ks:
        outer, inner = s.term(k), s.term(n - k)
        for key, c in outer.compose_at(0, inner).terms.items():
            _accumulate(terms, key, c)
        for key, c in outer.compose_at(1, inner).terms.items():
            _accumulate(terms, key, -c)
    return PolyDiffOp(s.dim, 3, terms)


# -- term maps of exact coefficients, the reference for the integer ones -------------


def reference_compose_into(op: PolyDiffOp, terms: dict, slot: int, inner: PolyDiffOp, sign: int):
    """Add sign * (op with `inner` in slot `slot`) to the term map `terms`.

    `terms` maps derivative keys to {monomial: coefficient}, int or
    Fraction, and every contribution is added as a Fraction product.  By
    the Leibniz rule, the slot's d^alpha is split into d^gamma0 on the inner
    coefficient and the rest, split over the inner slots only where d^gamma0
    of the coefficient is nonzero: terms come in the order of splitting alpha
    over all 1 + inner.arity factors, the first varying slowest.
    """
    derivs: list[dict[Exponents, Polynomial]] = [{} for _ in inner.terms]
    for key, c_out in op.terms.items():
        head, tail = key[:slot], key[slot + 1 :]
        for (in_key, c_in), d_in in zip(inner.terms.items(), derivs):
            for gamma0, rest, w0 in _leibniz(key[slot]):
                dc = d_in.get(gamma0)
                if dc is None:
                    dc = d_in[gamma0] = reference_partial_multi(c_in, gamma0)
                if not dc:
                    continue
                splits = _split_over(rest, inner.arity)
                if not splits:
                    continue
                base = reference_product(c_out.terms, dc.terms)
                for gammas, w in splits:
                    weight = sign * w0 * w
                    inserted = tuple(map(add_exponents, in_key, gammas))
                    acc = terms.setdefault(head + inserted + tail, {})
                    for mono, c in base.items():
                        _accumulate(acc, mono, c * weight if weight != 1 else c)


def reference_differential_into(terms: dict, op: PolyDiffOp, sign: int) -> None:
    """Add sign * hochschild_d(op) to the exact-coefficient term map `terms`:
    each term c d^key of op adds c times the integer operator
    _key_differential(key)."""
    for key, c in op.terms.items():
        for dkey, weight in _key_differential(op.dim, key).items():
            weight *= sign
            acc = terms.setdefault(dkey, {})
            for mono, v in c.terms.items():
                _accumulate(acc, mono, v * weight if weight != 1 else v)


def reference_from_term_map(dim: int, arity: int, terms: dict) -> PolyDiffOp:
    """The operator of an exact-coefficient term map, without its cancelled keys."""
    polys = {k: Polynomial._trusted(dim, t) for k, t in terms.items() if t}
    return PolyDiffOp(dim, arity, polys)


# -- the coefficient-dict loops that the poly kernels replaced ----------------------
# Each is the loop as it stood before poly held one kernel per operation, and calls
# none of those kernels (_accumulate is the one shared step), so that a reference
# built on them stays independent of the code it checks.


def reference_product(p: dict, q: dict) -> dict:
    """The product of two coefficient dicts by Polynomial.__mul__'s own loop."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _accumulate(out, add_exponents(e1, e2), c1 * c2)
    return out


def reference_sum(p: dict, q: dict) -> dict:
    """A copy of p with q added, by Polynomial.__add__'s own loop."""
    out = dict(p)
    for e, c in q.items():
        _accumulate(out, e, c)
    return out


def reference_add_multiple(target: dict, source: dict, f) -> None:
    """target += f * source in place, by the solver's own _add_multiple loop."""
    for c, v in source.items():
        _accumulate(target, c, f * v)


def reference_partial(p: Polynomial, i: int) -> Polynomial:
    """d_i p by Polynomial.partial's own loop, as it was before it called _partial."""
    terms: dict = {}
    for exps, c in p.terms.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            _accumulate(terms, tuple(e), c * exps[i])
    return Polynomial._trusted(p.dim, terms)


def reference_partial_multi(p: Polynomial, alpha: Exponents) -> Polynomial:
    """d^alpha of p as iterated single-variable derivatives by reference_partial:
    Polynomial.partial_multi as it was before it took the multi-index in one pass."""
    for i, k in enumerate(alpha):
        for _ in range(k):
            p = reference_partial(p, i)
            if p.is_zero():
                return p
    return p


def reference_numerators(op: PolyDiffOp) -> tuple[int, dict]:
    """(d, {key: {monomial: int}}) from op's Polynomial coefficients, as
    polydiff._numerators computed it before operators stored it: the
    coefficients as numerators over d, the lcm of their denominators."""
    den = math.lcm(*[v.denominator for c in op.terms.values() for v in c.terms.values()])
    if den == 1:
        return 1, {key: c.terms for key, c in op.terms.items()}
    return den, {key: {e: v.numerator * (den // v.denominator) for e, v in c.terms.items()}
                 for key, c in op.terms.items()}


def reference_divided(t: dict, den: int) -> dict:
    """A copy of t with each value divided by den, by polydiff._divided's own
    expression: v // den where den divides v, Fraction(v, den) otherwise."""
    if den == 1:
        return dict(t)
    return {mono: v // den if not v % den else Fraction(v, den) for mono, v in t.items()}


def reference_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return Polynomial._trusted(p.dim, reference_product(p.terms, q.terms))


def reference_add(p: Polynomial, q: Polynomial) -> Polynomial:
    return Polynomial._trusted(p.dim, reference_sum(p.terms, q.terms))


def reference_poly_det(matrix: list[list[Polynomial]]) -> Polynomial:
    """The determinant of a square matrix of Polynomials by cofactor expansion along
    the first row, in Polynomial arithmetic: the validation's minors as they were
    taken before they ran on the Jacobian table's dicts."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].dim)
    for c in range(n):
        entry = matrix[0][c]
        if entry.is_zero():
            continue
        minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
        term = entry * reference_poly_det(minor)
        total = total + (term if c % 2 == 0 else -term)
    return total


def reference_poisson_bracket(pi: Polyvector, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_{i<j} pi_ij (d_i f d_j g - d_j f d_i g) in Polynomial arithmetic on
    the replaced loops: multivec.poisson_bracket as it was before it ran on poly's
    dict kernels."""
    total = Polynomial.zero(f.dim)
    for (i, j), c in pi.components.items():
        fi, fj = reference_partial(f, i), reference_partial(f, j)
        gi, gj = reference_partial(g, i), reference_partial(g, j)
        term = reference_add(reference_mul(fi, gj), -reference_mul(fj, gi))
        total = reference_add(total, reference_mul(c, term))
    return total


def reference_total(polys, dim: int) -> Polynomial:
    """The sum of polys, left to right, by reference_add."""
    total = Polynomial.zero(dim)
    for p in polys:
        total = reference_add(total, p)
    return total


def reference_apply(op: PolyDiffOp, args: Sequence[Polynomial]) -> Polynomial:
    """PolyDiffOp.apply on the replaced loops: each term's coefficient times its
    slots' derivatives, left to right, stopped at a zero, summed in op.terms order."""
    total = Polynomial.zero(op.dim)
    for key, coeff in op.terms.items():
        value = coeff
        for alpha, arg in zip(key, args):
            value = reference_mul(value, reference_partial_multi(arg, alpha))
            if value.is_zero():
                break
        total = reference_add(total, value)
    return total


# -- per-tuple restricted table, the reference for the memoized one ----------------


def reference_restricted_values(op, system, slot_degree):
    """Values of op on all tuples of generator monomials, one apply per tuple."""
    mons = generator_monomials(system, slot_degree)
    return {
        tuple(e for e, _ in combo): reference_apply(op, [p for _, p in combo])
        for combo in itertools.product(mons, repeat=op.arity)
    }


def reference_restricted_items(op, mons):
    """(per-slot generator exponents, op value) on every tuple of mons, zeros
    included, lazily and in itertools.product order.  A term's product
    c * d^a_1 u_1 * ... is shared by the tuples with the same leading slots,
    and every term, dead or not, is carried and tested at every slot: the
    dense walk the sparse `_restricted_items` replaced."""
    alphas = {a for key in op.terms for a in key}
    derivs = {a: {e: reference_partial_multi(p, a) for e, p in mons} for a in alphas}

    def walk(slot, exps, partials):
        if slot == op.arity:
            yield exps, reference_total(filter(None, partials), op.dim)
            return
        for e, _ in mons:
            step = [
                reference_mul(v, derivs[key[slot]][e]) if v else v
                for key, v in zip(op.terms, partials)
            ]
            yield from walk(slot + 1, exps + (e,), step)

    return walk(0, (), list(op.terms.values()))


# -- the Polynomial kernels on generator monomials, the reference for the raw table --


class ReferenceGeneratorTable(dict):
    """d^a of the generator monomials as Polynomials, keyed by (a, generator
    exponents), each built on its first lookup: the monomial as _peel's
    shorter one times its generator, by reference_mul, and d^a of it by
    reference_partial_multi.  The table the systems held before their
    entries became plain dicts, on the loops Polynomial ran then."""

    def __init__(self, system: IntegrableSystem):
        super().__init__()
        self.generators = system.generators
        self.zero = zero_exponents(system.dim)

    def __missing__(self, key):
        a, e = key
        if any(a):
            p = reference_partial_multi(self[self.zero, e], a)
        elif any(e):
            i, rest = _peel(e)
            p = reference_mul(self[self.zero, rest], self.generators[i])
        else:
            p = Polynomial.one(len(self.zero))
        self[key] = p
        return p


def reference_table_restricted_items(op, system, degree):
    """The sparse stream of polydiff._restricted_items in Polynomials: each
    term's partial product c * d^a_1 u_1 * ... is a Polynomial with op's own
    coefficients, read from a ReferenceGeneratorTable and multiplied and
    summed by the replaced loops."""
    mons = exponents_upto(system.size, degree)
    table = ReferenceGeneratorTable(system)
    alphas = {a for key in op.terms for a in key}
    derivs = {a: {e: table[a, e] for e in mons} for a in alphas}

    def walk(slot, exps, live):
        if slot == op.arity:
            value = reference_total((v for _, v in live), op.dim)
            if value:
                yield exps, value
            return
        for e in mons:
            step = []
            for key, v in live:
                d = derivs[key[slot]][e]
                if d:
                    step.append((key, reference_mul(v, d)))
            if step:
                yield from walk(slot + 1, exps + (e,), step)

    live = list(op.terms.items())
    return walk(0, (), live) if live else iter(())


def reference_raw_class(s: StarProduct, system: IntegrableSystem, n: int) -> RelativeClass:
    """obstruction._raw_class by one reference_apply per ordered pair of generators."""
    op = s.term(n)
    gens = system.generators
    pairs = itertools.permutations(range(len(gens)), 2)
    comps = {(i, j): reference_apply(op, [gens[i], gens[j]]) for i, j in pairs}
    return RelativeClass(system.dim, len(gens), 2, comps)


def reference_unary_ansatz_rows(target, system, bounds):
    """obstruction._unary_ansatz_rows in Polynomials: B(f^ue, f^ve), phi0 and the
    column polynomials w are Polynomials with the target's own coefficients,
    read from a ReferenceGeneratorTable and built by the replaced loops."""
    weight = _weight_map(system)
    table = ReferenceGeneratorTable(system)
    z = table.zero
    degree = max(target.order(), bounds.op_order) + 1
    exps = exponents_upto(system.size, degree)
    units = [tuple(int(k == i) for k in range(system.size)) for i in range(system.size)]
    nought = Polynomial.zero(system.dim)

    def on(ue, ve):  # B(f^ue, f^ve)
        products = (
            reference_mul(reference_mul(c, table[a, ue]), table[b, ve])
            for (a, b), c in target.terms.items()
        )
        return reference_total(products, system.dim)

    phi0 = {exps[0]: -on(exps[0], exps[0])}
    for alpha in exps[1:]:
        i, m = _peel(alpha)
        if any(m):
            shifted = reference_mul(phi0[m], system.generators[i])
            phi0[alpha] = reference_add(shifted, on(m, units[i]))
        else:
            phi0[alpha] = nought
    live = {
        weight(sub_exponents(mono, next(iter(table[z, alpha].terms))))
        for alpha, value in phi0.items()
        for mono in value.terms
    }
    by_alpha, unreached = _weight_blocks(
        [(a, tuple(-w for w in weight(a))) for a in exponents_upto(system.dim, bounds.op_order)],
        [(e, weight(e)) for e in exponents_upto(system.dim, bounds.degree)],
        live,
    )
    if unreached:
        return None
    eqs = _SparseSystem([(e, (a,)) for a, es in by_alpha for e in es])
    for alpha in exps:
        lower = [(x, u, table[z, sub_exponents(alpha, u)]) for x, u in zip(alpha, units) if x]
        for a, es in by_alpha:
            if sum(a) != 1:
                chain = (reference_mul(f * x, table[a, u]) for x, u, f in lower)
                w = reference_add(table[a, alpha], -reference_total(chain, system.dim))
                for e in es:
                    for mono, c in w.terms.items():
                        eqs._add((alpha, add_exponents(mono, e)), (e, (a,)), c)
        for mono, c in phi0[alpha].terms.items():
            eqs._add_rhs((alpha, mono), c)
    return eqs


# -- row-by-pivot Gauss-Jordan, the reference for the indexed solver ---------------


def reference_solve_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction],
    ncols: int,
    want_nullspace: bool = False,
) -> LinearSolveResult:
    """Solve A x = b for sparse rows over exact rationals.

    Returns a particular solution with free variables set to zero, plus
    (optionally) a basis of the homogeneous solution space.  If the
    system is inconsistent the result carries the nonzero residual of a
    row that reduced to 0 = residual.

    The pivot rows end in the reduced row-echelon form of the system for
    the given column order, which is unique: a solved result (solution,
    rank, nullspace) therefore does not depend on the order of the rows.
    Only an infeasible result's residual and partial rank do, as they come
    from the first row found inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    work = [dict(r) for r in rows]
    b = list(rhs)
    pivot_of_col: dict[int, int] = {}
    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order

    for r in range(len(work)):
        row = work[r]
        # eliminate known pivots from this row
        for pr, pc in pivots:
            factor = row.get(pc)
            if not factor:
                continue
            prow = work[pr]
            for c, v in prow.items():
                nv = row.get(c, Fraction(0)) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            b[r] -= factor * b[pr]
        if not row:
            if b[r]:
                return LinearSolveResult(rank=len(pivots), residual=b[r])
            continue
        # normalize on the smallest-index column for determinism
        pc = min(row)
        pivot = Fraction(row[pc])
        if pivot != 1:
            for c in list(row):
                row[c] /= pivot
            b[r] /= pivot
        # back-eliminate from earlier pivot rows
        for pr, _ in pivots:
            factor = work[pr].get(pc)
            if not factor:
                continue
            prow = work[pr]
            for c, v in row.items():
                nv = prow.get(c, Fraction(0)) - factor * v
                if nv:
                    prow[c] = nv
                else:
                    prow.pop(c, None)
            b[pr] -= factor * b[r]
        pivots.append((r, pc))
        pivot_of_col[pc] = r

    solution = {pc: b[pr] for pr, pc in pivots if b[pr]}
    nullspace: list[dict[int, Fraction]] = []
    if want_nullspace:
        for fc in (c for c in range(ncols) if c not in pivot_of_col):
            vec: dict[int, Fraction] = {fc: Fraction(1)}
            for pr, pc in pivots:
                v = work[pr].get(fc)
                if v:
                    vec[pc] = -v
            nullspace.append(vec)
    return LinearSolveResult(solution=solution, rank=len(pivots), nullspace=nullspace)


# -- indexed Gauss-Jordan in Fractions, the reference for the integer solver -------


def reference_fraction_solve_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction] | list[dict[Hashable, Fraction]],
    ncols: int,
    want_nullspace: bool = False,
) -> LinearSolveResult:
    """Solve A x = b for sparse rows over exact rationals, in Fractions.

    The indexed Gauss-Jordan elimination that ``linsolve.solve_sparse`` ran
    before it eliminated in integers: each pivot row is normalized to a 1 in
    its pivot column, so its other entries become Fractions.

    Returns a particular solution with free variables set to zero, plus
    (optionally) a basis of the homogeneous solution space.  If the
    system is inconsistent the result carries the nonzero residual of a
    row that reduced to 0 = residual.

    Each right-hand side entry is a number, or a sparse vector (a dict
    from label to number) to solve A x = b_label for every label at once.
    A scalar right-hand side is the single-label case: with vectors, the
    solution maps each label to its own solution dict (labels whose
    solution is zero are absent), the system is infeasible as soon as any
    label is, and the residual is the offending row's vector.

    The pivot rows end in the reduced row-echelon form of the system for
    the given column order, which is unique: a solved result (solution,
    rank, nullspace) therefore does not depend on the order of the rows.
    Only an infeasible result's residual and partial rank do, as they come
    from the first row found inconsistent.

    The pivot rows are kept reduced against each other: each has a 1 in
    its own pivot column and a 0 in every other pivot column.  A new row
    is therefore cleared by the pivot rows of the pivot columns it holds,
    each once, and ``col_rows`` indexes, for every non-pivot column, the
    pivot rows with a nonzero there; a new pivot is back-eliminated from
    just those rows, and a free column's nullspace vector is read from
    them.  The cost is the number of entries touched, not rows x rank.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    vector = any(isinstance(v, dict) for v in rhs)
    work = [dict(r) for r in rows]
    # a number is the single-label case, under the label None
    b = [{k: x for k, x in (v if vector else {None: v}).items() if x} for v in rhs]
    pivot_of_col: dict[int, int] = {}
    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    col_rows: dict[int, set[int]] = {}  # non-pivot column -> pivot rows nonzero there

    for r in range(len(work)):
        row, br = work[r], b[r]
        # clear each pivot column the row holds with that column's pivot row
        for pc in [c for c in row if c in pivot_of_col]:
            factor = -row[pc]
            pr = pivot_of_col[pc]
            # pivot value first: an int factor times a Fraction v would
            # take Fraction's reflected __rmul__
            for c, v in work[pr].items():
                _accumulate(row, c, v * factor)
            for k, v in b[pr].items():
                _accumulate(br, k, v * factor)
        if not row:
            if br:
                residual = br if vector else br[None]
                return LinearSolveResult(rank=len(pivots), residual=residual)
            continue
        # normalize on the smallest-index column for determinism
        pc = min(row)
        pivot = row[pc]
        if pivot == -1:
            # negating keeps integer entries int
            for c in row:
                row[c] = -row[c]
            for k in br:
                br[k] = -br[k]
        elif pivot != 1:
            pivot = Fraction(pivot)  # int / int would give a float
            for c in row:
                row[c] /= pivot
            for k in br:
                br[k] /= pivot
        # back-eliminate from the earlier pivot rows that hold the new pivot column
        for pr in col_rows.pop(pc, ()):
            prow = work[pr]
            factor = -prow[pc]
            for c, v in row.items():
                _accumulate(prow, c, factor * v)
                if c == pc:
                    continue
                if c in prow:
                    col_rows.setdefault(c, set()).add(pr)
                else:
                    col_rows[c].discard(pr)
            for k, v in br.items():
                _accumulate(b[pr], k, factor * v)
        for c in row:
            if c != pc:
                col_rows.setdefault(c, set()).add(r)
        pivots.append((r, pc))
        pivot_of_col[pc] = r

    solutions: dict[Hashable, dict[int, Fraction]] = {}
    for pr, pc in pivots:
        for k, v in b[pr].items():
            solutions.setdefault(k, {})[pc] = v
    nullspace: list[dict[int, Fraction]] = []
    if want_nullspace:
        col_of_pivot_row = dict(pivots)
        for fc in (c for c in range(ncols) if c not in pivot_of_col):
            vec: dict[int, Fraction] = {fc: 1}
            # rows were made pivots in increasing index order
            for pr in sorted(col_rows.get(fc, ())):
                vec[col_of_pivot_row[pr]] = -work[pr][fc]
            nullspace.append(vec)
    return LinearSolveResult(
        solution=solutions if vector else solutions.get(None, {}),
        rank=len(pivots),
        nullspace=nullspace,
    )


def reference_residual_witness(res: PolyDiffOp, names: list[str]) -> dict | None:
    """Reference for `cli._residual_witness`: monomial triples scanned in
    order of combined degree, giving up (None) after 200,000 evaluations."""
    if res.is_zero():
        return None
    dim = res.dim
    max_degree = res.order() + 1
    by_degree: dict[int, list] = {d: [] for d in range(max_degree + 1)}
    for e in exponents_upto(dim, max_degree):
        by_degree[sum(e)].append(e)
    polys = {
        e: Polynomial.monomial(dim, e) for d in by_degree for e in by_degree[d]
    }
    budget = 200000
    for total in range(3 * max_degree + 1):
        for da in range(min(total, max_degree) + 1):
            for db in range(min(total - da, max_degree) + 1):
                dc = total - da - db
                if dc > max_degree:
                    continue
                for ea in by_degree[da]:
                    for eb in by_degree[db]:
                        for ec in by_degree[dc]:
                            value = res.apply([polys[ea], polys[eb], polys[ec]])
                            budget -= 1
                            if not value.is_zero():
                                return {
                                    "args": [
                                        polys[e].to_string(names)
                                        for e in (ea, eb, ec)
                                    ],
                                    "value": value.to_string(names),
                                }
                            if budget <= 0:
                                return None
    return None


def reference_render_report(report: dict) -> str:
    """Reference for `cli.render_report`: the stdlib encoder's indented layout."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- one operator sum per term, the reference for the one-map term-list loader -------


def reference_op_from_payload(
    dim: int, arity: int, payload: list, names: list[str], where: str = "terms"
) -> PolyDiffOp:
    """The operator a term list describes, adding one single-term operator per
    term to a growing sum (quadratic in the number of terms)."""
    acc = PolyDiffOp.zero(dim, arity)
    for i, term in enumerate(payload):
        at = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ProblemError(f"{at}: expected an object, got {type(term).__name__}")
        coeff = _parse_poly_field(term.get("coeff"), names, f"{at}.coeff")
        slots = _field(term, "derivs", list, f"{at}.derivs")
        if len(slots) != arity:
            raise ProblemError(f"{at}.derivs: expected {arity} derivative slots, got {len(slots)}")
        derivs = []
        for k, slot in enumerate(slots):
            here = f"{at}.derivs[{k}]"
            if not isinstance(slot, list) or len(slot) != dim:
                raise ProblemError(f"{here}: expected a list of {dim} integers")
            derivs.append(tuple(_integer(v, f"{here}[{m}]", 0) for m, v in enumerate(slot)))
        acc = acc + PolyDiffOp.single(dim, derivs, coeff)
    return acc


# -- ordered-tuple exponential product, the reference for the multiset one ---------


def reference_ordered_moyal_star(pi: Polyvector, order: int) -> StarProduct:
    """Constant-coefficient exponential star product of a bivector.

    B_k = 1/(2^k k!) sum pi^(i1 j1)...pi^(ik jk) d_{i1..ik} tensor d_{j1..jk},
    summed over every ordered k-tuple of entries.
    """
    if pi.degree != 2:
        raise ValueError("need a degree-2 polyvector")
    if not pi.is_constant():
        raise ValueError("this construction requires a constant bivector")
    dim = pi.dim
    entries: list[tuple[int, int, Fraction]] = []
    for (i, j), poly in pi.components.items():
        c = poly.constant_term()
        entries.append((i, j, c))
        entries.append((j, i, -c))
    corrections = []
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        norm = Fraction(1, 2**k * fact)
        terms: dict[DerivKey, Polynomial] = {}
        for combo in itertools.product(entries, repeat=k):
            alpha = [0] * dim
            beta = [0] * dim
            coeff = norm
            for i, j, c in combo:
                alpha[i] += 1
                beta[j] += 1
                coeff *= c
            _accumulate(terms, (tuple(alpha), tuple(beta)), Polynomial.constant(dim, coeff))
        corrections.append(PolyDiffOp(dim, 2, terms))
    star = StarProduct(dim, order, corrections)
    return star


# -- Fraction-coefficient multiset product, the reference for the numerator one ------


def reference_moyal_star(pi: Polyvector, order: int) -> StarProduct:
    """star.moyal_star as it was before it built numerator stores: one Fraction
    coefficient per multiset of entries, 1/(2^k prod n_t!) times the entries,
    merged as constant Polynomials and handed to PolyDiffOp's constructor."""
    if pi.degree != 2:
        raise ValueError("need a degree-2 polyvector")
    if not pi.is_constant():
        raise ValueError("this construction requires a constant bivector")
    dim = pi.dim
    entries: list[tuple[int, int, Fraction]] = []
    for (i, j), poly in pi.components.items():
        c = poly.constant_term()
        entries.append((i, j, c))
        entries.append((j, i, -c))
    corrections = []
    for k in range(1, order + 1):
        terms: dict[DerivKey, Polynomial] = {}
        for combo in itertools.combinations_with_replacement(range(len(entries)), k):
            alpha = [0] * dim
            beta = [0] * dim
            coeff = Fraction(1, 2**k)
            for t in set(combo):
                coeff /= math.factorial(combo.count(t))
            for i, j, c in (entries[t] for t in combo):
                alpha[i] += 1
                beta[j] += 1
                coeff *= c
            _accumulate(terms, (tuple(alpha), tuple(beta)), Polynomial.constant(dim, coeff))
        corrections.append(PolyDiffOp(dim, 2, terms))
    return StarProduct(dim, order, corrections)


# -- Polynomial-valued parser, the reference for the dict-valued one -----------------


class _ReferenceParser:
    """Recursive-descent parser for polynomial expressions, evaluated to
    Polynomials: poly._Parser as it was before it ran on coefficient dicts.

    Grammar: sums and differences of terms, terms are '*'-separated
    factors, factors are integers, rationals like 3/4, declared variable
    names, parenthesised expressions, optionally raised with '^' to a
    non-negative integer power.  Multiplication must be explicit.
    Parentheses nest at most MAX_NESTING deep: each level costs four
    frames (expr, term, factor, atom), and the cap keeps them well below
    the interpreter's recursion limit.  A base of more than one term is
    raised at most to MAX_SUM_POWER: a k-term base to the power n has up
    to C(n+k-1, k-1) terms, so (x+y+z+w+1)^24 alone would cost seconds.
    A sum, difference, product or power is rejected, at its operator (a
    power at its exponent), when a coefficient of it has more than
    MAX_COEFFICIENT_DIGITS digits above or below the fraction bar: the
    interpreter converts no longer integer to a string, so no report could
    print it.  Checking every operation keeps each operand within the cap,
    so no long chain of them builds a longer coefficient first.  A monomial
    base's coefficient c becomes c^n, which is decided before it is
    computed: (3/7*x)^3000000 alone would take a minute.
    """

    MAX_NESTING = 100
    MAX_SUM_POWER = 12
    MAX_COEFFICIENT_DIGITS = 4300  # the interpreter's default int-to-string limit
    _COEFFICIENT_BOUND = 10**MAX_COEFFICIENT_DIGITS
    DIGITS = "0123456789"  # str.isdigit also takes digits int() rejects, such as '²'

    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.names = list(names)
        self.dim = len(self.names)

    def error(self, message: str):
        raise PolynomialParseError(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Polynomial:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        while True:
            if self.take("-"):
                sign = -sign
            elif self.take("+"):
                pass
            else:
                break
        result = self.term() * sign
        while (op := self.peek()) in ("+", "-"):
            at = self.pos
            self.pos += 1
            other = self.term()
            result = self.checked(result + other if op == "+" else result - other, at, "sum")
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            result = self.checked(result * self.factor(), at, "product")
        return result

    def factor(self) -> Polynomial:
        base = self.atom()
        if not self.take("^"):
            return base
        self.skip_ws()
        start = self.pos
        expo = self.integer("exponent")
        end, self.pos = self.pos, start  # errors point at the exponent
        if len(base.terms) > 1 and expo > self.MAX_SUM_POWER:
            self.error(
                f"exponent {expo} on a base of {len(base.terms)} terms "
                f"exceeds {self.MAX_SUM_POWER}"
            )
        if len(base.terms) == 1:
            self.check_coefficient(next(iter(base.terms.values())), expo, "power")
        self.pos = end
        return self.checked(base**expo, start, "power")

    def checked(self, p: Polynomial, at: int, what: str) -> Polynomial:
        """p, the `what` of the operator at position `at`, unless a coefficient
        of p is too long for check_coefficient: then an error at `at`."""
        end, self.pos = self.pos, at
        for c in p.terms.values():
            self.check_coefficient(c, 1, what)
        self.pos = end
        return p

    def check_coefficient(self, c: Fraction | int, n: int, what: str):
        """An error unless c^n has at most MAX_COEFFICIENT_DIGITS digits above
        and below the fraction bar, decided without computing a longer power."""
        limit = self._COEFFICIENT_BOUND
        for k in (abs(c.numerator), c.denominator):
            # 2^bits <= k, so k^n >= 2^(n bits), past the limit once n bits reaches
            # its bit length; below that k^n < 2^(2 n bits) is cheap to compute
            bits = k.bit_length() - 1
            if n * bits >= limit.bit_length() or k**n >= limit:
                self.error(
                    f"a coefficient of this {what} has more than "
                    f"{self.MAX_COEFFICIENT_DIGITS} digits"
                )

    def atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                self.error(f"parentheses nested deeper than {self.MAX_NESTING}")
            p = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.depth -= 1
            return p
        if ch and ch in self.DIGITS:
            num = self.integer("number")
            if self.take("/"):
                den = self.integer("denominator")
                if den == 0:
                    self.error("zero denominator")
                return Polynomial.constant(self.dim, Fraction(num, den))
            return Polynomial.constant(self.dim, num)
        if ch.isalpha() or ch == "_":
            name = self.name()
            if name not in self.names:
                self.error(f"unknown variable {name!r} (declared: {', '.join(self.names)})")
            return Polynomial.variable(self.dim, self.names.index(name))
        self.error("expected a number, variable or '('")

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in self.DIGITS:
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than the interpreter converts
            self.pos = start
            self.error(f"{what} has too many digits")

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def reference_parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """parse_polynomial on _ReferenceParser: every atom, sum, product and power a
    Polynomial, as before the parser ran on coefficient dicts."""
    return _ReferenceParser(text, names).parse()


# -- factor-wise Schouten bracket, the reference for the xi-derivative one -------


def _lie_bracket_terms(
    c1: Polynomial, i: int, c2: Polynomial, j: int
) -> list[tuple[Polynomial, int]]:
    """[c1 d_i, c2 d_j] as a list of (coefficient, direction) terms."""
    out = []
    d = c1 * c2.partial(i)
    if not d.is_zero():
        out.append((d, j))
    d = c2 * c1.partial(j)
    if not d.is_zero():
        out.append((-d, i))
    return out


def reference_schouten_bracket(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Schouten-Nijenhuis bracket in multivec's sign convention, factor by factor.

    Degree |P| + |Q| - 1; reduces to the Lie bracket on vector fields and
    to X(f) on a (vector field, function) pair.
    """
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    dim = P.dim
    p, q = P.degree, Q.degree
    if p == 0 and q == 0:
        return Polyvector.zero(dim, 0)
    if p == 0:
        # graded antisymmetry: [f, Q] = -(-1)^((0-1)(q-1)) [Q, f]
        sign = -((-1) ** (q - 1))
        return scaled(reference_schouten_bracket(Q, P), sign)
    degree = p + q - 1
    comps: dict[IndexTuple, Polynomial] = {}

    def put(indices: Sequence[int], poly: Polynomial):
        key, sign = sort_with_sign(indices)
        if sign:
            _accumulate(comps, key, poly * sign)

    # pairing the factors with signs (-1)^(r+s) gives the standard
    # decomposable expansion; the extra bicharacter (-1)^((p-1)(q-1))
    # twists it into the convention fixed in the module docstring
    # (it rescales a graded Lie bracket, so the graded Jacobi identity
    # survives, and it is what makes [X^Y, f] = X(f)Y - Y(f)X).
    twist = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for I, a in P.components.items():
        if q == 0:
            # [a d_I, f] = sum_r (-1)^r  a (d_{I_r} f)  d_{I minus r}
            f = Q.components.get((), None)
            if f is None:
                continue
            for r, ir in enumerate(I):
                coeff = a * f.partial(ir)
                if coeff.is_zero():
                    continue
                rest = I[:r] + I[r + 1 :]
                put(rest, coeff * ((-1) ** r))
            continue
        for J, b in Q.components.items():
            # factor lists: the polynomial coefficient rides on factor 0
            for r, ir in enumerate(I):
                for s, js in enumerate(J):
                    c1 = a if r == 0 else Polynomial.one(dim)
                    c2 = b if s == 0 else Polynomial.one(dim)
                    terms = _lie_bracket_terms(c1, ir, c2, js)
                    if not terms:
                        continue
                    sign = twist * ((-1) ** (r + s))
                    rest_i = I[:r] + I[r + 1 :]
                    rest_j = J[:s] + J[s + 1 :]
                    # coefficients of the untouched leading factors
                    carried = Polynomial.one(dim)
                    if r != 0:
                        carried = carried * a
                    if s != 0:
                        carried = carried * b
                    for coeff, direction in terms:
                        put((direction,) + rest_i + rest_j, coeff * carried * sign)
    return Polyvector(dim, degree, comps)


# -- conjugation through the explicit inverse, the reference for the order-by-order
# -- gauge action


def invert_diffeo(D: FormalDiffeo) -> FormalDiffeo:
    """Formal inverse: D o D^-1 = D^-1 o D = id up to the truncation order."""
    inverse: list[PolyDiffOp] = []

    def inv_term(n: int) -> PolyDiffOp:
        return inverse[n - 1] if n else PolyDiffOp.identity(D.dim)

    for n in range(1, D.order + 1):
        acc = PolyDiffOp.zero(D.dim, 1)
        for k in range(1, n + 1):
            acc = acc + D.term(k).compose_at(0, inv_term(n - k))
        inverse.append(-acc)
    return FormalDiffeo(D.dim, D.order, inverse)


def reference_gauge_transform(s: StarProduct, D: FormalDiffeo) -> StarProduct:
    """Conjugated product a *' b = D^-1(D(a) * D(b)), through the explicit inverse.

    Associativity certificates carry over: conjugating an associative-
    to-order-n product yields an associative-to-order-n product.
    """
    if s.dim != D.dim:
        raise ValueError("dimension mismatch")
    if s.order != D.order:
        raise ValueError(f"order mismatch: star {s.order} vs diffeo {D.order}")
    E = invert_diffeo(D)
    # T_r = sum_{i+j+k=r} B_i(D_j ., D_k .)
    inner: list[PolyDiffOp] = []
    for r in range(s.order + 1):
        acc = PolyDiffOp.zero(s.dim, 2)
        for i in range(r + 1):
            for j in range(r - i + 1):
                k = r - i - j
                acc = acc + s.term(i).compose_at(0, D.term(j)).compose_at(1, D.term(k))
        inner.append(acc)
    corrections = []
    for n in range(s.order + 1):
        acc = PolyDiffOp.zero(s.dim, 2)
        for r in range(n + 1):
            acc = acc + E.term(r).compose_at(0, inner[n - r])
        if n == 0:
            if acc != PolyDiffOp.multiplication(s.dim):
                raise AssertionError("gauge transform lost the leading product")
        else:
            corrections.append(acc)
    result = StarProduct(s.dim, s.order, corrections)
    result._inherit_certificate(object.__getattribute__(s, "_certified"))
    return result


# -- one operator sum per insertion, the reference for the one-map diffeo composition


def reference_compose_diffeo(D: FormalDiffeo, E: FormalDiffeo) -> FormalDiffeo:
    """(D o E)(a) = D(E(a)): order n from a zero operator plus, for each k, the sum
    with D_k.compose_at(0, E_{n-k})."""
    if D.dim != E.dim or D.order != E.order:
        raise ValueError("dimension/order mismatch")
    terms = []
    for n in range(1, D.order + 1):
        acc = PolyDiffOp.zero(D.dim, 1)
        for k in range(n + 1):
            acc = acc + D.term(k).compose_at(0, E.term(n - k))
        terms.append(acc)
    return FormalDiffeo(D.dim, D.order, terms)


# -- filtered and sorted product, the reference for the first-coordinate-first one ---


def reference_exponents_upto(dim: int, max_total: int) -> list[Exponents]:
    """All exponent tuples with total degree <= max_total, in lex order, by
    filtering every tuple of entries <= max_total and sorting the rest."""
    out = [
        e
        for e in itertools.product(range(max_total + 1), repeat=dim)
        if sum(e) <= max_total
    ]
    out.sort()
    return out
