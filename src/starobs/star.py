"""Truncated star products and formal diffeomorphisms.

A star product of order N is the tuple of its correction operators
B_1..B_N (bidifferential, arity 2) on top of the implicit commutative
product B_0 = m.  Associativity is not assumed: it is measured per order
by ``assoc_residual`` and the largest verified prefix is cached as the
product's certificate.  The order-n residual is

    sum_{0<k<n} (B_k o_0 B_{n-k} - B_k o_1 B_{n-k}) - dB_n,

with o_i insertion into slot i and d the Hochschild differential: the
insertions of m into B_n and of B_n into m sum to -dB_n.

A formal diffeomorphism is id + sum_k h^k D_k with unary operators D_k;
it acts on star products by conjugation, order by order.  The formal
parameter is real: with the built-in constant-coefficient product the
antisymmetric part of B_1 is half the Poisson bracket, so commutators
expand as h*{a,b} + O(h^3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import Sequence

from . import linsolve
from .multivec import Polyvector
from .poly import Polynomial, _accumulate, _divided, _ratio, zero_exponents
from .polydiff import (
    DerivKey,
    PolyDiffOp,
    _ArgumentTable,
    _differential_into,
    _key_differential,
    _leibniz,
    _numerated,
    _TermMap,
    _values,
)


class _OperatorSeries:
    """Immutable truncated series: a unit plus sum_{k=1..order} h^k C_k.

    The corrections C_k are polydifferential operators on a dim-dimensional
    space.  A subclass fixes their arity in `_arity` and the order-0
    operator in `_unit`, a PolyDiffOp constructor taking the dimension, which
    a series calls once, on its first term(0), and keeps in `_unit_term`.
    """

    __slots__ = ("dim", "order", "corrections", "_unit_term")

    def __init__(self, dim: int, order: int, corrections: Sequence[PolyDiffOp]):
        if order < 0:
            raise ValueError("order must be non-negative")
        corr = tuple(corrections)
        if len(corr) != order:
            raise ValueError(f"need {order} correction operators, got {len(corr)}")
        for op in corr:
            if op.dim != dim:
                raise ValueError("correction dimension mismatch")
            if op.arity != self._arity:
                raise ValueError(f"corrections must have arity {self._arity}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "corrections", corr)
        object.__setattr__(self, "_unit_term", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def term(self, k: int) -> PolyDiffOp:
        """C_k for 0 <= k <= order; C_0 is the unit."""
        if k == 0:
            if self._unit_term is None:
                object.__setattr__(self, "_unit_term", self._unit(self.dim))
            return self._unit_term
        if not 1 <= k <= self.order:
            raise IndexError(f"order {k} out of range ({type(self).__name__} order {self.order})")
        return self.corrections[k - 1]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.corrections == other.corrections
        )

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, order={self.order})"


class StarProduct(_OperatorSeries):
    """Truncated deformation of the commutative product: B_0 = m, arity 2."""

    __slots__ = ("_certified",)
    _arity = 2
    _unit = PolyDiffOp.multiplication

    def __init__(self, dim: int, order: int, corrections: Sequence[PolyDiffOp]):
        super().__init__(dim, order, corrections)
        object.__setattr__(self, "_certified", None)

    def plus_term(self, k: int, op: PolyDiffOp) -> StarProduct:
        """Copy of this product with op added to B_k, 1 <= k <= order."""
        if not 1 <= k <= self.order:
            raise IndexError(f"order {k} out of range")
        corr = list(self.corrections)
        corr[k - 1] = corr[k - 1] + op
        return StarProduct(self.dim, self.order, corr)

    # -- evaluation ----------------------------------------------------------

    def eval(self, a: Polynomial, b: Polynomial) -> tuple[Polynomial, ...]:
        """The coefficients of a * b: entry k is B_k(a, b), k = 0..order."""
        if a.dim != self.dim or b.dim != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(self.term(k).apply([a, b]) for k in range(self.order + 1))

    def commutator(self, a: Polynomial, b: Polynomial) -> tuple[Polynomial, ...]:
        """The coefficients of a * b - b * a; entry 0 always vanishes."""
        return tuple(x - y for x, y in zip(self.eval(a, b), self.eval(b, a)))

    # -- associativity -------------------------------------------------------

    def assoc_residual(self, n: int) -> PolyDiffOp:
        """Order-n associator: sum_{k+l=n} B_k(B_l(.,.),.) - B_k(., B_l(.,.)).

        The product is associative at order n iff this arity-3 operator
        is zero in canonical form.  Its k = 0 and k = n terms, the four
        insertions of m, sum to -dB_n, so with o_i insertion into slot i

            residual_n = sum_{0<k<n} (B_k o_0 B_{n-k} - B_k o_1 B_{n-k}) - dB_n,

        built in one term map by _compose_into and _differential_into.
        """
        if not 0 <= n <= self.order:
            raise IndexError(f"order {n} out of range (product order {self.order})")
        terms = self._insertions(n, range(1, n), _TermMap())
        _differential_into(terms, self.term(n), -1)
        return PolyDiffOp._from_term_map(self.dim, 3, terms)

    def _insertions(self, n: int, ks: Sequence[int], terms: _TermMap) -> _TermMap:
        """Add sum over k in ks of B_k(B_{n-k}(.,.),.) - B_k(., B_{n-k}(.,.))
        to `terms` and return it.  Every insertion, those of m included, goes
        through _compose_into with the sign in the weight, k by k and the
        first slot before the second."""
        for k in ks:
            outer, inner = self.term(k), self.term(n - k)
            outer._compose_into(terms, 0, inner, 1)
            outer._compose_into(terms, 1, inner, -1)
        return terms

    def certified_order(self) -> int:
        """Largest n such that all residuals at orders <= n vanish."""
        cached = self._certified
        if cached is not None:
            return cached
        n = 0
        while n < self.order and self.assoc_residual(n + 1).is_zero():
            n += 1
        object.__setattr__(self, "_certified", n)
        return n

    def _inherit_certificate(self, value: int | None):
        if value is not None:
            object.__setattr__(self, "_certified", min(value, self.order))


def moyal_star(pi: Polyvector, order: int) -> StarProduct:
    """Constant-coefficient exponential star product of a bivector.

    B_k = 1/(2^k k!) sum pi^(i1 j1)...pi^(ik jk) d_{i1..ik} tensor d_{j1..jk};
    requires a constant bivector (for which the Jacobi identity is
    automatic), and is associative at every order.  The sum runs over
    multisets of entries, each weighted by its k!/prod n_t! orderings.
    B_k is one integer per key over 2^k k! L^k, L the lcm of the entries'
    denominators, reduced once by _from_term_map into its store.
    """
    if pi.degree != 2:
        raise ValueError("need a degree-2 polyvector")
    if not pi.is_constant():
        raise ValueError("this construction requires a constant bivector")
    dim = pi.dim
    z = zero_exponents(dim)
    constants = [poly.constant_term() for poly in pi.components.values()]
    L = math.lcm(*[c.denominator for c in constants])
    entries: list[tuple[int, int, int]] = []  # L times each signed entry
    for (i, j), c in zip(pi.components, constants):
        c = c.numerator * (L // c.denominator)
        entries.append((i, j, c))
        entries.append((j, i, -c))
    corrections = []
    for k in range(1, order + 1):
        weights: dict[DerivKey, int] = {}
        for combo in itertools.combinations_with_replacement(range(len(entries)), k):
            alpha = [0] * dim
            beta = [0] * dim
            weight = math.factorial(k)
            for t in set(combo):
                weight //= math.factorial(combo.count(t))
            for i, j, c in (entries[t] for t in combo):
                alpha[i] += 1
                beta[j] += 1
                weight *= c
            _accumulate(weights, (tuple(alpha), tuple(beta)), weight)
        terms = _TermMap((key, {z: v}) for key, v in weights.items())
        terms.den = 2**k * math.factorial(k) * L**k
        corrections.append(PolyDiffOp._from_term_map(dim, 2, terms))
    return StarProduct(dim, order, corrections)


# -- formal diffeomorphisms ----------------------------------------------------


class FormalDiffeo(_OperatorSeries):
    """id + h D_1 + h^2 D_2 + ... with unary polydifferential D_k."""

    __slots__ = ()
    _arity = 1
    _unit = PolyDiffOp.identity

    @classmethod
    def identity(cls, dim: int, order: int) -> FormalDiffeo:
        return cls.from_parts(dim, order, {})

    @classmethod
    def from_parts(cls, dim: int, order: int, parts: dict[int, PolyDiffOp]) -> FormalDiffeo:
        corrections = [PolyDiffOp.zero(dim, 1)] * order
        for k, op in parts.items():
            if not 1 <= k <= order:
                raise IndexError(f"order {k} out of range")
            corrections[k - 1] = op
        return cls(dim, order, corrections)


def compose_diffeo(D: FormalDiffeo, E: FormalDiffeo) -> FormalDiffeo:
    """(D o E)(a) = D(E(a)), truncated at the common order.  Order n adds every
    D_k o E_{n-k}, identity ends included, into one term map, as gauge_transform does."""
    if D.dim != E.dim or D.order != E.order:
        raise ValueError("dimension/order mismatch")
    terms = []
    for n in range(1, D.order + 1):
        acc = _TermMap()
        for k in range(n + 1):
            D.term(k)._compose_into(acc, 0, E.term(n - k), 1)
        terms.append(PolyDiffOp._from_term_map(D.dim, 1, acc))
    return FormalDiffeo(D.dim, D.order, terms)


def gauge_transform(s: StarProduct, D: FormalDiffeo) -> StarProduct:
    """Conjugated product a *' b = D^-1(D(a) * D(b)) as canonical operators.

    Solved order by order from D(a *' b) = D(a) * D(b): with
    T_n = sum_{i+j+k=n} B_i(D_j ., D_k .), B'_n = T_n - sum_{r=1..n} D_r o B'_{n-r}
    and B'_0 = T_0.

    Each B_i(D_j ., .) is built once, by compose_at, which returns B_i itself
    for the identity D_0.  Order n is one term map: every insertion of D_k
    (k >= 1) into its second slot and every -D_r o B'_{n-r} is added by
    PolyDiffOp._compose_into, and the k = 0 terms by _TermMap.add.

    Associativity certificates carry over: conjugating an associative-
    to-order-n product yields an associative-to-order-n product.
    """
    if s.dim != D.dim:
        raise ValueError("dimension mismatch")
    if s.order != D.order:
        raise ValueError(f"order mismatch: star {s.order} vs diffeo {D.order}")
    N = s.order
    left = [[s.term(i).compose_at(0, D.term(j)) for j in range(N + 1 - i)] for i in range(N + 1)]
    terms: list[PolyDiffOp] = []
    for n in range(N + 1):
        acc = _TermMap()
        for i in range(n + 1):
            for j in range(n - i + 1):
                k = n - i - j
                if k:
                    left[i][j]._compose_into(acc, 1, D.term(k), 1)
                else:
                    acc.add(left[i][j], 1, lambda key: {key: 1})
        for r in range(1, n + 1):
            D.term(r)._compose_into(acc, 0, terms[n - r], -1)
        terms.append(PolyDiffOp._from_term_map(s.dim, 2, acc))
    if terms[0] != s.term(0):
        raise AssertionError("gauge transform lost the leading product")
    result = StarProduct(s.dim, s.order, terms[1:])
    result._inherit_certificate(s._certified)
    return result


# -- one-order associative extension -------------------------------------------


@dataclass
class ExtensionResult:
    """Outcome of the order-(n+1) associativity constraint with B_1..B_n fixed:
    a particular solution, or the nonzero trivector showing that none exists.

    Any other solution differs from `particular` by a Hochschild 2-cocycle dD + beta.
    """

    particular: PolyDiffOp | None = None
    extended: StarProduct | None = None
    trivector: Polyvector | None = None

    @property
    def solved(self) -> bool:
        return self.particular is not None


def extend_one_order(s: StarProduct) -> ExtensionResult:
    """Decide the next-order associativity constraint with B_1..B_n fixed.

    _solve_target finds B_{n+1} with hochschild_d(B_{n+1}) equal to the
    lower-order associator sum, for n the product's order, or the nonzero
    trivector showing that none exists with these B_1..B_n.  Two solutions
    differ by a Hochschild 2-cocycle, by HKR dD + beta with D unary and beta
    a bivector field, and the particular solution plus any such cocycle is
    again one; that freedom is stated, not listed.

    The target is one integer term map from right-hand side to post-check:
    the post-check adds B_{n+1}'s four insertions into it, which then sums
    the whole order-(n+1) associator, and asks that no entry is left.
    """
    n = s.order
    if s.certified_order() < n:
        raise ValueError(f"product is only associative to order {s.certified_order()}, not {n}")
    # the order-(n+1) associator without its two B_{n+1} terms, over terms.den;
    # a cancelled key stays, with no monomials
    terms = s._insertions(n + 1, range(1, n + 1), _TermMap())
    particular, trivector = _solve_target(s.dim, terms)
    if particular is None:
        return ExtensionResult(trivector=trivector)
    extended = StarProduct(s.dim, n + 1, list(s.corrections) + [particular])
    # target plus the B_{n+1} terms is the order-(n+1) associator.  The B_{n+1} terms
    # go through _compose_into, not -dB_{n+1}: a check on _key_differential, which
    # built M, would share any fault of M
    extended._insertions(n + 1, (0, n + 1), terms)
    if any(terms.values()):
        raise AssertionError("extension failed its built-in residual post-check")
    extended._inherit_certificate(n + 1)
    return ExtensionResult(particular, extended)


def _solve_target(dim: int, terms: _TermMap) -> tuple[PolyDiffOp | None, Polyvector | None]:
    """(B, None) with dB = T for the arity-3 target T in `terms`, or (None, Alt T).

    One pass over T's live keys gives each one's weight, K_T (T's largest
    slot order) and T's largest total order.  The first solve keeps the slot
    orders within K_T: d never raises a slot's order, so these columns span
    a subcomplex.  If it fails, Alt T decides (_trivector).  Alt dC = 0 for
    every 2-cochain C: the middle terms of d are symmetric in a pair of
    arguments, and the outer two cancel under the cyclic shift.  So a nonzero
    Alt T shows that no B exists, and by HKR a zero one that T is exact, and
    then every split is solved: on R^1, T = d(d^(1, K+1)) has slot orders
    <= K but no solution within K.
    """
    live, slot_order, order = {}, 0, 0  # live key -> its weight
    for key, t in terms.items():
        if t:
            a, b, c = key
            live[key] = tuple(map(add, map(add, a, b), c))
            sa, sb, sc = sum(a), sum(b), sum(c)
            slot_order, order = max(slot_order, sa, sb, sc), max(order, sa + sb + sc)
    particular = _solve_columns(dim, terms, live, slot_order)
    if particular is not None:
        return particular, None
    trivector = _trivector(dim, terms)
    if not trivector.is_zero():
        return None, trivector
    particular = _solve_columns(dim, terms, live, order)
    if particular is None:
        raise AssertionError("a target with zero trivector is not exact")
    return particular, None


def _solve_columns(dim: int, terms: _TermMap, live: dict, bound: int) -> PolyDiffOp | None:
    """B with dB = T over the columns x^e d^(a, b) with |a|, |b| <= bound, or None;
    `live` maps each key where T is nonzero to its weight.

    B_0 is commutative, so d(x^e d^key) = x^e d(d^key), whose coefficients
    are constant integers: column (e, key) reaches only the rows (dkey, e),
    with the same entries for every e.  So the system is M X = B, with M one
    column per key and one row per arity-3 key and one right-hand side per
    coefficient monomial of the target, and one elimination of [M | B]
    solves every block; a monomial the target lacks gets 0.

    d keeps the weight w = a + b of a key, so M is block-diagonal by w.  The
    keys are the Leibniz splits a + b = w of each target key's weight w with
    |a|, |b| <= bound, sorted: the product order of the multi-indices, so
    only the target's weights are ever listed.  Every other block has a zero
    right-hand side, so its part of the particular solution, read from the
    unique reduced row-echelon form, is 0: leaving it out keeps the
    candidate.  An arity-3 key that no column reaches fails at once.

    Most rows hold one entry.  A later one-entry row v x_c = t in a column c
    that an earlier one, v0 x_c = t0, already pins is v/v0 times it when
    t v0 = t0 v, monomial for monomial, and contradicts it otherwise.  So it
    is checked by that cross-multiplication, and None returned when the check
    fails, instead of being solved: proportional rows span the same row
    space, so the reduced row-echelon form, and with it the candidate, is
    the one that the whole system gives.

    The right-hand sides are the target's numerators over its one
    denominator den, and each solution entry is divided by den once, into
    the coefficient dicts that _numerated makes the candidate's store of.
    """
    splits = (split[:2] for w in set(live.values()) for split in _leibniz(w))
    keys = sorted(key for key in splits if max(map(sum, key)) <= bound)
    matrix: dict[DerivKey, dict[int, int]] = {}  # M by rows
    for ci, key in enumerate(keys):
        for dkey, v in _key_differential(dim, key).items():
            matrix.setdefault(dkey, {})[ci] = v
    if not all(k in matrix for k in live):
        return None
    rows, rhs, pinned = [], [], {}  # pinned: column -> its first one-entry row
    for dkey, row in matrix.items():
        t = terms.get(dkey, {})
        if len(row) == 1:
            [(c, v)] = row.items()
            if c in pinned:
                v0, t0 = pinned[c]
                if {e: x * v0 for e, x in t.items()} != {e: x * v for e, x in t0.items()}:
                    return None
                continue
            pinned[c] = v, t
        rows.append(row)
        rhs.append(t)
    result = linsolve.solve_sparse(rows, rhs, len(keys))
    if not result.solved:
        return None
    coefficients: dict[DerivKey, dict] = {}
    for e, block in result.solution.items():
        for ci, v in block.items():
            coefficients.setdefault(keys[ci], {})[e] = _ratio(v, terms.den)
    return PolyDiffOp._trusted(dim, 2, *_numerated(coefficients))


def _trivector(dim: int, terms: _TermMap) -> Polyvector:
    """Alt T: the arity-3 target T on every ordered coordinate triple, each value
    entered into the trivector, which signs it by its ordering's parity and drops
    a repeated index.  One _values walk of T's live numerators over the coordinate
    functions' _ArgumentTable gives every value, each divided by T's denominator."""
    table = _ArgumentTable([Polynomial.variable(dim, i) for i in range(dim)])
    live = {key: t for key, t in terms.items() if t}
    values = _values(live, table, [range(dim)] * 3)
    return Polyvector(
        dim, 3, {perm: Polynomial._trusted(dim, _divided(v, terms.den)) for perm, v in values}
    )
