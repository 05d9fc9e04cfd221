"""Hochschild cochains as polydifferential operators.

An arity-k operator is a finite sum of terms

    c(x) * d^(a_1) tensor ... tensor d^(a_k)

stored as integer numerators, a map from k-tuples of derivative multi-indices
to {monomial: int} dicts, over one reduced denominator.  Terms with equal
multi-index tuples are merged and zero coefficients pruned, so operator
equality is decidable syntactically.  The polynomial coefficients, `terms`,
are built from the numerators on their first read.

Composition pushes outer derivatives through an inserted operator's
output with the generalized Leibniz rule, which keeps everything in
canonical form.  The Hochschild differential here equals -[., m] for
the multiplication cochain m and the Gerstenhaber bracket built from
`compose_at`; the tests check that identity in every arity.

Compositions, differentials and operator sums go into a `_TermMap`: integer
numerators over one denominator per map, so the many contributions that
cancel do so in ints, and the map, reduced once, is the new operator's
store.  Every evaluation is one walk, `_values`: an operator enters as its
numerators over its denominator, each slot's d^a is read from a table of plain
{monomial: coefficient} dicts (d^a of apply's arguments, or the system's
`_GeneratorTable` of d^a of each generator monomial), and each reported
value is divided once.  Every sum, product, derivative, scaling and
division of those dicts is one of `poly`'s kernels.

The Leibniz splittings of d^alpha, `_leibniz` and `_split_over`, are pure
functions of the multi-index: each is memoized per multi-index for the
whole process, as immutable tuples.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from .poly import (
    Exponents,
    Polynomial,
    _accumulate,
    _add_into,
    _divided,
    _integers,
    _multiplied,
    _partial,
    _product,
    add_exponents,
    exponents_upto,
    sub_exponents,
    zero_exponents,
)

if TYPE_CHECKING:  # pragma: no cover
    from .obstruction import IntegrableSystem

DerivKey = tuple[Exponents, ...]


def _binom_multi(alpha: Exponents, beta: Exponents) -> int:
    """Product of per-coordinate binomial coefficients."""
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def _sub_multi_indices(alpha: Exponents) -> list[Exponents]:
    """All beta with 0 <= beta <= alpha componentwise."""
    return [tuple(b) for b in itertools.product(*(range(a + 1) for a in alpha))]


@functools.cache
def _leibniz(alpha: Exponents) -> tuple[tuple[Exponents, Exponents, int], ...]:
    """((gamma, alpha - gamma, C(alpha, gamma)), ...) for gamma <= alpha, in
    _sub_multi_indices order: the two-factor Leibniz rule for d^alpha."""
    return tuple(
        (gamma, sub_exponents(alpha, gamma), _binom_multi(alpha, gamma))
        for gamma in _sub_multi_indices(alpha)
    )


@functools.cache
def _split_over(alpha: Exponents, parts: int) -> tuple[tuple[tuple[Exponents, ...], int], ...]:
    """Ways to write alpha as an ordered sum of `parts` multi-indices.

    Returns (split, multinomial weight) pairs, the Leibniz rule for d^alpha
    over `parts` factors, splitting off one factor at a time by _leibniz:
    the first part varies slowest, each in _sub_multi_indices order.
    """
    if parts == 0:
        return (((), 1),) if not any(alpha) else ()
    if parts == 1:
        return (((alpha,), 1),)
    return tuple(
        ((gamma,) + split, weight * w)
        for gamma, rest, weight in _leibniz(alpha)
        for split, w in _split_over(rest, parts - 1)
    )


class _TermMap(dict):
    """{derivative key: {monomial: int}}: integer numerators over the one
    denominator `den`, which PolyDiffOp._compose_into and `add` add to and
    _from_term_map makes an operator of.  Cancelled keys stay, with no monomials."""

    den = 1

    def scale(self, den: int) -> int:
        """The factor that puts a sum over `den` over the map's denominator,
        the map first rescaled to their lcm when den does not divide it."""
        if self.den % den:
            factor = den // math.gcd(self.den, den)
            for acc in self.values():
                _multiplied(acc, factor)
            self.den *= factor
        return self.den // den

    def add(self, op: PolyDiffOp, sign: int, expand: Callable) -> None:
        """Add sign * op with each term c d^key taken to c times the integer
        operator expand(key), a {derivative key: int} map."""
        den, numerators = _numerators(op)
        sign *= self.scale(den)
        for key, c in numerators.items():
            for dkey, weight in expand(key).items():
                _add_into(self.setdefault(dkey, {}), c, sign * weight)


def _numerated(coefficients: Mapping[DerivKey, Mapping]) -> tuple[int, dict]:
    """(d, {key: {monomial: int}}) for valid {key: {monomial: coefficient}} dicts,
    none empty: their numerators over d, the lcm of their reduced denominators."""
    den = math.lcm(*[v.denominator for t in coefficients.values() for v in t.values()])
    return den, {key: _integers(t, den) for key, t in coefficients.items()}


def _numerators(op: PolyDiffOp) -> tuple[int, dict[DerivKey, dict[Exponents, int]]]:
    """op's store, (d, {key: {monomial: int}}) with op's terms these numerators
    over d, the lcm of its coefficients' denominators in lowest terms, so that
    gcd(d, every numerator) = 1.  Shared: never written to."""
    return op._store


class PolyDiffOp:
    """Immutable polydifferential operator of fixed arity, stored as the
    integer numerators that _numerators reads; `terms` is derived from them."""

    __slots__ = ("dim", "arity", "_store", "_terms")

    def __init__(
        self,
        dim: int,
        arity: int,
        terms: Mapping[DerivKey, Polynomial] | None = None,
    ):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean: dict[DerivKey, Polynomial] = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(tuple(a) for a in key)
                if len(key) != arity:
                    raise ValueError(f"derivative tuple {key} has wrong length for arity {arity}")
                for a in key:
                    if len(a) != dim or any(e < 0 for e in a):
                        raise ValueError(f"bad multi-index {a} for dim {dim}")
                if coeff.dim != dim:
                    raise ValueError("coefficient dimension mismatch")
                _accumulate(clean, key, coeff)
        store = _numerated({key: c.terms for key, c in clean.items()})
        for name, value in zip(self.__slots__, (dim, arity, store, clean)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, dim: int, arity: int, den: int, numerators: dict) -> PolyDiffOp:
        """An operator on numerators that arithmetic built from valid operators.

        The keys are arity-tuples of valid multi-indices of dimension dim, the
        dicts nonzero and den shares no factor with every numerator, so none of
        __init__'s checks is repeated.  The dicts are taken, not copied.
        """
        op = object.__new__(cls)
        for name, value in zip(cls.__slots__, (dim, arity, (den, numerators), None)):
            object.__setattr__(op, name, value)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOp is immutable")

    @property
    def terms(self) -> dict[DerivKey, Polynomial]:
        """{key: Polynomial}, the numerators over den, built on first read and kept."""
        if self._terms is None:
            den, numerators = self._store
            terms = {
                k: Polynomial._trusted(self.dim, _divided(dict(t), den))
                for k, t in numerators.items()
            }
            object.__setattr__(self, "_terms", terms)
        return self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, arity: int) -> PolyDiffOp:
        return cls(dim, arity, {})

    @classmethod
    def multiplication(cls, dim: int) -> PolyDiffOp:
        """The product cochain m(a, b) = ab."""
        z = zero_exponents(dim)
        return cls._trusted(dim, 2, 1, {(z, z): {z: 1}})

    @classmethod
    def identity(cls, dim: int) -> PolyDiffOp:
        z = zero_exponents(dim)
        return cls._trusted(dim, 1, 1, {(z,): {z: 1}})

    @classmethod
    def single(
        cls,
        dim: int,
        derivs: Sequence[Exponents],
        coeff: Polynomial | Fraction | int = 1,
    ) -> PolyDiffOp:
        poly = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(dim, coeff)
        return cls(dim, len(derivs), {tuple(tuple(a) for a in derivs): poly})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._store[1]

    def order(self) -> int:
        """Max total derivative degree taken in any one slot."""
        best = 0
        for key in self._store[1]:
            for a in key:
                best = max(best, sum(a))
        return best

    def coefficient_degree(self) -> int:
        return max((sum(e) for t in self._store[1].values() for e in t), default=0)

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOp):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.arity == other.arity
            and self._store == other._store
        )

    def __hash__(self):
        den, numerators = self._store
        frozen = frozenset((key, frozenset(t.items())) for key, t in numerators.items())
        return hash((self.dim, self.arity, den, frozen))

    def __add__(self, other: PolyDiffOp) -> PolyDiffOp:
        self._check_compatible(other)
        terms = _TermMap()
        for op in (self, other):
            terms.add(op, 1, lambda key: {key: 1})
        return PolyDiffOp._from_term_map(self.dim, self.arity, terms)

    def __sub__(self, other: PolyDiffOp) -> PolyDiffOp:
        return self + (-other)

    def __neg__(self) -> PolyDiffOp:
        den, numerators = self._store
        negated = {k: {mono: -v for mono, v in t.items()} for k, t in numerators.items()}
        return PolyDiffOp._trusted(self.dim, self.arity, den, negated)

    def _check_compatible(self, other: PolyDiffOp):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    # -- action -------------------------------------------------------------

    def apply(self, args: Sequence[Polynomial]) -> Polynomial:
        """Evaluate on a tuple of polynomials; multilinear and exact.

        _evaluate on the slot indices, over an _ArgumentTable of d^a of each
        argument scaled to integers, divided once by the operator's denominator
        times the arguments' scales.
        """
        if len(args) != self.arity:
            raise ValueError(f"arity {self.arity} operator applied to {len(args)} arguments")
        for a in args:
            if a.dim != self.dim:
                raise ValueError("argument dimension mismatch")
        den, numerators = _numerators(self)
        table = _ArgumentTable(args)
        value = _evaluate(numerators, table, range(self.arity))
        return Polynomial._trusted(self.dim, _divided(value, den * table.scale))

    def compose_at(self, slot: int, inner: PolyDiffOp) -> PolyDiffOp:
        """Insert `inner` into argument slot `slot` (0-based), no sign.

        _compose_into on a fresh term map.  Inserting the identity gives
        self back, whose terms that path would rebuild in order.
        """
        if not 0 <= slot < self.arity:
            raise IndexError(f"slot {slot} out of range for arity {self.arity}")
        if inner.dim != self.dim:
            raise ValueError("dimension mismatch")
        z = zero_exponents(self.dim)
        if inner.arity == 1 and inner._store == (1, {(z,): {z: 1}}):
            return self
        terms = _TermMap()
        self._compose_into(terms, slot, inner, 1)
        return PolyDiffOp._from_term_map(self.dim, self.arity + inner.arity - 1, terms)

    def _compose_into(self, terms: _TermMap, slot: int, inner: PolyDiffOp, sign: int) -> None:
        """Add sign * (self with `inner` in slot `slot`) to the caller's term map.

        Both operators enter as integer numerators, summed over the product of
        their denominators.  By the Leibniz rule, the slot's d^alpha is split
        into d^gamma0 on the inner coefficient and the rest, split over the
        inner slots only where d^gamma0 of the coefficient is nonzero: terms
        come in the order of splitting alpha over all 1 + inner.arity factors,
        the first varying slowest.  A zero operator adds nothing, and a
        constant inner coefficient takes only gamma0 = 0, _leibniz's first
        split, of weight 1: every split skipped would add zero.  Adding a zero
        multi-index is the identity, so no key is shifted by one: an inner key
        of zero multi-indices inserts the split itself, and a zero rest, whose
        one split is all zeros, inserts the inner key.
        """
        den_out, outer_terms = _numerators(self)
        den_in, inner_terms = _numerators(inner)
        if not outer_terms or not inner_terms:
            return
        sign *= terms.scale(den_out * den_in)
        z, arity, entry = zero_exponents(self.dim), inner.arity, terms.setdefault
        # per inner term: key, coefficient, its d^gamma0 by gamma0, whether the
        # coefficient is constant, whether the key is all zeros
        inners = [
            (in_key, c_in, {}, len(c_in) == 1 and z in c_in, not any(map(any, in_key)))
            for in_key, c_in in inner_terms.items()
        ]
        for key, c_out in outer_terms.items():
            head, tail = key[:slot], key[slot + 1 :]
            leibniz = _leibniz(key[slot])
            first = leibniz[:1]
            for in_key, c_in, d_in, constant, zero_key in inners:
                for gamma0, rest, w0 in first if constant else leibniz:
                    dc = d_in.get(gamma0)
                    if dc is None:
                        dc = d_in[gamma0] = _partial(c_in, gamma0)
                    if not dc:
                        continue
                    if any(rest):
                        splits, shifted = _split_over(rest, arity), not zero_key
                        if not splits:
                            continue
                    else:  # the one split is all zeros: the inner key stays
                        splits, shifted = ((in_key, 1),), False
                    base, weight = _product(c_out, dc), sign * w0
                    for gammas, w in splits:
                        if shifted:
                            gammas = tuple(map(add_exponents, in_key, gammas))
                        _add_into(entry(head + gammas + tail, {}), base, weight * w)

    @classmethod
    def _from_term_map(cls, dim: int, arity: int, terms: _TermMap) -> PolyDiffOp:
        """The operator of a term map, without its cancelled keys: the map's dicts,
        each numerator divided in place by _divided by the gcd that the map's
        denominator shares with them all, become its store."""
        den = terms.den
        numerators = {k: t for k, t in terms.items() if t}
        common = math.gcd(den, *[v for t in numerators.values() for v in t.values()])
        for t in numerators.values():
            _divided(t, common)
        return cls._trusted(dim, arity, den // common, numerators)

    def sorted_terms(self) -> list[tuple[DerivKey, Polynomial]]:
        return sorted(self.terms.items())

    def __repr__(self):
        body = "; ".join(f"{key} <- {c.to_string()}" for key, c in self.sorted_terms())
        return f"PolyDiffOp(dim={self.dim}, arity={self.arity}, [{body}])"


# -- complex structure --------------------------------------------------------


def _key_differential(dim: int, key: DerivKey) -> dict[DerivKey, int]:
    """hochschild_d of the constant operator d^key, in integers.

    For key = (a_1..a_k), d(d^key)(f_1..f_{k+1}) is f_1 d^key(f_2..),
    then (-1)^j d^key(.., f_j f_{j+1}, ..) for j = 1..k with the Leibniz
    rule splitting d^(a_j) over f_j f_{j+1}, then (-1)^(k+1) d^key(..) f_{k+1}.
    """
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


def _differential_into(terms: _TermMap, op: PolyDiffOp, sign: int) -> None:
    """Add sign * hochschild_d(op) to the caller's term map.

    `terms` is a _TermMap, as for PolyDiffOp._compose_into.
    B_0 is commutative, so a coefficient c passes through every term of
    d: d(c d^key) = c d(d^key).  Each term c d^key of op therefore adds c
    times the integer operator _key_differential(key), whose cancelled
    keys never reach a coefficient.
    """
    terms.add(op, sign, lambda key: _key_differential(op.dim, key))


def hochschild_d(op: PolyDiffOp) -> PolyDiffOp:
    """Hochschild differential, arity k -> k+1.

    d phi (f_1..f_{k+1}) = f_1 phi(f_2..) + sum_j (-1)^j phi(.., f_j f_{j+1}, ..)
                          + (-1)^(k+1) phi(..) f_{k+1}.

    _differential_into on a fresh term map.
    """
    terms = _TermMap()
    _differential_into(terms, op, 1)
    return PolyDiffOp._from_term_map(op.dim, op.arity + 1, terms)


# -- restriction to the generated subalgebra ----------------------------------


def _peel(e: Exponents) -> tuple[int, Exponents]:
    """(i, e - e_i) for i the last generator in the nonzero exponents e: the
    generator monomial f^e as f^(e - e_i) times f_i."""
    i = max(k for k, x in enumerate(e) if x)
    return i, e[:i] + (e[i] - 1,) + e[i + 1 :]


class _ArgumentTable(dict):
    """d^a of argument k times its scale, the lcm of its coefficients'
    denominators, keyed by (a, k): each a plain {monomial: int} dict taken by
    _partial from the scaled argument's dict on its first lookup, only where the
    walk reaches.  `scale` is the product of the arguments' scales."""

    def __init__(self, args: Sequence[Polynomial]):
        self.args, self.scale = [], 1
        for arg in args:
            s = math.lcm(*[v.denominator for v in arg.terms.values()])
            self.args.append(_integers(arg.terms, s) if s != 1 else arg.terms)
            self.scale *= s

    def __missing__(self, key: tuple[Exponents, int]) -> Mapping:
        a, k = key
        d = self[key] = _partial(self.args[k], a)
        return d


class _GeneratorTable(dict):
    """d^a of the monomials in one system's generators, keyed by (a, generator
    exponents), each a plain {monomial: coefficient} dict built once per
    system on its first lookup: the monomial (a = 0) as _peel's shorter one
    times its generator, by _product, and d^a of it by _partial.  The
    entries are shared, never written to.  Held by IntegrableSystem._monomials.
    """

    __slots__ = ("generators", "zero")

    def __init__(self, generators: Sequence[Polynomial]):
        super().__init__()
        self.generators = [g.terms for g in generators]
        self.zero = zero_exponents(generators[0].dim)

    def __missing__(self, key: tuple[Exponents, Exponents]) -> dict[Exponents, int]:
        a, e = key
        if any(a):
            p = _partial(self[self.zero, e], a)
        elif any(e):
            i, rest = _peel(e)
            p = _product(self[self.zero, rest], self.generators[i])
        else:
            p = {self.zero: 1}
        self[key] = p
        return p


def _values(
    numerators: dict[DerivKey, dict[Exponents, int]], table: Mapping, slots: Sequence
) -> Iterator[tuple[tuple, dict]]:
    """(exps, den * value) for each exps in itertools.product(*slots) where the
    operator is nonzero, lazily and in that order: numerators are
    _numerators(op)'s over den, and table[a, e] is d^a of slot argument e as a
    {monomial: coefficient} dict.  The one loop that evaluates an operator.

    Each prefix of leading slots carries the (key, partial product) pairs of
    the terms still nonzero on it, c * d^a_1 u_1 * ...; a term drops out at its
    first zero factor, and a prefix with none left is not descended.  A value
    is the sum of its live terms in op.terms order, a fresh dict.
    """
    return _walk(table, slots, 0, (), list(numerators.items()))


def _walk(table: Mapping, slots: Sequence, slot: int, exps: tuple, live: list) -> Iterator:
    """_values from slot `slot` on, for the prefix exps and its live (key,
    partial product) pairs.  A module-level generator, so a walk holds no
    reference to itself and its table is freed with its last frame."""
    if slot == len(slots):
        value: dict[Exponents, int] = {}
        for _, v in live:
            _add_into(value, v)
        if value:
            yield exps, value
        return
    for e in slots[slot]:
        # a product of nonzero polynomials is nonzero: only a zero factor kills a term
        step = []
        for key, v in live:
            d = table[key[slot], e]
            if d:
                step.append((key, _product(v, d)))
        if step:
            yield from _walk(table, slots, slot + 1, exps + (e,), step)


def _evaluate(
    numerators: dict[DerivKey, dict[Exponents, int]], table: Mapping, exps: Sequence
) -> dict:
    """den * the operator's value on the one tuple of slot arguments exps, by _values."""
    return next(_values(numerators, table, [(e,) for e in exps]), (exps, {}))[1]


def _restricted_items(op: PolyDiffOp, system: "IntegrableSystem", degree: int) -> Iterator:
    """(per-slot generator exponents, op value) on the tuples of generator monomials
    of degree <= `degree` where op is nonzero, lazily and in itertools.product order
    (sorted key order): _values over the system's _GeneratorTable, every slot
    ranging over those monomials, each value divided by op's denominator once.
    The stream is sparse: a tuple where op vanishes is not yielded.
    """
    den, numerators = _numerators(op)
    slots = [exponents_upto(system.size, degree)] * op.arity
    return (
        (exps, Polynomial._trusted(op.dim, _divided(value, den)))
        for exps, value in _values(numerators, system._monomials, slots)
    )


def restricted_values(
    op: PolyDiffOp, system: "IntegrableSystem"
) -> dict[tuple[Exponents, ...], Polynomial]:
    """Values of op on all tuples of generator monomials of degree <= order(op).

    These values fix the restriction of op to C = k[f_1..f_m].  In each
    slot, op restricted to C is a differential operator over C of order
    r <= order(op) in Grothendieck's sense: its (r+1)-fold commutator with
    multiplication by elements of C is zero.  So its value on a product of
    r + 1 elements of C is a C-linear combination of its values on shorter
    sub-products, and by induction on degree the monomials of degree <= r
    fix it, slot by slot.  This needs only that the f_i generate C, not
    that they are independent or monomial.

    The table is full: keyed by per-slot generator exponents in
    itertools.product order, with one shared zero value where op vanishes.
    The nonzero values come from the sparse stream of _restricted_items,
    written over the zeros in place, so the key order stays.  It and
    op.apply both run _values, so each equals op.apply on its tuple, term
    order included.
    """
    keys = itertools.product(exponents_upto(system.size, op.order()), repeat=op.arity)
    table = dict.fromkeys(keys, Polynomial.zero(op.dim))
    table.update(_restricted_items(op, system, op.order()))
    return table


def vanishes_on_generators(op: PolyDiffOp, system: "IntegrableSystem") -> bool:
    """Whether op restricts to zero on the subalgebra the generators span.

    Decided on the tuples of restricted_values, which says why their degree
    suffices: true exactly when the sparse stream of _restricted_items
    yields nothing, so it stops at the first nonzero value, having read only
    the table entries the walk reached.
    """
    return next(_restricted_items(op, system, op.order()), None) is None
