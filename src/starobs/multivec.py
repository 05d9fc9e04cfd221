"""Polyvector fields, Schouten-Nijenhuis bracket and relative classes.

A degree-k polyvector field is stored on strictly increasing k-tuples of
coordinate indices with polynomial components; antisymmetry is
canonicalized away.  Degree 0 is a plain polynomial (indexed by the
empty tuple).

Sign conventions, fixed once here and verified exactly by the test
suite:

* on vector fields the bracket is the Lie bracket;
* [X1^...^Xp, f] = sum_r (-1)^(r-1) Xr(f) X1^...^Xr-hat^...^Xp, so that
  [X^Y, f] = X(f) Y - Y(f) X;
* with xi_i the odd variable standing for d_i, so that a d_I is
  a xi_I = a xi_{I[0]}...xi_{I[-1]},
  [P, Q] = t sum_i (P <-d/dxi_i) ^ d_i Q  -  sum_i (Q <-d/dxi_i) ^ d_i P,
  t = (-1)^((p-1)(q-1)), where the right derivative of xi_I by xi_{I[r]}
  is (-1)^(len(I)-1-r) xi_(I without I[r]) and d_i differentiates the
  coefficients; the degree is max(p+q-1, 0) (the twist t is forced by
  the function rule above once graded Jacobi is required; it is +1
  whenever either degree is odd);
* graded antisymmetry [P,Q] = -(-1)^((p-1)(q-1)) [Q,P] holds, a
  degree-0 argument included.

With these choices the bracket of a bivector with a function is the
Hamiltonian vector field of the function.

The Poisson bracket {f, g} has one formula, `_bracket`, over the gradients
of f and g as per-coordinate {monomial: coefficient} dicts: poisson_bracket
(and with it d_hor), the system's Hamiltonian table and the validation's
commuting test all run on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .poly import Polynomial, _accumulate, _add_into, _partial, _product, unit_exponents

if TYPE_CHECKING:  # pragma: no cover
    from .obstruction import IntegrableSystem

IndexTuple = tuple[int, ...]


def sort_with_sign(indices: Sequence[int]) -> tuple[IndexTuple, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign): the parity
    of its inversions, 0 for a repeated index.  The one rule that signs an
    ordering; every alternating class is entered through _Alternating, which reads it."""
    key = tuple(sorted(indices))
    if any(a == b for a, b in zip(key, key[1:])):
        return key, 0
    inversions = sum(a > b for r, a in enumerate(indices) for b in indices[r + 1 :])
    return key, -1 if inversions % 2 else 1


class _Alternating:
    """Immutable antisymmetric element of A tensor Lambda^k over indices 0..size-1.

    Components are polynomials on the ambient space, stored on strictly
    increasing k-tuples; antisymmetry is canonicalized away and a repeated
    index gives zero.  A subclass fixes the index range, names it in
    `_index_name`, and returns its leading constructor arguments from
    `_shape`.
    """

    __slots__ = ("dim", "degree", "components")

    def __init__(
        self,
        dim: int,
        size: int,
        degree: int,
        components: Mapping[IndexTuple, Polynomial] | None = None,
    ):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[IndexTuple, Polynomial] = {}
        if components:
            for idx, poly in components.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(not 0 <= i < size for i in idx):
                    raise IndexError(f"{self._index_name} index out of range in {idx}")
                if poly.dim != dim:
                    raise ValueError("component dimension mismatch")
                key, sign = sort_with_sign(idx)
                if sign:
                    _accumulate(clean, key, poly if sign > 0 else -poly)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, components: Mapping[IndexTuple, Polynomial]):
        return type(self)(*self._shape(), components)

    def component(self, idx: IndexTuple) -> Polynomial:
        key, sign = sort_with_sign(idx)
        if sign == 0:
            return Polynomial.zero(self.dim)
        return self.components.get(key, Polynomial.zero(self.dim)) * sign

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.components == other.components

    def __hash__(self):
        return hash((self._shape(), frozenset(self.components.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._shape() != other._shape():
            raise ValueError(f"shape mismatch: {self._shape()} vs {other._shape()}")
        comps = dict(self.components)
        _add_into(comps, other.components)
        return self._like(comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({i: -p for i, p in self.components.items()})

    def __repr__(self):
        body = ", ".join(f"{idx}: {p.to_string()}" for idx, p in sorted(self.components.items()))
        shape = ", ".join(map(str, self._shape()))
        return f"{type(self).__name__}({shape}, {{{body}}})"


class Polyvector(_Alternating):
    """Polyvector field: an alternating class over the coordinate indices."""

    __slots__ = ()
    _index_name = "coordinate"

    def __init__(
        self,
        dim: int,
        degree: int,
        components: Mapping[IndexTuple, Polynomial] | None = None,
    ):
        super().__init__(dim, dim, degree, components)

    def _shape(self) -> tuple[int, ...]:
        return (self.dim, self.degree)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> Polyvector:
        return cls(dim, degree, {})

    @classmethod
    def bivector(cls, dim: int, entries: Mapping[tuple[int, int], Polynomial | Fraction | int]) -> Polyvector:
        comps = {}
        for (i, j), v in entries.items():
            poly = v if isinstance(v, Polynomial) else Polynomial.constant(dim, v)
            comps[(i, j)] = poly
        return cls(dim, 2, comps)

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.components.values())


def _bracket(pi: Polyvector, df: Sequence[Mapping], dg: Sequence[Mapping]) -> dict:
    """{f, g} = sum_{i<j} pi_ij (d_i f d_j g - d_j f d_i g) from the gradients df and
    dg, per-coordinate derivative dicts: the one bracket formula, on `poly`'s kernels."""
    total: dict = {}
    for (i, j), c in pi.components.items():
        term = _product(df[i], dg[j])
        _add_into(term, _product(df[j], dg[i]), -1)
        _add_into(total, _product(c.terms, term))
    return total


def poisson_bracket(pi: Polyvector, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g}: _bracket on the gradients of f and g."""
    if pi.degree != 2:
        raise ValueError("the bracket needs a degree-2 polyvector")
    if pi.dim != f.dim or pi.dim != g.dim:
        raise ValueError("dimension mismatch")
    units = [unit_exponents(f.dim, k) for k in range(f.dim)]
    df, dg = ([_partial(h.terms, u) for u in units] for h in (f, g))
    return Polynomial._trusted(f.dim, _bracket(pi, df, dg))


def schouten_bracket(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Schouten-Nijenhuis bracket in the module's sign convention.

    Degree max(|P| + |Q| - 1, 0); reduces to the Lie bracket on vector
    fields and to X(f) on a (vector field, function) pair.
    """
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    p, q = P.degree, Q.degree
    twist = -1 if ((p - 1) * (q - 1)) % 2 else 1
    comps: dict[IndexTuple, Polynomial] = {}
    # t sum_i (P <-d/dxi_i) ^ d_i Q  -  sum_i (Q <-d/dxi_i) ^ d_i P
    for X, Y, sign in ((P, Q, twist), (Q, P, -1)):
        for I, a in X.components.items():
            for r, i in enumerate(I):
                # moving xi_i to the right end of xi_I passes len(I)-1-r factors
                rest = I[:r] + I[r + 1 :]
                s = sign if (len(I) - 1 - r) % 2 == 0 else -sign
                for J, b in Y.components.items():
                    key, perm = sort_with_sign(rest + J)
                    if perm:
                        _accumulate(comps, key, a * b.partial(i) * (s * perm))
    return Polyvector(P.dim, max(p + q - 1, 0), comps)


def jacobi_check(pi: Polyvector) -> tuple[bool, Polyvector]:
    """Whether [pi, pi] = 0; the witness trivector is returned either way."""
    if pi.degree != 2:
        raise ValueError("jacobi_check needs a degree-2 polyvector")
    witness = schouten_bracket(pi, pi)
    return witness.is_zero(), witness


# -- relative classes --------------------------------------------------------


class RelativeClass(_Alternating):
    """Element of A tensor Lambda^k R^n for a system with n generators.

    Components are polynomials on the ambient space, indexed by strictly
    increasing k-tuples drawn from the generator indices 0..n-1.
    """

    __slots__ = ("system_size",)
    _index_name = "generator"

    def __init__(
        self,
        dim: int,
        system_size: int,
        degree: int,
        components: Mapping[IndexTuple, Polynomial] | None = None,
    ):
        object.__setattr__(self, "system_size", system_size)
        super().__init__(dim, system_size, degree, components)

    def _shape(self) -> tuple[int, ...]:
        return (self.dim, self.system_size, self.degree)

    @classmethod
    def zero(cls, dim: int, system_size: int, degree: int) -> RelativeClass:
        return cls(dim, system_size, degree, {})


def d_hor(system: "IntegrableSystem", c: RelativeClass) -> RelativeClass:
    """Horizontal differential: w tensor v goes to sum_i {f_i, w} e_i ^ v, each
    (i,) + v entered into the class, which signs it; no bracket for i in v."""
    n = len(system.generators)
    if c.system_size != n:
        raise ValueError(f"class is for {c.system_size} generators, system has {n}")
    comps = {
        (i,) + idx: poisson_bracket(system.pi, f, w)
        for idx, w in c.components.items()
        for i, f in enumerate(system.generators)
        if i not in idx
    }
    return RelativeClass(c.dim, n, c.degree + 1, comps)
