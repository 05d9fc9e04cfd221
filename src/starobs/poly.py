"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial in ``m`` variables is stored as a map from exponent tuples
(one non-negative integer per variable) to nonzero exact coefficients:
an ``int`` when the coefficient is integral, otherwise a ``Fraction``,
never a float.  The zero polynomial has an empty term map.  All values are
immutable after construction, so they can be shared freely.  The
module also holds the exponent-tuple helpers and the polynomial parser.

It owns the {monomial: coefficient} dict format, and with it the one loop
for each operation on such dicts: `_add_into`, `_product`, `_power`,
`_partial`, `_integers`, `_ratio`, `_multiplied` and `_divided`.
Polynomials, the operators' integer term maps, the Poisson bracket, the
system's Jacobian and Hamiltonian tables and the sparse solver's rows and
grouped solutions all run on these: between load and report the pipeline
keeps the dicts, and a Polynomial is only made where a value is handed on.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


def zero_exponents(dim: int) -> Exponents:
    return (0,) * dim


def unit_exponents(dim: int, i: int) -> Exponents:
    e = [0] * dim
    e[i] = 1
    return tuple(e)


def add_exponents(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


def sub_exponents(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.sub, a, b))


def _accumulate(terms: dict, key, value) -> None:
    """terms[key] += value, dropping the key when the sum is zero."""
    if not value:
        return
    prev = terms.get(key)
    total = value if prev is None else prev + value
    if total:
        terms[key] = total
    else:
        del terms[key]


def _add_into(acc: dict, t: Mapping, factor=1) -> None:
    """acc += factor * t in place, t's keys in order, the sums that cancel dropped."""
    if factor == 1:
        for key, v in t.items():
            _accumulate(acc, key, v)
    else:
        for key, v in t.items():
            _accumulate(acc, key, v * factor)


def _product(p: Mapping, q: Mapping) -> dict:
    """The product of the polynomials with coefficients p and q."""
    out: dict[Exponents, Fraction | int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _accumulate(out, add_exponents(e1, e2), c1 * c2)
    return out


def _power(p: Mapping, n: int, one: Exponents) -> dict:
    """p^n by square and multiply, from the constant 1 on the monomial `one`."""
    result = {one: 1}
    while n:
        if n & 1:
            result = _product(result, p)
        n >>= 1
        if n:
            p = _product(p, p)
    return result


def _partial(t: Mapping, gamma: Exponents) -> Mapping:
    """d^gamma of the polynomial with coefficients t, int or Fraction, in one
    pass: x^e goes to e!/(e - gamma)! x^(e - gamma), so no two monomials meet
    and t's order is kept.  t itself when gamma is zero.  Only the coordinates
    that gamma differentiates are read, so a unit gamma costs one test a term."""
    if not any(gamma):
        return t
    orders = [(k, g) for k, g in enumerate(gamma) if g]
    out = {}
    for mono, v in t.items():
        for k, g in orders:
            if mono[k] < g:
                break
            v *= math.perm(mono[k], g)
        else:
            out[sub_exponents(mono, gamma)] = v
    return out


def _integers(values: Mapping, scale: int) -> dict:
    """scale * values as ints; scale is a multiple of every denominator."""
    return {
        k: x * scale if type(x) is int else x.numerator * (scale // x.denominator)
        for k, x in values.items()
    }


def _ratio(a: int | Fraction, p: int) -> int | Fraction:
    """a / p, an int when p divides a; a is a Fraction in the extension's
    solution entries, which the sparse solve has already divided."""
    if p == 1:
        return a
    q, r = divmod(a, p)
    return Fraction(a, p) if r else q


def _multiplied(t: dict, m: int) -> dict:
    """t with each value v replaced by v * m, in place; t is returned."""
    if m != 1:
        for mono, v in t.items():
            t[mono] = v * m
    return t


def _divided(t: dict, den: int) -> dict:
    """t with each value v replaced by _ratio(v, den), in place; t is returned."""
    if den != 1:
        for mono, v in t.items():
            t[mono] = _ratio(v, den)
    return t


def exponents_upto(dim: int, max_total: int) -> list[Exponents]:
    """All exponent tuples with total degree <= max_total, in lex order: built
    first coordinate first, so the work is proportional to the output."""
    if dim == 0:
        return [()]
    return [
        (a,) + rest for a in range(max_total + 1) for rest in exponents_upto(dim - 1, max_total - a)
    ]


class Polynomial:
    """Immutable sparse polynomial with exact int or Fraction coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, Fraction | int] | None = None):
        if dim < 1:
            raise ValueError("polynomial needs at least one variable")
        clean: dict[Exponents, Fraction | int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != dim:
                    raise ValueError(f"exponent tuple {exps} has wrong length for dim {dim}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if type(coeff) is not int:
                    if type(coeff) is not Fraction:
                        raise TypeError(
                            f"coefficients must be int or Fraction, not {type(coeff).__name__}"
                        )
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                _accumulate(clean, exps, coeff)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dim: int, terms: dict[Exponents, Fraction | int]) -> Polynomial:
        """A polynomial on terms that arithmetic built from valid polynomials.

        The keys are exponent tuples of length dim with no negative entry and
        the values are nonzero ints or Fractions, so none of __init__'s checks
        is repeated.  A sum or product of two non-integral Fractions can be
        integral, so those still become ints.  The dict is taken, not copied.
        """
        for exps, coeff in terms.items():
            if type(coeff) is not int and coeff.denominator == 1:
                terms[exps] = coeff.numerator
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: Fraction | int) -> Polynomial:
        return cls(dim, {zero_exponents(dim): value})

    @classmethod
    def one(cls, dim: int) -> Polynomial:
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, dim: int, i: int) -> Polynomial:
        if not 0 <= i < dim:
            raise IndexError(f"variable index {i} out of range for dim {dim}")
        return cls(dim, {unit_exponents(dim, i): 1})

    @classmethod
    def monomial(cls, dim: int, exps: Exponents, coeff: Fraction | int = 1) -> Polynomial:
        return cls(dim, {tuple(exps): coeff})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.dim, other)
        return None

    def __add__(self, other) -> Polynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        terms = dict(self.terms)
        _add_into(terms, q.terms)
        return Polynomial._trusted(self.dim, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> Polynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._trusted(self.dim, {})
            return Polynomial._trusted(self.dim, {e: k * other for e, k in self.terms.items()})
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Polynomial._trusted(self.dim, _product(self.terms, q.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        return Polynomial._trusted(self.dim, _power(self.terms, n, zero_exponents(self.dim)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> Polynomial:
        """Formal partial derivative with respect to variable i, by _partial."""
        if not 0 <= i < self.dim:
            raise IndexError(f"variable index {i} out of range for dim {self.dim}")
        return Polynomial._trusted(self.dim, _partial(self.terms, unit_exponents(self.dim, i)))

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction | int:
        return self.terms.get(zero_exponents(self.dim), 0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction | int]]:
        """Terms ordered lexicographically on exponent tuples."""
        return sorted(self.terms.items())

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.dim)]
        if len(names) != self.dim:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(exps)
                if k
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.dim}, {self.to_string()})"


# -- parsing ---------------------------------------------------------------


class PolynomialParseError(ValueError):
    """A parse failure at `pos`, quoting at most WINDOW characters each side of it."""

    WINDOW = 30

    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        start, end = max(0, pos - self.WINDOW), pos + self.WINDOW
        quoted = repr(text[start:end])
        quoted = ("…" if start else "") + quoted + ("…" if end < len(text) else "")
        super().__init__(f"at position {pos} in {quoted}: {message}")


def is_name(text: str) -> bool:
    """The parser's rule for a variable name: a letter (str.isalpha) or '_',
    then letters, digits (str.isalnum, so also '²' and '٣') or '_'."""
    return (text[:1].isalpha() or text[:1] == "_") and all(c.isalnum() or c == "_" for c in text)


class _Parser:
    """Recursive-descent parser for polynomial expressions, evaluated to
    {monomial: coefficient} dicts by `poly`'s kernels.

    The text is tokenized once into (start, text) tokens: runs of ASCII
    digits, runs of `is_name`'s characters (str.isalnum or '_'), and each
    other character but whitespace, then an empty token for the end of
    input.  An error is given its position, so the parser only moves forward.

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
    computed: (3/7*x)^3000000 alone would take a minute.  Every dict is
    fresh, so sums add into the left operand in place.
    """

    MAX_NESTING = 100
    MAX_SUM_POWER = 12
    MAX_COEFFICIENT_DIGITS = 4300  # the interpreter's default int-to-string limit
    _COEFFICIENT_BOUND = 10**MAX_COEFFICIENT_DIGITS
    DIGITS = "0123456789"  # str.isdigit also takes digits int() rejects, such as '²'
    TOKEN = re.compile(r"[0-9]+|\w+|\S")  # \w is str.isalnum or '_', \s str.isspace

    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.tokens = [(m.start(), m.group()) for m in self.TOKEN.finditer(text)]
        self.tokens.append((len(text), ""))
        self.i = 0
        self.depth = 0
        self.names = list(names)
        self.dim = len(self.names)
        if not self.dim:
            raise ValueError("polynomial needs at least one variable")

    def error(self, at: int, message: str):
        raise PolynomialParseError(self.text, at, message)

    def peek(self) -> str:
        return self.tokens[self.i][1]

    def next(self) -> tuple[int, str]:
        self.i += 1
        return self.tokens[self.i - 1]

    def take(self, text: str) -> bool:
        if self.peek() == text:
            self.i += 1
            return True
        return False

    def parse(self) -> dict:
        p = self.expr()
        at, rest = self.tokens[self.i]
        if rest:
            self.error(at, "unexpected trailing input")
        return p

    def expr(self) -> dict:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.next()[1] == "-"
        result = self.term()
        if negate:
            result = {e: -c for e, c in result.items()}
        while (op := self.peek()) in ("+", "-"):
            at = self.next()[0]
            _add_into(result, self.term(), 1 if op == "+" else -1)
            self.checked(result, at, "sum")
        return result

    def term(self) -> dict:
        result = self.factor()
        while self.peek() == "*":
            at = self.next()[0]
            result = self.checked(_product(result, self.factor()), at, "product")
        return result

    def factor(self) -> dict:
        base = self.atom()
        if not self.take("^"):
            return base
        at, digits = self.next()  # errors point at the exponent
        expo = self.integer(at, digits, "exponent")
        if len(base) > 1 and expo > self.MAX_SUM_POWER:
            self.error(
                at,
                f"exponent {expo} on a base of {len(base)} terms exceeds {self.MAX_SUM_POWER}",
            )
        if len(base) == 1:
            self.check_coefficient(next(iter(base.values())), expo, "power", at)
        return self.checked(_power(base, expo, zero_exponents(self.dim)), at, "power")

    def checked(self, p: dict, at: int, what: str) -> dict:
        """p, the `what` of the operator at position `at`, unless a coefficient
        of p is too long for check_coefficient: then an error at `at`."""
        for c in p.values():
            self.check_coefficient(c, 1, what, at)
        return p

    def check_coefficient(self, c: Fraction | int, n: int, what: str, at: int):
        """An error at `at` unless c^n has at most MAX_COEFFICIENT_DIGITS digits
        above and below the fraction bar, decided without computing a longer power."""
        limit = self._COEFFICIENT_BOUND
        for k in (abs(c.numerator), c.denominator):
            # 2^bits <= k, so k^n >= 2^(n bits), past the limit once n bits reaches
            # its bit length; below that k^n < 2^(2 n bits) is cheap to compute
            bits = k.bit_length() - 1
            if n * bits >= limit.bit_length() or k**n >= limit:
                self.error(
                    at,
                    f"a coefficient of this {what} has more than "
                    f"{self.MAX_COEFFICIENT_DIGITS} digits",
                )

    def atom(self) -> dict:
        at, text = self.next()
        if text == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                self.error(at + 1, f"parentheses nested deeper than {self.MAX_NESTING}")
            p = self.expr()
            if not self.take(")"):
                self.error(self.tokens[self.i][0], "expected ')'")
            self.depth -= 1
            return p
        if text and text[0] in self.DIGITS:
            num = self.integer(at, text, "number")
            if self.take("/"):
                at, text = self.next()
                den = self.integer(at, text, "denominator")
                if den == 0:
                    self.error(at + len(text), "zero denominator")
                num = _ratio(num, den)
            return {zero_exponents(self.dim): num} if num else {}
        if is_name(text):
            if text not in self.names:
                self.error(
                    at + len(text), f"unknown variable {text!r} (declared: {', '.join(self.names)})"
                )
            return {unit_exponents(self.dim, self.names.index(text)): 1}
        self.error(at, "expected a number, variable or '('")

    def integer(self, at: int, digits: str, what: str) -> int:
        """The value of the token (at, digits), which must be a run of ASCII digits."""
        if not digits.isascii() or not digits.isdigit():
            self.error(at, f"expected {what}")
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter converts
            self.error(at, f"{what} has too many digits")


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse a polynomial string with the given variable binding."""
    parser = _Parser(text, names)
    return Polynomial._trusted(parser.dim, parser.parse())
