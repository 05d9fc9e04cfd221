"""Integrable systems, obstruction classes and the elimination loop.

Given a star product and a Poisson-commutative generating set, the
pipeline walks the deformation order by order with one step: measure
the restricted correction table, read off the antisymmetrized commutator
class on generator pairs, check closedness, solve for an exactness
witness in the relative complex, lift it to a gauge and transform the
product.  At order 1 the class is gauge-invariant, so the closedness and
exactness solves are skipped and the gauge step runs with a zero
witness.  `cocycle_cascade_check` gives the class and its closedness at
one order, after checking that the lower orders are already flat.

Outcomes are honest about truncation: OBSTRUCTED is only reported with
a bound-independent certificate (the gauge-invariant first-order
commutator being nonzero, or at order 2 the horizontal differential
having identically zero image); running out of ansatz room yields
UNDECIDED.  A gauge G moves the order-2 class by d_hor(Y), Y_j = G_1(f_j),
so with zero image the nonzero class is gauge-invariant.  At order 3 G
also adds the antisymmetrized B_2(G_1 f_i, f_j) + B_2(f_i, G_1 f_j), which
need not lie in that image, so there zero image decides nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from typing import Callable, Hashable, Sequence

from . import linsolve
from .linsolve import _SparseSystem
from .multivec import Polyvector, RelativeClass, _bracket, d_hor, jacobi_check
from .poly import (
    Exponents,
    Polynomial,
    _add_into,
    _divided,
    _product,
    exponents_upto,
    sub_exponents,
    unit_exponents,
    zero_exponents,
)
from .polydiff import (
    PolyDiffOp,
    _evaluate,
    _GeneratorTable,
    _numerated,
    _numerators,
    _peel,
    _values,
    hochschild_d,
    restricted_values,
    vanishes_on_generators,
)
from .star import FormalDiffeo, StarProduct, compose_diffeo, gauge_transform

TRIVIALIZED = "TRIVIALIZED"
OBSTRUCTED = "OBSTRUCTED"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Bounds:
    """Ansatz caps for the linear solvers."""

    degree: int = 3
    op_order: int = 3


class IntegrableSystem:
    """A Poisson bivector with a commuting, independent generating set.

    What depends only on (pi, generators) is kept on the system, so every
    order of every request reads it: the generator monomials' derivatives
    (`_monomials`), and four entries, each built on its first read by _kept
    (by _validate, _jacobian, _hamiltonian and _Weights):
    - the validation report, read by validate_system;
    - `jacobian`, J[j][k] = d_k f_j, read by _validate's brackets and minors
      and lift_witness's rows;
    - `hamiltonian`, H[j][k] = {f_j, x_k}, read by exactness_solve;
    - `weights`, the unary gauge solve's grading.
    J and H hold plain {monomial: coefficient} dicts, ints wherever a value is
    integral; the entries are shared, never written to.
    """

    __slots__ = (
        "dim", "pi", "generators", "_validation", "_monomials",
        "_jacobian", "_hamiltonian", "_weights",
    )

    def __init__(self, pi: Polyvector, generators: list[Polynomial] | tuple[Polynomial, ...]):
        if pi.degree != 2:
            raise ValueError("need a degree-2 polyvector")
        gens = tuple(generators)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if g.dim != pi.dim:
                raise ValueError("generator dimension mismatch")
        object.__setattr__(self, "dim", pi.dim)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_monomials", _GeneratorTable(gens))
        for slot in ("_validation", "_jacobian", "_hamiltonian", "_weights"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegrableSystem is immutable")

    def _kept(self, slot: str, build: Callable[[IntegrableSystem], object]):
        """The table in `slot`, set to build(self) on its first read."""
        table = getattr(self, slot)
        if table is None:
            table = build(self)
            object.__setattr__(self, slot, table)
        return table

    @property
    def jacobian(self) -> list[list[dict]]:
        return self._kept("_jacobian", _jacobian)

    @property
    def hamiltonian(self) -> list[list[dict]]:
        return self._kept("_hamiltonian", _hamiltonian)

    @property
    def weights(self) -> _Weights:
        return self._kept("_weights", _Weights)

    @property
    def size(self) -> int:
        return len(self.generators)

    def __repr__(self):
        return f"IntegrableSystem(dim={self.dim}, n={self.size})"


def _jacobian(system: IntegrableSystem) -> list[list[dict]]:
    """J[j][k] = d_k f_j."""
    return [[g.partial(k).terms for k in range(system.dim)] for g in system.generators]


def _hamiltonian(system: IntegrableSystem) -> list[list[dict]]:
    """H[j][k] = {f_j, x_k}: _bracket on J[j] and x_k's unit gradient."""
    dim, one = system.dim, {zero_exponents(system.dim): 1}
    units = [[one if l == k else {} for l in range(dim)] for k in range(dim)]
    return [
        [Polynomial._trusted(dim, _bracket(system.pi, row, u)).terms for u in units]
        for row in system.jacobian
    ]


@dataclass
class ValidationReport:
    jacobi_ok: bool
    commuting_failures: list[tuple[int, int, Polynomial]]
    independent: bool

    @property
    def ok(self) -> bool:
        return self.jacobi_ok and not self.commuting_failures and self.independent

    def failure_messages(self, names: list[str] | None = None) -> list[str]:
        msgs = []
        if not self.jacobi_ok:
            msgs.append("bivector fails the Jacobi identity")
        for i, j, br in self.commuting_failures:
            msgs.append(
                f"generators {i + 1} and {j + 1} do not commute: "
                f"bracket = {br.to_string(names)}"
            )
        if not self.independent:
            msgs.append("generators are functionally dependent (all maximal Jacobian minors vanish)")
        return msgs


def _det(matrix: list[list[dict]]) -> dict:
    """The determinant of a square matrix of {monomial: coefficient} dicts, by
    cofactor expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total: dict = {}
    for c, entry in enumerate(matrix[0]):
        if entry:
            minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
            _add_into(total, _product(entry, _det(minor)), -1 if c % 2 else 1)
    return total


def validate_system(system: IntegrableSystem) -> ValidationReport:
    """Jacobi, pairwise commutativity and functional independence checks,
    computed once per system by _validate and kept on it."""
    return system._kept("_validation", _validate)


def _validate(system: IntegrableSystem) -> ValidationReport:
    """The brackets {f_i, f_j} are _bracket on rows of J; independence is
    decided symbolically: some maximal minor of J is a nonzero polynomial."""
    jac_ok, _ = jacobi_check(system.pi)
    J, n, m = system.jacobian, system.size, system.dim
    failures = []
    for i, j in itertools.combinations(range(n), 2):
        br = Polynomial._trusted(m, _bracket(system.pi, J[i], J[j]))
        if br:
            failures.append((i, j, br))
    independent = n <= m and any(
        _det([[J[i][k] for k in cols] for i in range(n)])
        for cols in itertools.combinations(range(m), n)
    )
    return ValidationReport(jac_ok, failures, independent)


# -- obstruction classes -------------------------------------------------------


def _require_certified(s: StarProduct, n: int):
    if s.order < n:
        raise ValueError(f"star product is truncated below order {n}")
    if s.certified_order() < n:
        raise ValueError(
            f"star product is only associative to order {s.certified_order()}, "
            f"needed {n}"
        )


def _raw_class(s: StarProduct, system: IntegrableSystem, n: int) -> RelativeClass:
    """B_n on every ordered pair of generators, as a class: RelativeClass enters
    (j, i) as -(i, j) and drops (i, i), so component (i, j) is B_n(f_i, f_j) -
    B_n(f_j, f_i).  Every B_n(f_i, f_j) comes from one _values walk over the
    system's table, B_n's numerators on the unit exponents in both slots, each
    divided once and entered at (i, j)."""
    den, numerators = _numerators(s.term(n))
    units = {unit_exponents(system.size, i): i for i in range(system.size)}
    comps = {
        (units[u], units[v]): Polynomial._trusted(system.dim, _divided(value, den))
        for (u, v), value in _values(numerators, system._monomials, [units, units])
    }
    return RelativeClass(system.dim, system.size, 2, comps)


@dataclass
class CascadeReport:
    obstruction: RelativeClass
    cochain_closed: bool
    cochain_witness: tuple[Exponents, ...] | None
    class_closed: bool

    @property
    def ok(self) -> bool:
        return self.cochain_closed and self.class_closed


def cocycle_cascade_check(s: StarProduct, system: IntegrableSystem, n: int) -> CascadeReport:
    """The order-n obstruction class and its closedness.

    Needs the product certified to order n and every lower correction
    vanishing on the subalgebra.  The class is the antisymmetrized
    commutator on generator pairs, the degree-2 representative
    sum_{i<j} (B_n(f_i,f_j) - B_n(f_j,f_i)) e_i^e_j.  Closedness means
    (a) the Hochschild differential of B_n restricts to zero on the
    subalgebra (decided on the table of restricted_values), and (b) the class
    is closed for the horizontal differential.
    """
    _require_certified(s, n)
    for k in range(1, n):
        if not vanishes_on_generators(s.term(k), system):
            raise ValueError(f"correction at order {k} does not vanish on the subalgebra")
    return _cascade(s, system, n, _raw_class(s, system, n))


def _cascade(
    s: StarProduct, system: IntegrableSystem, n: int, chi: RelativeClass
) -> CascadeReport:
    """cocycle_cascade_check without its preconditions, given the order-n class."""
    dop = hochschild_d(s.term(n))
    table = restricted_values(dop, system)  # in sorted key order
    cochain_witness = next((key for key, value in table.items() if value.terms), None)
    return CascadeReport(
        obstruction=chi,
        cochain_closed=cochain_witness is None,
        cochain_witness=cochain_witness,
        class_closed=d_hor(system, chi).is_zero(),
    )


# -- exactness in the relative complex -----------------------------------------


@dataclass
class ExactnessResult:
    witness: RelativeClass | None = None
    certificate: str | None = None  # "zero_image" | "rank_at_bound" when there is no witness

    @property
    def solved(self) -> bool:
        return self.witness is not None


def exactness_solve(
    system: IntegrableSystem, c: RelativeClass, degree_bound: int
) -> ExactnessResult:
    """Solve d_hor(Y) = c with polynomial components of bounded degree.

    {f_i, x^e} = sum_k e_k x^(e - unit_k) H[i][k], so the rows shift the
    system's Hamiltonian table H[i][k] = {f_i, x_k} by each ansatz monomial,
    only where H[i][k] is nonzero.  Returns a witness (post-checked exactly
    by d_hor, which does not read H), or, with no witness, an infeasibility
    certificate: "zero_image" when every H entry is zero, every generator a
    Casimir (then the image is {0} at every degree, so a nonzero class is
    exact at no degree, and at order 2 obstructed), "rank_at_bound" when
    only the bounded system is ruled out.
    """
    if c.degree != 2 or c.system_size != system.size:
        raise ValueError("need a degree-2 class for this system")
    if not d_hor(system, c).is_zero():
        raise ValueError("class is not closed for the horizontal differential")
    n = system.size
    dim = system.dim
    if c.is_zero():
        return ExactnessResult(witness=RelativeClass.zero(dim, n, 1))
    H = system.hamiltonian
    if not any(any(row) for row in H):  # every generator is a Casimir
        return ExactnessResult(certificate="zero_image")

    emons = exponents_upto(dim, degree_bound)
    steps = [[(k, x, e[:k] + (x - 1,) + e[k + 1 :]) for k, x in enumerate(e) if x] for e in emons]
    eqs = _SparseSystem([(e, (j,)) for j in range(n) for e in emons])
    for i in range(n):
        for j in range(i + 1, n):
            # {f_i, g_j} - {f_j, g_i} = c_ij
            for e, shifts in zip(emons, steps):
                for k, x, shift in shifts:
                    if H[i][k]:
                        eqs._add_shifted((i, j), H[i][k], shift, (e, (j,)), x)
                    if H[j][k]:
                        eqs._add_shifted((i, j), H[j][k], shift, (e, (i,)), -x)
            for mono, v in c.component((i, j)).terms.items():
                eqs._add_rhs(((i, j), mono), v)

    solved = eqs._solve()
    if solved is None:
        return ExactnessResult(certificate="rank_at_bound")
    components = {key: Polynomial._trusted(dim, t) for key, t in solved.items()}
    witness = RelativeClass(dim, n, 1, components)
    if d_hor(system, witness) != c:
        raise AssertionError("exactness witness failed its built-in post-check")
    return ExactnessResult(witness=witness)


# -- lifting and gauge construction ---------------------------------------------


def lift_witness(
    system: IntegrableSystem, Y: RelativeClass, degree_bound: int
) -> PolyDiffOp | None:
    """Derivation V = sum_k V_k d_k with V(f_j) = Y_j for every generator.

    The componentwise linear system is solved over the ansatz of
    components of degree at most degree_bound, column (e, (unit_k,)) for
    x^e d_k, whose rows shift the system's Jacobian table J[j][k] = d_k f_j
    by e, only where J[j][k] is nonzero.  The lift is post-checked exactly
    by apply, which does not read J.  Returns None when the ansatz is
    exhausted.
    """
    if Y.degree != 1 or Y.system_size != system.size:
        raise ValueError("need a degree-1 class for this system")
    dim = system.dim
    if Y.is_zero():
        return PolyDiffOp.zero(dim, 1)

    emons = exponents_upto(dim, degree_bound)
    units = [unit_exponents(dim, k) for k in range(dim)]
    eqs = _SparseSystem([(e, (u,)) for u in units for e in emons])
    for j, row in enumerate(system.jacobian):
        for u, d in zip(units, row):
            if d:
                for e in emons:  # x^e d_k f_j: d_k f_j shifted by e
                    eqs._add_shifted(j, d, e, (e, (u,)))
        for mono, v in Y.component((j,)).terms.items():
            eqs._add_rhs((j, mono), v)

    solved = eqs._solve()
    if solved is None:
        return None
    derivation = PolyDiffOp._trusted(dim, 1, *_numerated(solved))
    for j, g in enumerate(system.generators):
        if derivation.apply([g]) != Y.component((j,)):
            raise AssertionError("vector field lift failed its post-check")
    return derivation


class _Weights(dict):
    """Each exponent vector's weight under every scaling that keeps the generators
    homogeneous, keyed by the exponents and built on its first lookup (weight is
    linear, so any integer vector is a key).  Held by IntegrableSystem.weights;
    shared, never written to.

    A scaling x_i -> t^w_i x_i does so when w is orthogonal to the differences
    between each generator's monomials; weights are read against `basis`, a basis
    of that rational nullspace.  Monomial generators give the exponent vector
    itself, generators homogeneous for no scaling ().  The columns are the
    coordinates, so the nullspace is read as the solver gives it.
    """

    __slots__ = ("basis",)

    def __init__(self, system: IntegrableSystem):
        super().__init__()
        dim = system.dim
        eqs = _SparseSystem(range(dim))
        for gi, g in enumerate(system.generators):
            monos = list(g.terms)
            for k, mono in enumerate(monos[1:]):
                for i in range(dim):
                    eqs._add((gi, k), i, mono[i] - monos[0][i])
        self.basis = [{i: 1} for i in range(dim)]
        if eqs.rows:
            self.basis = linsolve.solve_sparse(eqs.rows, eqs.rhs, dim, want_nullspace=True).nullspace

    def __missing__(self, e: tuple) -> tuple:
        w = self[e] = tuple(sum(c * e[i] for i, c in vec.items()) for vec in self.basis)
        return w


def _weight_blocks(outer: Sequence, inner: Sequence, keep: set) -> tuple[list, set]:
    """The columns (o, i) whose weight w(o) + w(i) is in keep, and the kept weights
    no column reaches.  A graded solve is block-diagonal by weight, and a block
    whose right-hand side is zero is solved by zero, so the unary gauge solve
    keeps just the weights its right-hand side reaches.  outer and inner are
    (label, weight) lists; the columns come outer-major, as (o, [i, ...]) with the
    inner labels in their given order and no o that keeps none.  Each pair of
    distinct weights is added once.
    """
    inner_weights = dict.fromkeys(w for _, w in inner)
    kept: dict[Hashable, list] = {}
    reached = set()
    for wo in dict.fromkeys(w for _, w in outer):
        sums = {wi: w for wi in inner_weights if (w := tuple(map(add, wo, wi))) in keep}
        reached.update(sums.values())
        kept[wo] = [i for i, wi in inner if wi in sums]
    return [(o, kept[w]) for o, w in outer if kept[w]], keep - reached


def _solve_unary_correction(
    s: StarProduct, system: IntegrableSystem, n: int, chi: RelativeClass, bounds: Bounds
) -> PolyDiffOp | None:
    """D with B_n + dD vanishing on the subalgebra, where the lower orders do, by
    _unary_ansatz_rows; None when chi, the caller's _raw_class(s, system, n), is
    nonzero (dD is symmetric on generator pairs) or the bounded ansatz has no solution.
    """
    if not chi.is_zero():
        return None
    eqs = _unary_ansatz_rows(s.term(n), system, bounds)
    solved = None if eqs is None else eqs._solve()
    if solved is None:
        return None
    return PolyDiffOp._trusted(system.dim, 1, *_numerated(solved))


def _unary_ansatz_rows(
    target: PolyDiffOp, system: IntegrableSystem, bounds: Bounds
) -> _SparseSystem | None:
    """The live weight blocks of (B + dD)|_C = 0, B = target, on the generator
    monomials f^alpha of degree <= max(op order, order(B)) + 1.

    On C = k[f_1..f_k] the orders below B vanish, so B|_C is a 2-cocycle, and
    with no antisymmetric part on generator pairs it is exact, C being
    polynomial.  phi0(1) = -B(1, 1), phi0(f_i) = 0, phi0(m f_i) = phi0(m) f_i +
    B(m, f_i) (i, m = _peel(alpha)) is a primitive: any primitive less phi0
    obeys the Leibniz rule on each such (m, f_i), so by induction it is a
    derivation.  B + dD = d(D - phi0) thus vanishes on C exactly when
    D - phi0 is the derivation its values on the f_i fix:
    D(f^alpha) - sum_i alpha_i f^(alpha - e_i) D(f_i) = phi0(f^alpha).
    Both sides vanish when |alpha| = 1.  The left one vanishes at every alpha
    for D = d^a with |a| = 1 (chain rule: d^a f^alpha = sum_i alpha_i
    f^(alpha - e_i) d^a f_i) or with a through a coordinate that no generator
    holds (d^a kills f^alpha and every f_i), so such x^e d^a are no columns.
    [phi0, f] = B(f, .) + phi0(f) on C, so D - phi0 less that derivation has
    order <= max(op order, order(B) + 1) over C: by restricted_values' lemma
    that degree decides it.

    Column (e, (a,)) is x^e d^a, a-major, each in lex order up to its bound;
    it enters row (alpha, ambient monomial) as x^e (d^a f^alpha - sum_i
    alpha_i f^(alpha - e_i) d^a f_i).  Generator monomials are homogeneous
    under the system's _Weights, so a column meets only rows whose monomial,
    less that of f^alpha, weighs weight(e - a): the blocks are independent,
    and one with a zero right-hand side is solved by zeros.  So _weight_blocks
    pairs each a, weighed -weight(a), with each e and keeps the live weights,
    where phi0 (built from B with d(phi0) = -B) is nonzero.  None when a live
    weight has no column: 0 = b there.

    Everything is read from the system's _GeneratorTable as plain dicts: phi0
    is built as den * phi0 from B's numerators over its one denominator den,
    and each right-hand side is divided by den once.
    """
    weights = system.weights
    table, z = system._monomials, system._monomials.zero
    degree = max(target.order(), bounds.op_order) + 1
    exps = exponents_upto(system.size, degree)
    units = [unit_exponents(system.size, i) for i in range(system.size)]
    den, numerators = _numerators(target)

    # den * phi0, from B's numerators: den * B(f^ue, f^ve) is _evaluate's value
    one = exps[0]
    phi0 = {one: {mono: -c for mono, c in _evaluate(numerators, table, (one, one)).items()}}
    for alpha in exps[1:]:  # lex order: alpha less its last generator comes first
        i, m = _peel(alpha)
        value = {}
        if any(m):
            value = _product(phi0[m], table.generators[i])
            _add_into(value, _evaluate(numerators, table, (m, units[i])))
        phi0[alpha] = value
    # generator monomials are homogeneous: one monomial gives each one's weight
    live = {
        weights[sub_exponents(mono, next(iter(table[z, alpha])))]
        for alpha, value in phi0.items()
        for mono in value
    }
    used = {k for g in table.generators for m in g for k, x in enumerate(m) if x}
    # weight is linear: weight(e - a) = weight(e) + (-weight(a))
    by_alpha, unreached = _weight_blocks(
        [(a, tuple(-w for w in weights[a])) for a in exponents_upto(system.dim, bounds.op_order)
         if sum(a) != 1 and used.issuperset(k for k, x in enumerate(a) if x)],
        [(e, weights[e]) for e in exponents_upto(system.dim, bounds.degree)],
        live,
    )
    if unreached:
        return None
    eqs = _SparseSystem([(e, (a,)) for a, es in by_alpha for e in es])
    for alpha in exps:
        lower = [(x, u, table[z, sub_exponents(alpha, u)]) for x, u in zip(alpha, units) if x]
        for a, es in by_alpha:
            # w = d^a f^alpha - sum_i alpha_i f^(alpha - e_i) d^a f_i
            chain: dict[Exponents, int] = {}
            for x, u, f in lower:
                _add_into(chain, _product(f, table[a, u]), x)
            w = dict(table[a, alpha])
            _add_into(w, chain, -1)
            if not w:  # no entry in any of alpha's rows
                continue
            for e in es:
                eqs._add_shifted(alpha, w, e, (e, (a,)))
        for mono, c in _divided(phi0[alpha], den).items():
            eqs._add_rhs((alpha, mono), c)
    return eqs


@dataclass
class GaugeStepResult:
    diffeo: FormalDiffeo | None = None
    # the product after the gauge, built once for the post-check
    transformed: StarProduct | None = None

    @property
    def solved(self) -> bool:
        return self.diffeo is not None


def gauge_step(
    s: StarProduct,
    system: IntegrableSystem,
    n: int,
    chi: RelativeClass,
    Y: RelativeClass,
    bounds: Bounds,
) -> GaugeStepResult:
    """Build the order-n gauge from chi = _raw_class(s, system, n) and a witness Y
    with d_hor(Y) = chi.  The preconditions are eliminate_to_order's invariants,
    not re-checked here: s is certified to order n, and every correction below
    order n vanishes on the subalgebra.

    Lifts Y to a derivation V with V(f_j) = Y_j, stages -V at order n-1 (the
    sign that cancels the class) and reads the staged product's class once.
    The staged product is built to order n only: its order-n term reads B_k
    and the gauge's parts at orders <= n alone, so it is the full transform's.
    Then it solves for the order-n operator that kills the remaining symmetric
    part on generator monomials, given the class of the product it solves on
    (chi when nothing is staged).  When the lift or that solve finds nothing
    within the bounds, the result is empty.  The transformed product's order-n
    correction is post-checked to vanish on the subalgebra, so a broken
    precondition gives UNDECIDED or an AssertionError, never a wrong gauge.  At
    order 1 the class is gauge-invariant: Y must be zero, only the unary solve runs.
    """
    if n < 1 or (n == 1 and not Y.is_zero()):
        raise ValueError("gauge steps start at order 1, where the witness must be zero")
    lifted = lift_witness(system, Y, bounds.degree)
    if lifted is None:
        return GaugeStepResult()
    parts: dict[int, PolyDiffOp] = {}
    staged = s
    if not lifted.is_zero():
        parts[n - 1] = -lifted
        truncated = StarProduct(s.dim, n, s.corrections[:n])
        staged = gauge_transform(truncated, FormalDiffeo.from_parts(s.dim, n, parts))
        chi = _raw_class(staged, system, n)
    correction = _solve_unary_correction(staged, system, n, chi, bounds)
    if correction is None:
        return GaugeStepResult()
    if not correction.is_zero():
        parts[n] = correction
    diffeo = FormalDiffeo.from_parts(s.dim, s.order, parts)
    transformed = gauge_transform(s, diffeo)
    if not vanishes_on_generators(transformed.term(n), system):
        raise AssertionError("gauge step failed its built-in restriction post-check")
    return GaugeStepResult(diffeo, transformed)


# -- the elimination loop --------------------------------------------------------


@dataclass
class OrderRecord:
    order: int
    table_zero: bool
    obstruction: RelativeClass
    cascade: CascadeReport | None = None
    exactness: ExactnessResult | None = None
    step: GaugeStepResult | None = None


@dataclass
class ObstructionReport:
    status: str
    gauge: FormalDiffeo
    star: StarProduct
    records: list[OrderRecord]  # one per order 1..order_reached
    detail: str = ""

    @property
    def order_reached(self) -> int:
        return self.records[-1].order

    @property
    def classes(self) -> list[RelativeClass]:
        return [r.obstruction for r in self.records]


def eliminate_to_order(
    s: StarProduct,
    system: IntegrableSystem,
    order: int,
    bounds: Bounds,
) -> ObstructionReport:
    """Iteratively trivialize the product on the subalgebra up to `order`.

    Per order: restricted table, obstruction class, closedness checks,
    exactness solve, gauge step, transform.  Stops with OBSTRUCTED on a
    certified nonzero class, UNDECIDED when solver bounds run out, and
    TRIVIALIZED after an independent final audit of all restricted
    tables.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    validation = validate_system(system)
    if not validation.ok:
        raise ValueError("; ".join(validation.failure_messages()))
    _require_certified(s, order)

    current = s
    gauge = FormalDiffeo.identity(s.dim, s.order)
    records: list[OrderRecord] = []

    def finish(status: str, detail: str) -> ObstructionReport:
        return ObstructionReport(status, gauge, current, records, detail)

    for n in range(1, order + 1):
        if vanishes_on_generators(current.term(n), system):
            records.append(
                OrderRecord(
                    order=n, table_zero=True, obstruction=RelativeClass.zero(s.dim, system.size, 2)
                )
            )
            continue
        chi = _raw_class(current, system, n)
        record = OrderRecord(order=n, table_zero=False, obstruction=chi)
        records.append(record)
        if n == 1:
            # the first-order class is gauge-invariant: nonzero is a hard
            # obstruction, zero leaves only the symmetric part to remove
            if not chi.is_zero():
                return finish(
                    OBSTRUCTED, "nonzero first-order commutator on generators (gauge-invariant)"
                )
            witness = RelativeClass.zero(s.dim, system.size, 1)
        else:
            # orders below n were flat when checked, and every later gauge
            # starts at order n-1 with a derivation (Hochschild-closed), so
            # they still are: the public preconditions need not be re-run
            record.cascade = _cascade(current, system, n, chi)
            if not record.cascade.ok:
                raise AssertionError(
                    f"order-{n} closedness check failed; the certificate is inconsistent"
                )
            exact = exactness_solve(system, chi, bounds.degree)
            record.exactness = exact
            if not exact.solved:
                if exact.certificate != "zero_image":
                    return finish(
                        UNDECIDED, f"exactness solve infeasible at degree bound {bounds.degree}"
                    )
                detail = (
                    "the horizontal differential has identically zero image "
                    "(all generators are Casimirs), so the nonzero class is "
                    "exact at no degree"
                )
                if n == 2:  # the order-2 class moves only by that image
                    return finish(OBSTRUCTED, detail)
                return finish(UNDECIDED, f"{detail}, but gauges below order {n} can move it")
            witness = exact.witness
        step = gauge_step(current, system, n, chi, witness, bounds)
        record.step = step
        if not step.solved:
            return finish(UNDECIDED, f"gauge step at order {n} exhausted the ansatz bounds")
        current = step.transformed
        gauge = compose_diffeo(gauge, step.diffeo)

    for k in range(1, order + 1):
        if not vanishes_on_generators(current.term(k), system):
            raise AssertionError(f"final audit failed at order {k}")
    return finish(
        TRIVIALIZED, "all restricted correction tables vanish after the accumulated gauge"
    )
