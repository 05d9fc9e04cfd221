"""Sparse exact linear algebra over the rationals, eliminated in integers.

Systems produced by the operator ansatz solvers are sparse (about one
nonzero per row) but reach thousands of rows and columns.  ``solve_sparse``
runs Gauss-Jordan elimination on dict rows of ``int`` or ``Fraction``
entries.  Each row and its right-hand side are scaled to integers once, on
input, and the elimination never leaves the integers: a pivot row is a
primitive integer vector (the gcd of its entries and its right-hand side
is 1) with a positive pivot value p, and stands for the normalized row
row/p.  The pivot rows are kept reduced against each other (a 0 in every
other pivot column), so a new row is cleared only at the pivot columns it
holds, and an index from each non-pivot column to the pivot rows nonzero
there drives back-elimination and the nullspace: the cost is proportional
to the entries touched, not to rows x rank.  A rational is made once per
reported entry, when the solution and the nullspace are read out as b/p
and -row[c]/p.  Everything is exact; infeasibility comes with the
offending reduced row so callers can report an honest certificate.  A
right-hand side may be a sparse vector of labelled values instead of a
number: one elimination of A then solves A x = b_label for every label,
instead of one elimination per label.

The scaling to integers, the row sums, the in-place scalings and the
divisions are `poly`'s dict kernels `_integers`, `_add_into`,
`_multiplied`, `_divided` and `_ratio`.

The obstruction solvers assemble their systems with ``_SparseSystem``:
columns are fixed up front as a list of labels (that list's order is the
solve's column order), a row is created the first time its label is
used, and with (monomial, key) column labels the solution comes back
grouped as {key: {monomial: value}}, the coefficient dicts its callers
take as they are.  The exactness, lift and unary gauge solves enter each
polynomial shifted by an ansatz monomial with ``_add_shifted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Sequence

from .poly import _accumulate, _add_into, _divided, _integers, _multiplied, _ratio, add_exponents


@dataclass
class LinearSolveResult:
    # None for infeasible systems; with vector right-hand sides: label -> solution
    solution: dict[int, Fraction] | None = None
    rank: int = 0
    nullspace: list[dict[int, Fraction]] = field(default_factory=list)
    # for infeasible systems: a reduced row 0 = residual with residual != 0,
    # a vector with vector right-hand sides
    residual: Fraction | None = None

    @property
    def solved(self) -> bool:
        return self.solution is not None


def solve_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[Fraction] | list[dict[Hashable, Fraction]],
    ncols: int,
    want_nullspace: bool = False,
) -> LinearSolveResult:
    """Solve A x = b for sparse rows over exact rationals.

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

    The elimination is in integers.  A row and its right-hand side are
    multiplied by the lcm of their denominators on input; that scale,
    times every later factor the row is scaled by, is kept only to give an
    inconsistent row's residual back on the input's scale.  A pivot row is
    primitive with a positive pivot value p, and stands for row/p: it has
    p in its own pivot column and a 0 in every other pivot column.  A row
    holding v in a pivot column whose row has pivot value p is cleared as
    (p/g) row - (v/g) pivot_row, g = gcd(p, v), and back-elimination of a
    new pivot from an earlier pivot row follows the same rule.  An earlier
    pivot row that this scales is divided by its content again, and a new
    pivot row is made primitive, so the entries stay the size of the
    reduced row-echelon form's own numerators over a common denominator.
    Every integer row is a positive multiple of the rational row that
    plain Gauss-Jordan would hold at the same step, so the same entries
    cancel in the same order and every dict comes out in the same order.
    The solution and nullspace entries are read out as b/p and
    -row[c]/p: one division per reported entry, an int when it is
    integral.

    A new row is cleared by the pivot rows of the pivot columns it holds,
    each once, and ``col_rows`` indexes, for every non-pivot column, the
    pivot rows with a nonzero there; a new pivot is back-eliminated from
    just those rows, and a free column's nullspace vector is read from
    them.  The cost is the number of entries touched, not rows x rank.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    vector = any(isinstance(v, dict) for v in rhs)
    work: list[dict[int, int]] = []
    b: list[dict[Hashable, int]] = []
    pivot_of_col: dict[int, int] = {}
    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    value: dict[int, int] = {}  # pivot row -> its pivot value p
    col_rows: dict[int, set[int]] = {}  # non-pivot column -> pivot rows nonzero there

    for r, (source, source_b) in enumerate(zip(rows, rhs)):
        # a number is the single-label case, under the label None
        br = {k: x for k, x in (source_b if vector else {None: source_b}).items() if x}
        fractions = [x for x in (*source.values(), *br.values()) if type(x) is not int]
        scale = 1
        if fractions:
            scale = lcm(*(x.denominator for x in fractions))
            row, br = _integers(source, scale), _integers(br, scale)
        else:
            row = dict(source)
        work.append(row)
        b.append(br)
        # clear each pivot column the row holds with that column's pivot row
        for pc in [c for c in row if c in pivot_of_col]:
            pr = pivot_of_col[pc]
            p, v = value[pr], row[pc]
            g = gcd(p, v)
            if g != p:
                m = p // g
                _multiplied(row, m)
                _multiplied(br, m)
                scale *= m
            f = -(v // g)
            _add_into(row, work[pr], f)
            if b[pr]:
                _add_into(br, b[pr], f)
        if not row:
            if br:
                residual = {k: _ratio(x, scale) for k, x in br.items()}
                return LinearSolveResult(
                    rank=len(pivots), residual=residual if vector else residual[None]
                )
            continue
        # the pivot is on the smallest-index column, for determinism; make the row
        # primitive with a positive pivot
        pc = min(row)
        g = gcd(*row.values(), *br.values())
        if row[pc] < 0:
            g = -g
        if g != 1:
            _divided(row, g)
            _divided(br, g)
        p = row[pc]
        # back-eliminate from the earlier pivot rows that hold the new pivot column
        for pr in col_rows.pop(pc, ()):
            prow, bpr = work[pr], b[pr]
            u = prow[pc]
            g = gcd(p, u)
            m = p // g
            if m != 1:
                _multiplied(prow, m)
                _multiplied(bpr, m)
            f = -(u // g)
            for c, v in row.items():
                _accumulate(prow, c, f * v)
                if c == pc:
                    continue
                if c in prow:
                    col_rows.setdefault(c, set()).add(pr)
                else:
                    col_rows[c].discard(pr)
            _add_into(bpr, br, f)
            if m != 1:
                content = gcd(*prow.values(), *bpr.values())
                if content != 1:
                    _divided(prow, content)
                    _divided(bpr, content)
                value[pr] = value[pr] * m // content
        for c in row:
            if c != pc:
                col_rows.setdefault(c, set()).add(r)
        pivots.append((r, pc))
        pivot_of_col[pc] = r
        value[r] = p

    solutions: dict[Hashable, dict[int, Fraction]] = {}
    for pr, pc in pivots:
        p = value[pr]
        for k, v in b[pr].items():
            solutions.setdefault(k, {})[pc] = _ratio(v, p)
    nullspace: list[dict[int, Fraction]] = []
    if want_nullspace:
        col_of_pivot_row = dict(pivots)
        for fc in (c for c in range(ncols) if c not in pivot_of_col):
            vec: dict[int, Fraction] = {fc: 1}
            # rows were made pivots in increasing index order
            for pr in sorted(col_rows.get(fc, ())):
                vec[col_of_pivot_row[pr]] = _ratio(-work[pr][fc], value[pr])
            nullspace.append(vec)
    return LinearSolveResult(
        solution=solutions if vector else solutions.get(None, {}),
        rank=len(pivots),
        nullspace=nullspace,
    )


class _SparseSystem:
    """A x = b assembled under row and column labels.

    Rows keep the order in which their labels were first used; an entry
    added twice to one position is summed, and a zero sum is dropped.
    `_solve` groups its solution by the key of each (monomial, key) column.
    """

    def __init__(self, columns: Sequence[Hashable]):
        self.columns = list(columns)
        self._column_index = {label: ci for ci, label in enumerate(self.columns)}
        self._row_index: dict[Hashable, int] = {}
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []

    def _row(self, label: Hashable) -> int:
        r = self._row_index.get(label)
        if r is None:
            r = self._row_index[label] = len(self.rows)
            self.rows.append({})
            self.rhs.append(0)
        return r

    def _add(self, row: Hashable, column: Hashable, value: Fraction):
        """A[row, column] += value."""
        _accumulate(self.rows[self._row(row)], self._column_index[column], value)

    def _add_shifted(self, group: Hashable, base: dict, shift: tuple, column: Hashable, factor=1):
        """A[(group, e + shift), column] += factor * v for each term v x^e of base."""
        ci = self._column_index[column]
        for mono, v in base.items():
            _accumulate(self.rows[self._row((group, add_exponents(mono, shift)))], ci, v * factor)

    def _add_rhs(self, row: Hashable, value: Fraction):
        """b[row] += value."""
        self.rhs[self._row(row)] += value

    def _solve(self) -> dict[Hashable, dict[tuple, Fraction]] | None:
        """A particular solution as {key: {monomial: value}} over (monomial, key)
        columns, keys in order of first use, or None when there is none."""
        result = solve_sparse(self.rows, self.rhs, len(self.columns))
        if not result.solved:
            return None
        solution: dict[Hashable, dict[tuple, Fraction]] = {}
        for ci, v in result.solution.items():
            mono, key = self.columns[ci]
            solution.setdefault(key, {})[mono] = v
        return solution
