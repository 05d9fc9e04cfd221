"""Sparse exact linear algebra over the rationals.

Systems produced by the operator ansatz solvers are sparse (about one
nonzero per row) but reach thousands of rows and columns.  ``solve_sparse``
runs Gauss-Jordan elimination on dict rows of ``int`` or ``Fraction`` entries.  Its
pivot rows are kept reduced against each other (a 1 in their own pivot
column, a 0 in every other one), so a new row is cleared only at the
pivot columns it holds, and an index from each non-pivot column to the
pivot rows nonzero there drives back-elimination and the nullspace: the
cost is proportional to the entries touched, not to rows x rank.
Everything is exact; infeasibility comes with the offending reduced row
so callers can report an honest certificate.  A right-hand side may be a
sparse vector of labelled values instead of a number: one elimination
of A then solves A x = b_label for every label, instead of one
elimination per label.

The obstruction solvers assemble their systems with ``_SparseSystem``:
columns are fixed up front as a list of labels (that list's order is the
solve's column order), a row is created the first time its label is
used, and the solution and nullspace come back keyed by column label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Sequence

from .poly import _accumulate


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


class _SparseSystem:
    """A x = b assembled under row and column labels.

    Rows keep the order in which their labels were first used; an entry
    added twice to one position is summed, and a zero sum is dropped.
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

    def _add_rhs(self, row: Hashable, value: Fraction):
        """b[row] += value."""
        self.rhs[self._row(row)] += value

    def _solve(
        self, want_nullspace: bool = False
    ) -> tuple[dict[Hashable, Fraction], list[dict[Hashable, Fraction]]] | None:
        """(particular solution, nullspace basis) keyed by column label, or None."""
        result = solve_sparse(self.rows, self.rhs, len(self.columns), want_nullspace)
        if not result.solved:
            return None
        cols = self.columns
        solution = {cols[ci]: v for ci, v in result.solution.items()}
        nullspace = [{cols[ci]: v for ci, v in vec.items()} for vec in result.nullspace]
        return solution, nullspace
