"""Exact linear algebra over the rational-function field.

Systems arising from operator elimination are solved by fraction-free
(Bareiss) Gaussian elimination on integer polynomial rows: every
intermediate entry is a minor of the original matrix, so degrees stay
bounded by (number of pivots) x (entry degree).  Back-substitution stays
fraction-free as well: it carries each solution coefficient times the last
pivot (a polynomial, by Cramer's rule) and divides exactly by each pivot
entry, so the only rational-function gcd is one per nonzero determined
entry, when it is finally written over the last pivot.

Equations are homogeneous rows  sum_j A[i][j] x_j + sum_k B[i][k] y_k = 0
over unknown columns x and symbolic right-hand columns y; solutions express
each determined unknown as a RatFunc combination of the y's (and, when the
system is underdetermined, of free unknowns, which marks the unknown as
not determined).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .polynomials import MultiPoly, RatFunc


@dataclass
class LinearSolution:
    """Solution of a homogeneous system in the sense above.

    ``determined[j]`` maps rhs column index -> RatFunc coefficient, giving
    x_j = sum_k coeff
    ``free`` are unknown columns without pivots; ``tainted`` are pivot
    columns whose expression involves a free column (hence not determined).
    """

    n_unknowns: int
    determined: dict[int, dict[int, RatFunc]] = field(default_factory=dict)
    free: set[int] = field(default_factory=set)
    tainted: set[int] = field(default_factory=set)
    inconsistent_rows: list[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.inconsistent_rows

    def is_determined(self, col: int) -> bool:
        return col in self.determined


def _normalize_row(row: list[MultiPoly]) -> list[MultiPoly]:
    """Clear rational content so every entry is an integer polynomial."""
    den = 1
    for entry in row:
        den = den * entry._den // math.gcd(den, entry._den)
    if den == 1:
        return row
    scale = MultiPoly.constant(den)
    return [entry * scale for entry in row]


def solve_poly_rows(rows: list[list[MultiPoly]], n_unknowns: int) -> LinearSolution:
    """Fraction-free elimination with full pivoting on the unknown columns."""
    if not rows:
        return LinearSolution(n_unknowns=n_unknowns, free=set(range(n_unknowns)))
    ncols = len(rows[0])
    work = [_normalize_row(list(r)) for r in rows]
    nrows = len(work)
    prev = MultiPoly.one()
    pivots: list[tuple[int, int]] = []  # (row, unknown col) in elimination order
    used_cols: set[int] = set()
    rank = 0
    while rank < nrows:
        best = None
        for i in range(rank, nrows):
            for j in range(n_unknowns):
                if j in used_cols:
                    continue
                e = work[i][j]
                if e.is_zero:
                    continue
                score = (e.total_degree(), len(e))
                if best is None or score < best[0]:
                    best = (score, i, j)
        if best is None:
            break
        _, pi, pj = best
        work[rank], work[pi] = work[pi], work[rank]
        piv = work[rank][pj]
        for i in range(rank + 1, nrows):
            entry = work[i][pj]
            if entry.is_zero:
                row_i = work[i]
                row_p = work[rank]
                work[i] = [
                    (piv * row_i[j]).exact_div(prev) if not row_i[j].is_zero else row_i[j]
                    for j in range(ncols)
                ]
            else:
                row_i = work[i]
                row_p = work[rank]
                new_row = []
                for j in range(ncols):
                    val = piv * row_i[j] - entry * row_p[j]
                    if not val.is_zero:
                        val = val.exact_div(prev)
                    new_row.append(val)
                new_row[pj] = MultiPoly.zero()
                work[i] = new_row
        prev = piv
        pivots.append((rank, pj))
        used_cols.add(pj)
        rank += 1
    free = set(range(n_unknowns)) - used_cols
    solution = LinearSolution(n_unknowns=n_unknowns, free=free)
    # consistency: rows past the rank have zero unknown part by construction;
    # any nonzero rhs entry there is a contradiction
    for i in range(rank, nrows):
        if any(not work[i][j].is_zero for j in range(n_unknowns)):
            raise AssertionError("elimination left a nonzero unknown entry past the rank")
        if any(not work[i][j].is_zero for j in range(n_unknowns, ncols)):
            solution.inconsistent_rows.append(i)
    if solution.inconsistent_rows:
        return solution
    # fraction-free back substitution over the last pivot delta, the
    # determinant of the pivot block: X_c[k] = delta * x_c[k] is a polynomial
    # by Cramer's rule, so each step divides exactly by the pivot entry.
    # Keys: rhs columns by index >= n_unknowns, free columns by index.
    delta = prev
    scaled: dict[int, dict[int, MultiPoly]] = {}
    for row_idx, col in reversed(pivots):
        row = work[row_idx]
        acc: dict[int, MultiPoly] = {}
        for j in range(n_unknowns, ncols):
            if not row[j].is_zero:
                acc[j] = row[j] * delta
        for j in range(n_unknowns):
            if j == col or row[j].is_zero:
                continue
            if j in free:
                acc[j] = acc.get(j, MultiPoly.zero()) + row[j] * delta
            elif j in scaled:
                for k, v in scaled[j].items():
                    acc[k] = acc.get(k, MultiPoly.zero()) + row[j] * v
            else:
                # earlier pivot columns were zeroed when this row sat below them
                raise AssertionError("nonzero entry in an already-eliminated pivot column")
        scaled[col] = {k: -v.exact_div(row[col]) for k, v in acc.items() if not v.is_zero}
    for col, expr in scaled.items():
        if any(k < n_unknowns for k in expr):
            solution.tainted.add(col)
        else:
            solution.determined[col] = {k: RatFunc(v, delta) for k, v in expr.items()}
    return solution
