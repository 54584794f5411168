"""Exact linear algebra over the rational-function field.

Equations are homogeneous rows  sum_j A[i][j] x_j + sum_k B[i][k] y_k = 0
over unknown columns x and symbolic right-hand columns y; solutions express
each determined unknown as a rational-function combination of the y's (and,
when the system is underdetermined, of free unknowns, which marks the
unknown as not determined).

Rows are eliminated one at a time by fraction-free (Bareiss) steps on
integer polynomial rows, in ascending order of term count.  Each row is
reduced through the pivot rows found so far, in the order they were found,
and then becomes the next pivot row on its unused unknown entry of least
(total degree, terms).  A row reduced through pivots 1..k holds exactly the
minors that whole-matrix Bareiss gives it at step k, so every division is
exact and degrees stay bounded by (number of pivots) x (entry degree).  A
row whose unknown part reduces to zero is a contradiction when its
right-hand part does not.  Once every unknown column has a pivot, the
remaining rows are not eliminated.

Back-substitution stays fraction-free as well: it carries each solution
coefficient times the last pivot Delta (a polynomial, by Cramer's rule) and
divides exactly by each pivot entry.  Each remaining row r is then
certified by substitution: sum_j A[r][j] X_j + Delta B[r] must be the zero
polynomial in every right-hand column, else the system is inconsistent.
The solution keeps the numerators X_j over the one denominator Delta; a
canonical RatFunc, with its gcd, is built only for a coefficient that is
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .polynomials import MultiPoly, RatFunc


@dataclass
class LinearSolution:
    """Solution of a homogeneous system in the sense above.

    ``determined[j]`` maps rhs column index k -> the polynomial numerator
    X_j[k], giving x_j = sum_k (X_j[k] / denominator) y_k;
    ``coefficient(j, k)`` is that term's canonical RatFunc.
    ``free`` are unknown columns without pivots; ``tainted`` are pivot
    columns whose expression involves a free column (hence not determined).
    """

    n_unknowns: int
    denominator: MultiPoly = field(default_factory=MultiPoly.one)
    determined: dict[int, dict[int, MultiPoly]] = field(default_factory=dict)
    free: set[int] = field(default_factory=set)
    tainted: set[int] = field(default_factory=set)
    inconsistent_rows: list[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.inconsistent_rows

    def is_determined(self, col: int) -> bool:
        return col in self.determined

    def coefficient(self, col: int, rhs: int) -> RatFunc:
        """The coefficient of rhs column ``rhs`` in determined unknown ``col``."""
        num = self.determined[col].get(rhs)
        return RatFunc.zero() if num is None else RatFunc(num, self.denominator)


def _normalize_row(row: list[MultiPoly]) -> list[MultiPoly]:
    """Clear rational content so every entry is an integer polynomial."""
    den = 1
    for entry in row:
        den = den * entry._den // math.gcd(den, entry._den)
    if den == 1:
        return row
    scale = MultiPoly.constant(den)
    return [entry * scale for entry in row]


def _bareiss_step(row: list[MultiPoly], pivot_row: list[MultiPoly], col: int,
                  prev: MultiPoly | None) -> list[MultiPoly]:
    """(piv * row - row[col] * pivot_row) / prev, with no division when prev is None."""
    piv, entry = pivot_row[col], row[col]
    out = []
    for a, b in zip(row, pivot_row):
        if entry.is_zero or b.is_zero:
            val = piv * a
        elif a.is_zero:
            val = -(entry * b)
        else:
            val = piv * a - entry * b
        if prev is not None and not val.is_zero:
            val = val.exact_div(prev)
        out.append(val)
    out[col] = MultiPoly.zero()
    return out


def solve_poly_rows(rows: list[list[MultiPoly]], n_unknowns: int) -> LinearSolution:
    """Row-by-row fraction-free elimination that stops at full column rank."""
    solution = LinearSolution(n_unknowns=n_unknowns)
    work = [_normalize_row(list(r)) for r in rows]
    ncols = len(work[0]) if work else n_unknowns
    order = sorted(range(len(work)), key=lambda i: sum(len(e) for e in work[i]))
    pivots: list[tuple[list[MultiPoly], int]] = []  # (reduced row, unknown col)
    used_cols: set[int] = set()
    remaining: list[int] = []  # rows left once every unknown column has a pivot
    for i in order:
        if len(pivots) == n_unknowns:
            remaining.append(i)
            continue
        row, prev = work[i], None
        for pivot_row, col in pivots:
            row = _bareiss_step(row, pivot_row, col, prev)
            prev = pivot_row[col]
        best = None
        for j in range(n_unknowns):
            e = row[j]
            if j in used_cols or e.is_zero:
                continue
            score = (e.total_degree(), len(e))
            if best is None or score < best[0]:
                best = (score, j)
        if best is not None:
            pivots.append((row, best[1]))
            used_cols.add(best[1])
        elif any(not e.is_zero for e in row[n_unknowns:]):
            solution.inconsistent_rows.append(i)
    free = solution.free = set(range(n_unknowns)) - used_cols
    if solution.inconsistent_rows:
        return solution
    # fraction-free back substitution over the last pivot delta, the
    # determinant of the pivot block: X_c[k] = delta * x_c[k] is a polynomial
    # by Cramer's rule, so each step divides exactly by the pivot entry.
    # Keys: rhs columns by index >= n_unknowns, free columns by index.  A
    # pivot row is zero in every earlier pivot column, so the later ones it
    # reads are already solved.
    delta = pivots[-1][0][pivots[-1][1]] if pivots else MultiPoly.one()
    scaled: dict[int, dict[int, MultiPoly]] = {}
    for row, col in reversed(pivots):
        acc: dict[int, MultiPoly] = {}
        for j in range(n_unknowns, ncols):
            if not row[j].is_zero:
                acc[j] = row[j] * delta
        for j in range(n_unknowns):
            if j == col or row[j].is_zero:
                continue
            terms = {j: delta} if j in free else scaled[j]
            for k, v in terms.items():
                acc[k] = acc.get(k, MultiPoly.zero()) + row[j] * v
        scaled[col] = {k: -v.exact_div(row[col]) for k, v in acc.items() if not v.is_zero}
    solution.denominator = delta
    for col, expr in scaled.items():
        if any(k < n_unknowns for k in expr):
            solution.tainted.add(col)
        else:
            solution.determined[col] = expr
    # certify the rows left at full column rank by substitution
    for i in remaining:
        row = work[i]
        for k in range(n_unknowns, ncols):
            total = row[k] * delta
            for j in range(n_unknowns):
                if not row[j].is_zero and k in solution.determined[j]:
                    total = total + row[j] * solution.determined[j][k]
            if not total.is_zero:
                solution.inconsistent_rows.append(i)
                break
    return solution
