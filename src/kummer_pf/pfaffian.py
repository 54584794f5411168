"""First-order closure of the canonical system: the Pfaffian connection.

Given the second-order annihilators, every theta monomial theta_g . b that
leaves a chosen basis of theta monomials (g a generator, b a basis element)
is reduced, modulo the left ideal they generate, to a rational-function
combination of the basis.  The reduction pool is the relations themselves
plus every composition theta_g . R_i; a single fraction-free elimination
over Q[p,q,r] then determines all reductions at once, and only those
targets are put in canonical form.  When the chosen basis closes, the theta
actions assemble into matrices N_x with

    theta_x (basis_j u) = sum_k N_x[j][k] (basis_k u),

and M_x = N_x / x gives the connection d(phi) = (M_p dp + M_q dq + M_r dr) phi
on phi = (basis_j u).  A rank witness is constructive: the five-element
basis {1, tp, tq, tr, tp^2} closes for the full system but not for the
four toric relations alone, while the six-element basis {1, tp, tq, tr,
tp^2, tq^2} closes for the toric relations.

Integrability (d Omega = Omega ^ Omega) is certified as three exact
polynomial matrix identities.  Each row is cleared by its own denominator,
the lcm of that row's entry denominators in all three matrices, so rows
with small denominators stay small polynomials; there is no floating point
and no rational-function gcd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .divisors import CANDIDATE_DIVISORS
from .linalg import solve_poly_rows
from .operators import CanonicalSystem, ThetaOperator, build_canonical_system
from .polynomials import MultiPoly, RatFunc, poly_lcm
from .series import period_series

ThetaExps = tuple[int, int, int]

GENERATORS: tuple[ThetaExps, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
VAR_OF_GENERATOR = {(1, 0, 0): "p", (0, 1, 0): "q", (0, 0, 1): "r"}

BASIS_P2: tuple[ThetaExps, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0))
BASIS_Q2: tuple[ThetaExps, ...] = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0))
BASIS_RANK6: tuple[ThetaExps, ...] = (
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0),
)

BASIS_BY_NAME = {"p2": BASIS_P2, "q2": BASIS_Q2, "p2q2": BASIS_RANK6}


class BasisClosureError(Exception):
    """The requested basis does not close to a first-order system."""

    def __init__(self, basis: Sequence[ThetaExps], undetermined: set[ThetaExps],
                 message: str | None = None):
        self.basis = tuple(basis)
        self.undetermined = undetermined
        super().__init__(message or (
            f"basis {list(basis)} does not close; "
            f"undetermined monomials: {sorted(undetermined)}"))


class BasisDependenceError(BasisClosureError):
    """The basis monomials are linearly dependent modulo the relations: the
    basis is larger than the rank of the system."""

    def __init__(self, basis: Sequence[ThetaExps]):
        super().__init__(basis, set(), (
            f"basis {list(basis)} is linearly dependent modulo the relations; "
            f"the system has rank below {len(basis)}"))


@dataclass(frozen=True)
class PfaffianSystem:
    """Connection matrices in the d/dx convention: rows expand d/dx of the
    basis entries, so theta_x action is x * M_x."""

    basis: tuple[ThetaExps, ...]
    mp: tuple[tuple[RatFunc, ...], ...]
    mq: tuple[tuple[RatFunc, ...], ...]
    mr: tuple[tuple[RatFunc, ...], ...]

    def matrix(self, var: str) -> tuple[tuple[RatFunc, ...], ...]:
        return {"p": self.mp, "q": self.mq, "r": self.mr}[var]

    @property
    def size(self) -> int:
        return len(self.basis)

    def theta_matrix(self, var: str) -> list[list[RatFunc]]:
        """N_x = x * M_x: the theta_x action on the basis."""
        x = RatFunc.from_poly(MultiPoly.variable(var))
        return [[x * entry for entry in row] for row in self.matrix(var)]

    def to_json(self) -> dict:
        return {
            "basis": [list(b) for b in self.basis],
            "Mp": [e.to_text() for row in self.mp for e in row],
            "Mq": [e.to_text() for row in self.mq for e in row],
            "Mr": [e.to_text() for row in self.mr for e in row],
        }

    @classmethod
    def from_json(cls, data: dict) -> PfaffianSystem:
        basis = tuple(tuple(b) for b in data["basis"])
        n = len(basis)

        def grid(flat: list[str]) -> tuple[tuple[RatFunc, ...], ...]:
            entries = [RatFunc.from_text(t) for t in flat]
            return tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))

        return cls(basis=basis, mp=grid(data["Mp"]), mq=grid(data["Mq"]),
                   mr=grid(data["Mr"]))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> PfaffianSystem:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _operator_row(op: ThetaOperator, columns: Sequence[ThetaExps]) -> list[MultiPoly]:
    row = []
    covered = set()
    for exps in columns:
        row.append(op.coefficient(exps))
        covered.add(exps)
    missing = set(op.terms) - covered
    if missing:
        raise AssertionError(f"operator has monomials outside the column set: {missing}")
    return row


def reduction_pool(relations: Sequence[ThetaOperator]) -> list[ThetaOperator]:
    """The relations and all first-order compositions theta_g . R_i."""
    pool = list(relations)
    for g in GENERATORS:
        theta_g = ThetaOperator.monomial(g, 1)
        for rel in relations:
            pool.append(theta_g.compose(rel))
    return pool


def _closure_targets(basis: Sequence[ThetaExps]) -> set[ThetaExps]:
    """The monomials theta_g . b (g a generator, b in the basis) outside the basis."""
    return {(b[0] + g[0], b[1] + g[1], b[2] + g[2]) for g in GENERATORS for b in basis
            } - set(basis)


def reduce_monomials(relations: Sequence[ThetaOperator], basis: Sequence[ThetaExps]
                     ) -> tuple[dict[ThetaExps, dict[ThetaExps, RatFunc]], set[ThetaExps]]:
    """Reduce every closure target of the basis modulo the ideal.

    Returns (reductions, undetermined): reductions[m][b] is the coefficient
    of basis monomial b in the reduction of target m; undetermined collects
    the targets the pool does not pin down (free, tainted, or absent from
    the pool).  Raises BasisDependenceError when the basis itself is
    dependent modulo the ideal.
    """
    pool = reduction_pool(relations)
    monomials: set[ThetaExps] = set()
    for op in pool:
        monomials.update(op.terms)
    basis_set = set(basis)
    unknown_cols = sorted(m for m in monomials if m not in basis_set)
    rhs_cols = list(basis)
    columns = unknown_cols + rhs_cols
    rows = [_operator_row(op, columns) for op in pool]
    solution = solve_poly_rows(rows, len(unknown_cols))
    if not solution.consistent:
        # a pool row with no unknown left is a relation among the basis
        raise BasisDependenceError(basis)
    targets = _closure_targets(basis)
    reductions: dict[ThetaExps, dict[ThetaExps, RatFunc]] = {}
    for idx, mono in enumerate(unknown_cols):
        if mono in targets and solution.is_determined(idx):
            reductions[mono] = {rhs_cols[k - len(unknown_cols)]: solution.coefficient(idx, k)
                                for k in solution.determined[idx]}
    return reductions, targets - set(reductions)


def derive_pfaffian(relations: Sequence[ThetaOperator] | CanonicalSystem,
                    basis: Sequence[ThetaExps] = BASIS_P2) -> PfaffianSystem:
    """Derive the connection on the given basis; raises BasisClosureError
    when the basis does not close (the constructive rank witness)."""
    if isinstance(relations, CanonicalSystem):
        relations = list(relations.operators)
    basis = tuple(basis)
    reductions, undetermined = reduce_monomials(relations, basis)
    if undetermined:
        raise BasisClosureError(basis, undetermined)
    matrices = {}
    for g in GENERATORS:
        var = VAR_OF_GENERATOR[g]
        x = RatFunc.from_poly(MultiPoly.variable(var))
        rows = []
        for w in basis:
            target = (w[0] + g[0], w[1] + g[1], w[2] + g[2])
            if target in basis:
                expr = {target: RatFunc.one()}
            else:
                expr = reductions[target]
            rows.append(tuple(expr.get(b, RatFunc.zero()) / x for b in basis))
        matrices[var] = tuple(rows)
    return PfaffianSystem(basis=basis, mp=matrices["p"], mq=matrices["q"],
                          mr=matrices["r"])


# -- integrability ------------------------------------------------------------


def check_integrability(system: PfaffianSystem) -> int:
    """Verify the three commutator identities exactly.

    Row i of every matrix is cleared by its own denominator d_i, the lcm of
    that row's entry denominators in M_p, M_q and M_r: M_x[i][j] =
    N_x[i][j] / d_i.  With D = lcm_i d_i and e_i = D / d_i, entry (i, j) of
    d_i D (d/dx M_y - d/dy M_x - [M_x, M_y]) is the polynomial

        D (d/dx N_y - d/dy N_x)[i][j] - e_i (N_y[i][j] dd_i/dx - N_x[i][j] dd_i/dy)
          - sum_k (N_x[i][k] e_k N_y[k][j] - N_y[i][k] e_k N_x[k][j]).

    d_i D is nonzero, so the residual -- the number of nonzero entries
    across the three identities -- is the same as for the uncleared
    matrices (0 means integrable).
    """
    n = system.size
    row_dens = [reduce(poly_lcm, (e.den for var in "pqr" for e in system.matrix(var)[i]))
                for i in range(n)]
    den = reduce(poly_lcm, row_dens)
    cofactors = [den.exact_div(d) for d in row_dens]
    cleared = {
        var: [[entry.num * d.exact_div(entry.den) for entry in row]
              for row, d in zip(system.matrix(var), row_dens)]
        for var in "pqr"
    }
    # N_x[i][k] e_k, the left factor of every commutator product
    scaled = {var: [[e * c for e, c in zip(row, cofactors)] for row in rows]
              for var, rows in cleared.items()}
    residual = 0
    for x, y in (("p", "q"), ("q", "r"), ("r", "p")):
        nx, ny, hx, hy = cleared[x], cleared[y], scaled[x], scaled[y]
        for i in range(n):
            d_x, d_y = row_dens[i].derivative(x), row_dens[i].derivative(y)
            for j in range(n):
                commutator = sum((hx[i][k] * ny[k][j] - hy[i][k] * nx[k][j]
                                  for k in range(n)), MultiPoly.zero())
                entry = (den * (ny[i][j].derivative(x) - nx[i][j].derivative(y))
                         - cofactors[i] * (ny[i][j] * d_x - nx[i][j] * d_y)
                         - commutator)
                residual += not entry.is_zero
    return residual


# -- singular locus ------------------------------------------------------------


@dataclass
class SingularReport:
    occurring: set[str]
    leftovers: list[tuple[str, int, int, MultiPoly]]

    @property
    def complete(self) -> bool:
        return not self.leftovers


def singular_factors(system: PfaffianSystem,
                     require_complete: bool = True) -> SingularReport:
    """Trial-divide every entry denominator by the candidate divisors.

    With require_complete, a cofactor that is not constant after removing
    all candidate powers is a hard failure; otherwise it is recorded in the
    report (used for alternate bases, where a new factor is expected)."""
    occurring: set[str] = set()
    leftovers: list[tuple[str, int, int, MultiPoly]] = []
    for var in "pqr":
        m = system.matrix(var)
        for i, row in enumerate(m):
            for j, entry in enumerate(row):
                den = entry.den
                if den.is_constant():
                    continue
                for name, poly in CANDIDATE_DIVISORS.items():
                    while poly.divides(den):
                        den = den.exact_div(poly)
                        occurring.add(name)
                        if den.is_constant():
                            break
                    if den.is_constant():
                        break
                if not den.is_constant():
                    leftovers.append((var, i + 1, j + 1, den.primitive_part()))
    if require_complete and leftovers:
        sample = leftovers[0]
        raise AssertionError(
            f"unexpected denominator factor in M_{sample[0]}[{sample[1]},{sample[2]}]: "
            f"{sample[3].to_text()}")
    return SingularReport(occurring=occurring, leftovers=leftovers)


def divisor_occurrence(system: PfaffianSystem, poly: MultiPoly) -> bool:
    """True iff the polynomial divides at least one entry denominator."""
    for var in "pqr":
        for row in system.matrix(var):
            for entry in row:
                if poly.divides(entry.den):
                    return True
    return False


# -- series cross-check --------------------------------------------------------


def series_consistency_defects(system: PfaffianSystem, cap: int
                               ) -> list[tuple[str, ThetaExps]]:
    """Check theta_x(W u) = sum_j N_x[W][j] (basis_j u) on the truncated
    period series, as exact polynomial-coefficient identities (denominators
    cleared row by row).  Returns the failing (direction, W) pairs."""
    u = period_series(cap)
    basis_images = {
        w: u.theta_scale(w) for w in system.basis
    }
    defects = []
    for var in "pqr":
        g = {"p": (1, 0, 0), "q": (0, 1, 0), "r": (0, 0, 1)}[var]
        n = system.theta_matrix(var)
        for i, w in enumerate(system.basis):
            target = (w[0] + g[0], w[1] + g[1], w[2] + g[2])
            lhs_series = u.theta_scale(target)
            den = MultiPoly.one()
            for entry in n[i]:
                den = poly_lcm(den, entry.den)
            acc = lhs_series.multiply_poly(den)
            for j, entry in enumerate(n[i]):
                if entry.is_zero:
                    continue
                cleared = entry.num * den.exact_div(entry.den)
                acc = acc - basis_images[system.basis[j]].multiply_poly(cleared)
            if not acc.is_zero:
                defects.append((var, w))
    return defects


# -- fixture comparison ---------------------------------------------------------


@dataclass
class FixtureDiff:
    """Entry-by-entry comparison of a derived system against reference
    matrices given in the theta convention (N_x = x * M_x)."""

    entries: list[tuple[str, int, int, bool, str, str]]
    convention: str = "theta-scaled rows: fixture[x][i][j] vs x * M_x[i][j]"

    @property
    def mismatches(self) -> list[tuple[str, int, int, bool, str, str]]:
        return [e for e in self.entries if not e[3]]

    def mismatches_in_rows(self, rows: Iterable[int]) -> list:
        rowset = set(rows)
        return [e for e in self.mismatches if e[1] in rowset]

    def to_json(self) -> dict:
        return {
            "convention": self.convention,
            "mismatch_count": len(self.mismatches),
            "entries": [
                {"matrix": m, "row": i, "col": j, "match": ok,
                 **({} if ok else {"derived": d, "reference": f})}
                for (m, i, j, ok, d, f) in self.entries
            ],
        }


def compare_fixture(system: PfaffianSystem,
                    fixture: dict[str, list[list[RatFunc]]]) -> FixtureDiff:
    """Compare against reference matrices; never a hard failure."""
    entries = []
    for var in "pqr":
        derived = system.theta_matrix(var)
        ref = fixture[var]
        for i in range(len(derived)):
            for j in range(len(derived)):
                ok = derived[i][j] == ref[i][j]
                entries.append((
                    var, i + 1, j + 1, ok,
                    derived[i][j].to_text(), ref[i][j].to_text(),
                ))
    return FixtureDiff(entries=entries)


def rank5_system(basis_choice: str = "p2") -> PfaffianSystem:
    """The full five-relation system on the requested five-element basis."""
    return derive_pfaffian(build_canonical_system(), BASIS_BY_NAME[basis_choice])


def rank6_system() -> PfaffianSystem:
    """The four toric relations on the six-element basis."""
    return derive_pfaffian(build_canonical_system().gkz_part(), BASIS_RANK6)
