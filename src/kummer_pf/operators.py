"""Normal-ordered Euler-operator calculus.

A ``ThetaOperator`` is a linear partial differential operator

    sum over (a, b, c) of  coeff_{abc}(p, q, r) . tp^a tq^b tr^c,

where tp = p d/dp, tq = q d/dq, tr = r d/dr are the three Euler operators.
Normal form keeps every polynomial coefficient to the LEFT of the theta
monomials.  The Euler operators commute with each other and satisfy

    tx . x^k = x^k . (tx + k),

which is the only commutation rule composition ever needs.  On a monomial
p^l q^m r^n the operator acts diagonally through (l, m, n), which is how
``apply`` pushes operators onto truncated series.  Polynomials in the
commuting thetas are ``MultiPoly`` values in the variables ``TP``, ``TQ``
and ``TR`` (the p, q and r slots stand for tp, tq and tr).

``build_canonical_system`` writes down, as annihilators (LHS - RHS), the
four second-order equations obtained from the toric reduction plus the one
extra second-order equation that cuts the solution space from rank six to
rank five.  ``coefficient_identity`` is the quintic polynomial in
(l, m, n) whose vanishing is equivalent to the extra equation killing the
period series; ``identity_check`` certifies it is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .polynomials import MultiPoly
from .series import TruncatedSeries

ThetaExps = tuple[int, int, int]

# The three commuting Euler operators tp, tq, tr as polynomial variables.
TP = MultiPoly.variable("p")
TQ = MultiPoly.variable("q")
TR = MultiPoly.variable("r")

# Degree-safety margin for annihilation checks on truncated series: the
# largest monomial multiplier in the canonical system (p^2 q, p^2 r) has
# total degree 3, so images are only asserted through cap - 3.
DEGREE_MARGIN = 3


class ThetaOperator:
    """Normal-ordered operator: map from theta exponents to MultiPoly coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ThetaExps, MultiPoly] | None = None):
        self.terms: dict[ThetaExps, MultiPoly] = {}
        for exps, coeff in (terms or {}).items():
            if not coeff.is_zero:
                self.terms[exps] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def theta(cls, var: str) -> ThetaOperator:
        exps = [0, 0, 0]
        exps["pqr".index(var)] = 1
        return cls({tuple(exps): MultiPoly.one()})

    @classmethod
    def monomial(cls, theta_exps: ThetaExps, coeff: MultiPoly | int | Fraction = 1) -> ThetaOperator:
        if not isinstance(coeff, MultiPoly):
            coeff = MultiPoly.constant(coeff)
        return cls({theta_exps: coeff})

    @classmethod
    def from_theta_poly(cls, tpoly: MultiPoly, coeff: MultiPoly | int | Fraction = 1) -> ThetaOperator:
        """Attach a polynomial coefficient to a polynomial in the commuting thetas."""
        if not isinstance(coeff, MultiPoly):
            coeff = MultiPoly.constant(coeff)
        return cls({exps: coeff * c for exps, c in tpoly.terms()})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coefficient(self, theta_exps: ThetaExps) -> MultiPoly:
        return self.terms.get(theta_exps, MultiPoly.zero())

    def items(self) -> Iterator[tuple[ThetaExps, MultiPoly]]:
        for exps in sorted(self.terms):
            yield exps, self.terms[exps]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: ThetaOperator) -> ThetaOperator:
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps)
            out[exps] = coeff if s is None else s + coeff
        return ThetaOperator(out)

    def __neg__(self) -> ThetaOperator:
        return ThetaOperator({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: ThetaOperator) -> ThetaOperator:
        return self + (-other)

    # -- composition and action ---------------------------------------------

    def compose(self, other: ThetaOperator) -> ThetaOperator:
        """Normal-ordered product self . other.

        Pushing a theta monomial across a coefficient monomial p^i q^j r^k
        turns tp^a tq^b tr^c into (tp+i)^a (tq+j)^b (tr+k)^c.
        """
        out: dict[ThetaExps, MultiPoly] = {}
        for (a1, a2, a3), ca in self.terms.items():
            for b, cb in other.terms.items():
                for (i, j, k), q in cb.terms():
                    shifted = (TP + i) ** a1 * (TQ + j) ** a2 * (TR + k) ** a3
                    front = ca * MultiPoly.monomial((i, j, k), q)
                    for exps, t_coeff in shifted.shift(b).terms():
                        contrib = front * t_coeff
                        s = out.get(exps)
                        out[exps] = contrib if s is None else s + contrib
        return ThetaOperator(out)

    def apply(self, s: TruncatedSeries) -> TruncatedSeries:
        """Exact image of a truncated series, truncated at its cap."""
        result = TruncatedSeries(s.degree_cap)
        for theta_exps, coeff in self.terms.items():
            result = result + s.theta_scale(theta_exps).multiply_poly(coeff)
        return result

    # -- encoding ------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"theta": list(exps), "coeff": coeff.to_text()}
            for exps, coeff in self.items()
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> ThetaOperator:
        return cls({
            tuple(entry["theta"]): MultiPoly.from_text(entry["coeff"])
            for entry in data
        })

    def __repr__(self) -> str:
        parts = []
        for (a, b, c), coeff in self.items():
            mono = "".join(
                f" {n}^{e}" if e > 1 else (f" {n}" if e else "")
                for n, e in zip(("tp", "tq", "tr"), (a, b, c))
            )
            parts.append(f"({coeff}){mono}")
        return "ThetaOperator[" + " + ".join(parts or ["0"]) + "]"


@dataclass(frozen=True)
class CanonicalSystem:
    """The five annihilators, in the fixed order: four toric-reduction
    equations, then the extra rank-cutting equation."""

    operators: tuple[ThetaOperator, ...]
    names: tuple[str, ...]

    def __iter__(self):
        return iter(self.operators)

    def gkz_part(self) -> tuple[ThetaOperator, ...]:
        return self.operators[:4]

    def extra(self) -> ThetaOperator:
        return self.operators[4]


def build_canonical_system() -> CanonicalSystem:
    """Transcribe the five operators in normal form, each as LHS - RHS."""
    p = MultiPoly.variable("p")
    q = MultiPoly.variable("q")
    r = MultiPoly.variable("r")

    # q^2 tp tr - p r tq (tq - 1)
    op1 = (
        ThetaOperator.from_theta_poly(TP * TR, q * q)
        - ThetaOperator.from_theta_poly(TQ * (TQ - 1), p * r)
    )
    # p^2 tq (tq + 2 tr) - q tp (tp - 1)
    op2 = (
        ThetaOperator.from_theta_poly(TQ * (TQ + 2 * TR), p * p)
        - ThetaOperator.from_theta_poly(TP * (TP - 1), q)
    )
    # tp (tp + 2 tq + 3 tr) - p (tp + 2 tq + 3 tr + 1/2)^2
    euler_weight = TP + 2 * TQ + 3 * TR
    op3 = (
        ThetaOperator.from_theta_poly(TP * euler_weight)
        - ThetaOperator.from_theta_poly((euler_weight + Fraction(1, 2)) ** 2, p)
    )
    # p q tr (tq + 2 tr) - r tp tq
    op4 = (
        ThetaOperator.from_theta_poly(TR * (TQ + 2 * TR), p * q)
        - ThetaOperator.from_theta_poly(TP * TQ, r)
    )
    # 9 q r tp (1 + 2 tr) - 4 p r tq (2 tq + 3 tr) - 4 p^2 q tr (tq + 2 tr)
    #   + 4 p^2 r tq (tp + 4 tq + 6 tr) + p q^2 tr (1 + 16 tq + 30 tr)
    op5 = (
        ThetaOperator.from_theta_poly(TP * (1 + 2 * TR), 9 * q * r)
        - ThetaOperator.from_theta_poly(TQ * (2 * TQ + 3 * TR), 4 * p * r)
        - ThetaOperator.from_theta_poly(TR * (TQ + 2 * TR), 4 * p * p * q)
        + ThetaOperator.from_theta_poly(TQ * (TP + 4 * TQ + 6 * TR), 4 * p * p * r)
        + ThetaOperator.from_theta_poly(TR * (1 + 16 * TQ + 30 * TR), p * q * q)
    )
    return CanonicalSystem(
        operators=(op1, op2, op3, op4, op5),
        names=("gkz1", "gkz2", "gkz3", "gkz4", "extra"),
    )


def coefficient_identity(l, m, n):
    """The quintic in (l, m, n) that the extra equation pushes onto the
    period coefficients, for any commutative ring elements; identically
    zero."""
    s4 = l + 2 * m + 3 * n - 4
    t9 = 2 * l + 4 * m + 6 * n - 9
    return (
        9 * (2 * n - 1) * (m + 2 * n - 2) * s4
        - t9 * t9 * (2 * m + 3 * n - 3)
        - t9 * t9 * (l - 1)
        + 4 * (l - 1) * s4 * (l + 4 * m + 6 * n - 8)
        + (m - 1) * s4 * (16 * m + 30 * n - 31)
    )


def identity_check(spot_points: Sequence[tuple[int, int, int]] = ()) -> bool:
    """Certify the coefficient identity: its full symbolic expansion in
    MultiPoly is the zero polynomial, and the same formula evaluated in
    plain int arithmetic vanishes at every spot point.  Nonzero is a hard
    failure."""
    expansion = coefficient_identity(TP, TQ, TR)
    if not expansion.is_zero:
        raise AssertionError(f"coefficient identity expansion is nonzero: {expansion!r}")
    for pt in spot_points:
        value = coefficient_identity(*pt)
        if value != 0:
            raise AssertionError(f"coefficient identity nonzero at {pt}: {value}")
    return True
