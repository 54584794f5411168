"""Parameter correspondences and discriminant geometry of the family.

The surface K(p,q,r): y^2 = x (x + t^2) (x + t^3 + p t^2 + q t + r) sits
under two coordinate systems: the genus-two branch points (l1, l2, l3),
mapped in by ``lambda_to_pqr``, and the weighted parameters
(t4, t6, t10, t12) of the standard Weierstrass form, mapped out by
``pqrb_to_t`` with weights (2, 4, 6, 2) -> (4, 6, 10, 12).

The x-discriminant of the cubic factorizes as t^4 R3(t)^2 R2(t)^2 with
R3 = t^3 + p t^2 + q t + r and R2 = R3 - t^2; the t-discriminants of R2 and
R3 are -d2 and -d3, which is why those two divisors bound the singular
locus of the connection.  All of these are certified here as exact
polynomial identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import SINGULAR_DIVISORS, D2, D3
from .polynomials import P, Q, R, TuplePoly

Scalar = Fraction | int | complex


@dataclass(frozen=True)
class LambdaPoint:
    """Branch-point parameters; the map below needs d != 0."""

    l1: Scalar
    l2: Scalar
    l3: Scalar

    def denominator(self) -> Scalar:
        return (self.l2 - 1) * self.l2 * (self.l1 - self.l3)


def lambda_numerators(point: LambdaPoint) -> tuple:
    """(p_num, q_core, q_tail) of the lambda map over any commutative ring:
    p = p_num / d, q = q_core q_tail / d^2, r = q_core^2 / d^3."""
    l1, l2, l3 = point.l1, point.l2, point.l3
    p_num = -(
        l1 * l2 - l1**2 * l2 - l1 * l3 + 2 * l1**2 * l3 - 3 * l1 * l2 * l3
        + 2 * l1**2 * l2 * l3 + l2**2 * l3 - l1 * l2**2 * l3 + 2 * l1 * l3**2
        - 3 * l1**2 * l3**2 - l2 * l3**2 + 2 * l1 * l2 * l3**2
    )
    q_core = (l1 - 1) * l1 * (l1 - l2) * (l2 - l3) * (l3 - 1) * l3
    q_tail = l1 - l2 + l1 * l2 + l3 - 3 * l1 * l3 + l2 * l3
    return p_num, q_core, q_tail


def lambda_to_pqr(point: LambdaPoint | tuple[Scalar, Scalar, Scalar]
                  ) -> tuple[Scalar, Scalar, Scalar]:
    """The branch-point to (p, q, r) correspondence, exact on Fractions."""
    if not isinstance(point, LambdaPoint):
        point = LambdaPoint(*point)
    d = point.denominator()
    if d == 0:
        raise ZeroDivisionError("lambda point lies on the degenerate locus d = 0")
    p_num, q_core, q_tail = lambda_numerators(point)
    p = p_num / d
    q = q_core * q_tail / d**2
    r = q_core**2 / d**3
    return p, q, r


def pqrb_to_t(p: Scalar, q: Scalar, r: Scalar, b: Scalar
              ) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Weighted parameters of the standard Weierstrass form."""
    third = Fraction(1, 3)
    t4 = -third * b * b + third * b * p - third * p * p + q
    t6 = Fraction(-1, 54) * (b - 2 * p) * (4 * b * b + 2 * b * p - 2 * p * p + 9 * q) - r
    t10 = Fraction(1, 4) * b * b * r
    t12 = Fraction(1, 48) * b * b * (3 * q * q + 4 * b * r - 8 * p * r)
    return t4, t6, t10, t12


def weighted_homogeneity_witness() -> bool:
    """Exact identity: scaling (p,q,r,b) by s^(2,4,6,2) scales the targets
    by s^(4,6,10,12).  Nonzero residual is a hard failure."""
    p = TuplePoly.variable(5, 0)
    q = TuplePoly.variable(5, 1)
    r = TuplePoly.variable(5, 2)
    b = TuplePoly.variable(5, 3)
    s = TuplePoly.variable(5, 4)
    targets = pqrb_to_t(p, q, r, b)
    weights_out = (4, 6, 10, 12)
    substituted = pqrb_to_t(s * s * p, s**4 * q, s**6 * r, s * s * b)
    for t, w, sub in zip(targets, weights_out, substituted):
        if sub != s**w * t:
            raise AssertionError(f"homogeneity fails for weight-{w} target")
    return True


def cubic_discriminant(a, b, c):
    """Discriminant of the monic cubic t^3 + a t^2 + b t + c, for any
    commutative ring elements."""
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def discriminant_identities() -> bool:
    """d2 = -disc(R2), d3 = -disc(R3), exactly."""
    if -cubic_discriminant(P - 1, Q, R) != D2:
        raise AssertionError("d2 is not the negated discriminant of R2")
    if -cubic_discriminant(P, Q, R) != D3:
        raise AssertionError("d3 is not the negated discriminant of R3")
    return True


def discriminant_factorization() -> bool:
    """disc_x of x (x + t^2) (x + R3(t)) equals t^4 R3^2 R2^2, exactly.

    The cubic in x is monic with roots 0, -t^2, -R3; the identity is checked
    by expanding to coefficients and applying the discriminant formula, then
    comparing against the root-difference product (which uses R3 - t^2 = R2).
    """
    # polynomials in (t, p, q, r)
    t = TuplePoly.variable(4, 0)
    p = TuplePoly.variable(4, 1)
    q = TuplePoly.variable(4, 2)
    r = TuplePoly.variable(4, 3)
    r3 = t**3 + p * t * t + q * t + r
    r2 = r3 - t * t
    # expanded cubic x^3 + A x^2 + B x + C with roots {0, -t^2, -R3}
    a = t * t + r3
    b = t * t * r3
    c = TuplePoly(4)
    disc = cubic_discriminant(a, b, c)
    root_form = (t * t) ** 2 * r3 * r3 * r2 * r2
    if disc != root_form:
        raise AssertionError("x-discriminant does not match t^4 R3^2 R2^2")
    return True


@dataclass(frozen=True)
class DivisorMembership:
    """Which of the five singular divisors a parameter point lies on."""

    on: dict[str, bool]
    values: dict[str, complex]

    def names(self) -> list[str]:
        return [k for k, v in self.on.items() if v]


def singular_divisor_membership(point: tuple[Scalar, Scalar, Scalar]
                                ) -> DivisorMembership:
    """Evaluate p, q, r, d2, d3 at the point.

    Exact zero testing for rational points; for complex points a relative
    floor of 1e-9 against the sum of term magnitudes decides vanishing.
    """
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    on: dict[str, bool] = {}
    values: dict[str, complex] = {}
    if exact:
        pt = tuple(Fraction(x) for x in point)
        for name, poly in SINGULAR_DIVISORS.items():
            val = poly.evaluate_exact(pt)
            values[name] = complex(val)
            on[name] = val == 0
    else:
        pt = tuple(complex(x) for x in point)
        for name, poly in SINGULAR_DIVISORS.items():
            val = poly.evaluate(pt)
            scale = poly.magnitude_scale(pt)
            values[name] = val
            on[name] = abs(val) <= 1e-9 * max(scale, 1e-300)
    return DivisorMembership(on=on, values=values)


def divisor_clearance(point: tuple[complex, complex, complex]) -> float:
    """Smallest relative magnitude of the singular divisors at the point.

    The ratio |f(x)| / sum of term magnitudes measures how close f is to
    cancellation, i.e. how close x is to {f = 0} in a scale-free sense.
    """
    worst = float("inf")
    for poly in SINGULAR_DIVISORS.values():
        scale = poly.magnitude_scale(point)
        if scale == 0:
            return 0.0
        worst = min(worst, abs(poly.evaluate(point)) / scale)
    return worst
