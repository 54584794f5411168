"""The holomorphic period near the origin, as an exact power series.

The normalized period of the elliptic-fibration family has the expansion

    u(p, q, r) = sum over (l, m, n) of
        (1/2^(4s)) * ((2s)!)^2 / (s!)^3 * 1/(l! m! n! (m+2n)!) * p^l q^m r^n,

with s = l + 2m + 3n and u(0,0,0) = 1.  ``period_coefficient`` implements
this closed form directly.

``residue_oracle`` recomputes the same number by a completely separate
route: expand 2F1(1/2, 1/2, 1; t + p + q/t + r/t^2) as a power series in
its argument, raise the four-term Laurent polynomial to the N-th power by
repeated multiplication, and pick out the t^0 part (the residue of dt/t).
The only shared ingredient between the two routes is exact rational
arithmetic, so agreement is a genuine cross-check of the closed form.

``TruncatedSeries`` holds an exact power series in (p, q, r) as a total
degree cap plus one ``MultiPoly``; its products and the Euler action are
``MultiPoly`` arithmetic, truncated at the cap.  Every operator in this
package acts on these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .polynomials import MultiPoly

Index = tuple[int, int, int]


def period_coefficient(index: Index) -> Fraction:
    """Closed-form series coefficient at p^l q^m r^n, normalized to 1 at 0."""
    l, m, n = index
    if l < 0 or m < 0 or n < 0:
        raise ValueError("negative index")
    s = l + 2 * m + 3 * n
    num = math.factorial(2 * s) ** 2
    den = (
        2 ** (4 * s)
        * math.factorial(s) ** 3
        * math.factorial(l)
        * math.factorial(m)
        * math.factorial(n)
        * math.factorial(m + 2 * n)
    )
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _laurent_power(n: int) -> dict[tuple[int, int, int, int], int]:
    """(t + p + q/t + r/t^2)^n as {(t_exp, l, m, n): int} by repeated products."""
    if n == 0:
        return {(0, 0, 0, 0): 1}
    prev = _laurent_power(n - 1)
    base = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (-1, 0, 1, 0): 1, (-2, 0, 0, 1): 1}
    out: dict[tuple[int, int, int, int], int] = {}
    for k1, c1 in prev.items():
        for k2, c2 in base.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
            out[k] = out.get(k, 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def _gauss_factor(n: int) -> Fraction:
    """((1/2, N) / N!)^2 built as an iterative product, no factorials."""
    if n == 0:
        return Fraction(1)
    ratio = (Fraction(1, 2) + (n - 1)) / n
    prev_sqrt = _gauss_factor(n - 1)
    return prev_sqrt * ratio * ratio


def residue_oracle(index: Index) -> Fraction:
    """Series coefficient recomputed along the contour-integral route.

    Sums ((1/2,N)/N!)^2 times the t^0 p^l q^m r^n extraction from the N-th
    Laurent power, over every N that could contribute (N <= l + 2m + 3n).
    Shares nothing with period_coefficient beyond rational arithmetic.
    """
    l, m, n = index
    cap = l + 2 * m + 3 * n
    total = Fraction(0)
    for big_n in range(cap + 1):
        c = _laurent_power(big_n).get((0, l, m, n))
        if c:
            total += _gauss_factor(big_n) * c
    return total


class TruncatedSeries:
    """Exact power series in (p, q, r): a ``MultiPoly`` with every term of
    total degree above ``degree_cap`` dropped."""

    __slots__ = ("degree_cap", "poly")

    def __init__(self, degree_cap: int, poly: MultiPoly = MultiPoly.zero()):
        if degree_cap < 0:
            raise ValueError("negative degree cap")
        self.degree_cap = degree_cap
        self.poly = poly.truncated(degree_cap)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.degree_cap == other.degree_cap and self.poly == other.poly

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        return TruncatedSeries(self.degree_cap, self.poly + other.poly)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        return TruncatedSeries(self.degree_cap, self.poly - other.poly)

    def multiply_poly(self, poly: MultiPoly) -> TruncatedSeries:
        """Multiply by an exact polynomial, truncating at the cap."""
        return TruncatedSeries(self.degree_cap, self.poly * poly)

    def theta_scale(self, theta_exps: Index) -> TruncatedSeries:
        """Apply the diagonal Euler action: term (l,m,n) scales by l^a m^b n^c."""
        return TruncatedSeries(self.degree_cap, self.poly.theta_scaled(theta_exps))

    def is_zero_through(self, degree: int) -> bool:
        return self.poly.truncated(degree).is_zero

    def _check_cap(self, other: TruncatedSeries) -> None:
        if self.degree_cap != other.degree_cap:
            raise ValueError(
                f"degree cap mismatch: {self.degree_cap} vs {other.degree_cap}")

    def evaluate(self, point: tuple[complex, complex, complex]) -> tuple[complex, float]:
        """Evaluate by ascending total-degree layers, adding terms in
        ascending lex order.

        Returns (value, tail proxy), the tail proxy being the sum of term
        magnitudes in the top degree layer actually present.
        """
        layers: dict[int, complex] = {}
        tail_layer: dict[int, float] = {}
        pv, qv, rv = point
        for (l, m, n), c in self.poly.terms():
            d = l + m + n
            val = complex(c) * pv**l * qv**m * rv**n
            layers[d] = layers.get(d, 0j) + val
            tail_layer[d] = tail_layer.get(d, 0.0) + abs(val)
        value = sum(layers[d] for d in sorted(layers))
        top = max(tail_layer) if tail_layer else None
        tail = tail_layer[top] if top is not None and top > 0 else 0.0
        return value, tail


def period_series(degree_cap: int) -> TruncatedSeries:
    """All period coefficients up to the total degree cap."""
    terms: dict[Index, Fraction] = {}
    for l in range(degree_cap + 1):
        for m in range(degree_cap + 1 - l):
            for n in range(degree_cap + 1 - l - m):
                terms[(l, m, n)] = period_coefficient((l, m, n))
    return TruncatedSeries(degree_cap, MultiPoly.from_terms(terms))
