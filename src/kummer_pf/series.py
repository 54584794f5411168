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

``TruncatedSeries`` holds exact power series in (p, q, r) truncated at a
total degree cap; every operator in this package acts on these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .polynomials import MultiPoly, format_rational

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
    # normalize so the value at the origin is 1 (the N=0 term is already 1,
    # so this is the identity; kept for the normalization contract)
    origin = _gauss_factor(0)
    return total / origin


class TruncatedSeries:
    """Exact power series in (p, q, r) truncated at a total degree cap."""

    __slots__ = ("degree_cap", "terms")

    def __init__(self, degree_cap: int, terms: dict[Index, Fraction] | None = None):
        if degree_cap < 0:
            raise ValueError("negative degree cap")
        self.degree_cap = degree_cap
        self.terms: dict[Index, Fraction] = {}
        for idx, c in (terms or {}).items():
            if sum(idx) <= degree_cap and c != 0:
                self.terms[idx] = Fraction(c)

    @classmethod
    def zero(cls, degree_cap: int) -> TruncatedSeries:
        return cls(degree_cap)

    @classmethod
    def one(cls, degree_cap: int) -> TruncatedSeries:
        return cls(degree_cap, {(0, 0, 0): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index: Index) -> Fraction:
        return self.terms.get(index, Fraction(0))

    def items(self) -> Iterator[tuple[Index, Fraction]]:
        for idx in sorted(self.terms):
            yield idx, self.terms[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.degree_cap == other.degree_cap and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.degree_cap, frozenset(self.terms.items())))

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_cap(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx, Fraction(0)) + c
            if s:
                out[idx] = s
            else:
                del out[idx]
        return TruncatedSeries(self.degree_cap, out)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.degree_cap, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return TruncatedSeries(self.degree_cap)
            return TruncatedSeries(
                self.degree_cap, {i: c * other for i, c in self.terms.items()})
        if isinstance(other, TruncatedSeries):
            self._check_cap(other)
            cap = self.degree_cap
            out: dict[Index, Fraction] = {}
            for i1, c1 in self.terms.items():
                d1 = sum(i1)
                for i2, c2 in other.terms.items():
                    if d1 + sum(i2) > cap:
                        continue
                    idx = (i1[0] + i2[0], i1[1] + i2[1], i1[2] + i2[2])
                    s = out.get(idx, Fraction(0)) + c1 * c2
                    if s:
                        out[idx] = s
                    else:
                        del out[idx]
            return TruncatedSeries(cap, out)
        return NotImplemented

    __rmul__ = __mul__

    def scale_by_monomial(self, exps: Index, coeff: Fraction | int = 1) -> TruncatedSeries:
        """Multiply by coeff * p^a q^b r^c, truncating at the cap."""
        coeff = Fraction(coeff)
        cap = self.degree_cap
        shift = sum(exps)
        out: dict[Index, Fraction] = {}
        for idx, c in self.terms.items():
            if sum(idx) + shift <= cap:
                out[(idx[0] + exps[0], idx[1] + exps[1], idx[2] + exps[2])] = c * coeff
        return TruncatedSeries(cap, out)

    def multiply_poly(self, poly: MultiPoly) -> TruncatedSeries:
        """Multiply by an exact polynomial, truncating at the cap."""
        result = TruncatedSeries(self.degree_cap)
        for exps, coeff in poly.terms():
            result = result + self.scale_by_monomial(exps, coeff)
        return result

    def theta_scale(self, theta_exps: Index) -> TruncatedSeries:
        """Apply the diagonal Euler action: term (l,m,n) scales by l^a m^b n^c."""
        a, b, c = theta_exps
        out: dict[Index, Fraction] = {}
        for (l, m, n), v in self.terms.items():
            factor = l**a * m**b * n**c
            if factor:
                out[(l, m, n)] = v * factor
        return TruncatedSeries(self.degree_cap, out)

    def is_zero_through(self, degree: int) -> bool:
        return all(sum(i) > degree for i in self.terms)

    def _check_cap(self, other: TruncatedSeries) -> None:
        if self.degree_cap != other.degree_cap:
            raise ValueError(
                f"degree cap mismatch: {self.degree_cap} vs {other.degree_cap}")

    def evaluate(self, point: tuple[complex, complex, complex]) -> tuple[complex, float]:
        """Evaluate by ascending total-degree layers.

        Returns (value, tail proxy), the tail proxy being the sum of term
        magnitudes in the top degree layer actually present.
        """
        layers: dict[int, complex] = {}
        tail_layer: dict[int, float] = {}
        pv, qv, rv = point
        for (l, m, n), c in self.terms.items():
            d = l + m + n
            val = complex(c) * pv**l * qv**m * rv**n
            layers[d] = layers.get(d, 0j) + val
            tail_layer[d] = tail_layer.get(d, 0.0) + abs(val)
        value = sum(layers[d] for d in sorted(layers))
        top = max(tail_layer) if tail_layer else None
        tail = tail_layer[top] if top is not None and top > 0 else 0.0
        if top == 0 and len(tail_layer) == 1:
            tail = 0.0
        return value, tail

    def to_json(self) -> list[dict]:
        return [
            {"index": list(idx), "value": format_rational(c)}
            for idx, c in self.items()
        ]

    def __repr__(self) -> str:
        head = ", ".join(
            f"{idx}: {c}" for idx, c in list(self.items())[:4]
        )
        more = "..." if len(self.terms) > 4 else ""
        return f"TruncatedSeries(cap={self.degree_cap}, {{{head}{more}}})"


def period_series(degree_cap: int) -> TruncatedSeries:
    """All period coefficients up to the total degree cap."""
    terms: dict[Index, Fraction] = {}
    for l in range(degree_cap + 1):
        for m in range(degree_cap + 1 - l):
            for n in range(degree_cap + 1 - l - m):
                terms[(l, m, n)] = period_coefficient((l, m, n))
    return TruncatedSeries(degree_cap, terms)


def evaluate_series(s: TruncatedSeries, point: tuple[complex, complex, complex],
                    tail_tol: float | None = None) -> tuple[complex, float]:
    """Evaluate with a tail estimate; optionally enforce a tolerance."""
    value, tail = s.evaluate(point)
    if tail_tol is not None and tail > tail_tol:
        raise ValueError(f"truncation tail {tail:.3e} exceeds tolerance {tail_tol:.3e}")
    return value, tail
