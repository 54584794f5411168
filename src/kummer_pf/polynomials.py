"""Exact arithmetic in Q[p,q,r] and its fraction field.

Everything symbolic in this package is built on the two classes here:

* ``MultiPoly`` -- a sparse polynomial in the three deformation parameters
  p, q, r with exact rational coefficients.  Terms are stored in a dict
  keyed by the exponent triple (packed into a single int); internally the
  coefficients are integers with one common denominator, which keeps the
  hot loops (convolution, fraction-free elimination) in pure int
  arithmetic.
* ``RatFunc`` -- a quotient of two ``MultiPoly`` in canonical reduced form.
  Canonicalization puts all sign and rational content into the numerator,
  so equality of rational functions is plain structural equality.

The canonical text encoding used by fixtures, the CLI and every other
module: rationals as ``n/d`` (or ``n``), polynomials as ``c * p^a q^b r^c``
terms joined by `` + `` in ascending lexicographic order on
(e_p, e_q, e_r), rational functions as ``(num)/(den)``.

``MultiPoly`` is also the one exact kernel for every other 3-variable
polynomial: truncated power series (a degree cap plus a ``MultiPoly``) and
polynomials in the three commuting Euler operators.  ``TuplePoly`` is a
small generic n-variable polynomial kept only for the 4- and 5-variable
witnesses (the discriminant factorization and the homogeneity witness).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

# The exact scalar used everywhere; arbitrary precision, gcd-reduced,
# positive denominator -- fractions.Fraction guarantees all three.
BigRational = Fraction

Exponents = tuple[int, int, int]

VARIABLE_NAMES = ("p", "q", "r")

# Exponents are packed as (e_p << 64) | (e_q << 32) | e_r, so packed keys
# compare exactly like (e_p, e_q, e_r) tuples under lex order.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_MAX_INPUT_EXP = 1 << 31


def _pack(exps: Exponents) -> int:
    a, b, c = exps
    if not (0 <= a < _MAX_INPUT_EXP and 0 <= b < _MAX_INPUT_EXP and 0 <= c < _MAX_INPUT_EXP):
        raise ValueError(f"exponent triple out of range: {exps}")
    return (a << (2 * _SHIFT)) | (b << _SHIFT) | c


def _unpack(key: int) -> Exponents:
    return (key >> (2 * _SHIFT), (key >> _SHIFT) & _MASK, key & _MASK)


def format_rational(x: Fraction) -> str:
    """Render a rational in the ``n/d`` wire form (``n`` when d == 1)."""
    return str(Fraction(x))


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class MultiPoly:
    """Sparse exact polynomial in (p, q, r) over the rationals.

    Immutable.  No stored coefficient is zero, and the serialized term
    order is ascending lex on (e_p, e_q, e_r).
    """

    __slots__ = ("_terms", "_den", "_fieldmax")

    def __init__(self, terms: dict[int, int], den: int, _validated: bool = False):
        # Private constructor; use the classmethods or from_terms.
        if not _validated:
            terms = {k: c for k, c in terms.items() if c != 0}
            if den < 0:
                den = -den
                terms = {k: -c for k, c in terms.items()}
            if den == 0:
                raise ZeroDivisionError("zero denominator in polynomial content")
            if den != 1 and terms:
                g = den
                for c in terms.values():
                    g = math.gcd(g, c)
                    if g == 1:
                        break
                if g > 1:
                    den //= g
                    terms = {k: c // g for k, c in terms.items()}
            if not terms:
                den = 1
        self._terms = terms
        self._den = den
        self._fieldmax: Exponents | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return _ZERO

    @classmethod
    def one(cls) -> MultiPoly:
        return _ONE

    @classmethod
    def constant(cls, value: int | Fraction) -> MultiPoly:
        value = Fraction(value)
        if value == 0:
            return _ZERO
        return cls({0: value.numerator}, value.denominator, _validated=(value.denominator == 1))

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        idx = VARIABLE_NAMES.index(name)
        exps = [0, 0, 0]
        exps[idx] = 1
        return cls({_pack(tuple(exps)): 1}, 1, _validated=True)

    @classmethod
    def monomial(cls, exps: Exponents, coeff: int | Fraction = 1) -> MultiPoly:
        coeff = Fraction(coeff)
        if coeff == 0:
            return _ZERO
        return cls({_pack(exps): coeff.numerator}, coeff.denominator)

    @classmethod
    def from_terms(cls, terms: dict[Exponents, int | Fraction]) -> MultiPoly:
        den = 1
        for c in terms.values():
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        raw: dict[int, int] = {}
        for exps, c in terms.items():
            c = Fraction(c)
            num = c.numerator * (den // c.denominator)
            if num:
                key = _pack(exps)
                raw[key] = raw.get(key, 0) + num
        return cls(raw, den)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        c = self._terms.get(_pack(exps), 0)
        return Fraction(c, self._den)

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Iterate (exponents, coefficient) in ascending lex order."""
        den = self._den
        for key in sorted(self._terms):
            yield _unpack(key), Fraction(self._terms[key], den)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(_unpack(k)) for k in self._terms)

    def degrees(self) -> Exponents:
        """Max exponent of each variable (0, 0, 0) for the zero polynomial."""
        if self._fieldmax is None:
            a = b = c = 0
            for key in self._terms:
                ka, kb, kc = _unpack(key)
                if ka > a:
                    a = ka
                if kb > b:
                    b = kb
                if kc > c:
                    c = kc
            self._fieldmax = (a, b, c)
        return self._fieldmax

    def min_exponents(self) -> Exponents:
        """Componentwise minimum exponent: the monomial content."""
        if not self._terms:
            return (0, 0, 0)
        a = b = c = None
        for key in self._terms:
            ka, kb, kc = _unpack(key)
            a = ka if a is None or ka < a else a
            b = kb if b is None or kb < b else b
            c = kc if c is None or kc < c else c
        return (a, b, c)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._terms.get(0, 0), self._den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return None

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        da, db = self._den, other._den
        if da == db:
            den = da
            out = dict(self._terms)
            for k, c in other._terms.items():
                s = out.get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            den = da * ma
            out = {k: c * ma for k, c in self._terms.items()}
            for k, c in other._terms.items():
                s = out.get(k, 0) + c * mb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return MultiPoly(out, den, _validated=(den == 1))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly({k: -c for k, c in self._terms.items()}, self._den, _validated=True)

    def __sub__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        sa, sb, sc = self.degrees()
        oa, ob, oc = other.degrees()
        if sa + oa >= _MASK or sb + ob >= _MASK or sc + oc >= _MASK:
            raise OverflowError("exponent overflow in polynomial product")
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                out[k] = s
        den = self._den * other._den
        return MultiPoly(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other) -> MultiPoly:
        # Division by an exact scalar only; polynomial division is exact_div.
        if isinstance(other, (int, Fraction)):
            inv = 1 / Fraction(other)
            return self * MultiPoly.constant(inv)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    # -- structure ---------------------------------------------------------

    def integer_content(self) -> Fraction:
        """Rational content: gcd of coefficients, with the sign of the
        lex-leading coefficient."""
        if not self._terms:
            return Fraction(0)
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, c)
        if self._terms[max(self._terms)] < 0:
            g = -g
        return Fraction(g, self._den)

    def primitive_part(self) -> MultiPoly:
        """Integer-primitive polynomial with positive lex-leading coefficient."""
        if not self._terms:
            return _ZERO
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, c)
        if self._terms[max(self._terms)] < 0:
            g = -g
        return MultiPoly({k: c // g for k, c in self._terms.items()}, 1, _validated=True)

    def shift(self, exps: Exponents) -> MultiPoly:
        """Multiply by the monomial p^a q^b r^c."""
        off = _pack(exps)
        if off == 0:
            return self
        return MultiPoly({k + off: c for k, c in self._terms.items()}, self._den, _validated=True)

    def shift_down(self, exps: Exponents) -> MultiPoly:
        """Exactly divide by the monomial p^a q^b r^c."""
        off = _pack(exps)
        if off == 0:
            return self
        me = self.min_exponents()
        if me[0] < exps[0] or me[1] < exps[1] or me[2] < exps[2]:
            raise ValueError("inexact monomial division")
        return MultiPoly({k - off: c for k, c in self._terms.items()}, self._den, _validated=True)

    def truncated(self, cap: int) -> MultiPoly:
        """The terms of total degree at most cap."""
        kept = {k: c for k, c in self._terms.items() if sum(_unpack(k)) <= cap}
        if len(kept) == len(self._terms):
            return self
        return MultiPoly(kept, self._den)

    def theta_scaled(self, theta_exps: Exponents) -> MultiPoly:
        """The Euler action tp^a tq^b tr^c: each term p^l q^m r^n scales by
        l^a m^b n^c."""
        a, b, c = theta_exps
        out: dict[int, int] = {}
        for k, v in self._terms.items():
            l, m, n = _unpack(k)
            factor = l**a * m**b * n**c
            if factor:
                out[k] = v * factor
        return MultiPoly(out, self._den)

    def exact_div(self, divisor: MultiPoly) -> MultiPoly:
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return _ZERO
        lead_d = max(divisor._terms)
        ld_exp = _unpack(lead_d)
        lc_d = divisor._terms[lead_d]
        dterms = divisor._terms
        rem = dict(self._terms)
        quo: dict[int, int | Fraction] = {}
        fractional = False
        while rem:
            lead_r = max(rem)
            ra, rb, rc = _unpack(lead_r)
            if ra < ld_exp[0] or rb < ld_exp[1] or rc < ld_exp[2]:
                raise ValueError("inexact polynomial division")
            qkey = lead_r - lead_d
            cr = rem[lead_r]
            # Integer fast path: when all quotient coefficients stay integral
            # (always the case inside the Bareiss elimination) this loop never
            # touches Fraction at all.
            if fractional or cr % lc_d:
                fractional = True
                qc = Fraction(cr, lc_d)
            else:
                qc = cr // lc_d
            quo[qkey] = qc
            for k, c in dterms.items():
                kk = k + qkey
                s = rem.get(kk, 0) - qc * c
                if s:
                    rem[kk] = s
                else:
                    rem.pop(kk, None)
        scale = Fraction(divisor._den, self._den)
        if fractional:
            return MultiPoly.from_terms(
                {_unpack(k): Fraction(c) * scale for k, c in quo.items()})
        q = MultiPoly({k: int(c) for k, c in quo.items()}, 1, _validated=True)
        return q if scale == 1 else q * scale

    def divides(self, other: MultiPoly) -> bool:
        try:
            other.exact_div(self)
            return True
        except ValueError:
            return False

    def derivative(self, var: str) -> MultiPoly:
        """Partial derivative with respect to p, q or r."""
        idx = VARIABLE_NAMES.index(var)
        shift = (2 - idx) * _SHIFT
        out: dict[int, int] = {}
        for k, c in self._terms.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - (1 << shift)] = out.get(k - (1 << shift), 0) + c * e
        return MultiPoly(out, self._den)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: tuple[complex, complex, complex]) -> complex:
        """Evaluate at a complex point, Horner-style in p, then q, then r."""
        by_p: dict[int, dict[int, dict[int, int]]] = {}
        for k, c in self._terms.items():
            a, b, cc = _unpack(k)
            by_p.setdefault(a, {}).setdefault(b, {})[cc] = c
        pv, qv, rv = point
        total = 0j
        for a in sorted(by_p, reverse=True) or [0]:
            inner_q = 0j
            for b in sorted(by_p.get(a, {}), reverse=True) or [0]:
                inner_r = 0j
                for cc in sorted(by_p.get(a, {}).get(b, {}), reverse=True):
                    inner_r += by_p[a][b][cc] * rv ** cc
                inner_q += inner_r * qv ** b
            total += inner_q * pv ** a
        return total / self._den

    def magnitude_scale(self, point: tuple[complex, complex, complex]) -> float:
        """Sum of term magnitudes at the point; a cancellation reference."""
        pv, qv, rv = (abs(point[0]), abs(point[1]), abs(point[2]))
        total = 0.0
        for k, c in self._terms.items():
            a, b, cc = _unpack(k)
            total += abs(c) * pv ** a * qv ** b * rv ** cc
        return total / self._den

    def evaluate_exact(self, point: tuple[Fraction, Fraction, Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, coeff in self.terms():
            a, b, c = exps
            total += coeff * Fraction(point[0]) ** a * Fraction(point[1]) ** b * Fraction(point[2]) ** c
        return total

    # -- text encoding -----------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.terms():
            mono = " ".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARIABLE_NAMES, exps)
                if e
            )
            if mono:
                parts.append(f"{format_rational(coeff)} * {mono}")
            else:
                parts.append(format_rational(coeff))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> MultiPoly:
        text = text.strip()
        if text == "0":
            return _ZERO
        terms: dict[Exponents, Fraction] = {}
        for part in text.split(" + "):
            if "*" in part:
                coeff_str, mono_str = part.split("*", 1)
                coeff = parse_rational(coeff_str)
                exps = [0, 0, 0]
                for factor in mono_str.split():
                    if "^" in factor:
                        name, e = factor.split("^")
                        exps[VARIABLE_NAMES.index(name)] = int(e)
                    else:
                        exps[VARIABLE_NAMES.index(factor)] = 1
                key = tuple(exps)
            else:
                coeff = parse_rational(part)
                key = (0, 0, 0)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls.from_terms(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r})"


_ZERO = MultiPoly({}, 1, _validated=True)
_ONE = MultiPoly({0: 1}, 1, _validated=True)

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
R = MultiPoly.variable("r")


# -- multivariate gcd -------------------------------------------------------
#
# gcd over Z[p,q,r] of the integer-primitive parts.  The workhorse is the
# classic heuristic gcd: evaluate at a large integer, take the gcd one level
# down, reconstruct a candidate by balanced base-xi digits and certify it by
# exact division into both inputs.  A subresultant pseudo-remainder sequence
# is kept as a deterministic fallback.  Rational content is irrelevant to
# the canonical gcd (output is primitive with positive leading coefficient).


class _HeuristicFailure(Exception):
    pass


def _eval_var(poly: MultiPoly, var_idx: int, xi: int) -> MultiPoly:
    """Substitute an integer for one variable (integer polynomial input)."""
    shift = (2 - var_idx) * _SHIFT
    step = 1 << shift
    out: dict[int, int] = {}
    powers = {0: 1}
    for k, c in poly._terms.items():
        e = (k >> shift) & _MASK
        pw = powers.get(e)
        if pw is None:
            pw = powers[e] = xi ** e
        base = k - e * step
        s = out.get(base, 0) + c * pw
        if s:
            out[base] = s
        else:
            out.pop(base, None)
    return MultiPoly(out, 1, _validated=True)


def _max_norm(poly: MultiPoly) -> int:
    return max(abs(c) for c in poly._terms.values())


def _divides_z(d: MultiPoly, f: MultiPoly) -> bool:
    """True iff d divides f with an integer-coefficient quotient."""
    try:
        q = f.exact_div(d)
    except ValueError:
        return False
    return q._den == 1


def _int_content(poly: MultiPoly) -> int:
    g = 0
    for c in poly._terms.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _heugcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Heuristic gcd of integer polynomials over Z; raises on failure.

    The common integer content is extracted up front and multiplied back
    into the certified result; each reconstructed candidate is reduced to
    its primitive part before the division test, so a passing candidate is
    the gcd of the content-extracted pair.
    """
    gc = math.gcd(_int_content(f), _int_content(g))
    if gc > 1:
        f = MultiPoly({k: c // gc for k, c in f._terms.items()}, 1, _validated=True)
        g = MultiPoly({k: c // gc for k, c in g._terms.items()}, 1, _validated=True)
    df, dg = f.degrees(), g.degrees()
    present = [i for i in range(3) if df[i] or dg[i]]
    if not present:
        return MultiPoly.constant(gc * math.gcd(int(f.constant_value()), int(g.constant_value())))
    var = max(present, key=lambda i: max(df[i], dg[i]))
    xi = 2 * min(_max_norm(f), _max_norm(g)) + 4
    for _ in range(8):
        if xi.bit_length() * max(df[var], dg[var]) > 2_000_000:
            raise _HeuristicFailure("evaluation point too large")
        fe = _eval_var(f, var, xi)
        ge = _eval_var(g, var, xi)
        if not (fe.is_zero or ge.is_zero):
            try:
                he = _heugcd(fe, ge)
            except _HeuristicFailure:
                he = None
            if he is not None and not he.is_zero:
                cand = _interpolate_var(he, var, xi).primitive_part()
                if not cand.is_zero and _divides_z(cand, f) and _divides_z(cand, g):
                    return cand * gc if gc > 1 else cand
        xi = xi * 73794 // 27011 + 1  # pseudo-random growth, per the classics
    raise _HeuristicFailure("no certified candidate")


def _interpolate_var(h: MultiPoly, var_idx: int, xi: int) -> MultiPoly:
    """Invert _eval_var: balanced base-xi digit expansion in one variable."""
    shift = (2 - var_idx) * _SHIFT
    step = 1 << shift
    out: dict[int, int] = {}
    rem = {k: c for k, c in h._terms.items()}
    e = 0
    half = xi // 2
    while rem:
        nxt: dict[int, int] = {}
        for k, c in rem.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k + e * step] = d
            c = (c - d) // xi
            if c:
                nxt[k] = c
        rem = nxt
        e += 1
        if e >= _MAX_INPUT_EXP:
            raise _HeuristicFailure("runaway interpolation")
    return MultiPoly(out, 1, _validated=True)


def _coeffs_in(poly: MultiPoly, var_idx: int) -> dict[int, MultiPoly]:
    """View the poly as univariate in one variable with MultiPoly coefficients."""
    shift = (2 - var_idx) * _SHIFT
    step = 1 << shift
    out: dict[int, dict[int, int]] = {}
    for k, c in poly._terms.items():
        e = (k >> shift) & _MASK
        out.setdefault(e, {})[k - e * step] = c
    return {e: MultiPoly(t, poly._den) for e, t in out.items()}


def _from_coeffs(coeffs: dict[int, MultiPoly], var_idx: int) -> MultiPoly:
    result = _ZERO
    exps = [0, 0, 0]
    for e, c in coeffs.items():
        exps[var_idx] = e
        result = result + c.shift(tuple(exps))
    return result


def _prem(f: dict[int, MultiPoly], g: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Pseudo-remainder rem(lc(g)^(deg f - deg g + 1) * f, g) as coefficient maps."""
    dg = max(g)
    lc_g = g[dg]
    steps_left = max(f) - dg + 1
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lc_r = r.pop(dr)
        new: dict[int, MultiPoly] = {}
        for e, c in r.items():
            new[e] = c * lc_g
        for e, c in g.items():
            if e == dg:
                continue
            ee = e + dr - dg
            term = c * lc_r
            new[ee] = new[ee] - term if ee in new else -term
        r = {e: c for e, c in new.items() if not c.is_zero}
        steps_left -= 1
    if steps_left > 0 and r:
        # degree dropped early; scale up to the standard normalization
        scale = lc_g ** steps_left
        r = {e: c * scale for e, c in r.items()}
    return r


def _subresultant_gcd(fa: MultiPoly, fb: MultiPoly, main: int) -> MultiPoly:
    """Subresultant PRS gcd of primitive inputs in the chosen main variable."""
    cf = _coeffs_in(fa, main)
    cg = _coeffs_in(fb, main)
    if max(cf) < max(cg):
        cf, cg = cg, cf
    cont_f = _poly_content(cf)
    cont_g = _poly_content(cg)
    cont = poly_gcd(cont_f, cont_g)
    if not cont_f.is_constant():
        cf = {e: c.exact_div(cont_f) for e, c in cf.items()}
    if not cont_g.is_constant():
        cg = {e: c.exact_div(cont_g) for e, c in cg.items()}
    delta = max(cf) - max(cg)
    beta: MultiPoly = MultiPoly.constant((-1) ** (delta + 1))
    psi: MultiPoly = -_ONE
    while True:
        rem = _prem(cf, cg)
        if not rem:
            result = cg
            break
        rem = {e: c.exact_div(beta) for e, c in rem.items()}
        lc_g = cg[max(cg)]
        if delta > 1:
            num = (-lc_g) ** delta
            psi = num.exact_div(psi ** (delta - 1))
        elif delta == 1:
            psi = -lc_g
        cf, cg = cg, rem
        if max(cg) == 0:
            result = {0: _ONE}
            break
        delta = max(cf) - max(cg)
        beta = -lc_g * psi ** delta
    g = _from_coeffs(result, main).primitive_part()
    cr = _poly_content(_coeffs_in(g, main)) if not g.is_constant() else _ONE
    if not cr.is_constant():
        g = g.exact_div(cr)
    if not cont.is_constant():
        g = g * cont
    return g.primitive_part()


def _poly_content(coeffs: dict[int, MultiPoly]) -> MultiPoly:
    g: MultiPoly | None = None
    for c in coeffs.values():
        g = c if g is None else poly_gcd(g, c)
        if g.is_constant():
            return _ONE
    return g.primitive_part()


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, integer-primitive with positive lex-leading
    coefficient.  Rejects the (0, 0) input pair."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.primitive_part()
    if b.is_zero:
        return a.primitive_part()
    # Pull out the shared monomial factor first; it is the common case in
    # the connection denominators and keeps everything downstream small.
    ma, mb = a.min_exponents(), b.min_exponents()
    common = (min(ma[0], mb[0]), min(ma[1], mb[1]), min(ma[2], mb[2]))
    fa = (a.shift_down(ma) if ma != (0, 0, 0) else a).primitive_part()
    fb = (b.shift_down(mb) if mb != (0, 0, 0) else b).primitive_part()
    if fa.is_constant() or fb.is_constant():
        g = _ONE
    elif fa == fb:
        g = fa
    elif len(fa) <= len(fb) and fa.divides(fb):
        g = fa
    elif fb.divides(fa):
        g = fb
    else:
        da, db = fa.degrees(), fb.degrees()
        shared = [i for i in range(3) if da[i] and db[i]]
        if not shared:
            g = _ONE
        else:
            try:
                g = _heugcd(fa, fb).primitive_part()
            except _HeuristicFailure:
                main = min(shared, key=lambda i: max(da[i], db[i]))
                g = _subresultant_gcd(fa, fb, main)
    if common != (0, 0, 0):
        g = g.shift(common)
    return g


def poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    if a.is_zero or b.is_zero:
        return _ZERO
    return (a.exact_div(poly_gcd(a, b)) * b).primitive_part()


class RatFunc:
    """Quotient of two MultiPoly in canonical reduced form.

    Invariants: den != 0; gcd(num, den) = 1; den is integer-primitive with
    positive lex-leading coefficient (all sign and rational content lives
    in the numerator), so equality is structural.  ``_reduced`` asserts
    that num and den are already coprime, which skips the gcd but not the
    content normalisation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, _reduced: bool = False):
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _ZERO
            self.den = _ONE
            return
        if not _reduced:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
        c = den.integer_content()
        if c != 1:
            den = den * (1 / c)
            num = num * (1 / c)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> RatFunc:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFunc:
        return _RF_ONE

    @classmethod
    def constant(cls, value: int | Fraction) -> RatFunc:
        return cls(MultiPoly.constant(value), _ONE, _reduced=True)

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> RatFunc:
        return cls(poly, _ONE, _reduced=True)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(other)
        if isinstance(other, MultiPoly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MultiPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        return None

    def __add__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_constant():
            return RatFunc(self.num * other.den + other.num * self.den,
                           self.den * other.den)
        da = self.den.exact_div(g)
        db = other.den.exact_div(g)
        num = self.num * db + other.num * da
        return RatFunc(num, da * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        return (-self) + other

    def __mul__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _RF_ZERO
        # cross-reduce: with gcd(a_num, a_den) = gcd(b_num, b_den) = 1, the
        # products left after removing gcd(a_num, b_den) and gcd(b_num, a_den)
        # are coprime, so no final gcd is needed
        a_num, a_den = self.num, self.den
        b_num, b_den = other.num, other.den
        g1 = poly_gcd(a_num, b_den)
        if not g1.is_constant():
            a_num = a_num.exact_div(g1)
            b_den = b_den.exact_div(g1)
        g2 = poly_gcd(b_num, a_den)
        if not g2.is_constant():
            b_num = b_num.exact_div(g2)
            a_den = a_den.exact_div(g2)
        return RatFunc(a_num * b_num, a_den * b_den, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other) -> RatFunc:
        other = self._coerce(other)
        return other / self

    def derivative(self, var: str) -> RatFunc:
        """Exact quotient-rule partial derivative."""
        dn = self.num.derivative(var)
        dd = self.den.derivative(var)
        if dd.is_zero:
            return RatFunc(dn, self.den)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    # -- evaluation --------------------------------------------------------

    def evaluate_exact(self, point: tuple[Fraction, Fraction, Fraction]) -> Fraction:
        den_val = self.den.evaluate_exact(point)
        if den_val == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate_exact(point) / den_val

    # -- text encoding -----------------------------------------------------

    def to_text(self) -> str:
        return f"({self.num.to_text()})/({self.den.to_text()})"

    @classmethod
    def from_text(cls, text: str) -> RatFunc:
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"not a canonical rational function: {text!r}")
        depth = 0
        split_at = None
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i + 1 < len(text) and text[i + 1] == "/":
                    split_at = i
                    break
        if split_at is None:
            raise ValueError(f"not a canonical rational function: {text!r}")
        num = MultiPoly.from_text(text[1:split_at])
        den = MultiPoly.from_text(text[split_at + 3:-1])
        return cls(num, den)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RatFunc({self.to_text()!r})"


_RF_ZERO = RatFunc(_ZERO, _ONE, _reduced=True)
_RF_ONE = RatFunc(_ONE, _ONE, _reduced=True)


class TuplePoly:
    """Minimal n-variable polynomial over Q, dict keyed by exponent tuples.

    Used only for the two witnesses outside the (p, q, r) ring: the
    x-discriminant factorization in (t, p, q, r) and the homogeneity witness
    in (p, q, r, b, s).  Supports just enough arithmetic for them.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def constant(cls, nvars: int, value: int | Fraction) -> TuplePoly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> TuplePoly:
        e = [0] * nvars
        e[idx] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> TuplePoly | None:
        if isinstance(other, TuplePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TuplePoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TuplePoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return TuplePoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return TuplePoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = TuplePoly.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"TuplePoly({self.nvars}, {self.terms!r})"
