"""The named divisor polynomials of the parameter space.

d2 and d3 are (up to sign) the discriminants of the two cubics

    R2(t) = t^3 + (p-1) t^2 + q t + r,      R3(t) = t^3 + p t^2 + q t + r,

whose vanishing collapses fibre singularities; together with the three
coordinate hyperplanes they cut out the singular locus of the rank-5
connection.  d1 is the extra factor that shows up in the denominators of
the theta_p^2-basis connection but moves away under a change of basis, so
it is an apparent singularity only.
"""

from __future__ import annotations

from .polynomials import MultiPoly, P, Q, R

D1 = (
    -(Q**4) + 2 * P * Q**4 - 4 * Q**2 * R + 15 * P * Q**2 * R
    - 15 * P**2 * Q**2 * R + 6 * Q**3 * R + 12 * P * R**2
    - 36 * P**2 * R**2 + 24 * P**3 * R**2 - 81 * R**3
)

D2 = (
    -(Q**2) + 2 * P * Q**2 - P**2 * Q**2 + 4 * Q**3 - 4 * R
    + 12 * P * R - 12 * P**2 * R + 4 * P**3 * R + 18 * Q * R
    - 18 * P * Q * R + 27 * R**2
)

D3 = -(P**2) * Q**2 + 4 * Q**3 + 4 * P**3 * R - 18 * P * Q * R + 27 * R**2

CANDIDATE_DIVISORS: dict[str, MultiPoly] = {
    "p": P,
    "q": Q,
    "r": R,
    "d1": D1,
    "d2": D2,
    "d3": D3,
}

# The true singular divisors (d1 excluded: apparent only).
SINGULAR_DIVISORS: dict[str, MultiPoly] = {
    "p": P,
    "q": Q,
    "r": R,
    "d2": D2,
    "d3": D3,
}
