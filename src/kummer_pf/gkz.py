"""Toric (A-hypergeometric) system for the family and its reduction.

The seven-column data: a 4x7 integer matrix and a parameter vector,

    A = [[1,1,0,0,0,0,0],
         [0,0,1,1,1,1,1],
         [1,0,1,0,0,0,0],
         [0,2,0,3,2,1,0]],      gamma = (-1/2, -1/2, -1/2, -1),

encode the period integrand; kernel vectors b of A give box operators
prod(d/dc_j)^{b_j+} - prod(d/dc_j)^{b_j-}.  Clearing with c-monomials turns
these into falling factorials of the Euler operators theta_j, and the
substitution

    p = c1 c5 / (c2 c3),  q = c1^2 c4 c6 / (c2^2 c3^2),  r = c1^3 c4^2 c7 / (c2^3 c3^3)

together with the four Euler homogeneities (row i of A against gamma_i)
gives each theta_j an image in the Euler operators tp, tq, tr
(``THETA_IMAGES``); the box operators are products of falling factorials
of these images.  ``reduce_to_pqr`` carries a kernel vector all the way to
a normal-form annihilator in (p, q, r); on the four standard kernel
vectors it reproduces the canonical second-order system exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .operators import TP, TQ, TR, ThetaOperator
from .polynomials import MultiPoly


@dataclass(frozen=True)
class GkzData:
    """Integer matrix and parameter vector of the toric system."""

    matrix: tuple[tuple[int, ...], ...]
    gamma: tuple[Fraction, ...]


def kummer_gkz_data() -> GkzData:
    return GkzData(
        matrix=(
            (1, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 1, 1, 1, 1),
            (1, 0, 1, 0, 0, 0, 0),
            (0, 2, 0, 3, 2, 1, 0),
        ),
        gamma=(Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1)),
    )


# The four kernel vectors generating the second-order equations, in the
# order matching the canonical system.
GENERATING_KERNEL_VECTORS = (
    (0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 1, -2, 1, 0),
    (1, -1, -1, 0, 1, 0, 0),
    (0, 0, 0, 1, -1, -1, 1),
)

# c-exponent vectors of p, q, r under the substitution above.
PQR_EXPONENTS = (
    (1, -1, -1, 0, 1, 0, 0),
    (2, -2, -2, 1, 0, 1, 0),
    (3, -3, -3, 2, 0, 0, 1),
)

# The images of theta_1 .. theta_7 in the three Euler operators (tp, tq, tr).
_WEIGHT = TP + 2 * TQ + 3 * TR
THETA_IMAGES = (
    _WEIGHT,                                  # theta_1
    -(_WEIGHT + Fraction(1, 2)),              # theta_2
    -(_WEIGHT + Fraction(1, 2)),              # theta_3
    TQ + 2 * TR,                              # theta_4
    TP,                                       # theta_5
    TQ,                                       # theta_6
    TR,                                       # theta_7
)


def matvec(matrix: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in matrix]


def _row_reduce_integer(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer row reduction: returns (H, U, rank) with U @ input = H, U unimodular,
    H in row-echelon form with positive pivots."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        while True:
            nonzero = [i for i in range(r, rows) if h[i][c] != 0]
            if not nonzero:
                break
            ip = min(nonzero, key=lambda i: abs(h[i][c]))
            h[r], h[ip] = h[ip], h[r]
            u[r], u[ip] = u[ip], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    t = h[i][c] // h[r][c]
                    h[i] = [a - t * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - t * b for a, b in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < rows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            r += 1
            if r == rows:
                break
    return h, u, r


def kernel_basis(data: GkzData) -> list[tuple[int, ...]]:
    """Integer basis of ker(A) (here rank 3 in Z^7), by row-reducing the
    transpose with a tracked unimodular transform.  Rejects rank-deficient A."""
    matrix = data.matrix
    nrows = len(matrix)
    ncols = len(matrix[0])
    transpose = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    _, u, rank = _row_reduce_integer(transpose)
    if rank != nrows:
        raise ValueError(f"matrix rank {rank} below row count {nrows}")
    return [tuple(u[i]) for i in range(rank, ncols)]


def lattice_contains(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """True iff the vector is an integer combination of the basis vectors."""
    rows = [list(k) for k in basis]
    h, _, rank = _row_reduce_integer(rows)
    v = list(vector)
    for i in range(rank):
        pivot_col = next(c for c, x in enumerate(h[i]) if x != 0)
        if v[pivot_col] % h[i][pivot_col]:
            return False
        t = v[pivot_col] // h[i][pivot_col]
        if t:
            v = [a - t * b for a, b in zip(v, h[i])]
    return all(x == 0 for x in v)


@dataclass(frozen=True)
class BoxOperator:
    """A kernel vector's box equation, in derivative and cleared theta form.

    The derivative form is d^{b+} u = d^{b-} u.  Multiplying by c^{b+}
    clears the left side to falling factorials (c_j^k d_j^k =
    theta_j (theta_j - 1) ... (theta_j - k + 1)) and leaves the Laurent
    monomial c^b in front of the right-hand falling factorials:

        theta_plus u = c^b . theta_minus u,

    both sides written in (tp, tq, tr) through ``THETA_IMAGES``.
    """

    vector: tuple[int, ...]
    theta_plus: MultiPoly
    theta_minus: MultiPoly


def _falling_factorial(theta: MultiPoly, k: int) -> MultiPoly:
    out = MultiPoly.one()
    for i in range(k):
        out = out * (theta - i)
    return out


def box_operator(vector: Sequence[int]) -> BoxOperator:
    vector = tuple(vector)
    if any(matvec(kummer_gkz_data().matrix, vector)):
        raise ValueError(f"{vector} is not in the kernel of the matrix")
    plus = MultiPoly.one()
    minus = MultiPoly.one()
    for theta, bj in zip(THETA_IMAGES, vector):
        if bj > 0:
            plus = plus * _falling_factorial(theta, bj)
        elif bj < 0:
            minus = minus * _falling_factorial(theta, -bj)
    return BoxOperator(vector=vector, theta_plus=plus, theta_minus=minus)


def verify_euler_elimination() -> bool:
    """Substitute the theta images into the four homogeneity relations
    sum_j A[i][j] theta_j = gamma_i of the toric data and confirm each
    collapses to zero identically.  Nonzero is a hard failure."""
    data = kummer_gkz_data()
    for row, gamma in zip(data.matrix, data.gamma):
        acc = MultiPoly.constant(-gamma)
        for a, theta in zip(row, THETA_IMAGES):
            if a:
                acc = acc + a * theta
        if not acc.is_zero:
            raise AssertionError(f"relation {row} = {gamma} reduces to {acc!r}, not 0")
    return True


def monomial_in_pqr(b: Sequence[int]) -> tuple[int, int, int]:
    """Solve c^b = p^alpha q^beta r^gamma; the last three coordinates of the
    exponent vectors are unit vectors, so (alpha, beta, gamma) = (b5, b6, b7),
    and the remaining coordinates certify membership."""
    alpha, beta, gamma = b[4], b[5], b[6]
    combo = [
        alpha * vp + beta * vq + gamma * vr
        for vp, vq, vr in zip(*PQR_EXPONENTS)
    ]
    if combo != list(b):
        raise ValueError(f"c-monomial {tuple(b)} is not expressible in (p, q, r)")
    return alpha, beta, gamma


def reduce_to_pqr(vector: Sequence[int]) -> ThetaOperator:
    """Kernel vector -> normal-form annihilator in (p, q, r).

    Route: clear the box equation to falling factorials of the theta
    images, rewrite c^b as a Laurent monomial in (p, q, r), and clear
    denominators with the minimal monomial.
    """
    box = box_operator(vector)
    alpha, beta, gamma = monomial_in_pqr(box.vector)
    clear = (max(0, -alpha), max(0, -beta), max(0, -gamma))
    rhs_mono = (alpha + clear[0], beta + clear[1], gamma + clear[2])
    return (
        ThetaOperator.from_theta_poly(box.theta_plus, MultiPoly.monomial(clear))
        - ThetaOperator.from_theta_poly(box.theta_minus, MultiPoly.monomial(rhs_mono))
    )
