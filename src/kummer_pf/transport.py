"""Numerical parallel transport of the connection along paths in C^3.

The connection d(phi) = (M_p dp + M_q dq + M_r dr) phi is integrated as a
non-autonomous linear ODE along piecewise paths (straight segments and
coordinate circles), with an embedded Dormand-Prince 5(4) stepper and a PI
step-size controller.  The exact entries of all three matrices are compiled
once into one coefficient array over a shared monomial table, a column per
numerator and per distinct denominator.  One evaluation serves a batch of
points (a stepper stage, or a Gauss panel of the trace quadrature) with one
product and a division, guarded by a relative floor on every denominator.

Initial data near the origin comes from the period series: the local
solution vector is (basis_j u) evaluated from the truncated series, with
truncation tails checked against the requested tolerance.  Loop transport
yields monodromy matrices; det(M) is cross-checked against the
Liouville/Abel identity det M = exp(contour integral of tr Omega), the
trace integral being computed independently by Gauss-Legendre quadrature,
which reports whether its refinement settled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import divisor_clearance
from .pfaffian import PfaffianSystem
from .series import TruncatedSeries, period_series

Point = tuple[complex, complex, complex]

VAR_INDEX = {"p": 0, "q": 1, "r": 2}


class TransportError(RuntimeError):
    pass


class ClearanceError(TransportError):
    pass


class PathFormatError(ValueError):
    """A path document is missing a field, has a mistyped one, or has no
    segments."""


# -- paths ---------------------------------------------------------------------


@dataclass(frozen=True)
class LineSegment:
    start: Point
    end: Point

    def at(self, s: float) -> Point:
        return tuple(a + (b - a) * s for a, b in zip(self.start, self.end))

    def velocity(self, s: float) -> Point:
        return tuple(b - a for a, b in zip(self.start, self.end))

    def endpoints(self) -> tuple[Point, Point]:
        return self.start, self.end

    def to_json(self) -> dict:
        return {
            "type": "segment",
            "from": [_cjson(x) for x in self.start],
            "to": [_cjson(x) for x in self.end],
        }


@dataclass(frozen=True)
class CircleSegment:
    """One coordinate runs around a circle; the other two stay fixed."""

    coordinate: str
    center: complex
    radius: float
    turns: float
    fixed: dict[str, complex]
    start_angle: float = 0.0

    def _coord(self, s: float) -> complex:
        angle = self.start_angle + 2 * math.pi * self.turns * s
        return self.center + self.radius * cmath.exp(1j * angle)

    def _coord_velocity(self, s: float) -> complex:
        angle = self.start_angle + 2 * math.pi * self.turns * s
        return self.radius * 2j * math.pi * self.turns * cmath.exp(1j * angle)

    def at(self, s: float) -> Point:
        values = dict(self.fixed)
        values[self.coordinate] = self._coord(s)
        return (values["p"], values["q"], values["r"])

    def velocity(self, s: float) -> Point:
        out = [0j, 0j, 0j]
        out[VAR_INDEX[self.coordinate]] = self._coord_velocity(s)
        return tuple(out)

    def endpoints(self) -> tuple[Point, Point]:
        return self.at(0.0), self.at(1.0)

    def to_json(self) -> dict:
        return {
            "type": "circle",
            "coordinate": self.coordinate,
            "center": _cjson(self.center),
            "radius": self.radius,
            "turns": self.turns,
            "start_angle": self.start_angle,
            "fixed": {k: _cjson(v) for k, v in self.fixed.items()},
        }


Segment = LineSegment | CircleSegment


def _cjson(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cparse(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


@dataclass(frozen=True)
class Path:
    segments: tuple[Segment, ...]
    samples_hint: int = 64

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            end = a.endpoints()[1]
            start = b.endpoints()[0]
            gap = max(abs(x - y) for x, y in zip(end, start))
            if gap > 1e-12:
                raise ValueError(f"segments do not chain: gap {gap:.3e}")

    @property
    def start(self) -> Point:
        return self.segments[0].endpoints()[0]

    @property
    def end(self) -> Point:
        return self.segments[-1].endpoints()[1]

    def is_closed(self, tol: float = 1e-12) -> bool:
        return max(abs(x - y) for x, y in zip(self.start, self.end)) <= tol

    def reversed(self) -> Path:
        out = []
        for seg in reversed(self.segments):
            if isinstance(seg, LineSegment):
                out.append(LineSegment(seg.end, seg.start))
            else:
                out.append(CircleSegment(
                    coordinate=seg.coordinate, center=seg.center,
                    radius=seg.radius, turns=-seg.turns, fixed=seg.fixed,
                    start_angle=seg.start_angle + 2 * math.pi * seg.turns))
        return Path(tuple(out), samples_hint=self.samples_hint)

    def to_json(self) -> dict:
        return {"samples_hint": self.samples_hint,
                "segments": [seg.to_json() for seg in self.segments]}

    @classmethod
    def from_json(cls, data: dict | list) -> Path:
        """Parse a path document; a missing or mistyped field, or an empty
        segment list, raises PathFormatError."""
        if isinstance(data, dict):
            raw, hint = data.get("segments", []), data.get("samples_hint", 64)
        else:
            raw, hint = data, 64
        try:
            segs = [_segment_from_json(item) for item in raw]
            hint = int(hint)
        except KeyError as exc:
            raise PathFormatError(f"path field {exc.args[0]!r} is missing") from None
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
            raise PathFormatError(f"malformed path field: {exc}") from None
        if not segs:
            raise PathFormatError("a path needs at least one segment")
        return cls(tuple(segs), samples_hint=hint)


def _segment_from_json(item: dict) -> Segment:
    if item["type"] == "segment":
        return LineSegment(tuple(_cparse(v) for v in item["from"]),
                           tuple(_cparse(v) for v in item["to"]))
    if item["type"] == "circle":
        if item["coordinate"] not in VAR_INDEX:
            raise ValueError(f"circle coordinate {item['coordinate']!r} is not p, q or r")
        return CircleSegment(
            coordinate=item["coordinate"],
            center=_cparse(item["center"]),
            radius=float(item["radius"]),
            turns=float(item["turns"]),
            start_angle=float(item.get("start_angle", 0.0)),
            fixed={k: _cparse(v) for k, v in item["fixed"].items()})
    raise ValueError(f"unknown segment type {item['type']!r}")


def check_clearance(path: Path, min_clearance: float = 1e-3) -> float:
    """Sample the path and require every point to keep the relative divisor
    clearance; returns the worst clearance seen."""
    worst = float("inf")
    for seg in path.segments:
        for i in range(path.samples_hint + 1):
            s = i / path.samples_hint
            c = divisor_clearance(seg.at(s))
            worst = min(worst, c)
    if worst < min_clearance:
        raise ClearanceError(
            f"path clearance {worst:.3e} below the configured minimum {min_clearance:.3e}")
    return worst


# -- compiled connection ---------------------------------------------------------

# Relative floor on |denominator| against the sum of its term magnitudes at
# the point; a denominator at or below it counts as a pole.
DEN_FLOOR = 1e-12


class CompiledConnection:
    """The three connection matrices compiled into one monomial table.

    Column (x*n + i)*n + j of the coefficient array holds the numerator of
    entry (i, j) of M_x (x = p, q, r in that order) over every monomial that
    occurs in any entry; the columns after the 3n^2 numerators hold each
    distinct denominator once, and ``_den_column`` maps every entry to its
    own.
    """

    def __init__(self, system: PfaffianSystem):
        self.size = system.size
        entries = [e for var in "pqr" for row in system.matrix(var) for e in row]
        distinct: dict = {}
        self._den_column = np.array([distinct.setdefault(e.den, len(distinct))
                                     for e in entries], dtype=np.intp)
        polys = [e.num for e in entries] + list(distinct)
        monomials = sorted({exps for poly in polys for exps, _ in poly.terms()})
        row = {m: k for k, m in enumerate(monomials)}
        self._coeffs = np.zeros((len(monomials), len(polys)), dtype=complex)
        for col, poly in enumerate(polys):
            for exps, c in poly.terms():
                self._coeffs[row[exps], col] = complex(c)
        self._den_abs = np.abs(self._coeffs[:, len(entries):])
        exponents = np.array(monomials, dtype=np.intp).T
        width = int(exponents.max()) + 1
        self._powers = np.arange(width)
        # index of x^e in a flattened (3, width) power table, per variable
        self._gather = exponents + width * np.arange(3)[:, None]

    def _values(self, points) -> np.ndarray:
        """M_p, M_q and M_r at N points, stacked with shape (N, 3, n, n).
        A denominator within DEN_FLOOR of cancelling raises TransportError."""
        pts = np.asarray(points, dtype=complex).reshape(-1, 3)
        powers = (pts[..., None] ** self._powers).reshape(len(pts), -1)
        mono = np.take(powers, self._gather, axis=1).prod(axis=1)
        values = mono @ self._coeffs
        split = len(self._den_column)
        den = values[:, split:]
        poles = np.abs(den) <= DEN_FLOOR * (np.abs(mono) @ self._den_abs)
        if poles.any():
            point = tuple(complex(x) for x in pts[poles.any(axis=1).argmax()])
            raise TransportError(
                f"connection pole hit at {point}: a denominator is below "
                f"{DEN_FLOOR:g} of its term magnitudes")
        n = self.size
        return (values[:, :split] / den[:, self._den_column]).reshape(-1, 3, n, n)

    def directional(self, point: Point, velocity: Point) -> np.ndarray:
        """A = sum over x of M_x(point) * dx/ds."""
        n = self.size
        values = self._values(point).reshape(3, n * n)
        return (np.asarray(velocity, dtype=complex) @ values).reshape(n, n)

    def trace_directional(self, points, velocities) -> np.ndarray:
        """tr A at each of N points, contracted from tr M_x without forming A."""
        traces = np.trace(self._values(points), axis1=2, axis2=3)
        return (traces * np.asarray(velocities, dtype=complex).reshape(-1, 3)).sum(axis=1)


# -- Dormand-Prince 5(4) ----------------------------------------------------------

# Row i holds the weights of stage i's input; row 6 is the fifth-order
# solution, whose slope is the next step's first stage (first-same-as-last).
_DP_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_ERR = _DP_A[6] - _DP_B4
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def _rk45_segment(f: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray,
                  tol: float, stats: dict) -> np.ndarray:
    """Integrate y' = f(s, y) from s=0 to s=1 with PI-controlled steps.
    The seven stage slopes live in one array, so each stage input and the
    error estimate are one weights-times-stack product."""
    atol = rtol = tol
    s = 0.0
    y = y0
    h = 0.05
    err_prev = 1.0
    ks = np.empty((7,) + y.shape, dtype=complex)
    stack = ks.reshape(7, -1)
    ks[0] = f(s, y)
    min_h = 1e-13
    while s < 1.0:
        h = min(h, 1.0 - s)
        if h < min_h:
            raise TransportError(f"step size collapse at s={s:.6f}")
        for stage in range(1, 7):
            yi = y + h * (_DP_A[stage, :stage] @ stack[:stage]).reshape(y.shape)
            ks[stage] = f(s + _DP_C[stage] * h, yi)
        y5 = yi  # the last stage input is the fifth-order solution
        err_vec = h * (_DP_ERR @ stack).reshape(y.shape)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((np.abs(err_vec) / scale) ** 2)))
        if err <= 1.0:
            s += h
            y = y5
            ks[0] = ks[6]  # first-same-as-last
            stats["steps"] = stats.get("steps", 0) + 1
            stats["max_local_error"] = max(
                stats.get("max_local_error", 0.0), float(np.max(np.abs(err_vec))))
            factor = 0.9 * (err + 1e-16) ** -0.12 * err_prev ** 0.06
            err_prev = err + 1e-16
        else:
            stats["rejects"] = stats.get("rejects", 0) + 1
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, factor))
    return y


@dataclass
class TransportResult:
    final_state: np.ndarray | None
    fundamental_matrix: np.ndarray | None
    step_count: int
    rejects: int
    max_local_error: float
    clearance: float


def transport(conn: CompiledConnection, path: Path,
              y0: np.ndarray | None = None, tol: float = 1e-10,
              min_clearance: float = 1e-3) -> TransportResult:
    """Transport a state vector (or the identity, giving the fundamental
    matrix) along the path."""
    clearance = check_clearance(path, min_clearance)
    n = conn.size
    matrix_mode = y0 is None
    state = np.eye(n, dtype=complex) if matrix_mode else np.asarray(y0, dtype=complex)
    stats: dict = {}
    for seg in path.segments:
        def rhs(s: float, y: np.ndarray, seg=seg) -> np.ndarray:
            a = conn.directional(seg.at(s), seg.velocity(s))
            return a @ y
        state = _rk45_segment(rhs, state, tol, stats)
    return TransportResult(
        final_state=None if matrix_mode else state,
        fundamental_matrix=state if matrix_mode else None,
        step_count=stats.get("steps", 0),
        rejects=stats.get("rejects", 0),
        max_local_error=stats.get("max_local_error", 0.0),
        clearance=clearance,
    )


def trace_integral(conn: CompiledConnection, path: Path,
                   order: int = 48, levels: int = 3) -> tuple[complex, bool]:
    """Contour integral of tr Omega by composite Gauss-Legendre quadrature,
    refined until stable (independent of the ODE stepper).  Each panel of
    ``order`` nodes is one batched evaluation.  Returns the last estimate
    and whether the last refinement met the stopping test."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    previous = None
    pieces = 1
    for _ in range(levels + 1):
        total = 0j
        half = 0.5 / pieces
        for seg in path.segments:
            for k in range(pieces):
                s = (2 * k + 1) * half + half * nodes
                traces = conn.trace_directional([seg.at(x) for x in s],
                                                [seg.velocity(x) for x in s])
                total += half * (weights @ traces)
        if previous is not None and abs(total - previous) < 1e-12 * max(1.0, abs(total)):
            return total, True
        previous = total
        pieces *= 2
    return previous, False


@dataclass
class MonodromyResult:
    matrix: np.ndarray
    eigenvalues: np.ndarray
    determinant: complex
    trace_integral_det: complex
    trace_converged: bool
    step_count: int
    rejects: int
    max_local_error: float

    @property
    def det_consistency(self) -> float:
        """Relative departure of det M from exp(contour tr Omega)."""
        expected = self.trace_integral_det
        return abs(self.determinant - expected) / max(abs(expected), 1e-300)


def monodromy(conn: CompiledConnection, loop: Path,
              tol: float = 1e-10, min_clearance: float = 1e-3) -> MonodromyResult:
    if not loop.is_closed(1e-9):
        raise ValueError("monodromy needs a closed loop")
    result = transport(conn, loop, y0=None, tol=tol, min_clearance=min_clearance)
    m = result.fundamental_matrix
    det = complex(np.linalg.det(m))
    tr, converged = trace_integral(conn, loop)
    return MonodromyResult(
        matrix=m,
        eigenvalues=np.linalg.eigvals(m),
        determinant=det,
        trace_integral_det=cmath.exp(tr),
        trace_converged=converged,
        step_count=result.step_count,
        rejects=result.rejects,
        max_local_error=result.max_local_error,
    )


# -- series initial data -----------------------------------------------------------


def initial_state(system: PfaffianSystem, point: Point, cap: int = 16,
                  tail_tol: float = 1e-20,
                  u: TruncatedSeries | None = None) -> np.ndarray:
    """The local solution vector (basis_j u) at a small point, from the
    truncated period series; truncation tails must clear tail_tol."""
    u = u or period_series(cap)
    values = []
    for w in system.basis:
        val, tail = u.theta_scale(w).evaluate(point)
        if tail > tail_tol:
            raise ValueError(
                f"series tail {tail:.3e} above tolerance {tail_tol:.3e} for basis {w}")
        values.append(val)
    return np.array(values, dtype=complex)


def series_vs_transport(system: PfaffianSystem, point_a: Point, point_b: Point,
                        cap: int = 16, tol: float = 1e-10,
                        min_clearance: float = 1e-4) -> float:
    """Transport the series-built state from A to B along the straight
    segment and compare with the series built directly at B (max norm)."""
    u = period_series(cap)
    state_a = initial_state(system, point_a, cap=cap, u=u)
    state_b = initial_state(system, point_b, cap=cap, u=u)
    path = Path((LineSegment(point_a, point_b),))
    moved = transport(CompiledConnection(system), path, y0=state_a, tol=tol,
                      min_clearance=min_clearance)
    return float(np.max(np.abs(moved.final_state - state_b)))
