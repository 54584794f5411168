"""Path transport, monodromy, series consistency."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from kummer_pf.pfaffian import rank5_system, rank6_system
from kummer_pf.transport import (
    CircleSegment,
    ClearanceError,
    CompiledConnection,
    LineSegment,
    Path,
    PathFormatError,
    TransportError,
    check_clearance,
    initial_state,
    monodromy,
    series_vs_transport,
    trace_integral,
    transport,
)

GENERIC_A = (1e-3, 0.6e-3, 0.4e-3)
GENERIC_B = (0.5e-3, 1e-3, 0.8e-3)


@pytest.fixture(scope="module")
def sys5():
    return rank5_system()


@pytest.fixture(scope="module")
def conn(sys5):
    return CompiledConnection(sys5)


# the p2 system's denominators carry d1, the q2 system's e1; rank 6 has n = 6
OTHER_SYSTEMS = {"q2": lambda: rank5_system("q2"), "rank6": rank6_system}


@pytest.fixture(scope="module")
def systems(sys5):
    return {"p2": sys5, **{name: derive() for name, derive in OTHER_SYSTEMS.items()}}


class TestPaths:
    def test_chaining_validated(self):
        with pytest.raises(ValueError):
            Path((LineSegment((0j, 0j, 1j), (1j, 0j, 1j)),
                  LineSegment((0j, 0j, 0j), (1j, 1j, 1j))))

    def test_json_roundtrip(self):
        circle = CircleSegment(coordinate="r", center=0j, radius=0.01, turns=1.0,
                               fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j})
        path = Path((circle,), samples_hint=32)
        back = Path.from_json(path.to_json())
        assert back.is_closed()
        assert back.samples_hint == 32
        a, b = back.segments[0].endpoints()
        assert abs(a[2] - 0.01) < 1e-15 and abs(b[2] - 0.01) < 1e-15

    @pytest.mark.parametrize("data, field", [
        ({}, "segment"),
        ({"segments": [{"type": "circle", "center": [0, 0], "radius": 0.01,
                        "turns": 1.0, "fixed": {"p": [0.5, 0], "q": [0.3, 0]}}]},
         "coordinate"),
        ({"segments": [{"type": "segment", "from": [[0, 0], [0, 0], [0.1, 0]]}]}, "to"),
    ], ids=["empty", "circle-without-coordinate", "segment-without-to"])
    def test_malformed_json_rejected_by_name(self, data, field):
        with pytest.raises(PathFormatError, match=field):
            Path.from_json(data)

    def test_clearance_rejects_divisor_touch(self):
        path = Path((LineSegment((1e-3, 0j, 0j), (0j, 1e-3, 0j)),))
        with pytest.raises(ClearanceError):
            check_clearance(path, 1e-4)

    def test_clearance_accepts_generic(self):
        path = Path((LineSegment(GENERIC_A, GENERIC_B),))
        assert check_clearance(path, 1e-3) > 1e-3


# Dyadic, so the float point is the rational point exactly.
RATIONAL_POINTS = [
    (Fraction(13, 32), Fraction(9, 32), Fraction(3, 64)),
    (Fraction(7, 16), Fraction(11, 32), Fraction(5, 128)),
    (Fraction(3, 8), Fraction(5, 16), Fraction(1, 32)),
]


class TestCompiledConnection:
    # the p2 cases keep their plain ids
    @pytest.mark.parametrize("name, point", [
        pytest.param(name, point, id=f"{name}-point{k}" if name != "p2" else f"point{k}")
        for name in ("p2", *OTHER_SYSTEMS) for k, point in enumerate(RATIONAL_POINTS)])
    def test_matches_exact_evaluation(self, systems, name, point):
        # directional along e_x is M_x; each entry against exact arithmetic
        system = systems[name]
        compiled = CompiledConnection(system)
        fpoint = tuple(float(x) for x in point)
        for k, var in enumerate("pqr"):
            unit = tuple(1.0 if i == k else 0.0 for i in range(3))
            exact = np.array([[float(f.evaluate_exact(point)) for f in row]
                              for row in system.matrix(var)])
            np.testing.assert_allclose(compiled.directional(fpoint, unit), exact,
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("point", RATIONAL_POINTS)
    def test_trace_directional_is_trace(self, conn, point):
        fpoint = tuple(float(x) for x in point)
        velocity = (0.3 - 0.1j, 1.2, 0.7j)
        trace = np.trace(conn.directional(fpoint, velocity))
        assert abs(conn.trace_directional(fpoint, velocity) - trace) <= 1e-12 * abs(trace)

    def test_batched_trace_is_trace_per_point(self, conn):
        points = [tuple(float(x) for x in point) for point in RATIONAL_POINTS]
        points.append((0.3 + 0.01j, 0.2 - 0.02j, 0.1 + 0.005j))
        velocities = [(0.3 - 0.1j, 1.2, 0.7j), (1j, -0.5, 0.25 + 0.25j),
                      (0.0, 2.0 - 1j, -0.3), (0.1j, 0.2j, 1.0)]
        traces = conn.trace_directional(points, velocities)
        assert traces.shape == (len(points),)
        for point, velocity, got in zip(points, velocities, traces):
            trace = np.trace(conn.directional(point, velocity))
            assert abs(got - trace) <= 1e-12 * abs(trace)

    def test_batch_with_a_pole_raises(self, conn):
        # one exact d1 root among generic points; the error names that point
        pole = (0.5, 1 / 3, math.sqrt(7) / 54)
        points = [(0.3, 0.2, 0.1), pole, (0.35, 0.25, 0.12)]
        with pytest.raises(TransportError, match=f"pole hit at .*{pole[2]:.6f}"):
            conn.trace_directional(points, [(0.0, 0.0, 1.0)] * 3)

    # r = 0 is a pole of M_r; on p = 1/2, q = 1/3, d1 = r (7/36 - 81 r^2)
    @pytest.mark.parametrize("r", [0.0, math.sqrt(7) / 54, -math.sqrt(7) / 54],
                             ids=["r0", "d1+", "d1-"])
    def test_denominator_floor_raises(self, conn, r):
        with pytest.raises(TransportError, match="pole"):
            conn.directional((0.5, 1 / 3, r), (0.0, 0.0, 1.0))


class TestInitialState:
    def test_formal_origin_limit(self, sys5):
        # at the origin every theta image vanishes and u = 1
        state = initial_state(sys5, (0j, 0j, 0j), cap=8)
        assert state[0] == 1
        assert np.all(state[1:] == 0)

    def test_small_p_point(self, sys5):
        state = initial_state(sys5, (1e-3, 0j, 0j), cap=12)
        # u = 1 + p/4 + 9 p^2/64 + ...
        assert abs(state[0] - (1 + 2.5e-4)) < 1e-6
        assert abs(state[0] - (1 + 2.5e-4 + 9 / 64 * 1e-6)) < 1e-9
        # theta_q image vanishes identically on the q = 0 slice
        assert state[2] == 0

    def test_floats_pinned(self, sys5):
        # the series is summed term by term in ascending lex order; any
        # change of that order or of the coefficients moves these bits
        state = initial_state(sys5, (1e-3, 0.6e-3, 0.4e-3), cap=16)
        assert state.tolist() == [
            1.0005373688442556, 0.0002509974155433367, 0.00016972121810947206,
            0.00011808752351730094, 0.0002512818118135685,
        ]

    def test_tail_tolerance_enforced(self, sys5):
        with pytest.raises(ValueError):
            initial_state(sys5, (0.5, 0.5, 0.5), cap=6, tail_tol=1e-12)


class TestTransport:
    def test_zero_length_path(self, conn):
        path = Path((LineSegment(GENERIC_A, GENERIC_A),))
        res = transport(conn, path, tol=1e-10, min_clearance=1e-4)
        assert np.allclose(res.fundamental_matrix, np.eye(5), atol=1e-12)

    def test_forward_backward_is_identity(self, conn):
        tol = 1e-10
        path = Path((LineSegment((0.3, 0.2, 0.1), (0.35, 0.25, 0.12)),))
        fwd = transport(conn, path, tol=tol).fundamental_matrix
        back = transport(conn, path.reversed(), tol=tol).fundamental_matrix
        assert np.max(np.abs(back @ fwd - np.eye(5))) < 10 * tol

    def test_contractible_loop_identity(self, conn):
        tol = 1e-10
        base = (0.3, 0.2, 0.1)
        corners = [(0.35, 0.2, 0.1), (0.35, 0.25, 0.1), (0.3, 0.25, 0.1)]
        loop = Path((
            LineSegment(base, corners[0]),
            LineSegment(corners[0], corners[1]),
            LineSegment(corners[1], corners[2]),
            LineSegment(corners[2], base),
        ))
        res = transport(conn, loop, tol=tol)
        assert np.max(np.abs(res.fundamental_matrix - np.eye(5))) < 1e2 * tol

    def test_homotopic_rectangles_agree(self, conn):
        tol = 1e-10
        a, b = (0.3, 0.2, 0.1), (0.4, 0.2, 0.1)
        via_top = Path((LineSegment(a, (0.3, 0.27, 0.1)),
                        LineSegment((0.3, 0.27, 0.1), (0.4, 0.27, 0.1)),
                        LineSegment((0.4, 0.27, 0.1), b)))
        direct = Path((LineSegment(a, b),))
        m1 = transport(conn, via_top, tol=tol).fundamental_matrix
        m2 = transport(conn, direct, tol=tol).fundamental_matrix
        assert np.max(np.abs(m1 - m2)) < 1e2 * tol

    def test_tolerance_refinement_improves_identity_defect(self, conn):
        base = (0.3, 0.2, 0.1)
        corners = [(0.36, 0.2, 0.1), (0.36, 0.26, 0.1), (0.3, 0.26, 0.1)]
        loop = Path((
            LineSegment(base, corners[0]),
            LineSegment(corners[0], corners[1]),
            LineSegment(corners[1], corners[2]),
            LineSegment(corners[2], base),
        ))
        defects = []
        for tol in (1e-6, 1e-8):
            m = transport(conn, loop, tol=tol).fundamental_matrix
            defects.append(np.max(np.abs(m - np.eye(5))))
        assert defects[1] < defects[0] / 10


class TestMonodromy:
    def test_r_loop_unit_determinant(self, conn):
        loop = Path((CircleSegment(coordinate="r", center=0j, radius=0.01, turns=1.0,
                                   fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j}),))
        result = monodromy(conn, loop, tol=1e-10)
        assert abs(abs(result.determinant) - 1) < 1e-6
        assert result.det_consistency < 1e-6

    def test_rejected_steps_reported(self, conn):
        # every attempted Dormand-Prince step costs six RHS calls after the
        # first-same-as-last start, so the calls account for steps + rejects
        loop = Path((CircleSegment(coordinate="r", center=0j, radius=0.01, turns=1.0,
                                   fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j}),))
        with mock.patch.object(conn, "directional", wraps=conn.directional) as spy:
            result = transport(conn, loop, tol=1e-10)
        assert result.rejects > 0
        assert spy.call_count == 1 + 6 * (result.step_count + result.rejects)
        loop_result = monodromy(conn, loop, tol=1e-10)
        assert (loop_result.step_count, loop_result.rejects) == (
            result.step_count, result.rejects)

    # The second circle's quadrature settles; the first's last two
    # refinements differ by about 5e-12 relative, above the stopping test,
    # though its value (i*pi) is right and its Liouville defect small.
    @pytest.mark.parametrize("p, q, r, converged", [
        (0.5689, 0.3789, 0.00968, False),
        (0.43, 0.38, 0.0125, True),
    ], ids=["unsettled", "settled"])
    def test_trace_convergence_reported(self, conn, p, q, r, converged):
        loop = Path((CircleSegment(coordinate="r", center=0j, radius=r, turns=1.0,
                                   fixed={"p": p + 0j, "q": q + 0j}),))
        result = monodromy(conn, loop, tol=1e-8)
        assert result.trace_converged is converged
        assert result.det_consistency < 1e-6

    def test_inverse_loop_gives_inverse(self, conn):
        loop = Path((CircleSegment(coordinate="r", center=0j, radius=0.01, turns=1.0,
                                   fixed={"p": 0.5 + 0j, "q": 1 / 3 + 0j}),))
        fwd = monodromy(conn, loop, tol=1e-10)
        back = monodromy(conn, loop.reversed(), tol=1e-10)
        assert np.max(np.abs(back.matrix @ fwd.matrix - np.eye(5))) < 1e-7

    def test_open_path_rejected(self, conn):
        path = Path((LineSegment(GENERIC_A, GENERIC_B),))
        with pytest.raises(ValueError):
            monodromy(conn, path, tol=1e-8)

    def test_liouville_on_open_path(self, conn, sys5):
        # det of the fundamental matrix matches exp of the trace integral on
        # open paths as well
        path = Path((LineSegment((0.3, 0.2, 0.1), (0.35, 0.22, 0.13)),))
        m = transport(conn, path, tol=1e-11).fundamental_matrix
        integral, converged = trace_integral(conn, path)
        assert converged
        expected = np.exp(integral)
        assert abs(np.linalg.det(m) - expected) / abs(expected) < 1e-6


class TestSeriesConsistency:
    def test_same_point_zero(self, sys5):
        assert series_vs_transport(sys5, GENERIC_A, GENERIC_A, cap=12) == 0

    def test_generic_small_points(self, sys5):
        d = series_vs_transport(sys5, GENERIC_A, GENERIC_B, cap=16, tol=1e-10)
        assert d < 1e-8

    def test_r_direction_stress(self, sys5):
        a = (0.7e-3, 0.9e-3, 1e-3)
        b = (0.9e-3, 0.7e-3, 1.2e-3)
        d = series_vs_transport(sys5, a, b, cap=20, tol=1e-10)
        assert d < 1e-6
