import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2vol.algebra import (
    VOL0_SU2, AlgebraElement, U1, U2, U3, exp_group, su2_to_quat,
)
from su2vol.frames import (
    CollisionClass, ControlPath, Coordinates, GimbalLock, PathSegment,
    adjoint_rotate, chart_angles, commutator_identity, euler_quat,
    frame_chart, jacobian,
    mc_integrate, path_length, psi, psi_collision_classify,
    wrap_circle, word_factors, word_group_element, word_rows,
)
from su2vol.metrics import from_parameters
from oracles import fd_jacobian, series_expm

TWO_PI = 2.0 * math.pi
WORD_TOL = 1e-12


def test_wrap_circle_values():
    assert wrap_circle(0.0) == 0.0
    assert wrap_circle(TWO_PI) == pytest.approx(TWO_PI, abs=0.0)
    assert wrap_circle(-TWO_PI) == pytest.approx(TWO_PI, abs=0.0)
    assert wrap_circle(2.0 * TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert wrap_circle(5.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    npt.assert_allclose(wrap_circle(np.array([0.1, -7.0, 13.0])),
                        [0.1, -7.0 + 4 * math.pi, 13.0 - 4 * math.pi],
                        atol=1e-12)


@given(st.floats(-1e6, 1e6))
@settings(max_examples=200, deadline=None)
def test_wrap_circle_range_and_period(x):
    w = wrap_circle(x)
    assert -TWO_PI < w <= TWO_PI + 1e-9
    assert math.remainder(w - x, 2.0 * TWO_PI) == pytest.approx(0.0,
                                                                abs=1e-6)


def _pauli(v):
    return v[0] * U1 + v[1] * U2 + v[2] * U3


def test_psi_matches_series_product():
    rng = np.random.default_rng(20)
    for _ in range(40):
        x = rng.uniform(-TWO_PI, TWO_PI, 3)
        got = psi(Coordinates(x, np.zeros(3))).su2
        ref = (series_expm(_pauli([0, 0, x[2]]))
               @ series_expm(_pauli([0, x[1], 0]))
               @ series_expm(_pauli([x[0], 0, 0])))
        npt.assert_allclose(got, ref, atol=1e-12)


def test_euler_quat_vectorized():
    xs = np.linspace(-6.0, 6.0, 11)
    w, qx, qy, qz = euler_quat(xs, xs / 2.0, -xs)
    for i, x in enumerate(xs):
        q = np.array(euler_quat(x, x / 2.0, -x))
        npt.assert_allclose([w[i], qx[i], qy[i], qz[i]], q, atol=1e-15)
    npt.assert_allclose(w ** 2 + qx ** 2 + qy ** 2 + qz ** 2, 1.0,
                        atol=1e-14)


def test_chart_angles_round_trip_keeps_sign():
    # the extraction alone may return the angles of -q; chart_angles must
    # give back q itself, in the stored range
    rng = np.random.default_rng(60)
    q = rng.normal(size=(4000, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    q[:5] = [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1],
             [-0.5, 0.5, -0.5, 0.5]]
    # rows at and next to gimbal lock, x2 = +-(pi/2 - eps)
    eps = np.repeat([0.0, 1e-12, 1e-9, 1e-6], 100)
    x2 = rng.choice([-1.0, 1.0], eps.size) * (0.5 * math.pi - eps)
    q = np.vstack([q, np.stack(euler_quat(
        rng.uniform(-TWO_PI, TWO_PI, eps.size), x2,
        rng.uniform(-math.pi, math.pi, eps.size)), axis=1)])
    assert np.any(q[:, 0] < 0.0) and np.any(q[:, 0] > 0.0)
    x = np.stack(chart_angles(q.T), axis=1)
    assert np.all((x > -TWO_PI) & (x <= TWO_PI))
    assert np.all(np.abs(x[:, 1:]) <= math.pi)
    npt.assert_allclose(np.stack(euler_quat(*x.T), axis=1), q, rtol=0.0,
                        atol=1e-14)
    for row in np.vstack([q[:50], q[-50:]]):
        npt.assert_allclose(euler_quat(*chart_angles(row)), row, rtol=0.0,
                            atol=1e-14)


def test_frame_chart_standard_metric_is_psi():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        c = Coordinates(rng.uniform(-6, 6, 3), rng.normal(size=3))
        g1, g2 = frame_chart(m, c), psi(c)
        npt.assert_allclose(g1.su2, g2.su2, atol=1e-12)
        npt.assert_allclose(g1.vec, g2.vec, atol=1e-12)


def test_frame_chart_separates_rotation_and_center():
    # the u-factors are purely rotational even when the metric is tilted,
    # so the center position is exactly the y-coordinates in the f-frame
    m = from_parameters(1.0, 1.5, 2.0, 2.0)
    rng = np.random.default_rng(30)
    for _ in range(10):
        c = Coordinates(rng.uniform(-3, 3, 3), rng.normal(size=3))
        g = frame_chart(m, c)
        npt.assert_allclose(g.vec, m.F[3:] @ c.y, atol=1e-12)
        npt.assert_allclose(g.su2, psi(Coordinates(c.x, np.zeros(3))).su2,
                            atol=1e-12)


def test_jacobian_values():
    assert jacobian(0.0) == 1.0
    assert jacobian(0.5 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert jacobian(-0.3) == pytest.approx(math.cos(0.3), rel=1e-15)


def test_jacobian_matches_fd_oracle():
    # volume density via finite differences of the quaternion embedding:
    # the u-frame is half the quaternion frame, so the pullback picks up 8
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-math.pi, math.pi, 3)
        x[1] = rng.uniform(-0.5 * math.pi + 0.1, 0.5 * math.pi - 0.1)

        def quat_map(v):
            return np.array(euler_quat(v[0], v[1], v[2]))

        A = fd_jacobian(quat_map, x, eps=1e-6)
        det_fd = 8.0 * math.sqrt(max(np.linalg.det(A.T @ A), 0.0))
        rel = abs(det_fd - jacobian(x[1])) / jacobian(x[1])
        worst = max(worst, rel)
    assert worst < 1e-5


def test_integral_of_jacobian_over_torus():
    # exact x2-integral of |cos| over one circle is 8, so the chart mass
    # of the full torus is 8 times the reference group volume
    x2 = np.linspace(-TWO_PI, TWO_PI, 400001)
    mass = np.trapezoid(np.abs(np.cos(x2)), x2) * (2.0 * TWO_PI) ** 2
    assert mass == pytest.approx(8.0 * VOL0_SU2, rel=1e-9)


def test_adjoint_rotate_endpoints():
    X, Y = AlgebraElement(np.eye(6)[0]), AlgebraElement(np.eye(6)[1])
    npt.assert_allclose(adjoint_rotate(X, Y, 0.0).coeffs, X.coeffs,
                        atol=1e-15)
    half = adjoint_rotate(X, Y, 0.5 * math.pi)
    npt.assert_allclose(half.su2_coeffs, [0.0, 0.0, 1.0], atol=1e-12)
    npt.assert_allclose(adjoint_rotate(X, Y, math.pi).coeffs, -X.coeffs,
                        atol=1e-12)


def test_adjoint_rotate_matches_conjugation():
    rng = np.random.default_rng(23)
    for _ in range(30):
        i = rng.integers(0, 3)
        j = (i + rng.integers(1, 3)) % 3
        s = rng.uniform(-4.0, 4.0)
        X, Y = AlgebraElement(np.eye(6)[i]), AlgebraElement(np.eye(6)[j])
        got = adjoint_rotate(X, Y, s).su2_coeffs
        ey = series_expm(_pauli(s * np.eye(3)[j]))
        conj = np.linalg.inv(ey) @ _pauli(np.eye(3)[i]) @ ey
        npt.assert_allclose(_pauli(got), conj, atol=1e-12)


def test_commutator_identity_values():
    f, tau = commutator_identity(math.pi, math.pi)
    assert f == pytest.approx(TWO_PI, rel=1e-14)
    f, tau = commutator_identity(0.0, 1.0)
    assert f == 0.0
    # odd in each argument
    s, t = 0.7, -1.3
    fp, _ = commutator_identity(s, t)
    fm, _ = commutator_identity(-s, t)
    assert fp == pytest.approx(-fm, rel=1e-14)


def test_commutator_angle_ratio_envelope():
    # frozen: min over the closed grid of sqrt(8) f / (s t) is ~1.8006,
    # attained at the corners, hence f >= s t / sqrt(8) throughout
    s = np.linspace(1e-4, math.pi, 300)
    ss, tt = np.meshgrid(s, s)
    f, _ = commutator_identity(ss, tt)
    ratio = math.sqrt(8.0) * f / (ss * tt)
    assert ratio.min() == pytest.approx(1.800633, abs=1e-5)
    assert np.all(ratio >= 1.0)


def test_tau_branch_bound():
    rng = np.random.default_rng(24)
    s = rng.uniform(-math.pi, math.pi, 500)
    t = rng.uniform(-math.pi, math.pi, 500)
    _, tau = commutator_identity(s, t)
    assert np.all(np.abs(tau) <= 0.5 * np.abs(t) + 1e-12)


def test_word_rows_encode_factors():
    # |amount| along sign(amount) e_axis, beta = shift * alpha, zero
    # amounts dropped, all Python floats
    rows = word_rows([(2, -0.5), (0, 0.0), (1, 0.25)], -3.0)
    assert rows == [(0.5, [0.0, 0.0, -1.0], [-0.0, -0.0, 3.0]),
                    (0.25, [0.0, 1.0, 0.0], [-0.0, -3.0, -0.0])]
    assert all(type(x) is float for _, alpha, beta in rows
               for x in alpha + beta)
    assert word_rows([], 1.0) == []


def _word_residual(s, t, axes, use_v=False, m=None):
    got = word_group_element(s, t, axes, use_v=use_v, m=m)
    f, _ = commutator_identity(s, t)
    target = np.zeros(6)
    target[axes[2]] = f
    want = exp_group(AlgebraElement(target))
    return max(float(np.max(np.abs(got.su2 - want.su2))),
               float(np.max(np.abs(got.vec - want.vec))))


def test_word_identity_grid():
    s = np.linspace(-math.pi, math.pi, 21)
    t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 21)
    worst = 0.0
    for sv in s:
        for tv in t:
            worst = max(worst, _word_residual(sv, tv, (0, 1, 2)))
    assert worst < WORD_TOL


def test_word_identity_axis_permutations():
    rng = np.random.default_rng(25)
    for axes in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for _ in range(50):
            sv = rng.uniform(-math.pi, math.pi)
            tv = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            assert _word_residual(sv, tv, axes) < WORD_TOL


def test_word_identity_with_tilted_frame():
    # v-factors add central motion that must cancel along the word
    rng = np.random.default_rng(26)
    for d in (0.0, 0.5, 10.0):
        m = from_parameters(1.0, 1.0, 1.0, d)
        for _ in range(40):
            sv = rng.uniform(-math.pi, math.pi)
            tv = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            assert _word_residual(sv, tv, (0, 1, 2), use_v=True,
                                  m=m) < WORD_TOL


def test_word_factors_net_zero():
    fac = word_factors(1.1, 0.7, (0, 1, 2))
    assert len(fac) == 7
    net = np.zeros(3)
    for axis, amount in fac:
        net[axis] += amount
    npt.assert_allclose(net, np.zeros(3), atol=1e-15)


def test_collision_lattice():
    rng = np.random.default_rng(27)
    x = rng.uniform(-math.pi, math.pi, 3)
    y = rng.normal(size=3)
    c1 = Coordinates(x, y)
    for shift in ([TWO_PI, 0, 0], [0, TWO_PI, 0], [TWO_PI, TWO_PI, TWO_PI]):
        c2 = Coordinates(x + np.asarray(shift, dtype=float), y)
        assert psi_collision_classify(c1, c2) is CollisionClass.LATTICE
    assert psi_collision_classify(c1, c1) is CollisionClass.LATTICE


def test_collision_reflection_family():
    rng = np.random.default_rng(28)
    x = rng.uniform(-1.0, 1.0, 3)
    y = rng.normal(size=3)
    c1 = Coordinates(x, y)
    refl = np.array([x[0] + math.pi, math.pi - x[1], x[2] + math.pi])
    c2 = Coordinates(refl, y)
    assert psi_collision_classify(c1, c2) is CollisionClass.HALF_PI_BRANCH


def test_collision_gimbal_continuum():
    c1 = Coordinates(np.array([0.7, 0.5 * math.pi, -1.1]), np.zeros(3))
    along = Coordinates(np.array([1.0, 0.5 * math.pi, -0.8]), np.zeros(3))
    across = Coordinates(np.array([1.0, 0.5 * math.pi, -1.4]), np.zeros(3))
    assert psi_collision_classify(c1, along) is CollisionClass.HALF_PI_BRANCH
    assert psi_collision_classify(c1, across) is CollisionClass.DISTINCT


def test_collision_distinct_and_y_mismatch():
    c1 = Coordinates(np.array([0.1, 0.2, 0.3]), np.zeros(3))
    c2 = Coordinates(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.0, 1.0]))
    assert psi_collision_classify(c1, c2) is CollisionClass.DISTINCT
    c3 = Coordinates(np.array([0.4, 0.2, 0.3]), np.zeros(3))
    assert psi_collision_classify(c1, c3) is CollisionClass.DISTINCT


def test_collision_agrees_with_chart_values():
    # Distinct pairs have different chart values; non-distinct pairs agree
    # up to the central sign
    rng = np.random.default_rng(29)
    for _ in range(60):
        x = rng.uniform(-TWO_PI, TWO_PI, 3)
        y = rng.normal(size=3)
        c1 = Coordinates(x, y)
        kind = rng.integers(0, 3)
        if kind == 0:
            shift = TWO_PI * rng.integers(-1, 2, 3)
            c2 = Coordinates(x + shift, y)
        elif kind == 1:
            c2 = Coordinates([x[0] + math.pi, math.pi - x[1],
                              x[2] + math.pi], y)
        else:
            c2 = Coordinates(x + rng.uniform(0.05, 0.3, 3), y)
        cls = psi_collision_classify(c1, c2)
        q1 = su2_to_quat(psi(c1).su2)
        q2 = su2_to_quat(psi(c2).su2)
        same = (min(np.max(np.abs(q1 - q2)), np.max(np.abs(q1 + q2))) < 1e-9
                and np.max(np.abs(c1.y - c2.y)) < 1e-9)
        assert same == (cls is not CollisionClass.DISTINCT)


def test_control_path_json_round_trip():
    p = ControlPath([PathSegment(0.5, [1.0, 0.0, 0.0], [0.0, 0.0, 0.2]),
                     PathSegment(1.5, [0.0, -1.0, 0.0], [0.1, 0.0, 0.0])])
    q = ControlPath.from_json(p.to_json())
    assert len(q.segments) == 2
    npt.assert_allclose(q.segments[1].alpha, [0.0, -1.0, 0.0], atol=0.0)
    assert q.segments[0].duration == 0.5


def test_path_segment_validation():
    with pytest.raises(ValueError):
        PathSegment(0.0, [1, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        PathSegment(-1.0, [1, 0, 0], [0, 0, 0])


def test_mc_integrate_simple_rotation():
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    p = ControlPath([PathSegment(0.8, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])])
    endpoint, coords, length = mc_integrate(m, p)
    npt.assert_allclose(coords.x, [0.8, 0.0, 0.0], atol=1e-9)
    # drift d * alpha accumulates on the center
    npt.assert_allclose(coords.y, [0.4, 0.0, 0.0], atol=1e-12)
    assert length == pytest.approx(0.8 * 1.0, rel=1e-12)
    assert length == pytest.approx(path_length(m, p), rel=1e-12)


def test_mc_integrate_multi_segment_certifies():
    m = from_parameters(0.7, 1.1, 1.9, 1.3)
    p = ControlPath([PathSegment(0.4, [0.9, -0.2, 0.1], [0.0, 0.3, 0.0]),
                     PathSegment(0.3, [-0.5, 0.8, 0.0], [0.2, 0.0, -0.1]),
                     PathSegment(0.6, [0.0, 0.1, -0.7], [0.0, 0.0, 0.4])])
    endpoint, coords, length = mc_integrate(m, p)
    assert length == pytest.approx(path_length(m, p), rel=1e-12)
    assert np.all(np.abs(coords.x) < TWO_PI + 1e-9)


def test_mc_integrate_gimbal_lock():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    p = ControlPath([PathSegment(0.5 * math.pi + 0.2, [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 0.0])])
    with pytest.raises(GimbalLock):
        mc_integrate(m, p)


def test_mc_integrate_empty_path():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    endpoint, coords, length = mc_integrate(m, ControlPath([]))
    assert length == 0.0
    npt.assert_allclose(endpoint.su2, np.eye(2), atol=1e-15)
