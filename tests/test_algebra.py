import math

import numpy as np
import numpy.testing as npt
import pytest

from su2vol.algebra import (
    CIRCLE, IDENTITY, VOL0_SU2, AlgebraElement, GroupElement, U1, U2, U3,
    angle_axis, bracket, exp_group, exp_su2, g0_distance_between, g0_inner,
    factor_product, g0_norm, log_su2, mul, quat_to_su2, reference_distance,
    rodrigues_factor, su2_to_quat,
)
from su2vol.frames import segment_product
from su2vol.metrics import from_parameters
from oracles import series_expm


def _su2_mat(v):
    v = np.asarray(v, dtype=float)
    return v[0] * U1 + v[1] * U2 + v[2] * U3


def _alg(v):
    return AlgebraElement.from_parts(np.asarray(v, dtype=float), np.zeros(3))


def test_basis_brackets_cyclic():
    e = np.eye(3)
    npt.assert_allclose(bracket(_alg(e[0]), _alg(e[1])).su2_coeffs, e[2],
                        atol=1e-15)
    npt.assert_allclose(bracket(_alg(e[1]), _alg(e[2])).su2_coeffs, e[0],
                        atol=1e-15)
    npt.assert_allclose(bracket(_alg(e[2]), _alg(e[0])).su2_coeffs, e[1],
                        atol=1e-15)
    npt.assert_allclose(bracket(_alg(e[1]), _alg(e[0])).su2_coeffs, -e[2],
                        atol=1e-15)


def test_basis_brackets_match_matrix_commutators():
    # the coefficient-level cross product must agree with the 2x2 algebra
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=3)
        mx, my = _su2_mat(x), _su2_mat(y)
        got = bracket(_alg(x), _alg(y)).su2_coeffs
        npt.assert_allclose(_su2_mat(got), mx @ my - my @ mx, atol=1e-14)


def test_constants():
    assert CIRCLE == pytest.approx(4.0 * math.pi, rel=0, abs=0)
    assert VOL0_SU2 == pytest.approx(16.0 * math.pi ** 2, rel=1e-15)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(1)
    for scale in (1e-6, 0.1, 1.0, 5.0, 20.0):
        for _ in range(20):
            v = rng.normal(size=3) * scale
            got = exp_su2(v)
            ref = series_expm(_su2_mat(v))
            npt.assert_allclose(got, ref, atol=1e-12)


def test_exp_periodicity():
    for axis in range(3):
        v = np.zeros(3)
        v[axis] = CIRCLE
        npt.assert_allclose(exp_su2(v), np.eye(2), atol=1e-12)
        v[axis] = 2.0 * math.pi
        npt.assert_allclose(exp_su2(v), -np.eye(2), atol=1e-12)


def test_exp_group_inverse():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = exp_group(AlgebraElement(rng.normal(size=6)))
        gi = g.inverse()
        npt.assert_allclose(mul(g, gi).su2, np.eye(2), atol=1e-13)
        npt.assert_allclose(mul(g, gi).vec, np.zeros(3), atol=1e-13)


def test_log_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(1e-3, 2.0 * math.pi - 1e-3)
        coeffs = np.concatenate([v, rng.normal(size=3)])
        back = log_su2(exp_group(AlgebraElement(coeffs)))
        npt.assert_allclose(back.coeffs, coeffs, atol=1e-10)


def test_log_stable_near_identity():
    # tiny rotations must come back with full relative precision
    for theta in (1e-9, 1e-7, 1e-5):
        v = np.array([theta, 0.0, 0.0])
        back = log_su2(exp_group(AlgebraElement.from_parts(v, np.zeros(3))))
        npt.assert_allclose(back.su2_coeffs, v, rtol=1e-6, atol=0.0)


def test_log_minus_identity_flagged():
    g = GroupElement(-np.eye(2, dtype=complex), np.array([1.0, 2.0, 3.0]))
    val, ambiguous = log_su2(g, with_flag=True)
    assert ambiguous
    npt.assert_allclose(val.su2_coeffs, [0.0, 0.0, 2.0 * math.pi],
                        atol=1e-12)
    npt.assert_allclose(val.vec, g.vec, atol=0.0)
    # generic elements are not flagged
    _, ambiguous = log_su2(exp_group(AlgebraElement.from_parts(
        np.array([1.0, 0.0, 0.0]), np.zeros(3))), with_flag=True)
    assert not ambiguous


def test_quaternion_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        q2 = su2_to_quat(quat_to_su2(q))
        # extraction fixes an overall sign
        err = min(np.max(np.abs(q2 - q)), np.max(np.abs(q2 + q)))
        assert err < 1e-14


def test_group_element_su2_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = exp_su2(rng.normal(size=3) * 3.0)
        g = GroupElement(m, np.zeros(3))
        npt.assert_allclose(g.su2, m, atol=1e-15)
        npt.assert_allclose(g.q @ g.q, 1.0, atol=1e-15)


def test_log_rejects_matrix_off_su2():
    bad = GroupElement(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(3))
    with pytest.raises(ValueError):
        log_su2(bad)
    with pytest.raises(ValueError):
        log_su2(mul(bad, IDENTITY))
    # a part outside the quaternion algebra (here a U(2) phase) counts too
    phase = GroupElement(np.exp(1e-5j) * np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        log_su2(phase)
    # rounding-level deviations still pass
    log_su2(GroupElement(exp_su2(np.array([0.3, -0.2, 0.9])) * (1.0 + 1e-12),
                         np.zeros(3)))


def test_mul_keeps_unit_norm_drift_at_rounding_level():
    # mul never renormalizes: 2000 products drift from SU(2) by rounding only
    rng = np.random.default_rng(5)
    g = IDENTITY
    for _ in range(2000):
        g = mul(g, exp_group(AlgebraElement(rng.normal(size=6) * 0.3)))
    drift = np.max(np.abs(g.su2.conj().T @ g.su2 - np.eye(2)))
    assert drift < 1e-12


def test_g0_inner_norm():
    x = AlgebraElement.from_parts(np.array([3.0, 0.0, 0.0]), np.zeros(3))
    y = AlgebraElement.from_parts(np.zeros(3), np.array([0.0, 4.0, 0.0]))
    assert g0_inner(x, y) == pytest.approx(0.0, abs=1e-15)
    both = AlgebraElement.from_parts(np.array([3.0, 0.0, 0.0]),
                                     np.array([0.0, 4.0, 0.0]))
    assert g0_norm(both) == pytest.approx(5.0, rel=1e-15)


def test_g0_distance_rotation_angle():
    for theta in (0.1, 1.0, math.pi, 2.0 * math.pi - 0.2):
        g = exp_group(AlgebraElement.from_parts(
            np.array([0.0, theta, 0.0]), np.zeros(3)))
        assert g0_distance_between(IDENTITY, g) == pytest.approx(
            theta, rel=1e-9)


def test_reference_distance_hypot():
    g = exp_group(AlgebraElement.from_parts(
        np.array([0.6, 0.0, 0.0]), np.array([0.8, 0.0, 0.0])))
    assert reference_distance(g) == pytest.approx(1.0, rel=1e-12)


def test_reference_distance_resolves_small_rotations():
    # an arccos of w rounds rotations below about 2e-8 to 0
    for eps in (1e-8, 2e-8, 3e-8):
        g = exp_group(_alg([eps, 0.0, 0.0]))
        assert reference_distance(g) == pytest.approx(eps, rel=1e-12)


def test_angle_axis_vectorized_with_identity_fallback():
    qs = np.stack([IDENTITY.q, exp_group(_alg([0.0, 0.0, -1.5])).q,
                   -IDENTITY.q])
    # the components run along the first axis: one quaternion per column,
    # and the axis comes back as three columns
    theta, axis = angle_axis(qs.T)
    assert len(axis) == 3 and all(c.shape == (3,) for c in axis)
    axis = np.array(axis)
    npt.assert_allclose(theta, [0.0, 1.5, 2.0 * math.pi], rtol=1e-15)
    npt.assert_array_equal(axis[:, 0], [0.0, 0.0, 1.0])
    npt.assert_allclose(axis[:, 1], [0.0, 0.0, -1.0], rtol=1e-15)
    one_theta, one_axis = angle_axis(qs[1])
    assert one_theta == theta[1]
    npt.assert_array_equal(np.array(one_axis), axis[:, 1])


def test_g0_distance_between_matches_reference_chain():
    # the float path must agree with the numpy chain it replaces, from
    # rotations of 1e-8 (where an arccos would read 0) up to about 2 pi
    rng = np.random.default_rng(57)
    for scale in (1e-8, 1e-5, 1e-2, 1.0, 3.0):
        for _ in range(40):
            a = exp_group(AlgebraElement(2.0 * rng.normal(size=6)))
            step = rng.normal(size=6)
            b = mul(a, exp_group(AlgebraElement(scale * step)))
            want = reference_distance(mul(a.inverse(), b))
            assert g0_distance_between(a, b) == pytest.approx(
                want, rel=1e-15, abs=0.0)
    for eps in (1e-8, 2e-8, 3e-8):
        g = exp_group(_alg([0.0, eps, 0.0]))
        assert g0_distance_between(IDENTITY, g) == pytest.approx(
            eps, rel=1e-15)
        assert g0_distance_between(g, IDENTITY) == pytest.approx(
            eps, rel=1e-15)
    assert g0_distance_between(IDENTITY, IDENTITY) == 0.0


def test_exp_group_and_mul_are_the_segment_product_kernel():
    # exp_group and mul share segment_product's Rodrigues factor and
    # Hamilton product, so they agree with it bit for bit, not to rounding
    rng = np.random.default_rng(3)
    ref = from_parameters(1.0, 1.0, 1.0, 0.0)
    cs = rng.normal(size=(1000, 6)) * rng.uniform(0.0, 10.0, size=(1000, 1))
    for c, c_next in zip(cs, np.roll(cs, 1, axis=0)):
        g = exp_group(AlgebraElement(c))
        want = segment_product(ref, [(1.0, c[:3], c[3:])])
        npt.assert_array_equal(g.q, want.q)
        npt.assert_array_equal(g.vec, want.vec)
        two = mul(g, exp_group(AlgebraElement(c_next)))
        want = segment_product(ref, [(1.0, c[:3], c[3:]),
                                     (1.0, c_next[:3], c_next[3:])])
        npt.assert_array_equal(two.q, want.q)
        npt.assert_array_equal(two.vec, want.vec)


def test_exp_group_keeps_large_finite_translations():
    # finiteness is checked per component, so translations near the top of
    # the float range pass; only a component that overflows raises
    g = exp_group(AlgebraElement(np.array([0.0, 0.0, 0.0,
                                           1e308, 1e308, -1e308])))
    npt.assert_array_equal(g.vec, [1e308, 1e308, -1e308])
    with pytest.raises(ValueError, match="non-finite"):
        mul(g, g)


def test_shear_lemma_on_piecewise_constant_paths():
    # the shear lemma: a rotation path q' = q (0, alpha) / 2 with per-axis
    # turns Phi_i = int |alpha_i|, total turn Phi = int |alpha| and net
    # turn A = int alpha ends at q = (w, v) with |w - 1| <= Phi^2 / 8,
    # |2 v_i - A_i| <= kappa_i = Phi_j Phi_k / 2 + Phi^2 (Phi_1 + Phi_2
    # + Phi_3) / 8 and |2 v - A| <= Phi^2 / 4 + Phi^3 / 24.  Half the
    # paths turn about one axis per segment, where kappa_i is nearly
    # attained; each factor may add a few ulp of rounding
    rng = np.random.default_rng(89)
    eps = np.finfo(float).eps
    worst = np.zeros(3)
    for trial in range(4000):
        k = int(rng.integers(1, 13))
        alpha = rng.normal(size=(k, 3))
        if trial % 2:
            alpha *= np.eye(3)[rng.integers(0, 3, k)]
        steps = alpha * 10.0 ** rng.uniform(-6.0, 0.5) * rng.random((k, 1))
        g = factor_product([rodrigues_factor(*c, 0.0, 0.0, 0.0)
                            for c in steps.tolist()])
        w, v = g.q[0], g.q[1:]
        phi_i = np.abs(steps).sum(axis=0)
        phi = np.linalg.norm(steps, axis=1).sum()
        net = steps.sum(axis=0)
        kappa = (0.5 * np.roll(phi_i, -1) * np.roll(phi_i, -2)
                 + phi ** 2 * phi_i.sum() / 8.0)
        gap_w, bound_w = abs(w - 1.0), phi ** 2 / 8.0
        shear = np.abs(2.0 * v - net)
        gap_v = np.linalg.norm(2.0 * v - net)
        bound_v = phi ** 2 / 4.0 + phi ** 3 / 24.0
        allowance = 4.0 * k * eps
        assert gap_w <= bound_w + allowance
        assert np.all(shear <= kappa + allowance)
        assert gap_v <= bound_v + allowance
        if phi > 1e-4:
            worst = np.maximum(worst, [gap_w / bound_w, np.max(shear / kappa),
                                       gap_v / bound_v])
    # the bounds are nearly attained, so the check has teeth
    assert np.all(worst > [0.99, 0.9, 0.4])
