import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from su2vol.metrics import (
    DecoupledMetric, InvalidParameters, MetricTensor, NotSPD, canonicalize,
    decoupled_to_json, extract_milnor_su2, from_parameters, metric_from_flat,
    metric_to_json, reduce_to_decoupled,
)

PARAM_TOL = 1e-8


def _random_spd(dim, rng, cond=10.0):
    f = rng.normal(size=(dim, dim))
    g = f @ f.T + np.eye(dim) / cond
    return 0.5 * (g + g.T)


def test_from_parameters_invariants():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = np.sort(rng.uniform(0.2, 5.0, 3))
        d = rng.uniform(0.0, 4.0)
        m = from_parameters(*a, d)
        g, V, F = m.gram, m.V, m.F
        npt.assert_allclose(V.T @ g @ V, np.diag(a ** 2), atol=1e-10)
        npt.assert_allclose(V.T @ g @ F, np.zeros((3, 3)), atol=1e-10)
        npt.assert_allclose(F.T @ g @ F, np.eye(3), atol=1e-10)
        # the u_i = v_i - d f_i pick up the tilt in their norms
        U = m.u_columns()
        npt.assert_allclose(np.diag(U.T @ g @ U), a ** 2 + d ** 2,
                            rtol=PARAM_TOL)
        res = m.invariant_residuals()
        assert max(res.values()) < 1e-10


def test_round_trip_parameters():
    m = from_parameters(1.0, 2.0, 3.0, 5.0)
    dec = canonicalize(reduce_to_decoupled(MetricTensor(m.gram)))
    npt.assert_allclose(dec.a, [1.0, 2.0, 3.0], atol=PARAM_TOL)
    assert dec.d == pytest.approx(5.0, abs=PARAM_TOL)
    # (a, d) -> (lam a, lam d) in a rotated frame reduces back to itself
    # at every scale, with tilts far below the su(2) lengths kept
    rng = np.random.default_rng(16)
    for a in ((1.0, 2.0, 3.0), (0.01, 1.0, 100.0)):
        for lam in (1e-12, 1e-9, 1e-8, 1e-3, 1.0, 1e3, 1e8):
            for d in (0.0, 1e-9, 0.5, 1.0):
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                q *= np.linalg.det(q)
                want = lam * np.array(a)
                m = from_parameters(*want, lam * d, rotation=q)
                dec = canonicalize(reduce_to_decoupled(MetricTensor(m.gram)))
                # rounding the rotated Gram's entries moves a_i^2 by up to
                # ~eps lam^2 (a3^2 + d^2): ~1e-8 relative in a1 at
                # a = (0.01, 1, 100), for any reduction
                tol = np.maximum(1e-9, 4.0 * np.finfo(float).eps
                                 * (a[2] ** 2 + d * d) / np.square(a))
                assert np.all(np.abs(dec.a - want) <= tol * want), (a, lam, d)
                if d == 0.0:
                    assert dec.d == 0.0
                else:
                    assert dec.d == pytest.approx(lam * d, rel=1e-12, abs=0.0)


def test_diagonal_gram_n0():
    m = MetricTensor(np.diag([4.0, 1.0, 9.0]))
    dec = canonicalize(reduce_to_decoupled(m))
    npt.assert_allclose(dec.a, [1.0, 2.0, 3.0], atol=PARAM_TOL)
    assert dec.d == pytest.approx(0.0, abs=PARAM_TOL)


def test_skewed_construction_recovers_d():
    # build the gram from a basis v_i = u_i + h_i with known h rows;
    # d must come out as the square root of the top eigenvalue of h^T h
    a = np.array([1.5, 2.0, 2.5])
    h = np.array([[1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0]])          # columns h_i: h_1 = (1,1,1)
    W = np.block([[np.eye(3), np.zeros((3, 3))],
                  [h, np.eye(3)]])           # columns: v_1 v_2 v_3, e_j
    gram_w = np.diag(np.concatenate([a ** 2, np.ones(3)]))
    wi = np.linalg.inv(W)
    g = wi.T @ gram_w @ wi
    dec = canonicalize(reduce_to_decoupled(MetricTensor(g)))
    assert dec.d == pytest.approx(math.sqrt(3.0), abs=PARAM_TOL)
    npt.assert_allclose(dec.a, np.sort(a), atol=PARAM_TOL)


def test_reduce_random_spd_invariants():
    # small version of the acceptance sweep over center dimensions
    rng = np.random.default_rng(11)
    for n in (0, 1, 3):
        for _ in range(40):
            g = MetricTensor(_random_spd(3 + n, rng))
            dec = reduce_to_decoupled(g)
            a = np.asarray(dec.a)
            assert np.all(a > 0.0) and np.all(np.diff(a) >= -1e-12)
            assert dec.d >= 0.0
            assert max(dec.invariant_residuals().values()) < 1e-10
            # round trip: rebuild a 6x6 gram from the parameters alone
            back = reduce_to_decoupled(
                MetricTensor(from_parameters(*a, dec.d).gram))
            npt.assert_allclose(back.a, a, atol=PARAM_TOL)
            assert back.d == pytest.approx(dec.d, abs=PARAM_TOL)


def test_not_spd_raises():
    with pytest.raises(NotSPD):
        MetricTensor(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NotSPD):
        MetricTensor(np.array([[1.0, 2.0], [2.0, 1.0]]))   # too small too
    # non-finite entries are NotSPD, never LinAlgError or a valid metric
    for bad in (math.nan, math.inf, -math.inf):
        g = np.eye(4)
        g[1, 2] = g[2, 1] = bad
        with pytest.raises(NotSPD, match="non-finite"):
            MetricTensor(g)
    # symmetrising must not overflow at the top of the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = MetricTensor(np.diag([1e308, 1e308, 1.0]))
    npt.assert_array_equal(g.gram, np.diag([1e308, 1e308, 1.0]))
    # the symmetry test is relative: a skew part far above a tiny Gram's
    # scale is not averaged away, which would break (a, d) -> (la, ld)
    g = 1e-24 * np.eye(6)
    g[0, 1], g[1, 0] = 1e-13, -1e-13
    with pytest.raises(NotSPD, match="not symmetric"):
        MetricTensor(g)


def test_package_exports_resolve():
    # every public name resolves, so a deleted function leaves no export
    import su2vol
    for name in su2vol.__all__:
        assert hasattr(su2vol, name), name
    namespace = {}
    exec("from su2vol import *", namespace)
    assert set(su2vol.__all__) <= set(namespace)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        from_parameters(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameters):
        from_parameters(3.0, 2.0, 1.0, 0.0)
    with pytest.raises(InvalidParameters):
        from_parameters(1.0, 1.0, 1.0, -0.5)
    # non-finite input must not reach the eigensolver (LinAlgError)
    for params in ((1.0, 1.0, 1.0, math.inf), (1.0, 1.0, 1.0, math.nan),
                   (1.0, 1.0, math.inf, 0.0), (math.nan, 1.0, 1.0, 0.0)):
        with pytest.raises(InvalidParameters):
            from_parameters(*params)


def test_canonicalize_sorts_ascending():
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    cyc = [2, 0, 1]
    scrambled = DecoupledMetric(V=m.V[:, cyc], F=m.F[:, cyc], a=m.a[cyc],
                                d=m.d)
    dec = canonicalize(scrambled)
    npt.assert_allclose(dec.a, [1.0, 2.0, 3.0], atol=0.0)
    assert max(dec.invariant_residuals().values()) < 1e-12
    # canonical form is a fixed point
    again = canonicalize(dec)
    npt.assert_allclose(again.V, dec.V, atol=0.0)


def test_canonicalize_undoes_signed_transpositions():
    # an odd relabeling of a valid frame carries a sign flip
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
        swapped = DecoupledMetric(V=-m.V[:, perm], F=-m.F[:, perm],
                                  a=m.a[perm], d=m.d)
        dec = canonicalize(swapped)
        npt.assert_allclose(dec.V, m.V, atol=0.0)
        npt.assert_allclose(dec.F, m.F, atol=0.0)


def test_gram_is_derived_from_the_frame():
    # relabeling the frame and flipping the sign of d leave the metric,
    # and so the derived Gram, unchanged
    rng = np.random.default_rng(15)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    m = from_parameters(1.0, 2.0, 3.0, 0.5, rotation=rot)
    cyc = [2, 0, 1]
    flipped = DecoupledMetric(V=m.V[:, cyc], F=-m.F[:, cyc], a=m.a[cyc],
                              d=-m.d)
    npt.assert_allclose(flipped.gram, m.gram, atol=1e-14)
    npt.assert_allclose(canonicalize(flipped).gram, m.gram, atol=1e-14)
    assert max(canonicalize(flipped).invariant_residuals().values()) < 1e-12


def test_decoupled_metric_rejects_degenerate_parameters():
    # the message names the condition that failed
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    bad = "need finite a_i > 0"
    under, over = r"a_i\^2 underflows", r"a_i\^2 \+ d\^2 overflows"
    for a, d, cause in (((0.0, 1.0, 1.0), 0.0, bad),
                        ((-1.0, 1.0, 1.0), 0.0, bad),
                        ((math.nan, 1.0, 1.0), 0.0, bad),
                        ((1.0, 1.0, 1.0), math.inf, bad),
                        ((1.0, 1.0, 1.0), math.nan, bad),
                        ((1e-170, 1.0, 1.0), 0.0, under),
                        ((1e-300, 1.0, 1.0), 0.0, under),
                        ((1.0, 1.0, 1e160), 0.0, over),
                        ((1.0, 1.0, 1.0), 1e160, over)):
        with pytest.raises(InvalidParameters, match=cause):
            DecoupledMetric(V=m.V, F=m.F, a=a, d=d)


def test_metric_json_round_trip():
    g = MetricTensor(_random_spd(5, np.random.default_rng(14)))
    m2 = metric_from_flat(json.loads(metric_to_json(g)))
    npt.assert_allclose(m2.gram, g.gram, atol=1e-14)
    with pytest.raises(ValueError):
        metric_from_flat([1.0, 2.0, 3.0])


def test_decoupled_json_fields():
    dec = from_parameters(1.0, 2.0, 3.0, 0.7)
    doc = json.loads(decoupled_to_json(dec))
    npt.assert_allclose(doc["a"], [1.0, 2.0, 3.0], atol=PARAM_TOL)
    assert doc["d"] == pytest.approx(0.7, abs=PARAM_TOL)
    assert np.asarray(doc["basis"]).shape == (6, 6)


def test_extract_milnor_orientation():
    # eigh can hand back a reflection; the triple must still close
    g3 = np.diag([9.0, 1.0, 4.0])
    U, a = extract_milnor_su2(g3)
    npt.assert_allclose(a, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)


def test_rotation_invariance_of_parameters():
    # an orthogonal change of the center coordinates is an isometry
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = from_parameters(1.0, 2.0, 3.0, 1.3)
    rot = np.block([[np.eye(3), np.zeros((3, 3))],
                    [np.zeros((3, 3)), q]])
    g2 = MetricTensor(rot.T @ base.gram @ rot)
    dec = canonicalize(reduce_to_decoupled(g2))
    npt.assert_allclose(dec.a, [1.0, 2.0, 3.0], atol=PARAM_TOL)
    assert dec.d == pytest.approx(1.3, abs=PARAM_TOL)
