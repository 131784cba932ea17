import math
import os
import subprocess
import sys
import threading
import time
import types
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from su2vol import balls
from su2vol.algebra import (
    AlgebraElement, GroupElement, angle_axis, exp_group, g0_distance_between,
    mul, reference_distance,
)
from su2vol.balls import (
    ALPHA, FOUR_PI, SQRT8, SWEEP_COLUMNS, TWO_PI, OutOfRange,
    _certified_bounds, _clopper_pearson, _column_norm, _invert_theta_mass,
    _lambda_max, _speed_floor, _theta_mass, ball_volume,
    distance_bracket, default_sweep_grid, sweep, word_upper_bound,
)
from su2vol.frames import (ControlPath, PathSegment, chart_angles,
                           commutator_identity, euler_quat, path_length,
                           segment_product)
from su2vol.metrics import MetricTensor, from_parameters, reduce_to_decoupled
from su2vol.volumes import (
    C_OUTER, EstimatorInputs, Side, containment_sets, hexagon_area,
    hexagon_area_truncated, linear_upper, m_rho, vbar_g,
)
from su2vol.cli import main as cli_main
from oracles import ball_volume_isotropic

WORD_TOL = 1e-10


def _endpoint(m, rows):
    """Exact product of segment exponentials in the metric's frame: one
    exp_group and one mul per (duration, alpha, beta) row."""
    U = m.u_columns()
    out = exp_group(AlgebraElement.zero())
    for duration, alpha, beta in rows:
        alpha, beta = np.asarray(alpha), np.asarray(beta)
        coeffs = U @ alpha + m.F @ (m.d * alpha + beta)
        out = mul(out, exp_group(AlgebraElement(duration * coeffs)))
    return out


def _word_cost_clipped(a, i, phi):
    """_axis_word_cost written with np.clip and one np.where per pair: per
    pair, the fewest repeats n_rep whose largest turn f(s_cap, t) reaches
    |phi|, the A-turn s with f(s, t) = |phi| / n_rep, and the price
    n_rep (2 a_A s + 3 a_B t)."""
    phi = np.abs(np.asarray(phi, dtype=float))
    j, k = (i + 1) % 3, (i + 2) % 3
    best = np.full(phi.shape, np.inf)
    for A, B in ((j, k), (k, j)):
        ca, cb = 2.0 * a[A], 3.0 * a[B]
        s_cap = np.clip(np.sqrt(SQRT8 * phi * cb / ca), 0.0, math.pi)
        t = np.clip(np.sqrt(SQRT8 * phi * ca / cb), 0.0, 0.5 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            reach, _ = commutator_identity(s_cap, t)
            n_rep = np.clip(np.ceil(phi / reach), 1.0, None)
            ratio = np.sin(phi / n_rep / 4.0) / np.sin(0.5 * t)
        s = 2.0 * np.arcsin(np.clip(ratio, 0.0, 1.0))
        cost = n_rep * (ca * s + cb * t)
        best = np.minimum(best, np.where(phi > 0.0, cost, 0.0))
    return best


def _bounds_8_masks(a, d, xs, ys):
    """The (n, 3) formulation of _certified_bounds: each of the eight
    chart-ordered candidates selects direct or word costs with np.where
    and reduces along axis 1."""
    a = np.asarray(a, dtype=float)
    x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
    theta, axis_hat = angle_axis(np.stack(euler_quat(x1, x2, x3)))
    axis_hat = axis_hat.T
    y_norm = np.linalg.norm(ys, axis=1)
    lower = _speed_floor(float(np.min(a)), d, theta, y_norm)

    upper = np.full(xs.shape[0], np.inf)
    for branch in (theta, theta - FOUR_PI):
        alpha = branch[:, None] * axis_hat
        beta = ys - d * alpha
        cost = np.sqrt(np.sum((a[None, :] * alpha) ** 2, axis=1)
                       + np.sum(beta ** 2, axis=1))
        upper = np.minimum(upper, cost)

    # every |x_i| <= 2 pi, so each angle is its own minimal representative
    direct = np.abs(xs) * a[None, :]
    word = np.stack([_word_cost_clipped(a, i, xs[:, i]) for i in range(3)],
                    axis=1)
    for mask in range(8):
        sel = np.array([(mask >> i) & 1 for i in range(3)], dtype=bool)
        rot_cost = np.sum(np.where(sel[None, :], direct, word), axis=1)
        drift = d * xs * sel[None, :]
        trans = np.linalg.norm(ys - drift, axis=1)
        upper = np.minimum(upper, rot_cost + trans)
    return lower, upper


def _rho(m, r, eta=0.1):
    _, rho = m_rho(EstimatorInputs(r, tuple(np.asarray(m.a)), m.d, eta))
    return rho


def test_word_zero_target_is_empty():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    path = word_upper_bound(m, 2, 0.0, 0.1)
    assert path.segments == []


def test_word_reaches_target_at_full_budget():
    rng = np.random.default_rng(50)
    for a, d in [((1.0, 1.0, 1.0), 0.0), ((0.5, 1.0, 2.0), 1.5),
                 ((1.0, 10.0, 100.0), 100.0)]:
        m = from_parameters(*a, d)
        for r in (0.05, 0.3):
            rho = _rho(m, r)
            for axis in range(3):
                for sgn in (1.0, -1.0):
                    sigma = sgn * rho[axis]
                    path = word_upper_bound(m, axis, sigma, r)
                    got = _endpoint(m, path.segments)
                    target = np.zeros(6)
                    target[axis] = sigma
                    want = exp_group(AlgebraElement(target))
                    res = max(np.max(np.abs(got.su2 - want.su2)),
                              np.max(np.abs(got.vec - want.vec)))
                    assert res < WORD_TOL


def test_word_partial_budget_and_sign():
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    rho = _rho(m, 0.1)
    for frac in (0.1, 0.7):
        sigma = -frac * rho[1]
        path = word_upper_bound(m, 1, sigma, 0.1)
        got = _endpoint(m, path.segments)
        want = exp_group(AlgebraElement(sigma * np.eye(6)[1]))
        assert np.max(np.abs(got.su2 - want.su2)) < WORD_TOL
        assert np.max(np.abs(got.vec)) < WORD_TOL


def test_word_rejects_beyond_budget():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    rho = _rho(m, 0.1)
    with pytest.raises(OutOfRange):
        word_upper_bound(m, 2, 1.5 * rho[2], 0.1)
    # with caps of 200 the words would repeat more than MAX_WORD_REPEATS
    # times: rejected at once instead of built
    rho = _rho(m, 200.0, eta=200.0)
    with pytest.raises(OutOfRange):
        word_upper_bound(m, 2, rho[2], 200.0, eta=200.0)


def test_word_rejects_bad_axis():
    # -1 would wrap to axis 2 and 3 would index past the caps
    m = from_parameters(1.0, 2.0, 3.0, 0.5)
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="axis"):
            word_upper_bound(m, axis, 1e-4, 0.1)


def test_word_length_scales_with_radius():
    # the whole point of the word: target angle rho_i at path cost O(r)
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for r in (0.1, 0.01):
        rho = _rho(m, r)
        path = word_upper_bound(m, 2, rho[2], r)
        mprime = path_length(m, path) / r
        assert mprime < 100.0


# (a, d, r) -> segment count and length of word_upper_bound(m, 2, rho_3,
# r), then of the distance_bracket(budget=0) witness to _shape_target
_WORD_SHAPES = [
    (((0.1, 1.0, 10.0), 0.0, 0.01), (138, 0.8397181884229503),
     (2, 0.010818049778033011)),
    (((1.0, 1.0, 1.0), 100.0, 0.1), (138, 8.396672869743048),
     (23, 2.3737467508830044)),
    (((0.1, 0.1, 10.0), 100.0, 1.0), (138, 48.34734284498015),
     (72, 58.63340342219444)),
]


def _shape_target(a, r, rho3):
    return exp_group(AlgebraElement(np.array(
        [0.3 * r / a[0], -0.2 * r / a[1], rho3, 0.1 * r, 0.0, -0.1 * r])))


@pytest.mark.parametrize("cell, word, witness", _WORD_SHAPES)
def test_word_and_witness_shapes_are_pinned(cell, word, witness):
    # the exact words the constructions build: a refactor of the word
    # builder must reproduce both the segment count and the length
    a, d, r = cell
    m = from_parameters(*a, d)
    rho = _rho(m, r)
    path = word_upper_bound(m, 2, rho[2], r)
    assert len(path.segments) == word[0]
    assert path_length(m, path) == pytest.approx(word[1], rel=1e-12)
    db = distance_bracket(m, _shape_target(a, r, rho[2]), budget=0)
    assert len(db.witness.segments) == witness[0]
    assert path_length(m, db.witness) == pytest.approx(witness[1],
                                                       rel=1e-12)


def _random_rows(rng, n):
    # durations of either sign, 1e-6 to 5 in size: word amounts go negative
    size = 10.0 ** rng.uniform(-6.0, math.log10(5.0), n)
    sign = rng.choice([-1.0, 1.0], n)
    return [(float(dt), rng.normal(size=3), rng.normal(size=3))
            for dt in sign * size]


def test_segment_product_matches_exp_mul_chain():
    rng = np.random.default_rng(52)
    a = rng.normal(size=(6, 6))
    rotated = reduce_to_decoupled(MetricTensor(a @ a.T / 32.0 + np.eye(6)))
    for m in (from_parameters(0.01, 1.0, 100.0, 1e4), rotated):
        for n in (1, 2, 8, 40):
            for _ in range(25):
                rows = _random_rows(rng, n)
                want = _endpoint(m, rows)
                for form in (rows, [(dt, al.tolist(), be.tolist())
                                    for dt, al, be in rows]):
                    got = segment_product(m, form)
                    npt.assert_allclose(got.q, want.q, rtol=0.0, atol=1e-13)
                    npt.assert_allclose(got.vec, want.vec, rtol=1e-13,
                                        atol=1e-13)
    assert segment_product(rotated, []).q.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_segment_product_rejects_overflowing_rows():
    # the same failures as exp_group(AlgebraElement(...)): math.sin(inf) for
    # a rotation whose norm overflows, a ValueError for non-finite
    # coefficients, so Powell's objective still fails where it failed
    m = from_parameters(0.01, 1.0, 100.0, 1e4)
    zero = [0.0, 0.0, 0.0]
    good = (0.5, [0.1, 0.2, 0.3], [1.0, 0.0, -1.0])
    for bad in ((1.0, [1e300, 0.0, 0.0], zero),
                (10.0, zero, [1e308, 0.0, 0.0]),
                (1.0, [1e305, 0.0, 0.0], zero),
                (1.0, zero, [math.nan, 0.0, 0.0]),
                (math.inf, [1.0, 0.0, 0.0], zero)):
        for rows in ([bad], [good, bad, good]):
            with pytest.raises(ValueError), np.errstate(all="ignore"):
                _endpoint(m, rows)
            with pytest.raises(ValueError):
                segment_product(m, rows)


def test_frame_norm_matches_numpy_formula():
    rng = np.random.default_rng(53)
    for m in (from_parameters(0.01, 1.0, 100.0, 1e4),
              from_parameters(0.5, 1.3, 2.0, 0.7)):
        for _ in range(300):
            alpha = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 3.0)
            beta = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 3.0)
            want = float(np.sqrt(np.sum((m.a * alpha) ** 2)
                                 + np.sum(beta ** 2)))
            for al, be in ((alpha, beta), (alpha.tolist(), beta.tolist())):
                assert m.frame_norm(al, be) == pytest.approx(want, rel=1e-15)


def test_distance_identity():
    m = from_parameters(0.5, 1.0, 2.0, 0.7)
    db = distance_bracket(m, GroupElement(np.eye(2, dtype=complex),
                                          np.zeros(3)))
    assert db.lower == 0.0 and db.upper == 0.0
    assert db.witness.segments == []


def test_distance_tiny_rotation_is_not_identity():
    # only the exact identity gets the empty [0, 0] bracket
    p = exp_group(AlgebraElement(1e-8 * np.eye(6)[0]))
    for m in (from_parameters(1.0, 1.0, 1.0, 0.0),
              from_parameters(0.01, 1.0, 100.0, 1e4)):
        db = distance_bracket(m, p)
        assert 0.0 < db.lower <= db.upper
        end = segment_product(m, db.witness.segments)
        assert g0_distance_between(end, p) <= 1e-6 * (1.0 + db.upper)


def test_distance_pure_translation():
    # d = 0 decouples, so the true distance is exactly |y|, and the speed
    # floor reaches it: no rotation, all the cost is central
    m = from_parameters(0.5, 1.0, 2.0, 0.0)
    y = np.array([1.2, -0.3, 0.4])
    p = GroupElement(np.eye(2, dtype=complex), y)
    db = distance_bracket(m, p)
    norm = float(np.linalg.norm(y))
    assert db.lower == pytest.approx(norm, rel=1e-9)
    assert db.upper == pytest.approx(norm, rel=1e-6)
    assert db.lower <= norm <= db.upper * (1.0 + 1e-12)


def test_distance_axis_rotation_isotropic():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for t in (0.3, 1.0, 2.5):
        p = exp_group(AlgebraElement(t * np.eye(6)[0]))
        db = distance_bracket(m, p)
        assert db.upper - t < 1e-4
        assert db.lower <= t * (1.0 + 1e-12)
        assert db.upper >= t * (1.0 - 1e-12)


def test_distance_witness_reaches_point():
    rng = np.random.default_rng(51)
    m = from_parameters(0.7, 1.3, 2.1, 1.7)
    for _ in range(5):
        p = exp_group(AlgebraElement(rng.normal(size=6) * 0.8))
        db = distance_bracket(m, p)
        assert db.lower <= db.upper
        got = _endpoint(m, db.witness.segments)
        assert np.max(np.abs(got.su2 - p.su2)) < 1e-7
        assert np.max(np.abs(got.vec - p.vec)) < 1e-7
        # the witness length is what the upper bound reports
        assert path_length(m, db.witness) == pytest.approx(db.upper,
                                                           rel=1e-9)


def test_distance_budget_monotone():
    m = from_parameters(0.5, 1.0, 4.0, 2.0)
    p = exp_group(AlgebraElement(np.array([0.4, -0.2, 0.6, 0.3, 0.0,
                                           -0.5])))
    uppers = [distance_bracket(m, p, budget=b).upper for b in (0, 1, 3)]
    assert uppers[1] <= uppers[0] * (1.0 + 1e-12)
    assert uppers[2] <= uppers[1] * (1.0 + 1e-12)


def _rotated_metric(rng):
    # the distance workload's metrics: rotated frames, nonzero tilt
    a = rng.normal(size=(6, 6))
    return reduce_to_decoupled(MetricTensor(a @ a.T / 32.0 + np.eye(6)))


def _uncached_objective(m, p, z, pen):
    path = ControlPath([PathSegment(0.125, row[:3], row[3:])
                        for row in z.reshape(8, 6)])
    length = path_length(m, path)
    return length + pen * g0_distance_between(
        segment_product(m, path.segments), p)


def test_powell_objective_cache_is_exact(monkeypatch):
    # a Powell-like input sequence: every value equals the uncached length
    # plus penalty, and only slots whose bytes changed are recomputed
    rng = np.random.default_rng(55)
    m = _rotated_metric(rng)
    p = exp_group(AlgebraElement(0.8 * rng.normal(size=6)))
    pen = 10.0 * _lambda_max(float(np.max(m.a)), m.d) + 10.0
    recomputed = []
    factor = balls.segment_factor

    def counting(d, UF, duration, alpha, beta):
        recomputed.append(alpha + beta)
        return factor(d, UF, duration, alpha, beta)

    monkeypatch.setattr(balls, "segment_factor", counting)
    objective = balls._powell_objective(m, p, 8, pen)

    z0 = rng.normal(size=48)
    z0[9] = 0.0
    steps = [(z0, 8)]
    z = z0.copy()
    for k in (0, 7, 13, 47):
        z = z.copy()
        z[k] += 0.3
        steps.append((z, 1))
    steps.append((z0, 4))
    for zi, changed in steps:
        recomputed.clear()
        assert objective(zi) == _uncached_objective(m, p, zi, pen)
        assert len(recomputed) == changed
    # -0.0 and +0.0 are different bytes, so neither hits the other's entry
    for zero in (-0.0, 0.0):
        zi = z0.copy()
        zi[9] = zero
        recomputed.clear()
        assert objective(zi) == _uncached_objective(m, p, zi, pen)
        assert [math.copysign(1.0, row[3]) for row in recomputed] == [
            math.copysign(1.0, zero)]

    bad = z0.copy()
    bad[20] = math.nan
    overflow = z0.copy()
    overflow[42:45] = (1e300, 0.0, 0.0)
    for zi in (bad, overflow):
        with pytest.raises(ValueError):
            _uncached_objective(m, p, zi, pen)
        with pytest.raises(ValueError):
            objective(zi)
        assert objective(z0) == _uncached_objective(m, p, z0, pen)


def test_distance_powell_programming_errors_propagate(monkeypatch):
    # only the objective's documented failures skip a Powell run
    def broken(*args):
        raise TypeError("broken factor")

    monkeypatch.setattr(balls, "segment_factor", broken)
    m = from_parameters(0.5, 1.0, 4.0, 2.0)
    p = exp_group(AlgebraElement(np.array([0.4, -0.2, 0.6, 0.3, 0.0,
                                           -0.5])))
    assert distance_bracket(m, p, budget=0).upper > 0.0
    with pytest.raises(TypeError):
        distance_bracket(m, p, budget=1)


# distance_bracket(budget=2) on the distance workload's recipe, rng seed
# 13: float.hex of lower, upper, each witness segment (duration, alpha,
# beta) and the final objective value of each of the 10 Powell runs.  On
# these inputs Powell does not beat the budget-0 witness, so the Powell
# values are what catches a drifting trajectory.
_BUDGET2_PINS = [
    ("0x1.a12463559572cp+0", "0x1.e041bc233b154p+0",
     [("0x1.0000000000000p+0",
       ("0x1.8cb4fe2973af5p-5", "-0x1.cb43573b7b85fp-1",
        "0x1.b8015feea1292p-1"),
       ("0x1.0ccebf9b7a30bp-1", "-0x1.cb5c4dcce35ccp-1",
        "-0x1.5a4e4ae95fea3p-1")),
      ("0x1.0000000000000p+0",
       ("-0x1.105213263f31fp-51", "-0x1.d6134f5a1d8e9p-52",
        "-0x1.e0bc550e4c121p-55"),
       ("0x1.3f06ba8cc6debp-53", "0x1.135958aebe78ap-53",
        "0x1.1997e27d482d5p-56"))],
     ["0x1.209534d8c1a8fp+5", "0x1.d37c5fb7b92cfp+6", "0x1.2c0aa4ec814ccp+1",
      "0x1.5016ce080b986p+1", "0x1.4f072e29862a3p+1", "0x1.20942e1b057e9p+5",
      "0x1.b19beabcdb6b5p+6", "0x1.2c07608a3923dp+1", "0x1.5012bdeb5ed4bp+1",
      "0x1.4f035f9220e3dp+1"]),
    ("0x1.153eeb06df9b5p+1", "0x1.1cd2539e1cd17p+1",
     [("0x1.0000000000000p+0",
       ("-0x1.26a852b312890p-1", "0x1.fd5d4b3107729p-3",
        "0x1.601c7962c5af0p-3"),
       ("-0x1.6d1c6a2dac97ep+0", "-0x1.55268a6f5db86p+0",
        "0x1.ac81dbf0a6704p-1")),
      ("0x1.0000000000000p+0",
       ("0x1.74a2e839be009p-53", "-0x1.bc3decadcd300p-59",
        "0x1.698230d994a7dp-55"),
       ("-0x1.0a545cc8fc916p-55", "0x1.3d81da317cc9ep-61",
        "-0x1.026056217748ep-57"))],
     ["0x1.0302eced3bf8ep+6", "0x1.17fec7d0720edp+7", "0x1.6b84922e53815p+1",
      "0x1.6883a41f51ac3p+1", "0x1.799bc9cb72c3bp+1", "0x1.0302e2877e22ap+6",
      "0x1.0b483acdeeb26p+7", "0x1.6b8461bb051b9p+1", "0x1.6883653954a12p+1",
      "0x1.799b9a99b686ep+1"]),
    ("0x1.20c1085668913p+1", "0x1.4634fbd27935ap+1",
     [("0x1.0000000000000p+0",
       ("0x1.12a983d3a972ap-1", "-0x1.ec964309d6ab5p-1",
        "0x1.e4d31d5a929dfp+0"),
       ("-0x1.74ffdb463f568p-3", "0x1.b474ff0f81974p-1",
        "0x1.0be6d75c38a00p-5")),
      ("0x1.0000000000000p+0",
       ("0x1.45adc44660ff2p-53", "0x1.2b98ed24f9bf6p-55",
        "0x1.d525c5cf9ec9ep-53"),
       ("-0x1.a5f74b04381f6p-57", "-0x1.ad95e2963138cp-58",
        "-0x1.505986f510ef0p-55"))],
     ["0x1.63577393c8103p+4", "0x1.8f3ddf543604bp+6", "0x1.9d9843473d843p+1",
      "0x1.b4a6b92a813f4p+1", "0x1.abdc1dda9e57ap+1", "0x1.63565c212c21bp+4",
      "0x1.7f021cf2f6737p+6", "0x1.9d98066ce2f21p+1", "0x1.b4a676ddb40b7p+1",
      "0x1.abdbd0b9b085ep+1"]),
]


def test_distance_budget2_brackets_are_pinned(monkeypatch):
    finals = []
    minimize = balls.optimize.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        finals.append(float(res.fun).hex())
        return res

    monkeypatch.setattr(balls, "optimize",
                        types.SimpleNamespace(minimize=recording))
    rng = np.random.default_rng(13)
    for lower, upper, witness, powell in _BUDGET2_PINS:
        m = _rotated_metric(rng)
        p = exp_group(AlgebraElement(0.8 * rng.normal(size=6)))
        finals.clear()
        db = distance_bracket(m, p, budget=2)
        assert (db.lower.hex(), db.upper.hex()) == (lower, upper)
        assert [(float(s.duration).hex(),
                 tuple(float(v).hex() for v in s.alpha),
                 tuple(float(v).hex() for v in s.beta))
                for s in db.witness.segments] == witness
        assert finals == powell


def test_lambda_max_closed_form_matches_eigensolver():
    # per axis the derived Gram is the 2x2 block [[a^2 + d^2, -d], [-d, 1]]
    rng = np.random.default_rng(54)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    for a, d in [((0.1, 0.5, 2.0), 0.0), ((1.0, 1.0, 1.0), 1.0),
                 ((0.3, 1.0, 10.0), 3.0), ((0.5, 0.5, 0.5), 10.0),
                 ((2.0, 3.0, 5.0), 0.7)]:
        for rotation in (None, rot):
            m = from_parameters(*a, d, rotation=rotation)
            want = math.sqrt(np.linalg.eigvalsh(m.gram)[-1])
            assert _lambda_max(max(a), d) == pytest.approx(want, rel=1e-12)
    assert _lambda_max(1.0, 1.0) == (1.0 + math.sqrt(5.0)) / 2.0


def test_extreme_tilt_metrics_build_and_bracket():
    # an explicit 6x6 Gram loses its smallest eigenvalue to cancellation
    # at these tilts; the metric builds and brackets stay two-sided
    p = exp_group(AlgebraElement(
        0.8 * np.random.default_rng(55).normal(size=6)))
    for params in ((0.01, 0.01, 0.01, 1e7), (1.0, 1.0, 1.0, 1e8)):
        m = from_parameters(*params)
        for b in (distance_bracket(m, p, budget=0),
                  ball_volume(m, 0.1, n=4000, seed=3)):
            assert math.isfinite(b.upper)
            assert 0.0 < b.lower <= b.upper


def test_distance_lower_dominates_spectral_comparison():
    # the speed floor is at least lambda_min times the reference distance
    rng = np.random.default_rng(56)
    for _ in range(16):
        A = rng.normal(size=(6, 6))
        m = reduce_to_decoupled(MetricTensor(A @ A.T / 32.0 + np.eye(6)))
        p = exp_group(AlgebraElement(0.8 * rng.normal(size=6)))
        lam_min = math.sqrt(np.linalg.eigvalsh(m.gram)[0])
        db = distance_bracket(m, p, budget=0)
        assert db.lower >= lam_min * reference_distance(p) * (1.0 - 1e-12)


def test_ball_brackets_exact_isotropic_volume():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for r, n in ((0.5, 60000), (3.0, 60000)):
        exact, _ = ball_volume_isotropic(r)
        vb = ball_volume(m, r, n, seed=7)
        assert vb.lower <= exact <= vb.upper
        assert vb.lower > 0.0


def test_ball_flat_limit_small_radius():
    # r far below every length scale: the euclidean 6-ball shows through
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    r = 0.1
    vb = ball_volume(m, r, 200000, seed=8)
    flat = math.pi ** 3 * r ** 6 / 6.0
    assert vb.lower <= flat * 1.01
    assert vb.upper >= flat * 0.99
    assert vb.upper / flat < 1.15 and vb.lower / flat > 0.85


def test_ball_mode_selection_and_flags():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    small = ball_volume(m, 0.05, 20000, seed=9)
    assert small.mode == "hexagon"
    big = ball_volume(m, 2.0, 20000, seed=9)
    assert big.mode == "fallback"
    for vb in (small, big):
        assert vb.lower <= vb.upper
        assert vb.ambiguous_mass >= 0.0
        assert vb.n_samples == 20000


def test_ball_deterministic_same_seed():
    m = from_parameters(0.5, 1.0, 2.0, 1.0)
    v1 = ball_volume(m, 0.04, 30000, seed=12)
    v2 = ball_volume(m, 0.04, 30000, seed=12)
    assert v1 == v2
    v3 = ball_volume(m, 0.04, 30000, seed=13)
    assert (v3.lower, v3.upper) != (v1.lower, v1.upper)


def test_ball_scaling_covariance_flat_factor():
    # with d = 0, scaling (a, r) -> (k a, k r) multiplies the volume by
    # exactly k^3: rotations are unchanged, translations rescale
    m1 = from_parameters(1.0, 2.0, 3.0, 0.0)
    m2 = from_parameters(7.0, 14.0, 21.0, 0.0)
    r, k = 0.12, 7.0
    v1 = ball_volume(m1, r, 150000, seed=21)
    v2 = ball_volume(m2, k * r, 150000, seed=22)
    assert v2.lower / k ** 3 <= v1.upper * 1.02
    assert v1.lower <= v2.upper / k ** 3 * 1.02
    # tilted cells: (a, d, r) -> (lam a, lam d, lam r) is the same scaling
    for a, d, r, mode in (((0.1, 1.0, 10.0), 1.0, 0.05, "hexagon"),
                          ((1.0, 2.0, 3.0), 100.0, 0.1, "hexagon"),
                          ((0.1, 1.0, 10.0), 1.0, 0.5, "fallback")):
        base = ball_volume(from_parameters(*a, d), r, 20000, seed=23)
        want = vbar_g(EstimatorInputs(r, a, d))
        for lam in (0.125, 10.0):
            scaled = [lam * x for x in a]
            vb = ball_volume(from_parameters(*scaled, lam * d), lam * r,
                             20000, seed=24)
            assert base.mode == vb.mode == mode
            lam3 = lam ** 3
            assert max(base.lower, vb.lower / lam3) <= min(base.upper,
                                                          vb.upper / lam3)
            got = vbar_g(EstimatorInputs(lam * r, scaled, lam * d)) / lam3
            assert got == pytest.approx(want, rel=1e-14)


def test_ball_positive_certified_lower_everywhere():
    # the deterministic core keeps the lower bound positive even where
    # the MC interval would clamp to zero
    for a, d, r in [((1.0, 1.0, 100.0), 1e4, 0.01),
                    ((0.01, 0.01, 0.01), 100.0, 100.0),
                    ((0.1, 1.0, 10.0), 0.0, 0.3)]:
        m = from_parameters(*a, d)
        vb = ball_volume(m, r, 4000, seed=3)
        assert vb.lower > 0.0
        assert vb.upper >= vb.lower


def test_ball_rejects_bad_radius():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ball_volume(m, 0.0, 100)


def test_inner_outer_consistency_single_cell():
    # chart mass of the truncated inner set stays below the ball at the
    # inner multiple; the ball at r stays below outer mass plus ambiguity
    a, d, r, eta, iota = (1.0, 1.0, 1.0), 0.0, 0.05, 0.1, math.pi / 4
    m = from_parameters(*a, d)
    inp = EstimatorInputs(r, a, d, eta)
    inner, _ = containment_sets(inp, Side.INNER)
    inner_mass = float(np.prod([hexagon_area_truncated(h, iota)
                                for h in inner]))
    outer, _ = containment_sets(inp, Side.OUTER)
    outer_mass = float(np.prod([hexagon_area(h) for h in outer]))
    vb_in = ball_volume(m, 6.0 * r, 60000, seed=31)
    vb_r = ball_volume(m, r, 60000, seed=32)
    assert inner_mass <= vb_in.upper * (1.0 + 1e-9)
    assert vb_r.upper <= outer_mass + vb_r.ambiguous_mass + 1e-12


def test_sweep_small_grid_rows_and_summary():
    grid = [{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.1},
            {"a": (0.1, 1.0, 10.0), "d": 1.0, "r": 0.01},
            {"a": (1.0, 2.0, 4.0), "d": 100.0, "r": 1.0}]
    out = sweep(grid, samples=3000, seed=5)
    rows, summary = out["rows"], out["summary"]
    assert len(rows) == 3
    keys = list(rows[0].keys())
    assert keys[:7] == ["idx", "a1", "a2", "a3", "d", "r", "samples"]
    assert keys[-1] == "flags"
    for row in rows:
        assert row["lower_r"] > 0.0
        assert row["vbar_ratio"] <= summary["calc_bound"] * (1.0 + 1e-9)
        assert row["doubling_ratio"] > 0.0
    assert summary["cells"] == 3
    assert summary["c_emp"] > 0.0
    assert summary["sup_doubling"] <= summary["envelope_bound"]
    assert summary["doubling_ok"]


def test_sweep_error_rows_do_not_abort():
    grid = [{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.1},
            {"a": (2.0, 1.0, 0.5), "d": 0.0, "r": 0.1}]   # not ascending
    out = sweep(grid, samples=2000, seed=6)
    rows = out["rows"]
    assert len(rows) == 2
    assert rows[0]["flags"] == "" or "error" not in rows[0]["flags"]
    assert "error:InvalidParameters" in rows[1]["flags"]
    assert math.isnan(rows[1]["vbar_r"])
    # the clean cell still produced numbers
    assert rows[0]["upper_r"] > 0.0
    for row in rows:
        assert list(row) == list(SWEEP_COLUMNS)


def test_sweep_outer_regime_gate_is_not_an_error():
    # r > eta * a2: the outer containment sets do not apply, which the
    # cell records as a flag and a NaN outer mass, not as an error
    grid = [{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.5}]
    row = sweep(grid, samples=1000, seed=3)["rows"][0]
    assert "outer_regime_gate" in row["flags"].split(";")
    assert "error:" not in row["flags"]
    assert math.isnan(row["outer_mass"])
    assert row["upper_r"] > 0.0


def test_sweep_deterministic():
    grid = [{"a": (1.0, 2.0, 4.0), "d": 1.0, "r": 0.05}]
    o1 = sweep(grid, samples=2500, seed=9)
    o2 = sweep(grid, samples=2500, seed=9)
    assert o1 == o2


def _fixed_pool_size(monkeypatch, n):
    monkeypatch.setattr(balls, "_pool_size", lambda n_cells: n)


def test_sweep_rows_do_not_depend_on_pool_size(monkeypatch, tmp_path):
    grid = [{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.05},   # hexagon mode
            {"a": (0.01, 1.0, 1.0), "d": 0.0, "r": 0.1},   # fallback mode
            {"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.5},    # outer regime gate
            {"a": (2.0, 1.0, 0.5), "d": 0.0, "r": 0.1}]    # not ascending
    cfg = tmp_path / "s.cfg"
    cfg.write_text("a_grid=1.0\nd_grid=0.0\nr_grid=0.05,0.2,0.5\n"
                   "samples=1500\nseed=23\nformat=json\n")
    runs, reports = {}, {}
    for n in (1, 2):
        _fixed_pool_size(monkeypatch, n)
        runs[n] = sweep(grid, samples=1500, seed=19)
        assert runs[n]["workers"] == n
        out = tmp_path / f"pool-{n}"
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        reports[n] = (rc, {f.name: f.read_bytes() for f in out.iterdir()})
    rows = runs[1]["rows"]
    assert [row["mode_r"] for row in rows[:2]] == ["hexagon", "fallback"]
    assert "outer_regime_gate" not in rows[1]["flags"]
    assert "outer_regime_gate" in rows[2]["flags"].split(";")
    assert "error:InvalidParameters" in rows[3]["flags"]
    # repr compares NaN columns too, which == on the dicts would not
    assert repr(runs[2]["rows"]) == repr(rows)
    assert repr(runs[2]["summary"]) == repr(runs[1]["summary"])
    assert reports[1][0] == reports[2][0] == 0
    assert sorted(reports[1][1]) == ["sweep_report.csv", "sweep_report.json",
                                     "sweep_summary.json"]
    assert reports[2][1] == reports[1][1]


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_leaves_no_child_process(monkeypatch):
    affinity = len(os.sched_getaffinity(0))
    assert balls._pool_size(1) == 1
    assert balls._pool_size(10 ** 6) == affinity
    assert balls._pool_size(0) == 1

    def refuse():
        raise AssertionError("a single chunk or cell forked a worker")

    # a one-chunk ball and a one-cell sweep run in this process
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", refuse)
        ball_volume(from_parameters(1.0, 1.0, 1.0, 0.0), 0.1, balls.CHUNK,
                    seed=4)
        one = sweep([{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.1}],
                    samples=1000, seed=4)
    assert one["workers"] == 1
    # a pooled ball, and a pooled sweep with an error cell, reap every
    # child before returning
    _fixed_pool_size(monkeypatch, 2)
    ball_volume(from_parameters(1.0, 1.0, 1.0, 0.0), 0.1,
                3 * balls.CHUNK, seed=4)
    _assert_no_child_process()
    out = sweep([{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.1},
                 {"a": (2.0, 1.0, 0.5), "d": 0.0, "r": 0.1}],
                samples=1000, seed=4)
    assert out["workers"] == 2
    assert "error:InvalidParameters" in out["rows"][1]["flags"]
    _assert_no_child_process()


class _ShareFailure(Exception):
    pass


def test_failing_share_is_reraised_and_leaves_no_child(monkeypatch):
    parent = os.getpid()
    bounds = balls._certified_bounds

    def fails_in_worker(*args):
        if os.getpid() != parent:
            raise _ShareFailure("a chunk failed in a forked worker")
        return bounds(*args)

    # a chunk that raises in a child raises its type here
    _fixed_pool_size(monkeypatch, 2)
    monkeypatch.setattr(balls, "_certified_bounds", fails_in_worker)
    with pytest.raises(_ShareFailure):
        ball_volume(from_parameters(1.0, 1.0, 1.0, 0.0), 0.5,
                    2 * balls.CHUNK, seed=1)
    _assert_no_child_process()

    # this process's own share raising kills the children, which would
    # otherwise sleep for a minute, before the error propagates
    def fails_here(item):
        if item == 0:
            raise _ShareFailure("this process's share failed")
        time.sleep(60.0)

    start = time.monotonic()
    with pytest.raises(_ShareFailure):
        balls._fork_map(fails_here, [0, 1, 2], 3)
    assert time.monotonic() - start < 30.0
    _assert_no_child_process()

    # a child that exits without a reply is a ChildProcessError
    with pytest.raises(ChildProcessError, match="status 3"):
        balls._fork_map(lambda item: os._exit(3) if item else item,
                        [0, 1], 2)
    _assert_no_child_process()


def test_pool_size_is_one_in_a_worker_and_beside_a_thread():
    affinity = len(os.sched_getaffinity(0))
    assert balls._fork_map(lambda item: balls._pool_size(10 ** 6),
                           [0, 1], 2) == [affinity, 1]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert balls._pool_size(10 ** 6) == 1
    finally:
        release.set()
        thread.join()
    assert balls._pool_size(10 ** 6) == affinity


def test_default_grid_shape():
    grid = default_sweep_grid()
    assert len(grid) == 700
    for cell in grid[:20]:
        a = cell["a"]
        assert a[0] <= a[1] <= a[2]
        assert cell["r"] > 0.0 and cell["d"] >= 0.0


def test_mdd_empirical_isotropic():
    # certified distances over the truncated inner set stay within a
    # small multiple of r on the benchmark cell
    grid = [{"a": (1.0, 1.0, 1.0), "d": 0.0, "r": 0.1}]
    out = sweep(grid, samples=2000, seed=11)
    mdd = out["rows"][0]["mdd_emp"]
    assert math.isfinite(mdd)
    assert mdd <= 6.0


def _bounds_inputs(rng, n):
    """Chart angles from 1e-9 to 2 pi in size, central points from 1e-3 to
    1e2, and edge rows: x = 0, theta = 2 pi (x1 = 2 pi) and |x_i| = 2 pi
    on each axis, with and without a central part."""
    xs = rng.uniform(-TWO_PI, TWO_PI, (n, 3)) * 10.0 ** rng.uniform(
        -9.0, 0.0, (n, 1))
    ys = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 2.0, (n, 1))
    edges = [[0.0, 0.0, 0.0], [TWO_PI, 0.0, 0.0], [0.0, TWO_PI, 0.0],
             [0.0, 0.0, TWO_PI], [-TWO_PI, 0.0, 0.0], [0.0, -TWO_PI, 0.0],
             [TWO_PI, -TWO_PI, TWO_PI], [-TWO_PI, TWO_PI, -TWO_PI]]
    for row, x in enumerate(edges):
        xs[2 * row:2 * row + 2] = x
        ys[2 * row] = 0.0
    return xs, ys


def test_certified_bounds_match_8_mask_formulation():
    # the column form adds in numpy's axis-1 order, so lower and upper
    # equal the (n, 3) formulation bit for bit
    rng = np.random.default_rng(58)
    for trial in range(24):
        a = np.sort(10.0 ** rng.uniform(-2.0, 2.0, 3))
        if trial % 6 == 0:
            a = np.array([0.01, 1.0, 100.0])
        d = (0.0, 1.0, 1e4)[trial % 3]
        xs, ys = _bounds_inputs(rng, 2000)
        want_lo, want_up = _bounds_8_masks(a, d, xs, ys)
        got_lo, got_up = _certified_bounds(a, d, xs, ys)
        npt.assert_array_equal(got_lo, want_lo)
        npt.assert_array_equal(got_up, want_up)
    assert np.all(np.isfinite(got_up)) and np.all(got_lo <= got_up)


def test_certified_bounds_gate_is_exact():
    # each radius is a row's ungated upper, so rows sit exactly at r; the
    # gate may only raise uppers that are already above r
    rng = np.random.default_rng(61)
    a = np.array([0.1, 1.0, 10.0])
    raised = 0
    for d in (0.0, 1.0, 1e4):
        xs, ys = _bounds_inputs(rng, 4000)
        lo_all, up_all = _certified_bounds(a, d, xs, ys)
        for r in np.quantile(up_all, np.linspace(0.01, 0.99, 25),
                             method="lower").tolist():
            lo, up = _certified_bounds(a, d, xs, ys, r)
            npt.assert_array_equal(lo, lo_all)
            npt.assert_array_equal(up <= r, up_all <= r)
            assert np.all(up >= up_all)
            npt.assert_array_equal(up[up_all <= r], up_all[up_all <= r])
            raised += np.count_nonzero(up > up_all)
    assert raised > 0


def _mode_draws(rng, a, d, r, n, hexagon):
    """n draws of ball_volume's superset at radius r, as (chart angles,
    central coordinates): the enlarged outer hexagon product, or the
    theta-ball of angle min(r / a1, 2 pi) times the linear_upper box."""
    inp = EstimatorInputs(r, tuple(a), d, 0.1)
    if hexagon:
        plus, _ = containment_sets(inp, Side.OUTER, 1.25 * C_OUTER)
        return balls._hex_product_sample(plus, n, rng)
    theta = _invert_theta_mass(rng.random(n) * float(
        _theta_mass(min(r / a[0], TWO_PI))))
    axis = rng.normal(size=(n, 3))
    axis *= (np.sin(0.5 * theta) / np.linalg.norm(axis, axis=1))[:, None]
    xs = np.stack(chart_angles(np.column_stack([np.cos(0.5 * theta), axis])),
                  axis=1)
    half = linear_upper(inp)
    return xs, rng.uniform(-half, half, (n, 3))


def test_verdict_first_counts_match_ungated_rule():
    # ball_volume settles each draw in order of cost: the speed floor at
    # theta = 0, then the floor, then the gated candidates.  Row for row,
    # its verdicts are possible = (lower <= r) and certain = possible and
    # (upper <= r) of the ungated bounds, at radii equal to some rows'
    # lowers and uppers.  The rule "certain = upper <= r, possible =
    # certain or lower <= r" differs only on rows whose ungated bounds
    # contradict each other, upper <= r < lower: at a = (1, 1, 1), d = 0
    # both bounds are the one geodesic length, and the upper often rounds
    # to an ulp or two below the lower
    rng = np.random.default_rng(83)
    settled = contradictions = 0
    for a, r, hexagon in (((1.0, 1.0, 1.0), 0.05, True),
                          ((0.1, 1.0, 10.0), 0.05, True),
                          ((1.0, 1.0, 1.0), 0.5, False),
                          ((0.01, 1.0, 100.0), 1.0, False)):
        a = np.array(a)
        for d in (0.0, 1.0, 1e4):
            xs, ys = _mode_draws(rng, a, d, r, 3000, hexagon)
            lo_all, up_all = _certified_bounds(a, d, xs, ys)
            floor_0 = _speed_floor(a[0], d, 0.0, np.linalg.norm(ys, axis=1))
            assert np.all(floor_0 <= lo_all)
            radii = [r] + np.concatenate([
                np.quantile(b, np.linspace(0.02, 0.98, 7), method="lower")
                for b in (lo_all, up_all)]).tolist()
            for rad in radii:
                near = np.flatnonzero(floor_0 <= rad)
                lo, up = _certified_bounds(a, d, xs[near], ys[near], rad)
                possible = np.zeros(len(xs), bool)
                certain = np.zeros(len(xs), bool)
                possible[near] = lo <= rad
                certain[near] = possible[near] & (up <= rad)
                npt.assert_array_equal(possible, lo_all <= rad)
                npt.assert_array_equal(certain,
                                       (lo_all <= rad) & (up_all <= rad))
                clash = (up_all <= rad) & (lo_all > rad)
                npt.assert_array_equal(certain | clash, up_all <= rad)
                npt.assert_array_equal(possible | clash,
                                       (up_all <= rad) | (lo_all <= rad))
                settled += len(xs) - near.size
                contradictions += np.count_nonzero(clash)
    assert settled > 0 and contradictions > 0


def test_built_witnesses_never_exceed_vectorised_upper():
    # a draw whose vectorised upper is <= r counts as a certain ball hit;
    # distance_bracket builds the same candidates as explicit paths, so
    # its witness is never longer than that bound
    rng = np.random.default_rng(71)
    for _ in range(300):
        a = np.sort(10.0 ** rng.uniform(-1.5, 1.5, 3))
        d = float(rng.choice([0.0, 0.5, 3.0, 30.0]))
        m = from_parameters(*a.tolist(), d)
        x_scale, y_scale = 10.0 ** rng.uniform(
            -2.0, [math.log10(math.pi), math.log10(3.0)])
        x = np.array(chart_angles(np.array(euler_quat(
            *(x_scale * rng.uniform(-1.0, 1.0, 3))))))
        y = y_scale * rng.normal(size=3)
        # from_parameters uses the Pauli triple and the standard central
        # frame, so p has chart angles x and central coordinates y there
        p = GroupElement.from_quat(np.array(euler_quat(*x)), y)
        _, upper = _certified_bounds(a, d, x[None, :], y[None, :])
        assert distance_bracket(m, p, budget=0).upper <= \
            upper[0] * (1.0 + 1e-12)


def test_word_price_brackets_the_built_word():
    # the classifier prices the very word distance_bracket builds: its
    # length L is at most the price C, and C <= 1.5 L since the B-shift
    # |tau| <= t / 2; one ulp of phi does not move the price
    rng = np.random.default_rng(73)
    built = 0
    for _ in range(3000):
        a = 10.0 ** rng.uniform(-2.0, 2.0, 3)
        i = int(rng.integers(3))
        phi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(
            -3.0, math.log10(TWO_PI))
        factors = balls._word_factors_free(a, i, phi)
        if factors is None:
            continue
        built += 1
        length = sum(a[axis] * abs(amount) for axis, amount in factors)
        cost = float(balls._axis_word_cost(a, i, phi))
        assert length <= cost * (1.0 + 1e-12)
        assert cost <= 1.5 * length * (1.0 + 1e-12)
        nudged = float(balls._axis_word_cost(a, i, np.nextafter(phi, 7.0)))
        assert abs(nudged - cost) <= 1e-12 * cost
    assert built > 2900


# (lower, upper, ambiguous_mass) as float.hex, mode and flags at seed 3,
# for draw counts around the 2^14-draw chunk edge: n <= CHUNK reads chunk
# 0's stream alone, the rows above it add the streams of chunks 1 to 12
_BLOCK_PINS = {
    ((1.0, 1.0, 1.0, 0.0), 0.05): [
        (1, '0x1.22424075d2319p-35', '0x1.f150bf684873fp-19', '0x0.0p+0'),
        (16383, '0x1.35cb64e3eb5c4p-24', '0x1.95b2f29b58430p-24',
         '0x0.0p+0'),
        (16384, '0x1.34dd074c78dc7p-24', '0x1.94a27fe8254e9p-24',
         '0x0.0p+0'),
        (16385, '0x1.35c1b447ce900p-24', '0x1.95a64b8ed831ap-24',
         '0x0.0p+0'),
        (32769, '0x1.45954e7247961p-24', '0x1.89714892854f9p-24',
         '0x0.0p+0'),
        (200000, '0x1.5d3b6b3d1d486p-24', '0x1.78bd8324fe61cp-24',
         '0x0.0p+0')],
    ((1.0, 1.0, 1.0, 0.0), 0.5): [
        (1, '0x1.5733b9d773a3dp-9', '0x1.08c4aef0fdf75p-1', '0x0.0p+0'),
        (16383, '0x1.45269c4752534p-4', '0x1.64975d5744236p-4',
         '0x0.0p+0'),
        (16384, '0x1.42982a20333a4p-4', '0x1.61efcbffe751ap-4',
         '0x0.0p+0'),
        (16385, '0x1.42931ad3b3136p-4', '0x1.61ea4b3529a37p-4',
         '0x0.0p+0'),
        (32769, '0x1.489ccafcf3ffdp-4', '0x1.5eca05d407f46p-4',
         '0x0.0p+0'),
        (200000, '0x1.47b319ad5c342p-4', '0x1.5094966ad8c33p-4',
         '0x0.0p+0')],
    ((1.0, 2.0, 3.0, 100.0), 1.0): [
        (1, '0x1.70a90eb88cec0p-12', '0x1.580dbd04169a4p+22',
         '0x1.580dbd03ba700p+22'),
        (16383, '0x1.70a90eb88cec0p-12', '0x1.403d162600b95p+22',
         '0x1.3e7430f16723bp+22'),
        (16384, '0x1.70a90eb88cec0p-12', '0x1.40de9465dc9eep+22',
         '0x1.3f1b3dff253b4p+22'),
        (16385, '0x1.70a90eb88cec0p-12', '0x1.40def161bcee6p+22',
         '0x1.3f1ba1c7922bep+22'),
        (32769, '0x1.70a90eb88cec0p-12', '0x1.4034ef466587ap+22',
         '0x1.3ef31e983ba27p+22'),
        (200000, '0x1.70a90eb88cec0p-12', '0x1.3ed340c7498e1p+22',
         '0x1.3e4e70d79666dp+22')],
}
_BLOCK_MODES = {0.05: ("hexagon", ()), 0.5: ("fallback", ()),
                1.0: ("fallback", ("low_confidence",))}


@pytest.mark.parametrize("cell", sorted(_BLOCK_PINS))
def test_ball_brackets_pinned_across_block_boundaries(cell):
    params, r = cell
    m = from_parameters(*params)
    for n, lower, upper, amb in _BLOCK_PINS[cell]:
        vb = ball_volume(m, r, n, seed=3)
        assert (vb.lower.hex(), vb.upper.hex(),
                vb.ambiguous_mass.hex()) == (lower, upper, amb)
        assert (vb.mode, vb.flags) == _BLOCK_MODES[r]


@pytest.mark.parametrize("workers", [2, 3])
def test_ball_brackets_do_not_depend_on_worker_count(monkeypatch, workers):
    # chunk k draws from its own stream in whichever process runs it, and
    # every chunk is counted once
    runs = {}
    for n_workers in (1, workers):
        _fixed_pool_size(monkeypatch, n_workers)
        runs[n_workers] = [ball_volume(from_parameters(*params), r, n, seed=3)
                           for params, r in sorted(_BLOCK_PINS)
                           for n in (16385, 40000)]
    for (params, r), got, want in zip(
            [cell for cell in sorted(_BLOCK_PINS) for _ in range(2)],
            runs[workers], runs[1]):
        assert ([v.hex() for v in (got.lower, got.upper, got.ambiguous_mass)]
                == [v.hex() for v in (want.lower, want.upper,
                                      want.ambiguous_mass)])
        assert (got.mode, got.flags) == (want.mode, want.flags)
        assert (want.mode, want.flags) == _BLOCK_MODES[r]


def test_distance_tiny_stretch_brackets_without_huge_words():
    # a word about the cheap axis would repeat ~1e79 (a1 = 1e-160) or
    # millions of times (a1 = 1e-12); such words are skipped and the
    # direct chart-ordered path remains
    p = exp_group(AlgebraElement(np.array([0.1, -0.2, 0.3, 0.1, 0.1, 0.1])))
    for a1 in (1e-160, 1e-12):
        m = from_parameters(a1, 1.0, 1.0, 0.0)
        db = distance_bracket(m, p, budget=0)
        assert math.isfinite(db.upper)
        assert 0.0 < db.lower <= db.upper
        end = segment_product(m, db.witness.segments)
        assert g0_distance_between(end, p) <= 1e-6 * (1.0 + db.upper)
        assert path_length(m, db.witness) == pytest.approx(db.upper,
                                                           rel=1e-9)


def test_distance_bracket_rejects_overflowing_translation():
    # a pure translation of 1e155 gives every candidate path length inf;
    # the call names that as a ValueError, without numpy warnings on the way
    m = from_parameters(0.5, 1.0, 2.0, 1.0)

    def shift(s):
        return GroupElement.from_quat(np.array([1.0, 0.0, 0.0, 0.0]),
                                      np.array([s, 0.0, 0.0]))

    db = distance_bracket(m, shift(1.3e154), budget=0)
    assert 0.0 < db.lower <= db.upper < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite length"):
            distance_bracket(m, shift(1e155))


def test_ball_rejects_too_few_samples():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for n in (0, -5):
        with pytest.raises(ValueError):
            ball_volume(m, 0.1, n)


def _rejects_before_drawing(monkeypatch, m, r, match=None):
    # the mass is inf, or below the smallest normal float, before any
    # draw: the call raises at once, without drawing or classifying a
    # sample or emitting an overflow warning
    def drawn(*args, **kwargs):
        raise AssertionError("ball_volume drew before rejecting")

    for name in ("_hex_product_sample", "_invert_theta_mass",
                 "_certified_bounds"):
        monkeypatch.setattr(balls, name, drawn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            ball_volume(m, r, 200000, seed=1)


def test_ball_rejects_non_finite_bracket(monkeypatch):
    # at this tilt the fallback box volume overflows and the upper bound
    # would read NaN
    _rejects_before_drawing(monkeypatch,
                            from_parameters(1.0, 1.0, 1.0, 1e112), 0.1)


def test_ball_rejects_radius_whose_box_overflows(monkeypatch):
    # the core box mass (2 bu)^3 overflows near r = 1.5e103; the bracket
    # is not finite, which is a ValueError and not an OverflowError
    _rejects_before_drawing(monkeypatch,
                            from_parameters(1.0, 1.0, 1.0, 0.0), 1e200)


def test_ball_rejects_radius_whose_bracket_underflows(monkeypatch):
    # the masses scale like r^6: from r = 1e-55 they are 0, so the bracket
    # would read [0, 0], and at r = 1e-200 the degenerate hexagons could
    # not be sampled; r = 1e-50 still gives a normal bracket
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    vb = ball_volume(m, 1e-50, 200, seed=1)
    assert 0.0 < vb.lower <= vb.upper
    for r in (1e-55, 1e-200):
        _rejects_before_drawing(monkeypatch, m, r, "underflows")


def test_ball_contains_isotropic_volume_in_fallback_mode():
    # few samples hit these balls; the bracket must still contain the
    # volume, not collapse onto the core-box mass
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for r, eta in ((0.2, 0.1), (0.1, 0.05)):
        exact, _ = ball_volume_isotropic(r)
        vb = ball_volume(m, r, 10000, seed=1, eta=eta)
        assert vb.mode == "fallback"
        assert vb.lower <= exact <= vb.upper


def test_ball_few_samples_never_zero_width():
    # one or two draws give a wide bracket, not the core-box mass twice
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for r, eta in ((0.1, 0.1), (0.2, 0.1), (0.1, 0.05)):
        exact, _ = ball_volume_isotropic(r)
        for n in (1, 2):
            vb = ball_volume(m, r, n, seed=1, eta=eta)
            assert vb.lower < vb.upper
            assert vb.lower <= exact <= vb.upper


def test_ball_contains_stretched_isotropic_volume():
    for a, r in ((0.01, 0.5), (2.0, 0.3), (100.0, 1.0)):
        exact, _ = ball_volume_isotropic(r, a)
        vb = ball_volume(from_parameters(a, a, a, 0.0), r, 20000, seed=4)
        assert vb.lower <= exact <= vb.upper


def _theta_mass_reference(theta):
    """theta - sin theta as the exactly summed sine series."""
    return math.fsum((-1) ** k * theta ** (2 * k + 3)
                     / math.factorial(2 * k + 3) for k in range(40))


def test_column_norm_equals_numpy_row_norm():
    # the classifier's column norms equal np.linalg.norm(axis=1) of the
    # rows bit for bit, across scales and at overflow
    rng = np.random.default_rng(97)
    for scale in (1e-160, 1e-3, 1.0, 1e4, 1e152, 1e160):
        rows = scale * rng.standard_normal((5000, 3))
        rows[:7] = [[0.0, 0.0, 0.0], [-0.0, 1.0, -1.0], [3.0, 4.0, 12.0],
                    [1e300, 1.0, 0.0], [np.inf, 0.0, 1.0],
                    [0.0, -np.inf, 0.0], [5e-324, 0.0, 5e-324]]
        with np.errstate(over="ignore", under="ignore"):
            got, want = _column_norm(rows.T), np.linalg.norm(rows, axis=1)
        assert got.tobytes() == want.tobytes()


def test_theta_mass_branches_match_elementwise_choice():
    # each element takes only its own branch's work, yet every value equals
    # the one np.where picks from both branches computed everywhere
    def chosen(theta):
        theta = np.asarray(theta, dtype=float)
        t2 = theta * theta
        series = theta * t2 * (1.0 / 6.0 - t2 * (1.0 / 120.0 - t2 * (
            1.0 / 5040.0 - t2 * (1.0 / 362880.0 - t2 * (
                1.0 / 39916800.0 - t2 / 6227020800.0)))))
        return np.where(theta < 0.25, series, theta - np.sin(theta))

    rng = np.random.default_rng(89)
    edges = [0.0, np.nextafter(0.25, 0.0), 0.25, TWO_PI]
    cases = [rng.uniform(0.0, 0.25, 500), rng.uniform(0.25, TWO_PI, 500),
             rng.uniform(0.0, TWO_PI, 1000), np.array(edges),
             rng.uniform(0.0, 1.0, (40, 25)), np.empty(0)]
    cases += edges + [0.1, 3.0, np.array(0.1), np.array(3.0)]
    for theta in cases:
        got, want = _theta_mass(theta), chosen(theta)
        assert np.shape(got) == want.shape
        assert np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == want.tobytes()


def test_theta_inversion_reaches_rounding_floor():
    # near 2 pi the slope 1 - cos theta vanishes and plain Newton stalls
    u = np.concatenate([np.linspace(0.0, 1.0, 401)[1:], [1e-12, 1.0 - 1e-12]])
    for theta_m in (1e-6, 1e-2, 0.2, math.pi, TWO_PI):
        mass_m = _theta_mass_reference(theta_m)
        assert float(_theta_mass(theta_m)) == pytest.approx(mass_m,
                                                            rel=1e-14)
        c = u * float(_theta_mass(theta_m))
        theta = _invert_theta_mass(c)
        assert np.all((theta >= 0.0) & (theta <= theta_m * (1.0 + 1e-15)))
        for t, target in zip(theta.tolist(), c.tolist()):
            assert abs(_theta_mass_reference(t) - target) <= 1e-12 * target


def test_theta_inversion_samples_rotation_angle_law():
    # uniform draws of SU(2) restricted to theta <= theta_m have
    # P(theta <= t) = (t - sin t) / (theta_m - sin theta_m); Kolmogorov-
    # Smirnov at level 1e-3
    rng = np.random.default_rng(59)
    n = 20000
    for theta_m in (1e-3, 1.0, TWO_PI):
        theta = np.sort(_invert_theta_mass(
            rng.random(n) * float(_theta_mass(theta_m))))
        cdf = np.array([_theta_mass_reference(t) for t in theta.tolist()])
        cdf /= _theta_mass_reference(theta_m)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                 np.max(cdf - np.arange(n) / n))
        assert ks < 1.95 / math.sqrt(n)


def test_clopper_pearson_closed_forms():
    half = 0.5 * ALPHA
    for n in (1, 2, 7, 1000, 200000):
        lo, hi = _clopper_pearson(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(-math.expm1(math.log(half) / n),
                                   rel=1e-12)
        lo, hi = _clopper_pearson(n, n)
        assert hi == 1.0
        assert lo == pytest.approx(half ** (1.0 / n), rel=1e-12)
        for k in range(0, n + 1, max(1, n // 5)):
            lo, hi = _clopper_pearson(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0 and lo < hi


def test_import_does_not_load_scipy_stats():
    # importing scipy.stats costs most of a second of set-up time
    code = ("import sys, su2vol; "
            "sys.exit(int(any(m.startswith('scipy.stats') "
            "for m in sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert done.returncode == 0
