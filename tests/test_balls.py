import math

import numpy as np
import numpy.testing as npt
import pytest

from su2vol.algebra import (
    AlgebraElement, GroupElement, exp_group, g0_distance_between, mul,
)
from su2vol.balls import (
    SWEEP_COLUMNS, OutOfRange, ball_volume, distance_bracket,
    default_sweep_grid, sweep, word_upper_bound,
)
from su2vol.frames import path_length, segment_product
from su2vol.metrics import from_parameters
from su2vol.volumes import (
    EstimatorInputs, Side, containment_sets, hexagon_area,
    hexagon_area_truncated, m_rho,
)
from oracles import ball_volume_isotropic

WORD_TOL = 1e-10


def _endpoint(m, path):
    """Exact product of segment exponentials in the metric's frame."""
    U = m.u_columns()
    out = exp_group(AlgebraElement.zero())
    for seg in path.segments:
        coeffs = U @ seg.alpha + m.F @ (m.d * seg.alpha + seg.beta)
        out = mul(out, exp_group(AlgebraElement(seg.duration * coeffs)))
    return out


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
                    got = _endpoint(m, path)
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
        got = _endpoint(m, path)
        want = exp_group(AlgebraElement(sigma * np.eye(6)[1]))
        assert np.max(np.abs(got.su2 - want.su2)) < WORD_TOL
        assert np.max(np.abs(got.vec)) < WORD_TOL


def test_word_rejects_beyond_budget():
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    rho = _rho(m, 0.1)
    with pytest.raises(OutOfRange):
        word_upper_bound(m, 2, 1.5 * rho[2], 0.1)


def test_word_length_scales_with_radius():
    # the whole point of the word: target angle rho_i at path cost O(r)
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    for r in (0.1, 0.01):
        rho = _rho(m, r)
        path = word_upper_bound(m, 2, rho[2], r)
        mprime = path_length(m, path) / r
        assert mprime < 100.0


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
    # d = 0 decouples, so the true distance is exactly |y|; the published
    # lower bound is the spectral floor min(1, a1) |y|
    m = from_parameters(0.5, 1.0, 2.0, 0.0)
    y = np.array([1.2, -0.3, 0.4])
    p = GroupElement(np.eye(2, dtype=complex), y)
    db = distance_bracket(m, p)
    norm = float(np.linalg.norm(y))
    assert db.lower == pytest.approx(0.5 * norm, rel=1e-9)
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
        got = _endpoint(m, db.witness)
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


def test_sweep_deterministic():
    grid = [{"a": (1.0, 2.0, 4.0), "d": 1.0, "r": 0.05}]
    o1 = sweep(grid, samples=2500, seed=9)
    o2 = sweep(grid, samples=2500, seed=9)
    assert o1 == o2


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
