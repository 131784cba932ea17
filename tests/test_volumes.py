import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2vol.volumes import (
    DoublingExpr, EstimatorInputs, Hexagon, InvalidHexagon, MalformedTree,
    OutOfRegime, Side, containment_sets, doubling_calculus, hexagon_area,
    hexagon_area_truncated, hexagon_area_window, hexagon_contains,
    hexagon_planar_area, linear_upper, m_rho, sample_hexagon, section,
    vbar_H, vbar_g, vbar_g_doubling_bound, vbar_g_doubling_tree,
    wrap_area_upper, _pieces,
)
from oracles import hexagon_area_mc, hexagon_membership, hexagon_vertices, \
    polygon_area

FOUR_PI = 4.0 * math.pi

# shapes exercising every regime: slim, fat, slanted, saturating the wrap
SHAPES = [
    (1.0, 1.0, 1.0, 0.0),
    (0.5, 2.0, 0.3, 1.5),
    (2.0, 0.1, 5.0, 3.0),
    (4.0 * math.pi, 4.0 * math.pi, 1.0, 0.0),
    (0.012, 100.0, 100.0, 1.0),
    (3.0, 0.4, 0.2, 0.05),
]


def test_area_frozen_values():
    assert hexagon_area(Hexagon(1, 1, 1, 0)) == pytest.approx(8.0,
                                                              rel=1e-12)
    wide = Hexagon(4.0 * math.pi, 4.0 * math.pi, 1.0, 0.0)
    assert hexagon_area(wide) == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert vbar_H(Hexagon(1, 1, 1, 0)) == pytest.approx(1.0, rel=0.0)


def test_planar_area_formula_vs_shoelace():
    rng = np.random.default_rng(40)
    for _ in range(30):
        mu, nu, xi = rng.uniform(0.05, 4.0, 3)
        d = rng.uniform(0.0, 3.0)
        h = Hexagon(mu, nu, xi, d)
        want = polygon_area(hexagon_vertices(mu, nu, xi, d))
        assert hexagon_planar_area(h) == pytest.approx(want, rel=1e-12)
        # narrow shapes never wrap, so cylinder and plane agree
        if h.x_half_width <= 2.0 * math.pi and \
                h.x_half_width * d <= 100.0:
            pass


def test_area_unwrapped_equals_planar():
    for mu, nu, xi, d in [(0.4, 0.3, 0.2, 0.6), (1.0, 1.0, 1.0, 0.0),
                          (0.05, 0.4, 1.2, 2.0)]:
        h = Hexagon(mu, nu, xi, d)
        assert h.x_half_width < 2.0 * math.pi
        assert hexagon_area(h) == pytest.approx(hexagon_planar_area(h),
                                                rel=1e-12)


def test_area_matches_mc_oracle():
    for i, shape in enumerate(SHAPES):
        exact = hexagon_area(Hexagon(*shape))
        est, sigma = hexagon_area_mc(*shape, n=200000, seed=100 + i)
        assert abs(exact - est) < 3.0 * sigma + 1e-12


def test_window_area_matches_mc_oracle():
    # slanted edges that sweep past several 4 pi periods cross the window
    # edges many times; each crossing is a breakpoint of the integrand
    pulls = []
    for i, shape in enumerate(SHAPES):
        for w in (math.pi / 4.0, 1.0):
            exact = hexagon_area_window(Hexagon(*shape), w)
            est, sigma = hexagon_area_mc(*shape, n=200000, seed=300 + i,
                                         half_window=w)
            pulls.append((shape, w, (exact - est) / sigma))
            assert abs(exact - est) < 4.0 * sigma + 1e-12, pulls[-1]


def test_area_wide_slanted_shapes_vs_mc():
    # saturation splits inside slanted patches are the tricky paths
    rng = np.random.default_rng(41)
    for _ in range(10):
        mu = rng.uniform(2.0, 30.0)
        nu = rng.uniform(2.0, 30.0)
        xi = rng.uniform(0.1, 10.0)
        d = rng.uniform(0.1, 2.0)
        exact = hexagon_area(Hexagon(mu, nu, xi, d))
        est, sigma = hexagon_area_mc(mu, nu, xi, d, n=100000,
                                     seed=rng.integers(1 << 30))
        assert abs(exact - est) < 4.0 * sigma


def test_section_interval():
    h = Hexagon(1.0, 1.0, 1.0, 2.0)       # X = 2, Y = 3, S = 3
    lo, hi = section(h, 0.0)
    assert (lo, hi) == (-1.5, 1.5)
    lo, hi = section(h, np.array([4.0]))   # above the top slab
    assert lo[0] > hi[0]


@given(st.floats(0.05, 10.0), st.floats(0.05, 10.0), st.floats(0.05, 10.0),
       st.floats(0.0, 4.0), st.floats(0.05, 2.0 * math.pi),
       st.floats(0.05, 2.0 * math.pi))
@settings(max_examples=80, deadline=None)
def test_window_area_monotone(mu, nu, xi, d, w1, w2):
    h = Hexagon(mu, nu, xi, d)
    lo, hi = sorted((w1, w2))
    a_lo = hexagon_area_window(h, lo)
    a_hi = hexagon_area_window(h, hi)
    assert a_lo <= a_hi + 1e-12 * max(1.0, a_hi)
    assert a_hi <= hexagon_area(h) + 1e-12 * max(1.0, a_hi)


def test_truncated_below_full_below_wrap_bound():
    for shape in SHAPES:
        h = Hexagon(*shape)
        t = hexagon_area_truncated(h, math.pi / 4.0)
        full = hexagon_area(h)
        assert t <= full + 1e-12 * full
        assert full <= wrap_area_upper(h) + 1e-9


def test_window_validation():
    h = Hexagon(1, 1, 1, 0)
    with pytest.raises(InvalidHexagon):
        hexagon_area_window(h, 0.0)
    with pytest.raises(InvalidHexagon):
        hexagon_area_window(h, 2.0 * math.pi + 0.1)


def test_hexagon_validation():
    with pytest.raises(InvalidHexagon):
        Hexagon(-1.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidHexagon):
        Hexagon(1.0, 1.0, 1.0, float("nan"))


def test_contains_matches_oracle():
    rng = np.random.default_rng(42)
    for shape in SHAPES:
        h = Hexagon(*shape)
        X = min(h.x_half_width, 2.0 * math.pi)
        xs = rng.uniform(-X * 1.2, X * 1.2, 400)
        ys = rng.uniform(-h.y_half_height * 1.2, h.y_half_height * 1.2, 400)
        got = hexagon_contains(h, xs, ys)
        want = np.array([hexagon_membership(*shape, x, y)
                         for x, y in zip(xs, ys)])
        # boundary grazing is allowed to differ; interior points must agree
        disagree = got != want
        assert disagree.mean() < 0.01


def test_sampler_members_and_density():
    rng = np.random.default_rng(43)
    for shape in SHAPES[:4]:
        h = Hexagon(*shape)
        xs, ys = sample_hexagon(h, 5000, rng)
        inside = hexagon_contains(h, xs, ys)
        assert inside.all()
        # mean |y| of the uniform law, cross-checked by rejection sampling
        mx, sx = _mc_mean_abs_y(shape, 200000, 44)
        got = np.abs(ys).mean()
        assert abs(got - mx) < 5.0 * (sx + np.abs(ys).std() / math.sqrt(
            len(ys)))


def _mc_mean_abs_y(shape, n, seed):
    mu, nu, xi, d = shape
    rng = np.random.default_rng(seed)
    X = min(mu + nu, 2.0 * math.pi)
    Y = d * nu + xi
    xs = rng.uniform(-X, X, n)
    ys = rng.uniform(-Y, Y, n)
    keep = np.array([hexagon_membership(mu, nu, xi, d, x, y)
                     for x, y in zip(xs, ys)])
    vals = np.abs(ys[keep])
    return vals.mean(), vals.std() / math.sqrt(max(keep.sum(), 1))


def test_sampler_degenerate():
    with pytest.raises(InvalidHexagon):
        sample_hexagon(Hexagon(0.0, 0.0, 0.0, 1.0), 10,
                       np.random.default_rng(0))


# exact window areas per branch of the piece list, as float.hex at
# W = 2 pi, pi/4 and 0.01
PINNED_AREAS = {
    # d = 0, narrow
    (1.0, 1.0, 1.0, 0.0): ("0x1.0000000000000p+3", "0x1.921fb54442d18p+1",
                           "0x1.47ae147ae147bp-5"),
    # d = 0, one fully saturated patch
    (4.0 * math.pi, 4.0 * math.pi, 1.0, 0.0): (
        "0x1.921fb54442d18p+4", "0x1.921fb54442d18p+1",
        "0x1.47ae147ae147bp-5"),
    # rising 4 pi crossing, saturated middle patch, falling crossing
    (6.0, 6.0, 1.0, 0.7): ("0x1.04ee71ba1e88dp+7", "0x1.01c9aea72aa72p+4",
                           "0x1.a9d7342edbb53p-3"),
    # parallel slanted edges over several periods: the periodic shortcut
    (0.5, 30.0, 0.2, 40.0): ("0x1.2f0ccccccccd1p+11",
                             "0x1.3d4d0507dcb9ap+8", "0x1.028f5c28f5c28p+2"),
    # saturated slanted patches
    (10.0, 3.0, 2.0, 0.3): ("0x1.238a3037e3a4bp+6", "0x1.238a3037e3a4bp+3",
                            "0x1.db22d0e560418p-4"),
    # crossings far from the middle, slim in x
    (0.012, 100.0, 100.0, 1.0): ("0x1.3053cb829eb26p+12",
                                 "0x1.2a9ee9c949f39p+9",
                                 "0x1.e13857415778bp+2"),
}


@pytest.mark.parametrize("shape", list(PINNED_AREAS))
def test_window_areas_pinned_per_branch(shape):
    got = tuple(hexagon_area_window(Hexagon(*shape), w).hex()
                for w in (2.0 * math.pi, math.pi / 4.0, 0.01))
    assert got == PINNED_AREAS[shape]


def test_areas_are_floats_without_patches():
    # no height or no width: an empty piece list still sums to a float
    for shape in ((1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0),
                  (1.0, 1.0, 0.0, 0.0)):
        h = Hexagon(*shape)
        for area in (hexagon_area(h), hexagon_area_truncated(h, 0.5)):
            assert type(area) is float
            assert area.hex() == "0x0.0p+0"


def test_pieces_cover_branches():
    # the pinned shapes reach each kind of piece the list can hold
    flags = {shape: [[p[4] for p in pieces]
                     for _, pieces in _pieces(Hexagon(*shape))]
             for shape in PINNED_AREAS}
    assert flags[(1.0, 1.0, 1.0, 0.0)] == [[False]]
    assert flags[(4.0 * math.pi, 4.0 * math.pi, 1.0, 0.0)] == [[True]]
    assert flags[(6.0, 6.0, 1.0, 0.7)] == [[False, True], [True],
                                           [True, False]]
    assert flags[(10.0, 3.0, 2.0, 0.3)] == [[True]] * 3
    edges = [e for e, _ in _pieces(Hexagon(0.5, 30.0, 0.2, 40.0))]
    assert edges[1][1] == edges[1][3] != 0.0


def test_sampler_piece_masses_equal_exact_area():
    # M(S) in ball_volume is a product of hexagon_area values, and the
    # draws come from the sampler's trapezoids: their masses must agree
    rng = np.random.default_rng(2029)
    n = 2000
    mu, nu, xi = (np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))
                  for _ in range(3))
    d = np.where(rng.random(n) < 0.25, 0.0,
                 np.exp(rng.uniform(math.log(0.05), math.log(5.0), n)))
    shapes = list(zip(mu, nu, xi, d)) + SHAPES + list(PINNED_AREAS)
    for shape in shapes:
        h = Hexagon(*shape)
        mass = sum(0.5 * (min(wa, FOUR_PI) + min(wb, FOUR_PI)) * (b - a)
                   for _, pieces in _pieces(h)
                   for a, b, wa, wb, _ in pieces)
        area = hexagon_area(h)
        assert abs(mass - area) <= 1e-13 * area, shape


def test_sampler_draw_pinned_on_crossing_shape():
    x, y = sample_hexagon(Hexagon(6.0, 6.0, 1.0, 0.7), 4,
                          np.random.default_rng(12))
    assert [v.hex() for v in x.tolist()] == [
        "0x1.3b2e0f2d00834p+1", "-0x1.0727e60f60628p+2",
        "0x1.342bbb63438b0p-1", "-0x1.4c86ee58349b2p+2"]
    assert [v.hex() for v in y.tolist()] == [
        "-0x1.ebe2081ef3964p-1", "0x1.c8eb590326a67p+1",
        "-0x1.dd3df7e06b1ccp+1", "-0x1.279dcbcfb616bp+2"]


def test_estimator_inputs_validation():
    with pytest.raises(ValueError):
        EstimatorInputs(0.1, (2.0, 1.0, 3.0), 0.0)
    with pytest.raises(ValueError):
        EstimatorInputs(-0.1, (1.0, 2.0, 3.0), 0.0)
    with pytest.raises(ValueError):
        EstimatorInputs(0.1, (1.0, 2.0, 3.0), -1.0)
    # non-finite r, a_i, d or eta: vbar_g would return nan
    for r, a, d, eta in ((math.inf, (1.0, 1.0, 1.0), 0.0, 0.1),
                         (0.1, (1.0, 1.0, math.inf), 0.0, 0.1),
                         (0.1, (math.nan, 1.0, 1.0), 0.0, 0.1),
                         (0.1, (1.0, 1.0, 1.0), math.nan, 0.1),
                         (0.1, (1.0, 1.0, 1.0), math.inf, 0.1),
                         (0.1, (1.0, 1.0, 1.0), 0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            EstimatorInputs(r, a, d, eta)


def test_m_rho_hand_values():
    inp = EstimatorInputs(0.1, (1.0, 2.0, 4.0), 3.0, eta=0.1)
    m, rho = m_rho(inp)
    npt.assert_allclose(m, [0.1, 0.05, 0.025], atol=1e-15)
    want = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        want[i] = m[j] * m[k] + m[i] * m[j] ** 2 + m[i] * m[k] ** 2
    npt.assert_allclose(rho, want, atol=1e-18)


def test_vbar_g_hand_value():
    inp = EstimatorInputs(0.1, (1.0, 2.0, 4.0), 3.0, eta=0.1)
    m, rho = m_rho(inp)
    want = 1.0
    for i in range(3):
        a_i = inp.a[i]
        want *= min(3.0 * rho[i] * 0.1 / a_i + rho[i] * 0.1 + 0.01 / a_i,
                    3.0 * 0.1 / a_i + 0.1)
    assert vbar_g(inp) == pytest.approx(want, rel=1e-14)
    npt.assert_allclose(linear_upper(inp),
                        [0.4, 0.25, 0.175], atol=1e-15)


def test_containment_sets_shapes():
    inp = EstimatorInputs(0.05, (1.0, 2.0, 4.0), 1.5, eta=0.1)
    _, rho = m_rho(inp)
    inner, truncated = containment_sets(inp, Side.INNER)
    assert truncated
    outer, trunc_outer = containment_sets(inp, Side.OUTER, c_outer=8.0)
    assert not trunc_outer
    for i in range(3):
        assert inner[i].mu_star == pytest.approx(rho[i], rel=1e-14)
        assert inner[i].nu_star == pytest.approx(0.05 / inp.a[i], rel=1e-14)
        assert inner[i].xi_star == pytest.approx(0.05, rel=1e-14)
        assert outer[i].mu_star == pytest.approx(8.0 * rho[i], rel=1e-14)
        # inner fits inside outer componentwise
        assert inner[i].mu_star <= outer[i].mu_star
    with pytest.raises(ValueError):
        containment_sets(inp, "sideways")


def test_containment_regime_gate():
    inp = EstimatorInputs(0.5, (1.0, 2.0, 4.0), 0.0, eta=0.1)
    with pytest.raises(OutOfRegime):
        containment_sets(inp, Side.OUTER)
    # inner side has no gate
    containment_sets(inp, Side.INNER)


def test_doubling_calculus_examples():
    E = DoublingExpr
    assert doubling_calculus(E.const()) == 1.0
    assert doubling_calculus(E.monotone()) == 2.0
    assert doubling_calculus(E.sum(E.monotone(), E.monotone())) == 2.0
    assert doubling_calculus(
        E.product(E.monotone(), E.monotone(), E.monotone())) == 8.0
    assert doubling_calculus(E.min(E.monotone(), E.const())) == 2.0
    assert doubling_calculus(E.couple(E.monotone(), E.const())) == 2.0
    assert doubling_calculus(E.comparable(E.monotone(), 1.0, 3.0)) == 6.0
    assert doubling_calculus(E.product_metric(E.monotone(),
                                              E.monotone())) == 16.0
    assert doubling_calculus(E.reduction(1, E.monotone())) == 256.0
    assert doubling_calculus(E.compose(E.product(E.monotone(),
                                                 E.monotone()),
                                       E.monotone())) == 4.0


def test_doubling_malformed_trees():
    E = DoublingExpr
    with pytest.raises(MalformedTree):
        doubling_calculus("not a node")
    with pytest.raises(MalformedTree):
        doubling_calculus(E("bogus"))
    with pytest.raises(MalformedTree):
        doubling_calculus(E("sum"))
    with pytest.raises(MalformedTree):
        doubling_calculus(E("const", (E.monotone(),)))
    with pytest.raises(MalformedTree):
        doubling_calculus(E("comparable", (E.monotone(),), value=-1.0))


def test_vbar_g_overflows_to_inf():
    # r^2 overflows near r = 1.3e154; the estimator reads inf, not an
    # OverflowError
    with np.errstate(over="ignore"):
        assert vbar_g(EstimatorInputs(1e200, (1.0, 1.0, 1.0), 0.0,
                                      0.1)) == math.inf


def test_vbar_tree_bound_frozen():
    assert vbar_g_doubling_bound() == 4096.0
    assert doubling_calculus(vbar_g_doubling_tree()) == 4096.0


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
       st.floats(0.0, 1e4), st.floats(0.01, 100.0))
@settings(max_examples=120, deadline=None)
def test_vbar_doubling_respects_tree_bound(a1_raw, a3_raw, d, r):
    a = tuple(sorted((a1_raw, math.sqrt(a1_raw * a3_raw), a3_raw)))
    ratio = vbar_g(EstimatorInputs(2.0 * r, a, d)) / vbar_g(
        EstimatorInputs(r, a, d))
    assert ratio <= 4096.0 * (1.0 + 1e-9)
