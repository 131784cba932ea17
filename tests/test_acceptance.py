"""End-to-end acceptance checks, one per contract criterion.

Each test prints a single pass/fail line through the terminal-summary
hook so the verdicts survive output capture. Tolerances and runtime
budgets are pinned constants here, not knobs.
"""

import hashlib
import json
import math
import time

import numpy as np

from su2vol.algebra import AlgebraElement, U1, U2, U3, exp_group, exp_su2
from su2vol.balls import ball_volume, default_sweep_grid, sweep
from su2vol.cli import main as cli_main
from su2vol.frames import (
    Coordinates, adjoint_rotate, commutator_identity, euler_quat, jacobian,
    word_group_element,
)
from su2vol.metrics import MetricTensor, from_parameters, reduce_to_decoupled
from su2vol.volumes import (
    Hexagon, hexagon_area, vbar_H, vbar_g_doubling_bound,
)
from conftest import record_criterion
from oracles import ball_volume_isotropic, fd_jacobian, series_expm

WORD_TOL = 1e-10
EXACT_TOL = 1e-12
JACOBIAN_RTOL = 1e-5
REDUCE_TOL = 1e-10
PARAM_TOL = 1e-8
FLAT_WINDOW = 0.15
AMBIG_FRACTION = 0.20
DOUBLING_BOUND = 4096.0

T_IDENTITY = 10.0
T_JACOBIAN = 10.0
T_HEXAGON = 120.0
T_BALL = 300.0
T_SWEEP = 1800.0

# SHA-256 of the criterion-6 bracket columns, one line per row of the
# float.hex of these columns joined by spaces: a change that moves any
# bracket updates the pin and says why
SWEEP_BRACKET_COLUMNS = ("lower_r", "upper_r", "ambig_r",
                         "lower_2r", "upper_2r", "ambig_2r")
SWEEP_BRACKET_SHA256 = (
    "e61b0855e82728bd13a7137ac9f7e21cc87c26d222e657d11882f372c7cff5b8")


def _finish(number, name, ok, detail, elapsed=None):
    stamp = "pass" if ok else "FAIL"
    timing = f", {elapsed:.1f} s" if elapsed is not None else ""
    record_criterion(f"criterion {number} {name}: {stamp} ({detail}{timing})")
    assert ok, f"criterion {number} {name}: {detail}"


def _word_residual(s, t, use_v=False, m=None):
    got = word_group_element(s, t, (0, 1, 2), use_v=use_v, m=m)
    f, _ = commutator_identity(s, t)
    want = exp_group(AlgebraElement(f * np.eye(6)[2]))
    return max(float(np.max(np.abs(got.su2 - want.su2))),
               float(np.max(np.abs(got.vec - want.vec))))


def test_criterion_1_identity_suite():
    t0 = time.monotonic()
    worst_word = 0.0
    for s in np.linspace(-math.pi, math.pi, 50):
        for t in np.linspace(-0.5 * math.pi, 0.5 * math.pi, 50):
            worst_word = max(worst_word, _word_residual(s, t))
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        s = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
        worst_word = max(worst_word, _word_residual(s, t))
    for d in (0.0, 0.5, 10.0):
        m = from_parameters(1.0, 1.0, 1.0, d)
        for _ in range(333):
            s = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            worst_word = max(worst_word, _word_residual(s, t, use_v=True,
                                                        m=m))
    worst_adj = 0.0
    basis = [U1, U2, U3]
    for _ in range(1000):
        i = int(rng.integers(0, 3))
        j = (i + int(rng.integers(1, 3))) % 3
        s = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        X = AlgebraElement(np.eye(6)[i])
        Y = AlgebraElement(np.eye(6)[j])
        got = adjoint_rotate(X, Y, s).su2_coeffs
        ey = series_expm(s * basis[j])
        conj = np.linalg.inv(ey) @ basis[i] @ ey
        mat = got[0] * U1 + got[1] * U2 + got[2] * U3
        worst_adj = max(worst_adj, float(np.max(np.abs(mat - conj))))
    worst_rod = 0.0
    for scale in (0.1, 1.0, 5.0):
        for _ in range(334):
            v = rng.normal(size=3) * scale
            ref = series_expm(v[0] * U1 + v[1] * U2 + v[2] * U3)
            worst_rod = max(worst_rod,
                            float(np.max(np.abs(exp_su2(v) - ref))))
    elapsed = time.monotonic() - t0
    ok = (worst_word <= WORD_TOL and worst_adj <= EXACT_TOL
          and worst_rod <= EXACT_TOL and elapsed < T_IDENTITY)
    _finish(1, "identity suite", ok,
            f"word {worst_word:.2e} (tol {WORD_TOL:.0e}), "
            f"adjoint {worst_adj:.2e}, rodrigues {worst_rod:.2e} "
            f"(tol {EXACT_TOL:.0e})", elapsed)


def test_criterion_2_jacobian_fd():
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-math.pi, math.pi, 3)
        x[1] = rng.uniform(-0.5 * math.pi + 0.1, 0.5 * math.pi - 0.1)

        def quat_map(v):
            return np.array(euler_quat(v[0], v[1], v[2]))

        A = fd_jacobian(quat_map, x, eps=1e-6)
        det_fd = 8.0 * math.sqrt(max(float(np.linalg.det(A.T @ A)), 0.0))
        worst = max(worst, abs(det_fd - jacobian(x[1])) / jacobian(x[1]))
    elapsed = time.monotonic() - t0
    ok = worst <= JACOBIAN_RTOL and elapsed < T_JACOBIAN
    _finish(2, "chart jacobian", ok,
            f"max rel err {worst:.2e} (tol {JACOBIAN_RTOL:.0e}), 1000 pts",
            elapsed)


def test_criterion_3_reduction():
    rng = np.random.default_rng(2028)
    worst_bracket = worst_orth = worst_norm = worst_round = 0.0
    counts = {0: 334, 1: 333, 3: 333}
    for n, count in counts.items():
        for _ in range(count):
            f = rng.normal(size=(3 + n, 3 + n))
            gram = f @ f.T + np.eye(3 + n) / 10.0
            dec = reduce_to_decoupled(MetricTensor(0.5 * (gram + gram.T)))
            res = dec.invariant_residuals()
            worst_bracket = max(worst_bracket, res["milnor_bracket"])
            worst_orth = max(worst_orth, res["v_orthogonality"],
                             res["vf_cross"], res["f_orthonormal"])
            worst_norm = max(worst_norm, res["u_diagonal"]
                             / max(1.0, float(np.max(dec.a)) ** 2))
            back = reduce_to_decoupled(MetricTensor(
                from_parameters(*dec.a, dec.d).gram))
            worst_round = max(
                worst_round,
                float(np.max(np.abs(np.asarray(back.a) - dec.a))),
                abs(back.d - dec.d))
    ok = (worst_bracket <= REDUCE_TOL and worst_orth <= REDUCE_TOL
          and worst_norm <= PARAM_TOL and worst_round <= PARAM_TOL)
    _finish(3, "metric reduction", ok,
            f"bracket {worst_bracket:.2e}, orth {worst_orth:.2e} "
            f"(tol {REDUCE_TOL:.0e}), norms {worst_norm:.2e}, "
            f"round-trip {worst_round:.2e} (tol {PARAM_TOL:.0e})")


def _random_hexagons(count, rng):
    mu = np.exp(rng.uniform(math.log(0.05), math.log(20.0), count))
    nu = np.exp(rng.uniform(math.log(0.05), math.log(20.0), count))
    xi = np.exp(rng.uniform(math.log(0.05), math.log(20.0), count))
    d = np.where(rng.random(count) < 0.25, 0.0,
                 np.exp(rng.uniform(math.log(0.05), math.log(5.0), count)))
    return mu, nu, xi, d


def _mc_area_vectorized(mu, nu, xi, d, n, rng):
    """Independent rejection estimate: membership by scanning 4-pi lifts."""
    X, Y, S = mu + nu, d * nu + xi, d * mu + xi
    bx = min(X, 2.0 * math.pi)
    xs = rng.uniform(-bx, bx, n)
    ys = rng.uniform(-Y, Y, n)
    hit = np.zeros(n, dtype=bool)
    k_max = int(math.floor((X + bx) / (4.0 * math.pi))) + 1
    for k in range(-k_max, k_max + 1):
        xl = xs + 4.0 * math.pi * k
        hit |= (np.abs(xl) <= X) & (np.abs(ys - d * xl) <= S)
    p = float(hit.mean())
    box = 4.0 * bx * Y
    return box * p, box * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def test_criterion_4_hexagon_area():
    t0 = time.monotonic()
    rng = np.random.default_rng(2029)
    mu, nu, xi, d = _random_hexagons(100, rng)
    worst_pull = 0.0
    for i in range(100):
        exact = hexagon_area(Hexagon(mu[i], nu[i], xi[i], d[i]))
        est, sigma = _mc_area_vectorized(mu[i], nu[i], xi[i], d[i],
                                         1000000, rng)
        worst_pull = max(worst_pull, abs(exact - est) / sigma)
    mu, nu, xi, d = _random_hexagons(100000, rng)
    ratios = np.array([hexagon_area(Hexagon(mu[i], nu[i], xi[i], d[i]))
                       / vbar_H(Hexagon(mu[i], nu[i], xi[i], d[i]))
                       for i in range(100000)])
    prefix = ratios[:10000]
    env_ok = (np.all(np.isfinite(ratios)) and ratios.min() > 0.0
              and prefix.min() >= ratios.min()
              and prefix.max() <= ratios.max())
    elapsed = time.monotonic() - t0
    ok = worst_pull <= 3.0 and env_ok and elapsed < T_HEXAGON
    _finish(4, "hexagon area", ok,
            f"max |pull| {worst_pull:.2f} sigma (tol 3), ratio envelope "
            f"[{ratios.min():.3f}, {ratios.max():.3f}] stable over "
            f"1e4 in 1e5", elapsed)


def test_criterion_5_flat_limit_ball():
    t0 = time.monotonic()
    m = from_parameters(1.0, 1.0, 1.0, 0.0)
    r = 0.1
    vb = ball_volume(m, r, 1000000, seed=2030)
    flat = math.pi ** 3 * r ** 6 / 6.0
    lo, hi = vb.lower / flat, vb.upper / flat
    elapsed = time.monotonic() - t0
    ok = (1.0 - FLAT_WINDOW <= lo <= hi <= 1.0 + FLAT_WINDOW
          and vb.lower <= flat <= vb.upper
          and vb.ambiguous_mass <= AMBIG_FRACTION * vb.upper
          and elapsed < T_BALL)
    _finish(5, "flat-limit ball", ok,
            f"bracket/flat [{lo:.3f}, {hi:.3f}] within +-{FLAT_WINDOW}, "
            f"ambiguous {vb.ambiguous_mass:.2e}", elapsed)


def test_criterion_6_sweep():
    t0 = time.monotonic()
    out = sweep(default_sweep_grid(), samples=10000, seed=2031)
    rows, summary = out["rows"], out["summary"]
    n_err = sum(1 for row in rows if "error" in row["flags"])
    ratio_cols = ("ratio_low_r", "ratio_high_r", "ratio_low_2r",
                  "ratio_high_2r")
    env_ok = all(
        math.isfinite(row[c]) and row[c] > 0.0
        for row in rows for c in ratio_cols)
    vbar_ok = all(row["vbar_ratio"] <= DOUBLING_BOUND * (1.0 + 1e-9)
                  for row in rows)
    sup_ok = (math.isfinite(summary["sup_doubling"])
              and summary["sup_doubling"] <= summary["envelope_bound"]
              and summary["doubling_ok"])
    # a certified bracket pair can never say vol(2r) < vol(r)
    n_invalid = sum(1 for row in rows if row["upper_2r"] < row["lower_r"])
    # the a1 = a2 = a3, d = 0 cells have a quadrature value at r and 2r
    iso = [(row[f"lower_{s}"], row[f"upper_{s}"],
            ball_volume_isotropic(k * row["r"], row["a1"])[0])
           for row in rows if row["a1"] == row["a3"] and row["d"] == 0.0
           for s, k in (("r", 1.0), ("2r", 2.0))]
    n_miss = sum(1 for lo, hi, exact in iso if not lo <= exact <= hi)
    brackets = hashlib.sha256("".join(
        " ".join(float(row[c]).hex() for c in SWEEP_BRACKET_COLUMNS) + "\n"
        for row in rows).encode()).hexdigest()
    elapsed = time.monotonic() - t0
    ok = (len(rows) == 700 and n_err == 0 and env_ok and vbar_ok
          and sup_ok and n_invalid == 0 and len(iso) == 50 and n_miss == 0
          and brackets == SWEEP_BRACKET_SHA256 and elapsed < T_SWEEP)
    _finish(6, "doubling sweep", ok,
            f"{len(rows)} cells, sandwich [{summary['c_emp']:.2e}, "
            f"{summary['C_emp']:.2e}], sup doubling "
            f"{summary['sup_doubling']:.2e} <= envelope bound "
            f"{summary['envelope_bound']:.2e}, vbar ratio <= "
            f"{DOUBLING_BOUND:g} in every cell, "
            f"{summary['low_confidence_cells']} low-confidence cells, "
            f"{n_invalid} cells with upper_2r < lower_r, {n_miss} of "
            f"{len(iso)} isotropic brackets miss the quadrature value, "
            f"bracket digest {brackets[:12]}"
            f"{'' if brackets == SWEEP_BRACKET_SHA256 else ' (unpinned)'}",
            elapsed)


def test_criterion_7_deterministic_reports(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a_grid=1.0,10.0\nd_grid=0.0\nr_grid=0.1\n"
                   "samples=3000\nseed=77\nformat=json\n")
    out_dir = tmp_path / "out"
    blobs = []
    for _ in range(2):
        rc = cli_main(["sweep", "--config", str(cfg), "--out",
                       str(out_dir)])
        assert rc == 0
        blobs.append(tuple((out_dir / name).read_bytes()
                           for name in ("sweep_report.csv",
                                        "sweep_report.json",
                                        "sweep_summary.json")))
    identical = blobs[0] == blobs[1]
    doc = json.loads(blobs[0][2])
    ok = identical and doc["config"]["seed"] == 77
    _finish(7, "deterministic reports", ok,
            "byte-identical csv+json across repeated runs"
            if identical else "reports differ between runs")


def test_doubling_bound_constant_frozen():
    assert vbar_g_doubling_bound() == DOUBLING_BOUND
