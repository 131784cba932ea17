"""Certified distance brackets, constructive word paths, Monte Carlo ball
volumes for the reference measure, and the sweep harness.

Distances are certified two-sided: the lower bound is the spectral
comparison with the bi-invariant metric, every upper bound is the exact
length of an explicitly constructed control path.  Ball volumes classify
stratified samples through vectorized versions of the same bounds, so the
reported bracket is conservative by construction; ambiguous samples only
ever widen it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .algebra import (AlgebraElement, GroupElement, angle_axis, exp_group,
                      g0_distance_between, mul, reference_distance)
from .frames import (ControlPath, PathSegment, commutator_identity,
                     euler_quat, path_length, segment_product, word_factors,
                     wrap_circle)
from .metrics import DecoupledMetric, canonicalize, from_parameters
from .volumes import (EstimatorInputs, Hexagon, Side, containment_sets,
                      hexagon_area, hexagon_area_truncated, hexagon_contains,
                      linear_upper, m_rho, sample_hexagon, vbar_g,
                      vbar_g_doubling_bound)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
SQRT8 = math.sqrt(8.0)
# x-extent cap under which the chart is injective on the sampling region:
# every collision family moves some angle by at least pi
EXTENT_CAP = 1.45
CONFIDENCE_Z = 2.576  # two-sided 99%


class OutOfRange(Exception):
    pass


@dataclass(frozen=True)
class DistanceBracket:
    lower: float
    upper: float
    witness: ControlPath


@dataclass(frozen=True)
class VolumeBracket:
    lower: float
    upper: float
    ambiguous_mass: float
    n_samples: int
    seed: int
    mode: str = ""
    flags: tuple = ()


# -- constructive word paths -------------------------------------------------

def _solve_word_angle(phi, t):
    """s with commutator_identity(s, t)[0] == phi, for |phi| within reach."""
    ratio = math.sin(abs(phi) / 4.0) / math.sin(t / 2.0)
    s = 2.0 * math.asin(min(1.0, ratio))
    return math.copysign(s, phi)


def _first_order_factors(j, k, i, eps, sigma, s_cap, t_cap):
    """Factors realizing e^{sigma u_i} from j- and k-rotations only.

    The bracket of the (j, k) pair is eps * u_i; repeats keep every
    rotation within the caps.
    """
    if sigma == 0.0:
        return []
    f_target = eps * sigma
    t = min(t_cap, 0.5 * math.pi)
    s_hi = min(s_cap, math.pi)
    f_max, _ = commutator_identity(s_hi, t)
    n_rep = max(1, math.ceil(abs(f_target) / f_max))
    s = _solve_word_angle(f_target / n_rep, t)
    return list(word_factors(s, t, (j, k, i))) * n_rep


def _second_order_factors(outer_a, expand_axis, target, eps_outer,
                          inner_pair, eps_inner, sigma, caps):
    """Factors for e^{sigma u_target} where the expand_axis rotations are
    themselves produced by inner words on inner_pair."""
    if sigma == 0.0:
        return []
    ia, ib = inner_pair
    inner_s = min(caps[ia], math.pi)
    inner_t = min(caps[ib], 0.5 * math.pi)
    reach, _ = commutator_identity(inner_s, inner_t)
    t_cap = min(0.999 * reach, 0.5 * math.pi)
    s_cap = min(caps[outer_a], math.pi)
    f_max, _ = commutator_identity(s_cap, t_cap)
    f_target = eps_outer * sigma
    n_rep = max(1, math.ceil(abs(f_target) / f_max))
    s = _solve_word_angle(f_target / n_rep, t_cap)
    outer = list(word_factors(s, t_cap, (outer_a, expand_axis, target)))
    expanded = []
    for axis, angle in outer:
        if axis != expand_axis or angle == 0.0:
            expanded.append((axis, angle))
            continue
        f_inner = eps_inner * angle
        s_in = _solve_word_angle(f_inner, inner_t)
        expanded.extend(word_factors(s_in, inner_t, (ia, ib, expand_axis)))
    return expanded * n_rep


def _factors_to_path(factors):
    segments = []
    for axis, angle in factors:
        if angle == 0.0:
            continue
        alpha = np.zeros(3)
        alpha[axis] = math.copysign(1.0, angle)
        segments.append(PathSegment(abs(angle), alpha, np.zeros(3)))
    return ControlPath(segments)


def word_upper_bound(m: DecoupledMetric, axis: int, sigma: float,
                     r_hint: float, eta: float = 0.1) -> ControlPath:
    """Control path reaching e^{sigma u_axis} without direct rotations about
    the target axis beyond its cap; valid while |sigma| <= rho_axis.

    The target splits into the three reachable budgets: a first-order word
    on the complementary axes, then two nested second-order words.  Every
    word is centrally balanced, so the path has zero net translation.
    """
    a = np.asarray(m.a, dtype=float)
    caps = np.minimum(r_hint / a, eta)
    i = int(axis)
    j, k = (i + 1) % 3, (i + 2) % 3
    rho_i = caps[j] * caps[k] + caps[i] * caps[j] ** 2 + caps[i] * caps[k] ** 2
    if abs(sigma) > rho_i * (1.0 + 1e-12):
        raise OutOfRange(
            f"target angle {sigma:.6g} exceeds reachable budget {rho_i:.6g}")
    if sigma == 0.0:
        return ControlPath([])
    part_a = float(np.clip(sigma, -caps[j] * caps[k], caps[j] * caps[k]))
    rem = sigma - part_a
    cap_b = caps[i] * caps[j] ** 2
    part_b = float(np.clip(rem, -cap_b, cap_b))
    part_c = rem - part_b
    factors = _first_order_factors(j, k, i, 1.0, part_a, caps[j], caps[k])
    factors += _second_order_factors(j, k, i, 1.0, (j, i), -1.0,
                                     part_b, caps)
    factors += _second_order_factors(k, j, i, -1.0, (k, i), 1.0,
                                     part_c, caps)
    path = _factors_to_path(factors)
    target = exp_group(AlgebraElement(sigma * m.u_columns()[:, i]))
    residual = g0_distance_between(segment_product(m, path.segments),
                                   target)
    if residual > 1e-8:
        raise OutOfRange(f"word construction residual {residual:.3g}")
    return path


# -- vectorized certified bounds ---------------------------------------------

def _axis_word_cost(a, i, phi):
    """Length bound for realizing e^{phi u_i} by balanced words, vectorized.

    Existence bound only: for the optimal scaled caps there is an exact
    word of at most this length, using f(s, t) >= s t / sqrt(8).
    """
    phi = np.abs(np.asarray(phi, dtype=float))
    j, k = (i + 1) % 3, (i + 2) % 3
    best = np.full(phi.shape, np.inf)
    for A, B in ((j, k), (k, j)):
        ca, cb = 2.0 * a[A], 3.0 * a[B]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(SQRT8 * phi * cb / ca)
            t = np.sqrt(SQRT8 * phi * ca / cb)
        s = np.clip(s, 0.0, math.pi)
        t = np.clip(t, 0.0, 0.5 * math.pi)
        reach = s * t / SQRT8
        with np.errstate(divide="ignore", invalid="ignore"):
            n_rep = np.ceil(phi / reach)
        cost = n_rep * (ca * s + cb * t)
        best = np.minimum(best, np.where(phi > 0.0, cost, 0.0))
    return best


def _minimal_angle_rep(x):
    alt = x - FOUR_PI * np.sign(x)
    return np.where(np.abs(x) <= np.abs(alt), x, alt)


def _certified_bounds(a, d, xs, ys):
    """(reference distance, lower bound, upper bound) per sample.

    xs are chart angles in the metric's own frame, ys central coordinates
    in the orthonormal f-frame; both (n, 3).  The lower bound integrates
    the speed floor sqrt(a_min^2 |alpha|^2 + |beta|^2): any path needs
    total rotation Phi >= theta, and translation slack |y| - d Phi, so
    cost >= min over Phi >= theta of the two-block norm (convex in Phi).
    """
    a = np.asarray(a, dtype=float)
    x1, x2, x3 = xs[:, 0], xs[:, 1], xs[:, 2]
    theta, axis_hat = angle_axis(np.stack(euler_quat(x1, x2, x3), axis=1))
    y_norm = np.linalg.norm(ys, axis=1)
    ref = np.hypot(theta, y_norm)

    a_min = float(np.min(a))
    phi_hat = np.maximum(theta, d * y_norm / (a_min ** 2 + d ** 2))
    slack = np.maximum(0.0, y_norm - d * phi_hat)
    lower = np.hypot(a_min * phi_hat, slack)

    upper = np.full(xs.shape[0], np.inf)
    for branch in (theta, theta - FOUR_PI):
        alpha = branch[:, None] * axis_hat
        beta = ys - d * alpha
        cost = np.sqrt(np.sum((a[None, :] * alpha) ** 2, axis=1)
                       + np.sum(beta ** 2, axis=1))
        upper = np.minimum(upper, cost)

    nu = _minimal_angle_rep(xs)
    direct = np.abs(nu) * a[None, :]
    word = np.stack([_axis_word_cost(a, i, nu[:, i]) for i in range(3)],
                    axis=1)
    for mask in range(8):
        sel = np.array([(mask >> i) & 1 for i in range(3)], dtype=bool)
        rot_cost = np.sum(np.where(sel[None, :], direct, word), axis=1)
        drift = d * nu * sel[None, :]
        trans = np.linalg.norm(ys - drift, axis=1)
        upper = np.minimum(upper, rot_cost + trans)
    return ref, lower, upper


def _lambda_bounds(gram):
    vals = np.linalg.eigvalsh(gram)
    return math.sqrt(max(vals[0], 0.0)), math.sqrt(max(vals[-1], 0.0))


# -- distance bracket --------------------------------------------------------

def _frame_coordinates(m: DecoupledMetric, p: GroupElement):
    """(quaternion in frame axes, central f-coordinates) of p."""
    R = m.V[:3]
    q = p.q / np.linalg.norm(p.q)
    q_frame = np.concatenate([[q[0]], R.T @ q[1:]])
    y_f = m.F[3:].T @ p.vec
    return q_frame, y_f


def _log_branches(m, p):
    """Rotation angle theta of p and the straight-log controls
    (alpha, beta) of its two branches, theta and theta - 4 pi."""
    q, y_f = _frame_coordinates(m, p)
    theta, axis_hat = angle_axis(q)
    branches = []
    for ang in (theta, theta - FOUR_PI):
        alpha = ang * axis_hat
        branches.append((alpha, y_f - m.d * alpha))
    return theta, branches


def _controls_path(rows):
    """ControlPath of (duration, alpha, beta) rows; rows that do not move
    are skipped."""
    return ControlPath([PathSegment(dt, np.array(alpha, dtype=float),
                                    np.array(beta, dtype=float))
                        for dt, alpha, beta in rows
                        if np.any(alpha) or np.any(beta)])


def _euler_extract(q):
    w, X, Y, Z = q
    x2 = math.asin(min(1.0, max(-1.0, 2.0 * (w * Y - Z * X))))
    x1 = math.atan2(2.0 * (w * X + Y * Z), 1.0 - 2.0 * (X * X + Y * Y))
    x3 = math.atan2(2.0 * (w * Z + X * Y), 1.0 - 2.0 * (Y * Y + Z * Z))
    return np.array([x1, x2, x3])


def _coordinate_candidates(m, p):
    """Paths traversing the chart axes in order, with optional word
    replacements per axis; translation correction appended."""
    a = np.asarray(m.a, dtype=float)
    q, y_f = _frame_coordinates(m, p)
    x = _euler_extract(q)
    nu = _minimal_angle_rep(wrap_circle(x))
    out = []
    for mask in range(8):
        segments = []
        drift = np.zeros(3)
        ok = True
        for axis in (2, 1, 0):
            ang = nu[axis]
            if ang == 0.0:
                continue
            if (mask >> axis) & 1:
                alpha = np.zeros(3)
                alpha[axis] = math.copysign(1.0, ang)
                segments.append(PathSegment(abs(ang), alpha, np.zeros(3)))
                drift[axis] += m.d * ang
            else:
                factors = _word_factors_free(a, axis, ang)
                if factors is None:
                    ok = False
                    break
                segments.extend(_factors_to_path(factors).segments)
        if not ok:
            continue
        beta = y_f - drift
        if np.linalg.norm(beta) > 0.0:
            segments.append(PathSegment(1.0, np.zeros(3), beta))
        out.append(ControlPath(segments))
    return out


def _word_factors_free(a, i, phi):
    """Concrete word factors for e^{phi u_i} with freely optimized caps."""
    if phi == 0.0:
        return []
    j, k = (i + 1) % 3, (i + 2) % 3
    best = None
    best_cost = np.inf
    for A, B in ((j, k), (k, j)):
        ca, cb = 2.0 * a[A], 3.0 * a[B]
        s_cap = min(math.sqrt(SQRT8 * abs(phi) * cb / ca), math.pi)
        t_cap = min(math.sqrt(SQRT8 * abs(phi) * ca / cb), 0.5 * math.pi)
        if s_cap <= 0.0 or t_cap <= 0.0:
            continue
        eps = 1.0 if (A, B) == (j, k) else -1.0
        f_max, _ = commutator_identity(s_cap, t_cap)
        if f_max <= 0.0:
            continue
        n_rep = max(1, math.ceil(abs(phi) / f_max))
        s = _solve_word_angle(eps * phi / n_rep, t_cap)
        factors = list(word_factors(s, t_cap, (A, B, i))) * n_rep
        cost = n_rep * (ca * abs(s) + cb * t_cap)
        if cost < best_cost:
            best_cost = cost
            best = factors
    return best


def _repaired(m, path, p):
    """path closed by the shorter straight-log segment to p."""
    gap = mul(segment_product(m, path.segments).inverse(), p)
    theta, branches = _log_branches(m, gap)
    alpha, beta = branches[int(theta > math.pi)]
    return _controls_path(list(path.segments) + [(1.0, alpha, beta)])


def _resample_controls(path, n_seg):
    total = sum(s.duration for s in path.segments)
    if total <= 0.0 or not path.segments:
        return np.zeros(n_seg * 6)
    z = np.zeros((n_seg, 6))
    edges = np.cumsum([0.0] + [s.duration for s in path.segments])
    for idx in range(n_seg):
        t_mid = (idx + 0.5) * total / n_seg
        pos = int(np.searchsorted(edges, t_mid) - 1)
        pos = min(max(pos, 0), len(path.segments) - 1)
        seg = path.segments[pos]
        scale = total / n_seg
        z[idx, :3] = seg.alpha * seg.duration / scale
        z[idx, 3:] = seg.beta * seg.duration / scale
    return z.reshape(-1)


def distance_bracket(m: DecoupledMetric, p: GroupElement,
                     budget: int = 2) -> DistanceBracket:
    """Certified two-sided distance estimate from the identity to p.

    The lower bound is the spectral comparison with the reference metric;
    upper bounds come from explicit paths (straight logs, chart-ordered
    rotations with optional word substitutions, then budget rounds of
    Powell refinement over 8-segment controls).  Each refined path gets a
    closing log-correction segment, so every witness reaches p exactly.
    """
    lam_lo, lam_hi = _lambda_bounds(m.gram)
    ref = reference_distance(p)
    lower = lam_lo * ref
    if ref == 0.0:
        return DistanceBracket(0.0, 0.0, ControlPath([]))

    _, branches = _log_branches(m, p)
    candidates = [_controls_path([(1.0, alpha, beta)])
                  for alpha, beta in branches]
    candidates += _coordinate_candidates(m, p)
    best_path = None
    best_cost = np.inf
    for cand in candidates:
        fixed = _repaired(m, cand, p)
        cost = path_length(m, fixed)
        if cost < best_cost:
            best_cost = cost
            best_path = fixed

    n_seg = 8

    def objective(z):
        rows = [(1.0 / n_seg, row[:3], row[3:])
                for row in z.reshape(n_seg, 6)]
        length = sum(dt * m.frame_norm(alpha, beta)
                     for dt, alpha, beta in rows)
        out = segment_product(m, rows)
        return length + pen * g0_distance_between(out, p)

    pen = 10.0 * lam_hi + 10.0
    starts = [_resample_controls(c, n_seg) for c in candidates[:5]]
    states = list(starts)
    for _ in range(max(0, int(budget))):
        for si, z0 in enumerate(states):
            try:
                res = optimize.minimize(
                    objective, z0, method="Powell",
                    options={"maxfev": 60 * n_seg, "xtol": 1e-6,
                             "ftol": 1e-8})
            except Exception:
                continue
            states[si] = res.x
            fixed = _repaired(m, _controls_path(
                (1.0 / n_seg, row[:3], row[3:])
                for row in res.x.reshape(n_seg, 6)), p)
            cost = path_length(m, fixed)
            if cost < best_cost:
                best_cost = cost
                best_path = fixed

    mismatch = g0_distance_between(segment_product(m, best_path.segments),
                                   p)
    if mismatch > 1e-6 * (1.0 + best_cost):
        raise RuntimeError(f"witness endpoint residual {mismatch:.3g}")
    lower = min(lower, best_cost)
    return DistanceBracket(lower, best_cost, best_path)


# -- ball volumes ------------------------------------------------------------

# torus sheet maps generating the full generic preimage of a chart point:
# even 2 pi lattice shifts and the reflection family, composed
_EVEN_SHIFTS = [np.array(s) for s in
                [(0.0, 0.0, 0.0), (TWO_PI, TWO_PI, 0.0),
                 (TWO_PI, 0.0, TWO_PI), (0.0, TWO_PI, TWO_PI)]]


def _sheet_apply(x, shift, reflect):
    out = x.copy()
    if reflect:
        out = np.stack([out[:, 0] + math.pi, math.pi - out[:, 1],
                        out[:, 2] + math.pi], axis=1)
    return wrap_circle(out + shift[None, :])


def _sheet_invert(x, shift, reflect):
    out = wrap_circle(x - shift[None, :])
    if reflect:
        out = np.stack([out[:, 0] - math.pi, math.pi - out[:, 1],
                        out[:, 2] - math.pi], axis=1)
        out = wrap_circle(out)
    return out


_SHEETS = [(s, ref) for ref in (False, True) for s in _EVEN_SHIFTS]


def _sample_cos_density(n, rng):
    """x2 with density |cos x2| / 8 on the circle, inverse CDF."""
    v = 8.0 * rng.random(n)
    half = np.floor(v / 2.0)
    s = v - 2.0 * half
    phi = np.where(s <= 1.0, np.arcsin(np.clip(s, 0.0, 1.0)),
                   math.pi - np.arcsin(np.clip(2.0 - s, 0.0, 1.0)))
    return wrap_circle(-TWO_PI + half * math.pi + phi)


def _hex_product_sample(hexes, n, rng):
    xs = np.empty((n, 3))
    ys = np.empty((n, 3))
    for i, h in enumerate(hexes):
        xs[:, i], ys[:, i] = sample_hexagon(h, n, rng)
    return xs, ys


def _hex_product_density(hexes, areas, xs, ys):
    dens = np.ones(xs.shape[0])
    for i, h in enumerate(hexes):
        inside = hexagon_contains(h, xs[:, i], ys[:, i])
        dens *= np.where(inside, 1.0 / areas[i], 0.0)
    return dens


def _outer_hexes(inp, rho, scale):
    return [Hexagon(scale * rho[i], inp.r / inp.a[i], inp.r, inp.d)
            for i in range(3)]


def _box_geometry(a, r):
    """Axis box certified inside the r-ball: rotate straight to x (cost
    sum a_i |x_i| <= r/2), then cancel the u = y - d x remainder (cost
    |u| <= r/3).  Extents stay below pi/2 so the chart is injective."""
    bx = np.minimum(r / (6.0 * a), EXTENT_CAP)
    bu = r / (3.0 * math.sqrt(3.0))
    return bx, bu


def _box_sample(bx, bu, d, count, rng):
    xs = rng.uniform(-bx, bx, (count, 3))
    ys = d * xs + rng.uniform(-bu, bu, (count, 3))
    return xs, ys


def _box_density(bx, bu, d, xs, ys):
    p = 1.0 / (float(np.prod(2.0 * bx)) * (2.0 * bu) ** 3)
    inside = (np.all(np.abs(xs) <= bx[None, :], axis=1)
              & np.all(np.abs(ys - d * xs) <= bu, axis=1))
    return np.where(inside, p, 0.0)


def _box_certified_mass(bx, bu):
    """Exact reference measure of the certified box (chart density
    |cos x2|), a deterministic positive lower bound for the ball."""
    ix2 = 2.0 * math.sin(min(bx[1], 0.5 * math.pi))
    return float(4.0 * bx[0] * bx[2] * ix2 * (2.0 * bu) ** 3)


def _accumulate(weights, in_mask, amb_mask):
    v_in = weights * in_mask
    v_up = weights * (in_mask | amb_mask)
    v_amb = weights * amb_mask
    n = weights.shape[0]
    return np.array([
        n, v_in.sum(), (v_in ** 2).sum(), v_up.sum(), (v_up ** 2).sum(),
        v_amb.sum()])


def ball_volume(m: DecoupledMetric, r: float, n: int = 100000,
                seed: int = 0, eta: float = 0.1,
                c_outer: float = 8.0) -> VolumeBracket:
    """Conservative Monte Carlo bracket of the reference-measure ball volume.

    Samples live in chart coordinates weighted by |cos x2|.  When the outer
    containment regime applies and its hexagons are narrow enough for the
    chart to be injective there, sampling restricts to a slightly enlarged
    outer region; otherwise it covers the full torus times the certain
    bounding box, dividing by the 8-fold chart multiplicity.  A small box
    around the identity is certified inside the ball outright, which keeps
    the lower bound positive.  Classification is by vectorized certified
    bounds, so ambiguous samples widen the bracket and never corrupt it.

    Two strata share one loop: a quarter of the samples in the core box,
    the rest in the outer region or the torus; every sample is weighted by
    the mixture density of both.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    mc = canonicalize(m)
    a = np.asarray(mc.a, dtype=float)
    d = mc.d
    lam_lo, _ = _lambda_bounds(mc.gram)
    inp = EstimatorInputs(r, tuple(a), d, eta)
    _, rho = m_rho(inp)
    flags = []

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    bx, bu = _box_geometry(a, r)
    cert_mass = _box_certified_mass(bx, bu)

    hex_mode = False
    if r <= eta * a[1]:
        plus = _outer_hexes(inp, rho, 1.25 * c_outer)
        if max(h.x_half_width for h in plus) <= EXTENT_CAP:
            hex_mode = True

    # sheets: the chart sheets the sampled region covers, one where the
    # chart is injective on it, all eight over the full torus
    if hex_mode:
        mode, sheets = "hexagon", _SHEETS[:1]
        std = _outer_hexes(inp, rho, c_outer)
        areas_plus = np.array([hexagon_area(h) for h in plus])

        def draw_rest(take):
            return _hex_product_sample(plus, take, rng)

        def rest_density(xs, ys, jac):
            return _hex_product_density(plus, areas_plus, xs, ys)
    else:
        mode, sheets = "fallback", _SHEETS
        half = linear_upper(inp)
        vol_box = float(np.prod(2.0 * half))

        def draw_rest(take):
            x2 = _sample_cos_density(take, rng)
            x1 = rng.uniform(-TWO_PI, TWO_PI, take)
            x3 = rng.uniform(-TWO_PI, TWO_PI, take)
            return (np.stack([x1, x2, x3], axis=1),
                    rng.uniform(-half, half, (take, 3)))

        def rest_density(xs, ys, jac):
            return (jac / 8.0) * (1.0 / FOUR_PI) ** 2 / vol_box
    mult = len(sheets)

    def draw_core(take):
        xs, ys = _box_sample(bx, bu, d, take, rng)
        sheet_idx = rng.integers(0, mult, take)
        for si, (shift, refl) in enumerate(sheets):
            picked = sheet_idx == si
            if picked.any():
                xs[picked] = _sheet_apply(xs[picked], shift, refl)
        return xs, ys

    def core_density(xs, ys):
        return sum(_box_density(bx, bu, d, _sheet_invert(xs, shift, refl), ys)
                   for shift, refl in sheets)

    n_core = n // 4
    n_rest = n - n_core
    chunk = 1 << 17
    totals = np.zeros(6)
    leak = 0
    for draw, count in ((draw_core, n_core), (draw_rest, n_rest)):
        for start in range(0, count, chunk):
            take = min(chunk, count - start)
            xs, ys = draw(take)
            jac = np.abs(np.cos(xs[:, 1]))
            dens = ((n_rest / n) * rest_density(xs, ys, jac)
                    + (n_core / n) * core_density(xs, ys) / mult)
            ref, low_m, upper = _certified_bounds(a, d, xs, ys)
            low = np.maximum(lam_lo * ref, low_m)
            in_mask = upper <= r
            amb_mask = (~in_mask) & (low <= r)
            weights = jac / (dens * n) / mult
            totals += _accumulate(weights, in_mask, amb_mask)
            if hex_mode and in_mask.any():
                member = np.ones(take, dtype=bool)
                for i, h in enumerate(std):
                    member &= np.asarray(
                        hexagon_contains(h, xs[:, i], ys[:, i]))
                leak += int(np.count_nonzero(in_mask & ~member))
    if leak:
        flags.append("containment_ring_hits")

    _, s_in, s2_in, s_up, s2_up, s_amb = totals
    # s_* are sums of per-sample contributions v_s that already carry 1/n,
    # so the mean is the plain sum and SE^2 = (n sum v^2 - (sum v)^2)/(n-1)
    se_in = math.sqrt(max(0.0, n * s2_in - s_in ** 2) / max(1, n - 1))
    se_up = math.sqrt(max(0.0, n * s2_up - s_up ** 2) / max(1, n - 1))
    lower = max(cert_mass, s_in - CONFIDENCE_Z * se_in)
    upper_v = max(s_up + CONFIDENCE_Z * se_up, lower)
    amb = s_amb
    if s_up > 0.0 and amb > 0.2 * s_up:
        flags.append("low_confidence")
    return VolumeBracket(lower, upper_v, amb, int(n), int(seed),
                         mode, tuple(flags))


# -- sweep -------------------------------------------------------------------

# one report row per cell, in this column order
SWEEP_COLUMNS = (
    "idx", "a1", "a2", "a3", "d", "r", "samples", "mode_r", "mode_2r",
    "vbar_r", "vbar_2r", "vbar_ratio", "calc_bound",
    "lower_r", "upper_r", "ambig_r", "lower_2r", "upper_2r", "ambig_2r",
    "ratio_low_r", "ratio_high_r", "ratio_low_2r", "ratio_high_2r",
    "doubling_ratio", "word_mprime", "word_residual", "mdd_emp",
    "inner_mass", "outer_mass", "flags",
)
_LOG_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
_D_GRID = (0.0, 1.0, 100.0, 10000.0)


def default_sweep_grid(a_vals=_LOG_GRID, d_vals=_D_GRID, r_vals=_LOG_GRID):
    """Ascending triples from a_vals crossed with tilts and radii; the
    defaults give the 700-cell log grid."""
    vals = tuple(sorted(set(a_vals)))
    cells = []
    for i1, a1 in enumerate(vals):
        for i2 in range(i1, len(vals)):
            for i3 in range(i2, len(vals)):
                for d in d_vals:
                    for r in r_vals:
                        cells.append({"a": (a1, vals[i2], vals[i3]),
                                      "d": d, "r": r})
    return cells


def _seed_from(master, *key):
    ss = np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _word_spot_residual(a, d, r, eta):
    m = from_parameters(a[0], a[1], a[2], d)
    caps = np.minimum(r / np.asarray(a), eta)
    s = 0.9 * min(caps[0], math.pi)
    t = 0.9 * min(caps[1], 0.5 * math.pi)
    f, _ = commutator_identity(s, t)
    path = _factors_to_path(word_factors(s, t, (0, 1, 2)))
    target = exp_group(AlgebraElement(f * m.u_columns()[:, 2]))
    return g0_distance_between(segment_product(m, path.segments), target)


def _mdd_empirical(a, d, r, eta, iota, seed):
    """Empirical inner multiple: max certified distance over points of the
    truncated inner set, divided by r."""
    inp = EstimatorInputs(r, tuple(a), d, eta)
    hexes, _ = containment_sets(inp, Side.INNER)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = np.empty((0, 3))
    ys = np.empty((0, 3))
    for _ in range(6):
        cx, cy = _hex_product_sample(hexes, 256, rng)
        keep = np.all(np.abs(cx) <= iota, axis=1)
        xs = np.vstack([xs, cx[keep]])
        ys = np.vstack([ys, cy[keep]])
        if xs.shape[0] >= 64:
            break
    if xs.shape[0] == 0:
        return float("nan")
    _, _, upper = _certified_bounds(np.asarray(a, float), d, xs[:64], ys[:64])
    return float(np.max(upper) / r)


def sweep(grid=None, samples: int = 10000, seed: int = 0,
          eta: float = 0.1, iota: float = math.pi / 4,
          c_outer: float = 8.0, m_dd: float = 6.0):
    """Run the sandwich / doubling verification sweep.

    Returns {"rows": [...], "summary": {...}}; each row is an ordered dict
    of plain floats and strings so reports serialize deterministically.
    Per-cell errors are recorded in the row's flags, never raised.
    """
    if grid is None:
        grid = default_sweep_grid()
    rows = []
    ratio_low = []
    ratio_high = []
    doubling = []
    mdd_vals = []
    any_leak = False
    n_ambig_flagged = 0
    calc_bound = vbar_g_doubling_bound()
    for idx, cell in enumerate(grid):
        a = tuple(float(v) for v in cell["a"])
        d = float(cell["d"])
        r = float(cell["r"])
        row = {"idx": idx, "a1": a[0], "a2": a[1], "a3": a[2], "d": d,
               "r": r, "samples": samples}
        flags = []
        try:
            m = from_parameters(a[0], a[1], a[2], d)
            inp_r = EstimatorInputs(r, a, d, eta)
            inp_2r = EstimatorInputs(2.0 * r, a, d, eta)
            vb_r = vbar_g(inp_r)
            vb_2r = vbar_g(inp_2r)
            vol_r = ball_volume(m, r, samples, _seed_from(seed, idx, 0),
                                eta, c_outer)
            vol_2r = ball_volume(m, 2.0 * r, samples,
                                 _seed_from(seed, idx, 1), eta, c_outer)
            flags.extend(f"r:{f}" for f in vol_r.flags)
            flags.extend(f"2r:{f}" for f in vol_2r.flags)
            if vol_r.lower > vol_r.upper or vol_2r.lower > vol_2r.upper:
                raise RuntimeError("bracket inversion")
            _, rho = m_rho(inp_r)
            try:
                wpath = word_upper_bound(m, 2, rho[2], r, eta)
                mprime = path_length(m, wpath) / r
            except OutOfRange:
                mprime = float("nan")
            wres = _word_spot_residual(a, d, r, eta)
            mdd_emp = _mdd_empirical(a, d, r, eta, iota,
                                     _seed_from(seed, idx, 2))
            inner_hexes, _ = containment_sets(inp_r, Side.INNER)
            inner_mass = float(np.prod(
                [hexagon_area_truncated(h, iota) for h in inner_hexes]))
            try:
                outer_hexes, _ = containment_sets(inp_r, Side.OUTER,
                                                  c_outer)
                outer_mass = float(np.prod(
                    [hexagon_area(h) for h in outer_hexes]))
            except Exception:
                outer_mass = float("nan")
                flags.append("outer_regime_gate")
            row.update({
                "mode_r": vol_r.mode, "mode_2r": vol_2r.mode,
                "vbar_r": vb_r, "vbar_2r": vb_2r,
                "vbar_ratio": vb_2r / vb_r, "calc_bound": calc_bound,
                "lower_r": vol_r.lower, "upper_r": vol_r.upper,
                "ambig_r": vol_r.ambiguous_mass,
                "lower_2r": vol_2r.lower, "upper_2r": vol_2r.upper,
                "ambig_2r": vol_2r.ambiguous_mass,
                "ratio_low_r": vol_r.lower / vb_r,
                "ratio_high_r": vol_r.upper / vb_r,
                "ratio_low_2r": vol_2r.lower / vb_2r,
                "ratio_high_2r": vol_2r.upper / vb_2r,
                "doubling_ratio": (vol_2r.upper / vol_r.lower
                                   if vol_r.lower > 0.0 else float("inf")),
                "word_mprime": mprime, "word_residual": wres,
                "mdd_emp": mdd_emp, "inner_mass": inner_mass,
                "outer_mass": outer_mass,
            })
            ratio_low.extend([row["ratio_low_r"], row["ratio_low_2r"]])
            ratio_high.extend([row["ratio_high_r"], row["ratio_high_2r"]])
            doubling.append(row["doubling_ratio"])
            if math.isfinite(mdd_emp):
                mdd_vals.append(mdd_emp)
            if "r:containment_ring_hits" in flags or \
                    "2r:containment_ring_hits" in flags:
                any_leak = True
            if any("low_confidence" in f for f in flags):
                n_ambig_flagged += 1
        except Exception as exc:
            flags.append(f"error:{type(exc).__name__}")
            for key in SWEEP_COLUMNS:
                if key not in row:
                    row[key] = "" if key.startswith("mode_") else float("nan")
        row["flags"] = ";".join(flags)
        rows.append(row)
    c_emp = min(ratio_low) if ratio_low else float("nan")
    c_high = max(ratio_high) if ratio_high else float("nan")
    sup_doubling = max(doubling) if doubling else float("nan")
    envelope_bound = (calc_bound * c_high / c_emp if c_emp and c_emp > 0.0
                      else float("inf"))
    summary = {
        "cells": len(rows), "samples": samples, "seed": seed,
        "eta": eta, "iota": iota, "c_outer": c_outer, "m_dd": m_dd,
        "c_emp": c_emp, "C_emp": c_high, "sup_doubling": sup_doubling,
        "calc_bound": calc_bound, "envelope_bound": envelope_bound,
        "doubling_ok": bool(sup_doubling <= envelope_bound),
        "containment_leak": any_leak,
        "low_confidence_cells": n_ambig_flagged,
        "mdd_emp_max": max(mdd_vals) if mdd_vals else float("nan"),
    }
    return {"rows": rows, "summary": summary}
