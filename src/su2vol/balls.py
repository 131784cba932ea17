"""Certified distance brackets, constructive word paths, Monte Carlo ball
volumes for the reference measure, and the sweep harness.

Distances are certified two-sided: the lower bound is the speed floor of
the rotation and translation a path must cover, every upper bound is the
exact length of an explicitly constructed control path.  Ball volumes
classify samples through vectorized versions of the same bounds.  One
draw loop serves both sampling modes: it draws from a set S of known
reference mass that contains the ball (the speed floor bounds the
rotation angle by r / a_min and each central coordinate by d r / a_i + r),
and counts certain and possible hits outside a core box certified inside
the ball.  Each draw is settled by the cheapest bound that decides it:
the speed floor at angle 0 from the central coordinates alone, then the
floor at the draw's angle, then the upper bounds; possible means floor
<= r, certain means possible and upper <= r.  The counts are exactly
binomial, so one Clopper-Pearson bound turns them into a 99% bracket for
any sample count; ambiguous samples only ever widen it.
"""
from __future__ import annotations

import ctypes
import math
import numbers
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy import optimize, special

from .algebra import (AlgebraElement, GroupElement, angle_axis, exp_group,
                      factor_product, g0_distance_between, mul)
from .frames import (ControlPath, PathSegment, chart_angles,
                     commutator_identity, euler_quat, factor_table,
                     path_length, segment_factor, segment_product,
                     word_factors, word_rows)
from .metrics import DecoupledMetric, canonicalize, from_parameters
from .volumes import (C_OUTER, EstimatorInputs, OutOfRegime, Side,
                      containment_sets, hexagon_area, hexagon_area_truncated,
                      hexagon_contains, linear_upper, m_rho, sample_hexagon,
                      vbar_g, vbar_g_doubling_bound)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
SQRT8 = math.sqrt(8.0)
# x-extent cap under which the chart is injective on the sampling region:
# every collision family moves some angle by at least pi
EXTENT_CAP = 1.45
ALPHA = 0.01  # volume brackets hold at two-sided level 1 - ALPHA
# longest word repetition a distance candidate may use; beyond it the axis
# is only turned directly (a tiny stretch would need astronomically many)
MAX_WORD_REPEATS = 1e4
# ball_volume draws and classifies its samples CHUNK at a time, each chunk
# from its own seeded stream
CHUNK = 1 << 14


def _keep_heap():
    """Keep freed memory in glibc's heap, once per process (forked workers
    inherit it).  A chunk's arrays swing the heap top by 4-16 MiB; at the
    default trim threshold free() handed that back after every chunk, and
    the next chunk page-faulted it in again.  So the trim threshold goes to
    64 MiB.  Setting it freezes glibc's adaptive mmap threshold, which would
    then map each large array afresh, so that goes to its adaptive ceiling,
    32 MiB.  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_heap()


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

def _balanced_words(phi, s_cap, t_cap):
    """(n_rep, s, t), vectorized: n_rep copies of the 7-factor word with
    A-turn s and B-turn t = min(t_cap, pi / 2) realize e^{phi [u_A, u_B]}.
    n_rep is the fewest copies whose largest turn f(min(s_cap, pi), t)
    reaches |phi|, inf where that turn is 0, and s solves f(s, t) =
    phi / n_rep, f as in commutator_identity.  As |tau| <= t / 2, the
    word's length is at most n_rep (2 a_A |s| + 3 a_B t)."""
    t = np.minimum(t_cap, 0.5 * math.pi)
    sin_t = np.sin(0.5 * t)
    reach = 4.0 * np.arcsin(np.sin(0.5 * np.minimum(s_cap, math.pi)) * sin_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_rep = np.maximum(1.0, np.ceil(np.abs(phi) / reach))
        ratio = np.sin(np.abs(phi) / n_rep / 4.0) / sin_t
    return n_rep, np.copysign(2.0 * np.arcsin(np.fmin(1.0, ratio)), phi), t


def _repeated_word(n_rep, s, t, axes):
    """n_rep copies of the 7-factor word with turns (s, t) on axes (A, B, i),
    whose product is e^{n_rep f(s, t) [u_A, u_B]}; None when n_rep exceeds
    MAX_WORD_REPEATS."""
    if not n_rep <= MAX_WORD_REPEATS:
        return None
    return word_factors(float(s), float(t), axes) * int(n_rep)


def _second_order_factors(A, B, i, eps, sigma, caps):
    """Factors for e^{sigma u_i} from an outer word on (A, B), whose bracket
    is eps u_i, where each B-rotation is itself an inner word on (A, i),
    whose bracket is -eps u_B.  The outer B-turns stay below the inner
    words' largest turn, so each inner word is one copy.  The outer copies
    are equal, so one is expanded and repeated; an outer word repeating
    more than MAX_WORD_REPEATS times is left out."""
    if sigma == 0.0:
        return []
    reach, _ = commutator_identity(min(caps[A], math.pi),
                                   min(caps[i], 0.5 * math.pi))
    n_rep, s, t = _balanced_words(eps * sigma, caps[A], 0.999 * reach)
    if not n_rep <= MAX_WORD_REPEATS:
        return []
    expanded = []
    for axis, angle in word_factors(float(s), float(t), (A, B, i)):
        if axis != B or angle == 0.0:
            expanded.append((axis, angle))
        else:
            expanded.extend(_repeated_word(*_balanced_words(
                -eps * angle, caps[A], caps[i]), (A, i, B)))
    return expanded * int(n_rep)


def _word_gap(m, i, phi, rows):
    """g0 distance between the endpoint of rows and e^{phi u_i}."""
    target = exp_group(AlgebraElement(phi * m.u_columns()[:, i]))
    return g0_distance_between(segment_product(m, rows), target)


def word_upper_bound(m: DecoupledMetric, axis: int, sigma: float,
                     r_hint: float, eta: float = 0.1) -> ControlPath:
    """Control path reaching e^{sigma u_axis} without direct rotations about
    the target axis beyond its cap; valid while |sigma| <= rho_axis.

    The target splits into the three reachable budgets: a first-order word
    on the complementary axes, then two nested second-order words.  Every
    word is centrally balanced, so the path has zero net translation.
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
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
    # a word that would repeat too often is left out, and the residual
    # check below rejects the path
    factors = _repeated_word(*_balanced_words(part_a, caps[j], caps[k]),
                             (j, k, i)) or []
    factors += _second_order_factors(j, k, i, 1.0, part_b, caps)
    factors += _second_order_factors(k, j, i, -1.0, part_c, caps)
    rows = word_rows(factors, 0.0)
    residual = _word_gap(m, i, sigma, rows)
    if residual > 1e-8:
        raise OutOfRange(f"word construction residual {residual:.3g}")
    return ControlPath([PathSegment(*row) for row in rows])


# -- vectorized certified bounds ---------------------------------------------

def _axis_words(a, i, phi):
    """The two balanced-word choices for e^{phi u_i}, phi a scalar or an
    array: per axis pair (A, B), its price n_rep (2 a_A |s| + 3 a_B t) and
    the (n_rep, s, t, (A, B, i)) of its word.  The caps balance the turns'
    costs, 2 a_A s_cap = 3 a_B t_cap, at s_cap t_cap = sqrt(8) |phi|."""
    j, k = (i + 1) % 3, (i + 2) % 3
    scaled = SQRT8 * np.abs(phi)
    for A, B, eps in ((j, k, 1.0), (k, j, -1.0)):
        ca, cb = 2.0 * a[A], 3.0 * a[B]
        n_rep, s, t = _balanced_words(eps * phi, np.sqrt(scaled * cb / ca),
                                      np.sqrt(scaled * ca / cb))
        yield n_rep * (ca * np.abs(s) + cb * t), (n_rep, s, t, (A, B, i))


def _axis_word_cost(a, i, phi):
    """Length bound, vectorized, of the word _word_factors_free builds for
    e^{phi u_i}: the cheaper pair's price.  Words beyond MAX_WORD_REPEATS
    are priced too; they exist, they are only not built."""
    (price_a, _), (price_b, _) = _axis_words(a, i, phi)
    return np.where(np.asarray(phi) != 0.0, np.minimum(price_a, price_b), 0.0)


def _speed_floor(a_min, d, theta, y_norm):
    """Certified lower bound on the distance to rotation angle theta and
    central norm y_norm (arrays or scalars, d >= 0).  Speed is at least
    sqrt(a_min^2 |alpha|^2 + |beta|^2); a path needs total rotation
    Phi >= theta and pure-central control B >= |y| - d Phi, so it costs at
    least min over Phi >= theta of hypot(a_min Phi, max(0, |y| - d Phi)),
    a convex function of Phi.  That minimum cannot fall as theta grows,
    so the floor at theta = 0 bounds the floor at every angle."""
    phi_hat = np.maximum(theta, d * y_norm / (a_min ** 2 + d ** 2))
    slack = np.maximum(0.0, y_norm - d * phi_hat)
    return np.hypot(a_min * phi_hat, slack)


def _lambda_max(a, d):
    """Square root of the decoupled Gram's top eigenvalue, that of its 2x2
    block [[a^2 + d^2, -d], [-d, 1]] at the largest a."""
    s = a * a + d * d + 1.0
    return math.sqrt(0.5 * (s + math.sqrt((s - 2.0 * a) * (s + 2.0 * a))))


def _certified_bounds(a, d, x, y, r=math.inf):
    """(lower bound, upper bound) per sample.

    x are chart angles in the metric's own frame, each in [-2 pi, 2 pi]
    and so its own minimal representative on the 4 pi circle; y are
    central coordinates in the orthonormal f-frame; both are three
    columns (see frames).  The lower bound is the speed floor.  The upper
    bound is the shortest of ten path lengths: the two straight-log
    branches, and the eight chart-ordered paths that turn each axis i by
    x_i either directly, at cost a_i |x_i| with central drift d x_i, or
    by a balanced word of cost _axis_word_cost and no drift, and then
    close the central residual y - drift in a straight line.

    Each axis's two (cost, squared residual) choices are computed once,
    and every candidate is (c0 + c1) + c2 + sqrt((s0 + s1) + s2).  That
    is the left-to-right order of numpy's 3-wide axis-1 sums, so the
    bounds equal those of the (n, 3) formulation bit for bit.

    With a finite r each row stops at the cheapest bound that settles it
    against r.  A row whose floor exceeds r is a miss: no path is priced
    and its upper is inf, a valid bound.  Of the other rows, those whose
    residual floor sqrt((m0 + m1) + m2), m_i the smaller of axis i's two
    squared residuals, exceeds r skip the eight candidates and keep the
    straight-log minimum.  That gate is exact: every candidate's s_i >=
    m_i and its cost sum is >= 0, and rounded addition and sqrt are
    monotone, so every skipped candidate is > r.  Lower bounds equal the
    ungated ones, and so does every upper of a row whose ungated lower and
    upper are both <= r; so the verdicts lower <= r and (lower <= r and
    upper <= r) are those of the ungated bounds.  At r = inf every row
    takes every path.
    """
    a = np.asarray(a, dtype=float)
    theta, axis_hat = angle_axis(euler_quat(*x))
    y_sq = [y[i] ** 2 for i in range(3)]
    y_norm = np.sqrt((y_sq[0] + y_sq[1]) + y_sq[2])
    lower = _speed_floor(float(np.min(a)), d, theta, y_norm)
    upper = np.full(theta.shape, np.inf)

    live = np.flatnonzero(~(lower > r))
    theta = theta[live]
    axis_hat, x, y, y_sq = ([c[live] for c in v]
                            for v in (axis_hat, x, y, y_sq))
    best = np.full(theta.shape[0], np.inf)
    for branch in (theta, theta - FOUR_PI):
        alpha = [branch * axis_hat[i] for i in range(3)]
        rot = [(a[i] * alpha[i]) ** 2 for i in range(3)]
        beta = [(y[i] - d * alpha[i]) ** 2 for i in range(3)]
        cost = np.sqrt(((rot[0] + rot[1]) + rot[2])
                       + ((beta[0] + beta[1]) + beta[2]))
        np.minimum(best, cost, out=best)

    drifted = [(y[i] - d * x[i]) ** 2 for i in range(3)]
    least = [np.minimum(y_sq[i], drifted[i]) for i in range(3)]
    rows = np.flatnonzero(~(np.sqrt((least[0] + least[1]) + least[2]) > r))
    # axis i's (rotation cost, squared central residual): the word and no
    # drift where bit i of the mask is clear, the direct turn and its
    # drift d nu_i where it is set
    choices = []
    for i in range(3):
        x_i = x[i][rows]
        choices.append(((_axis_word_cost(a, i, x_i), y_sq[i][rows]),
                        (np.abs(x_i) * a[i], drifted[i][rows])))
    priced = best[rows]
    for mask in range(8):
        (c0, s0), (c1, s1), (c2, s2) = (choices[i][(mask >> i) & 1]
                                        for i in range(3))
        cost = ((c0 + c1) + c2) + np.sqrt((s0 + s1) + s2)
        np.minimum(priced, cost, out=priced)
    best[rows] = priced
    upper[live] = best
    return lower, upper


# -- distance bracket --------------------------------------------------------

def _frame_coordinates(m: DecoupledMetric, p: GroupElement):
    """(quaternion in frame axes, central f-coordinates) of p."""
    R = m.V[:3]
    q = p.q / np.linalg.norm(p.q)
    q_frame = np.concatenate([[q[0]], R.T @ q[1:]])
    y_f = m.F[3:].T @ p.vec
    return q_frame, y_f


def _log_branches(m, q, y_f):
    """Rotation angle theta and central norm |y_f| of the element with frame
    coordinates (q, y_f), and the straight-log controls (alpha, beta) of its
    two branches, theta and theta - 4 pi."""
    theta, axis_hat = angle_axis(q)
    axis_hat = np.array(axis_hat)
    branches = []
    for ang in (theta, theta - FOUR_PI):
        alpha = ang * axis_hat
        branches.append((alpha, y_f - m.d * alpha))
    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(y_f))
    return theta, y_norm, branches


def _controls_path(rows):
    """ControlPath of (duration, alpha, beta) rows; rows that do not move
    are skipped."""
    return ControlPath([PathSegment(dt, np.array(alpha, dtype=float),
                                    np.array(beta, dtype=float))
                        for dt, alpha, beta in rows
                        if np.any(alpha) or np.any(beta)])


def _coordinate_candidates(m, q, y_f):
    """Paths to the element with frame coordinates (q, y_f) traversing the
    chart axes in order, with optional word replacements per axis;
    translation correction appended."""
    a = np.asarray(m.a, dtype=float)
    # chart_angles returns each angle's minimal representative
    nu = np.array(chart_angles(q))
    words = [_word_factors_free(a, axis, nu[axis]) for axis in range(3)]
    out = []
    for mask in range(8):
        factors = []
        drift = np.zeros(3)
        for axis in (2, 1, 0):
            if (mask >> axis) & 1:
                factors.append((axis, nu[axis]))
                drift[axis] += m.d * nu[axis]
            elif words[axis] is None:
                break
            else:
                factors.extend(words[axis])
        else:
            segments = [PathSegment(*row) for row in word_rows(factors, 0.0)]
            beta = y_f - drift
            if np.linalg.norm(beta) > 0.0:
                segments.append(PathSegment(1.0, np.zeros(3), beta))
            out.append(ControlPath(segments))
    return out


def _word_factors_free(a, i, phi):
    """Concrete factors of the word _axis_word_cost prices for e^{phi u_i},
    the first pair's on a tie; None when it would repeat more than
    MAX_WORD_REPEATS times."""
    if phi == 0.0:
        return []
    (price_a, word_a), (price_b, word_b) = _axis_words(a, i, phi)
    return _repeated_word(*(word_b if price_b < price_a else word_a))


def _repaired(m, path, p):
    """path closed by the shorter straight-log segment to p.  Every
    segment of path already moves, so only the closing one is filtered."""
    gap = mul(segment_product(m, path.segments).inverse(), p)
    theta, _, branches = _log_branches(m, *_frame_coordinates(m, gap))
    alpha, beta = branches[int(theta > math.pi)]
    return ControlPath(list(path.segments)
                       + _controls_path([(1.0, alpha, beta)]).segments)


def _resample_controls(path, n_seg):
    """Powell's start from path: n_seg slots of controls, flattened.  Slot i
    holds the controls of the segment under its midpoint, scaled by that
    segment's duration over total / n_seg.  Resampling path onto unit time
    would scale by total instead, so this start is not path: a straight
    log (one segment of duration 1) starts at n_seg times its controls.

    The distortion is kept because it is what Powell improves.  On 60
    inputs (rng seed 3: a sorted from 10^U(-1, 1); d = 10^U(-1, 1) with
    probability 0.75, else 0; p = exp_group(N(0, I_6))), budget 2 beat
    budget 0 on 7, every win from starts 2-4, the chart paths.  With the
    factor total, every lower stayed equal, 8 uppers fell by at most
    2 ulp and 7 rose by up to 1.43x.
    """
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


def _powell_objective(m, p, n_seg, pen):
    """Powell's objective over n_seg controls rows of duration 1/n_seg,
    flattened into z: the path length plus pen times the g0 gap from the
    path's endpoint to p.

    Powell mostly moves one coordinate at a time, so each segment slot
    keeps its length term and segment factor under the exact bytes of
    its six controls, and only slots whose bytes changed are recomputed.
    Equal bytes are equal floats, signed zeros and NaNs included, so
    every value equals sum(dt * frame_norm) plus pen times
    g0_distance_between(segment_product(m, rows), p) computed afresh.
    """
    dt = 1.0 / n_seg
    d, UF = factor_table(m)
    keys = [None] * n_seg
    lengths = [0.0] * n_seg
    factors = [None] * n_seg

    def objective(z):
        raw = z.tobytes()
        for i in range(n_seg):
            # a slot is six float64 controls, 48 bytes
            key = raw[48 * i:48 * i + 48]
            if key != keys[i]:
                row = z[6 * i:6 * i + 6].tolist()
                alpha, beta = row[:3], row[3:]
                factors[i] = segment_factor(d, UF, dt, alpha, beta)
                lengths[i] = dt * m.frame_norm(alpha, beta)
                keys[i] = key
        return sum(lengths) + pen * g0_distance_between(
            factor_product(factors), p)

    return objective


def distance_bracket(m: DecoupledMetric, p: GroupElement,
                     budget: int = 2) -> DistanceBracket:
    """Certified two-sided distance estimate from the identity to p.

    The lower bound is the speed floor of p's rotation angle and central
    norm; upper bounds come from explicit paths (straight logs, chart-ordered
    rotations with optional word substitutions, then budget rounds of
    Powell refinement over 8-segment controls).  Each refined path gets a
    closing log-correction segment, so every witness reaches p exactly.
    Raises ValueError, before any other work, where both straight-log
    lengths overflow (central norms beyond about 1e154).
    """
    q, y_f = _frame_coordinates(m, p)
    theta, y_norm, branches = _log_branches(m, q, y_f)
    if theta == 0.0 and y_norm == 0.0:
        return DistanceBracket(0.0, 0.0, ControlPath([]))
    candidates = [_controls_path([(1.0, alpha, beta)])
                  for alpha, beta in branches]
    if not any(math.isfinite(path_length(m, c)) for c in candidates):
        raise ValueError(f"no candidate path to p has a finite length: both "
                         f"straight logs overflow (central norm {y_norm:.3g})")
    lower = float(_speed_floor(float(np.min(m.a)), abs(m.d), theta, y_norm))
    candidates += _coordinate_candidates(m, q, y_f)

    n_seg = 8
    pen = 10.0 * _lambda_max(float(np.max(m.a)), m.d) + 10.0
    objective = _powell_objective(m, p, n_seg, pen)
    states = [_resample_controls(c, n_seg) for c in candidates[:5]]
    for _ in range(int(budget)):
        for si, z0 in enumerate(states):
            try:
                res = optimize.minimize(
                    objective, z0, method="Powell",
                    options={"maxfev": 60 * n_seg, "xtol": 1e-6,
                             "ftol": 1e-8})
            except (ValueError, ArithmeticError):
                # the objective's documented failures: non-finite
                # coefficients, math.sin(inf) of an overflowing rotation
                continue
            states[si] = res.x
            candidates.append(_controls_path(
                (1.0 / n_seg, row[:3], row[3:])
                for row in res.x.reshape(n_seg, 6)))

    best_path = None
    best_cost = np.inf
    for cand in candidates:
        fixed = _repaired(m, cand, p)
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

def _theta_mass(theta):
    """theta - sin theta, to full relative precision: below 0.25, where the
    difference cancels, by its Taylor series up to theta^13 (the first
    omitted term is below 1e-18 of the sum there).  8 pi times it is the
    reference mass of the rotations of angle at most theta.  Each element
    takes only its own branch's work."""
    theta = np.asarray(theta, dtype=float)
    small = theta < 0.25
    if small.all():
        return _theta_mass_series(theta)
    if not small.any():
        return theta - np.sin(theta)
    # index takes: boolean masks and ufunc where= both measured slower
    flat = theta.ravel()
    out = np.empty_like(flat)
    rows = np.flatnonzero(small)
    out[rows] = _theta_mass_series(flat[rows])
    rows = np.flatnonzero(~small)
    big = flat[rows]
    out[rows] = big - np.sin(big)
    return out.reshape(theta.shape)


def _theta_mass_series(theta):
    t2 = theta * theta
    return theta * t2 * (1.0 / 6.0 - t2 * (1.0 / 120.0 - t2 * (
        1.0 / 5040.0 - t2 * (1.0 / 362880.0 - t2 * (
            1.0 / 39916800.0 - t2 / 6227020800.0)))))


def _invert_theta_mass(c):
    """theta in [0, 2 pi] with theta - sin theta = c, for c in [0, 2 pi].

    f(theta) = theta - sin theta is odd about (pi, pi), so c > pi is solved
    as 2 pi - f^-1(2 pi - c): Newton then runs on [0, pi] only, where f is
    convex and f' = 2 sin^2(theta/2) vanishes only at 0 (near 2 pi, where
    f' vanishes too, plain Newton stalls).  The start (6c)^(1/3) lies left
    of the root since sin t >= t - t^3/6, the first step lands right of it,
    and from there the iterates fall monotonically, quadratically at the
    end; four steps reach the rounding floor from the worst start, and a
    fifth is kept in hand.
    """
    c = np.asarray(c, dtype=float)
    upper = c > math.pi
    c = np.where(upper, TWO_PI - c, c)
    theta = np.minimum(np.cbrt(6.0 * c), math.pi)
    for _ in range(5):
        slope = 2.0 * np.sin(0.5 * theta) ** 2
        gap = _theta_mass(theta) - c
        step = np.divide(gap, slope, out=np.zeros_like(gap), where=slope > 0.0)
        theta = np.clip(theta - step, 0.0, math.pi)
    return np.where(upper, TWO_PI - theta, theta)


def _column_norm(c):
    """Euclidean norm of the rows of three columns, summed in the order of
    numpy's axis-1 norm of their (n, 3) stack, so equal to it bit for
    bit."""
    return np.sqrt((c[0] * c[0] + c[1] * c[1]) + c[2] * c[2])


def _hex_product_sample(hexes, n, rng):
    """n uniform points of the hexagon product as (x, y), three columns
    each: one (x, y) pair of columns from sample_hexagon per hexagon."""
    x, y = zip(*(sample_hexagon(h, n, rng) for h in hexes))
    return x, y


def _core_box(a, r):
    """(bx, bu, exact mass) of an axis box certified inside the r-ball:
    |x_i| <= bx_i and |y - d x| <= bu.  Rotating straight to x costs
    sum a_i |x_i| <= r/2, cancelling u = y - d x costs |u| <= r/3; extents
    stay below pi/2, so the chart is injective and the box's reference
    mass is its chart integral of |cos x2|, inf where it overflows (a
    float64 power, unlike Python's, does not raise)."""
    bx = np.minimum(r / (6.0 * a), EXTENT_CAP)
    bu = r / (3.0 * math.sqrt(3.0))
    return bx, bu, float(4.0 * bx[0] * bx[2] * 2.0 * math.sin(bx[1])
                         * np.float64(2.0 * bu) ** 3)


def _clopper_pearson(k, n):
    """Exact binomial interval (Clopper & Pearson 1934) for the success
    probability after k successes in n trials: each end holds at one-sided
    level ALPHA / 2, whatever k and n >= 1."""
    lo = float(special.betaincinv(k, n - k + 1, 0.5 * ALPHA)) if k > 0 else 0.0
    hi = (float(special.betaincinv(k + 1, n - k, 1.0 - 0.5 * ALPHA))
          if k < n else 1.0)
    return lo, hi


def ball_volume(m: DecoupledMetric, r: float, n: int = 100000,
                seed: int = 0, eta: float = 0.1) -> VolumeBracket:
    """Certified 99% Monte Carlo bracket of the reference-measure ball volume.

    vol = cert_mass + M(S) p.  cert_mass is the exact mass of a small box
    around the identity that lies inside the ball outright, which keeps the
    lower bound positive.  S is a set of known reference mass M(S) that
    contains the ball, and p is the probability that a draw from S is
    accepted, lies in the ball and lies outside the box.  Each of the n
    draws is independent and succeeds with exactly that probability, so
    the number of certain hits and the number of possible hits are
    exactly binomial: their Clopper-Pearson ends at 0.5% each give the
    lower and the upper bound, for every n >= 1 and zero hits included.
    Ambiguous samples only widen the bracket.

    Each draw is settled by the cheapest bound that decides it: first the
    speed floor at rotation angle 0, which reads only the central
    coordinates and is at most the floor at any angle, so a draw above r
    is a miss before any rotation work (no angle inversion, chart or
    angle-axis); then, with the draw's angle, the floor; and only then
    the gated upper bounds of _certified_bounds.  A draw is a possible
    hit when its floor is <= r, and a certain hit when it is possible and
    its certified upper bound is <= r.

    Fallback mode: S = T = {rotation angle theta <= theta_m} x box, drawn
    uniformly in reference measure and accepted always.  A path of length
    L <= r turns by Phi >= theta in total at speed at least a_min |alpha|,
    so theta <= Phi <= r / a_min, and theta <= 2 pi anyway: theta_m =
    min(r / a_min, 2 pi).  Its central coordinate moves by d alpha_i + beta_i,
    so |y_i| <= d r / a_i + r, the linear_upper box.  The rotations of angle
    at most theta_m have mass 8 pi (theta_m - sin theta_m); theta is drawn
    by inverting that, the axis uniformly, y uniformly in the box.

    Hexagon mode, when the outer containment regime applies (r <= eta a2)
    and its hexagons enlarged by 1.25 are narrow enough for the chart to be
    injective: S is that hexagon product in chart coordinates, drawn
    uniformly, M(S) the product of the hexagon areas, and a draw is
    accepted when a uniform u < |cos x2|, the chart density.  Certain hits
    outside the unenlarged hexagons raise the containment_ring_hits flag.

    The n draws fall into chunks of CHUNK, the last one shorter.  Chunk k
    draws from its own stream, SeedSequence(seed) for k = 0 and
    SeedSequence(seed, spawn_key=(k,)) after it, so a bracket with n <=
    CHUNK reads one stream of seed, and no bracket depends on where its
    chunks run.  Each chunk is drawn and classified in one pass and
    returns its counts of certain hits, possible hits and containment
    leaks; the chunks are split between this process and forked workers,
    one per CPU in the affinity mask (see _fork_map), and their counts
    summed.  In fallback mode the draw keeps the raw uniforms, normals
    and central coordinates, and only the rows the angle-0 floor leaves
    open are turned into chart angles.  A draw stays in per-axis columns
    (the layout of frames) from the draw to the verdict, and each stage
    (the angle-0 floor, the core box, the floor, the residual gate, the
    containment check) compacts the columns once, by index.

    Raises ValueError, naming the argument, for an n or a seed that is
    not an integer, before any work; and for r <= 0, for n < 1, and for a
    bracket that floats cannot hold, before the first draw when cert_mass
    + M(S) is already inf (at tilts d beyond about 1e104 the fallback box
    volume overflows, at r beyond about 1e103 the core box does) or below
    the smallest normal float (at a = (1, 1, 1) and d = 0 from r = 1e-52
    down), where the bracket would be subnormal or [0, 0].
    """
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("ball_volume needs at least one sample")
    mc = canonicalize(m)
    a = np.asarray(mc.a, dtype=float)
    d = mc.d
    inp = EstimatorInputs(r, tuple(a), d, eta)
    flags = []

    plus = (containment_sets(inp, Side.OUTER, 1.25 * C_OUTER)[0]
            if r <= eta * a[1] else [])
    hex_mode = bool(plus) and max(h.x_half_width for h in plus) <= EXTENT_CAP
    # the masses are inf where they overflow; both ends of the bracket are
    # at most cert_mass + mass, so a finite sum is a finite bracket
    with np.errstate(over="ignore"):
        bx, bu, cert_mass = _core_box(a, r)
        if hex_mode:
            mass = float(np.prod([hexagon_area(h) for h in plus]))
        else:
            theta_m = min(r / a[0], TWO_PI)
            mass_m = float(_theta_mass(theta_m))
            half = linear_upper(inp)
            mass = 8.0 * math.pi * mass_m * float(np.prod(2.0 * half))
    if not math.isfinite(cert_mass + mass):
        raise ValueError(f"ball volume bracket is not finite at this metric "
                         f"and radius: core box mass {cert_mass}, superset "
                         f"mass {mass}")
    if cert_mass + mass < sys.float_info.min:
        raise ValueError(f"ball volume bracket underflows at this metric and "
                         f"radius: core box mass {cert_mass}, superset mass "
                         f"{mass}")

    # draw(rng, take) consumes rng for one chunk and returns (raw, the
    # central coordinates as three columns, accepted); chart(raw, rows)
    # turns the rows of raw into the three chart-angle columns
    if hex_mode:
        mode = "hexagon"
        std, _ = containment_sets(inp, Side.OUTER)

        def draw(rng, take):
            x, y = _hex_product_sample(plus, take, rng)
            return x, y, rng.random(take) < np.abs(np.cos(x[1]))

        def chart(x, rows):
            return [c[rows] for c in x]
    else:
        mode = "fallback"

        def draw(rng, take):
            u, axis, ys = (rng.random(take), rng.standard_normal((take, 3)),
                           rng.uniform(-half, half, (take, 3)))
            return (u, axis.T), ys.T, np.ones(take, bool)

        def chart(raw, rows):
            u, axis = raw
            theta = _invert_theta_mass(u[rows] * mass_m)
            g = [c[rows] for c in axis]
            scale = np.sin(0.5 * theta) / _column_norm(g)
            return chart_angles([np.cos(0.5 * theta)] + [c * scale for c in g])

    a_min = float(np.min(a))

    def counts(k):
        """(certain hits, possible hits, containment leaks) of chunk k."""
        rng = np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(k,) if k else ()))
        raw, y_all, accepted = draw(rng, min(CHUNK, n - k * CHUNK))
        # the floor at theta = 0 reads only |y| and is at most the floor at
        # the draw's own angle: a row above r is a miss, settled before any
        # rotation work
        rows = np.flatnonzero(accepted & (_speed_floor(
            a_min, d, 0.0, _column_norm(y_all)) <= r))
        x, y = chart(raw, rows), [c[rows] for c in y_all]
        # box hits are already counted in cert_mass
        box = np.ones(rows.size, bool)
        for i in range(3):
            box &= (np.abs(x[i]) <= bx[i]) & (np.abs(y[i] - d * x[i]) <= bu)
        out = np.flatnonzero(~box)
        x, y = ([c[out] for c in v] for v in (x, y))
        low, upper = _certified_bounds(a, d, x, y, r)
        possible = low <= r
        hit = possible & (upper <= r)
        leak = 0
        if hex_mode:
            got = np.flatnonzero(hit)
            leak = int(np.count_nonzero(~np.all(
                [hexagon_contains(h, x[i][got], y[i][got])
                 for i, h in enumerate(std)], axis=0)))
        return (int(np.count_nonzero(hit)), int(np.count_nonzero(possible)),
                leak)

    chunks = range(-(-n // CHUNK))
    k_in, k_up, leak = map(sum, zip(*_fork_map(counts, chunks,
                                               _pool_size(len(chunks)))))
    if leak:
        flags.append("containment_ring_hits")

    lower = cert_mass + mass * _clopper_pearson(k_in, n)[0]
    upper_v = cert_mass + mass * _clopper_pearson(k_up, n)[1]
    amb = mass * (k_up - k_in) / n
    if amb > 0.2 * (cert_mass + mass * k_up / n):
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
_CALC_BOUND = vbar_g_doubling_bound()


def sweep_cells(triples, d_vals, r_vals):
    """Each a-triple crossed with the tilts and then the radii."""
    return [{"a": a, "d": d, "r": r}
            for a in triples for d in d_vals for r in r_vals]


def default_sweep_grid(a_vals=_LOG_GRID, d_vals=_D_GRID, r_vals=_LOG_GRID):
    """Ascending triples from a_vals crossed with tilts and radii; the
    defaults give the 700-cell log grid."""
    triples = combinations_with_replacement(sorted(set(a_vals)), 3)
    return sweep_cells(triples, d_vals, r_vals)


def _seed_from(master, *key):
    ss = np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _word_spot_residual(m, r, eta):
    caps = np.minimum(r / m.a, eta)
    s = 0.9 * min(caps[0], math.pi)
    t = 0.9 * min(caps[1], 0.5 * math.pi)
    f, _ = commutator_identity(s, t)
    return _word_gap(m, 2, f, word_rows(word_factors(s, t, (0, 1, 2)), 0.0))


def _mdd_empirical(hexes, a, d, r, iota, seed):
    """Empirical inner multiple: max certified distance over points of the
    truncated inner set, the product of hexes, divided by r."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = y = [np.empty(0)] * 3
    for _ in range(6):
        cx, cy = _hex_product_sample(hexes, 256, rng)
        keep = np.all([np.abs(c) <= iota for c in cx], axis=0)
        x = [np.concatenate([c, new[keep]]) for c, new in zip(x, cx)]
        y = [np.concatenate([c, new[keep]]) for c, new in zip(y, cy)]
        if x[0].size >= 64:
            break
    if x[0].size == 0:
        return float("nan")
    _, upper = _certified_bounds(np.asarray(a, float), d,
                                 [c[:64] for c in x], [c[:64] for c in y])
    return float(np.max(upper) / r)


# True while _fork_map runs a pool: in its caller, which sets it before
# forking, and in every worker, which inherits it
_in_pool = False


def _pool_size(n_items):
    """Processes to run n_items on: one per CPU in this process's affinity
    mask and at most one per item; 1 while a pool runs, in its caller's
    own share as in its workers, so pools never nest; 1 while a second
    thread is alive, and where the platform has no affinity mask or
    cannot fork."""
    if (_in_pool or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")
            or not hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _fork_map(fn, items, workers):
    """[fn(item) for item in items], with items w::workers run in forked
    child w, w = 1 .. workers - 1, and items 0::workers in this process.

    fork, not spawn: a child inherits the imported package and fn's
    closure instead of paying interpreter and numpy/scipy start-up again;
    su2vol starts no threads of its own that a fork could copy mid-state.
    Each child pickles ("ok", its results) or ("err", its exception) into
    a pipe and leaves through os._exit.  Every pipe is read and every
    child reaped before this returns or raises; if this process's own
    share raises, the children are killed first.  A child's exception is
    re-raised here, and a child that exits without a reply or with a
    nonzero status raises ChildProcessError.
    """
    global _in_pool
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    out = [None] * len(items)
    children = []
    outer, _in_pool = _in_pool, True
    try:
        for w in range(1, workers):
            children.append(_fork_worker(fn, items[w::workers]))
        out[0::workers] = [fn(item) for item in items[0::workers]]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _in_pool = outer
        replies = []
        for pid, fd in children:
            with os.fdopen(fd, "rb") as pipe:
                reply = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            replies.append((reply, status))
    for w, (reply, status) in enumerate(replies, 1):
        if status != 0 or not reply:
            raise ChildProcessError(
                f"forked worker {w} exited with status {status}")
        kind, value = pickle.loads(reply)
        if kind == "err":
            raise value
        out[w::workers] = value
    return out


def _fork_worker(fn, items):
    """(pid, read end of its pipe) of a forked child that maps fn over
    items and writes the pickled reply to the pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            reply = ("ok", [fn(item) for item in items])
        except Exception as exc:
            reply = ("err", exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _sweep_row(idx, cell, samples, seed, eta, iota):
    """One sweep cell as a row of SWEEP_COLUMNS; a cell that raises keeps
    NaN columns and an ``error:`` flag."""
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
        vol_r = ball_volume(m, r, samples, _seed_from(seed, idx, 0), eta)
        vol_2r = ball_volume(m, 2.0 * r, samples,
                             _seed_from(seed, idx, 1), eta)
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
        wres = _word_spot_residual(m, r, eta)
        inner_hexes, _ = containment_sets(inp_r, Side.INNER)
        mdd_emp = _mdd_empirical(inner_hexes, a, d, r, iota,
                                 _seed_from(seed, idx, 2))
        inner_mass = float(np.prod(
            [hexagon_area_truncated(h, iota) for h in inner_hexes]))
        try:
            outer_hexes, _ = containment_sets(inp_r, Side.OUTER)
            outer_mass = float(np.prod(
                [hexagon_area(h) for h in outer_hexes]))
        except OutOfRegime:
            outer_mass = float("nan")
            flags.append("outer_regime_gate")
        row.update({
            "mode_r": vol_r.mode, "mode_2r": vol_2r.mode,
            "vbar_r": vb_r, "vbar_2r": vb_2r,
            "vbar_ratio": vb_2r / vb_r, "calc_bound": _CALC_BOUND,
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
    except Exception as exc:
        flags.append(f"error:{type(exc).__name__}")
        for key in SWEEP_COLUMNS:
            if key not in row:
                row[key] = "" if key.startswith("mode_") else float("nan")
    row["flags"] = ";".join(flags)
    return row


def sweep(grid, samples: int = 10000, seed: int = 0,
          eta: float = 0.1, iota: float = math.pi / 4):
    """Run the sandwich / doubling verification sweep over the cells of
    grid, such as default_sweep_grid().

    Returns {"rows": [...], "summary": {...}, "workers": n}; each row is an
    ordered dict of plain floats and strings so reports serialize
    deterministically.  Per-cell errors are recorded in the row's flags,
    never raised.  Cells are split between this process and n - 1 forked
    workers, n = _pool_size(cells) (see _fork_map); each cell seeds its own
    streams, so rows and summary do not depend on n.
    """
    grid = list(grid)
    workers = _pool_size(len(grid))
    rows = _fork_map(lambda cell: _sweep_row(*cell, samples, seed, eta, iota),
                     enumerate(grid), workers)
    # the summary reads the cells that ran to the end
    ok = [row for row in rows if "error:" not in row["flags"]]
    ratio_low = [row[k] for row in ok for k in ("ratio_low_r", "ratio_low_2r")]
    ratio_high = [row[k] for row in ok
                  for k in ("ratio_high_r", "ratio_high_2r")]
    doubling = [row["doubling_ratio"] for row in ok]
    mdd_vals = [row["mdd_emp"] for row in ok if math.isfinite(row["mdd_emp"])]
    c_emp = min(ratio_low) if ratio_low else float("nan")
    c_high = max(ratio_high) if ratio_high else float("nan")
    sup_doubling = max(doubling) if doubling else float("nan")
    envelope_bound = (_CALC_BOUND * c_high / c_emp if c_emp and c_emp > 0.0
                      else float("inf"))
    summary = {
        "cells": len(rows), "samples": samples, "seed": seed,
        "eta": eta, "iota": iota,
        "c_emp": c_emp, "C_emp": c_high, "sup_doubling": sup_doubling,
        "calc_bound": _CALC_BOUND, "envelope_bound": envelope_bound,
        "doubling_ok": bool(sup_doubling <= envelope_bound),
        "containment_leak": any("containment_ring_hits" in row["flags"]
                                for row in ok),
        "low_confidence_cells": sum("low_confidence" in row["flags"]
                                    for row in ok),
        "mdd_emp_max": max(mdd_vals) if mdd_vals else float("nan"),
    }
    return {"rows": rows, "summary": summary, "workers": workers}
