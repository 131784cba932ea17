"""Second-kind coordinates on SU(2) x R^3 and the identities that make them
computable.

The chart is psi(x, y) = exp(x3*u3) exp(x2*u2) exp(x1*u1) paired with the
translation y.  Each x_i lives on a circle of circumference 4*pi, stored in
(-2*pi, 2*pi].  The chart density relative to the reference volume is
|cos x2|; integrating it over the full coordinate torus counts every group
element 8 times.

Also here: the adjoint rotation formula, the closed-form commutator angle
f(s, t) with its shift tau(s, t) and the 7-factor word realizing exp(f*u3),
and a fixed-step integrator for the left logarithmic derivative ODE.

Vectorised sample points travel as per-component columns: three 1-D
arrays for chart angles or central coordinates, four for a quaternion
(w, X, Y, Z), the sample index last.  euler_quat returns that layout,
chart_angles and algebra.angle_axis read it, angle_axis returns its axis
in it, and a single point is the same rule with scalar components.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    GroupElement,
    bracket,
    exp_group,
    factor_product,
    g0_distance_between,
    mul,
    rodrigues_factor,
)
from .metrics import DecoupledMetric, from_parameters

TWO_PI = 2.0 * math.pi
# coordinate and group distances below this count as equal
_COINCIDE_TOL = 1e-9


class GimbalLock(Exception):
    """Trajectory reached |x2| ~ pi/2 where the chart frame degenerates."""


class IntegrationError(Exception):
    pass


def wrap_circle(x):
    """Reduce to the stored range (-2*pi, 2*pi] on the 4*pi circle."""
    x = np.asarray(x, dtype=float)
    return x - 4.0 * np.pi * np.ceil(x / (4.0 * np.pi) - 0.5)


@dataclass(frozen=True)
class Coordinates:
    """Chart coordinates: x on the 4*pi circle cubed, y translational."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = wrap_circle(np.asarray(self.x, dtype=float).reshape(3))
        y = np.asarray(self.y, dtype=float).reshape(3)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def euler_quat(x1, x2, x3):
    """Quaternion (w, X, Y, Z) of exp(x3*u3) exp(x2*u2) exp(x1*u1).

    Vectorized over broadcastable inputs, which the scalar factor_product
    is not, for the ball classifier's sample blocks; half-angle products.
    """
    c1, s1 = np.cos(0.5 * np.asarray(x1)), np.sin(0.5 * np.asarray(x1))
    c2, s2 = np.cos(0.5 * np.asarray(x2)), np.sin(0.5 * np.asarray(x2))
    c3, s3 = np.cos(0.5 * np.asarray(x3)), np.sin(0.5 * np.asarray(x3))
    w = c1 * c2 * c3 + s1 * s2 * s3
    qx = s1 * c2 * c3 - c1 * s2 * s3
    qy = c1 * s2 * c3 + s1 * c2 * s3
    qz = c1 * c2 * s3 - s1 * s2 * c3
    return w, qx, qy, qz


def chart_angles(q):
    """Chart angles (x1, x2, x3) with euler_quat(x1, x2, x3) == q.

    q is a quaternion (w, X, Y, Z), four columns or one point.  With
    h_i = x_i / 2, euler_quat gives
        (w - Y, X + Z) = (cos h2 - sin h2) (cos, sin)(h1 + h3),
        (w + Y, X - Z) = (cos h2 + sin h2) (cos, sin)(h1 - h3),
    and both scales are >= 0 for x2 in [-pi/2, pi/2]: one arctan2 each
    gives h1 +- h3, and the scales' ratio gives x2.  The round trip is
    exact to rounding everywhere, gimbal lock x2 = +-pi/2 included, where
    the smaller scale's angle no longer matters.  Moving x1 and x3 by
    2 pi each keeps q; it puts x3 in (-pi, pi], and x1 is wrapped to its
    minimal representative.
    """
    w, X, Y, Z = q
    plus = np.arctan2(X + Z, w - Y)
    minus = np.arctan2(X - Z, w + Y)
    x2 = 2.0 * np.arctan2(np.hypot(w + Y, X - Z),
                          np.hypot(w - Y, X + Z)) - 0.5 * math.pi
    x3 = plus - minus
    turns = np.ceil(x3 / TWO_PI - 0.5)
    x1 = wrap_circle((plus + minus) + TWO_PI * turns)
    return x1, x2, x3 - TWO_PI * turns


def psi(c: Coordinates) -> GroupElement:
    """Evaluate the chart in the reference basis."""
    q = np.array(euler_quat(c.x[0], c.x[1], c.x[2]), dtype=float)
    return GroupElement.from_quat(q, c.y.copy())


def frame_chart(m: DecoupledMetric, c: Coordinates) -> GroupElement:
    """Chart built on the metric's own Milnor triple and central frame."""
    U = m.u_columns()
    g = exp_group(AlgebraElement(c.x[2] * U[:, 2]))
    g = mul(g, exp_group(AlgebraElement(c.x[1] * U[:, 1])))
    g = mul(g, exp_group(AlgebraElement(c.x[0] * U[:, 0])))
    return GroupElement.from_quat(g.q, g.vec + m.F[3:, :] @ c.y)


def jacobian(x2):
    """Chart density |cos x2| relative to the reference volume."""
    return np.abs(np.cos(x2))


class CollisionClass(enum.Enum):
    LATTICE = "Lattice"
    HALF_PI_BRANCH = "HalfPiBranch"
    DISTINCT = "Distinct"


def psi_collision_classify(c1: Coordinates, c2: Coordinates) -> CollisionClass:
    """Classify a coordinate pair by how the chart identifies them.

    Lattice: x differs by 2*pi multiples componentwise and y matches (the
    chart values then agree up to the central sign).  HalfPiBranch: not a
    lattice pair, but the chart values coincide up to the central sign --
    the reflection family (x1+pi, pi-x2, x3+pi) and the continua along
    cos x2 = 0.  Distinct: the chart values genuinely differ.
    """
    dx = wrap_circle(c1.x - c2.x)
    dy = np.max(np.abs(c1.y - c2.y))
    off_lattice = np.max(np.abs(dx - TWO_PI * np.round(dx / TWO_PI)))
    if off_lattice <= _COINCIDE_TOL and dy <= _COINCIDE_TOL:
        return CollisionClass.LATTICE
    g1, g2 = psi(c1), psi(c2)
    if dy <= _COINCIDE_TOL:
        d_plus = g0_distance_between(g1, g2)
        d_minus = g0_distance_between(
            g1, GroupElement.from_quat(-g2.q, g2.vec))
        if min(d_plus, d_minus) <= _COINCIDE_TOL:
            return CollisionClass.HALF_PI_BRANCH
    return CollisionClass.DISTINCT


def adjoint_rotate(X: AlgebraElement, Y: AlgebraElement,
                   s: float) -> AlgebraElement:
    """exp(-s*Y) X exp(s*Y) for members X, Y of one standard Milnor triple."""
    return math.cos(s) * X + math.sin(s) * bracket(X, Y)


def commutator_identity(s, t):
    """Angle f and shift tau of the 7-factor commutator word.

    The word exp(-tau*u2) exp(s/2*u1) exp(t*u2) exp(-s*u1) exp(-t*u2)
    exp(s/2*u1) exp(tau*u2) equals exp(f*u3).  f is evaluated as
    4*arcsin(sin(s/2)*sin(t/2)): algebraically the same as the arccos form
    but stable near t = 0, and it carries the sign of s*t.  tau uses the
    branch with |tau| <= |t|/2.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    f = 4.0 * np.arcsin(np.clip(np.sin(0.5 * s) * np.sin(0.5 * t), -1.0, 1.0))
    tau = np.arctan2(np.cos(0.5 * s) * np.sin(0.5 * t), np.cos(0.5 * t))
    if f.ndim == 0:
        return float(f), float(tau)
    return f, tau


def word_factors(s: float, t: float, axes=(0, 1, 2)):
    """The 7 (axis, amount) factors whose product is exp(f*u_{axes[2]}).

    axes = (j, k, i): the word alternates axes j and k and lands on axis i.
    Listed left to right in product order; as a path, traverse in reverse.
    """
    _, tau = commutator_identity(s, t)
    j, k, _ = axes
    return [(k, -tau), (j, 0.5 * s), (k, t), (j, -s),
            (k, -t), (j, 0.5 * s), (k, tau)]


def word_rows(factors, shift: float):
    """(|amount|, sign(amount) e_axis, shift sign(amount) e_axis) rows, as
    Python floats, of the (axis, amount) factors with nonzero amount."""
    rows = []
    for axis, amount in factors:
        if amount != 0.0:
            alpha = [0.0, 0.0, 0.0]
            alpha[axis] = math.copysign(1.0, amount)
            rows.append((abs(amount), alpha, [shift * e for e in alpha]))
    return rows


def word_group_element(s: float, t: float, axes=(0, 1, 2),
                       use_v: bool = False,
                       m: DecoupledMetric | None = None) -> GroupElement:
    """Evaluate the commutator word as an exact group product.

    Each factor exp(amount*u_axis) is a segment along the metric's u_axis
    (the reference u_axis without a metric): beta = -d alpha cancels the
    central part of v_axis = u_axis + d f_axis.  With use_v, beta = 0 and
    the factor becomes exp(amount*v_axis); the central contributions
    cancel since the word's net amount per axis is zero.
    """
    if use_v and m is None:
        raise ValueError("v-variant needs a metric")
    if m is None:
        m = from_parameters(1.0, 1.0, 1.0, 0.0)
    return segment_product(m, word_rows(word_factors(s, t, axes),
                                        0.0 if use_v else -m.d))


# -- Maurer-Cartan ODE ------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    duration: float
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if not self.duration > 0.0:
            raise ValueError("segment duration must be positive")
        object.__setattr__(self, "alpha",
                           np.asarray(self.alpha, dtype=float).reshape(3))
        object.__setattr__(self, "beta",
                           np.asarray(self.beta, dtype=float).reshape(3))

    def __iter__(self):
        # unpacks as a (duration, alpha, beta) row of floats, the form
        # segment_product and frame_norm run fastest on
        return iter((self.duration, self.alpha.tolist(), self.beta.tolist()))


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant controls in a decoupled frame: sum of alpha_i v_i
    + beta_i f_i per segment."""

    segments: list = field(default_factory=list)

    def __post_init__(self):
        if self.segments and sum(s.duration for s in self.segments) <= 0.0:
            raise ValueError("total duration must be positive")

    def to_json(self) -> str:
        return json.dumps([{"dt": s.duration,
                            "alpha": [float(a) for a in s.alpha],
                            "beta": [float(b) for b in s.beta]}
                           for s in self.segments])

    @staticmethod
    def from_json(text: str) -> "ControlPath":
        return ControlPath([PathSegment(rec["dt"], rec["alpha"], rec["beta"])
                            for rec in json.loads(text)])


X2_CUTOFF = 0.5 * math.pi - 1e-3


def _coordinate_velocity(x1, x2, al1, al2, al3):
    """T(x) alpha: coordinate velocity for u-frame controls alpha."""
    if abs(x2) >= X2_CUTOFF:
        raise GimbalLock(f"|x2| = {abs(x2):.6f} at the chart cutoff")
    cx1, sx1 = math.cos(x1), math.sin(x1)
    tx2 = math.tan(x2)
    sec2 = 1.0 / math.cos(x2)
    return (al1 + (sx1 * al2 + cx1 * al3) * tx2,
            cx1 * al2 - sx1 * al3,
            (sx1 * al2 + cx1 * al3) * sec2)


def _rk4_segment(x, alpha, duration, n_steps):
    h = duration / n_steps
    al1, al2, al3 = alpha
    for _ in range(n_steps):
        k1 = _coordinate_velocity(x[0], x[1], al1, al2, al3)
        k2 = _coordinate_velocity(x[0] + 0.5 * h * k1[0],
                                  x[1] + 0.5 * h * k1[1], al1, al2, al3)
        k3 = _coordinate_velocity(x[0] + 0.5 * h * k2[0],
                                  x[1] + 0.5 * h * k2[1], al1, al2, al3)
        k4 = _coordinate_velocity(x[0] + h * k3[0],
                                  x[1] + h * k3[1], al1, al2, al3)
        x = (x[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
             x[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
             x[2] + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]))
    return x


def mc_integrate(m: DecoupledMetric, p: ControlPath):
    """Integrate coordinates along a control path; certify against the
    exact group product.

    Returns (endpoint, coords, length).  The left logarithmic derivative of
    each segment is sum(alpha_i u_i) + sum((d*alpha_i + beta_i) f_i), so x
    solves x' = T(x) alpha while y accumulates (d*alpha + beta) linearly.
    The integrated endpoint is checked against the product of segment
    exponentials to 1e-8; length is the g-length of the path.
    """
    if not p.segments:
        c = Coordinates(np.zeros(3), np.zeros(3))
        return frame_chart(m, c), c, 0.0
    total = sum(s.duration for s in p.segments)
    x = (0.0, 0.0, 0.0)
    y = np.zeros(3)
    d = m.d
    for seg in p.segments:
        n_steps = max(1, math.ceil(seg.duration / (1e-3 * total)))
        alpha = tuple(seg.alpha)
        x_coarse = _rk4_segment(x, alpha, seg.duration, n_steps)
        for _ in range(6):
            n_steps *= 2
            x_fine = _rk4_segment(x, alpha, seg.duration, n_steps)
            if max(abs(a - b) for a, b in zip(x_coarse, x_fine)) <= 1e-9:
                break
            x_coarse = x_fine
        x = x_fine
        y = y + seg.duration * (d * seg.alpha + seg.beta)
    coords = Coordinates(np.array(x), y)
    endpoint = frame_chart(m, coords)
    product = segment_product(m, p.segments)
    mismatch = g0_distance_between(endpoint, product)
    if mismatch > 1e-8:
        raise IntegrationError(
            f"integrated endpoint off the group product by {mismatch:.3e}")
    return endpoint, coords, path_length(m, p)


def factor_table(m: DecoupledMetric):
    """The tilt d and one (u row, f row) per reference coefficient, as
    Python floats: what segment_factor reads of the metric."""
    return m.d, [(*u, *f)
                 for u, f in zip(m.u_columns().tolist(), m.F.tolist())]


def segment_factor(d, UF, duration, alpha, beta):
    """rodrigues_factor of the coefficients of duration * (sum alpha_i u_i
    + sum (d alpha_i + beta_i) f_i); (d, UF) is factor_table(m)."""
    a1, a2, a3 = alpha
    b1, b2, b3 = beta
    g1, g2, g3 = d * a1 + b1, d * a2 + b2, d * a3 + b3
    return rodrigues_factor(*[
        duration * ((u1 * a1 + u2 * a2 + u3 * a3)
                    + (f1 * g1 + f2 * g2 + f3 * g3))
        for u1, u2, u3, f1, f2, f3 in UF])


def segment_product(m: DecoupledMetric, rows) -> GroupElement:
    """Exact endpoint of piecewise-constant controls from the identity.

    rows are (duration, alpha, beta) triples, PathSegments included; each
    contributes the factor exp(duration * (sum alpha_i u_i
    + sum (d alpha_i + beta_i) f_i)): factor_product of their
    segment_factor factors, the kernel of exp_group and mul.  Non-finite
    coefficients raise ValueError.
    """
    d, UF = factor_table(m)
    return factor_product(segment_factor(d, UF, duration, alpha, beta)
                          for duration, alpha, beta in rows)


def path_length(m: DecoupledMetric, p: ControlPath) -> float:
    return sum(dt * m.frame_norm(alpha, beta)
               for dt, alpha, beta in p.segments)
