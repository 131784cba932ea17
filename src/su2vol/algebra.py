"""Arithmetic in su(2) + R^3 and the group SU(2) x R^3.

Reference basis: the Pauli-derived triple u1, u2, u3 with [u1, u2] = u3
cyclically, followed by the Euclidean e1, e2, e3 spanning the translation
part.  Coefficient vectors are length 6, ordered (x1, x2, x3, y1, y2, y3).
In these coordinates the su(2) bracket is the cross product and the
bi-invariant reference inner product g0 = -2 tr(u u') + dot is the plain
dot product, so the reference basis is g0-orthonormal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

U1 = 0.5 * np.array([[0.0, -1.0j], [-1.0j, 0.0]])
U2 = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
U3 = 0.5 * np.array([[-1.0j, 0.0], [0.0, 1.0j]])
SU2_BASIS = (U1, U2, U3)

# exp(x u_i) is 4pi-periodic; SU(2) with g0 is the 3-sphere of radius 2
CIRCLE = 4.0 * np.pi
VOL0_SU2 = 16.0 * np.pi**2

_UNITARY_TOL = 1e-9


def _as_coeffs(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (6,):
        raise ValueError(f"expected 6 coefficients, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite coefficients")
    return c


@dataclass(frozen=True)
class AlgebraElement:
    """Vector in su(2) + R^3 as 6 reference-basis coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement(np.zeros(6))

    @staticmethod
    def from_parts(su2_part, vec_part) -> "AlgebraElement":
        return AlgebraElement(np.concatenate([np.asarray(su2_part, float),
                                              np.asarray(vec_part, float)]))

    @property
    def su2_coeffs(self) -> np.ndarray:
        return self.coeffs[:3]

    @property
    def vec(self) -> np.ndarray:
        return self.coeffs[3:]

    def su2_matrix(self) -> np.ndarray:
        x = self.coeffs
        return x[0] * U1 + x[1] * U2 + x[2] * U3

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.coeffs - other.coeffs)

    def __rmul__(self, c: float) -> "AlgebraElement":
        return AlgebraElement(float(c) * self.coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.coeffs)


def su2_to_quat(m: np.ndarray) -> np.ndarray:
    """Quaternion (w, x, y, z) of an SU(2) matrix; q_i = 2 u_i."""
    return np.array([
        (0.5 * (m[0, 0] + m[1, 1])).real,
        (0.5j * (m[0, 1] + m[1, 0])).real,
        (0.5 * (m[1, 0] - m[0, 1])).real,
        (0.5j * (m[0, 0] - m[1, 1])).real,
    ])


def quat_to_su2(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w - 1j * z, -y - 1j * x],
                     [y - 1j * x, w + 1j * z]])


@dataclass(frozen=True, eq=False, init=False)
class GroupElement:
    """Point of SU(2) x R^3: unit quaternion q = (w, x, y, z) plus a
    translation.

    GroupElement(matrix, vec) converts a 2x2 matrix at the boundary; su2 is
    the derived matrix view.  A matrix in the quaternion algebra has
    m^H m = det m = |q|^2, so |q|^2 - 1 measures its distance from SU(2).
    A part outside that algebra cannot be stored; its size is added to
    that distance instead, so log_su2 still refuses such an element.
    """

    q: np.ndarray
    vec: np.ndarray

    def __init__(self, su2, vec):
        m = np.asarray(su2, dtype=complex)
        v = np.asarray(vec, dtype=float)
        if m.shape != (2, 2) or v.shape != (3,):
            raise ValueError("GroupElement needs a 2x2 matrix and a 3-vector")
        q = su2_to_quat(m)
        off = float(np.max(np.abs(m - quat_to_su2(q))))
        n2 = float(q @ q)
        if off > _UNITARY_TOL and n2 > 0.0:
            q = q * math.sqrt((1.0 + abs(n2 - 1.0) + off) / n2)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "vec", v)

    @classmethod
    def from_quat(cls, q: np.ndarray, vec: np.ndarray) -> "GroupElement":
        """Element with the given quaternion and translation, uncopied."""
        g = object.__new__(cls)
        object.__setattr__(g, "q", q)
        object.__setattr__(g, "vec", vec)
        return g

    @property
    def su2(self) -> np.ndarray:
        return quat_to_su2(self.q)

    def inverse(self) -> "GroupElement":
        w, x, y, z = self.q
        return GroupElement.from_quat(np.array([w, -x, -y, -z]), -self.vec)


IDENTITY = GroupElement.from_quat(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def renormalize(g: GroupElement) -> GroupElement:
    """Nearest SU(2) element via quaternion normalization."""
    n = np.linalg.norm(g.q)
    if n < 0.5:
        raise ValueError("matrix too far from SU(2) to renormalize")
    return GroupElement.from_quat(g.q / n, g.vec)


def rodrigues_factor(c1, c2, c3, c4, c5, c6):
    """exp of the coefficients c as one 7-tuple of Python floats: the
    quaternion cos(rho) + (sin(rho)/rho) x/2, rho = |x|/2 (Rodrigues), then
    the translation; an overflowing |x| raises ValueError (math.sin(inf))."""
    rho = 0.5 * math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    k = 0.5 * math.sin(rho) / rho if rho > 0.0 else 0.5
    return math.cos(rho), k * c1, k * c2, k * c3, c4, c5, c6


def factor_product(factors) -> GroupElement:
    """Product, left to right, of (w, x, y, z, t1, t2, t3) factors: Hamilton
    product on Python floats, translations summed.  Unit norm drifts by
    rounding only (about 1e-14 over thousands of products).  A non-finite
    component raises ValueError, as non-finite coefficients do."""
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    t1 = t2 = t3 = 0.0
    for w2, x2, y2, z2, c4, c5, c6 in factors:
        w, x, y, z = (w * w2 - x * x2 - y * y2 - z * z2,
                      w * x2 + x * w2 + y * z2 - z * y2,
                      w * y2 - x * z2 + y * w2 + z * x2,
                      w * z2 + x * y2 - y * x2 + z * w2)
        t1, t2, t3 = t1 + c4, t2 + c5, t3 + c6
    if not all(map(math.isfinite, (w, x, y, z, t1, t2, t3))):
        raise ValueError("non-finite coefficients")
    return GroupElement.from_quat(np.array([w, x, y, z]),
                                  np.array([t1, t2, t3]))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product: factor_product of the two elements' 7-tuples."""
    return factor_product([(*g.q.tolist(), *g.vec.tolist()) for g in (a, b)])


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    # Pauli-coordinate bracket is the cross product; R^3 is central.
    return AlgebraElement.from_parts(np.cross(a.su2_coeffs, b.su2_coeffs),
                                     np.zeros(3))


def exp_group(a: AlgebraElement) -> GroupElement:
    """factor_product of the one rodrigues_factor: bit for bit a one-row
    segment_product; ValueError where the rotation norm overflows."""
    return factor_product([rodrigues_factor(*a.coeffs.tolist())])


def exp_su2(x: np.ndarray) -> np.ndarray:
    """exp(x1 u1 + x2 u2 + x3 u3) as a 2x2 matrix."""
    return exp_group(AlgebraElement.from_parts(x, np.zeros(3))).su2


def log_su2(g: GroupElement, with_flag: bool = False):
    """Inverse of exp_group with su(2)-part g0-norm <= 2 pi.

    At su2 = -I the direction is undefined; the canonical choice 2 pi u3
    is returned, flagged when with_flag is set.
    """
    n2 = float(g.q @ g.q)
    if abs(n2 - 1.0) > _UNITARY_TOL:
        raise ValueError(
            f"matrix is {abs(n2 - 1.0):.2e} from the SU(2) manifold")
    q = g.q / math.sqrt(n2)
    w, v = q[0], q[1:]
    theta, axis = angle_axis(q)
    ambiguous = False
    if np.linalg.norm(v) < 1e-12:
        if w > 0.0:
            x = 2.0 * v  # essentially zero
        else:
            x = np.array([0.0, 0.0, 2.0 * np.pi])
            ambiguous = True
    else:
        x = theta * axis
    out = AlgebraElement.from_parts(x, g.vec.copy())
    if with_flag:
        return out, ambiguous
    return out


_E3 = np.array([0.0, 0.0, 1.0])


def angle_axis(q):
    """(theta, unit axis) of quaternions q = (w, x, y, z), vectorized over
    leading axes: q = |q| (cos(theta/2), sin(theta/2) axis), theta in
    [0, 2 pi] the g0-norm of the rotation.  The axis is e3 where the
    vector part vanishes."""
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    # atan2 keeps full precision near both poles, unlike arccos(w)
    theta = 2.0 * np.arctan2(s, q[..., 0])
    moves = s > 1e-30
    axis = np.where(moves[..., None],
                    v / np.where(moves, s, 1.0)[..., None], _E3)
    return theta, axis


def g0_inner(a: AlgebraElement, b: AlgebraElement) -> float:
    # -2 tr(u u') + Euclidean dot reduces to the coefficient dot product.
    return float(a.coeffs @ b.coeffs)


def g0_norm(a: AlgebraElement) -> float:
    return float(np.linalg.norm(a.coeffs))


def g0_distance_between(a: GroupElement, b: GroupElement) -> float:
    """Bi-invariant distance of a^-1 b from the identity, on Python floats:
    the conjugate Hamilton product fused in, since Powell's objective calls
    it per evaluation and factor_product would build an element each
    time; theta = 2 atan2(|v|, w) as in angle_axis, then the hypot of
    theta and the translation gap.  Equals reference_distance(mul(
    a.inverse(), b)) to rounding."""
    w1, x1, y1, z1 = a.q.tolist()
    w2, x2, y2, z2 = b.q.tolist()
    w = w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2
    x = w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2
    y = w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2
    z = w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2
    theta = 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    u1, u2, u3 = a.vec.tolist()
    v1, v2, v3 = b.vec.tolist()
    return math.hypot(theta, v1 - u1, v2 - u2, v3 - u3)


def reference_distance(g: GroupElement) -> float:
    """Geodesic distance from the identity for the bi-invariant product g0.

    theta in [0, 2 pi] is the rotation part's g0-norm; the factors combine
    as a metric product.  The tests' numpy reference for g0_distance_between.
    """
    theta, _ = angle_axis(g.q)
    return float(np.hypot(theta, np.linalg.norm(g.vec)))
