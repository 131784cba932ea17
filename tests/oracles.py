"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles: series
exponentials instead of Rodrigues, quaternion products instead of matrix
products, rejection sampling instead of exact integration. Slow is fine;
agreeing with the package for the wrong reason is not.
"""

import math

import numpy as np
from scipy import integrate


def series_expm(mat, terms=20):
    """Matrix exponential by scaled-and-squared Taylor series.

    Plain 20-term Taylor loses digits once the norm passes ~5, so the
    argument is halved until its norm is below 1/2 and the result squared
    back up.
    """
    mat = np.asarray(mat, dtype=complex)
    k = 0
    norm = np.linalg.norm(mat)
    while norm > 0.5:
        mat = mat / 2.0
        norm /= 2.0
        k += 1
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for j in range(1, terms + 1):
        term = term @ mat / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def quat_mul(p, q):
    """Hamilton product of quaternions stored as (w, x, y, z)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def rotation_quat(axis, angle):
    """Unit quaternion for a rotation by angle about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate(([math.cos(angle / 2.0)],
                           math.sin(angle / 2.0) * axis))


def fd_jacobian(func, x, eps=1e-6):
    """Central-difference Jacobian of a vector function at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        cols.append((func(x + step) - func(x - step)) / (2.0 * eps))
    return np.column_stack(cols)


FOUR_PI = 4.0 * math.pi


def hexagon_membership(mu_star, nu_star, xi_star, d, x, y):
    """Point test for the wrapped hexagon, done by interval arithmetic.

    A circle point x sits in the shape iff some lift x + 4*pi*k satisfies
    all three slab constraints. The slabs bound the lift to a finite k
    range, so every candidate lift is checked directly. Independent of the
    package's section-based test.
    """
    X = mu_star + nu_star
    Y = d * nu_star + xi_star
    S = d * mu_star + xi_star
    if abs(y) > Y:
        return False
    # |x'| <= X and |y - d x'| <= S for x' = x + 4 pi k
    k_lo = int(math.floor((-X - x) / FOUR_PI))
    k_hi = int(math.ceil((X - x) / FOUR_PI))
    for k in range(k_lo, k_hi + 1):
        xl = x + FOUR_PI * k
        if abs(xl) <= X and abs(y - d * xl) <= S:
            return True
    return False


def hexagon_area_mc(mu_star, nu_star, xi_star, d, n, seed,
                    half_window=2.0 * math.pi):
    """Rejection-sampling area of the wrapped hexagon with a 1-sigma error.

    Samples the bounding box [-min(X, W), min(X, W)] x [-Y, Y] on the
    circle-strip and counts membership hits; W = half_window <= 2 pi cuts
    the circle to the window |x| <= W (the whole circle by default).  A
    circle point |x| <= 2 pi beyond X has no lift within X, since X < 2 pi
    there, so the box holds the whole windowed shape.
    """
    X = min(mu_star + nu_star, half_window)
    Y = d * nu_star + xi_star
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-X, X, n)
    ys = rng.uniform(-Y, Y, n)
    hits = np.fromiter(
        (hexagon_membership(mu_star, nu_star, xi_star, d, x, y)
         for x, y in zip(xs, ys)),
        dtype=bool, count=n)
    box = 4.0 * X * Y
    p = hits.mean()
    area = box * p
    sigma = box * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    return area, sigma


def polygon_area(vertices):
    """Shoelace area of a simple polygon given as an (m, 2) array."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def hexagon_vertices(mu_star, nu_star, xi_star, d):
    """Vertices of the planar (unwrapped) hexagon, counterclockwise.

    The shape is the Minkowski sum of three segments through the origin
    with direction/extent (1, d) mu*, (1, 0) nu* (in (x, y-dx) shear
    coordinates the roles swap), and (0, 1) xi*. Zonotope vertices are
    walked by sorting the generators by angle.
    """
    gens = np.array([
        [mu_star, d * mu_star],
        [nu_star, 0.0],
        [0.0, xi_star],
    ])
    # drop zero generators to keep angles well defined
    gens = gens[np.linalg.norm(gens, axis=1) > 0.0]
    ang = np.arctan2(gens[:, 1], gens[:, 0])
    order = np.argsort(ang)
    gens = gens[order]
    verts = [-gens.sum(axis=0)]
    for g in gens:
        verts.append(verts[-1] + 2.0 * g)
    for g in gens:
        verts.append(verts[-1] - 2.0 * g)
    return np.array(verts[:-1])


def ball_volume_isotropic(r, a=1.0):
    """Reference-measure volume of the isotropic ball a1 = a2 = a3 = a, d = 0.

    The group is then the round 3-sphere of radius 2 (geodesic distance =
    rotation angle theta), scaled by a, times flat R^3, and the distance is
    the Euclidean hypot of a*theta and the translation. Slicing by rotation
    angle theta <= min(r/a, 2 pi) gives sphere area 16 pi sin^2(theta/2)
    times the Euclidean ball volume of radius sqrt(r^2 - a^2 theta^2).
    """
    top = min(r / a, 2.0 * math.pi)

    def slab(theta):
        area = 16.0 * math.pi * math.sin(theta / 2.0) ** 2
        rad2 = max(r * r - a * a * theta * theta, 0.0)
        return area * (4.0 / 3.0) * math.pi * rad2 ** 1.5

    val, err = integrate.quad(slab, 0.0, top, limit=200, epsabs=0.0,
                              epsrel=1e-12)
    return val, err


def euler_chart_quat(x1, x2, x3):
    """Second-kind chart as a quaternion product e^{x3 u3} e^{x2 u2} e^{x1 u1}.

    u_i exponentiates to the rotation quaternion of angle x about axis i
    (the Pauli coefficients are half-angle generators).
    """
    q3 = rotation_quat([0.0, 0.0, 1.0], x3)
    q2 = rotation_quat([0.0, 1.0, 0.0], x2)
    q1 = rotation_quat([1.0, 0.0, 0.0], x1)
    return quat_mul(q3, quat_mul(q2, q1))
