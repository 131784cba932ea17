"""Wrapped hexagon areas, the closed-form ball-volume estimator, containment
sets, and the doubling-constant calculus.

A hexagon H(mu*, nu*, xi*, d) is the image of the box |mu| <= mu*,
|nu| <= nu*, |xi| <= xi* under (mu, nu, xi) -> (mu + nu, d nu + xi), living
on the cylinder S x R with S the circle of circumference 4*pi.  Its planar
lift is the zonogon cut out by three slabs:

    |x| <= mu* + nu*,   |y| <= d nu* + xi*,   |y - d x| <= d mu* + xi*.

Areas on the cylinder (optionally restricted to an x-window [-W, W]) are
computed exactly: the cross-section at height y is a single interval, so
the integrand is piecewise affine in y and midpoint integration over its
breakpoints has no quadrature error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * math.pi


class OutOfRegime(Exception):
    pass


class MalformedTree(Exception):
    pass


class InvalidHexagon(ValueError):
    pass


@dataclass(frozen=True)
class Hexagon:
    """The planar hexagon |x| <= mu* + nu*, |y - d x| <= xi* + d mu* (the
    slant band), |y| <= d nu* + xi*.

    Its parameters must be finite and nonnegative, and so must its x
    extent mu* + nu*, which overflows where both are near the largest
    float; otherwise InvalidHexagon, a ValueError, is raised.
    """
    mu_star: float
    nu_star: float
    xi_star: float
    d: float

    def __post_init__(self):
        vals = (self.mu_star, self.nu_star, self.xi_star, self.d)
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise InvalidHexagon(f"need nonnegative finite parameters, got {vals}")
        if not math.isfinite(self.x_half_width):
            raise InvalidHexagon(f"x extent mu* + nu* overflows, got {vals}")

    @property
    def x_half_width(self) -> float:
        return self.mu_star + self.nu_star

    @property
    def y_half_height(self) -> float:
        return self.d * self.nu_star + self.xi_star

    @property
    def slant_offset(self) -> float:
        return self.d * self.mu_star + self.xi_star


def hexagon_planar_area(h: Hexagon) -> float:
    """Area of the planar lift: zonogon cross terms summed."""
    return 4.0 * (h.d * h.mu_star * h.nu_star
                  + h.mu_star * h.xi_star + h.nu_star * h.xi_star)


def section(h: Hexagon, y):
    """Planar cross-section [lo, hi] at height y; empty where lo > hi."""
    y = np.asarray(y, dtype=float)
    X, Y, S = h.x_half_width, h.y_half_height, h.slant_offset
    if h.d == 0.0:
        lo = np.where(np.abs(y) <= Y, -X, 1.0)
        hi = np.where(np.abs(y) <= Y, X, -1.0)
        return lo + 0.0 * y, hi + 0.0 * y
    # slant lines can overflow for subnormal d; the clamps absorb the infs
    with np.errstate(over="ignore"):
        lo = np.maximum(-X, (y - S) / h.d)
        hi = np.minimum(X, (y + S) / h.d)
    bad = np.abs(y) > Y
    lo = np.where(bad, 1.0, lo)
    hi = np.where(bad, -1.0, hi)
    return lo, hi


def _window_overlap(lo, hi, half_window):
    """Length of (wrapped arc [lo, hi]) intersect [-W, W] on the circle."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    w = hi - lo
    w_c = np.clip(w, 0.0, None)
    # place the arc start in [-2 pi, 2 pi)
    start = lo - FOUR_PI * np.floor((lo + 2.0 * math.pi) / FOUR_PI)
    end = start + np.minimum(w_c, FOUR_PI)
    total = np.zeros_like(start)
    for k in (0.0, 1.0, 2.0):
        a = np.maximum(start, -half_window + k * FOUR_PI)
        b = np.minimum(end, half_window + k * FOUR_PI)
        total += np.clip(b - a, 0.0, None)
    full = w >= FOUR_PI
    return np.where(full, 2.0 * half_window, np.where(w > 0.0, total, 0.0))


def _edge_crossings(const, slope, y0, y1, targets):
    """Solutions of const + slope*y + 4 pi k = t in (y0, y1), all k, t."""
    out = []
    if slope == 0.0:
        return out
    for t in targets:
        k_a = (t - const - slope * y0) / FOUR_PI
        k_b = (t - const - slope * y1) / FOUR_PI
        k_lo = math.floor(min(k_a, k_b)) - 1
        k_hi = math.ceil(max(k_a, k_b)) + 1
        for k in range(k_lo, k_hi + 1):
            y = (t - const - FOUR_PI * k) / slope
            if y0 < y < y1:
                out.append(y)
    return out


def _narrow_integral(h: Hexagon, y0, y1, edges, W):
    """Exact integral of the window overlap over [y0, y1], where lo, hi are
    affine and the width stays at or below one full turn: the overlap is
    affine between the edges' window crossings, so midpoints are exact."""
    lo_c, lo_s, hi_c, hi_s = edges
    acc = 0.0
    if lo_s == hi_s and lo_s != 0.0:
        # both edges translate together: the overlap is periodic in y
        period = FOUR_PI / abs(lo_s)
        n_full = math.floor((y1 - y0) / period)
        if n_full:
            w_mid = hi_c - lo_c  # constant width
            acc += n_full * period * (min(w_mid, FOUR_PI) * 2.0 * W) / FOUR_PI
            y0 = y0 + n_full * period
    pts = [y0, y1]
    pts += _edge_crossings(lo_c, lo_s, y0, y1, (-W, W))
    pts += _edge_crossings(hi_c, hi_s, y0, y1, (-W, W))
    pts = np.unique(np.asarray(pts))
    lo, hi = section(h, 0.5 * (pts[:-1] + pts[1:]))
    return acc + float(np.sum(_window_overlap(lo, hi, W) * np.diff(pts)))


def _affine_patches(h: Hexagon):
    """(y0, y1, lo_const, lo_slope, hi_const, hi_slope) over [-Y, Y]."""
    X, Y, S = h.x_half_width, h.y_half_height, h.slant_offset
    if Y <= 0.0 or X <= 0.0:
        return []
    if h.d == 0.0:
        return [(-Y, Y, -X, 0.0, X, 0.0)]
    kinks = sorted({-Y, Y, max(-Y, min(Y, S - h.d * X)),
                    max(-Y, min(Y, h.d * X - S))})
    inv = 1.0 / h.d
    patches = []
    for a, b in zip(kinks[:-1], kinks[1:]):
        if b <= a:
            continue
        ym = 0.5 * (a + b)
        lo_clamped = (ym - S) / h.d <= -X
        hi_clamped = (ym + S) / h.d >= X
        lo_c, lo_s = (-X, 0.0) if lo_clamped else (-S * inv, inv)
        hi_c, hi_s = (X, 0.0) if hi_clamped else (S * inv, inv)
        patches.append((a, b, lo_c, lo_s, hi_c, hi_s))
    return patches


def _pieces(h: Hexagon):
    """The hexagon's pieces, one list per affine patch, bottom to top.

    Each patch is cut once where its width hi - lo crosses a full turn.
    Returns [(edges, [(y0, y1, w0, w1, saturated), ...]), ...]: the patch's
    edges (lo_c, lo_s, hi_c, hi_s), and per piece its ends, the width at
    each end, and whether the width is at least 4 pi across it.  The cut
    point is inexact, so it is clamped into the patch and the side it
    bounds keeps its flag without a re-test; empty pieces are dropped.
    Areas and the sampler both read this list.
    """
    out = []
    for (y0, y1, lo_c, lo_s, hi_c, hi_s) in _affine_patches(h):
        base, slope = hi_c - lo_c, hi_s - lo_s
        # the widths cancel on slanted hexagons with tiny d and large nu*,
        # xi*, where they can round below 0
        w0, w1 = max(base + slope * y0, 0.0), max(base + slope * y1, 0.0)
        if (w0 - FOUR_PI) * (w1 - FOUR_PI) < 0.0:
            yc = min(max((FOUR_PI - base) / slope, y0), y1)
            wc = base + slope * yc
            pieces = [p for p in ((y0, yc, w0, wc, w0 > w1),
                                  (yc, y1, wc, w1, w1 > w0)) if p[1] > p[0]]
        else:
            pieces = [(y0, y1, w0, w1, w0 >= FOUR_PI and w1 >= FOUR_PI)]
        out.append(((lo_c, lo_s, hi_c, hi_s), pieces))
    return out


def hexagon_area_window(h: Hexagon, half_window: float) -> float:
    """Exact cylinder area of H restricted to the x-window [-W, W]: a
    saturated piece covers the whole window, a narrow one is integrated."""
    if not 0.0 < half_window <= 2.0 * math.pi:
        raise InvalidHexagon("window half-width must be in (0, 2 pi]")
    W = half_window
    # per-patch sums first, then across patches: another order would move
    # the areas at rounding level; the 0.0 start keeps a hexagon without
    # patches a float
    return sum((sum(2.0 * W * (b - a) if saturated
                    else _narrow_integral(h, a, b, edges, W)
                    for a, b, _, _, saturated in pieces)
                for edges, pieces in _pieces(h)), 0.0)


def hexagon_area(h: Hexagon) -> float:
    """Exact wrapped area |H| = integral of min(width, 4 pi)."""
    return hexagon_area_window(h, 2.0 * math.pi)


def hexagon_area_truncated(h: Hexagon, iota: float) -> float:
    """Exact |H_iota|: the wrapped hexagon cut to |x| <= iota."""
    return hexagon_area_window(h, iota)


def hexagon_contains(h: Hexagon, x, y):
    """Wrapped membership test, vectorized; x in any representative."""
    lo, hi = section(h, np.asarray(y, dtype=float))
    w = hi - lo
    rel = np.asarray(x, dtype=float) - lo
    rel = rel - FOUR_PI * np.floor(rel / FOUR_PI)
    return (w > 0.0) & ((w >= FOUR_PI) | (rel <= w))


def sample_hexagon(h: Hexagon, n: int, rng: np.random.Generator):
    """n uniform points of the wrapped hexagon; returns (x, y) arrays.

    y is drawn from the exact piecewise-affine density min(width, 4 pi),
    inverting the per-piece quadratic cumulative; x is uniform on the
    cross-section arc.  The piece of each point is the one
    rng.choice(len(pieces), size=n, p=masses / total) drew: the same
    uniforms searched in the same normalised cdf, refused with the same
    ValueError where a mass is negative or NaN or the total overflows, so
    the stream and every point are those of that formulation.
    """
    pieces = [(a, b, min(wa, FOUR_PI), min(wb, FOUR_PI))
              for _, patch in _pieces(h) for a, b, wa, wb, _ in patch]
    if not pieces:
        raise InvalidHexagon("cannot sample a degenerate hexagon")
    starts, ends, f0, f1 = map(np.array, zip(*pieces))
    # masses that overflow or are NaN are refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lens = ends - starts
        masses = 0.5 * (f0 + f1) * lens
        total = float(np.sum(masses))
        p = masses / total
    if total <= 0.0:
        raise InvalidHexagon("cannot sample a degenerate hexagon")
    # what rng.choice(p=p) refused: a negative or NaN p, or an inf total
    if not (math.isfinite(total) and np.all(p >= 0.0)):
        raise ValueError(f"piece masses {masses} are not a distribution")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    pick, v = rng.random(n), rng.random(n)
    y = np.empty(n)
    # piece k takes the rows whose pick lies in [cdf[k - 1], cdf[k]), those
    # cdf.searchsorted(pick, side="right") sends to k since cdf rises to 1;
    # it solves base*t + slope*t^2/2 = u on [0, len] there
    for k, (below, top) in enumerate(zip(np.r_[0.0, cdf[:-1]], cdf)):
        rows = np.flatnonzero((below <= pick) & (pick < top))
        base, length = f0[k], lens[k]
        slope = (f1[k] - base) / length
        u = v[rows] * masses[k]
        with np.errstate(invalid="ignore", divide="ignore"):
            if abs(slope) * length < 1e-12 * max(base, 1e-300):
                t = u / max(base, 1e-300)
            else:
                disc = np.sqrt(np.clip(base * base + 2.0 * slope * u, 0.0,
                                       None))
                t = (2.0 * u / (base + disc) if slope >= 0.0
                     else (disc - base) / slope)
        y[rows] = starts[k] + np.clip(t, 0.0, length)
    lo, hi = section(h, y)
    w = np.minimum(hi - lo, FOUR_PI)
    x = lo + rng.random(n) * w
    x = x - FOUR_PI * np.ceil(x / FOUR_PI - 0.5)
    return x, y


def vbar_H(h: Hexagon) -> float:
    """Closed-form comparison value for the wrapped hexagon area."""
    return min(h.d * h.mu_star * h.nu_star + h.mu_star * h.xi_star
               + h.nu_star * h.xi_star,
               h.d * h.nu_star + h.xi_star)


def wrap_area_upper(h: Hexagon) -> float:
    """Coarse wrapped-area bound 8 pi (d nu* + xi*)."""
    return 8.0 * math.pi * h.y_half_height


# -- estimator --------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorInputs:
    r: float
    a: tuple
    d: float
    eta: float = 0.1

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if not all(map(math.isfinite, (self.r, self.d, self.eta) + a)):
            raise ValueError(f"estimator inputs must be finite, got r="
                             f"{self.r}, a={a}, d={self.d}, eta={self.eta}")
        if len(a) != 3 or not (0.0 < a[0] <= a[1] <= a[2]):
            raise ValueError(f"need ascending positive a, got {a}")
        if not self.r > 0.0:
            raise ValueError("radius must be positive")
        if self.d < 0.0:
            raise ValueError("tilt d must be nonnegative")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "eta", float(self.eta))


def m_rho(inp: EstimatorInputs):
    """Capped inverse lengths m_i and reachable commutator budgets rho_i."""
    m = np.minimum(inp.r / np.asarray(inp.a), inp.eta)
    rho = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        rho[i] = m[j] * m[k] + m[i] * m[j] ** 2 + m[i] * m[k] ** 2
    return m, rho


def vbar_g(inp: EstimatorInputs) -> float:
    """Three-factor closed-form volume estimator; inf where it overflows
    (a float64 power, unlike Python's, does not raise)."""
    _, rho = m_rho(inp)
    out = 1.0
    for i in range(3):
        a_i = inp.a[i]
        out *= min(inp.d * rho[i] * inp.r / a_i + rho[i] * inp.r
                   + np.float64(inp.r) ** 2 / a_i,
                   inp.d * inp.r / a_i + inp.r)
    return out


def linear_upper(inp: EstimatorInputs) -> np.ndarray:
    """Half-widths of the certain translational bounding box."""
    return inp.d * inp.r / np.asarray(inp.a) + inp.r


class Side:
    INNER = "inner"
    OUTER = "outer"


# enlargement of the outer containment hexagons: the paper's constant C
C_OUTER = 8.0


def containment_sets(inp: EstimatorInputs, side: str,
                     c_outer: float = C_OUTER):
    """Per-axis hexagons whose product brackets the ball in chart coordinates.

    Inner: H_iota(rho_i, r/a_i, r) with the x-window flag set; the image
    lies inside a ball of a bounded multiple of r.  Outer: H(C rho_i,
    r/a_i, r), valid for r <= eta a2 only.

    Returns (list of 3 Hexagons, truncated: bool).
    """
    _, rho = m_rho(inp)
    if side == Side.INNER:
        hexes = [Hexagon(rho[i], inp.r / inp.a[i], inp.r, inp.d)
                 for i in range(3)]
        return hexes, True
    if side == Side.OUTER:
        if inp.r > inp.eta * inp.a[1]:
            raise OutOfRegime(
                f"outer containment needs r <= eta*a2 = {inp.eta * inp.a[1]:.6g},"
                f" got r = {inp.r:.6g}")
        hexes = [Hexagon(c_outer * rho[i], inp.r / inp.a[i], inp.r, inp.d)
                 for i in range(3)]
        return hexes, False
    raise ValueError(f"side must be {Side.INNER!r} or {Side.OUTER!r}")


# -- doubling calculus ------------------------------------------------------

@dataclass(frozen=True)
class DoublingExpr:
    """Node of an estimator expression tree for doubling bookkeeping.

    Leaves: 'const' (flat, bound 1) and 'monotone' (nondecreasing with at
    most linear doubling growth, bound 2).  Combinators propagate bounds:
    sum/min/max/couple take the worst child, product multiplies children,
    compose(g, h) gives D_h^ceil(log2 D_g), comparable rescales by C/c,
    product_metric gives D1^2 D2^2, reduction(n) gives (2^n D)^4.
    """

    kind: str
    children: tuple = ()
    value: float | None = None

    @staticmethod
    def const() -> "DoublingExpr":
        return DoublingExpr("const")

    @staticmethod
    def monotone() -> "DoublingExpr":
        return DoublingExpr("monotone")

    @staticmethod
    def sum(*children) -> "DoublingExpr":
        return DoublingExpr("sum", tuple(children))

    @staticmethod
    def product(*children) -> "DoublingExpr":
        return DoublingExpr("product", tuple(children))

    @staticmethod
    def min(*children) -> "DoublingExpr":
        return DoublingExpr("min", tuple(children))

    @staticmethod
    def max(*children) -> "DoublingExpr":
        return DoublingExpr("max", tuple(children))

    @staticmethod
    def couple(*children) -> "DoublingExpr":
        return DoublingExpr("couple", tuple(children))

    @staticmethod
    def compose(g, h) -> "DoublingExpr":
        return DoublingExpr("compose", (g, h))

    @staticmethod
    def comparable(child, c: float, C: float) -> "DoublingExpr":
        return DoublingExpr("comparable", (child,), value=C / c)

    @staticmethod
    def product_metric(d1, d2) -> "DoublingExpr":
        return DoublingExpr("product_metric", (d1, d2))

    @staticmethod
    def reduction(n: int, child) -> "DoublingExpr":
        return DoublingExpr("reduction", (child,), value=float(n))


def doubling_calculus(expr: DoublingExpr) -> float:
    """Evaluate the uniform doubling bound of an expression tree."""
    if not isinstance(expr, DoublingExpr):
        raise MalformedTree(f"not an expression node: {expr!r}")
    kind = expr.kind
    if kind == "const":
        _need_children(expr, 0)
        return 1.0
    if kind == "monotone":
        _need_children(expr, 0)
        return 2.0
    kids = [doubling_calculus(c) for c in expr.children]
    if kind in ("sum", "min", "max", "couple"):
        if not kids:
            raise MalformedTree(f"{kind} needs at least one child")
        return max(kids)
    if kind == "product":
        if not kids:
            raise MalformedTree("product needs at least one child")
        out = 1.0
        for k in kids:
            out *= k
        return out
    if kind == "compose":
        if len(kids) != 2:
            raise MalformedTree("compose needs exactly (g, h)")
        dg, dh = kids
        if dg <= 1.0:
            return 1.0
        return dh ** math.ceil(math.log2(dg))
    if kind == "comparable":
        if len(kids) != 1 or expr.value is None or expr.value <= 0.0:
            raise MalformedTree("comparable needs one child and C/c > 0")
        return expr.value * kids[0]
    if kind == "product_metric":
        if len(kids) != 2:
            raise MalformedTree("product_metric needs exactly two children")
        return kids[0] ** 2 * kids[1] ** 2
    if kind == "reduction":
        if len(kids) != 1 or expr.value is None or expr.value < 0.0:
            raise MalformedTree("reduction needs one child and n >= 0")
        return (2.0 ** expr.value * kids[0]) ** 4
    raise MalformedTree(f"unknown node kind {kind!r}")


def _need_children(expr: DoublingExpr, n: int) -> None:
    if len(expr.children) != n:
        raise MalformedTree(f"{expr.kind} takes {n} children")


def vbar_g_doubling_tree() -> DoublingExpr:
    """Expression tree of vbar_g as a function of the radius."""
    E = DoublingExpr
    m = E.min(E.product(E.const(), E.monotone()), E.const())
    rho = E.sum(E.product(m, m), E.product(m, m, m), E.product(m, m, m))
    slab = E.sum(E.product(E.const(), rho, E.monotone()),
                 E.product(rho, E.monotone()),
                 E.product(E.monotone(), E.monotone(), E.const()))
    box = E.sum(E.product(E.const(), E.monotone()), E.monotone())
    factor = E.min(slab, box)
    return E.product(factor, factor, factor)


def vbar_g_doubling_bound() -> float:
    """Doubling bound for vbar_g in the radius: 4096."""
    return doubling_calculus(vbar_g_doubling_tree())
