"""Left-invariant metrics on SU(2) x R^n and their decoupled normal form.

A metric is a symmetric positive definite Gram matrix in the reference
basis (three Pauli directions, then the Euclidean center).  Every such
metric reduces, after lifting the center, to a decoupled one determined
up to isometry by parameters (a1 <= a2 <= a3, d >= 0): an orthogonal
basis v_i = u_i + d f_i with u_i a Milnor triple, f_i orthonormal central
vectors, and a_i the length of v_i.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_SYM_TOL = 1e-12


class NotSPD(Exception):
    pass


class InvalidParameters(Exception):
    pass


def _check_spd(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one SPD test: (symmetrised gram, its Cholesky factor with the
    center, every index past the su(2) block, ordered first)."""
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSPD(f"not square: shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NotSPD("non-finite entries")
    if np.max(np.abs(g - g.T)) > _SYM_TOL * np.max(np.abs(g)):
        raise NotSPD("not symmetric")
    g = 0.5 * g + 0.5 * g.T
    c = np.roll(np.arange(g.shape[0]), -3)
    try:
        return g, np.linalg.cholesky(g[np.ix_(c, c)])
    except np.linalg.LinAlgError:
        raise NotSPD("not positive definite") from None


@dataclass(frozen=True)
class MetricTensor:
    """SPD Gram matrix in the reference basis of su(2) + R^n."""

    gram: np.ndarray

    def __post_init__(self):
        g, _ = _check_spd(self.gram)
        if g.shape[0] < 3:
            raise NotSPD("need at least the su(2) block")
        object.__setattr__(self, "gram", g)

    @property
    def center_dim(self) -> int:
        return self.gram.shape[0] - 3


@dataclass(frozen=True)
class DecoupledMetric:
    """Decoupled metric on su(2) + R^3 with its adapted basis.

    Columns of V are the v_i = u_i + d f_i, columns of F the central
    orthonormal f_i, both as reference-basis coefficient vectors.  The
    6x6 Gram for which {v_i / a_i, f_i} is orthonormal is derived from
    them; it is positive definite exactly when every a_i is positive, so
    no eigensolver runs when a metric is built.
    """

    V: np.ndarray
    F: np.ndarray
    a: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "d", float(self.d))
        # SPD test; in floats a_i^2 must not vanish nor a_i^2 + d^2 overflow
        d = self.d
        for x in self.a.tolist():
            if not (x > 0.0 and math.isfinite(x) and math.isfinite(d)):
                raise InvalidParameters(
                    f"need finite a_i > 0 and finite d, got {self.a}, {d}")
            if not x * x > 0.0:
                raise InvalidParameters(f"a_i^2 underflows to 0 at a_i = {x}")
            if not math.isfinite(x * x + d * d):
                raise InvalidParameters(
                    f"a_i^2 + d^2 overflows at a_i = {x}, d = {d}")

    @property
    def gram(self) -> np.ndarray:
        R, C, d = self.V[:3], self.F[3:], self.d
        A2 = R @ np.diag(self.a**2) @ R.T
        return np.block([[A2 + d * d * np.eye(3), -d * R @ C.T],
                         [-d * C @ R.T, np.eye(3)]])

    def u_columns(self) -> np.ndarray:
        return self.V - self.d * self.F

    def frame_norm(self, alpha: np.ndarray, beta: np.ndarray) -> float:
        """g-norm of sum(alpha_i v_i + beta_i f_i)."""
        a1, a2, a3 = self.a.tolist()
        al1, al2, al3 = alpha
        b1, b2, b3 = beta
        s1, s2, s3 = a1 * al1, a2 * al2, a3 * al3
        return math.sqrt((s1 * s1 + s2 * s2 + s3 * s3)
                         + (b1 * b1 + b2 * b2 + b3 * b3))

    def invariant_residuals(self) -> dict:
        """Max violations of the decoupled-basis contract, for diagnostics."""
        g, V, F = self.gram, self.V, self.F
        U = self.u_columns()
        res = {}
        gv = V.T @ g @ V
        res["v_orthogonality"] = np.max(np.abs(gv - np.diag(self.a**2)))
        res["f_orthonormal"] = np.max(np.abs(F.T @ g @ F - np.eye(3)))
        res["vf_cross"] = np.max(np.abs(V.T @ g @ F))
        res["f_central"] = np.max(np.abs(F[:3, :]))
        br = 0.0
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            lhs = np.cross(U[:3, i], U[:3, j])
            br = max(br, np.max(np.abs(lhs - U[:3, k])))
        res["milnor_bracket"] = br
        gu = U.T @ g @ U
        res["u_diagonal"] = np.max(np.abs(gu - np.diag(self.a**2 + self.d**2)))
        return res


def extract_milnor_su2(g3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard Milnor basis orthogonal for a metric on su(2).

    g3 is the 3x3 SPD Gram in Pauli coordinates.  Returns (U, a): columns
    of U are a g0-orthonormal eigenbasis of the comparison operator (equal
    to g3 in these coordinates), orientation-fixed to det +1 so the cross
    product closes cyclically, and a = sqrt(eigenvalues) ascending.
    """
    g3, _ = _check_spd(g3)
    if g3.shape != (3, 3):
        raise NotSPD("expected a 3x3 block")
    lam, vecs = np.linalg.eigh(g3)
    if np.linalg.det(vecs) < 0.0:
        vecs = vecs.copy()
        vecs[:, 2] = -vecs[:, 2]
    return vecs, np.sqrt(lam)


def from_parameters(a1: float, a2: float, a3: float, d: float,
                    rotation: np.ndarray | None = None) -> DecoupledMetric:
    """Decoupled metric on su(2) + R^3 with the given canonical parameters.

    rotation, if given, is a det +1 orthogonal 3x3 matrix whose columns
    replace the Pauli triple as the u_i.
    """
    a = np.array([a1, a2, a3], dtype=float)
    d = float(d)
    if not np.all(np.isfinite(np.append(a, d))):
        raise InvalidParameters(f"need finite parameters, got {a}, {d}")
    if not (0.0 < a[0] <= a[1] <= a[2]):
        raise InvalidParameters(f"need 0 < a1 <= a2 <= a3, got {a}")
    if d < 0.0:
        raise InvalidParameters(f"need d >= 0, got {d}")
    R = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    V = np.vstack([R, d * np.eye(3)])
    F = np.vstack([np.zeros((3, 3)), np.eye(3)])
    return DecoupledMetric(V=V, F=F, a=a, d=d)


def reduce_to_decoupled(g: MetricTensor) -> DecoupledMetric:
    """Reduce a metric on su(2) + R^n to its decoupled su(2) + R^3 factor.

    One Cholesky factor L of the Gram, center ordered first, holds the
    whole reduction.  Its su(2) block L_s factors the quotient metric
    (the Schur complement of the center), whose Milnor frame gives R and
    a.  Its coupling block holds the central parts of the g-orthogonal
    lifts v_i in an orthonormal center frame, so d is its largest
    singular value.  The discarded complement of span{f_i} in the lifted
    center is flat, so only the decoupled factor is returned.
    """
    _, L = _check_spd(g.gram)
    n = g.center_dim
    L_s = L[n:, n:]
    R, a = extract_milnor_su2(L_s @ L_s.T)
    d = float(np.linalg.norm(L[n:, :n], 2)) if n else 0.0
    return from_parameters(a[0], a[1], a[2], d, rotation=R)


def canonicalize(m: DecoupledMetric) -> DecoupledMetric:
    """Sort a ascending and flip d >= 0 by relabeling the adapted basis.

    Uses only the allowed transformations: cyclic relabelings, the signed
    transposition, and central sign flips; the underlying metric is
    untouched.
    """
    order = np.argsort(m.a, kind="stable")
    # relabelings other than cyclic shifts are odd and negate the triple
    sign = 1.0 if tuple(order) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
    V = sign * m.V[:, order]
    F = sign * m.F[:, order]
    d = m.d
    if d < 0.0:
        F = -F
        d = -d
    return DecoupledMetric(V=V, F=F, a=m.a[order], d=d)


# -- serialization ----------------------------------------------------------

def metric_to_json(g: MetricTensor) -> str:
    return json.dumps([float(x) for x in g.gram.ravel()])


def metric_from_flat(values, dim: int | None = None) -> MetricTensor:
    v = np.asarray(list(values), dtype=float)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"{v.size} values do not form a square matrix")
    return MetricTensor(v.reshape(dim, dim))


def decoupled_to_json(m: DecoupledMetric) -> str:
    basis = np.hstack([m.V, m.F])
    return json.dumps({
        "a": [float(x) for x in m.a],
        "d": m.d,
        "basis": [[float(x) for x in row] for row in basis],
    })
