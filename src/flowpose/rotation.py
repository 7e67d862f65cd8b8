"""Exact rotation math: canonical unit quaternions, axis-angle, SVD projection.

Quaternions are stored (w, x, y, z) with w >= 0, which picks one
representative of the double cover once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rotation", "InvalidRotationError", "NearCutLocusError", "DegenerateProjectionError",
    "DegenerateMeanError", "quat_to_matrices", "quat_multiply", "matrix_to_quat",
    "matrix_to_quats", "axis_angle_exp", "exp_matrices", "axis_angle_log", "geodesic_distance",
    "special_orthogonalize_matrices", "rotation_mean", "as_matrices", "cross3",
]


class InvalidRotationError(ValueError):
    pass


class NearCutLocusError(ValueError):
    pass


class DegenerateProjectionError(ValueError):
    pass


class DegenerateMeanError(ValueError):
    pass


def _canonical_quats(q):
    """The rows of q (N,4) divided by their norms and signed so that w > 0,
    or, where w = 0, the first nonzero component is positive.  Raises
    InvalidRotationError if a row's norm is zero or not finite."""
    n = np.sqrt(np.vecdot(q, q))
    if not (np.isfinite(n) & (n > 0.0)).all():
        raise InvalidRotationError("quaternion has zero or non-finite norm")
    q = q / n[:, None]
    flip = q[:, 0] < 0.0
    on_w0 = q[:, 0] == 0.0
    if on_w0.any():
        xyz = q[:, 1:]
        first = xyz[np.arange(len(q)), np.argmax(xyz != 0.0, axis=1)]
        flip |= on_w0 & (first < 0.0)
    if flip.any():
        q[flip] = -q[flip]
    return q


@dataclass(frozen=True)
class Rotation:
    """An element of SO(3) as a canonical-sign unit quaternion (w, x, y, z),
    held read-only."""

    q: np.ndarray

    def __init__(self, q):
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (4,):
            raise InvalidRotationError(f"quaternion must have shape (4,), got {q.shape}")
        q = _canonical_quats(q[None])[0]
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @classmethod
    def _of_canonical(cls, q):
        """A Rotation holding q, a read-only canonical unit quaternion, as it is."""
        r = object.__new__(cls)
        object.__setattr__(r, "q", q)
        return r

    @staticmethod
    def identity():
        return Rotation((1.0, 0.0, 0.0, 0.0))

    def matrix(self):
        return quat_to_matrices(self.q)

    def compose(self, other: "Rotation") -> "Rotation":
        """Hamilton product self * other (apply ``other`` first)."""
        return Rotation(quat_multiply(self.q, other.q))

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation((w, -x, -y, -z))

    def to_json(self):
        # json emits full repr precision (17 significant digits)
        return [float(v) for v in self.q]

    def __eq__(self, other):
        return isinstance(other, Rotation) and np.array_equal(self.q, other.q)


def cross3(a, b):
    """Cross product of 3-vectors along the last axis of float64 arrays;
    np.cross bit for bit, without its axis and dtype handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def quat_to_matrices(q) -> np.ndarray:
    """Rotation matrices (...,3,3) of unit quaternions (...,4): the nine
    products of the components, each formed once, combined in place."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    m = np.empty(q.shape[:-1] + (9,))
    np.add(yy, zz, out=m[..., 0])
    np.subtract(xy, wz, out=m[..., 1])
    np.add(xz, wy, out=m[..., 2])
    np.add(xy, wz, out=m[..., 3])
    np.add(xx, zz, out=m[..., 4])
    np.subtract(yz, wx, out=m[..., 5])
    np.subtract(xz, wy, out=m[..., 6])
    np.add(yz, wx, out=m[..., 7])
    np.add(xx, yy, out=m[..., 8])
    m *= 2.0
    diag = m[..., ::4]
    np.subtract(1.0, diag, out=diag)
    return m.reshape(q.shape[:-1] + (3, 3))


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton products a * b of quaternions (...,4), not renormalized."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=-1)


def as_matrices(rotations) -> np.ndarray:
    """The matrices (K,3,3) of a sequence of K Rotations; an array of
    matrices is returned as it is."""
    if isinstance(rotations, np.ndarray):
        return rotations
    return quat_to_matrices(np.array([r.q for r in rotations]).reshape(-1, 4))


def matrix_to_quat(m) -> Rotation:
    """The Rotation of one 3x3 matrix: row 0 of a read-only `matrix_to_quats` buffer."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise InvalidRotationError("expected a 3x3 matrix")
    q = matrix_to_quats(m[None])
    q.setflags(write=False)
    return Rotation._of_canonical(q[0])


def matrix_to_quats(m) -> np.ndarray:
    """Canonical unit quaternions (N,4) of a stack of matrices (N,3,3), by
    Shepperd's method.

    The whole stack is validated at once: each matrix must be orthonormal
    to 1e-6 with a nonnegative determinant.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 3 or m.shape[1:] != (3, 3):
        raise InvalidRotationError("expected a stack of 3x3 matrices")
    orthonormal = np.isclose(m @ np.swapaxes(m, 1, 2), np.eye(3), atol=1e-6).all(axis=(1, 2))
    if not orthonormal.all() or (np.linalg.det(m) < 0.0).any():
        raise InvalidRotationError("matrix is not a rotation within tolerance")
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    tr = d0 + d1 + d2
    # the largest of Shepperd's four pivots, for stability
    branch = np.where(tr > 0, 0, np.where((d0 > d1) & (d0 > d2), 1, np.where(d1 > d2, 2, 3)))
    rows = np.arange(len(m))
    pivots = np.stack([tr + 1.0, 1.0 + d0 - d1 - d2, 1.0 + d1 - d0 - d2, 1.0 + d2 - d0 - d1],
                      axis=1)
    s = np.sqrt(pivots[rows, branch]) * 2
    a = m[:, 2, 1] - m[:, 1, 2]
    b = m[:, 0, 2] - m[:, 2, 0]
    c = m[:, 1, 0] - m[:, 0, 1]
    d = m[:, 0, 1] + m[:, 1, 0]
    e = m[:, 0, 2] + m[:, 2, 0]
    f = m[:, 1, 2] + m[:, 2, 1]
    # row `branch` of this symmetric table over s, its diagonal entry 0.25 s
    table = np.stack([np.stack(r, axis=1) for r in
                      ((tr, a, b, c), (a, tr, d, e), (b, d, tr, f), (c, e, f, tr))], axis=1)
    q = table[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    return _canonical_quats(q)


def _exp_quats(v) -> np.ndarray:
    """Quaternions (...,4) of the rotation vectors v (...,3), unnormalized."""
    v = np.asarray(v, dtype=np.float64)
    angle = np.sqrt(np.vecdot(v, v))
    half = 0.5 * angle
    q = np.empty(v.shape[:-1] + (4,))
    np.cos(half, out=q[..., 0])
    small = angle < 1e-12
    near = small.any()
    if near:        # those rows are divided by 1, then replaced by the series below
        angle = np.where(small, 1.0, angle)
    np.multiply(np.sin(half)[..., None], v / angle[..., None], out=q[..., 1:])
    if near:
        # second-order series keeps exp(log(r)) tight near the identity
        q[small, 0] = 1.0 - half[small] * half[small] / 2.0
        q[small, 1:] = 0.5 * v[small]
    return q


def exp_matrices(v) -> np.ndarray:
    """Rotation matrices (...,3,3) of the rotation vectors v (...,3): unit
    quaternions from `_exp_quats`, whose near-identity series runs only when
    some vector is shorter than 1e-12 rad, through `quat_to_matrices`."""
    q = _exp_quats(v)
    q /= np.sqrt(np.vecdot(q, q))[..., None]
    return quat_to_matrices(q)


def axis_angle_exp(v) -> Rotation:
    return Rotation(_exp_quats(v))


def axis_angle_log(r: Rotation) -> np.ndarray:
    w = min(r.q[0], 1.0)
    angle = 2.0 * np.arccos(w)
    if angle >= np.pi - 1e-6:
        raise NearCutLocusError("rotation angle too close to pi for a stable log")
    s = np.sqrt(max(1.0 - w * w, 0.0))
    if s < 1e-12:
        return 2.0 * r.q[1:]
    return r.q[1:] * (angle / s)


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    d = abs(float(a.q @ b.q))
    return 2.0 * np.arccos(min(d, 1.0))


def special_orthogonalize_matrices(m) -> np.ndarray:
    """Nearest rotations in Frobenius norm, U diag(1, 1, det(UV^T)) V^T, to
    matrices (...,3,3); DegenerateProjectionError if a smallest singular
    value is <= 1e-9, where the projection is not unique."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected matrices (...,3,3), got {m.shape}")
    u, s, vt = np.linalg.svd(m)
    if (s[..., 2] <= 1e-9).any():
        raise DegenerateProjectionError("matrix is rank deficient")
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def rotation_mean(rotations) -> np.ndarray:
    """Chordal L2 mean (Hartley et al. 2013) of V Rotations or matrices (V,...,3,3):
    the sum over V projected onto SO(3), as matrices (...,3,3)."""
    mats = as_matrices(rotations)
    if len(mats) == 0:
        raise ValueError("rotation_mean needs at least one rotation")
    try:
        return special_orthogonalize_matrices(mats.sum(axis=0))
    except DegenerateProjectionError as e:
        raise DegenerateMeanError("summed rotations are rank deficient") from e
