"""Rotation groups SO(n) with the bi-invariant metric, plus SO(3) helpers.

The Lie-algebra inner product is the plain Frobenius form tr(A^T B), so the
distance between rotations R1, R2 is ||logm(R1^T R2)||_F; in 3D that equals
sqrt(2) times the relative rotation angle.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import CutLocusError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

# Rotation angles within this of pi sit on the cut locus of the log.
_ANGLE_PI_ATOL = 1e-6
_SERIES_THRESHOLD = 1e-7


def hat(vec):
    """so(3) matrix of a 3-vector: hat(v) w = v x w."""
    vec = np.asarray(vec, dtype=float)
    zero = np.zeros_like(vec[..., 0])
    return np.stack(
        [
            np.stack([zero, -vec[..., 2], vec[..., 1]], axis=-1),
            np.stack([vec[..., 2], zero, -vec[..., 0]], axis=-1),
            np.stack([-vec[..., 1], vec[..., 0], zero], axis=-1),
        ],
        axis=-2,
    )


def vee(mat):
    """Inverse of :func:`hat` on skew 3x3 matrices."""
    mat = np.asarray(mat, dtype=float)
    return np.stack([mat[..., 2, 1], mat[..., 0, 2], mat[..., 1, 0]], axis=-1)


def matrix_from_rotation_vector(rot_vec):
    """Rodrigues formula: axis-angle vector to rotation matrix."""
    rot_vec = np.asarray(rot_vec, dtype=float)
    angle = np.linalg.norm(rot_vec, axis=-1)
    small = angle < _SERIES_THRESHOLD
    sq = angle**2
    coef_sin = np.where(small, 1.0 - sq / 6.0, np.sin(angle) / np.where(small, 1.0, angle))
    coef_cos = np.where(
        small, 0.5 - sq / 24.0, (1.0 - np.cos(angle)) / np.where(small, 1.0, sq)
    )
    skew_mat = hat(rot_vec)
    return (
        np.eye(3)
        + coef_sin[..., None, None] * skew_mat
        + coef_cos[..., None, None] * (skew_mat @ skew_mat)
    )


def rotation_vector_from_matrix(rot):
    """Principal axis-angle vector of a rotation matrix (angle in [0, pi])."""
    axis, angle = linalg._rotation_axis_angle_3x3(np.asarray(rot, dtype=float))
    return axis * angle[..., None]


def rotation_angles(rot):
    """Principal rotation angles, so that ||logm(rot)||_F^2 = sum(angles^2).

    Counts each conjugate eigenvalue pair twice, matching the Frobenius norm
    of the skew logarithm.
    """
    rot = np.asarray(rot, dtype=float)
    eigvals = np.linalg.eigvals(rot)
    return np.abs(np.angle(eigvals))


class SpecialOrthogonal(Manifold):
    """SO(n): orthogonal matrices of determinant +1."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("SpecialOrthogonal needs n >= 2")
        super().__init__(n * (n - 1) // 2, (n, n), "special_orthogonal")
        self.n = n

    @property
    def identity(self):
        return np.eye(self.n)

    def compose(self, point_a, point_b):
        return np.asarray(point_a, dtype=float) @ np.asarray(point_b, dtype=float)

    def inverse(self, point):
        return linalg.transpose(point)

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        ortho = np.max(
            np.abs(linalg.transpose(point) @ point - np.eye(self.n)), axis=(-2, -1)
        )
        det = np.abs(np.linalg.det(point) - 1.0)
        return np.maximum(ortho, det)

    def to_tangent(self, vector, base_point):
        base_point = np.asarray(base_point, dtype=float)
        return base_point @ linalg.skew(linalg.transpose(base_point) @ np.asarray(vector, dtype=float))

    def project(self, point):
        """Nearest rotation in Frobenius norm (polar factor, det corrected)."""
        u, _, vt = linalg.svd(point)
        rot = u @ vt
        det = np.linalg.det(rot)
        flip = np.ones(rot.shape[:-2] + (self.n,))
        flip[..., -1] = np.sign(det)
        return (u * flip[..., None, :]) @ vt

    def lie_algebra_basis(self):
        """Frobenius-orthonormal basis of so(n), shape (dim, n, n)."""
        basis = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                mat = np.zeros((self.n, self.n))
                mat[i, j] = -1.0 / np.sqrt(2.0)
                mat[j, i] = 1.0 / np.sqrt(2.0)
                basis.append(mat)
        return np.stack(basis)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        q, _ = linalg.qr(rng.standard_normal(_sample_shape(n_samples, self.point_shape)))
        det = np.linalg.det(q)
        flip = np.ones(q.shape[:-2] + (self.n,))
        flip[..., -1] = np.sign(det)
        return q * flip[..., None, :]

    @property
    def default_metric(self):
        return SOBiInvariantMetric(self)

    @property
    def bi_invariant_metric(self):
        return SOBiInvariantMetric(self)


class SOBiInvariantMetric(RiemannianMetric):
    """Bi-invariant metric with Frobenius inner product on the algebra.

    Geodesics are one-parameter subgroups: exp_R(V) = R expm(R^T V).
    """

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return np.sum(
            np.asarray(tangent_vec_a, dtype=float) * np.asarray(tangent_vec_b, dtype=float),
            axis=(-2, -1),
        )

    def _exp(self, tangent_vec, base_point):
        algebra = linalg.skew(linalg.transpose(base_point) @ tangent_vec)
        return base_point @ linalg.matrix_exp(algebra)

    def _relative_log(self, point, base_point):
        relative = linalg.transpose(base_point) @ point
        angle = np.max(rotation_angles(relative), axis=-1)
        if np.any(angle >= np.pi - _ANGLE_PI_ATOL):
            raise CutLocusError("SO(n) log is undefined at rotation angle pi")
        return linalg.skew(linalg.matrix_log(relative))

    def _log(self, point, base_point):
        return base_point @ self._relative_log(point, base_point)

    def squared_dist(self, point_a, point_b):
        relative = linalg.transpose(np.asarray(point_a, dtype=float)) @ np.asarray(
            point_b, dtype=float
        )
        n = relative.shape[-1]
        if n == 3:
            _, angle = linalg._rotation_axis_angle_3x3(relative)
            return 2.0 * angle**2
        if n == 2:
            angle = np.arctan2(relative[..., 1, 0], relative[..., 0, 0])
            return 2.0 * angle**2
        return np.sum(rotation_angles(relative) ** 2, axis=-1)

    def _transport(self, tangent_vec, base_point, direction, end_point):
        """Bi-invariant transport: conjugation by the half-way group element."""
        if direction is None:
            algebra = self._relative_log(end_point, base_point)
        else:
            algebra = linalg.skew(linalg.transpose(base_point) @ direction)
        half = linalg.matrix_exp(0.5 * algebra)
        body = linalg.transpose(base_point) @ tangent_vec
        return base_point @ half @ body @ half

    def injectivity_radius(self, base_point):
        return np.sqrt(2.0) * np.pi
