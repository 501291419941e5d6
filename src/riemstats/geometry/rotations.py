"""Rotation groups SO(n) with the bi-invariant metric, plus SO(3) helpers.

The Lie-algebra inner product is the plain Frobenius form tr(A^T B), so the
distance between rotations R1, R2 is ||logm(R1^T R2)||_F; in 3D that equals
sqrt(2) times the relative rotation angle. The log raises CutLocusError
within ``_ANGLE_PI_ATOL`` of rotation angle pi; ``linalg.matrix_log`` makes
that test on the angles of its own decomposition. ``hat``/``vee`` and the
rotation angles of ``dist`` come from ``linalg``.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..linalg import hat
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

# Rotation angles within this of pi sit on the cut locus of the log.
_ANGLE_PI_ATOL = 1e-6


def matrix_from_rotation_vector(rot_vec):
    """Axis-angle vector to rotation matrix: ``matrix_exp`` of the exactly
    skew ``hat(rot_vec)``, which takes Rodrigues' formula."""
    return linalg.matrix_exp(hat(rot_vec))


def rotation_vector_from_matrix(rot):
    """Principal axis-angle vector of a rotation matrix (angle in [0, pi])."""
    axis, angle = linalg._rotation_axis_angle_3x3(np.asarray(rot, dtype=float))
    return axis * angle[..., None]


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

    def _membership_residual(self, point):
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

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return linalg.inner(tangent_vec_a, tangent_vec_b, axes=2)

    def _exp(self, tangent_vec, base_point):
        algebra = linalg.skew(linalg.transpose(base_point) @ tangent_vec)
        return base_point @ linalg.matrix_exp(algebra)

    def _log(self, point, base_point):
        relative = linalg.transpose(base_point) @ point
        return base_point @ linalg.skew(linalg.matrix_log(relative, cut_atol=_ANGLE_PI_ATOL))

    def _squared_dist(self, point_a, point_b):
        angles = linalg.rotation_angles(linalg.transpose(point_a) @ point_b)
        return linalg.inner(angles, angles)

    def _transport(self, tangent_vec, base_point, direction):
        """Bi-invariant transport: conjugation by the half-way group element."""
        algebra = linalg.skew(linalg.transpose(base_point) @ direction)
        half = linalg.matrix_exp(0.5 * algebra)
        body = linalg.transpose(base_point) @ tangent_vec
        return base_point @ half @ body @ half

    def injectivity_radius(self, base_point):
        return np.sqrt(2.0) * np.pi
