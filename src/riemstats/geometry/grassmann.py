"""Grassmann manifold Gr(n, p) of p-dimensional subspaces of R^n.

A subspace is represented canonically by its rank-p orthogonal projector
(symmetric, idempotent). With the inner product <S1, S2> = tr(S1 S2) / 2 the
geodesic distance is the 2-norm of the principal angles, and exp/log have
closed forms through the rotation Omega = [S, P]:

    exp_P(S) = e^Omega P e^-Omega,   Omega = [S, P]
    log_P(Q) = [Omega, P],           Omega = logm((2Q - I)(2P - I)) / 2
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import CutLocusError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

_CUT_ANGLE_ATOL = 1e-6


def projector_from_basis(basis):
    """Orthogonal projector onto the column span of a full-rank n x p matrix."""
    q, _ = linalg.qr(basis)
    return q @ linalg.transpose(q)


class Grassmann(Manifold):
    """Rank-p orthogonal projectors on R^n."""

    def __init__(self, n, p):
        if not 1 <= p < n:
            raise ValueError("Grassmann needs 1 <= p < n")
        super().__init__(p * (n - p), (n, n), "grassmann")
        self.n = n
        self.p = p

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        asym = np.max(np.abs(point - linalg.transpose(point)), axis=(-2, -1))
        idem = np.max(np.abs(point @ point - point), axis=(-2, -1))
        trace = np.abs(np.trace(point, axis1=-2, axis2=-1) - self.p)
        return np.maximum(np.maximum(asym, idem), trace)

    def basis_from_projector(self, point):
        """Deterministic orthonormal basis of the projector's range, (..., n, p)."""
        _, vecs = linalg.sym_eig(np.asarray(point, dtype=float))
        return vecs[..., : self.p]

    def project(self, point):
        """Nearest rank-p projector: onto the top p eigenvectors of the symmetric part."""
        basis = self.basis_from_projector(linalg.sym(point))
        return basis @ linalg.transpose(basis)

    def to_tangent(self, vector, base_point):
        vector = linalg.sym(np.asarray(vector, dtype=float))
        base_point = np.asarray(base_point, dtype=float)
        eye = np.eye(self.n)
        return base_point @ vector @ (eye - base_point) + (eye - base_point) @ vector @ base_point

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        shape = _sample_shape(n_samples, (self.n, self.p))
        return projector_from_basis(rng.standard_normal(shape))

    @property
    def default_metric(self):
        return GrassmannMetric(self)


class GrassmannMetric(RiemannianMetric):
    """Canonical quotient metric in projector representation."""

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return 0.5 * np.sum(
            np.asarray(tangent_vec_a, dtype=float) * np.asarray(tangent_vec_b, dtype=float),
            axis=(-2, -1),
        )

    def principal_angles(self, point_a, point_b):
        """Principal angles between two subspaces, ascending, shape (..., p).

        Small angles come from the sine route (singular values of the
        complement overlap), large ones from the cosine route, which keeps
        every angle accurate to round-off.
        """
        mfd = self.manifold
        basis_a = mfd.basis_from_projector(point_a)
        basis_b = mfd.basis_from_projector(point_b)
        overlap = linalg.transpose(basis_a) @ basis_b
        cos_vals = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
        complement = (np.eye(mfd.n) - np.asarray(point_a, dtype=float)) @ basis_b
        sin_vals = np.clip(np.linalg.svd(complement, compute_uv=False), 0.0, 1.0)
        # cos_vals descending <-> angles ascending; sin route sorted to match.
        from_cos = np.arccos(cos_vals)
        from_sin = np.arcsin(np.sort(sin_vals, axis=-1))
        return np.where(cos_vals**2 >= 0.5, from_sin, from_cos)

    def squared_dist(self, point_a, point_b):
        angles = self.principal_angles(point_a, point_b)
        return np.sum(angles**2, axis=-1)

    def _exp(self, tangent_vec, base_point):
        omega = tangent_vec @ base_point - base_point @ tangent_vec
        rot = linalg.matrix_exp(omega)
        return rot @ base_point @ linalg.transpose(rot)

    def _log(self, point, base_point):
        angles = self.principal_angles(base_point, point)
        if np.any(angles >= 0.5 * np.pi - _CUT_ANGLE_ATOL):
            raise CutLocusError(
                "Grassmann log needs all principal angles below pi/2"
            )
        eye = np.eye(self.manifold.n)
        rot = (2.0 * point - eye) @ (2.0 * base_point - eye)
        omega = 0.5 * linalg.skew(linalg.matrix_log(rot))
        return omega @ base_point - base_point @ omega

    def _transport(self, tangent_vec, base_point, direction, end_point):
        """Conjugation by the geodesic rotation e^Omega."""
        if direction is None:
            direction = self.log(end_point, base_point)
        omega = direction @ base_point - base_point @ direction
        rot = linalg.matrix_exp(omega)
        return rot @ tangent_vec @ linalg.transpose(rot)

    def injectivity_radius(self, base_point):
        return 0.5 * np.pi
