"""The general linear group GL(n) of invertible matrices.

The group structure supplies exp/log charts: ``exp_P(V) = P expm(P^-1 V)``
and ``log_P(Q) = P logm(P^-1 Q)``, with ``d(P, Q) = ||logm(P^-1 Q)||_F``.
These are the one-parameter-subgroup (Cartan) maps of the group, paired with
the left-invariant Frobenius inner product; they are exact mutual inverses
wherever the principal matrix logarithm exists.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

_DET_ATOL = 1e-10


class GeneralLinear(Manifold):
    """Square matrices with |det| above tolerance."""

    def __init__(self, n):
        super().__init__(n * n, (n, n), "general_linear")
        self.n = n

    @property
    def identity(self):
        return np.eye(self.n)

    def compose(self, point_a, point_b):
        return np.asarray(point_a, dtype=float) @ np.asarray(point_b, dtype=float)

    def inverse(self, point):
        return np.linalg.inv(np.asarray(point, dtype=float))

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        det = np.abs(np.linalg.det(point))
        finite = np.all(np.isfinite(point), axis=(-2, -1))
        ok = finite & (det > _DET_ATOL)
        return np.where(ok, 0.0, np.inf)

    def lie_algebra_basis(self):
        eye = np.eye(self.n * self.n)
        return eye.reshape(self.n * self.n, self.n, self.n)

    def group_exp(self, algebra_vec):
        """Group exponential at the identity."""
        return linalg.matrix_exp(algebra_vec)

    def group_log(self, point):
        """Principal group logarithm at the identity."""
        return linalg.matrix_log(point)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        raw = rng.standard_normal(_sample_shape(n_samples, self.point_shape))
        return linalg.matrix_exp(0.4 * raw)

    @property
    def default_metric(self):
        return GLGroupMetric(self)


class GLGroupMetric(RiemannianMetric):
    """Group exp/log charts with the left-invariant Frobenius inner product."""

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        inv = np.linalg.inv(np.asarray(base_point, dtype=float))
        return np.sum((inv @ np.asarray(tangent_vec_a, dtype=float))
                      * (inv @ np.asarray(tangent_vec_b, dtype=float)), axis=(-2, -1))

    def _exp(self, tangent_vec, base_point):
        return base_point @ linalg.matrix_exp(np.linalg.inv(base_point) @ tangent_vec)

    def _log(self, point, base_point):
        return base_point @ linalg.matrix_log(np.linalg.inv(base_point) @ point)

    def squared_dist(self, point_a, point_b):
        relative = np.linalg.inv(np.asarray(point_a, dtype=float)) @ np.asarray(
            point_b, dtype=float
        )
        log = linalg.matrix_log(relative)
        return np.sum(log**2, axis=(-2, -1))

    def injectivity_radius(self, base_point):
        # Conservative: within log(2) of the identity in the body chart the
        # principal logarithm is guaranteed to exist.
        return np.log(2.0)
