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
from ..errors import DomainError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape


class GeneralLinear(Manifold):
    """Square matrices invertible by ``linalg.is_singular``'s scale-free singular-value rule."""

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

    def _membership_residual(self, point):
        return np.where(linalg.is_singular(np.linalg.svd(point, compute_uv=False)), np.inf, 0.0)

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


def _inverse(mat, what):
    """``mat^-1``; DomainError naming ``what`` where a matrix is exactly singular."""
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise DomainError(f"{what} is singular") from None


class GLGroupMetric(RiemannianMetric):
    """Group exp/log charts with the left-invariant Frobenius inner product."""

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        inv = _inverse(base_point, "base point")
        return linalg.inner(inv @ tangent_vec_a, inv @ tangent_vec_b, axes=2)

    def _exp(self, tangent_vec, base_point):
        return base_point @ linalg.matrix_exp(_inverse(base_point, "base point") @ tangent_vec)

    def _log(self, point, base_point):
        return base_point @ linalg.matrix_log(_inverse(base_point, "base point") @ point)

    def _squared_dist(self, point_a, point_b):
        log = linalg.matrix_log(_inverse(point_a, "point") @ point_b)
        return linalg.inner(log, log, axes=2)

    def injectivity_radius(self, base_point):
        # Conservative: within log(2) of the identity in the body chart the
        # principal logarithm is guaranteed to exist.
        return np.log(2.0)
