"""The unit hypersphere S^n embedded in R^{n+1}."""

from __future__ import annotations

import numpy as np

from ..errors import CutLocusError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

# Below this tangent norm, sin(x)/x style ratios switch to their 2-term series.
_SERIES_THRESHOLD = 1e-7
# Angles this close to pi count as the cut locus.
_ANTIPODAL_ATOL = 1e-7


def _dot(a, b):
    return np.sum(a * b, axis=-1)


class Hypersphere(Manifold):
    """S^n = {x in R^{n+1} : ||x|| = 1} with the round metric induced by R^{n+1}."""

    def __init__(self, dim):
        super().__init__(dim, (dim + 1,), "hypersphere")

    def _membership_residual(self, point):
        return np.abs(np.linalg.norm(point, axis=-1) - 1.0)

    def project(self, point):
        point = np.asarray(point, dtype=float)
        return point / np.linalg.norm(point, axis=-1, keepdims=True)

    def to_tangent(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        base_point = np.asarray(base_point, dtype=float)
        return vector - _dot(base_point, vector)[..., None] * base_point

    def random_point(self, n_samples=1, rng=None):
        """Uniform samples: normalized standard-normal vectors."""
        rng = _rng(rng)
        return self.project(rng.standard_normal(_sample_shape(n_samples, self.point_shape)))

    @property
    def default_metric(self):
        return SphereMetric(self)


class SphereMetric(RiemannianMetric):
    """Round metric: great-circle geodesics, closed-form exp/log/transport."""

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return _dot(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        angle = np.linalg.norm(tangent_vec, axis=-1)
        small = angle < _SERIES_THRESHOLD
        sinc = np.where(small, 1.0 - angle**2 / 6.0, np.sin(angle) / np.where(small, 1.0, angle))
        return np.cos(angle)[..., None] * base_point + sinc[..., None] * tangent_vec

    def _log(self, point, base_point):
        cos_angle = np.clip(_dot(base_point, point), -1.0, 1.0)
        flat = point - cos_angle[..., None] * base_point  # sin(angle) * direction
        sin_angle = np.linalg.norm(flat, axis=-1)
        angle = np.arctan2(sin_angle, cos_angle)
        if np.any(angle > np.pi - _ANTIPODAL_ATOL):
            raise CutLocusError("sphere log is undefined at (near-)antipodal points")
        small = angle < _SERIES_THRESHOLD
        safe_sin = np.where(small, 1.0, sin_angle)
        factor = np.where(small, 1.0 + angle**2 / 6.0, angle / safe_sin)
        return factor[..., None] * flat

    def _squared_dist(self, point_a, point_b):
        cos_angle = np.clip(_dot(point_a, point_b), -1.0, 1.0)
        flat = point_b - cos_angle[..., None] * point_a
        return np.arctan2(np.linalg.norm(flat, axis=-1), cos_angle) ** 2

    def _transport(self, tangent_vec, base_point, direction, end_point):
        """Closed-form transport along the great circle toward ``direction``."""
        if direction is None:
            direction = self.log(end_point, base_point)
            self._check_tangent("parallel_transport", direction, base_point)

        angle = np.linalg.norm(direction, axis=-1)
        safe = np.where(angle > 0.0, angle, 1.0)
        unit = direction / safe[..., None]
        component = _dot(unit, tangent_vec)
        correction = (
            (np.cos(angle) - 1.0)[..., None] * unit - np.sin(angle)[..., None] * base_point
        )
        return tangent_vec + component[..., None] * correction

    def injectivity_radius(self, base_point):
        return np.pi

    def _newton_direction(self, logs, weights, base_point, gradient):
        """Newton direction of one Karcher-flow segment, or None.

        With u_i = ``logs[i]``, theta_i = |u_i| and c_i = theta_i cot theta_i,
        the Hessian of ``1/2 sum_i w_i d^2(., p_i)`` at x is
        ``H = sum_i w_i [(1 - c_i) u_i u_i^T / theta_i^2 + c_i (I - x x^T)]``:
        1 along the geodesic to p_i and c_i across it (Groisser 2004).
        ``H + x x^T`` is H on T_x and the identity along x, so it is positive
        definite exactly when H is on T_x. Then the direction solves
        ``H v = gradient`` on T_x; otherwise the answer is None.
        """
        theta = np.linalg.norm(logs, axis=-1)
        small = theta < _SERIES_THRESHOLD
        safe = np.where(small, 1.0, theta)
        cross = np.where(small, 1.0 - theta**2 / 3.0, safe / np.tan(safe))
        along = np.where(small, 1.0 / 3.0, (1.0 - cross) / safe**2)
        level = np.dot(weights, cross)
        shifted = (logs.T * (weights * along)) @ logs
        shifted += level * np.eye(len(base_point))
        shifted += (1.0 - level) * np.outer(base_point, base_point)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
        return self.manifold.to_tangent(np.linalg.solve(shifted, gradient), base_point)
