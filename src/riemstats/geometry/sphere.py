"""The unit hypersphere S^n embedded in R^{n+1}."""

from __future__ import annotations

import numpy as np

from ..errors import CutLocusError
from ..linalg import inner, norm, positive_definite
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

# Below this tangent norm, sin(x)/x style ratios switch to their 2-term series.
_SERIES_THRESHOLD = 1e-7
# Angles this close to pi count as the cut locus.
_ANTIPODAL_ATOL = 1e-7
# ``_nearest`` certifies no row once a point's or a centroid's squared norm is
# this far from 1: its bound assumes norms near 1.
_NEAREST_MAX_DRIFT = 1e-3
_EPS = np.finfo(float).eps


class Hypersphere(Manifold):
    """S^n = {x in R^{n+1} : ||x|| = 1} with the round metric induced by R^{n+1}."""

    def __init__(self, dim):
        super().__init__(dim, (dim + 1,), "hypersphere")

    def _membership_residual(self, point):
        return np.abs(norm(point) - 1.0)

    def project(self, point):
        point = np.asarray(point, dtype=float)
        return point / norm(point)[..., None]

    def to_tangent(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        base_point = np.asarray(base_point, dtype=float)
        return vector - inner(base_point, vector)[..., None] * base_point

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
        return inner(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        angle = norm(tangent_vec)
        small = angle < _SERIES_THRESHOLD
        sinc = np.where(small, 1.0 - angle**2 / 6.0, np.sin(angle) / np.where(small, 1.0, angle))
        return np.cos(angle)[..., None] * base_point + sinc[..., None] * tangent_vec

    def _log(self, point, base_point):
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        cos_angle = np.clip(inner(base_point, point), -1.0, 1.0)
        flat = point - cos_angle[..., None] * base_point  # sin(angle) * direction
        sin_angle = norm(flat)
        angle = np.arctan2(sin_angle, cos_angle)
        if np.any(angle > np.pi - _ANTIPODAL_ATOL):
            raise CutLocusError("sphere log is undefined at (near-)antipodal points")
        small = angle < _SERIES_THRESHOLD
        safe_sin = np.where(small, 1.0, sin_angle)
        sq = angle**2
        factor = np.where(small, 1.0 + sq / 6.0, angle / safe_sin)
        return factor[..., None] * flat, sq

    def _squared_dist(self, point_a, point_b):
        cos_angle = np.clip(inner(point_a, point_b), -1.0, 1.0)
        flat = point_b - cos_angle[..., None] * point_a
        return np.arctan2(norm(flat), cos_angle) ** 2

    def _transport(self, tangent_vec, base_point, direction):
        """Closed-form transport along the great circle toward ``direction``."""
        angle = norm(direction)
        safe = np.where(angle > 0.0, angle, 1.0)
        unit = direction / safe[..., None]
        component = inner(unit, tangent_vec)
        correction = (
            (np.cos(angle) - 1.0)[..., None] * unit - np.sin(angle)[..., None] * base_point
        )
        return tangent_vec + component[..., None] * correction

    def injectivity_radius(self, base_point):
        return np.pi

    def _newton_directions(self, logs, extras, weights, base_points, gradients):
        """Newton directions of Karcher-flow segments, and where they exist.

        Segment s holds the logs ``u_i = logs[s][i]`` of its points at
        ``x = base_points[s]``, their normalized ``weights[s]`` and its mean
        log ``gradients[s]``; ``extras[s]`` is empty. With theta_i = |u_i|
        and c_i = theta_i cot theta_i, the Hessian of
        ``1/2 sum_i w_i d^2(., p_i)`` at x is
        ``H = sum_i w_i [(1 - c_i) u_i u_i^T / theta_i^2 + c_i (I - x x^T)]``:
        1 along the geodesic to p_i and c_i across it (Groisser 2004).
        ``H + x x^T`` is H on T_x and the identity along x, so it is positive
        definite exactly when H is on T_x. All segments' matrices take one
        stacked Cholesky test and the positive-definite ones one batched
        solve of ``H v = gradient`` on T_x. Every step works on each segment
        alone, so its direction does not depend on the other segments.

        Returns ``(directions, positive_definite)``; a direction is zero
        where its segment's Hessian is not positive definite.
        """
        bounds = np.cumsum([0] + [len(log) for log in logs])
        flat = np.concatenate(logs)
        theta = norm(flat)
        small = theta < _SERIES_THRESHOLD
        safe = np.where(small, 1.0, theta)
        cross = np.where(small, 1.0 - theta**2 / 3.0, safe / np.tan(safe))
        along = np.where(small, 1.0 / 3.0, (1.0 - cross) / safe**2)
        weights = np.concatenate(weights)
        level = np.add.reduceat(weights * cross, bounds[:-1])
        scaled = flat * (weights * along)[:, None]
        # One (d, n) @ (n, d) product per segment on its own rows.
        shifted = np.stack(
            [scaled[a:b].T @ flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        )
        shifted += level[:, None, None] * np.eye(base_points.shape[-1])
        shifted += (1.0 - level)[:, None, None] * (base_points[:, :, None] * base_points[:, None, :])
        positive = positive_definite(shifted)
        directions = np.zeros_like(gradients)
        directions[positive] = self.manifold.to_tangent(
            np.linalg.solve(shifted[positive], gradients[positive][..., None])[..., 0],
            base_points[positive],
        )
        return directions, positive

    def _nearest(self, points, centroids):
        """Nearest centroids of a batch ``(n, d)`` by one Gram product, and where it is certain.

        The centroid of largest ``<x, c_j>`` is x's nearest, and its row is
        certain when that entry beats every other by more than
        ``B = 32 (eta + 2 d eps)``. Here eta is the largest computed
        ``|<v, v> - 1|`` over the points and centroids, capped at
        ``_NEAREST_MAX_DRIFT``, so every norm is within ``e = eta + 2 d u``
        of 1 (u = eps / 2, d the ambient dimension). A certain row's label
        is where ``_squared_dist(c_j, x)``, as computed, is strictly least,
        by three steps, with theta_j the exact angle between x and c_j:

        1. ``_squared_dist`` squares ``a_j = atan2(s, t)``, with t the
           clipped ``<c_j, x>`` and s the norm of ``x - t c_j``. (t, s) lies
           within ``7 e + 3 d u + 5 u`` of ``|x| (cos theta_j, sin theta_j)``
           (the products' rounding, the clip, ``|c_j| != 1`` and the
           rounding of ``x - t c_j`` and its norm), so with 4 ulp for
           ``arctan2``, ``|a_j - theta_j| <= 12 e + 5 d u + 34 u``.
        2. The entries of the product are within ``1.01 d u`` of
           ``|x| |c_j| cos theta_j``, so an entry gap above B leaves
           ``cos theta_* - cos theta_j > B - 3 e - 3 d u``, and
           ``theta_j - theta_*`` is at least that, as ``|cos'| <= 1``.
        3. That exceeds twice the bound of step 1 plus 4 u, by
           ``5 eta + 25 d u`` at least (d >= 2), so ``a_j - a_* > 4 u``:
           more than the rounding of the square can close.

        Returns ``(labels, certain)``; no row is certain past the cap.
        """
        sq_norms = np.concatenate([inner(points, points), inner(centroids, centroids)])
        eta = float(abs(sq_norms - 1.0).max())
        if not eta <= _NEAREST_MAX_DRIFT:
            return np.zeros(len(points), dtype=int), np.zeros(len(points), dtype=bool)
        gram = centroids @ points.T
        near = gram >= gram.max(axis=0) - 32.0 * (eta + 2 * points.shape[-1] * _EPS)
        return near.argmax(axis=0), near.sum(axis=0) == 1
