"""Landmark configurations: k labelled points on a shared base manifold.

The product structure does all the work: operations act componentwise (the
landmark axis rides along as a batch axis of the base manifold) and squared
distances add up over landmarks. A cut-locus failure on any single landmark
fails the whole operation, as it must.
"""

from __future__ import annotations

import numpy as np

from .base import Manifold, RiemannianMetric, _rng, _sample_shape


class Landmarks(Manifold):
    """Product of k copies of a base manifold."""

    def __init__(self, base_manifold, k_landmarks):
        if k_landmarks < 1:
            raise ValueError("need at least one landmark")
        super().__init__(
            base_manifold.dim * k_landmarks,
            (k_landmarks,) + base_manifold.point_shape,
            f"landmarks({base_manifold.name})",
        )
        self.base_manifold = base_manifold
        self.k_landmarks = k_landmarks

    def membership_residual(self, point):
        residuals = self.base_manifold.membership_residual(np.asarray(point, dtype=float))
        return np.max(residuals, axis=-1)

    def to_tangent(self, vector, base_point):
        return self.base_manifold.to_tangent(vector, base_point)

    def project(self, point):
        return self.base_manifold.project(point)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        flat = self.base_manifold.random_point(n_samples * self.k_landmarks, rng)
        return flat.reshape(_sample_shape(n_samples, self.point_shape))

    @property
    def default_metric(self):
        return LandmarksMetric(self)


class LandmarksMetric(RiemannianMetric):
    """Product metric over landmarks of a base metric."""

    def __init__(self, manifold, base_metric=None):
        super().__init__(manifold)
        self.base_metric = base_metric or manifold.base_manifold.default_metric

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        per_landmark = self.base_metric.inner_product(
            np.asarray(tangent_vec_a, dtype=float),
            np.asarray(tangent_vec_b, dtype=float),
            np.asarray(base_point, dtype=float),
        )
        return np.sum(per_landmark, axis=-1)

    def _exp(self, tangent_vec, base_point):
        return self.base_metric._exp(tangent_vec, base_point)

    def _log(self, point, base_point):
        return self.base_metric._log(point, base_point)

    def squared_dist(self, point_a, point_b):
        return np.sum(self.base_metric.squared_dist(point_a, point_b), axis=-1)

    def _transport(self, tangent_vec, base_point, direction, end_point):
        return self.base_metric._transport(tangent_vec, base_point, direction, end_point)

    def injectivity_radius(self, base_point):
        return np.min(self.base_metric.injectivity_radius(base_point))
