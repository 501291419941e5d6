"""Flat spaces: Euclidean R^n and Minkowski space with signature (-, +, ..., +)."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape


def minkowski_inner(vec_a, vec_b):
    """Bilinear form with signature (-, +, ..., +) on the first axis entry."""
    vec_a = np.asarray(vec_a, dtype=float)
    vec_b = np.asarray(vec_b, dtype=float)
    spatial = np.sum(vec_a[..., 1:] * vec_b[..., 1:], axis=-1)
    return spatial - vec_a[..., 0] * vec_b[..., 0]


class Euclidean(Manifold):
    """R^n with the standard inner product."""

    def __init__(self, n):
        super().__init__(n, (n,), "euclidean")
        self.n = n

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        finite = np.all(np.isfinite(point), axis=-1)
        return np.where(finite, 0.0, np.inf)

    def to_tangent(self, vector, base_point):
        return np.asarray(vector, dtype=float)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        return rng.standard_normal(_sample_shape(n_samples, self.point_shape))

    @property
    def default_metric(self):
        return EuclideanMetric(self)


class EuclideanMetric(RiemannianMetric):
    """Flat metric: exp is addition, log subtraction, transport the identity."""

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return np.sum(
            np.asarray(tangent_vec_a, dtype=float) * np.asarray(tangent_vec_b, dtype=float),
            axis=-1,
        )

    def exp(self, tangent_vec, base_point):
        return np.asarray(base_point, dtype=float) + np.asarray(tangent_vec, dtype=float)

    def log(self, point, base_point):
        return np.asarray(point, dtype=float) - np.asarray(base_point, dtype=float)

    def _transport(self, tangent_vec, base_point, direction, end_point):
        target = end_point if end_point is not None else direction
        vec, _ = np.broadcast_arrays(tangent_vec, target)
        return vec.copy()


class Minkowski(Euclidean):
    """R^n as a flat pseudo-Riemannian space, signature (-, +, ..., +).

    The first coordinate is the timelike one; there is no membership
    constraint beyond finiteness.
    """

    def __init__(self, n):
        if n < 2:
            raise ValueError("Minkowski space needs n >= 2")
        super().__init__(n)
        self.name = "minkowski"

    @property
    def default_metric(self):
        return MinkowskiMetric(self)


class MinkowskiMetric(EuclideanMetric):
    """Flat metric of signature (-, +, ..., +): exp is addition, log subtraction.

    ``squared_dist`` is the signed squared interval; ``dist`` is only defined
    for spacelike (or null) separations and raises :class:`DomainError` on
    timelike ones.
    """

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return minkowski_inner(tangent_vec_a, tangent_vec_b)

    def squared_dist(self, point_a, point_b):
        diff = self.log(point_b, point_a)
        return minkowski_inner(diff, diff)

    def dist(self, point_a, point_b):
        sq = self.squared_dist(point_a, point_b)
        if np.any(sq < -1e-12):
            raise DomainError("timelike separation has no real Minkowski distance")
        return np.sqrt(np.clip(sq, 0.0, None))
