"""Flat spaces: Euclidean R^n and Minkowski space with signature (-, +, ..., +)."""

from __future__ import annotations

import numpy as np

from ..linalg import inner
from .base import Manifold, RiemannianMetric, _rng, _sample_shape


def minkowski_inner(vec_a, vec_b):
    """Bilinear form with signature (-, +, ..., +) on the first axis entry."""
    vec_a = np.asarray(vec_a, dtype=float)
    vec_b = np.asarray(vec_b, dtype=float)
    spatial = inner(vec_a[..., 1:], vec_b[..., 1:])
    return spatial - vec_a[..., 0] * vec_b[..., 0]


class Euclidean(Manifold):
    """R^n with the standard inner product."""

    def __init__(self, n):
        super().__init__(n, (n,), "euclidean")
        self.n = n

    def _membership_residual(self, point):
        return np.zeros(point.shape[:-1])

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        return rng.standard_normal(_sample_shape(n_samples, self.point_shape))

    @property
    def default_metric(self):
        return EuclideanMetric(self)


class EuclideanMetric(RiemannianMetric):
    """Flat metric: exp is addition, log subtraction, transport the identity."""

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return inner(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        return base_point + tangent_vec

    def _log(self, point, base_point):
        return point - base_point

    def _transport(self, tangent_vec, base_point, direction):
        vec, _, _ = np.broadcast_arrays(tangent_vec, base_point, direction)
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

    ``squared_dist`` is the signed squared interval. ``dist`` is only defined
    for spacelike (or null) separations: the base rule raises
    :class:`DomainError` on timelike ones.
    """

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return minkowski_inner(tangent_vec_a, tangent_vec_b)
