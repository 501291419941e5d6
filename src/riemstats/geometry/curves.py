"""Spaces of discretized curves: the L2 metric and the square-root-velocity metric.

A curve is sampled at k points on the uniform grid over [0, 1]; velocities
are forward differences on the k-1 intervals, so the SRV transform lives on
grid midpoints and is exactly inverted by cumulative summation from the
curve's start point.

The SRV metric is flat in the transform chart. Its tangent vectors are chart
increments of shape (k-1, d); the transform kills translations, so the
induced distance is translation invariant and exp re-anchors results at the
base curve's start point.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..linalg import inner, norm
from .base import Manifold, RiemannianMetric, _rng, _sample_shape, _shaped
from .euclidean import EuclideanMetric

# Squared-velocity threshold under which the SRV transform is undefined.
_MIN_SPEED = 1e-10


def srv_transform(curve):
    """Square-root-velocity representation q_i = v_i / sqrt(|v_i|), shape (..., k-1, d)."""
    curve = np.asarray(curve, dtype=float)
    k = curve.shape[-2]
    velocity = (k - 1.0) * (curve[..., 1:, :] - curve[..., :-1, :])
    speed = norm(velocity)
    if np.any(speed <= _MIN_SPEED):
        raise DomainError("SRV transform needs nonvanishing discrete velocity")
    return velocity / np.sqrt(speed)[..., None]


def srv_inverse(srv, anchor):
    """Curve whose SRV representation is ``srv``, starting at ``anchor``."""
    srv = np.asarray(srv, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    k = srv.shape[-2] + 1
    velocity = srv * norm(srv)[..., None]
    steps = velocity / (k - 1.0)
    start = np.broadcast_to(anchor, steps.shape[:-2] + anchor.shape[-1:])[..., None, :]
    return np.concatenate([start, start + np.cumsum(steps, axis=-2)], axis=-2)


class DiscretizedCurves(Manifold):
    """Curves in R^d sampled at k uniformly spaced parameters."""

    def __init__(self, k_sampling_points, ambient_dim):
        if k_sampling_points < 2:
            raise ValueError("need at least 2 sampling points")
        super().__init__(
            k_sampling_points * ambient_dim, (k_sampling_points, ambient_dim), "curves"
        )
        self.k_sampling_points = k_sampling_points
        self.ambient_dim = ambient_dim

    def _membership_residual(self, point):
        return np.zeros(point.shape[:-2])

    def random_point(self, n_samples=1, rng=None):
        """Random walks: generic curves with nonvanishing velocities."""
        rng = _rng(rng)
        shape = _sample_shape(n_samples, self.point_shape)
        steps = rng.standard_normal(shape) / np.sqrt(self.k_sampling_points)
        return np.cumsum(steps, axis=-2)

    @property
    def default_metric(self):
        return CurvesL2Metric(self)

    @property
    def l2_metric(self):
        return CurvesL2Metric(self)

    @property
    def srv_metric(self):
        return SRVMetric(self)


class CurvesL2Metric(EuclideanMetric):
    """Flat L2 metric with trapezoid quadrature on the sample grid."""

    def __init__(self, manifold):
        super().__init__(manifold)
        k = manifold.k_sampling_points
        weights = np.full(k, 1.0 / (k - 1.0))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        self._weights = weights

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return inner(self._weights, inner(tangent_vec_a, tangent_vec_b))


class SRVMetric(RiemannianMetric):
    """Square-root-velocity metric: flat in the SRV chart, midpoint quadrature.

    Tangent vectors are SRV-chart increments, shape (k-1, d).
    """

    prefers_shared_base = True  # each base curve is SRV-transformed

    @property
    def tangent_shape(self):
        k, d = self.manifold.point_shape
        return (k - 1, d)

    @property
    def tangent_dim(self):
        k, d = self.manifold.point_shape
        return (k - 1) * d

    def to_tangent(self, vector, base_point):
        return _shaped(vector, self.tangent_shape, "SRV tangent vector")

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        k = self.manifold.k_sampling_points
        return inner(tangent_vec_a, tangent_vec_b, axes=2) / (k - 1.0)

    def _exp(self, tangent_vec, base_point):
        srv = srv_transform(base_point) + tangent_vec
        speed_sq = inner(srv, srv)
        if np.any(speed_sq <= _MIN_SPEED):
            raise DomainError("SRV exp produced a curve with vanishing velocity")
        return srv_inverse(srv, base_point[..., 0, :])

    def _log(self, point, base_point):
        return srv_transform(point) - srv_transform(base_point)

    def _squared_dist(self, point_a, point_b):
        diff = srv_transform(point_a) - srv_transform(point_b)
        k = self.manifold.k_sampling_points
        return inner(diff, diff, axes=2) / (k - 1.0)

    def _transport(self, tangent_vec, base_point, direction):
        # The chart is flat and shared between base points: the identity,
        # broadcast over the batch axes of the base curve and the direction.
        batch = np.broadcast_shapes(*(a.shape[:-2] for a in (tangent_vec, base_point, direction)))
        return np.broadcast_to(tangent_vec, batch + tangent_vec.shape[-2:]).copy()

    def injectivity_radius(self, base_point):
        """Chart distance from the base to the nearest vanishing-velocity curve."""
        srv = srv_transform(base_point)
        k = self.manifold.k_sampling_points
        speeds = norm(srv)
        return np.min(speeds, axis=-1) / np.sqrt(k - 1.0)
