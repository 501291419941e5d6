"""Hyperbolic space H^n: hyperboloid model, with the Poincare ball as a view.

The hyperboloid sheet {x : <x,x>_M = -1, x_0 > 0} in Minkowski space is the
canonical internal representation; ball operations convert, compute there,
and convert back, so the two representations agree by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..linalg import inner
from .base import Manifold, RiemannianMetric, _rng, _sample_shape
from .euclidean import minkowski_inner

_SERIES_THRESHOLD = 1e-7


def ball_to_hyperboloid(point):
    """Poincare-ball vector (norm < 1) to hyperboloid coordinates."""
    point = np.asarray(point, dtype=float)
    sq = inner(point, point)
    if np.any(sq >= 1.0):
        raise DomainError("Poincare-ball points must have norm < 1")
    denom = (1.0 - sq)[..., None]
    first = (1.0 + sq)[..., None]
    return np.concatenate([first, 2.0 * point], axis=-1) / denom


def hyperboloid_to_ball(point):
    """Hyperboloid coordinates to the Poincare-ball vector."""
    point = np.asarray(point, dtype=float)
    return point[..., 1:] / (1.0 + point[..., :1])


def ball_to_hyperboloid_tangent(tangent_vec, base_point):
    """Differential of :func:`ball_to_hyperboloid` at a ball point."""
    tangent_vec = np.asarray(tangent_vec, dtype=float)
    base_point = np.asarray(base_point, dtype=float)
    sq = inner(base_point, base_point)
    denom = 1.0 - sq
    dot = inner(base_point, tangent_vec)
    first = (4.0 * dot / denom**2)[..., None]
    rest = 2.0 * tangent_vec / denom[..., None] + (4.0 * dot / denom**2)[
        ..., None
    ] * base_point
    return np.concatenate([first, rest], axis=-1)


def hyperboloid_to_ball_tangent(tangent_vec, base_point):
    """Differential of :func:`hyperboloid_to_ball` at a hyperboloid point."""
    tangent_vec = np.asarray(tangent_vec, dtype=float)
    base_point = np.asarray(base_point, dtype=float)
    denom = 1.0 + base_point[..., :1]
    return tangent_vec[..., 1:] / denom - base_point[..., 1:] * (
        tangent_vec[..., :1] / denom**2
    )


class Hyperboloid(Manifold):
    """Upper sheet of the unit hyperboloid in R^{n+1}."""

    def __init__(self, dim):
        super().__init__(dim, (dim + 1,), "hyperboloid")

    def _membership_residual(self, point):
        constraint = np.abs(minkowski_inner(point, point) + 1.0)
        wrong_sheet = np.clip(1.0 - point[..., 0], 0.0, None)
        return np.maximum(constraint, wrong_sheet)

    def to_tangent(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        base_point = np.asarray(base_point, dtype=float)
        return vector + minkowski_inner(base_point, vector)[..., None] * base_point

    def project(self, point):
        """Rescale to ``<x, x>_M = -1``: ``x / sqrt(-<x, x>_M)``."""
        point = np.asarray(point, dtype=float)
        return point / np.sqrt(-minkowski_inner(point, point))[..., None]

    def origin(self):
        out = np.zeros(self.point_shape)
        out[0] = 1.0
        return out

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        spatial = rng.standard_normal(_sample_shape(n_samples, (self.dim,)))
        tangent = np.concatenate([np.zeros(spatial.shape[:-1] + (1,)), spatial], axis=-1)
        return self.default_metric.exp(tangent, self.origin())

    @property
    def default_metric(self):
        return HyperboloidMetric(self)


class HyperboloidMetric(RiemannianMetric):
    """Metric induced by the Minkowski form; curvature -1 closed forms."""

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return minkowski_inner(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        r = np.sqrt(np.clip(minkowski_inner(tangent_vec, tangent_vec), 0.0, None))
        small = r < _SERIES_THRESHOLD
        sinhc = np.where(small, 1.0 + r**2 / 6.0, np.sinh(r) / np.where(small, 1.0, r))
        return np.cosh(r)[..., None] * base_point + sinhc[..., None] * tangent_vec

    def _log(self, point, base_point):
        beta = -minkowski_inner(base_point, point)  # cosh(dist)
        flat = point - beta[..., None] * base_point  # sinh(dist) * direction
        sinh_d = np.sqrt(np.clip(minkowski_inner(flat, flat), 0.0, None))
        d = np.arcsinh(sinh_d)
        small = d < _SERIES_THRESHOLD
        factor = np.where(small, 1.0 - d**2 / 6.0, d / np.where(small, 1.0, sinh_d))
        return factor[..., None] * flat

    def _squared_dist(self, point_a, point_b):
        """``d^2``: ``d = 2 asinh(sqrt(q) / 2)``, ``q = <a - b, a - b>_M = 2 (cosh d - 1)``.

        Both evaluations of ``q`` are symmetric in ``a`` and ``b``. The
        difference form is exact near coincident points, where ``-<a, b>_M``
        rounds to 1; far apart it cancels entries of size ``cosh(d)^2``, so
        ``2 (-<a, b>_M - 1)`` is used once ``-<a, b>_M`` exceeds 2.
        """
        diff = point_a - point_b
        beta = -minkowski_inner(point_a, point_b)
        q = np.where(beta > 2.0, 2.0 * (beta - 1.0), minkowski_inner(diff, diff))
        return (2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))) ** 2

    def _transport(self, tangent_vec, base_point, direction):
        r = np.sqrt(np.clip(minkowski_inner(direction, direction), 0.0, None))
        safe = np.where(r > 0.0, r, 1.0)
        unit = direction / safe[..., None]
        component = minkowski_inner(unit, tangent_vec)
        correction = (np.cosh(r) - 1.0)[..., None] * unit + np.sinh(r)[..., None] * base_point
        return tangent_vec + component[..., None] * correction


class PoincareBall(Manifold):
    """Open unit ball with the conformal hyperbolic metric (a view of H^n)."""

    def __init__(self, dim):
        super().__init__(dim, (dim,), "poincare_ball")

    def _membership_residual(self, point):
        """Zero inside the open ball; ``||x||^2 >= 1`` on and outside its boundary.

        The ball is open, so a point with ``||x|| >= 1`` fails ``belongs`` at
        every tolerance below 1, boundary points included.
        """
        sq = inner(point, point)
        return np.where(sq < 1.0, 0.0, sq)

    def random_point(self, n_samples=1, rng=None):
        hyperboloid = Hyperboloid(self.dim)
        return hyperboloid_to_ball(hyperboloid.random_point(n_samples, rng))

    @property
    def default_metric(self):
        return PoincareBallMetric(self)


class PoincareBallMetric(RiemannianMetric):
    """Conformal factor 2 / (1 - ||y||^2); operations routed via the hyperboloid."""

    def __init__(self, manifold):
        super().__init__(manifold)
        self._hyperboloid = HyperboloidMetric(Hyperboloid(manifold.dim))

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        conformal = 2.0 / (1.0 - inner(base_point, base_point))
        return conformal**2 * inner(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        base = ball_to_hyperboloid(base_point)
        vec = ball_to_hyperboloid_tangent(tangent_vec, base_point)
        point = hyperboloid_to_ball(self._hyperboloid._exp(vec, base))
        # Ball points more than about 37 (hyperbolic distance) from the origin
        # round onto the boundary in float64.
        if not np.all(self.manifold.belongs(point)):
            raise DomainError("Poincare-ball exp lands too close to the boundary for float64")
        return point

    def _log(self, point, base_point):
        base = ball_to_hyperboloid(base_point)
        target = ball_to_hyperboloid(point)
        return hyperboloid_to_ball_tangent(self._hyperboloid._log(target, base), base)

    def _squared_dist(self, point_a, point_b):
        return self._hyperboloid._squared_dist(
            ball_to_hyperboloid(point_a), ball_to_hyperboloid(point_b)
        )

    def _transport(self, tangent_vec, base_point, direction):
        base = ball_to_hyperboloid(base_point)
        velocity = ball_to_hyperboloid_tangent(direction, base_point)
        vec = ball_to_hyperboloid_tangent(tangent_vec, base_point)
        moved = self._hyperboloid._transport(vec, base, velocity)
        return hyperboloid_to_ball_tangent(moved, self._hyperboloid._exp(velocity, base))
