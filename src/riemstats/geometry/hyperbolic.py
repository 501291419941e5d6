"""Hyperbolic space H^n: hyperboloid model, with the Poincare ball as a view.

The hyperboloid sheet {x : <x,x>_M = -1, x_0 > 0} in Minkowski space is the
canonical internal representation; ball operations convert, compute there,
and convert back, so the two representations agree by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape
from .euclidean import minkowski_inner

_SERIES_THRESHOLD = 1e-7


def ball_to_hyperboloid(point):
    """Poincare-ball vector (norm < 1) to hyperboloid coordinates."""
    point = np.asarray(point, dtype=float)
    sq = np.sum(point**2, axis=-1)
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
    sq = np.sum(base_point**2, axis=-1)
    denom = 1.0 - sq
    dot = np.sum(base_point * tangent_vec, axis=-1)
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

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
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

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
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

    def dist(self, point_a, point_b):
        """``2 asinh(sqrt(q) / 2)`` with ``q = <a - b, a - b>_M = 2 (cosh d - 1)``.

        Both evaluations of ``q`` are symmetric in ``a`` and ``b``. The
        difference form is exact near coincident points, where ``-<a, b>_M``
        rounds to 1; far apart it cancels entries of size ``cosh(d)^2``, so
        ``2 (-<a, b>_M - 1)`` is used once ``-<a, b>_M`` exceeds 2.
        """
        point_a = np.asarray(point_a, dtype=float)
        point_b = np.asarray(point_b, dtype=float)
        diff = point_a - point_b
        beta = -minkowski_inner(point_a, point_b)
        q = np.where(beta > 2.0, 2.0 * (beta - 1.0), minkowski_inner(diff, diff))
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))

    def squared_dist(self, point_a, point_b):
        return self.dist(point_a, point_b) ** 2

    def _transport(self, tangent_vec, base_point, direction, end_point):
        if direction is None:
            direction = self.log(end_point, base_point)
            self._check_tangent("parallel_transport", direction, base_point)

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

    def membership_residual(self, point):
        """Zero inside the open ball; ``||x||^2 >= 1`` on and outside its boundary.

        The ball is open, so a point with ``||x|| >= 1`` fails ``belongs`` at
        every tolerance below 1, boundary points included.
        """
        sq = np.sum(np.asarray(point, dtype=float) ** 2, axis=-1)
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

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        base_point = np.asarray(base_point, dtype=float)
        conformal = 2.0 / (1.0 - np.sum(base_point**2, axis=-1))
        dots = np.sum(
            np.asarray(tangent_vec_a, dtype=float) * np.asarray(tangent_vec_b, dtype=float),
            axis=-1,
        )
        return conformal**2 * dots

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

    def dist(self, point_a, point_b):
        return self._hyperboloid.dist(ball_to_hyperboloid(point_a), ball_to_hyperboloid(point_b))

    def squared_dist(self, point_a, point_b):
        return self.dist(point_a, point_b) ** 2

    def _transport(self, tangent_vec, base_point, direction, end_point):
        base = ball_to_hyperboloid(base_point)
        if direction is None:
            end = ball_to_hyperboloid(end_point)
        else:
            end = self._hyperboloid._exp(ball_to_hyperboloid_tangent(direction, base_point), base)
        vec = ball_to_hyperboloid_tangent(tangent_vec, base_point)
        return hyperboloid_to_ball_tangent(self._hyperboloid._transport(vec, base, None, end), end)
