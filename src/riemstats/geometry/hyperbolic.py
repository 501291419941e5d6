"""Hyperbolic space H^n: the hyperboloid model and the Poincare ball.

The sheet {x : <x,x>_M = -1, x_0 > 0} in Minkowski space and the open unit
ball each compute in their own coordinates, as each has its own float64 limit
(Mishne et al., ICML 2023); in both, the log takes its length from the one
distance routine. The ball's closed forms run on Mobius addition.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..linalg import inner, norm
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


def _mobius_add(x, y):
    """Mobius addition ``x (+) y``, with ``s = x + y``:
    ``((1 - |x|^2) s + |s|^2 x) / ((1 - |x|^2)(1 - |y|^2) + |s|^2)``.

    The textbook sums ``1 + 2<x, y> + |y|^2`` cancel near ``y = -x``: an exp
    to the origin from distance 18 then missed by 0.046, here by 1.8e-9.
    """
    s = x + y
    shrink, ss = 1.0 - inner(x, x), inner(s, s)
    num = shrink[..., None] * s + ss[..., None] * x
    return num / (shrink * (1.0 - inner(y, y)) + ss)[..., None]


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
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        """``d / sinh(d) (y - cosh(d) x)``: ``d`` from ``_squared_dist``, not the
        Minkowski norm of ``y - cosh(d) x``, which cancels entries of size ``cosh(d)^2``."""
        sq = self._squared_dist(base_point, point)
        d = np.sqrt(sq)
        small = d < _SERIES_THRESHOLD
        factor = np.where(small, 1.0 - d**2 / 6.0, d / np.where(small, 1.0, np.sinh(d)))
        return factor[..., None] * (point - np.cosh(d)[..., None] * base_point), sq

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
    """Open unit ball with the conformal hyperbolic metric."""

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
    """Conformal factor 2 / (1 - ||x||^2); the closed forms of Ganea, Becigneul
    & Hofmann, "Hyperbolic neural networks" (NeurIPS 2018)."""

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        conformal = 2.0 / (1.0 - inner(base_point, base_point))
        return conformal**2 * inner(tangent_vec_a, tangent_vec_b)

    def _exp(self, tangent_vec, base_point):
        """``x (+) tanh(||v|| / (1 - ||x||^2)) v / ||v||``."""
        length = norm(tangent_vec)
        shrink = 1.0 - inner(base_point, base_point)
        unit = tangent_vec / np.where(length > 0.0, length, 1.0)[..., None]
        point = _mobius_add(base_point, np.tanh(length / shrink)[..., None] * unit)
        # Ball points more than about 37 (hyperbolic distance) from the origin
        # round onto the boundary in float64.
        if not np.all(self.manifold.belongs(point)):
            raise DomainError("Poincare-ball exp lands too close to the boundary for float64")
        return point

    def _log(self, point, base_point):
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        """``(1 - ||x||^2) d u / (2 ||u||)``, ``u = (-x) (+) y``; the length ``d`` is
        ``_squared_dist``'s, as ``artanh ||u||`` loses it near the boundary."""
        direction = _mobius_add(-base_point, point)
        length = norm(direction)
        sq = self._squared_dist(base_point, point)
        d = np.sqrt(sq)
        scale = 0.5 * (1.0 - inner(base_point, base_point)) * d / np.where(length > 0.0, length, 1.0)
        return scale[..., None] * direction, sq

    def _squared_dist(self, point_a, point_b):
        """``d = 2 asinh(||a - b|| / sqrt((1 - ||a||^2) (1 - ||b||^2)))``, symmetric bit for bit."""
        denom = (1.0 - inner(point_a, point_a)) * (1.0 - inner(point_b, point_b))
        return (2.0 * np.arcsinh(norm(point_a - point_b) / np.sqrt(denom))) ** 2

    def _transport(self, tangent_vec, base_point, direction):
        """``((1 - ||y||^2) / (1 - ||x||^2)) gyr[y, -x] w``, ``y = exp_x(direction)``.

        Ungar's closed-form gyration ``w + 2 (A y - B x) / D`` is written in x
        and ``p = y - x``, whose terms do not cancel when y is near x far from
        the origin: ``gyr = w + 2 ((A - B) x + A p) / D`` with
        ``A - B = (1 - |x|^2) p.w - |p|^2 x.w``,
        ``A = 2 (x.p)(x.w) - (1 - |x|^2) x.w - |x|^2 p.w``,
        ``D = (1 - |x|^2)(1 - |y|^2) + |p|^2`` and
        ``1 - |y|^2 = (1 - |x|^2) - (2 x.p + |p|^2)``.
        """
        x, w = base_point, tangent_vec
        p = self._exp(direction, x) - x
        xx, xp, pp, xw, pw = inner(x, x), inner(x, p), inner(p, p), inner(x, w), inner(p, w)
        shrink_x = 1.0 - xx
        shrink_y = shrink_x - (2.0 * xp + pp)
        ratio = shrink_y / shrink_x
        coeff = 2.0 * ratio / (shrink_x * shrink_y + pp)
        a = 2.0 * xp * xw - shrink_x * xw - xx * pw
        a_minus_b = shrink_x * pw - pp * xw
        return (ratio[..., None] * w + (coeff * a_minus_b)[..., None] * x
                + (coeff * a)[..., None] * p)
