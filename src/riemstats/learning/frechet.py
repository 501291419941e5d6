"""Frechet mean estimation by Karcher flow.

The mean minimizes the weighted sum of squared geodesic distances. Each
iteration averages the logarithms of the data at the current estimate and
follows the exponential map; the step is halved whenever the Frechet
variance would increase. In flat space a unit step lands exactly on the
arithmetic mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrechetMeanResult:
    """Outcome of the Karcher flow."""

    estimate: np.ndarray
    n_iter: int
    converged: bool
    final_step_norm: float


def frechet_variance(metric, points, mean, weights=None):
    """Weighted average of squared distances from ``mean`` to ``points``."""
    points = np.asarray(points, dtype=float)
    sq = metric.squared_dist(np.asarray(mean, dtype=float), points)
    if weights is None:
        return float(np.mean(sq))
    weights = np.asarray(weights, dtype=float)
    return float(np.sum(weights * sq) / np.sum(weights))


def frechet_mean(
    metric,
    points,
    weights=None,
    max_iter=64,
    tol=1e-7,
    step_size=1.0,
    init=None,
):
    """Karcher flow for the Frechet mean of a batch of points.

    Parameters
    ----------
    points : array, shape (n, *point_shape)
        Data; must all lie within one injectivity ball of the iterates.
    weights : array, shape (n,), optional
        Nonnegative weights, not necessarily normalized.
    init : array, optional
        Starting estimate. Defaults to the first data point (the point of
        largest weight in weighted mode).

    Returns
    -------
    FrechetMeanResult
        Converged when the update tangent norm drops below ``tol``; at that
        point the weighted sum of logarithms is first-order stationary.
    """
    points = np.asarray(points, dtype=float)
    point_ndim = len(metric.manifold.point_shape)
    if points.ndim == point_ndim:
        points = points[None]
    n_points = points.shape[0]
    if n_points < 1:
        raise ValueError("need at least one point")

    if weights is None:
        norm_weights = np.full(n_points, 1.0 / n_points)
        start = points[0] if init is None else np.asarray(init, dtype=float)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n_points,):
            raise ValueError("weights must have one entry per point")
        if np.any(weights < 0.0) or np.sum(weights) <= 0.0:
            raise ValueError("weights must be nonnegative with positive sum")
        norm_weights = weights / np.sum(weights)
        start = points[np.argmax(weights)] if init is None else np.asarray(init, dtype=float)

    expand = (...,) + (None,) * point_ndim
    estimate = start
    n_iter = 0
    converged = False
    step_norm = np.inf
    current_var = None  # variance at ``estimate``, carried over from the line search
    for _ in range(max_iter):
        n_iter += 1
        logs = metric.log(points, estimate)
        mean_tangent = np.sum(norm_weights[expand] * logs, axis=0)
        step_norm = float(metric.norm(step_size * mean_tangent, estimate))
        if step_norm < tol:
            converged = True
            break

        step = step_size
        if current_var is None:
            current_var = frechet_variance(metric, points, estimate, weights)
        candidate = metric.exp(step * mean_tangent, estimate)
        for _ in range(30):
            candidate_var = frechet_variance(metric, points, candidate, weights)
            if candidate_var <= current_var:
                break
            step *= 0.5
            candidate = metric.exp(step * mean_tangent, estimate)
            candidate_var = None
        estimate, current_var = candidate, candidate_var
    return FrechetMeanResult(
        estimate=estimate, n_iter=n_iter, converged=converged, final_step_norm=step_norm
    )


class FrechetMean:
    """Estimator-style wrapper around :func:`frechet_mean`.

    After ``fit``: ``estimate_``, ``n_iter_``, ``converged_``,
    ``final_step_norm_`` and ``variance_``.
    """

    def __init__(self, metric, max_iter=64, tol=1e-7, step_size=1.0):
        self.metric = metric
        self.max_iter = max_iter
        self.tol = tol
        self.step_size = step_size

    def fit(self, points, weights=None):
        result = frechet_mean(
            self.metric,
            points,
            weights=weights,
            max_iter=self.max_iter,
            tol=self.tol,
            step_size=self.step_size,
        )
        self.estimate_ = result.estimate
        self.n_iter_ = result.n_iter
        self.converged_ = result.converged
        self.final_step_norm_ = result.final_step_norm
        self.variance_ = frechet_variance(self.metric, points, result.estimate, weights)
        return self
