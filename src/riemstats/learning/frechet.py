"""Frechet mean estimation by Karcher flow.

The mean minimizes the weighted sum of squared geodesic distances. Each
iteration averages the logarithms of the data at the current estimate and
follows the exponential map, projecting the new estimate onto the manifold
so that round-off does not pile up off it; the step is halved while the
Frechet variance would increase by more than round-off. In flat space a
unit step lands exactly on the arithmetic mean.

The flow is written once, in :func:`karcher_flow`, for several means at
once: the points are sorted into contiguous segments, one mean per segment.
An iteration makes one batched ``log`` per segment at that segment's own
estimate, then one batched ``norm`` and, per line-search round, one batched
``exp`` for the segments still searching. The line search evaluates the
variances only of segments whose test is pending and halves only their
steps; a segment that has converged is frozen. Per-segment sums and
variances are taken on contiguous slices, so each segment's iterates equal
those of the same flow run on that segment alone, bit for bit.
:func:`frechet_mean` is the one-segment case and K-means fits all its
clusters in one flow per Lloyd iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack of the sufficient-decrease test. Near convergence the
# decrease a step buys, about |step|^2, falls below eps * variance (steps of
# 1e-9 to 1.4e-8 with tol=1e-9), so a full step can "raise" the variance by
# round-off alone: on the S^5 K-means clusters of the benchmark, by 1-3 eps
# relative. A strict test halved such steps 338-5393 times per fit without
# lowering the variance; with this slack those fits never halve.
_DECREASE_SLACK = 16 * np.finfo(float).eps

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class FrechetMeanResult:
    """Outcome of the Karcher flow.

    From :func:`karcher_flow` every field holds one entry per segment.
    """

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


def karcher_flow(metric, points, bounds, inits, weights=None, max_iter=64, tol=1e-7,
                 step_size=1.0):
    """Karcher flow for one Frechet mean per contiguous segment of ``points``.

    Segment ``s`` is ``points[bounds[s]:bounds[s + 1]]`` (nonempty), with
    starting estimate ``inits[s]`` and, if ``weights`` is given, weights
    ``weights[bounds[s]:bounds[s + 1]]``. Each segment stops on its own
    when its update tangent norm drops below ``tol`` or after ``max_iter``
    iterations; the others go on without it.

    Returns a :class:`FrechetMeanResult` whose fields are arrays with one
    entry per segment.
    """
    expand = (...,) + (None,) * len(metric.manifold.point_shape)
    project = metric.manifold.project
    segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    n_seg = len(segments)
    if weights is None:
        seg_weights = [None] * n_seg
        norm_weights = [np.full(rows.stop - rows.start, 1.0 / (rows.stop - rows.start))
                        for rows in segments]
    else:
        seg_weights = [weights[rows] for rows in segments]
        norm_weights = [w / np.sum(w) for w in seg_weights]

    def variance(s, mean):
        return frechet_variance(metric, points[segments[s]], mean, seg_weights[s])

    estimates = np.array(inits, dtype=float)
    n_iter = np.zeros(n_seg, dtype=int)
    converged = np.zeros(n_seg, dtype=bool)
    step_norms = np.full(n_seg, np.inf)
    current_var = np.full(n_seg, np.nan)  # NaN: not yet evaluated at the estimate
    for _ in range(max_iter):
        live = np.flatnonzero(~converged)
        n_iter[live] += 1
        # ``logs`` lives on through the line search. Freed before it, the
        # allocator trims the heap and refaults it: the benchmark's SPD(5)
        # mean then took 15.1k page faults per call instead of 3.9k, ~10% slower.
        logs = [metric.log(points[segments[s]], estimates[s]) for s in live]
        tangents = np.stack(
            [np.sum(norm_weights[s][expand] * log, axis=0) for s, log in zip(live, logs)]
        )
        step_norms[live] = metric.norm(step_size * tangents, estimates[live])
        converged[live] = step_norms[live] < tol

        keep = ~converged[live]
        search, tangents = live[keep], tangents[keep]
        if not len(search):
            break
        for s in search[np.isnan(current_var[search])]:
            current_var[s] = variance(s, estimates[s])
        base, base_var = estimates[search], current_var[search]
        steps = np.full(len(search), float(step_size))
        pending = np.arange(len(search))
        estimates[search] = project(metric.exp(steps[expand] * tangents, base))
        for _ in range(_MAX_HALVINGS):
            var = np.array([variance(s, estimates[s]) for s in search[pending]])
            current_var[search[pending]] = var
            # Written so that a NaN variance fails the test.
            pending = pending[~(var <= base_var[pending] * (1.0 + _DECREASE_SLACK))]
            if not len(pending):
                break
            steps[pending] *= 0.5
            estimates[search[pending]] = project(
                metric.exp(steps[pending][expand] * tangents[pending], base[pending])
            )
            current_var[search[pending]] = np.nan
    return FrechetMeanResult(
        estimate=estimates, n_iter=n_iter, converged=converged, final_step_norm=step_norms
    )


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

    The one-segment case of :func:`karcher_flow`.

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
        start = points[0]
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n_points,):
            raise ValueError("weights must have one entry per point")
        if np.any(weights < 0.0) or np.sum(weights) <= 0.0:
            raise ValueError("weights must be nonnegative with positive sum")
        start = points[np.argmax(weights)]
    if init is not None:
        start = np.asarray(init, dtype=float)

    result = karcher_flow(
        metric, points, [0, n_points], start[None], weights, max_iter, tol, step_size
    )
    return FrechetMeanResult(
        estimate=result.estimate[0],
        n_iter=int(result.n_iter[0]),
        converged=bool(result.converged[0]),
        final_step_norm=float(result.final_step_norm[0]),
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
