"""Frechet mean estimation by Karcher flow.

The mean minimizes the weighted sum of squared geodesic distances. Each
iteration averages the logarithms of the data at the current estimate, the
negative gradient of half that sum, and follows the exponential map,
projecting the new estimate onto the manifold so that round-off does not
pile up off it; the step is halved while the Frechet variance would increase
by more than round-off. In flat space a unit step lands exactly on the
arithmetic mean. A segment stops when the norm of its mean logarithm, times
``step_size``, drops below ``tol``: the sum of logarithms is then
first-order stationary, whatever direction the step took.

Each line search starts at ``step_size``, except in a segment that has
halved a step before and whose mean logarithm then grew: from then on it
starts at half its previous start. A ``step_size`` above 2 / (largest
Hessian eigenvalue) overshoots, and near round-off the variance no longer
shows it, so restarting at the full step let the mean logarithm grow back
each time. The mean logarithm is accurate where the variance is not. A run
that never halves keeps ``step_size`` throughout.

A metric with a closed-form Hessian of the Frechet function defines the hook
``_newton_directions(logs, extras, weights, base_points, gradients)`` (the
sphere and the affine-invariant SPD metric do; ``RiemannianMetric`` sets it
to None). The flow reads it once per call and calls it once per iteration
for all segments still searching, with the logarithms the iteration already
holds and the extras that ``_log_and_squared_dist`` returned with them
(SPD's whitened eigenpairs), popped as they are passed, so no line search
holds its segment's extras. It returns their Newton directions and the mask
of segments whose Hessian is positive definite; a masked segment's mean
logarithm becomes its Newton direction, and ``step_size`` scales that
direction as it scaled the gradient. Newton's method converges quadratically
near the mean (Groisser, Adv. Appl. Math. 2004). Where a segment's Hessian
is not positive definite (on the sphere, points past pi/2 can make it so)
that segment takes the gradient step; on SPD, where the curvature is
nonpositive, every Hessian is positive definite. The line search and the
projection apply to both steps. Every other metric takes gradient steps
only.

The flow is written once, in :func:`karcher_flow`, for several means at
once: the points are sorted into contiguous segments, one mean per segment.
It checks its points and starting estimates once, through the metric's
``_inputs``, and then calls only hooks. Logs and variances come from the
``_log_and_squared_dist`` hook (float warnings silenced, ``_result`` on the
logs and squared distances): one call over the rows of all segments, each
row at its own segment's estimate, at the start, and one per line-search
round over the rows of the segments whose test is pending, after one batched
``_exp`` for the segments still searching. Only their steps are halved, and
a segment that has converged is frozen. An accepted candidate's logs are the
next iteration's, so each point is decomposed once per candidate; a segment
that ran out of halvings makes one call at its next iteration. The
candidates' ``_exp`` and the step norms go through the metric's ``_apply``,
after a finiteness check of the Newton directions. Two cases call once per
segment instead, passing its estimate once: a call that covers a single
segment, and a metric whose ``prefers_shared_base`` is set (SPD, SRV), which
factors or transforms every base row it is given, so a repeated base would
cost a factorization per row.
Per-segment sums and variances are taken on contiguous slices with the
reductions of a lone segment, and the metrics the flow batches give the
same bits for a repeated base as for a shared one, so each segment's
iterates equal those of the same flow run on that segment alone, bit for
bit.
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
# relative. A strict test halved such steps hundreds of times per fit without
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
    variance: float


def _average(sq, weights):
    """Mean of ``sq``, or its weighted mean when ``weights`` is given."""
    if weights is None:
        return float(np.mean(sq))
    weights = np.asarray(weights, dtype=float)
    return float(np.sum(weights * sq) / np.sum(weights))


def frechet_variance(metric, points, mean, weights=None):
    """Weighted average of squared distances from ``mean`` to ``points``."""
    sq = metric._checked("squared_dist", metric._squared_dist, (mean, "point"), (points, "point"))
    return _average(sq, weights)


def karcher_flow(metric, points, bounds, inits, weights=None, max_iter=64, tol=1e-7,
                 step_size=1.0):
    """Karcher flow for one Frechet mean per contiguous segment of ``points``.

    Segment ``s`` is ``points[bounds[s]:bounds[s + 1]]`` (nonempty), with
    starting estimate ``inits[s]`` and, if ``weights`` is given, weights
    ``weights[bounds[s]:bounds[s + 1]]``. Each segment stops on its own
    when the norm of its mean logarithm, times ``step_size``, drops below
    ``tol`` or after ``max_iter`` iterations; the others go on without it.

    Returns a :class:`FrechetMeanResult` whose fields are arrays with one
    entry per segment; each variance is the flow's own at the estimate.
    """
    (points,) = metric._inputs("karcher flow", (points, "point"))
    (inits,) = metric._inputs("karcher flow", (inits, "initial estimate"))
    expand = (...,) + (None,) * len(metric.manifold.point_shape)
    project = metric.manifold.project
    newton = metric._newton_directions
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    n_seg = len(sizes)
    if weights is None:
        seg_weights = [None] * n_seg
        norm_weights = [np.full(n, 1.0 / n) for n in sizes]
    else:
        seg_weights = [weights[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        norm_weights = [w / np.sum(w) for w in seg_weights]

    def evaluate(segs):
        """For each of the ascending ``segs``, the logs of its rows at its
        estimate into ``seg_logs``, the hook's extras for them into
        ``seg_extras`` and its Frechet variance there into ``current_var``.

        One ``_log_and_squared_dist`` call over the rows of all of ``segs``,
        each row at its own segment's estimate, split back into segments; one
        call per segment instead when there is a single one (its estimate is
        passed once) or the metric prefers a shared base point.
        """
        with np.errstate(all="ignore"):
            if len(segs) == 1 or metric.prefers_shared_base:
                outputs = [
                    metric._log_and_squared_dist(points[bounds[s] : bounds[s + 1]], estimates[s])
                    for s in segs
                ]
            else:
                fused = metric._log_and_squared_dist(
                    np.concatenate([points[bounds[s] : bounds[s + 1]] for s in segs]),
                    np.repeat(estimates[segs], sizes[segs], axis=0),
                )
                cuts = np.cumsum(sizes[segs])[:-1]
                outputs = zip(*(np.split(out, cuts) for out in fused))
            for s, (log, sq, *extras) in zip(segs, outputs):
                seg_logs[s] = metric._result("log", log)
                seg_extras[s] = extras
                current_var[s] = _average(metric._result("squared_dist", sq), seg_weights[s])

    estimates = np.array(inits)
    n_iter = np.zeros(n_seg, dtype=int)
    converged = np.zeros(n_seg, dtype=bool)
    step_norms = np.full(n_seg, np.inf)
    # NaN: not yet evaluated at the estimate; otherwise ``seg_logs`` holds the
    # segment's logs there, so an accepted candidate's logs serve the next
    # iteration.
    current_var = np.full(n_seg, np.nan)
    seg_logs = [None] * n_seg
    seg_extras = {}  # segment -> the extras beside its logs, until a Newton step takes them
    first_steps = np.full(n_seg, float(step_size))  # where each line search starts
    halved = np.zeros(n_seg, dtype=bool)  # a line search of the segment has halved
    for _ in range(max_iter):
        live = np.flatnonzero(~converged)
        n_iter[live] += 1
        unknown = live[np.isnan(current_var[live])]
        if len(unknown):
            evaluate(unknown)
        # ``logs`` lives on through the line search. Freed before it, the
        # allocator trims the heap and refaults it on every search.
        logs = [seg_logs[s] for s in live]
        tangents = np.stack(
            [np.sum(norm_weights[s][expand] * log, axis=0) for s, log in zip(live, logs)]
        )
        scaled = step_size * tangents
        norms = np.sqrt(metric._apply("inner_product", metric._inner_product, scaled, scaled,
                                      estimates[live]))
        # A grown mean log after a halving: the start step overshoots.
        first_steps[live[halved[live] & (norms > step_norms[live])]] *= 0.5
        step_norms[live] = norms
        converged[live] = step_norms[live] < tol

        keep = ~converged[live]
        search, tangents = live[keep], tangents[keep]
        if not len(search):
            break
        if newton is not None:
            directions, positive = newton(
                [log for log, kept in zip(logs, keep) if kept],
                [seg_extras.pop(s) for s in search],
                [norm_weights[s] for s in search],
                estimates[search],
                tangents,
            )
            tangents[positive] = metric._result("Newton step", directions[positive])
        base, base_var = estimates[search], current_var[search]
        steps = first_steps[search]
        pending = np.arange(len(search))
        step = steps[expand] * tangents
        estimates[search] = project(metric._apply("exp", metric._exp, step, base, tangent=(step,)))
        for _ in range(_MAX_HALVINGS):
            evaluate(search[pending])
            var = current_var[search[pending]]
            # Written so that a NaN variance fails the test.
            pending = pending[~(var <= base_var[pending] * (1.0 + _DECREASE_SLACK))]
            if not len(pending):
                break
            steps[pending] *= 0.5
            halved[search[pending]] = True
            step = steps[pending][expand] * tangents[pending]
            estimates[search[pending]] = project(
                metric._apply("exp", metric._exp, step, base[pending], tangent=(step,))
            )
            current_var[search[pending]] = np.nan
    if np.isnan(current_var).any():  # a last line search ran out of halvings, or max_iter is 0
        evaluate(np.flatnonzero(np.isnan(current_var)))
    return FrechetMeanResult(estimates, n_iter, converged, step_norms, current_var)


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
        Converged when the norm of the weighted mean logarithm, times
        ``step_size``, drops below ``tol``; at that point the weighted sum of
        logarithms is first-order stationary.
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
        result.estimate[0], int(result.n_iter[0]), bool(result.converged[0]),
        float(result.final_step_norm[0]), float(result.variance[0]),
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
        self.variance_ = result.variance
        return self
