"""K-means clustering with geodesic distances.

Batch version: k-means++ seeding on Riemannian distances, then Lloyd
iterations assigning by distance (ties to the lowest centroid index) and
updating centroids by Frechet means warm-started at the previous centroid,
which keeps the inertia non-increasing. All k means of an iteration come
from one segmented Karcher flow over the points sorted by label
(:func:`~riemstats.learning.frechet.karcher_flow`): one
``_log_and_squared_dist`` call per line-search round, whatever k, over the
rows of every cluster still in play (one call per cluster for a metric that
prefers a shared base point, such as SPD), whose logs serve the next flow
iteration and whose squared distances the line search. On the sphere the
flow takes Newton steps where a cluster's Hessian is positive definite, so a
warm-started centroid converges in a few flow iterations. Each centroid
equals ``frechet_mean(members, init=previous centroid)`` bit for bit. An
emptied cluster is re-seeded with the farthest point from its old centroid.

The nearest centroids (assignment, ``predict`` and the online update) come
from one helper, ``_nearest_centroids``. A metric that defines the hook
``_nearest(points, centroids)`` (the sphere, by one Gram product: the
spherical k-means of Dhillon and Modha, 2001) labels the rows whose nearest
centroid it can certify, those whose ``_squared_dist`` minimum no rounding
can move. The other rows, and all rows of a metric without the hook, take
``_pairwise_sq_dist``, which broadcasts the centroids against the points:
one ``_squared_dist`` call for few points, one per centroid for large
batches. Either way each label is the ``argmin`` of ``_pairwise_sq_dist``,
ties to the lowest index. On the hook's path the inertia takes one
``_squared_dist`` call at the labels, and the distances to a centroid are
all computed only when its cluster empties, for the farthest-point re-seed.
The k-means++ seeding (Arthur and Vassilvitskii, 2007) keeps a running
minimum of the distances to the chosen centres: one ``_squared_dist`` call
per centre. ``fit`` and ``predict`` check their points once, then call only
hooks.

Online version: the streaming Riemannian mean update
``c <- exp_c(log_c(x) / (n + 1))``, the manifold counterpart of the running
arithmetic mean, projected back onto the manifold.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CutLocusError, DomainError
from ..geometry.base import _one_batch, _one_point
from .frechet import karcher_flow

# The Karcher flow's limits for the centroid updates.
_MEAN_MAX_ITER = 64
_MEAN_TOL = 1e-9

# Size cap, in array elements, of the (centroids, points, *point_shape)
# temporaries of one broadcast ``squared_dist`` call. On S^5, 8 centroids
# against 1 point take 0.05 ms in one call and 0.3 ms in eight, but against
# 3000 points 5.9 ms in one call and 3.1 ms in eight: there the temporaries
# (1.2 MB each) no longer fit in the core's cache.
_BROADCAST_ELEMENTS = 2**15


def _pairwise_sq_dist(metric, points, centroids):
    """Squared distances, shape (n_points, n_centroids), of checked arrays.

    Each call broadcasts as many centroids against all points as keep its
    temporaries under ``_BROADCAST_ELEMENTS``: one call for all centroids
    when there are few points, one call per centroid for large batches.
    """
    point_shape = centroids.shape[1:]
    batch_shape = points.shape[: points.ndim - len(point_shape)]
    elements = max(1, math.prod(batch_shape) * math.prod(point_shape))
    per_call = max(1, _BROADCAST_ELEMENTS // elements)
    columns = []
    for start in range(0, len(centroids), per_call):
        group = centroids[start : start + per_call]
        group = group.reshape(group.shape[:1] + (1,) * len(batch_shape) + point_shape)
        columns.append(metric._apply("squared_dist", metric._squared_dist, group, points))
    return np.moveaxis(np.concatenate(columns), 0, -1)


def _nearest_centroids(metric, points, centroids):
    """``(labels, sq)`` of a checked batch ``(n, *point_shape)``: the index of
    each point's nearest centroid, ties to the lowest, and the squared
    distances to them, or None where the metric's ``_nearest`` hook ran.

    The hook labels the rows it certifies; the other rows, and every row of
    a metric without the hook, take ``_pairwise_sq_dist``. Either way a
    label is the ``argmin`` of ``_pairwise_sq_dist``.
    """
    if metric._nearest is None:
        sq = _pairwise_sq_dist(metric, points, centroids)
        return np.argmin(sq, axis=-1), np.min(sq, axis=-1)
    labels, certain = metric._nearest(points, centroids)
    if not certain.all():
        uncertain = ~certain
        rest = _pairwise_sq_dist(metric, points[uncertain], centroids)
        labels[uncertain] = np.argmin(rest, axis=-1)
    return labels, None


def _assign(metric, points, centroids):
    """``_nearest_centroids`` with the squared distances: where the hook ran,
    one ``_squared_dist`` call at the labels."""
    labels, sq = _nearest_centroids(metric, points, centroids)
    if sq is None:
        sq = metric._apply("squared_dist", metric._squared_dist, centroids[labels], points)
    return labels, sq


def _predict(metric, op, points, centroids):
    """``_nearest_centroids`` labels of ``points``, checked, with any batch axes."""
    (points,) = metric._inputs(op, (points, "point"))
    point_shape = centroids.shape[1:]
    batch_shape = points.shape[: points.ndim - len(point_shape)]
    labels, _ = _nearest_centroids(metric, points.reshape((-1,) + point_shape), centroids)
    return labels.reshape(batch_shape)[()]


class RiemannianKMeans:
    """Lloyd's algorithm under a Riemannian metric.

    Attributes after ``fit``: ``centroids_``, ``labels_``, ``inertia_``,
    ``inertia_history_`` (recorded after every assignment), ``n_iter_``,
    ``converged_``.
    """

    def __init__(self, metric, n_clusters, max_iter=100, tol=1e-6, seed=0):
        self.metric = metric
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def _seed_centroids(self, points, rng):
        """k-means++ on geodesic distances, deterministic per seed: each pass
        takes the distances to the latest centre into a running minimum."""
        metric = self.metric
        n = points.shape[0]
        chosen = [int(rng.integers(n))]
        sq = np.full(n, np.inf)
        for _ in range(self.n_clusters - 1):
            latest = metric._apply("squared_dist", metric._squared_dist, points[chosen[-1]], points)
            sq = np.minimum(sq, latest)
            total = float(np.sum(sq))
            if total <= 0.0:
                probs = np.full(n, 1.0 / n)
            else:
                probs = sq / total
            chosen.append(int(rng.choice(n, p=probs)))
        return points[chosen].copy()

    def fit(self, points):
        """Cluster ``points``, one batch of shape ``(n, *point_shape)``."""
        metric = self.metric
        points = _one_batch(metric, "k-means", points, "point")
        n = points.shape[0]
        if not 1 <= self.n_clusters <= n:
            raise ValueError("n_clusters must be between 1 and the number of points")
        rng = np.random.default_rng(self.seed)
        centroids = self._seed_centroids(points, rng)

        history = []
        converged = False
        n_iter = 0
        for _ in range(self.max_iter):
            n_iter += 1
            labels, sq = _assign(metric, points, centroids)
            history.append(float(np.sum(sq)))

            # Re-seed emptied clusters at the farthest point; flow the rest.
            counts = np.bincount(labels, minlength=self.n_clusters)
            filled = counts > 0
            new_centroids = np.empty_like(centroids)
            if not filled.all():
                emptied = _pairwise_sq_dist(metric, points, centroids[~filled])
                new_centroids[~filled] = points[np.argmax(emptied, axis=0)]
            new_centroids[filled] = karcher_flow(
                metric,
                points[np.argsort(labels, kind="stable")],
                np.concatenate([[0], np.cumsum(counts[filled])]),
                centroids[filled],
                max_iter=_MEAN_MAX_ITER,
                tol=_MEAN_TOL,
            ).estimate
            moved = metric._apply("squared_dist", metric._squared_dist, centroids, new_centroids)
            movement = float(np.sqrt(np.max(np.abs(moved))))
            centroids = new_centroids
            if movement < self.tol:
                converged = True
                break

        labels, sq = _assign(metric, points, centroids)
        history.append(float(np.sum(sq)))

        self.centroids_ = centroids
        self.labels_ = labels
        self.inertia_ = history[-1]
        self.inertia_history_ = np.asarray(history)
        self.n_iter_ = n_iter
        self.converged_ = converged
        return self

    def predict(self, points):
        """Index of the nearest centroid of each point; ``points`` may carry any batch axes."""
        return _predict(self.metric, "k-means", points, self.centroids_)


class OnlineKMeans:
    """Streaming K-means: one sample at a time.

    The first samples fill empty centroids; afterwards the nearest centroid
    with count n moves to ``exp_c(log_c(x) / (n + 1))``, projected onto the
    manifold. A sample whose logarithm does not exist at its nearest
    centroid (cut locus), or whose step is not tangent or not finite, is
    skipped and tallied in ``n_rejected_``. ``fit`` checks its whole batch
    once, before any update, and ``predict`` its points; the updates then
    call the metric's hooks through its ``_apply``, which checks the step's
    tangency and each result's finiteness.
    """

    def __init__(self, metric, n_clusters):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.metric = metric
        self.n_clusters = n_clusters
        self.centroids_ = None
        self.counts_ = np.zeros(n_clusters, dtype=int)
        self.n_rejected_ = 0

    def partial_fit(self, point):
        """Update with one point, of shape ``point_shape``."""
        return self.fit(_one_point(self.metric, "online k-means", point, "point")[None])

    def fit(self, points):
        """Update with each point of ``points``, shape ``(n, *point_shape)``, in order."""
        metric = self.metric
        points = _one_batch(metric, "online k-means", points, "point")
        with np.errstate(all="ignore"):
            for point in points:
                self._update(point)
        return self

    def _update(self, point):
        """One streaming step on a checked point; call with float warnings silenced."""
        metric = self.metric
        if self.centroids_ is None:
            self.centroids_ = np.zeros((self.n_clusters,) + point.shape)
        if not self.counts_.all():
            slot = int(np.argmin(self.counts_ > 0))
            self.centroids_[slot] = point
            self.counts_[slot] += 1
            return
        labels, _ = _nearest_centroids(metric, point[None], self.centroids_)
        nearest = int(labels[0])
        centroid = self.centroids_[nearest]
        try:
            step = metric._apply("log", metric._log, point, centroid)
            step = step / (self.counts_[nearest] + 1.0)
            moved = metric._apply("exp", metric._exp, step, centroid, tangent=(step,))
            self.centroids_[nearest] = metric.manifold.project(moved)
            self.counts_[nearest] += 1
        except (CutLocusError, DomainError):
            self.n_rejected_ += 1

    def predict(self, points):
        """Index of the nearest centroid among the clusters that hold a sample."""
        filled = np.flatnonzero(self.counts_)
        if filled.size == 0:
            raise ValueError("online k-means predict needs at least one fitted sample")
        return filled[_predict(self.metric, "online k-means", points, self.centroids_[filled])]
