"""K-means clustering with geodesic distances.

Batch version: k-means++ seeding on Riemannian distances, then Lloyd
iterations assigning by distance (ties to the lowest centroid index) and
updating centroids by Frechet means warm-started at the previous centroid,
which keeps the inertia non-increasing. All k means of an iteration come
from one segmented Karcher flow over the points sorted by label
(:func:`~riemstats.learning.frechet.karcher_flow`): one ``log`` per flow
iteration and one ``squared_dist`` per line-search round, whatever k, each
over the rows of every cluster still in play (one call per cluster for a
metric that prefers a shared base point, such as SPD). On the sphere the
flow takes Newton steps where a cluster's Hessian is positive definite, so a
warm-started centroid converges in a few flow iterations. Each centroid
equals ``frechet_mean(members, init=previous centroid)`` bit for bit. An
emptied cluster is re-seeded with the farthest point from its old centroid.

Point-to-centroid distances (seeding, assignment, ``predict`` and the
online update) broadcast the centroids against the points: one
``squared_dist`` call for few points, one per centroid for large batches.

Online version: the streaming Riemannian mean update
``c <- exp_c(log_c(x) / (n + 1))``, the manifold counterpart of the running
arithmetic mean, projected back onto the manifold.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CutLocusError, DomainError, ShapeError
from ..geometry.base import _one_point
from .frechet import karcher_flow


# Size cap, in array elements, of the (centroids, points, *point_shape)
# temporaries of one broadcast ``squared_dist`` call. On S^5, 8 centroids
# against 1 point take 0.05 ms in one call and 0.3 ms in eight, but against
# 3000 points 5.9 ms in one call and 3.1 ms in eight: there the temporaries
# (1.2 MB each) no longer fit in the core's cache.
_BROADCAST_ELEMENTS = 2**15


def _pairwise_sq_dist(metric, points, centroids):
    """Squared distances, shape (n_points, n_centroids).

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
        columns.append(metric.squared_dist(group, points))
    return np.moveaxis(np.concatenate(columns), 0, -1)


class RiemannianKMeans:
    """Lloyd's algorithm under a Riemannian metric.

    Attributes after ``fit``: ``centroids_``, ``labels_``, ``inertia_``,
    ``inertia_history_`` (recorded after every assignment), ``n_iter_``,
    ``converged_``.
    """

    def __init__(self, metric, n_clusters, max_iter=100, tol=1e-6, seed=0,
                 mean_max_iter=64, mean_tol=1e-9):
        self.metric = metric
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.mean_max_iter = mean_max_iter
        self.mean_tol = mean_tol

    def _seed_centroids(self, points, rng):
        """k-means++ on geodesic distances, deterministic per seed."""
        n = points.shape[0]
        chosen = [int(rng.integers(n))]
        for _ in range(self.n_clusters - 1):
            sq = _pairwise_sq_dist(self.metric, points, points[chosen]).min(axis=-1)
            total = float(np.sum(sq))
            if total <= 0.0:
                probs = np.full(n, 1.0 / n)
            else:
                probs = sq / total
            chosen.append(int(rng.choice(n, p=probs)))
        return points[chosen].copy()

    def fit(self, points):
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        if not 1 <= self.n_clusters <= n:
            raise ValueError("n_clusters must be between 1 and the number of points")
        rng = np.random.default_rng(self.seed)
        centroids = self._seed_centroids(points, rng)

        history = []
        converged = False
        n_iter = 0
        labels = np.zeros(n, dtype=int)
        for _ in range(self.max_iter):
            n_iter += 1
            sq = _pairwise_sq_dist(self.metric, points, centroids)
            labels = np.argmin(sq, axis=-1)
            history.append(float(np.sum(np.min(sq, axis=-1))))

            # Re-seed emptied clusters at the farthest point; flow the rest.
            new_centroids = points[np.argmax(sq, axis=0)]
            counts = np.bincount(labels, minlength=self.n_clusters)
            filled = counts > 0
            new_centroids[filled] = karcher_flow(
                self.metric,
                points[np.argsort(labels, kind="stable")],
                np.concatenate([[0], np.cumsum(counts[filled])]),
                centroids[filled],
                max_iter=self.mean_max_iter,
                tol=self.mean_tol,
            ).estimate
            movement = float(np.max(self.metric.dist(centroids, new_centroids)))
            centroids = new_centroids
            if movement < self.tol:
                converged = True
                break

        sq = _pairwise_sq_dist(self.metric, points, centroids)
        labels = np.argmin(sq, axis=-1)
        history.append(float(np.sum(np.min(sq, axis=-1))))

        self.centroids_ = centroids
        self.labels_ = labels
        self.inertia_ = history[-1]
        self.inertia_history_ = np.asarray(history)
        self.n_iter_ = n_iter
        self.converged_ = converged
        return self

    def predict(self, points):
        sq = _pairwise_sq_dist(self.metric, np.asarray(points, dtype=float), self.centroids_)
        return np.argmin(sq, axis=-1)


class OnlineKMeans:
    """Streaming K-means: one sample at a time.

    The first samples fill empty centroids; afterwards the nearest centroid
    with count n moves to ``exp_c(log_c(x) / (n + 1))``, projected onto the
    manifold. A sample whose logarithm does not exist at its nearest
    centroid (cut locus), or whose step is not tangent or not finite, is
    skipped and tallied in ``n_rejected_``. ``fit`` checks its whole batch
    once, before any update, with the public ops' errors; the updates then
    call the metric's hooks, keeping the step's tangency check and each
    result's finiteness check.
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
        (points,) = metric._inputs("online k-means", (points, "point"))
        if points.ndim != len(metric.manifold.point_shape) + 1:
            raise ShapeError(f"online k-means fit takes one batch of points, got {points.shape}")
        with np.errstate(all="ignore"):
            for point in points:
                self._update(point)
        return self

    def _update(self, point):
        """One streaming step on a checked point; call with float warnings silenced."""
        metric = self.metric
        if self.centroids_ is None:
            self.centroids_ = np.zeros((self.n_clusters,) + point.shape)
        if np.any(self.counts_ == 0):
            slot = int(np.argmin(self.counts_ > 0))
            self.centroids_[slot] = point
            self.counts_[slot] += 1
            return
        # The operand shapes, and so the bits, of ``_pairwise_sq_dist``.
        sq = metric._squared_dist(self.centroids_[:, None], point[None])
        nearest = int(np.argmin(metric._result("squared_dist", sq)[:, 0]))
        centroid = self.centroids_[nearest]
        try:
            step = metric._result("log", metric._log(point, centroid))
            step = step / (self.counts_[nearest] + 1.0)
            metric._require_tangent(step, centroid)
            moved = metric._result("exp", metric._exp(step, centroid))
            self.centroids_[nearest] = metric.manifold.project(moved)
            self.counts_[nearest] += 1
        except (CutLocusError, DomainError):
            self.n_rejected_ += 1

    def predict(self, points):
        sq = _pairwise_sq_dist(self.metric, np.asarray(points, dtype=float), self.centroids_)
        return np.argmin(sq, axis=-1)
