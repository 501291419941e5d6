"""Tangent PCA: classical PCA applied to log-lifted data.

Data is lifted to the tangent space at a base point (by default the Frechet
mean), expressed in a metric-orthonormal basis, centered at its tangent
mean, and eigendecomposed. With a flat metric and the arithmetic mean as
base point this reproduces classical PCA exactly; the recentering makes
that hold for any base-point choice.
Each method checks what it is given once, then calls only the metric's hooks.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import ConvergenceError, ShapeError
from ..geometry.base import _one_batch, orthonormal_tangent_basis
from .frechet import frechet_mean


class TangentPCA:
    """PCA in the tangent space at a base point.

    Attributes after ``fit``
    ------------------------
    base_point_ : array
    mean_tangent_ : array
        Tangent-space mean of the lifted data (near zero when the base
        point is the Frechet mean).
    components_ : array, shape (n_components, *tangent_shape)
        Metric-orthonormal principal directions.
    explained_variance_ : array
        Descending eigenvalues of the tangent covariance (1/N normalization).
    explained_variance_ratio_ : array
    """

    def __init__(self, metric, n_components=None):
        self.metric = metric
        self.n_components = n_components

    def fit(self, points, base_point=None):
        """Fit to ``points``, one batch of shape ``(n, *point_shape)``."""
        metric = self.metric
        points = _one_batch(metric, "tangent pca", points, "point")
        if base_point is None:
            mean = frechet_mean(metric, points)
            if not mean.converged:
                raise ConvergenceError(
                    "Frechet mean for the PCA base point did not converge; "
                    "pass base_point explicitly",
                    residual=mean.final_step_norm,
                )
            base_point = mean.estimate
        base_point = np.asarray(base_point, dtype=float)

        n_components = self.n_components if self.n_components is not None else metric.tangent_dim
        if not 1 <= n_components <= metric.tangent_dim:
            raise ShapeError(
                f"n_components={n_components} must be in [1, {metric.tangent_dim}]"
            )

        basis = orthonormal_tangent_basis(metric, base_point)
        logs = metric._apply("log", metric._log, points, base_point)
        coords = metric._apply("inner_product", metric._inner_product, logs[:, None], basis[None],
                               base_point)
        mean_coords = np.mean(coords, axis=0)
        centered = coords - mean_coords
        cov = centered.T @ centered / coords.shape[0]
        eigvals, eigvecs = linalg.sym_eig(cov)

        tangent_ndim = len(metric.tangent_shape)
        spread = (...,) + (None,) * tangent_ndim
        self.base_point_ = base_point
        self.mean_tangent_ = np.sum(mean_coords[spread] * basis, axis=0)
        self.components_ = np.einsum(
            "dj,d...->j...", eigvecs[:, :n_components], basis
        )
        self.explained_variance_ = eigvals[:n_components]
        total = float(np.sum(eigvals))
        self.explained_variance_ratio_ = (
            self.explained_variance_ / total if total > 0.0 else np.zeros(n_components)
        )
        return self

    def transform(self, points):
        """Coefficients of the centered log-lifted data on the components."""
        metric = self.metric
        (points,) = metric._inputs("tangent pca", (points, "point"))
        single = points.ndim == len(metric.manifold.point_shape)
        if single:
            points = points[None]
        centered = metric._apply("log", metric._log, points, self.base_point_) - self.mean_tangent_
        coords = metric._apply(
            "inner_product", metric._inner_product, centered[:, None], self.components_[None],
            self.base_point_,
        )
        return coords[0] if single else coords

    def inverse_transform(self, coefficients):
        """Map component coefficients back to points through the exponential."""
        coefficients = np.asarray(coefficients, dtype=float)
        tangent = self.mean_tangent_ + np.tensordot(
            coefficients, self.components_, axes=([-1], [0])
        )
        (tangent,) = self.metric._inputs("tangent pca", (tangent, "tangent vector"))
        return self.metric._apply(
            "exp", self.metric._exp, tangent, self.base_point_, tangent=(tangent,)
        )
