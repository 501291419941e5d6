"""Symmetric positive-definite matrices SPD(n) with two metric families.

Affine-invariant: exp_P(V) = P^1/2 expm(P^-1/2 V P^-1/2) P^1/2, distance
invariant under congruence P -> A P A^T.

Log-Euclidean: the pullback of the flat Frobenius metric through the matrix
logarithm chart; distance ||logm P - logm Q||_F.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape


def _trace_product(a, b):
    return np.einsum("...ij,...ji->...", a, b)


def _spd_eig(mat, what="matrix"):
    w, v = linalg.sym_eig(mat)
    if np.any(w <= 0.0):
        raise DomainError(f"{what} is not positive definite")
    return w, v


class SPDMatrices(Manifold):
    """Symmetric matrices with strictly positive spectrum."""

    def __init__(self, n):
        super().__init__(n * (n + 1) // 2, (n, n), "spd")
        self.n = n

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        asym = np.max(np.abs(point - linalg.transpose(point)), axis=(-2, -1))
        eigvals = np.linalg.eigvalsh(linalg.sym(point))
        return np.maximum(asym, np.clip(-eigvals[..., 0], 0.0, None))

    def to_tangent(self, vector, base_point):
        return linalg.sym(vector)

    def project(self, point):
        """The symmetric part; the spectrum is left as it is."""
        return linalg.sym(point)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        raw = rng.standard_normal(_sample_shape(n_samples, self.point_shape))
        return linalg.sym_function(linalg.sym(raw) * 0.7, np.exp)

    @property
    def default_metric(self):
        return SPDAffineMetric(self)

    @property
    def affine_invariant_metric(self):
        return SPDAffineMetric(self)

    @property
    def log_euclidean_metric(self):
        return SPDLogEuclideanMetric(self)


class SPDAffineMetric(RiemannianMetric):
    """Affine-invariant (congruence-invariant) metric on SPD(n)."""

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        inv = np.linalg.inv(np.asarray(base_point, dtype=float))
        return _trace_product(inv @ np.asarray(tangent_vec_a, dtype=float),
                              inv @ np.asarray(tangent_vec_b, dtype=float))

    def _exp(self, tangent_vec, base_point):
        sqrt = linalg.sym_sqrt(base_point)
        inv_sqrt = linalg.sym_inv_sqrt(base_point)
        middle = linalg.sym(inv_sqrt @ tangent_vec @ inv_sqrt)
        return sqrt @ linalg.sym_function(middle, np.exp) @ sqrt

    def _log(self, point, base_point):
        sqrt = linalg.sym_sqrt(base_point)
        inv_sqrt = linalg.sym_inv_sqrt(base_point)
        middle = linalg.sym(inv_sqrt @ point @ inv_sqrt)
        w, v = _spd_eig(middle, "point congruenced to the base")
        log_mid = (v * np.log(w)[..., None, :]) @ linalg.transpose(v)
        return sqrt @ log_mid @ sqrt

    def squared_dist(self, point_a, point_b):
        point_a = np.asarray(point_a, dtype=float)
        point_b = np.asarray(point_b, dtype=float)
        inv_sqrt = linalg.sym_inv_sqrt(point_a)
        middle = linalg.sym(inv_sqrt @ point_b @ inv_sqrt)
        w, _ = _spd_eig(middle, "relative matrix")
        return np.sum(np.log(w) ** 2, axis=-1)

    def _transport(self, tangent_vec, base_point, direction, end_point):
        """Closed form: V -> E V E^T with E = P^1/2 (P^-1/2 Q P^-1/2)^1/2 P^-1/2."""
        if end_point is None:
            end_point = self.exp(direction, base_point)
        sqrt = linalg.sym_sqrt(base_point)
        inv_sqrt = linalg.sym_inv_sqrt(base_point)
        middle = linalg.sym(inv_sqrt @ end_point @ inv_sqrt)
        shifter = sqrt @ linalg.sym_sqrt(middle) @ inv_sqrt
        return shifter @ tangent_vec @ linalg.transpose(shifter)


class SPDLogEuclideanMetric(RiemannianMetric):
    """Flat metric pulled back through the matrix-logarithm chart."""

    def _to_chart(self, point, what="point"):
        w, v = _spd_eig(np.asarray(point, dtype=float), what)
        return (v * np.log(w)[..., None, :]) @ linalg.transpose(v)

    def _dlog(self, tangent_vec, base_point):
        return linalg.sym_function_derivative(
            np.asarray(base_point, dtype=float), tangent_vec, np.log, lambda x: 1.0 / x
        )

    def _dexp(self, chart_vec, chart_point):
        return linalg.sym_function_derivative(chart_point, chart_vec, np.exp, np.exp)

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        ca = self._dlog(np.asarray(tangent_vec_a, dtype=float), base_point)
        cb = self._dlog(np.asarray(tangent_vec_b, dtype=float), base_point)
        return np.sum(ca * cb, axis=(-2, -1))

    def _exp(self, tangent_vec, base_point):
        chart = self._to_chart(base_point, "base point") + self._dlog(tangent_vec, base_point)
        return linalg.sym_function(chart, np.exp)

    def _log(self, point, base_point):
        chart_diff = self._to_chart(point) - self._to_chart(base_point, "base point")
        return self._dexp(chart_diff, self._to_chart(base_point, "base point"))

    def squared_dist(self, point_a, point_b):
        diff = self._to_chart(point_a) - self._to_chart(point_b)
        return np.sum(diff**2, axis=(-2, -1))

    def _transport(self, tangent_vec, base_point, direction, end_point):
        if end_point is None:
            end_point = self.exp(direction, base_point)
        chart_vec = self._dlog(tangent_vec, base_point)
        return self._dexp(chart_vec, self._to_chart(end_point))
