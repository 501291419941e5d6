"""Rigid motions SE(n) = SO(n) x R^n, as homogeneous (n+1)x(n+1) matrices.

The canonical left-invariant metric (identity inner product on the algebra:
Frobenius on the rotation block, Euclidean on the translation block) makes
SE(n) a metric product of SO(n) and R^n: its geodesics rotate along an SO(n)
geodesic while the translation moves in a straight line. Other invariant
metrics are served by :class:`~riemstats.geometry.invariant.InvariantMetric`.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from .base import Manifold, RiemannianMetric, _rng, _sample_shape
from .invariant import InvariantMetric
from .rotations import SOBiInvariantMetric, SpecialOrthogonal


def homogeneous_from_parts(rotation, translation):
    """Assemble [[R, t], [0, 1]] from rotation and translation parts."""
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    n = rotation.shape[-1]
    batch = np.broadcast_shapes(rotation.shape[:-2], translation.shape[:-1])
    out = np.zeros(batch + (n + 1, n + 1))
    out[..., :n, :n] = rotation
    out[..., :n, n] = translation
    out[..., n, n] = 1.0
    return out


def rotation_part(point):
    n = np.asarray(point).shape[-1] - 1
    return np.asarray(point, dtype=float)[..., :n, :n]


def translation_part(point):
    n = np.asarray(point).shape[-1] - 1
    return np.asarray(point, dtype=float)[..., :n, n]


def tangent_from_parts(rotation_vec, translation_vec):
    """Assemble [[Omega, w], [0, 0]] from block parts."""
    rotation_vec = np.asarray(rotation_vec, dtype=float)
    translation_vec = np.asarray(translation_vec, dtype=float)
    n = rotation_vec.shape[-1]
    batch = np.broadcast_shapes(rotation_vec.shape[:-2], translation_vec.shape[:-1])
    out = np.zeros(batch + (n + 1, n + 1))
    out[..., :n, :n] = rotation_vec
    out[..., :n, n] = translation_vec
    return out


class SpecialEuclidean(Manifold):
    """SE(n) in homogeneous-matrix representation."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("SpecialEuclidean needs n >= 2")
        super().__init__(n * (n - 1) // 2 + n, (n + 1, n + 1), "special_euclidean")
        self.n = n
        self.rotations = SpecialOrthogonal(n)

    @property
    def identity(self):
        return np.eye(self.n + 1)

    def compose(self, point_a, point_b):
        return np.asarray(point_a, dtype=float) @ np.asarray(point_b, dtype=float)

    def inverse(self, point):
        rot = rotation_part(point)
        trans = translation_part(point)
        rot_inv = linalg.transpose(rot)
        return homogeneous_from_parts(rot_inv, -np.einsum("...ij,...j->...i", rot_inv, trans))

    def _membership_residual(self, point):
        n = self.n
        rot_res = self.rotations._membership_residual(rotation_part(point))
        bottom = np.zeros(n + 1)
        bottom[n] = 1.0
        row_res = np.max(np.abs(point[..., n, :] - bottom), axis=-1)
        return np.maximum(rot_res, row_res)

    def to_tangent(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        rot_block = self.rotations.to_tangent(rotation_part(vector), rotation_part(base_point))
        return tangent_from_parts(rot_block, translation_part(vector))

    def project(self, point):
        rot = self.rotations.project(rotation_part(point))
        return homogeneous_from_parts(rot, translation_part(point))

    def lie_algebra_basis(self):
        """Frobenius-orthonormal basis of se(n): skew block then translations."""
        n = self.n
        basis = []
        for skew in self.rotations.lie_algebra_basis():
            basis.append(tangent_from_parts(skew, np.zeros(n)))
        for i in range(n):
            trans = np.zeros(n)
            trans[i] = 1.0
            basis.append(tangent_from_parts(np.zeros((n, n)), trans))
        return np.stack(basis)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        rot = self.rotations.random_point(n_samples, rng)
        trans = rng.standard_normal(_sample_shape(n_samples, (self.n,)))
        return homogeneous_from_parts(rot, trans)

    @property
    def default_metric(self):
        return SECanonicalLeftMetric(self)

    @property
    def canonical_left_metric(self):
        return SECanonicalLeftMetric(self)

    def invariant_metric(self, side="left", inner_matrix=None, n_steps=None):
        """Invariant metric for a given algebra inner product.

        The canonical case (left, identity matrix) returns the closed-form
        product metric; anything else integrates geodesics numerically with
        :class:`InvariantMetric`: adaptively to a per-step error of 3e-10
        when ``n_steps`` is ``None`` (the default), raising
        :class:`ConvergenceError` past 10000 steps, or with ``n_steps``
        fixed RK4 steps.
        """
        if side == "left" and (
            inner_matrix is None or np.allclose(inner_matrix, np.eye(self.dim))
        ):
            return SECanonicalLeftMetric(self)
        return InvariantMetric(self, side=side, inner_matrix=inner_matrix, n_steps=n_steps)


class SECanonicalLeftMetric(RiemannianMetric):
    """Left-invariant metric with identity inner product on the algebra.

    Under this metric SE(n) is the metric product SO(n) x R^n: exp rotates
    the rotation part along its bi-invariant geodesic and translates the
    position in a straight line.
    """

    def __init__(self, manifold):
        super().__init__(manifold)
        self._so_metric = SOBiInvariantMetric(manifold.rotations)

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        return linalg.inner(tangent_vec_a, tangent_vec_b, axes=2)

    def _exp(self, tangent_vec, base_point):
        rot = self._so_metric._exp(rotation_part(tangent_vec), rotation_part(base_point))
        trans = translation_part(base_point) + translation_part(tangent_vec)
        return homogeneous_from_parts(rot, trans)

    def _log(self, point, base_point):
        rot_vec = self._so_metric._log(rotation_part(point), rotation_part(base_point))
        trans = translation_part(point) - translation_part(base_point)
        return tangent_from_parts(rot_vec, trans)

    def _squared_dist(self, point_a, point_b):
        rot_sq = self._so_metric._squared_dist(rotation_part(point_a), rotation_part(point_b))
        diff = translation_part(point_b) - translation_part(point_a)
        return rot_sq + linalg.inner(diff, diff)

    def _transport(self, tangent_vec, base_point, direction):
        """SO(n) transport of the rotation block; the translation block is kept."""
        blocks = [rotation_part(arr) for arr in (tangent_vec, base_point, direction)]
        return tangent_from_parts(self._so_metric._transport(*blocks), translation_part(tangent_vec))

    def injectivity_radius(self, base_point):
        return np.sqrt(2.0) * np.pi
