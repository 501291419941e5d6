"""Stiefel manifold St(n, p) of orthonormal p-frames with the canonical metric.

The canonical-metric geodesic through X with velocity V uses the 2p x 2p
block exponential of [[A, -R^T], [R, 0]] where A = X^T V and QR = V - X A.
There is no closed-form logarithm; it is computed by Gauss-Newton shooting.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from .base import Manifold, RiemannianMetric, _rng, _sample_shape
from .numerical import log_by_shooting


class Stiefel(Manifold):
    """n x p matrices with orthonormal columns (p <= n)."""

    def __init__(self, n, p):
        if not 1 <= p <= n:
            raise ValueError("Stiefel needs 1 <= p <= n")
        super().__init__(n * p - p * (p + 1) // 2, (n, p), "stiefel")
        self.n = n
        self.p = p

    def membership_residual(self, point):
        point = np.asarray(point, dtype=float)
        gram = linalg.transpose(point) @ point
        return np.max(np.abs(gram - np.eye(self.p)), axis=(-2, -1))

    def to_tangent(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        base_point = np.asarray(base_point, dtype=float)
        return vector - base_point @ linalg.sym(linalg.transpose(base_point) @ vector)

    def random_point(self, n_samples=1, rng=None):
        rng = _rng(rng)
        q, _ = linalg.qr(rng.standard_normal(_sample_shape(n_samples, self.point_shape)))
        return q

    def project(self, point):
        """Nearest frame in Frobenius norm: the polar factor ``U V^T``."""
        u, _, vt = linalg.svd(point)
        return u @ vt

    def orthogonal_complement(self, base_point):
        """Deterministic orthonormal basis of the columns' complement, (..., n, n-p)."""
        base_point = np.asarray(base_point, dtype=float)
        q, _ = np.linalg.qr(base_point, mode="complete")
        # Re-project: the trailing columns of the complete Q span the complement
        # but may differ from base_point's span representative by signs.
        return q[..., self.p :]

    @property
    def default_metric(self):
        return StiefelCanonicalMetric(self)

    @property
    def canonical_metric(self):
        return StiefelCanonicalMetric(self)


class StiefelCanonicalMetric(RiemannianMetric):
    """Canonical metric <U, V>_X = tr(U^T (I - X X^T / 2) V)."""

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        tangent_vec_a = np.asarray(tangent_vec_a, dtype=float)
        tangent_vec_b = np.asarray(tangent_vec_b, dtype=float)
        base_point = np.asarray(base_point, dtype=float)
        plain = np.sum(tangent_vec_a * tangent_vec_b, axis=(-2, -1))
        xa = linalg.transpose(base_point) @ tangent_vec_a
        xb = linalg.transpose(base_point) @ tangent_vec_b
        return plain - 0.5 * np.sum(xa * xb, axis=(-2, -1))

    def _exp(self, tangent_vec, base_point):
        base_point, tangent_vec = np.broadcast_arrays(base_point, tangent_vec)
        p = base_point.shape[-1]

        a = linalg.transpose(base_point) @ tangent_vec  # skew p x p
        normal = tangent_vec - base_point @ a
        q, r = np.linalg.qr(normal)
        signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
        q = q * signs[..., None, :]
        r = r * signs[..., :, None]

        block = np.zeros(base_point.shape[:-2] + (2 * p, 2 * p))
        block[..., :p, :p] = a
        block[..., :p, p:] = -linalg.transpose(r)
        block[..., p:, :p] = r
        first_cols = linalg.matrix_exp(block)[..., :p]
        return base_point @ first_cols[..., :p, :] + q @ first_cols[..., p:, :]

    def _tangent_basis(self, base_point):
        """Basis of the tangent space at (possibly batched) base points."""
        n, p = base_point.shape[-2:]
        complement = self.manifold.orthogonal_complement(base_point)
        mats = []
        for i in range(p):
            for j in range(i + 1, p):
                skew = np.zeros((p, p))
                skew[i, j] = -1.0
                skew[j, i] = 1.0
                mats.append(base_point @ skew)
        for k in range(n - p):
            for l in range(p):
                sel = np.zeros((n - p, p))
                sel[k, l] = 1.0
                mats.append(complement @ sel)
        return np.stack(mats, axis=-3)

    def _log(self, point, base_point, max_iter=100, tol=1e-9):
        """Shooting log; the target must stay in the convergence region.

        The conservative bound is principal angles below pi/2 between the
        frames' spans; in practice targets within a unit geodesic ball work.
        The tangent recovered is accurate to roughly the residual ``tol``
        (Gauss-Newton converges quadratically, so the tight default costs
        about one extra iteration over a loose one).
        """
        init = self.to_tangent(point - base_point, base_point)
        return log_by_shooting(
            self._exp,
            base_point,
            point,
            tangent_basis=self._tangent_basis(base_point),
            initial_tangent=init,
            max_iter=max_iter,
            tol=tol,
            point_ndim=2,
        )

    def injectivity_radius(self, base_point):
        # Conservative constant well inside the shooting convergence region.
        return 1.0
