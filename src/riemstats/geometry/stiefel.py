"""Stiefel manifold St(n, p) of orthonormal p-frames with the canonical metric.

The canonical-metric geodesic through X with velocity V uses the 2p x 2p
block exponential of [[A, -R^T], [R, 0]] where A = X^T V and QR = V - X A.
There is no closed-form logarithm; it is computed by Zimmermann's iteration
on the rotation that completes the end point's coordinates, one batched
rotation log per step.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import ConvergenceError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape

_LOG_MAX_ITER = 100
_LOG_TOL = 1e-9


class Stiefel(Manifold):
    """n x p matrices with orthonormal columns (p <= n)."""

    def __init__(self, n, p):
        if not 1 <= p <= n:
            raise ValueError("Stiefel needs 1 <= p <= n")
        super().__init__(n * p - p * (p + 1) // 2, (n, p), "stiefel")
        self.n = n
        self.p = p

    def _membership_residual(self, point):
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

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        plain = linalg.inner(tangent_vec_a, tangent_vec_b, axes=2)
        xa = linalg.transpose(base_point) @ tangent_vec_a
        xb = linalg.transpose(base_point) @ tangent_vec_b
        return plain - 0.5 * linalg.inner(xa, xb, axes=2)

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

    def _log(self, point, base_point):
        """Zimmermann's algorithm: the log as the block of a rotation log.

        With M = U0^T U1 and Q N the normal part U1 - U0 M, in an orthonormal
        basis Q of min(p, n - p) columns orthogonal to U0, the columns
        [M; N] are completed to a rotation V whose last columns are
        chosen by the Procrustes step of section 3. Each step takes
        log V = [[A, -B^T], [B, C]] and stops where ||C||_F <= ``_LOG_TOL``;
        otherwise V's last columns are right-multiplied by expm(-C). The log
        is U0 A + Q B (Zimmermann, "A matrix-algebraic algorithm for the
        Riemannian logarithm on the Stiefel manifold under the canonical
        metric", SIAM J. Matrix Anal. Appl. 38, 2017). For skew L and L0,
        ||e^L - e^L0||_2 <= ||L - L0||_2, so the exp of the returned tangent
        misses the point by at most ``_LOG_TOL`` in every entry, up to round-off.
        The iteration converges locally; a target that needs more than
        ``_LOG_MAX_ITER`` steps raises :class:`ConvergenceError` with the largest
        ||C||_F left. Converged members are frozen, so a batch gives each
        member the steps of its element-wise run.
        """
        base_point, point = np.broadcast_arrays(base_point, point)
        n, p = base_point.shape[-2:]
        base = base_point.reshape((-1, n, p))
        target = point.reshape((-1, n, p))
        # Q is taken inside a basis of the complement, so it stays orthogonal
        # to U0 where N is singular; where n < 2p it spans all n - p columns.
        complement = self.manifold.orthogonal_complement(base)
        q_coords, n_block = np.linalg.qr(linalg.transpose(complement) @ target)
        frame = np.concatenate([linalg.transpose(base) @ target, n_block], axis=-2)
        rot = _rotation_completion(frame)

        logs = np.empty_like(rot)
        active = np.arange(len(rot))
        for step in range(_LOG_MAX_ITER + 1):
            log = linalg.skew(linalg.matrix_log(rot[active]))
            corner = log[:, p:, p:]
            residual = linalg.norm(corner, axes=2)
            done = residual <= _LOG_TOL
            logs[active[done]] = log[done]
            active, corner = active[~done], corner[~done]
            if active.size == 0:
                break
            if step == _LOG_MAX_ITER:
                raise ConvergenceError(
                    f"Stiefel log failed to reach tol={_LOG_TOL} in {_LOG_MAX_ITER} steps",
                    residual=float(residual.max()),
                )
            rot[active, :, p:] = rot[active, :, p:] @ linalg.matrix_exp(-corner)

        tangent = base @ logs[:, :p, :p] + complement @ q_coords @ logs[:, p:, :p]
        return tangent.reshape(base_point.shape)

    def injectivity_radius(self, base_point):
        # Conservative constant well inside the convergence region of the log.
        return 1.0


def _rotation_completion(frame):
    """Rotations ``[frame, Y]`` of size m whose lower-right block is near the identity.

    ``frame`` is ``(..., m, p)`` with orthonormal columns. The k = m - p new
    columns complete it to determinant +1 and are then right-multiplied by
    the rotation W that maximizes tr(Y_22 W), the Procrustes step of
    Zimmermann (2017, section 3): with Y_22 = D S R^T, W = R diag(1, .., 1, d)
    D^T, where d = det(R D^T). Y_22 W = D S diag(1, .., 1, d) D^T is then
    symmetric, which makes the first C of the log small.
    """
    p = frame.shape[-1]
    if frame.shape[-2] == p:
        return frame.copy()
    full, _ = np.linalg.qr(frame, mode="complete")
    rot = np.concatenate([frame, full[..., p:]], axis=-1)
    rot[..., -1] *= np.sign(np.linalg.det(rot))[..., None]
    left, _, right_t = np.linalg.svd(rot[..., p:, p:])
    orient = np.ones(left.shape[:-1])
    orient[..., -1] = np.sign(np.linalg.det(left) * np.linalg.det(right_t))
    procrustes = (linalg.transpose(right_t) * orient[..., None, :]) @ linalg.transpose(left)
    rot[..., p:] = rot[..., p:] @ procrustes
    return rot
