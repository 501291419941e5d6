"""Invariant metrics on matrix Lie groups, integrated numerically.

A left- (or right-) invariant metric is determined by an SPD inner-product
matrix on the Lie algebra, expressed in a Frobenius-orthonormal basis.
Geodesics solve the Euler-Poincare equation for the body (resp. spatial)
velocity, reconstructed on the group, by :func:`numerical.dormand_prince`.
Logarithms are obtained by shooting. The algebra products are taken member
by member, ``x[..., None, :] @ M``, so that a batch equals its loop bit for
bit. Groups with extra structure (bi-invariance, product splittings) should
prefer their closed forms; this class is the generic fallback.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .base import RiemannianMetric, _symmetric
from .numerical import dormand_prince, log_by_shooting

_LOG_MAX_ITER = 100
_LOG_TOL = 1e-8


class InvariantMetric(RiemannianMetric):
    """Invariant metric on a matrix Lie group.

    Parameters
    ----------
    group : Manifold
        Must expose ``identity``, ``compose``, ``inverse``,
        ``lie_algebra_basis()`` (Frobenius-orthonormal, shape (m, N, N)),
        ``to_tangent`` and ``project``.
    side : {"left", "right"}
    inner_matrix : (m, m) SPD array, optional
        Inner product on the algebra in basis coordinates; identity by default.
        DomainError unless it is symmetric within ``base.ATOL`` entry for
        entry and positive definite.

    Geodesics are integrated by :func:`numerical.dormand_prince`, to its
    stated accuracy.
    """

    def __init__(self, group, side="left", inner_matrix=None):
        super().__init__(group)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.basis = group.lie_algebra_basis()
        m = self.basis.shape[0]
        if inner_matrix is None:
            inner_matrix = np.eye(m)
        inner_matrix = np.asarray(inner_matrix, dtype=float)
        if inner_matrix.shape != (m, m):
            raise DomainError(f"inner_matrix must be {m}x{m}")
        inner_matrix = _symmetric(inner_matrix, "inner_matrix")
        if np.any(np.linalg.eigvalsh(inner_matrix) <= 0.0):
            raise DomainError("inner_matrix must be symmetric positive definite")
        self.inner_matrix = inner_matrix
        self._inner_inv = np.linalg.inv(self.inner_matrix)
        # Structure constants C[l, j, k] = <e_l, [e_j, e_k]>_F, flattened to
        # C[(l, j), k] so that the coadjoint rate is one matmul.
        bracket = np.einsum("jab,kbc->jkac", self.basis, self.basis)
        bracket = bracket - np.einsum("kab,jbc->jkac", self.basis, self.basis)
        structure = np.einsum("lac,jkac->ljk", self.basis, bracket)
        self._structure_flat = structure.reshape(m * m, m)
        self._basis_flat = self.basis.reshape(m, -1)

    def _to_coords(self, algebra_mat):
        return np.einsum("...ij,dij->...d", algebra_mat, self.basis)

    def _from_coords(self, coords):
        coords = np.asarray(coords, dtype=float)
        flat = (coords[..., None, :] @ self._basis_flat)[..., 0, :]
        return flat.reshape(coords.shape[:-1] + self.basis.shape[1:])

    def _body_coords(self, tangent_vec, base_point):
        inv = self.manifold.inverse(base_point)
        algebra = inv @ tangent_vec if self.side == "left" else tangent_vec @ inv
        return self._to_coords(algebra)

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        xa = self._body_coords(tangent_vec_a, base_point)
        xb = self._body_coords(tangent_vec_b, base_point)
        return np.einsum("...d,de,...e->...", xa, self.inner_matrix, xb)

    # The inherited exp, bound here too: perfbench times invariant geodesics by this name.
    exp = RiemannianMetric.exp

    def _momentum_rate(self, momentum, velocity):
        # (ad*_xi mu)_k = sum_{l,j} mu_l xi_j C[l, j, k]: the outer product mu (x) xi
        # flattened to (..., m^2), times C[(l, j), k].
        outer = momentum[..., :, None] * velocity[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + self._structure_flat.shape[:1])
        rate = (outer[..., None, :] @ self._structure_flat)[..., 0, :]
        return rate if self.side == "left" else -rate

    def _exp(self, tangent_vec, base_point):
        """Geodesic endpoint by Euler-Poincare + reconstruction."""
        xi0 = self._body_coords(tangent_vec, base_point)
        g = np.broadcast_to(base_point, xi0.shape[:-1] + base_point.shape[-2:])
        mu = (xi0[..., None, :] @ self.inner_matrix)[..., 0, :]

        def rates(g, mu):
            xi = (mu[..., None, :] @ self._inner_inv)[..., 0, :]
            xi_hat = self._from_coords(xi)
            dg = g @ xi_hat if self.side == "left" else xi_hat @ g
            return dg, self._momentum_rate(mu, xi)

        g, _ = dormand_prince(rates, (g, mu), mu.ndim - 1)
        return self.manifold.project(g)

    def _tangent_basis_at(self, base_point):
        if self.side == "left":
            return np.einsum("...ij,mjk->...mik", base_point, self.basis)
        return np.einsum("mij,...jk->...mik", self.basis, base_point)

    def _log(self, point, base_point):
        """Shooting log: Gauss-Newton on the integrated-exp residual, to ``_LOG_TOL``
        in at most ``_LOG_MAX_ITER`` steps."""
        init = self.manifold.to_tangent(point - base_point, base_point)
        return log_by_shooting(
            self._exp,
            base_point,
            point,
            tangent_basis=self._tangent_basis_at(base_point),
            initial_tangent=init,
            max_iter=_LOG_MAX_ITER,
            tol=_LOG_TOL,
            point_ndim=2,
        )

    def injectivity_radius(self, base_point):
        # Conservative constant for the shooting region; no sharp bound is
        # attempted for general invariant metrics.
        return 1.0
