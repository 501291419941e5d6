"""Invariant metrics on matrix Lie groups, integrated numerically.

A left- (or right-) invariant metric is determined by an SPD inner-product
matrix on the Lie algebra, expressed in a Frobenius-orthonormal basis.
Geodesics solve the Euler-Poincare equation for the body (resp. spatial)
velocity, reconstructed on the group by RK4 (:func:`numerical.rk4`);
logarithms are obtained by shooting. Groups with extra structure
(bi-invariance, product splittings) should prefer their closed forms; this
class is the generic fallback.
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import RiemannianMetric
from .numerical import log_by_shooting, rk4


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
    n_steps : int
        RK4 steps for one unit of geodesic time.
    """

    def __init__(self, group, side="left", inner_matrix=None, n_steps=100):
        super().__init__(group)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.n_steps = int(n_steps)
        self.basis = group.lie_algebra_basis()
        m = self.basis.shape[0]
        if inner_matrix is None:
            inner_matrix = np.eye(m)
        inner_matrix = np.asarray(inner_matrix, dtype=float)
        if inner_matrix.shape != (m, m):
            raise DomainError(f"inner_matrix must be {m}x{m}")
        eigvals = np.linalg.eigvalsh(linalg.sym(inner_matrix))
        if np.any(eigvals <= 0.0):
            raise DomainError("inner_matrix must be symmetric positive definite")
        self.inner_matrix = linalg.sym(inner_matrix)
        self._inner_inv = np.linalg.inv(self.inner_matrix)
        # Structure constants C[l, j, k] = <e_l, [e_j, e_k]>_F.
        bracket = np.einsum("jab,kbc->jkac", self.basis, self.basis)
        bracket = bracket - np.einsum("kab,jbc->jkac", self.basis, self.basis)
        self._structure = np.einsum("lac,jkac->ljk", self.basis, bracket)

    def _to_coords(self, algebra_mat):
        return np.einsum("...ij,dij->...d", algebra_mat, self.basis)

    def _from_coords(self, coords):
        return np.einsum("...d,dij->...ij", np.asarray(coords, dtype=float), self.basis)

    def _body_coords(self, tangent_vec, base_point):
        inv = self.manifold.inverse(base_point)
        if self.side == "left":
            algebra = inv @ np.asarray(tangent_vec, dtype=float)
        else:
            algebra = np.asarray(tangent_vec, dtype=float) @ inv
        return self._to_coords(algebra)

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        xa = self._body_coords(tangent_vec_a, base_point)
        xb = self._body_coords(tangent_vec_b, base_point)
        return np.einsum("...d,de,...e->...", xa, self.inner_matrix, xb)

    # The inherited exp, bound here too: perfbench times invariant geodesics by this name.
    exp = RiemannianMetric.exp

    def _momentum_rate(self, momentum, velocity):
        # (ad*_xi mu)_k = sum_{l,j} mu_l xi_j C[l, j, k]
        rate = np.einsum("...l,...j,ljk->...k", momentum, velocity, self._structure)
        return rate if self.side == "left" else -rate

    def _exp(self, tangent_vec, base_point):
        """Geodesic endpoint by Euler-Poincare + reconstruction (RK4)."""
        xi0 = self._body_coords(tangent_vec, base_point)
        g = np.broadcast_to(base_point, xi0.shape[:-1] + base_point.shape[-2:])
        mu = xi0 @ self.inner_matrix

        def rates(g, mu):
            xi = mu @ self._inner_inv
            xi_hat = self._from_coords(xi)
            dg = g @ xi_hat if self.side == "left" else xi_hat @ g
            return dg, self._momentum_rate(mu, xi)

        g, _ = rk4(rates, (g, mu), self.n_steps)
        return self.manifold.project(g)

    def _tangent_basis_at(self, base_point):
        if self.side == "left":
            return np.einsum("...ij,mjk->...mik", base_point, self.basis)
        return np.einsum("mij,...jk->...mik", self.basis, base_point)

    def _log(self, point, base_point, max_iter=100, tol=1e-8):
        """Shooting log: Gauss-Newton on the integrated-exp residual."""
        init = self.manifold.to_tangent(point - base_point, base_point)
        return log_by_shooting(
            self._exp,
            base_point,
            point,
            tangent_basis=self._tangent_basis_at(base_point),
            initial_tangent=init,
            max_iter=max_iter,
            tol=tol,
            point_ndim=2,
        )

    def injectivity_radius(self, base_point):
        # Conservative constant for the shooting region; no sharp bound is
        # attempted for general invariant metrics.
        return 1.0
