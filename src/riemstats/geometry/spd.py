"""Symmetric positive-definite matrices SPD(n) with two metric families.

Affine-invariant: exp_P(V) = P^1/2 expm(P^-1/2 V P^-1/2) P^1/2, distance
invariant under congruence P -> A P A^T. The formulas hold for any factor
P = A A^T in place of P^1/2 (Pennec, Fillard and Ayache, "A Riemannian
framework for tensor computing", IJCV 2006), so each op factors its base
point once, with the Cholesky frame (L, L^-1) of ``linalg.spd_frame``, and
works with S = sym(L^-1 X L^-T):

* exp_P(V) = L expm(S) L^T, with X = V;
* log_P(Q) = L logm(S) L^T, with X = Q;
* d(P, Q)^2 = sum_i log^2 lambda_i(S), with X = Q: eigenvalues only;
* transport V -> E V E^T, with E = L expm(S/2) L^-1 for X the direction,
  or E = L S^1/2 L^-1 for X the end point;
* <A, B>_P = tr(A~ B~) with A~ = L^-1 A L^-T.

Each of exp, log and transport makes one symmetric eigendecomposition.

Log-Euclidean: the pullback of the flat Frobenius metric through the matrix
logarithm chart; distance ||logm P - logm Q||_F. The chart shares its
eigenvectors with the point (Arsigny, Fillard, Pennec and Ayache, SIAM J.
Matrix Anal. Appl. 29, 2007): one eigendecomposition P = V diag(w) V^T gives
the chart point V diag(log w) V^T, the differential of logm at P, and the
differential of expm at the chart point, which is taken at (log w, V).
"""

from __future__ import annotations

import numpy as np

from .. import linalg
from ..errors import DomainError
from .base import Manifold, RiemannianMetric, _rng, _sample_shape


def _trace_product(a, b):
    return np.einsum("...ij,...ji->...", a, b)


def _require_positive(w, what):
    """DomainError unless a descending spectrum is numerically positive.

    An eigenvalue within ``n eps`` of the largest one is round-off away from
    zero, so a singular matrix cannot pass as a positive-definite one.
    """
    if np.any(w[..., -1] <= w.shape[-1] * np.finfo(float).eps * w[..., 0]):
        raise DomainError(f"{what} is not positive definite")


def _spd_eig(mat, what):
    w, v = linalg.sym_eig(mat)
    _require_positive(w, what)
    return w, v


def _require_finite_exp(w):
    """DomainError if exp of a spectrum overflows: exp to that end point raises too."""
    if not np.all(np.isfinite(np.exp(w))):
        raise DomainError("spd exp overflows: the end point is not finite")


def _congruence(inv_low, mat):
    """sym(L^-1 mat L^-T): ``mat`` in the frame of the base point."""
    return linalg.sym(inv_low @ mat @ linalg.transpose(inv_low))


def _spectral(w, v):
    """v diag(w) v^T."""
    return (v * w[..., None, :]) @ linalg.transpose(v)


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
        _, inv_low = linalg.spd_frame(base_point, "base point")
        return _trace_product(_congruence(inv_low, tangent_vec_a),
                              _congruence(inv_low, tangent_vec_b))

    def _exp(self, tangent_vec, base_point):
        low, inv_low = linalg.spd_frame(base_point, "base point")
        middle = linalg.sym_function(_congruence(inv_low, tangent_vec), np.exp)
        return low @ middle @ linalg.transpose(low)

    def _log(self, point, base_point):
        low, inv_low = linalg.spd_frame(base_point, "base point")
        w, v = _spd_eig(_congruence(inv_low, linalg.check_symmetric(point)), "point")
        return low @ _spectral(np.log(w), v) @ linalg.transpose(low)

    def squared_dist(self, point_a, point_b):
        _, inv_low = linalg.spd_frame(point_a, "point")
        w = linalg.sym_eigvals(_congruence(inv_low, linalg.check_symmetric(point_b)))
        _require_positive(w, "point")
        return np.sum(np.log(w) ** 2, axis=-1)

    def _transport(self, tangent_vec, base_point, direction, end_point):
        """Closed form: V -> E V E^T with E = L (L^-1 Q L^-T)^1/2 L^-1, Q = exp_P(direction)."""
        low, inv_low = linalg.spd_frame(base_point, "base point")
        if end_point is None:
            w, v = linalg.sym_eig(_congruence(inv_low, direction))
            _require_finite_exp(w)
            half = _spectral(np.exp(0.5 * w), v)
        else:
            w, v = _spd_eig(_congruence(inv_low, linalg.check_symmetric(end_point)), "end point")
            half = _spectral(np.sqrt(w), v)
        shifter = low @ half @ inv_low
        return shifter @ tangent_vec @ linalg.transpose(shifter)


class SPDLogEuclideanMetric(RiemannianMetric):
    """Flat metric pulled back through the matrix-logarithm chart.

    Every SPD operand is eigendecomposed once, ``P = v diag(w) v^T``; the
    chart point, ``dlog`` at ``P`` and ``dexp`` at the chart point all come
    from that ``(w, v)``.
    """

    @staticmethod
    def _dlog(tangent_vec, w, v):
        return linalg.eig_function_derivative(w, v, tangent_vec, np.log, lambda x: 1.0 / x)

    @staticmethod
    def _dexp(chart_vec, log_w, v):
        return linalg.eig_function_derivative(log_w, v, chart_vec, np.exp, np.exp)

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        w, v = _spd_eig(base_point, "base point")
        ca = self._dlog(tangent_vec_a, w, v)
        cb = self._dlog(tangent_vec_b, w, v)
        return np.sum(ca * cb, axis=(-2, -1))

    def _exp(self, tangent_vec, base_point):
        w, v = _spd_eig(base_point, "base point")
        chart = _spectral(np.log(w), v) + self._dlog(tangent_vec, w, v)
        return linalg.sym_function(chart, np.exp)

    def _log(self, point, base_point):
        w_point, v_point = _spd_eig(point, "point")
        w, v = _spd_eig(base_point, "base point")
        log_w = np.log(w)
        chart_diff = _spectral(np.log(w_point), v_point) - _spectral(log_w, v)
        return self._dexp(chart_diff, log_w, v)

    def squared_dist(self, point_a, point_b):
        w_a, v_a = _spd_eig(point_a, "point")
        w_b, v_b = _spd_eig(point_b, "point")
        diff = _spectral(np.log(w_a), v_a) - _spectral(np.log(w_b), v_b)
        return np.sum(diff**2, axis=(-2, -1))

    def _transport(self, tangent_vec, base_point, direction, end_point):
        w, v = _spd_eig(base_point, "base point")
        if end_point is None:
            # The end point's chart is the base chart plus dlog(direction).
            chart_end = _spectral(np.log(w), v) + self._dlog(direction, w, v)
            log_w_end, v_end = linalg.sym_eig(chart_end)
            _require_finite_exp(log_w_end)
        else:
            w_end, v_end = _spd_eig(end_point, "end point")
            log_w_end = np.log(w_end)
        return self._dexp(self._dlog(tangent_vec, w, v), log_w_end, v_end)
