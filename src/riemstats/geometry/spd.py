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
* transport V -> E V E^T: E = L expm(S/2) L^-1 for X the direction in
  ``_transport``, E = L S^1/2 L^-1 for X the end point in ``_transport_to``;
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
from .base import Manifold, RiemannianMetric, _rng, _sample_shape, _symmetric


def _trace_product(a, b):
    return np.einsum("...ij,...ji->...", a, b)


def _singular(w):
    """Whether a descending spectrum is not numerically positive.

    An eigenvalue within ``n eps`` of the largest one is round-off away from
    zero, so a singular matrix cannot pass as a positive-definite one.
    """
    return w[..., -1] <= w.shape[-1] * np.finfo(float).eps * w[..., 0]


def _require_positive(w, what):
    """DomainError unless a descending spectrum is numerically positive."""
    if np.any(_singular(w)):
        raise DomainError(f"{what} is not positive definite")


def _spd_eig(operand, what):
    """Eigendecomposition of a caller's operand ``what``, checked once, by ``_symmetric``."""
    w, v = linalg._sym_eig(_symmetric(operand, what))
    _require_positive(w, what)
    return w, v


def _require_finite_exp(w):
    """DomainError if exp of a spectrum overflows: exp to that end point raises too."""
    if not np.all(np.isfinite(np.exp(w))):
        raise DomainError("spd exp overflows: the end point is not finite")


def _base_frame(base_point):
    """Cholesky frame of a base point; DomainError unless its spectrum is numerically positive.

    The factorization alone succeeds on some points that are singular to
    round-off, such as ``diag(1, 1e-17, 2)``, which ``belongs`` rejects.
    ``tr(P) tr(P^-1) = |L|_F^2 |L^-1|_F^2`` bounds the condition number of
    P = L L^T from above, so a batch it keeps 1000 times below the singular
    threshold of ``_singular`` is positive without its eigenvalues.
    """
    base_point = _symmetric(base_point, "base point")
    low, inv_low = linalg._spd_frame(base_point, "base point")
    bound = linalg.inner(low, low, axes=2) * linalg.inner(inv_low, inv_low, axes=2)
    if not np.all(bound * low.shape[-1] * np.finfo(float).eps < 1e-3):
        _require_positive(np.linalg.eigvalsh(base_point)[..., ::-1], "base point")
    return low, inv_low


def _congruence(inv_low, mat):
    """sym(L^-1 mat L^-T): ``mat`` in the frame of the base point."""
    return linalg.sym(inv_low @ mat @ linalg.transpose(inv_low))


def _frame_eig(inv_low, mat):
    """``linalg.sym_eig`` of ``_congruence(inv_low, mat)``, which is exactly
    symmetric by construction: only its finiteness is checked, with the same
    DomainError."""
    return linalg._sym_eig(linalg._as_matrix(_congruence(inv_low, mat), "symmetric matrix"))


def _spectral(w, v):
    """v diag(w) v^T."""
    return (v * w[..., None, :]) @ linalg.transpose(v)


class SPDMatrices(Manifold):
    """Symmetric matrices with strictly positive spectrum."""

    def __init__(self, n):
        super().__init__(n * (n + 1) // 2, (n, n), "spd")
        self.n = n

    def _membership_residual(self, point):
        """The asymmetry; infinite where the spectrum is not numerically positive.

        So ``belongs`` fails at every tolerance exactly where the metrics
        reject the point as singular.
        """
        asym = np.max(np.abs(point - linalg.transpose(point)), axis=(-2, -1))
        eigvals = np.linalg.eigvalsh(linalg.sym(point))[..., ::-1]
        return np.where(_singular(eigvals), np.inf, asym)

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

    prefers_shared_base = True  # each base point is Cholesky-factored

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        _, inv_low = _base_frame(base_point)
        return _trace_product(_congruence(inv_low, tangent_vec_a),
                              _congruence(inv_low, tangent_vec_b))

    def _exp(self, tangent_vec, base_point):
        low, inv_low = _base_frame(base_point)
        middle = linalg._eig_function(*_frame_eig(inv_low, tangent_vec), np.exp)
        return low @ middle @ linalg.transpose(low)

    def _log(self, point, base_point):
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        """L logm(S) L^T and sum_i log^2 lambda_i(S) from one frame and one ``eigh``."""
        low, inv_low = _base_frame(base_point)
        w, v = _frame_eig(inv_low, _symmetric(point, "point"))
        _require_positive(w, "point")
        log_w = np.log(w)
        return low @ _spectral(log_w, v) @ linalg.transpose(low), linalg.inner(log_w, log_w)

    def _squared_dist(self, point_a, point_b):
        _, inv_low = linalg._spd_frame(_symmetric(point_a, "point"), "point")
        congruent = _congruence(inv_low, _symmetric(point_b, "point"))
        w = np.linalg.eigvalsh(linalg._as_matrix(congruent, "symmetric matrix"))[..., ::-1]
        _require_positive(w, "point")
        log_w = np.log(w)
        return linalg.inner(log_w, log_w)

    def _transport(self, tangent_vec, base_point, direction):
        """V -> E V E^T with E = L expm(S/2) L^-1, X the direction."""
        low, inv_low = _base_frame(base_point)
        w, v = _frame_eig(inv_low, direction)
        _require_finite_exp(w)
        shifter = low @ _spectral(np.exp(0.5 * w), v) @ inv_low
        return shifter @ tangent_vec @ linalg.transpose(shifter)

    def _transport_to(self, tangent_vec, base_point, end_point):
        """V -> E V E^T with E = L S^1/2 L^-1, X the end point: no log needed."""
        low, inv_low = _base_frame(base_point)
        w, v = _frame_eig(inv_low, _symmetric(end_point, "end point"))
        _require_positive(w, "end point")
        shifter = low @ _spectral(np.sqrt(w), v) @ inv_low
        return shifter @ tangent_vec @ linalg.transpose(shifter)


class SPDLogEuclideanMetric(RiemannianMetric):
    """Flat metric pulled back through the matrix-logarithm chart.

    Every SPD operand is eigendecomposed once, ``P = v diag(w) v^T``; the
    chart point, ``dlog`` at ``P`` and ``dexp`` at the chart point all come
    from that ``(w, v)``.
    """

    prefers_shared_base = True  # each base point is eigendecomposed

    @staticmethod
    def _dlog(tangent_vec, w, v):
        return linalg.eig_function_derivative(w, v, tangent_vec, np.log, lambda x: 1.0 / x)

    @staticmethod
    def _dexp(chart_vec, log_w, v):
        return linalg.eig_function_derivative(log_w, v, chart_vec, np.exp, np.exp)

    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        w, v = _spd_eig(base_point, "base point")
        ca = self._dlog(tangent_vec_a, w, v)
        cb = self._dlog(tangent_vec_b, w, v)
        return linalg.inner(ca, cb, axes=2)

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

    def _squared_dist(self, point_a, point_b):
        w_a, v_a = _spd_eig(point_a, "point")
        w_b, v_b = _spd_eig(point_b, "point")
        diff = _spectral(np.log(w_a), v_a) - _spectral(np.log(w_b), v_b)
        return linalg.inner(diff, diff, axes=2)

    def _transport(self, tangent_vec, base_point, direction):
        w, v = _spd_eig(base_point, "base point")
        # The end point's chart is the base chart plus dlog(direction).
        chart_end = _spectral(np.log(w), v) + self._dlog(direction, w, v)
        log_w_end, v_end = linalg.sym_eig(chart_end)
        _require_finite_exp(log_w_end)
        return self._dexp(self._dlog(tangent_vec, w, v), log_w_end, v_end)

    def _transport_to(self, tangent_vec, base_point, end_point):
        w, v = _spd_eig(base_point, "base point")
        w_end, v_end = _spd_eig(end_point, "end point")
        return self._dexp(self._dlog(tangent_vec, w, v), np.log(w_end), v_end)
