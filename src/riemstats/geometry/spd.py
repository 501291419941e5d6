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

The Karcher flow takes Newton steps under this metric. With the logs of the
data at P written in its frame as L^-1 log_P(Q_i) L^-T = U_i diag(l_i) U_i^T,
the Hessian of 1/2 sum_i w_i d^2(., Q_i) at P acts on a direction V, with
V~ = L^-1 V L^-T, as sum_i w_i U_i ((U_i^T V~ U_i) o K_i) U_i^T (o the entrywise
product), where K_i[j, k] = x coth x at x = (l_ij - l_ik) / 2 and 1 where
x = 0 (Groisser, Adv. Appl. Math. 2004; Bini and Iannazzo, Linear Algebra
Appl. 2013). Every K >= 1, so the Hessian is at least the identity, positive
definite at every P. ``_log_and_squared_dist`` returns (l_i, U_i) beside
the log and the squared distance, and the flow hands them to the Newton
hook, so the metric holds no state between calls. The hook solves the
Newton system by conjugate gradients, applying the Hessian from them
without forming it: each product costs O(n^3) per point, as a log does, and
the solve keeps a few (points, n, n) arrays, so the step scales with n as
the gradient step does.

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


def _require_positive(w, what):
    """DomainError unless a descending spectrum is numerically positive."""
    if np.any(linalg.is_singular(w)):
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


def _base_frame(operand, what):
    """Cholesky frame of the operand ``what``, a base point or a distance's
    first point; DomainError unless its spectrum is numerically positive.

    The factorization alone succeeds on some points that are singular to
    round-off, such as ``diag(1, 1e-17, 2)``, which ``belongs`` rejects.
    ``tr(P) tr(P^-1) = |L|_F^2 |L^-1|_F^2`` bounds the condition number of
    P = L L^T from above, so a batch it keeps 1000 times below the singular
    threshold of ``linalg.is_singular`` is positive without its eigenvalues.
    """
    operand = _symmetric(operand, what)
    low, inv_low = linalg._spd_frame(operand, what)
    bound = linalg.inner(low, low, axes=2) * linalg.inner(inv_low, inv_low, axes=2)
    if not np.all(bound * low.shape[-1] * np.finfo(float).eps < 1e-3):
        _require_positive(np.linalg.eigvalsh(operand)[..., ::-1], what)
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


# Relative residual at which ``_frechet_newton_solve`` stops. The Hessian is
# at least the identity and at most the largest x coth x of the data, so the
# relative error of the direction is at most that factor times this.
_NEWTON_RTOL = 1e-13


def _frechet_newton_solve(log_w, v, weights, rhs):
    """Solve H D = ``rhs`` for the Hessian H of ``1/2 sum_i w_i d^2(., P_i)`` at the identity.

    The logs of the P_i at the identity are v_i diag(l_i) v_i^T, with
    ``log_w[i]`` = l_i. H maps a symmetric D to
    ``sum_i w_i v_i ((v_i^T D v_i) * K_i) v_i^T`` with
    K_i[p, q] = x coth x at x = (l_ip - l_iq) / 2, and 1 where x = 0. It is
    self-adjoint under the Frobenius product and at least ``sum_i w_i`` times
    the identity, so conjugate gradients solve it without forming it: each
    product costs four matrix products per point, like a log.
    """
    n = log_w.shape[-1]
    kernel = 0.5 * (log_w[:, :, None] - log_w[:, None, :])  # x, then w_i x coth x
    gap = kernel != 0.0
    np.divide(kernel, np.tanh(kernel), out=kernel, where=gap)
    kernel[~gap] = 1.0
    kernel *= weights[:, None, None]
    columns = np.ascontiguousarray(linalg.transpose(v))  # v_i^T
    rows = columns.reshape(-1, n)  # [(i, p), j] = v_i[j, p]

    def hessian(direction):
        middle = (rows @ direction).reshape(v.shape) @ v
        middle *= kernel
        return linalg.sym(rows.T @ (middle @ columns).reshape(-1, n))

    solution = np.zeros_like(rhs)
    residual = rhs.copy()
    search = rhs.copy()
    size = linalg.inner(residual, residual, axes=2)
    stop = size * _NEWTON_RTOL**2
    # In exact arithmetic, conjugate gradients end within the dimension of
    # the symmetric matrices.
    for _ in range(n * (n + 1) // 2):
        if size <= stop:
            break
        image = hessian(search)
        step = size / linalg.inner(search, image, axes=2)
        solution += step * search
        residual -= step * image
        size, previous = linalg.inner(residual, residual, axes=2), size
        search = residual + (size / previous) * search
    return solution


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
        return np.where(linalg.is_singular(eigvals), np.inf, asym)

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
        _, inv_low = _base_frame(base_point, "base point")
        return _trace_product(_congruence(inv_low, tangent_vec_a),
                              _congruence(inv_low, tangent_vec_b))

    def _exp(self, tangent_vec, base_point):
        low, inv_low = _base_frame(base_point, "base point")
        middle = linalg._eig_function(*_frame_eig(inv_low, tangent_vec), np.exp)
        return low @ middle @ linalg.transpose(low)

    def _log(self, point, base_point):
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        """L logm(S) L^T, sum_i log^2 lambda_i(S) and the whitened eigenpairs
        (log w, v) of logm(S), for ``_newton_directions``: one frame, one ``eigh``."""
        low, inv_low = _base_frame(base_point, "base point")
        w, v = _frame_eig(inv_low, _symmetric(point, "point"))
        _require_positive(w, "point")
        log_w = np.log(w)
        log = low @ _spectral(log_w, v) @ linalg.transpose(low)
        return log, linalg.inner(log_w, log_w), log_w, v

    def _newton_directions(self, logs, extras, weights, base_points, gradients):
        """Newton directions of Karcher-flow segments; every Hessian is positive definite.

        In the frame of X = ``base_points[s]`` (X = L L^T), the logs of the
        segment's points are L W_i L^T with W_i = v_i diag(l_i) v_i^T, and
        ``extras[s]`` is ``(l, v)`` as ``_log_and_squared_dist`` returned it
        with those logs. ``_frechet_newton_solve`` solves the Newton system of
        ``1/2 sum_i w_i d^2(., P_i)`` there against L^-1 g L^-T, for g =
        ``gradients[s]``, for the direction D~, and L D~ L^T is the Newton
        direction. Each segment is solved on its own, so its direction does
        not depend on the other segments.

        Returns ``(directions, positive_definite)``, the mask all True.
        """
        directions = np.empty_like(gradients)
        for s, ((log_w, v), weight, base) in enumerate(zip(extras, weights, base_points)):
            low, inv_low = _base_frame(base, "base point")
            whitened = _frechet_newton_solve(
                log_w, v, weight, _congruence(inv_low, gradients[s])
            )
            directions[s] = linalg.sym(low @ whitened @ linalg.transpose(low))
        return directions, np.ones(len(logs), dtype=bool)

    def _squared_dist(self, point_a, point_b):
        _, inv_low = _base_frame(point_a, "point")
        congruent = _congruence(inv_low, _symmetric(point_b, "point"))
        w = np.linalg.eigvalsh(linalg._as_matrix(congruent, "symmetric matrix"))[..., ::-1]
        _require_positive(w, "point")
        log_w = np.log(w)
        return linalg.inner(log_w, log_w)

    def _transport(self, tangent_vec, base_point, direction):
        """V -> E V E^T with E = L expm(S/2) L^-1, X the direction."""
        low, inv_low = _base_frame(base_point, "base point")
        w, v = _frame_eig(inv_low, direction)
        _require_finite_exp(w)
        shifter = low @ _spectral(np.exp(0.5 * w), v) @ inv_low
        return shifter @ tangent_vec @ linalg.transpose(shifter)

    def _transport_to(self, tangent_vec, base_point, end_point):
        """V -> E V E^T with E = L S^1/2 L^-1, X the end point: no log needed."""
        low, inv_low = _base_frame(base_point, "base point")
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
        return self._log_and_squared_dist(point, base_point)[0]

    def _log_and_squared_dist(self, point, base_point):
        """``dexp`` at the base of the chart difference, and its squared
        Frobenius norm, from one eigendecomposition of each operand."""
        w_point, v_point = _spd_eig(point, "point")
        w, v = _spd_eig(base_point, "base point")
        log_w = np.log(w)
        chart_diff = _spectral(np.log(w_point), v_point) - _spectral(log_w, v)
        return self._dexp(chart_diff, log_w, v), linalg.inner(chart_diff, chart_diff, axes=2)

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
