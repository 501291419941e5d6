"""Dense linear-algebra kernels used by the geometry layer.

All functions accept stacked operands with leading batch axes,
``(..., n, n)`` style, and are deterministic: fixed sign conventions make
the output a pure function of the input bits.

Conventions
-----------
* ``sym_eig`` and ``sym_eigvals`` return eigenvalues in descending order;
  each eigenvector's largest-magnitude entry is made positive.
* ``spd_frame`` factors with the lower Cholesky factor ``L``, ``mat = L L^T``.
* ``qr`` forces a positive diagonal on R.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

ATOL_SYM = 1e-10
RTOL_RANK = 1e-10
# Relative eigenvalue gap below which divided differences switch to the
# derivative (Daleckii-Krein formula).
_EIG_GAP_RTOL = 1e-8
# Inverse scaling-and-squaring for the general matrix log: square roots are
# taken until ||A - I||_1 <= _PADE_RADIUS, inside the region where the
# 7-node Pade approximant is exact to unit roundoff (theta_7 = 0.264,
# Higham 2008, ch. 11).
_PADE_RADIUS = 0.25
_MAX_ROOTS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# Denman-Beavers square root: the step after ||X Y - I||_1 <= _SQRT_TOL
# leaves an error of order _SQRT_TOL**2 / 4, below unit roundoff.
_SQRT_TOL = 1e-7
_SQRT_MAX_ITER = 100
# Scaling-and-squaring for the matrix exponential (Higham 2005, Table 2.3):
# theta_m is the largest 1-norm at which the degree-m diagonal Pade
# approximant has backward error below unit roundoff.
_EXP_DEGREES = (3, 5, 7, 9, 13)
_EXP_THETA = np.array(
    [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
     2.097847961257068e0, 5.371920351148152e0]
)
# Coefficients b_0, ..., b_m of the numerator p_m(x) = sum_k b_k x^k.
_EXP_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dimensions, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


def _as_square(a, name="matrix"):
    a = _as_matrix(a, name)
    if a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a


def sym(a):
    """Symmetric part (a + a^T) / 2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def skew(a):
    """Skew part (a - a^T) / 2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - np.swapaxes(a, -1, -2))


def transpose(a):
    return np.swapaxes(np.asarray(a, dtype=float), -1, -2)


def is_symmetric(a, atol=ATOL_SYM):
    a = np.asarray(a, dtype=float)
    return np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-1, -2)) <= atol


def check_symmetric(mat, atol=ATOL_SYM):
    """``mat`` as float64; :class:`DomainError` unless finite and symmetric within ``atol``."""
    mat = _as_square(mat, "symmetric matrix")
    if not np.all(is_symmetric(mat, atol=atol)):
        raise DomainError(f"matrix is not symmetric within {atol}")
    return mat


def sym_eig(mat, atol=ATOL_SYM):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and sign-fixed eigenvector columns, so that
    ``mat == V @ diag(w) @ V.T`` up to round-off.
    """
    w, v = np.linalg.eigh(sym(check_symmetric(mat, atol)))
    w = w[..., ::-1]
    v = v[..., ::-1]
    # Fix each column's sign by its largest-magnitude entry.
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    signs = np.where(lead >= 0.0, 1.0, -1.0)
    return np.ascontiguousarray(w), np.ascontiguousarray(v * signs[..., None, :])


def sym_eigvals(mat, atol=ATOL_SYM):
    """Eigenvalues of a symmetric matrix in descending order, without eigenvectors."""
    return np.linalg.eigvalsh(sym(check_symmetric(mat, atol)))[..., ::-1]


def spd_frame(mat, what="matrix", atol=ATOL_SYM):
    """Cholesky frame ``(L, L^-1)`` of a symmetric positive-definite matrix.

    ``L`` is lower triangular with ``mat == L @ L.T``. Raises
    :class:`DomainError` if ``mat`` is not finite, not symmetric within
    ``atol`` (the factorization alone reads only the lower triangle) or not
    positive definite.
    """
    mat = sym(check_symmetric(mat, atol))
    try:
        low = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise DomainError(f"{what} is not positive definite") from None
    return low, np.linalg.inv(low)


def _exp_pade(a, m):
    """Degree-``m`` diagonal Pade approximant ``(V - U)^-1 (V + U)`` of exp on a stack.

    ``U`` holds the odd and ``V`` the even terms of the numerator; degree 13
    uses Higham's split evaluation with six matrix products.
    """
    b = _EXP_PADE[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
            + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        )
        v = (
            a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
        )
    else:
        powers = [eye, a2]
        for _ in range(m // 2 - 1):
            powers.append(powers[-1] @ a2)
        u = a @ sum(c * p for c, p in zip(b[1::2], powers))
        v = sum(c * p for c, p in zip(b[0::2], powers))
    return np.linalg.solve(v - u, v + u)


def matrix_exp(mat):
    """Matrix exponential by scaling and squaring, with no per-matrix Python loop.

    Each matrix of the stack gets its own Pade degree ``m`` in (3, 5, 7, 9,
    13) and scaling ``s`` from its 1-norm and the ``theta_m`` bounds of
    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the smallest degree
    whose ``theta_m`` covers the norm, else degree 13 on ``A / 2^s`` with
    ``||A||_1 / 2^s <= theta_13``. So a matrix's result does not depend on
    the rest of the batch. All members of one degree are evaluated together
    with stacked products and one batched solve, and only the members with
    squarings left are squared. The refinement of Al-Mohy and Higham, "A new
    scaling and squaring algorithm for the matrix exponential", SIAM J.
    Matrix Anal. Appl. 31 (2009), which bounds ``||A^k||^(1/k)`` to avoid
    overscaling strongly non-normal input, is not applied. Raises
    :class:`DomainError` if any result overflows.
    """
    mat = _as_square(mat)
    n = mat.shape[-1]
    flat = mat.reshape((-1, n, n))
    norms = _norm_1(flat)
    group = np.minimum(np.searchsorted(_EXP_THETA, norms), len(_EXP_DEGREES) - 1)
    out = np.empty_like(flat)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        n_squarings = np.maximum(np.ceil(np.log2(norms / _EXP_THETA[-1])), 0.0).astype(int)
        for g in np.unique(group):
            members = group == g
            scaled = np.ldexp(flat[members], -n_squarings[members, None, None])
            out[members] = _exp_pade(scaled, _EXP_DEGREES[g])
        for step in range(n_squarings.max(initial=0)):
            active = np.flatnonzero(n_squarings > step)
            root = out[active]
            out[active] = root @ root
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix exponential overflows")
    return out.reshape(mat.shape)


def _skew_vec_3x3(rot):
    """Entries of the skew part: equals sin(angle) * axis for a rotation."""
    return 0.5 * np.stack(
        [
            rot[..., 2, 1] - rot[..., 1, 2],
            rot[..., 0, 2] - rot[..., 2, 0],
            rot[..., 1, 0] - rot[..., 0, 1],
        ],
        axis=-1,
    )


def _rotation_axis_angle_3x3(rot):
    """Axis (unit) and angle in [0, pi] of a stacked 3x3 rotation.

    The angle comes from atan2 of the skew and trace parts, well conditioned
    over the whole range. The axis is recovered from the skew part away from
    angle pi and from the symmetric rank-one part near pi, where the skew
    part degenerates.
    """
    rot = np.asarray(rot, dtype=float)
    skew_vec = _skew_vec_3x3(rot)
    sin_theta = np.linalg.norm(skew_vec, axis=-1)
    cos_theta = 0.5 * (np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(sin_theta, cos_theta)

    axis_skew = skew_vec / np.where(sin_theta > 1e-12, sin_theta, 1.0)[..., None]

    # Near pi: (sym(R) - cos * I) / (1 - cos) = axis axis^T.
    denom = np.where(1.0 - cos_theta > 1e-12, 1.0 - cos_theta, 1.0)
    outer = (sym(rot) - cos_theta[..., None, None] * np.eye(3)) / denom[..., None, None]
    mags = np.sqrt(np.clip(np.diagonal(outer, axis1=-2, axis2=-1), 0.0, None))
    lead = np.argmax(mags, axis=-1)
    row = np.take_along_axis(outer, lead[..., None, None], axis=-2)[..., 0, :]
    lead_mag = np.take_along_axis(mags, lead[..., None], axis=-1)
    axis_sym = row / np.where(lead_mag > 0.0, lead_mag, 1.0)
    nrm = np.linalg.norm(axis_sym, axis=-1, keepdims=True)
    axis_sym = axis_sym / np.where(nrm > 0.0, nrm, 1.0)
    # Orient by the skew part while it still carries a sign.
    flip = np.sum(axis_sym * skew_vec, axis=-1, keepdims=True) < 0.0
    axis_sym = np.where(flip, -axis_sym, axis_sym)

    axis = np.where((theta > 0.5 * np.pi)[..., None], axis_sym, axis_skew)
    return axis, theta


def _log_rotation_2x2(rot):
    theta = np.arctan2(rot[..., 1, 0], rot[..., 0, 0])
    zero = np.zeros_like(theta)
    return np.stack(
        [np.stack([zero, -theta], axis=-1), np.stack([theta, zero], axis=-1)], axis=-2
    ), np.abs(theta)


def _log_rotation_3x3(rot):
    axis, theta = _rotation_axis_angle_3x3(rot)
    v = axis * theta[..., None]
    zero = np.zeros_like(theta)
    log = np.stack(
        [
            np.stack([zero, -v[..., 2], v[..., 1]], axis=-1),
            np.stack([v[..., 2], zero, -v[..., 0]], axis=-1),
            np.stack([-v[..., 1], v[..., 0], zero], axis=-1),
        ],
        axis=-2,
    )
    return log, theta


def _is_rotation(mat, atol):
    n = mat.shape[-1]
    ortho = (
        np.max(np.abs(transpose(mat) @ mat - np.eye(n)), axis=(-1, -2)) <= atol
    )
    return ortho & (np.linalg.det(mat) > 0)


def _norm_1(mat):
    """Stacked matrix 1-norm (largest absolute column sum)."""
    return np.abs(mat).sum(axis=-2).max(axis=-1)


def _sqrtm(mat):
    """Principal square roots of a stack ``(k, n, n)``: scaled Denman-Beavers
    iteration (Higham 2008, ch. 6).

    ``X`` tends to ``mat^(1/2)`` and ``Y`` to ``mat^(-1/2)``. A member stops
    one step after ``||X Y - I||_1`` falls to ``_SQRT_TOL``, where that step
    leaves ``X`` exact to round-off. The coupled ``X``/``Y`` form is used, not
    the product form in ``M = X Y``: for eigenvalues near -1 (rotation angles
    near pi) ``M`` is as ill conditioned as ``X`` squared, and inverting it
    lost three orders of magnitude of accuracy on such rotations.
    """
    n = mat.shape[-1]
    eye = np.eye(n)
    x = mat.copy()
    y = np.broadcast_to(eye, mat.shape).copy()
    active = np.arange(len(mat))
    for _ in range(_SQRT_MAX_ITER):
        x_act, y_act = x[active], y[active]
        prod = x_act @ y_act
        delta = _norm_1(prod - eye)
        # Determinant scaling shortens the slow first phase; it is off near
        # convergence, where it would only perturb the quadratic phase.
        _, logdet = np.linalg.slogdet(prod)
        mu = np.where(delta > 1e-2, np.exp(-logdet / (2 * n)), 1.0)[:, None, None]
        x[active] = 0.5 * (mu * x_act + np.linalg.inv(y_act) / mu)
        y[active] = 0.5 * (mu * y_act + np.linalg.inv(x_act) / mu)
        active = active[~(delta <= _SQRT_TOL)]
        if active.size == 0:
            return x
    raise DomainError("matrix square root did not converge")


def _log_general(mat):
    """Principal logarithm of a stack ``(k, n, n)`` by inverse scaling-and-squaring."""
    eigvals = np.linalg.eigvals(mat)
    mags = np.abs(eigvals)
    top = np.max(mags, axis=-1, keepdims=True)
    if np.any(top == 0.0) or np.any(mags <= 1e-12 * top):
        raise DomainError("matrix log of a (numerically) singular matrix")
    on_neg_axis = (eigvals.real < 0) & (np.abs(eigvals.imag) <= 1e-12 * mags)
    if np.any(on_neg_axis):
        raise DomainError(
            "matrix log undefined: eigenvalue on the closed negative real axis"
        )

    eye = np.eye(mat.shape[-1])
    root = mat.copy()
    n_roots = np.zeros(len(mat), dtype=int)
    for _ in range(_MAX_ROOTS + 1):
        far = np.flatnonzero(_norm_1(root - eye) > _PADE_RADIUS)
        if far.size == 0:
            break
        root[far] = _sqrtm(root[far])
        n_roots[far] += 1
    else:
        raise DomainError("matrix log: square roots did not approach the identity")

    # log(I + X) = sum_j w_j (I + t_j X)^-1 X: the Gauss-Legendre rule on
    # int_0^1 (I + tX)^-1 X dt, which is the diagonal Pade approximant.
    x = root - eye
    shifted = eye + _GL_NODES[:, None, None, None] * x
    terms = np.linalg.solve(shifted, np.broadcast_to(x, shifted.shape))
    log = np.tensordot(_GL_WEIGHTS, terms, axes=1)
    return np.ldexp(log, n_roots[:, None, None])


def matrix_log(mat, atol=ATOL_SYM):
    """Principal matrix logarithm.

    Fast paths: symmetric positive definite input goes through ``sym_eig``;
    rotation matrices of size <= 3 use the axis-angle closed form. Any other
    input, a single matrix or a stack, takes one batched inverse
    scaling-and-squaring pass with no per-matrix Python loop: each matrix is
    square-rooted (Denman-Beavers) until ``||A - I||_1 <= 0.25``, then
    ``log(I + X)`` comes from the degree-7 Gauss-Legendre partial-fraction
    Pade approximant and is scaled back by ``2^s`` (Higham, *Functions of
    Matrices*, SIAM 2008, ch. 11; Al-Mohy and Higham, "Improved inverse
    scaling and squaring algorithms for the matrix logarithm", SIAM J. Sci.
    Comput. 34, 2012). Raises :class:`DomainError` if any matrix is singular
    or has spectrum on the closed negative real axis.
    """
    mat = _as_square(mat)
    n = mat.shape[-1]

    if np.all(is_symmetric(mat, atol=atol)):
        w, v = sym_eig(mat, atol=atol)
        if np.any(w <= 0.0):
            raise DomainError("matrix log of a symmetric matrix needs positive eigenvalues")
        return (v * np.log(w)[..., None, :]) @ transpose(v)

    if n <= 3 and np.all(_is_rotation(mat, atol=1e-10)):
        log, theta = _log_rotation_2x2(mat) if n == 2 else _log_rotation_3x3(mat)
        if np.any(theta >= np.pi - 1e-12):
            raise DomainError("matrix log undefined at rotation angle pi")
        return log

    return _log_general(mat.reshape((-1, n, n))).reshape(mat.shape)


def qr(mat, rtol=RTOL_RANK):
    """Thin QR with sign-fixed positive diagonal of R.

    Requires ``cols <= rows`` and full column rank.
    """
    mat = _as_matrix(mat)
    m, n = mat.shape[-2:]
    if n > m:
        raise ShapeError(f"qr needs cols <= rows, got {m}x{n}")
    q, r = np.linalg.qr(mat)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag <= rtol * np.maximum(np.max(diag, axis=-1, keepdims=True), 1e-300)):
        raise DomainError("qr of a rank-deficient matrix")
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
    return q * signs[..., None, :], r * signs[..., :, None]


def svd(mat):
    """Thin singular value decomposition ``mat = U @ diag(s) @ vt``."""
    mat = _as_matrix(mat)
    return np.linalg.svd(mat, full_matrices=False)


def sym_function(mat, fn, atol=ATOL_SYM):
    """Apply a scalar function to a symmetric matrix through its eigenvalues.

    Raises :class:`DomainError` if any result is not finite, e.g. when
    ``fn = np.exp`` overflows.
    """
    w, v = sym_eig(mat, atol=atol)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = (v * fn(w)[..., None, :]) @ transpose(v)
    if not np.all(np.isfinite(out)):
        raise DomainError("symmetric matrix function has non-finite values")
    return out


def sym_function_derivative(mat, direction, fn, dfn, atol=ATOL_SYM):
    """Frechet derivative of a spectral function at a symmetric matrix.

    Daleckii-Krein: in the eigenbasis of ``mat`` the derivative acts entrywise
    by first divided differences of ``fn`` (``dfn`` on near-coincident pairs).
    ``direction`` must be symmetric.
    """
    w, v = sym_eig(mat, atol=atol)
    return eig_function_derivative(w, v, direction, fn, dfn)


def eig_function_derivative(w, v, direction, fn, dfn):
    """:func:`sym_function_derivative` at the matrix ``v @ diag(w) @ v.T``,
    from its eigendecomposition ``(w, v)`` as :func:`sym_eig` returns it."""
    direction = sym(np.asarray(direction, dtype=float))
    coeffs = transpose(v) @ direction @ v
    li = w[..., :, None]
    lj = w[..., None, :]
    gap = li - lj
    scale = np.maximum(np.max(np.abs(w), axis=-1), 1.0)[..., None, None]
    small = np.abs(gap) <= _EIG_GAP_RTOL * scale
    safe_gap = np.where(small, 1.0, gap)
    loewner = np.where(small, dfn(0.5 * (li + lj)), (fn(li) - fn(lj)) / safe_gap)
    return v @ (loewner * coeffs) @ transpose(v)


def sym_sqrt(mat):
    w, v = sym_eig(mat)
    if np.any(w <= 0.0):
        raise DomainError("matrix square root needs positive eigenvalues")
    return (v * np.sqrt(w)[..., None, :]) @ transpose(v)


def sym_inv_sqrt(mat):
    w, v = sym_eig(mat)
    if np.any(w <= 0.0):
        raise DomainError("inverse square root needs positive eigenvalues")
    return (v / np.sqrt(w)[..., None, :]) @ transpose(v)
