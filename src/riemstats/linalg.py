"""Dense linear-algebra kernels used by the geometry layer.

All functions accept stacked operands with leading batch axes,
``(..., n, n)`` style, and are deterministic: fixed sign conventions make
the output a pure function of the input bits.

Conventions
-----------
* ``sym_eig`` and ``sym_eigvals`` return eigenvalues in descending order;
  each eigenvector's largest-magnitude entry is made positive.
* ``spd_frame`` factors with the lower Cholesky factor ``L``, ``mat = L L^T``.
* ``sym_eig`` and ``spd_frame`` check their input and pass its symmetric
  part to ``_sym_eig`` and ``_spd_frame``, which geometry calls directly on
  an operand it has checked at the membership tolerance.
* ``qr`` forces a positive diagonal on R.
* ``matrix_exp`` routes each member of a stack on its own: an exactly skew
  2x2 or 3x3 member takes a closed form (a rotation, or Rodrigues'
  formula), every other one Pade scaling and squaring. Skew members of size
  4 or more stay on Pade, because the one-``eigh`` exponential of Gallier
  and Xu was 47% slower on 200 4x4 members.
* ``matrix_log`` routes each member of a stack on its own and is the one
  place that decides a rotation's cut locus, its ``cut_atol`` keyword.
* Other tolerances are module constants: ``ATOL_SYM`` for a matrix taken
  as symmetric, ``RTOL_RANK`` for the rank test of ``qr``. ``cut_atol`` is a
  keyword because SO(n) and Grassmann cut at different angles.
"""

from __future__ import annotations

import numpy as np

from .errors import CutLocusError, DomainError, ShapeError

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
# A rotation of size >= 4 takes the one-``eigh`` log when every eigenvalue of
# its symmetric part is above this, that is, every angle below
# arccos(-0.9) = 2.69 rad. Nearer pi the factor arccos(c) / sqrt(1 - c^2)
# amplifies the round-off of c (5.5e-4 relative error at pi - 1e-6), where
# the general log keeps 1e-10.
_ROTATION_MIN_COS = -0.9
# Below this 1 - c, arccos(c) / sqrt(1 - c^2) = 1 + (1 - c) / 3 to within 2e-17.
_ROTATION_SERIES_GAP = 1e-8
# A member takes a rotation route of ``matrix_log`` when ||A^T A - I||_F is
# within _ROTATION_ATOL. That route drops the symmetric part of the log,
# which the defect carries, so it also needs the defect to be at most
# _ROUTE_DEFECT_RTOL times ||A - I||_F, about the size of the log near I:
# with the absolute bound alone, the log of I + 2e-11 B (B Gaussian) lost
# half of itself, 55% in 3x3 and 63% in 4x4. A computed rotation has a
# defect of a few round-offs, so it keeps its route down to angles near
# 1e-7; nearer I the general route's log is as accurate.
_ROTATION_ATOL = 1e-10
_ROUTE_DEFECT_RTOL = 1e-8
# The 7-point Gauss-Legendre rule moved to [0, 1]: ``0.5 * (x + 1)`` and
# ``0.5 * w`` for ``x, w = numpy.polynomial.legendre.leggauss(7)``, written
# out so that importing the library does not load ``numpy.polynomial``.
_GL_NODES = np.array([
    0.0254460438286207, 0.12923440720030277, 0.2970774243113014, 0.5,
    0.7029225756886985, 0.8707655927996972, 0.9745539561713793,
])
_GL_WEIGHTS = np.array([
    0.06474248308443487, 0.13985269574463843, 0.19091502525255935, 0.20897959183673465,
    0.19091502525255935, 0.13985269574463843, 0.06474248308443487,
])
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
# Below this angle Rodrigues' coefficients take their two-term series, exact
# to 1e-18: sin(t) / t = 1 - t^2/6 and 2 sin^2(t/2) / t^2 = 1/2 - t^2/24.
_RODRIGUES_SERIES = 1e-4


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
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


_CONTRACTIONS = {1: "...i,...i->...", 2: "...ij,...ij->..."}


def inner(a, b, axes=1):
    """Sum of ``a * b`` over the last ``axes`` axes (1 or 2); leading axes broadcast.

    One ``np.einsum`` contraction, without the ``a * b`` temporary of
    ``np.sum``: on (2000, 6) and (2000, 5, 5) stacks it is 3-4 times faster,
    and it is not slower on one row. Each row is summed by the same kernel
    whatever the stack or the broadcasting, so a batch equals its row-by-row
    loop bit for bit. An unbatched input gives a ``np.float64``.
    """
    return np.einsum(_CONTRACTIONS[axes], a, b)


def norm(a, axes=1):
    """``sqrt(inner(a, a, axes))``: the Euclidean norm, or Frobenius for ``axes=2``."""
    return np.sqrt(inner(a, a, axes))


def check_symmetric(mat):
    """``mat`` as float64; :class:`DomainError` unless finite and, by one flat
    ``max`` over the stack, symmetric within ``ATOL_SYM`` entry for entry."""
    mat = _as_square(mat, "symmetric matrix")
    if not np.abs(mat - np.swapaxes(mat, -1, -2)).max(initial=0.0) <= ATOL_SYM:
        raise DomainError(f"matrix is not symmetric within {ATOL_SYM}")
    return mat


def is_singular(spectrum):
    """Whether a descending spectrum (eigenvalues or singular values) is not
    numerically positive: its last value is within ``n eps`` of the first, for
    ``n`` values, round-off away from zero at any scale."""
    return spectrum[..., -1] <= spectrum.shape[-1] * np.finfo(float).eps * spectrum[..., 0]


def sym_eig(mat):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and sign-fixed eigenvector columns, so that
    ``mat == V @ diag(w) @ V.T`` up to round-off.
    """
    return _sym_eig(sym(check_symmetric(mat)))


def _sym_eig(mat):
    """``sym_eig`` of a finite, exactly symmetric ``mat``, which it does not check."""
    w, v = np.linalg.eigh(mat)
    w = w[..., ::-1]
    v = v[..., ::-1]
    # Fix each column's sign by its largest-magnitude entry.
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    signs = np.where(lead >= 0.0, 1.0, -1.0)
    return np.ascontiguousarray(w), np.ascontiguousarray(v * signs[..., None, :])


def sym_eigvals(mat):
    """Eigenvalues of a symmetric matrix in descending order, without eigenvectors."""
    return np.linalg.eigvalsh(sym(check_symmetric(mat)))[..., ::-1]


def spd_frame(mat, what="matrix"):
    """Cholesky frame ``(L, L^-1)`` of a symmetric positive-definite matrix.

    ``L`` is lower triangular with ``mat == L @ L.T``. Raises
    :class:`DomainError` if ``mat`` is not finite, not symmetric within
    ``ATOL_SYM`` (the factorization alone reads only the lower triangle) or
    not positive definite.
    """
    return _spd_frame(sym(check_symmetric(mat)), what)


def _spd_frame(mat, what):
    """``spd_frame`` of a finite, exactly symmetric ``mat``, which it does not check."""
    try:
        low = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise DomainError(f"{what} is not positive definite") from None
    return low, _lower_inverse(low)


def positive_definite(mat):
    """Mask of the stacked symmetric ``(..., n, n)`` matrices that have a Cholesky factor.

    One stacked factorization; only when it fails are the matrices factored
    one by one to find which. Each answer depends on its own matrix alone.
    """
    try:
        np.linalg.cholesky(mat)
        return np.ones(mat.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        flat = mat.reshape((-1,) + mat.shape[-2:])
        return np.array([_has_cholesky(m) for m in flat], dtype=bool).reshape(mat.shape[:-2])


def _has_cholesky(mat):
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


# Below this many factors ``np.linalg.inv`` is faster than the substitution,
# whose n batched row steps cost a fixed ~5 us each (crossover 30-40 for
# n = 2 to 8; one 5x5 factor: 4.6 us by inv, 24 us by substitution).
_SUBSTITUTION_MIN_STACK = 32


def _lower_inverse(low):
    """Inverse of a stack of lower-triangular matrices with nonzero diagonals.

    Forward substitution against the identity, one row per step and each
    step batched over the stack: row ``i`` of the inverse is
    ``-L[i, :i] X[:i, :i] / L[i, i]`` left of the diagonal and ``1 / L[i, i]``
    on it. On stacks of small factors this is several times faster than the
    general ``np.linalg.inv``, which runs an LU factorization per matrix; on
    a few factors ``np.linalg.inv`` is faster and is used instead.
    """
    if low[..., 0, 0].size < _SUBSTITUTION_MIN_STACK:
        return np.linalg.inv(low)
    recip = 1.0 / np.diagonal(low, axis1=-2, axis2=-1)
    inv = np.zeros_like(low)
    for i in range(low.shape[-1]):
        inv[..., i, :i] = -np.einsum(
            "...j,...jk->...k", low[..., i, :i], inv[..., :i, :i]
        ) * recip[..., i, None]
        inv[..., i, i] = recip[..., i]
    return inv


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


def _exp_skew_2x2(a):
    """Exponentials of a stack of skew 2x2 matrices: rotations by ``a[:, 1, 0]``."""
    theta = a[:, 1, 0]
    cos, sin = np.cos(theta), np.sin(theta)
    out = np.empty_like(a)
    out[:, 0, 0] = out[:, 1, 1] = cos
    out[:, 1, 0] = sin
    out[:, 0, 1] = -sin
    return out


def _exp_skew_3x3(a):
    """Exponentials of a stack of skew 3x3 matrices by Rodrigues' formula,
    ``I + (sin t / t) A + (2 sin^2(t/2) / t^2) A^2`` with ``t = |vee(A)|``."""
    # Entries past 1e154 overflow the angle and A^2: matrix_exp's
    # finiteness check reports that member.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = norm(vee(a))
        series = theta < _RODRIGUES_SERIES
        safe = np.where(series, 1.0, theta)
        half = np.sin(0.5 * safe) / safe
        first = np.sin(safe) / safe
        second = 2.0 * half * half
        if series.any():
            t2 = theta * theta
            first = np.where(series, 1.0 - t2 / 6.0, first)
            second = np.where(series, 0.5 - t2 / 24.0, second)
        return np.eye(3) + first[:, None, None] * a + second[:, None, None] * (a @ a)


def _skew_members(flat):
    """Mask of the exactly skew members of a stack ``(k, n, n)``, or None if none is."""
    # A nonzero first diagonal entry settles a general member in one compare.
    if (flat[:, 0, 0] != 0.0).all():
        return None
    # For finite x and y, x + y == 0 exactly when y == -x exactly.
    skew = ~(flat + np.swapaxes(flat, -1, -2)).reshape(len(flat), -1).any(axis=-1)
    return skew if skew.any() else None


def _exp_scaled_pade(flat):
    """Scaling-and-squaring Pade exponentials of a stack ``(k, n, n)``."""
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
    return out


def matrix_exp(mat):
    """Matrix exponential, with no per-matrix Python loop.

    An exactly skew 2x2 or 3x3 member (``A == -A^T`` entry for entry, as
    ``skew`` builds it) takes a closed form: the rotation by ``A[1, 0]``, or
    Rodrigues' formula (Gallier and Xu, "Computing exponentials of
    skew-symmetric matrices and logarithms of orthogonal matrices", 2002),
    with a series below angle 1e-4. Every other member, skew ones of size 4
    or more included, takes scaling and squaring: it gets its own Pade
    degree ``m`` in (3, 5, 7, 9, 13) and scaling ``s`` from its 1-norm and
    the ``theta_m`` bounds of Higham, "The scaling and squaring method for
    the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005):
    the smallest degree whose ``theta_m`` covers the norm, else degree 13 on
    ``A / 2^s`` with ``||A||_1 / 2^s <= theta_13``. For skew n >= 4 the
    one-``eigh`` exponential of Gallier and Xu was slower (+47% on 200 4x4
    members), so Pade stays there. The route, degree and scaling depend on
    the member alone, so a stack equals its loop bit for bit. All members
    of one degree are evaluated together with stacked products and one
    batched solve, and only the members with squarings left are squared.
    The refinement of Al-Mohy and Higham, "A new scaling and squaring
    algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl. 31
    (2009), which bounds ``||A^k||^(1/k)`` to avoid overscaling strongly
    non-normal input, is not applied. Raises :class:`DomainError` if any
    result is not finite.
    """
    mat = _as_square(mat)
    n = mat.shape[-1]
    flat = mat.reshape((-1, n, n))
    closed = _skew_members(flat) if n in (2, 3) else None
    if closed is None:
        out = _exp_scaled_pade(flat)
    else:
        skew_exp = _exp_skew_2x2 if n == 2 else _exp_skew_3x3
        if closed.all():
            out = skew_exp(flat)
        else:
            out = np.empty_like(flat)
            out[closed] = skew_exp(flat[closed])
            out[~closed] = _exp_scaled_pade(flat[~closed])
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix exponential overflows")
    return out.reshape(mat.shape)


def hat(vec):
    """so(3) matrix of a 3-vector: hat(v) w = v x w."""
    vec = np.asarray(vec, dtype=float)
    zero = np.zeros_like(vec[..., 0])
    return np.stack(
        [
            np.stack([zero, -vec[..., 2], vec[..., 1]], axis=-1),
            np.stack([vec[..., 2], zero, -vec[..., 0]], axis=-1),
            np.stack([-vec[..., 1], vec[..., 0], zero], axis=-1),
        ],
        axis=-2,
    )


def vee(mat):
    """Inverse of :func:`hat` on skew 3x3 matrices."""
    mat = np.asarray(mat, dtype=float)
    return np.stack([mat[..., 2, 1], mat[..., 0, 2], mat[..., 1, 0]], axis=-1)


def _rotation_angle_3x3(rot):
    """``(sin(angle) * axis, cos(angle), angle)`` of 3x3 rotations; the angle,
    atan2 of the skew and trace parts, is well conditioned on all of [0, pi]."""
    skew_vec = vee(skew(rot))
    cos_theta = 0.5 * (np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    return skew_vec, cos_theta, np.arctan2(norm(skew_vec), cos_theta)


def _rotation_axis_angle_3x3(rot):
    """Axis (unit) and angle in [0, pi] of a stacked 3x3 rotation.

    The axis is recovered from the skew part away from angle pi and from the
    symmetric rank-one part near pi, where the skew part degenerates.
    """
    skew_vec, cos_theta, theta = _rotation_angle_3x3(rot)
    sin_theta = norm(skew_vec)
    axis_skew = skew_vec / np.where(sin_theta > 1e-12, sin_theta, 1.0)[..., None]

    # Near pi: (sym(R) - cos * I) / (1 - cos) = axis axis^T.
    denom = np.where(1.0 - cos_theta > 1e-12, 1.0 - cos_theta, 1.0)
    outer = (sym(rot) - cos_theta[..., None, None] * np.eye(3)) / denom[..., None, None]
    mags = np.sqrt(np.clip(np.diagonal(outer, axis1=-2, axis2=-1), 0.0, None))
    lead = np.argmax(mags, axis=-1)
    row = np.take_along_axis(outer, lead[..., None, None], axis=-2)[..., 0, :]
    lead_mag = np.take_along_axis(mags, lead[..., None], axis=-1)
    axis_sym = row / np.where(lead_mag > 0.0, lead_mag, 1.0)
    nrm = norm(axis_sym)[..., None]
    axis_sym = axis_sym / np.where(nrm > 0.0, nrm, 1.0)
    # Orient by the skew part while it still carries a sign.
    flip = inner(axis_sym, skew_vec)[..., None] < 0.0
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
    return hat(axis * theta[..., None]), theta


def rotation_angles(rot):
    """Principal angles of ``(..., n, n)`` rotations, n >= 2, a conjugate pair
    twice, so ``inner(angles, angles) = ||logm(rot)||_F^2``: atan2 for 2x2,
    the axis-angle closed form for 3x3, eigenvalue arguments beyond."""
    rot = np.asarray(rot, dtype=float)
    n = rot.shape[-1]
    if n == 2:
        theta = np.abs(np.arctan2(rot[..., 1, 0], rot[..., 0, 0]))
        return np.stack([theta, theta], axis=-1)
    if n == 3:
        theta = _rotation_angle_3x3(rot)[2]
        return np.stack([theta, theta, np.zeros_like(theta)], axis=-1)
    return np.abs(np.angle(np.linalg.eigvals(rot)))


def _route_defects(flat):
    """Squared Frobenius norms of ``A^T A - I`` and ``A - I`` for each member
    ``A`` of a stack ``(k, n, n)``.

    The stack is copied once entry-major, ``(n, n, k)``, so that every
    product and sum runs over the stack in contiguous rows. On a 2-vCPU Xeon
    VM this took 190 us on 2000 3x3 members and 63 us on 200 4x4, against
    1060 and 150 us for the stacked ``A^T @ A`` with maxima over the two
    short trailing axes, and was no slower on one member.
    """
    n = flat.shape[-1]
    eye = np.eye(n)[:, :, None]
    cols = flat.transpose(1, 2, 0).copy()
    work = np.einsum("mik,mjk->ijk", cols, cols)
    work -= eye
    ortho = np.einsum("ijk,ijk->k", work, work)
    np.subtract(cols, eye, out=work)
    return ortho, np.einsum("ijk,ijk->k", work, work)


def _det(flat):
    """Determinants of a stack ``(k, n, n)``: cofactors for n <= 3, LU beyond.

    The cofactor products run over the whole stack at once, where
    ``np.linalg.det`` factors member by member: 34 against 430 us on 2000
    3x3 members (2-vCPU Xeon VM).
    """
    a = flat.transpose(1, 2, 0)
    if len(a) == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if len(a) == 3:
        return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return np.linalg.det(flat)


def _check_cut(angles, cut_atol):
    if (angles >= np.pi - cut_atol).any():
        raise CutLocusError(f"matrix log undefined: rotation angle within {cut_atol:g} of pi")


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
    """Principal logarithm of a stack ``(k, n, n)`` by inverse scaling-and-squaring.

    The caller has checked that no eigenvalue is zero or on the closed
    negative real axis.
    """
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
    # Summed term by term: ``np.tensordot`` hands the sum to a BLAS product
    # whose rounding depends on the stack size, hence on the rest of the batch.
    log = sum(w * t for w, t in zip(_GL_WEIGHTS, terms))
    return np.ldexp(log, n_roots[:, None, None])


def _log_rotation_eigh(sym_vals, sym_vecs, rot):
    """Principal log of rotations from the eigendecomposition of their symmetric part.

    A rotation R is normal, so sym(R) = W diag(c) W^T commutes with skew(R),
    and on each plane of rotation by theta, c = cos(theta) and skew(R) is
    sin(theta) times the unit generator. So log R = g(sym R) skew(R) with
    g(c) = arccos(c) / sqrt(1 - c^2) (Gallier and Xu, "Computing exponentials
    of skew-symmetric matrices and logarithms of orthogonal matrices", 2002).
    The caller keeps every c above ``_ROTATION_MIN_COS``.
    """
    cos = np.minimum(sym_vals, 1.0)
    gap = 1.0 - cos
    series = gap < _ROTATION_SERIES_GAP
    if series.any():
        exact = np.arccos(cos) / np.sqrt(np.where(series, 1.0, gap * (1.0 + cos)))
        factor = np.where(series, 1.0 + gap / 3.0, exact)
    else:
        factor = np.arccos(cos) / np.sqrt(gap * (1.0 + cos))
    return skew((sym_vecs * factor[..., None, :]) @ transpose(sym_vecs) @ skew(rot))


def matrix_log(mat, cut_atol=1e-12):
    """Principal matrix logarithm; each member of a stack takes its own route.

    A rotation (positive determinant) of size 2 or 3 takes the axis-angle
    closed form, and a larger one whose angles are all below 2.69 rad and
    short of the cut takes ``g(sym R) skew(R)`` from one ``eigh`` of its
    symmetric part. A member counts as orthogonal when the Frobenius norm of
    ``A^T A - I`` is within 1e-10 and also within 1e-8 of that of ``A - I``:
    these routes drop the symmetric part of the log, which that defect
    carries. The two norms come from one pass over the stack, and a
    determinant only where a route needs it. Every remaining
    member takes one batched inverse scaling-and-squaring pass with no
    per-matrix Python loop: each matrix is square-rooted
    (Denman-Beavers) until ``||A - I||_1 <= 0.25``, then ``log(I + X)``
    comes from the degree-7 Gauss-Legendre partial-fraction Pade approximant
    and is scaled back by ``2^s`` (Higham, *Functions of Matrices*, SIAM
    2008, ch. 11; Al-Mohy and Higham, "Improved inverse scaling and squaring
    algorithms for the matrix logarithm", SIAM J. Sci. Comput. 34, 2012).
    The route depends on the member alone, so a stack equals its loop bit
    for bit.

    Raises :class:`CutLocusError` if a rotation's largest angle is within
    ``cut_atol`` of pi; the angle is read from the decomposition its route
    makes anyway (the closed-form angle, the ``eigh`` cosines or the general
    route's eigenvalues). Raises :class:`DomainError` if any other matrix is
    singular or has spectrum on the closed negative real axis, and
    :class:`CutLocusError` if it has an eigenvalue within ``cut_atol`` of
    angle pi: a rotation with noise beyond 1e-10 is such a member.
    """
    mat = _as_square(mat)
    n = mat.shape[-1]
    flat = mat.reshape((-1, n, n))
    out = np.empty_like(flat)
    ortho, gap = _route_defects(flat)
    rot = ortho <= np.minimum(_ROTATION_ATOL**2, _ROUTE_DEFECT_RTOL**2 * gap)
    members = np.flatnonzero(rot)
    rots = flat[members]
    if n in (2, 3) and members.size:
        proper = _det(rots) > 0.0
        if not proper.all():
            rot[members[~proper]] = False
            members, rots = members[proper], rots[proper]
    general = ~rot
    if members.size:
        if n in (2, 3):
            log, angle = (_log_rotation_2x2 if n == 2 else _log_rotation_3x3)(rots)
            _check_cut(angle, cut_atol)
            out[members] = log
        else:
            cos, vecs = np.linalg.eigh(sym(rots))
            # eigh sorts ascending: the smallest cosine is of the largest
            # angle, which must be below 2.69 rad and short of the cut. An
            # orthogonal Q with det -1 has Q x = -x for some unit x, so its
            # smallest cosine is -1: the members that pass are all proper,
            # and only the others need a determinant.
            fast = cos[:, 0] > max(_ROTATION_MIN_COS, -np.cos(cut_atol))
            if not fast.all():
                slow = members[~fast]
                general[slow] = True
                rot[slow] = _det(rots[~fast]) > 0.0
                members, cos, vecs, rots = members[fast], cos[fast], vecs[fast], rots[fast]
            out[members] = _log_rotation_eigh(cos, vecs, rots)
    if general.any():
        rest = flat[general]
        eigvals = np.linalg.eigvals(rest)
        _check_cut(np.abs(np.angle(eigvals[rot[general]])), cut_atol)
        mags = np.abs(eigvals)
        top = np.max(mags, axis=-1, keepdims=True)
        if np.any(top == 0.0) or np.any(mags <= 1e-12 * top):
            raise DomainError("matrix log of a (numerically) singular matrix")
        if np.any((eigvals.real < 0) & (np.abs(eigvals.imag) <= 1e-12 * mags)):
            raise DomainError("matrix log undefined: eigenvalue on the closed negative real axis")
        _check_cut(np.abs(np.angle(eigvals)), cut_atol)
        out[general] = _log_general(rest)
    return out.reshape(mat.shape)


def qr(mat):
    """Thin QR with sign-fixed positive diagonal of R.

    Requires ``cols <= rows`` and full column rank.
    """
    mat = _as_matrix(mat)
    m, n = mat.shape[-2:]
    if n > m:
        raise ShapeError(f"qr needs cols <= rows, got {m}x{n}")
    q, r = np.linalg.qr(mat)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.any(diag <= RTOL_RANK * np.maximum(np.max(diag, axis=-1, keepdims=True), 1e-300)):
        raise DomainError("qr of a rank-deficient matrix")
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
    return q * signs[..., None, :], r * signs[..., :, None]


def svd(mat):
    """Thin singular value decomposition ``mat = U @ diag(s) @ vt``."""
    mat = _as_matrix(mat)
    return np.linalg.svd(mat, full_matrices=False)


def sym_function(mat, fn):
    """Apply a scalar function to a symmetric matrix through its eigenvalues.

    Raises :class:`DomainError` if any result is not finite, e.g. when
    ``fn = np.exp`` overflows.
    """
    return _eig_function(*sym_eig(mat), fn)


def _eig_function(w, v, fn):
    """``v diag(fn(w)) v^T`` from ``sym_eig``'s ``(w, v)``; DomainError unless finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = (v * fn(w)[..., None, :]) @ transpose(v)
    if not np.all(np.isfinite(out)):
        raise DomainError("symmetric matrix function has non-finite values")
    return out


def eig_function_derivative(w, v, direction, fn, dfn):
    """Frechet derivative of a spectral function at the symmetric matrix
    ``v @ diag(w) @ v.T``, from its eigendecomposition ``(w, v)`` as
    :func:`sym_eig` returns it.

    Daleckii-Krein: in the eigenbasis the derivative acts entrywise by first
    divided differences of ``fn`` (``dfn`` on near-coincident pairs).
    ``direction`` must be symmetric.
    """
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
