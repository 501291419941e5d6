import warnings

import numpy as np
import pytest
import scipy.linalg

from riemstats import linalg
from riemstats.errors import DomainError, ShapeError


def _rodrigues(axis, angle):
    """Independent closed form for a rotation about a unit axis."""
    x, y, z = axis
    skew = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * skew + (1.0 - np.cos(angle)) * (skew @ skew)


class TestSymEig:
    def test_identity(self):
        w, v = linalg.sym_eig(np.eye(3))
        np.testing.assert_array_equal(w, np.ones(3))
        np.testing.assert_allclose((v * w) @ v.T, np.eye(3), atol=1e-15)

    def test_diagonal_sorted_descending(self):
        w, v = linalg.sym_eig(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(w, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    def test_random_symmetric_reconstruction(self):
        rng = np.random.default_rng(0)
        mat = linalg.sym(rng.standard_normal((5, 5)))
        w, v = linalg.sym_eig(mat)
        np.testing.assert_allclose((v * w) @ v.T, mat, atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-10)
        assert np.all(np.diff(w) <= 0)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(1)
        mat = linalg.sym(rng.standard_normal((6, 4, 4)))
        w1, v1 = linalg.sym_eig(mat)
        w2, v2 = linalg.sym_eig(mat.copy())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(v1, v2)
        lead = np.take_along_axis(v1, np.argmax(np.abs(v1), axis=-2)[..., None, :], axis=-2)
        assert np.all(lead >= 0)

    def test_errors(self):
        with pytest.raises(ShapeError):
            linalg.sym_eig(np.ones((2, 3)))
        with pytest.raises(DomainError):
            linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_array_equal(linalg.matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.matrix_exp(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1.0 / np.e]), rtol=1e-15)

    def test_skew_matches_rodrigues(self):
        angle = np.pi / 3.0
        axis = np.array([1.0, 2.0, -0.5])
        axis = axis / np.linalg.norm(axis)
        x, y, z = axis * angle
        skew = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        np.testing.assert_allclose(linalg.matrix_exp(skew), _rodrigues(axis, angle), atol=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            linalg.matrix_exp(np.ones((2, 3)))


class TestMatrixLog:
    def test_identity(self):
        np.testing.assert_allclose(linalg.matrix_log(np.eye(4)), np.zeros((4, 4)), atol=1e-15)

    def test_diagonal(self):
        out = linalg.matrix_log(np.diag([np.e, 1.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_rotation_z_quarter_turn(self):
        rot = _rodrigues(np.array([0.0, 0.0, 1.0]), np.pi / 2)
        log = linalg.matrix_log(rot)
        assert log[0, 1] == pytest.approx(-np.pi / 2, abs=1e-14)
        np.testing.assert_allclose(log, -log.T, atol=1e-15)
        np.testing.assert_allclose(linalg.matrix_exp(log), rot, atol=1e-14)

    def test_spd_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            spd = linalg.sym_function(linalg.sym(rng.standard_normal((4, 4))), np.exp)
            log = linalg.matrix_log(spd)
            np.testing.assert_allclose(
                linalg.matrix_exp(log), spd, rtol=1e-8, atol=1e-8 * np.max(np.abs(spd))
            )

    def test_general_round_trip(self):
        rng = np.random.default_rng(3)
        mat = 0.5 * rng.standard_normal((3, 3))
        np.testing.assert_allclose(linalg.matrix_log(linalg.matrix_exp(mat)), mat, atol=1e-10)

    def test_negative_spectrum_raises(self):
        with pytest.raises(DomainError):
            linalg.matrix_log(np.diag([-1.0, 2.0]))
        with pytest.raises(DomainError):
            linalg.matrix_log(_rodrigues(np.array([0.0, 0.0, 1.0]), np.pi))

    def test_singular_raises(self):
        with pytest.raises(DomainError):
            linalg.matrix_log(np.zeros((2, 2)))


def _rotations(rng, count, n, max_angle=0.9 * np.pi):
    """Rotations Q diag(R(t_1), ..., R(t_m), [1]) Q^T with angles t_i < max_angle.

    The bound keeps the log well conditioned: at angle pi - d its condition
    number is about pi / d, and scipy's ``logm`` is itself off by about
    eps * pi / d there (see ``test_near_pi_matches_high_precision_log``).
    """
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    blocks = np.zeros((count, n, n))
    if n % 2:
        blocks[:, -1, -1] = 1.0
    for j in range(n // 2):
        angle = rng.uniform(0.0, max_angle, count)
        c, s = np.cos(angle), np.sin(angle)
        blocks[:, 2 * j, 2 * j], blocks[:, 2 * j, 2 * j + 1] = c, -s
        blocks[:, 2 * j + 1, 2 * j], blocks[:, 2 * j + 1, 2 * j + 1] = s, c
    return q @ blocks @ np.swapaxes(q, -1, -2)


def _general(rng, count, n):
    """Invertible matrices expm(B) with Gaussian B: a real principal log exists."""
    return scipy.linalg.expm(0.6 * rng.standard_normal((count, n, n)))


def _batch(name):
    rng = np.random.default_rng(11)
    if name == "so4":
        return _rotations(rng, 60, 4)
    if name == "so5_repeated_angle":
        rots = _rotations(rng, 60, 5)
        q = _rotations(rng, 1, 5)[0]
        c, s = np.cos(1.1), np.sin(1.1)
        block = np.array([[c, -s], [s, c]])
        rots[7] = q @ scipy.linalg.block_diag(block, block, 1.0) @ q.T
        return rots
    if name == "gl3":
        return _general(rng, 60, 3)
    # Stacked (2, 3, 4, 4): rotations and general matrices in one call.
    return np.concatenate([_rotations(rng, 3, 4), _general(rng, 3, 4)]).reshape(2, 3, 4, 4)


def _rel_err(out, ref):
    return np.max(
        np.linalg.norm(out - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    )


BATCHES = ["so4", "so5_repeated_angle", "gl3", "stacked"]


class TestBatchedMatrixLog:
    @pytest.mark.parametrize("name", BATCHES)
    def test_matches_scipy_logm(self, name):
        mats = _batch(name)
        out = linalg.matrix_log(mats)
        assert out.shape == mats.shape
        flat = mats.reshape(-1, *mats.shape[-2:])
        ref = np.stack([scipy.linalg.logm(m) for m in flat]).reshape(mats.shape)
        assert np.max(np.abs(ref.imag)) <= 1e-12
        assert _rel_err(out, ref.real) <= 1e-12

    @pytest.mark.parametrize("name", BATCHES)
    def test_exp_of_log_round_trip(self, name):
        mats = _batch(name)
        back = linalg.matrix_exp(linalg.matrix_log(mats))
        np.testing.assert_allclose(back, mats, rtol=0.0, atol=1e-12 * np.max(np.abs(mats)))

    @pytest.mark.parametrize("name", BATCHES)
    def test_batch_equals_loop(self, name):
        mats = _batch(name)
        flat = mats.reshape(-1, *mats.shape[-2:])
        loop = np.stack([linalg.matrix_log(m) for m in flat]).reshape(mats.shape)
        np.testing.assert_allclose(linalg.matrix_log(mats), loop, rtol=0.0, atol=1e-12)

    def test_near_pi_matches_high_precision_log(self):
        """Within the conditioning limit eps * pi / d at rotation angle pi - d."""
        mpmath = pytest.importorskip("mpmath")
        gaps = np.array([1e-2, 1e-4, 1e-6])
        rng = np.random.default_rng(12)
        q = _rotations(rng, len(gaps), 4)
        blocks = np.zeros((len(gaps), 4, 4))
        for i, angle in enumerate(np.pi - gaps):
            c, s = np.cos(angle), np.sin(angle)
            blocks[i, :2, :2] = [[c, -s], [s, c]]
            blocks[i, 2:, 2:] = [[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]
        rots = q @ blocks @ np.swapaxes(q, -1, -2)
        out = linalg.matrix_log(rots)
        for rot, log, gap in zip(rots, out, gaps):
            with mpmath.workdps(50):
                vals, vecs = mpmath.eig(mpmath.matrix(rot.tolist()))
                exact = vecs * mpmath.diag([mpmath.log(v) for v in vals]) * mpmath.inverse(vecs)
                exact = np.array([[float(mpmath.re(exact[i, j])) for j in range(4)] for i in range(4)])
            assert _rel_err(log, exact) <= np.finfo(float).eps * np.pi / gap

    def test_one_singular_member_raises(self):
        mats = _general(np.random.default_rng(13), 20, 3)
        mats[5] = mats[5] @ np.diag([1.0, 1.0, 0.0])
        with pytest.raises(DomainError, match="singular"):
            linalg.matrix_log(mats)

    def test_one_member_on_negative_axis_raises(self):
        rng = np.random.default_rng(14)
        mats = _general(rng, 20, 3)
        basis = rng.standard_normal((3, 3))
        mats[9] = basis @ np.diag([-2.0, 1.0, 3.0]) @ np.linalg.inv(basis)
        with pytest.raises(DomainError, match="negative real axis"):
            linalg.matrix_log(mats)

    def test_unconverged_square_root_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SQRT_MAX_ITER", 1)
        with pytest.raises(DomainError, match="did not converge"):
            linalg.matrix_log(_general(np.random.default_rng(15), 5, 3))

    def test_no_per_matrix_logm(self, monkeypatch):
        """Large batches must not fall back to a per-matrix scipy loop."""

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg.logm called")

        monkeypatch.setattr(scipy.linalg, "logm", forbidden)
        rng = np.random.default_rng(16)
        for mats in (_rotations(rng, 200, 4), _general(rng, 200, 3)):
            log = linalg.matrix_log(mats)
            assert log.shape == mats.shape and np.all(np.isfinite(log))


def _se3_algebra(rng, count):
    """Homogeneous 4x4 elements of se(3): skew rotation block, translation column."""
    out = np.zeros((count, 4, 4))
    out[:, :3, :3] = linalg.skew(rng.standard_normal((count, 3, 3)))
    out[:, :3, 3] = rng.standard_normal((count, 3))
    return out


def _exp_batch(name):
    """Seeded exp inputs whose 1-norms span several Pade degrees and scalings."""
    rng = np.random.default_rng(21)
    if name == "so3":
        return 1.5 * linalg.skew(rng.standard_normal((2000, 3, 3)))
    if name == "so4":
        return 1.5 * linalg.skew(rng.standard_normal((200, 4, 4)))
    if name == "gl3":
        # 1-norms from about 1e-3 to 3: every Pade degree, no scaling.
        return np.geomspace(1e-3, 0.6, 200)[:, None, None] * rng.standard_normal((200, 3, 3))
    if name == "se3":
        return _se3_algebra(rng, 200)
    # Stacked (2, 3, 4, 4): so(4), gl(4) and se(3) members in one call.
    return np.concatenate(
        [1.5 * linalg.skew(rng.standard_normal((2, 4, 4))),
         0.6 * rng.standard_normal((2, 4, 4)),
         _se3_algebra(rng, 2)]
    ).reshape(2, 3, 4, 4)


EXP_BATCHES = ["so3", "so4", "gl3", "se3", "stacked"]


class TestBatchedMatrixExp:
    @pytest.mark.parametrize("name", EXP_BATCHES)
    def test_matches_scipy_expm(self, name):
        """The largest difference, about 5e-14 on so(3), is scipy's own error:
        the kernel is within 4e-16 of a 40-digit exponential there."""
        mats = _exp_batch(name)
        out = linalg.matrix_exp(mats)
        assert out.shape == mats.shape
        assert _rel_err(out, scipy.linalg.expm(mats)) <= 1e-13

    @pytest.mark.parametrize("name", EXP_BATCHES)
    def test_batch_equals_loop(self, name):
        mats = _exp_batch(name)
        flat = mats.reshape(-1, *mats.shape[-2:])
        loop = np.stack([linalg.matrix_exp(m) for m in flat]).reshape(mats.shape)
        assert _rel_err(linalg.matrix_exp(mats), loop) <= 1e-13

    def test_scaled_members_match_high_precision_exp(self):
        """GL(3) members with 1-norms 4 to 16, which take 0 to 2 squarings.

        scipy's ``expm`` differs from the 40-digit exponential by up to about
        5e-13 on such matrices, so they are checked against mpmath instead.
        """
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        mats = rng.standard_normal((8, 3, 3))
        mats *= np.linspace(4.0, 16.0, 8)[:, None, None] / linalg._norm_1(mats)[:, None, None]
        out = linalg.matrix_exp(mats)
        for mat, exp in zip(mats, out):
            with mpmath.workdps(40):
                exact = mpmath.expm(mpmath.matrix(mat.tolist()))
                exact = np.array([[float(exact[i, j]) for j in range(3)] for i in range(3)])
            assert _rel_err(exp, exact) <= 1e-14

    def test_overflowing_member_raises_without_warnings(self):
        mats = _exp_batch("gl3")
        mats[5] = np.diag([800.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                linalg.matrix_exp(mats)

    def test_no_per_matrix_expm(self, monkeypatch):
        """The kernel must not hand the batch to scipy's per-matrix loop."""

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        mats = [_exp_batch(name) for name in EXP_BATCHES]
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        for mat in mats:
            out = linalg.matrix_exp(mat)
            assert out.shape == mat.shape and np.all(np.isfinite(out))


class TestQR:
    def test_orthonormal_input(self):
        q_in = _rodrigues(np.array([0.0, 1.0, 0.0]), 0.3)
        q, r = linalg.qr(q_in)
        np.testing.assert_allclose(q, q_in, atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_column_scaling(self):
        q, r = linalg.qr(np.array([[2.0], [0.0], [0.0]]))
        np.testing.assert_allclose(q, [[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(r, [[2.0]])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((4, 2))
        q, r = linalg.qr(mat)
        np.testing.assert_allclose(q @ r, mat, atol=1e-10)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)
        assert np.all(np.diagonal(r) > 0)

    def test_rank_deficient_raises(self):
        with pytest.raises(DomainError):
            linalg.qr(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    def test_wide_raises(self):
        with pytest.raises(ShapeError):
            linalg.qr(np.ones((2, 3)))


class TestSVD:
    def test_identity(self):
        _, s, _ = linalg.svd(np.eye(3))
        np.testing.assert_array_equal(s, np.ones(3))

    def test_diagonal(self):
        _, s, _ = linalg.svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(s, [3.0, 2.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((3, 4))
        u, s, vt = linalg.svd(mat)
        np.testing.assert_allclose((u * s) @ vt, mat, atol=1e-10)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


class TestSpectralFunctions:
    def test_sym_function_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        base = linalg.sym_function(linalg.sym(rng.standard_normal((3, 3))), np.exp)
        direction = linalg.sym(rng.standard_normal((3, 3)))
        h = 1e-6
        fd = (linalg.sym_function(base + h * direction, np.log)
              - linalg.sym_function(base - h * direction, np.log)) / (2 * h)
        analytic = linalg.sym_function_derivative(base, direction, np.log, lambda x: 1.0 / x)
        np.testing.assert_allclose(analytic, fd, atol=1e-7)

    def test_sqrt_inverse_sqrt(self):
        rng = np.random.default_rng(7)
        spd = linalg.sym_function(linalg.sym(rng.standard_normal((4, 4))), np.exp)
        root = linalg.sym_sqrt(spd)
        inv_root = linalg.sym_inv_sqrt(spd)
        np.testing.assert_allclose(root @ root, spd, atol=1e-10)
        np.testing.assert_allclose(root @ inv_root, np.eye(4), atol=1e-10)

    def test_eig_function_derivative_matches_sym_function_derivative(self):
        rng = np.random.default_rng(8)
        base = linalg.sym_function(linalg.sym(rng.standard_normal((5, 3, 3))), np.exp)
        direction = linalg.sym(rng.standard_normal((5, 3, 3)))
        w, v = linalg.sym_eig(base)
        np.testing.assert_array_equal(
            linalg.eig_function_derivative(w, v, direction, np.log, lambda x: 1.0 / x),
            linalg.sym_function_derivative(base, direction, np.log, lambda x: 1.0 / x),
        )


def _spd_stack(rng, n_matrices, n):
    return linalg.sym_function(linalg.sym(rng.standard_normal((n_matrices, n, n))), np.exp)


class TestSPDKernels:
    def test_frame_factors_the_matrix(self):
        spd = _spd_stack(np.random.default_rng(9), 6, 4)
        low, inv_low = linalg.spd_frame(spd)
        np.testing.assert_array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ np.swapaxes(low, -1, -2), spd, atol=1e-12)
        np.testing.assert_allclose(low @ inv_low, np.broadcast_to(np.eye(4), spd.shape), atol=1e-12)

    def test_eigvals_match_sym_eig(self):
        spd = _spd_stack(np.random.default_rng(10), 6, 4)
        np.testing.assert_allclose(linalg.sym_eigvals(spd), linalg.sym_eig(spd)[0], rtol=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel", [linalg.sym_eigvals, linalg.spd_frame])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_domain_error(self, kernel, bad):
        spd = _spd_stack(np.random.default_rng(11), 3, 3)
        spd[1, 0, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            kernel(spd)

    @pytest.mark.parametrize("kernel", [linalg.sym_eigvals, linalg.spd_frame])
    def test_non_symmetric_raises_domain_error(self, kernel):
        # The Cholesky factorization reads only the lower triangle.
        mat = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(DomainError, match="not symmetric within 1e-10"):
            kernel(mat)

    def test_frame_of_non_positive_definite_raises_domain_error(self):
        with pytest.raises(DomainError, match="base point is not positive definite"):
            linalg.spd_frame(np.diag([1.0, 0.0, 2.0]), "base point")
        with pytest.raises(DomainError, match="matrix is not positive definite"):
            linalg.spd_frame(np.stack([np.eye(2), -np.eye(2)]))
