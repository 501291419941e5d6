import warnings

import numpy as np
import pytest
import scipy.linalg

from riemstats import linalg
from riemstats.errors import CutLocusError, DomainError, ShapeError


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


def _wide_rotations(rng, count, n):
    """Rotations with one angle in [2.75, 3.0] rad, past the one-``eigh`` path,
    and one in [0, 2] rad."""
    blocks = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    for j, angle in enumerate([rng.uniform(2.75, 3.0, count), rng.uniform(0.0, 2.0, count)]):
        c, s = np.cos(angle), np.sin(angle)
        blocks[:, 2 * j, 2 * j], blocks[:, 2 * j, 2 * j + 1] = c, -s
        blocks[:, 2 * j + 1, 2 * j], blocks[:, 2 * j + 1, 2 * j + 1] = s, c
    q = _rotations(rng, count, n)
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
    def test_quadrature_rule_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_array_equal(linalg._GL_NODES, 0.5 * (nodes + 1.0))
        np.testing.assert_array_equal(linalg._GL_WEIGHTS, 0.5 * weights)

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_mixed_stack_routes_each_member(self, n, monkeypatch):
        """Rotations with every angle below 2.69 rad take the one-``eigh`` log;
        wider rotations and general matrices go to ``_log_general`` in one batch.
        Each member gets its element-wise bits, and every path matches scipy."""
        rng = np.random.default_rng(17)
        near = _rotations(rng, 6, n, max_angle=2.6)
        mats = np.concatenate([near, _wide_rotations(rng, 4, n), _general(rng, 4, n)])
        mats = mats[rng.permutation(len(mats))]
        general_log = linalg._log_general
        batches = []

        def counting(flat):
            batches.append(len(flat))
            return general_log(flat)

        monkeypatch.setattr(linalg, "_log_general", counting)
        out = linalg.matrix_log(mats)
        assert batches == [8]
        loop = np.stack([linalg.matrix_log(m) for m in mats])
        np.testing.assert_array_equal(out, loop)
        ref = np.stack([scipy.linalg.logm(m) for m in mats])
        assert np.max(np.abs(ref.imag)) <= 1e-12
        assert _rel_err(out, ref.real) <= 1e-12

    def test_3x3_stack_routes_each_member(self):
        """One general matrix among 3x3 rotations used to send the whole stack
        to ``_log_general``; each member now takes its own route."""
        rng = np.random.default_rng(19)
        mats = _rotations(rng, 6, 3)
        mats[2] = _general(rng, 1, 3)[0]
        loop = np.stack([linalg.matrix_log(m) for m in mats])
        np.testing.assert_array_equal(linalg.matrix_log(mats), loop)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rotation_angles_give_the_log_norm(self, n):
        rots = _rotations(np.random.default_rng(20), 8, n)
        angles = linalg.rotation_angles(rots)
        assert angles.shape == (8, n)
        np.testing.assert_allclose(
            linalg.inner(angles, angles), linalg.norm(linalg.matrix_log(rots), axes=2) ** 2,
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cut_tolerance_is_a_keyword(self, n):
        """A rotation by pi - 1e-7 has a log at the default tolerance, 1e-12,
        accurate to its conditioning eps * pi / 1e-7, and raises CutLocusError
        at 1e-6."""
        rot = np.eye(n)
        c, s = np.cos(np.pi - 1e-7), np.sin(np.pi - 1e-7)
        rot[:2, :2] = [[c, -s], [s, c]]
        assert linalg.matrix_log(rot)[1, 0] == pytest.approx(np.pi - 1e-7, rel=1e-8)
        with pytest.raises(CutLocusError):
            linalg.matrix_log(rot, cut_atol=1e-6)

    def test_rotation_log_near_identity(self):
        """The series branch of arccos(c) / sqrt(1 - c^2) near c = 1."""
        rng = np.random.default_rng(18)
        q = _rotations(rng, 3, 4)
        algebra = np.zeros((3, 4, 4))
        for i, angles in enumerate([(1e-9, 0.0), (1e-5, 2e-10), (1e-4, 0.3)]):
            for j, angle in enumerate(angles):
                algebra[i, 2 * j + 1, 2 * j], algebra[i, 2 * j, 2 * j + 1] = angle, -angle
        rots = q @ scipy.linalg.expm(algebra) @ np.swapaxes(q, -1, -2)
        exact = q @ algebra @ np.swapaxes(q, -1, -2)
        np.testing.assert_allclose(linalg.matrix_log(rots), exact, rtol=0.0, atol=1e-15)

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
    def test_eig_function_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        base = linalg.sym_function(linalg.sym(rng.standard_normal((3, 3))), np.exp)
        direction = linalg.sym(rng.standard_normal((3, 3)))
        h = 1e-6
        fd = (linalg.sym_function(base + h * direction, np.log)
              - linalg.sym_function(base - h * direction, np.log)) / (2 * h)
        analytic = linalg.eig_function_derivative(
            *linalg.sym_eig(base), direction, np.log, lambda x: 1.0 / x
        )
        np.testing.assert_allclose(analytic, fd, atol=1e-7)


def _spd_stack(rng, n_matrices, n):
    return linalg.sym_function(linalg.sym(rng.standard_normal((n_matrices, n, n))), np.exp)


class TestSPDKernels:
    def test_frame_factors_the_matrix(self):
        spd = _spd_stack(np.random.default_rng(9), 6, 4)
        low, inv_low = linalg.spd_frame(spd)
        np.testing.assert_array_equal(low, np.tril(low))
        np.testing.assert_allclose(low @ np.swapaxes(low, -1, -2), spd, atol=1e-12)
        np.testing.assert_allclose(low @ inv_low, np.broadcast_to(np.eye(4), spd.shape), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize(
        "stack, substitution",
        [((), False), ((31,), False), ((32,), True), ((50,), True), ((2, 25), True)],
    )
    def test_frame_inverse_by_stack_size(self, n, stack, substitution, monkeypatch):
        """A few factors go to ``np.linalg.inv``; from 32 on, forward substitution."""
        size = int(np.prod(stack))
        spd = _spd_stack(np.random.default_rng(12), size, n).reshape(stack + (n, n))
        expected = np.linalg.inv(np.linalg.cholesky(spd))
        plain_inv, inv_calls = np.linalg.inv, []

        def inv(mat):
            inv_calls.append(mat.shape)
            return plain_inv(mat)

        monkeypatch.setattr(np.linalg, "inv", inv)
        low, inv_low = linalg.spd_frame(spd)
        assert inv_calls == ([] if substitution else [spd.shape])
        # LAPACK's LU leaves round-off above the diagonal; substitution none.
        upper = np.triu(inv_low, 1)
        np.testing.assert_allclose(upper, 0.0, atol=0.0 if substitution else 1e-15)
        np.testing.assert_allclose(inv_low, expected, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(low @ inv_low, np.broadcast_to(np.eye(n), spd.shape), atol=1e-13)

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


class TestInnerKernel:
    @pytest.mark.parametrize("axes", [1, 2])
    @pytest.mark.parametrize("size", [1, 7, 3000])
    def test_batch_equals_loop_bit_for_bit(self, axes, size):
        rng = np.random.default_rng(13 + size)
        shape = (6,) if axes == 1 else (5, 4)
        a = rng.standard_normal((size,) + shape)
        b = rng.standard_normal((size,) + shape)
        base = rng.standard_normal(shape)
        np.testing.assert_array_equal(
            linalg.inner(a, b, axes), [linalg.inner(x, y, axes) for x, y in zip(a, b)]
        )
        np.testing.assert_array_equal(
            linalg.inner(base, b, axes), [linalg.inner(base, y, axes) for y in b]
        )
        np.testing.assert_array_equal(
            linalg.inner(base, b, axes), linalg.inner(np.broadcast_to(base, b.shape).copy(), b, axes)
        )
        np.testing.assert_array_equal(
            linalg.norm(a, axes), [linalg.norm(x, axes) for x in a]
        )

    @pytest.mark.parametrize("axes", [1, 2])
    def test_matches_sum_of_products(self, axes):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((2, 40, 3, 5))
        summed = tuple(range(-axes, 0))
        np.testing.assert_allclose(
            linalg.inner(a, b, axes), np.sum(a * b, axis=summed), rtol=1e-13, atol=1e-14
        )
        np.testing.assert_allclose(
            linalg.norm(a, axes), np.linalg.norm(a, axis=summed), rtol=1e-14
        )

    @pytest.mark.parametrize("axes, shape", [(1, (6,)), (2, (3, 3))])
    def test_unbatched_input_gives_a_float64(self, axes, shape):
        # As ``np.sum`` does: callers use the result as a scalar.
        a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        assert type(linalg.inner(a, a, axes)) is np.float64
        assert type(linalg.norm(a, axes)) is np.float64


class TestPositiveDefinite:
    def test_mask_marks_each_matrix_on_its_own(self):
        stack = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0]), 2.0 * np.eye(3), np.zeros((3, 3))])
        np.testing.assert_array_equal(linalg.positive_definite(stack), [True, False, True, False])
        np.testing.assert_array_equal(linalg.positive_definite(stack[::2]), [True, True])
        assert linalg.positive_definite(stack.reshape(2, 2, 3, 3)).shape == (2, 2)


# Angles of the closed-form skew exponentials: both sides of the series
# switch at 1e-4, pi and its neighbour, and angles past 2 pi.
SKEW_ANGLES = [0.0, 1e-12, 1e-6, 1e-3, 1.0, np.pi - 1e-9, np.pi, 2.0 * np.pi + 0.3, 12.0]


def _skew_member(n, angle):
    """An exactly skew n x n matrix, n = 2 or 3, generating a rotation by ``angle``."""
    if n == 2:
        return np.array([[0.0, -angle], [angle, 0.0]])
    return linalg.hat(angle * np.array([0.48, -0.6, 0.64]))


def _mp_matrix(mpmath, mat, fn):
    with mpmath.workdps(40):
        exact = fn(mpmath.matrix(mat.tolist()))
        n = mat.shape[-1]
        return np.array([[float(mpmath.re(exact[i, j])) for j in range(n)] for i in range(n)])


class TestSkewExp:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("angle", SKEW_ANGLES)
    def test_closed_form_matches_high_precision_exp(self, n, angle):
        """The 2x2 rotation and Rodrigues' formula are within 1e-14 of a
        40-digit exponential and orthogonal to 4 eps."""
        mpmath = pytest.importorskip("mpmath")
        mat = _skew_member(n, angle)
        out = linalg.matrix_exp(mat)
        assert _rel_err(out, _mp_matrix(mpmath, mat, mpmath.expm)) <= 1e-14
        assert np.linalg.norm(out.T @ out - np.eye(n)) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_stack_equals_its_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(23)
        scales = np.geomspace(1e-8, 14.0, 6)[:, None, None]
        skew = scales * linalg.skew(rng.standard_normal((6, n, n)))
        general = 0.8 * rng.standard_normal((5, n, n))
        mats = np.concatenate([skew, general, np.zeros((1, n, n))])
        mats = mats[rng.permutation(len(mats))].reshape(3, 4, n, n)
        loop = np.stack([linalg.matrix_exp(m) for m in mats.reshape(-1, n, n)])
        np.testing.assert_array_equal(linalg.matrix_exp(mats), loop.reshape(mats.shape))

    def test_skew_2x2_and_3x3_members_skip_pade(self, monkeypatch):
        """Exactly skew 2x2 and 3x3 members never reach ``_exp_pade``; any
        other member, a skew 4x4 one included, still does."""
        rng = np.random.default_rng(24)
        skew = {n: linalg.skew(rng.standard_normal((50, n, n))) for n in (2, 3, 4)}
        pade = linalg._exp_pade

        def forbidden(a, m):
            raise AssertionError("_exp_pade called")

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_exp_pade", forbidden)
            for n in (2, 3):
                assert linalg.matrix_exp(skew[n]).shape == (50, n, n)
                assert linalg.matrix_exp(skew[n][0]).shape == (n, n)
        members = []

        def counting(a, m):
            members.append(len(a))
            return pade(a, m)

        monkeypatch.setattr(linalg, "_exp_pade", counting)
        linalg.matrix_exp(np.concatenate([skew[3][:5], 0.5 * rng.standard_normal((1, 3, 3))]))
        assert sum(members) == 1
        members.clear()
        linalg.matrix_exp(skew[4])
        assert sum(members) == 50


    def test_overflowing_skew_member_raises_without_warnings(self):
        mats = linalg.hat(np.array([[1e20, 0.0, 0.0], [1e200, 0.0, 0.0]]))
        rot = linalg.matrix_exp(mats[0])
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=4.0 * np.finfo(float).eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                linalg.matrix_exp(mats)


class TestNearRotationLog:
    @pytest.mark.parametrize("n", [3, 4])
    def test_near_identity_matches_high_precision_logm(self, n):
        """I + 2e-11 B, with B Gaussian, is orthogonal within 1e-10, and for
        n = 3 symmetric within 1e-10. The rotation and symmetric routes drop
        the symmetric or the skew part of the log, and once took these
        matrices and lost about half of it. scipy's ``logm`` is itself off by
        6e-6 (3x3) and 3e-5 (4x4) here, so the reference is mpmath's."""
        mpmath = pytest.importorskip("mpmath")
        mat = np.eye(n) + 2e-11 * np.random.default_rng(3).standard_normal((n, n))
        exact = _mp_matrix(mpmath, mat, mpmath.logm)
        np.testing.assert_allclose(linalg.matrix_log(mat), exact, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_rotations_keep_the_rotation_route(self, n, monkeypatch):
        """Rotations by 8e-8 to 1e-6 rad are orthogonal to round-off, far
        inside the 1e-8 relative bound, so they keep their rotation route."""

        def forbidden(mat):
            raise AssertionError("_log_general called")

        monkeypatch.setattr(linalg, "_log_general", forbidden)
        rots = _rotations(np.random.default_rng(25), 4, n, max_angle=1e-6)
        log = linalg.matrix_log(rots)
        np.testing.assert_allclose(linalg.matrix_exp(log), rots, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reflection_is_not_a_rotation(self, n):
        """An orthogonal matrix with determinant -1 has the eigenvalue -1: it
        raises the negative-axis DomainError, not CutLocusError, also among
        rotations, where a larger one skips the determinant until it leaves
        the one-``eigh`` route."""
        rots = _rotations(np.random.default_rng(26), 3, n)
        rots[1, :, 0] *= -1.0
        with pytest.raises(DomainError, match="negative real axis") as raised:
            linalg.matrix_log(rots)
        assert raised.type is DomainError
