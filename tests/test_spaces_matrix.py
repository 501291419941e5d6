import warnings

import numpy as np
import pytest

from riemstats.errors import ConvergenceError, CutLocusError, DomainError
from riemstats.geometry import (
    GeneralLinear,
    Grassmann,
    Hypersphere,
    InvariantMetric,
    SpecialEuclidean,
    SpecialOrthogonal,
    Stiefel,
    hat,
    homogeneous_from_parts,
    matrix_from_rotation_vector,
    projector_from_basis,
    rotation_part,
    rotation_vector_from_matrix,
    tangent_from_parts,
    translation_part,
    transport_by_ladder,
    vee,
)
from riemstats.geometry import spd as spd_module
from riemstats.geometry import stiefel as stiefel_module
from riemstats.geometry.spd import SPDMatrices


class TestSPDAffine:
    spd = SPDMatrices(2)
    metric = spd.affine_invariant_metric

    def test_dist_to_self(self):
        point = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert self.metric.dist(point, point) < 1e-10

    def test_commuting_diagonal_distance(self):
        assert self.metric.dist(np.eye(2), np.diag([np.e, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(0)
        spd3 = SPDMatrices(3)
        metric = spd3.affine_invariant_metric
        p = spd3.random_point(20, rng)
        q = spd3.random_point(20, rng)
        trans = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        assert abs(np.linalg.det(trans)) > 1e-3
        lhs = metric.dist(trans @ p @ trans.T, trans @ q @ trans.T)
        np.testing.assert_allclose(lhs, metric.dist(p, q), atol=1e-8)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(1)
        spd3 = SPDMatrices(3)
        metric = spd3.affine_invariant_metric
        base = spd3.random_point(30, rng)
        target = spd3.random_point(30, rng)
        logs = metric.log(target, base)
        np.testing.assert_allclose(metric.exp(logs, base), target, atol=1e-8)

    def test_exp_stays_spd(self):
        rng = np.random.default_rng(2)
        base = self.spd.random_point(50, rng)
        vecs = self.metric.random_tangent(base, 50, rng)
        assert np.max(self.spd.membership_residual(self.metric.exp(vecs, base))) < 1e-8

    def test_non_spd_input_raises(self):
        with pytest.raises(DomainError):
            self.metric.log(np.diag([1.0, -1.0]), np.eye(2))

    def test_overflowing_exp_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                self.metric.exp(np.diag([800.0, 1.0]), np.eye(2))

    def test_norm_at_identity_is_frobenius(self):
        vec = np.diag([1.0, 0.0])
        assert self.metric.norm(vec, np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_transport_isometry_and_ladder_agreement(self):
        rng = np.random.default_rng(3)
        base = self.spd.random_point(rng=rng)
        end = self.spd.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        moved = self.metric.parallel_transport(vec, base, end_point=end)
        assert self.metric.norm(moved, end) == pytest.approx(
            float(self.metric.norm(vec, base)), rel=1e-10
        )
        ladder = transport_by_ladder(self.metric, vec, base, end, n_rungs=30)
        np.testing.assert_allclose(ladder, moved, atol=1e-6)


class TestSPDLogEuclidean:
    spd = SPDMatrices(2)
    metric = spd.log_euclidean_metric

    def test_commuting_diagonal_distance(self):
        assert self.metric.dist(np.eye(2), np.diag([np.e, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_affine_on_commuting_pairs(self):
        affine = self.spd.affine_invariant_metric
        a = np.diag([2.0, 0.5])
        b = np.diag([0.7, 3.0])
        assert self.metric.dist(a, b) == pytest.approx(float(affine.dist(a, b)), rel=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(4)
        spd3 = SPDMatrices(3)
        metric = spd3.log_euclidean_metric
        base = spd3.random_point(30, rng)
        target = spd3.random_point(30, rng)
        np.testing.assert_allclose(metric.exp(metric.log(target, base), base), target, atol=1e-7)

    def test_translation_invariance_in_chart(self):
        # dist depends only on the difference of matrix logs.
        from riemstats import linalg

        rng = np.random.default_rng(5)
        spd3 = SPDMatrices(3)
        metric = spd3.log_euclidean_metric
        a = spd3.random_point(20, rng)
        b = spd3.random_point(20, rng)
        shift = linalg.sym(rng.standard_normal((3, 3)))
        shifted_a = linalg.sym_function(linalg.matrix_log(a) + shift, np.exp)
        shifted_b = linalg.sym_function(linalg.matrix_log(b) + shift, np.exp)
        np.testing.assert_allclose(
            metric.dist(shifted_a, shifted_b), metric.dist(a, b), atol=1e-8
        )

    def test_norm_of_log_equals_dist(self):
        rng = np.random.default_rng(6)
        base = self.spd.random_point(rng=rng)
        target = self.spd.random_point(rng=rng)
        log = self.metric.log(target, base)
        assert self.metric.norm(log, base) == pytest.approx(
            float(self.metric.dist(base, target)), rel=1e-10
        )


SPD_FAMILIES = ["affine_invariant_metric", "log_euclidean_metric"]


def _spd_inputs(n, family, seed, n_samples=4):
    """Metric, base batch, tangent directions and vectors at it, and target points.

    Directions have metric norm 1.5, the catalog's SPD tangent radius. Far
    beyond it, the transport to the end point exp(direction) is less
    accurate than the transport by direction, since its error grows with the
    end point's condition number: against a 40-digit reference, 5e-12
    relative at norm 11 on SPD(5), where the direction form stays at 1e-14.
    """
    spd = SPDMatrices(n)
    metric = getattr(spd, family)
    rng = np.random.default_rng(seed)
    base = spd.random_point(n_samples, rng)
    directions = metric.random_tangent(base, n_samples, rng)
    directions *= (1.5 / metric.norm(directions, base))[..., None, None]
    vectors = metric.random_tangent(base, n_samples, rng)
    return metric, base, directions, vectors, spd.random_point(n_samples, rng)


def _spd_ops(metric, base, directions, vectors, targets):
    """Every SPD op on aligned batches, by name."""
    return {
        "exp": lambda: metric.exp(directions, base),
        "log": lambda: metric.log(targets, base),
        "dist": lambda: metric.dist(base, targets),
        "inner_product": lambda: metric.inner_product(directions, vectors, base),
        "transport_direction": lambda: metric.parallel_transport(
            vectors, base, direction=directions
        ),
        "transport_end": lambda: metric.parallel_transport(vectors, base, end_point=targets),
    }


def _bad_spd_operands(good):
    """(kind, matrix) pairs, each failing exactly one SPD requirement."""
    non_symmetric = good.copy()
    non_symmetric[0, 1] += 1e-6
    with_nan = good.copy()
    with_nan[1, 1] = np.nan
    with_inf = good.copy()
    with_inf[0, 0] = np.inf
    return [
        ("non-symmetric", non_symmetric),
        ("nan", with_nan),
        ("inf", with_inf),
        ("indefinite", np.diag([1.0, -1.0, 2.0])),
        ("singular", np.diag([1.0, 0.0, 2.0])),
        ("singular to round-off", np.diag([1.0, 1e-17, 2.0])),
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", SPD_FAMILIES)
class TestSPDOperands:
    """A non-symmetric, non-finite or non-positive-definite SPD operand raises
    DomainError in every position, without a warning."""

    @pytest.mark.parametrize(
        "op", ["exp", "log", "dist", "inner_product", "transport_direction", "transport_end"]
    )
    def test_bad_base_point(self, family, op):
        metric, base, directions, vectors, targets = _spd_inputs(3, family, 20, 1)
        for kind, bad in _bad_spd_operands(base):
            with pytest.raises(DomainError):
                _spd_ops(metric, bad, directions, vectors, targets)[op]()

    @pytest.mark.parametrize("op", ["log", "dist", "transport_end"])
    def test_bad_second_point(self, family, op):
        metric, base, directions, vectors, targets = _spd_inputs(3, family, 20, 1)
        for kind, bad in _bad_spd_operands(targets):
            with pytest.raises(DomainError):
                _spd_ops(metric, base, directions, vectors, bad)[op]()

    @pytest.mark.parametrize(
        "singular",
        [np.diag([1.0, 0.0, 2.0]), np.diag([1.0, 1e-17, 2.0])],
        ids=["zero", "round_off"],
    )
    def test_singular_point_is_not_a_member(self, family, singular):
        """``belongs`` fails at every tolerance where the metrics reject the point."""
        spd = SPDMatrices(3)
        metric = getattr(spd, family)
        points = spd.random_point(30, np.random.default_rng(31))
        assert spd.membership_residual(singular) == np.inf
        assert not spd.belongs(singular, atol=1e300)
        with pytest.raises(DomainError, match="not positive definite"):
            metric.log(points[0], singular)
        with pytest.raises(DomainError, match="not positive definite"):
            metric.dist(points[0], singular)
        members = spd.belongs(np.concatenate([points, singular[None]]))
        assert members[:-1].all() and not members[-1]

    def test_log_names_a_round_off_singular_base_point(self, family):
        metric = getattr(SPDMatrices(3), family)
        with pytest.raises(DomainError, match="^base point is not positive definite$"):
            metric.log(np.eye(3), np.diag([1.0, 1e-17, 2.0]))

    def test_ill_conditioned_member_is_a_base_point(self, family):
        """A member whose condition number the trace bound cannot certify
        passes the spectrum test: every op answers at it."""
        spd = SPDMatrices(3)
        base = np.diag([1.0, 1e-13, 2.0])
        assert spd.belongs(base)
        vec = np.diag([0.0, 1e-14, 0.1])
        for op, call in _spd_ops(getattr(spd, family), base, vec, vec, base).items():
            assert np.all(np.isfinite(call())), op

    def test_overflowing_transport_direction_raises(self, family):
        metric = getattr(SPDMatrices(2), family)
        with pytest.raises(DomainError):
            metric.parallel_transport(np.eye(2), np.eye(2), direction=np.diag([800.0, 1.0]))

    @pytest.mark.parametrize(
        "op, operand, role",
        [
            ("exp", "base", "base point"),
            ("log", "base", "base point"),
            ("dist", "base", "point"),
            ("inner_product", "base", "base point"),
            ("transport_direction", "base", "base point"),
            ("transport_end", "base", "base point"),
            ("log", "targets", "point"),
            ("dist", "targets", "point"),
            ("transport_end", "targets", "end point"),
        ],
    )
    def test_operand_symmetric_within_the_membership_tolerance(self, family, op, operand, role):
        """An operand 5e-9 from symmetric belongs, and the op answers as at
        its symmetric part; at 1e-7 it raises DomainError naming the operand."""
        metric, *arrays = _spd_inputs(3, family, 25)
        names = ["base", "directions", "vectors", "targets"]
        position = names.index(operand)

        def call(matrix):
            inputs = list(arrays)
            inputs[position] = matrix
            return _spd_ops(metric, *inputs)[op]()

        member = arrays[position].copy()
        member[..., 0, 1] += 5e-9
        assert metric.manifold.belongs(member).all()
        out = call(member)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, call(0.5 * (member + np.swapaxes(member, -1, -2))))
        outside = arrays[position].copy()
        outside[..., 0, 1] += 1e-7
        with pytest.raises(DomainError, match=f"^{role} is not symmetric within 1e-08$"):
            call(outside)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("family", SPD_FAMILIES)
class TestSPDEquivalence:
    def test_batch_equals_loop(self, family, n):
        metric, *arrays = _spd_inputs(n, family, 21)
        batched = _spd_ops(metric, *arrays)
        rows = [_spd_ops(metric, *(a[i] for a in arrays)) for i in range(len(arrays[0]))]
        for op in ("exp", "log", "dist", "transport_direction", "transport_end"):
            looped = np.stack([row[op]() for row in rows])
            out = batched[op]()
            scale = max(1.0, float(np.max(np.abs(out))))
            np.testing.assert_allclose(looped, out, rtol=0.0, atol=1e-12 * scale, err_msg=op)

    def test_transport_by_direction_equals_transport_to_its_end(self, family, n):
        metric, base, directions, vectors, _ = _spd_inputs(n, family, 22)
        by_direction = metric.parallel_transport(vectors, base, direction=directions)
        by_end = metric.parallel_transport(
            vectors, base, end_point=metric.exp(directions, base)
        )
        scale = max(1.0, float(np.max(np.abs(by_end))))
        np.testing.assert_allclose(by_direction, by_end, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("n", [3, 5])
def test_affine_transport_carries_the_base_to_the_end(n):
    """V -> E V E^T maps P itself to Q: E P E^T = Q, by end point and by direction."""
    metric, base, directions, _, targets = _spd_inputs(n, "affine_invariant_metric", 23)
    np.testing.assert_allclose(
        metric.parallel_transport(base, base, end_point=targets), targets, rtol=1e-12, atol=0.0
    )
    ends = metric.exp(directions, base)
    np.testing.assert_allclose(
        metric.parallel_transport(base, base, direction=directions), ends, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
def test_affine_dist_and_log_match_high_precision(cond):
    """Relative error at most 10 eps cond(P) against a 50-digit reference."""
    mpmath = pytest.importorskip("mpmath")
    spd = SPDMatrices(3)
    metric = spd.affine_invariant_metric
    rng = np.random.default_rng(int(np.log10(cond)))
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = (rot * np.geomspace(1.0, 1.0 / cond, 3)) @ rot.T
    base = 0.5 * (base + base.T)
    point = spd.random_point(rng=rng)
    with mpmath.workdps(50):
        w, v = mpmath.eigsy(mpmath.matrix(base.tolist()))
        root = v * mpmath.diag([mpmath.sqrt(x) for x in w]) * v.T
        inv_root = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.T
        mid_w, mid_v = mpmath.eigsy(inv_root * mpmath.matrix(point.tolist()) * inv_root)
        exact_dist = float(mpmath.sqrt(sum(mpmath.log(x) ** 2 for x in mid_w)))
        exact_log = root * mid_v * mpmath.diag([mpmath.log(x) for x in mid_w]) * mid_v.T * root
        exact_log = np.array(exact_log.tolist(), dtype=float)
    bound = 10 * np.finfo(float).eps * np.linalg.cond(base)
    assert abs(float(metric.dist(base, point)) - exact_dist) <= bound * exact_dist
    log = metric.log(point, base)
    assert np.linalg.norm(log - exact_log) <= bound * np.linalg.norm(exact_log)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "op", ["exp", "log", "dist", "transport_direction", "transport_end"]
)
def test_affine_overflowing_congruence_raises(op):
    """The affine hooks check the congruence of an operand in the base point's
    frame for finiteness only, with ``linalg.sym_eig``'s message."""
    metric = SPDMatrices(2).affine_invariant_metric
    base, big = 1e-200 * np.eye(2), np.diag([1e200, 1.0])
    with pytest.raises(DomainError, match="^symmetric matrix has non-finite entries$"):
        _spd_ops(metric, base, big, np.eye(2), big)[op]()


# Symmetric eigendecompositions per call: (family, op) -> (eigh, eigvalsh).
SPD_EIG_CALLS = {
    ("affine_invariant_metric", "exp"): (1, 0),
    ("affine_invariant_metric", "log"): (1, 0),
    ("affine_invariant_metric", "dist"): (0, 1),
    ("affine_invariant_metric", "inner_product"): (0, 0),
    ("affine_invariant_metric", "transport_direction"): (1, 0),
    ("affine_invariant_metric", "transport_end"): (1, 0),
    ("log_euclidean_metric", "exp"): (2, 0),
    ("log_euclidean_metric", "log"): (2, 0),
    ("log_euclidean_metric", "dist"): (2, 0),
    ("log_euclidean_metric", "inner_product"): (1, 0),
    ("log_euclidean_metric", "transport_direction"): (2, 0),
    ("log_euclidean_metric", "transport_end"): (2, 0),
}


@pytest.mark.parametrize(
    "family, op", list(SPD_EIG_CALLS), ids=[f"{f}-{op}" for f, op in SPD_EIG_CALLS]
)
def test_spd_ops_factor_each_operand_once(monkeypatch, family, op):
    """Guards against repeated decompositions: counts eigh/eigvalsh calls."""
    call = _spd_ops(*_spd_inputs(3, family, 24))[op]
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:

        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    call()
    assert (counts["eigh"], counts["eigvalsh"]) == SPD_EIG_CALLS[family, op]


def test_log_euclidean_log_and_squared_dist_decomposes_each_operand_once(monkeypatch):
    """The Karcher flow's log-Euclidean logs and variance terms come from one
    eigendecomposition of the points and one of the base."""
    spd = SPDMatrices(3)
    metric = spd.log_euclidean_metric
    points = spd.random_point(11, np.random.default_rng(33))
    calls = []
    plain = spd_module._spd_eig

    def counted(operand, what):
        calls.append((np.shape(operand), what))
        return plain(operand, what)

    monkeypatch.setattr(spd_module, "_spd_eig", counted)
    log, sq = metric._log_and_squared_dist(points[1:], points[0])
    assert calls == [((10, 3, 3), "point"), ((3, 3), "base point")]
    monkeypatch.undo()
    np.testing.assert_array_equal(log, metric._log(points[1:], points[0]))
    np.testing.assert_array_equal(sq, metric._squared_dist(points[0], points[1:]))


class TestRotationVector:
    def test_identity(self):
        np.testing.assert_array_equal(rotation_vector_from_matrix(np.eye(3)), np.zeros(3))
        np.testing.assert_array_equal(matrix_from_rotation_vector(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        vec = np.array([0.0, 0.0, np.pi / 2])
        rot = matrix_from_rotation_vector(vec)
        np.testing.assert_allclose(
            rot, np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), atol=1e-15
        )
        np.testing.assert_allclose(rotation_vector_from_matrix(rot), vec, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        rots = SpecialOrthogonal(3).random_point(200, rng)
        back = matrix_from_rotation_vector(rotation_vector_from_matrix(rots))
        np.testing.assert_allclose(back, rots, atol=1e-10)

    def test_round_trip_near_pi(self):
        axis = np.array([2.0, -1.0, 0.5])
        axis = axis / np.linalg.norm(axis)
        vec = (np.pi - 1e-5) * axis
        np.testing.assert_allclose(
            rotation_vector_from_matrix(matrix_from_rotation_vector(vec)), vec, atol=1e-10
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_raises(self, bad):
        with pytest.raises(DomainError):
            matrix_from_rotation_vector(np.array([0.1, bad, 0.2]))

    def test_hat_vee(self):
        vec = np.array([0.2, -0.7, 1.1])
        assert np.all(hat(vec) == -hat(vec).T)
        np.testing.assert_array_equal(vee(hat(vec)), vec)


class TestSpecialOrthogonal:
    so3 = SpecialOrthogonal(3)
    metric = so3.bi_invariant_metric

    def test_exp_identity_zero(self):
        np.testing.assert_array_equal(self.metric.exp(np.zeros((3, 3)), np.eye(3)), np.eye(3))

    def test_dist_quarter_turn(self):
        rot = matrix_from_rotation_vector(np.array([0.0, 0.0, np.pi / 2]))
        assert self.metric.dist(np.eye(3), rot) == pytest.approx(
            np.sqrt(2.0) * np.pi / 2, abs=1e-10
        )

    def test_bi_invariance(self):
        rng = np.random.default_rng(8)
        r1 = self.so3.random_point(20, rng)
        r2 = self.so3.random_point(20, rng)
        q = self.so3.random_point(rng=rng)
        base = self.metric.dist(r1, r2)
        np.testing.assert_allclose(self.metric.dist(q @ r1, q @ r2), base, atol=1e-9)
        np.testing.assert_allclose(self.metric.dist(r1 @ q, r2 @ q), base, atol=1e-9)

    def test_log_round_trip(self):
        rng = np.random.default_rng(9)
        base = self.so3.random_point(30, rng)
        target = self.so3.random_point(30, rng)
        logs = self.metric.log(target, base)
        np.testing.assert_allclose(self.metric.exp(logs, base), target, atol=1e-8)

    def test_cut_locus_raises(self):
        half_turn = matrix_from_rotation_vector(np.array([np.pi, 0.0, 0.0]))
        with pytest.raises(CutLocusError):
            self.metric.log(half_turn, np.eye(3))

    def test_so4_round_trip(self):
        rng = np.random.default_rng(10)
        so4 = SpecialOrthogonal(4)
        metric = so4.bi_invariant_metric
        base = so4.random_point(rng=rng)
        vec = metric.random_tangent(base, rng=rng)
        vec = vec / metric.norm(vec, base)
        target = metric.exp(vec, base)
        np.testing.assert_allclose(metric.log(target, base), vec, atol=1e-9)

    def test_transport_isometry(self):
        rng = np.random.default_rng(11)
        base = self.so3.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        direction = self.metric.random_tangent(base, rng=rng)
        moved = self.metric.parallel_transport(vec, base, direction=direction)
        end = self.metric.exp(direction, base)
        assert self.so3.is_tangent(moved, end, atol=1e-8)
        assert self.metric.norm(moved, end) == pytest.approx(
            float(self.metric.norm(vec, base)), rel=1e-9
        )
        ladder = transport_by_ladder(self.metric, vec, base, end, n_rungs=50)
        np.testing.assert_allclose(ladder, moved, atol=1e-5)


class TestSpecialEuclidean:
    se3 = SpecialEuclidean(3)
    metric = se3.canonical_left_metric

    def test_identity_zero(self):
        eye = np.eye(4)
        np.testing.assert_array_equal(self.metric.exp(np.zeros((4, 4)), eye), eye)

    def test_pure_translation_is_straight_line(self):
        vec = tangent_from_parts(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
        curve = self.metric.geodesic(np.eye(4), initial_tangent_vec=vec)
        ts = np.linspace(0.0, 1.0, 5)
        poses = curve(ts)
        np.testing.assert_allclose(rotation_part(poses), np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-15)
        np.testing.assert_allclose(translation_part(poses), ts[:, None] * [1.0, 2.0, 3.0], atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        base = self.se3.random_point(30, rng)
        vecs = self.metric.random_tangent(base, 30, rng)
        norms = self.metric.norm(vecs, base)
        vecs = vecs * (1.5 / norms)[:, None, None]
        end = self.metric.exp(vecs, base)
        np.testing.assert_allclose(self.metric.log(end, base), vecs, atol=1e-6)

    def test_homogeneous_assembly(self):
        rot = matrix_from_rotation_vector(np.array([0.1, 0.2, 0.3]))
        trans = np.array([4.0, 5.0, 6.0])
        pose = homogeneous_from_parts(rot, trans)
        np.testing.assert_array_equal(rotation_part(pose), rot)
        np.testing.assert_array_equal(translation_part(pose), trans)
        assert self.se3.belongs(pose)

    def test_shooting_log_cross_check(self):
        # The generic shooting log must agree with the closed form.
        from riemstats.geometry import log_by_shooting

        rng = np.random.default_rng(13)
        base = self.se3.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        vec = vec / self.metric.norm(vec, base)
        target = self.metric.exp(vec, base)
        basis_at_base = np.einsum("ij,mjk->mik", base, self.se3.lie_algebra_basis())
        shot = log_by_shooting(
            self.metric,
            base,
            target,
            tangent_basis=basis_at_base,
            initial_tangent=self.se3.to_tangent(target - base, base),
            tol=1e-10,
            point_ndim=2,
        )
        np.testing.assert_allclose(shot, vec, atol=1e-6)


class TestInvariantMetric:
    se3 = SpecialEuclidean(3)

    def test_canonical_case_matches_closed_form(self):
        rng = np.random.default_rng(14)
        canon = self.se3.canonical_left_metric
        integ = InvariantMetric(self.se3, side="left")
        base = self.se3.random_point(rng=rng)
        vec = canon.random_tangent(base, rng=rng)
        vec = vec / canon.norm(vec, base)
        np.testing.assert_allclose(integ.exp(vec, base), canon.exp(vec, base), atol=1e-9)

    def test_invariant_metric_factory_dispatch(self):
        from riemstats.geometry import SECanonicalLeftMetric

        assert isinstance(self.se3.invariant_metric("left"), SECanonicalLeftMetric)
        assert isinstance(self.se3.invariant_metric("right"), InvariantMetric)
        assert isinstance(
            self.se3.invariant_metric("left", np.diag([1, 1, 1, 2, 2, 2.0])), InvariantMetric
        )

    @pytest.mark.parametrize("case", ["wrong_shape", "near_identity", "identity_within_atol"])
    def test_invariant_metric_factory_takes_closed_form_only_at_identity(self, case):
        """Only a 6x6 matrix equal to the identity within ``base.ATOL`` entry
        for entry gets the closed form; any other goes to ``InvariantMetric``,
        whose shape check raises."""
        from riemstats.geometry import SECanonicalLeftMetric

        if case == "wrong_shape":
            with pytest.raises(DomainError, match="^inner_matrix must be 6x6$"):
                self.se3.invariant_metric("left", np.eye(3))
        elif case == "near_identity":
            near = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0 + 5e-6])
            assert type(self.se3.invariant_metric("left", near)) is InvariantMetric
        else:
            assert isinstance(
                self.se3.invariant_metric("left", np.eye(6) + 1e-12), SECanonicalLeftMetric
            )

    def test_anisotropic_round_trip(self):
        rng = np.random.default_rng(15)
        metric = self.se3.invariant_metric("left", np.diag([1.0, 1.0, 1.0, 2.0, 0.5, 1.5]))
        base = self.se3.random_point(rng=rng)
        vec = metric.random_tangent(base, rng=rng)
        vec = vec * (0.5 / float(metric.norm(vec, base)))
        target = metric.exp(vec, base)
        log = metric.log(target, base)
        np.testing.assert_allclose(metric.exp(log, base), target, atol=1e-6)

    def test_left_invariance_of_distance(self):
        rng = np.random.default_rng(16)
        metric = self.se3.invariant_metric("left", np.diag([1.0, 2.0, 1.0, 1.0, 0.5, 1.0]))
        a = self.se3.random_point(rng=rng)
        shift_vec = 0.4 * metric.random_tangent(a, rng=rng)
        b = metric.exp(shift_vec, a)
        g = self.se3.random_point(rng=rng)
        lhs = metric.dist(g @ a, g @ b)
        np.testing.assert_allclose(lhs, metric.dist(a, b), atol=1e-6)

    def test_asymmetric_inner_matrix_raises(self):
        """The algebra inner product obeys the symmetric-operand rule: it is
        not silently replaced by its symmetric part."""
        with pytest.raises(DomainError, match="^inner_matrix is not symmetric within 1e-08$"):
            SpecialEuclidean(2).invariant_metric("left", [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]])

    def test_so3_invariant_equals_bi_invariant(self):
        rng = np.random.default_rng(17)
        so3 = SpecialOrthogonal(3)
        integ = InvariantMetric(so3)
        base = so3.random_point(rng=rng)
        vec = so3.metric.random_tangent(base, rng=rng)
        np.testing.assert_allclose(
            integ.exp(vec, base), so3.metric.exp(vec, base), atol=1e-9
        )


class TestAdaptiveInvariantGeodesics:
    """Adaptive integration matches closed forms within 5e-10, and a batch
    equals its loop."""

    se3 = SpecialEuclidean(3)
    weights = np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    @staticmethod
    def _tangents(metric, base, rng, max_norm):
        vec = metric.random_tangent(base, rng=rng)
        scale = rng.uniform(0.2, max_norm, len(base)) / metric.norm(vec, base)
        return vec * scale[:, None, None]

    def _assert_matches_closed_form(self, integrated, closed, base, vec):
        assert np.max(np.abs(integrated.exp(vec, base) - closed.exp(vec, base))) < 5e-10

    def test_weighted_se3_matches_canonical_metric(self):
        rng = np.random.default_rng(51)
        canon = self.se3.canonical_left_metric
        base = self.se3.random_point(20, rng)
        vec = self._tangents(canon, base, rng, 3.0)
        self._assert_matches_closed_form(
            self.se3.invariant_metric("left", self.weights), canon, base, vec
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_so3_matches_bi_invariant_metric(self, side):
        rng = np.random.default_rng(52)
        so3 = SpecialOrthogonal(3)
        base = so3.random_point(20, rng)
        vec = self._tangents(so3.metric, base, rng, 3.0)
        self._assert_matches_closed_form(InvariantMetric(so3, side=side), so3.metric, base, vec)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_se3_batch_equals_loop_bit_for_bit(self, side):
        rng = np.random.default_rng(53)
        metric = self.se3.invariant_metric(side, self.weights)
        base = self.se3.random_point(6, rng)
        vec = self._tangents(metric, base, rng, 1.5)
        ends = metric.exp(vec, base)
        np.testing.assert_array_equal(
            ends, np.stack([metric.exp(v, b) for v, b in zip(vec, base)])
        )
        targets = metric.exp(0.5 * vec, base)
        np.testing.assert_array_equal(
            metric.log(targets, base),
            np.stack([metric.log(t, b) for t, b in zip(targets, base)]),
        )


class TestGeneralLinear:
    gl3 = GeneralLinear(3)
    metric = gl3.metric

    def test_belongs(self):
        assert self.gl3.belongs(np.eye(3))
        assert not self.gl3.belongs(np.zeros((3, 3)))

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e-2, 1.0, 1e4, 1e8])
    def test_membership_does_not_depend_on_scale(self, scale):
        """A member's smallest singular value is above ``n eps`` times its
        largest, so a multiple of I belongs at every scale and a singular
        matrix at none."""
        rank_one = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        assert self.gl3.belongs(scale * np.eye(3))
        assert self.gl3.membership_residual(scale * np.eye(3)) == 0.0
        assert not self.gl3.belongs(scale * rank_one)
        assert self.gl3.membership_residual(scale * rank_one) == np.inf

    def test_exp_of_a_contraction_belongs(self):
        assert self.gl3.belongs(self.metric.exp(-8.0 * np.eye(3), np.eye(3)))

    def test_far_field_exp_belongs_or_raises(self):
        """Far from the base the group exp can be numerically singular; it then
        raises DomainError instead of returning a non-member. Seeded scan: 40
        tangents of norm R at a random base per R."""
        rng = np.random.default_rng(5)
        raised = {}
        for radius in (1.0, 5.0, 20.0, 50.0, 200.0):
            base = self.gl3.random_point(1, rng)
            vecs = self.metric.random_tangent(base, 40, rng)
            vecs *= (radius / self.metric.norm(vecs, base))[:, None, None]
            raised[radius] = 0
            for vec in vecs:
                try:
                    out = self.metric.exp(vec, base)
                except DomainError as exc:
                    assert "numerically singular" in str(exc)
                    raised[radius] += 1
                else:
                    assert self.gl3.belongs(out)
        assert raised[1.0] == raised[5.0] == 0
        assert raised[50.0] > 0 and raised[200.0] > 0

    def test_group_exp_log_round_trip(self):
        rng = np.random.default_rng(18)
        algebra = 0.5 * rng.standard_normal((10, 3, 3))
        np.testing.assert_allclose(
            self.gl3.group_log(self.gl3.group_exp(algebra)), algebra, atol=1e-8
        )

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            self.gl3.group_log(np.diag([-1.0, 1.0, 1.0]))

    def test_metric_round_trip_at_base(self):
        rng = np.random.default_rng(19)
        base = self.gl3.random_point(10, rng)
        vecs = 0.3 * rng.standard_normal((10, 3, 3))
        target = self.metric.exp(vecs, base)
        np.testing.assert_allclose(self.metric.log(target, base), vecs, atol=1e-8)

    def test_dist_symmetry(self):
        rng = np.random.default_rng(20)
        a = self.gl3.random_point(20, rng)
        b = self.gl3.random_point(20, rng)
        np.testing.assert_allclose(self.metric.dist(a, b), self.metric.dist(b, a), atol=1e-9)

    @pytest.mark.parametrize(
        "op, operand",
        [("inner_product", "base point"), ("exp", "base point"), ("log", "base point"),
         ("dist", "point")],
    )
    def test_singular_operand_raises_domain_error(self, op, operand):
        singular, zero, eye = np.diag([1.0, 0.0, 2.0]), np.zeros((3, 3)), np.eye(3)
        calls = {
            "inner_product": lambda: self.metric.inner_product(zero, zero, singular),
            "exp": lambda: self.metric.exp(zero, singular),
            "log": lambda: self.metric.log(eye, singular),
            "dist": lambda: self.metric.dist(singular, eye),
        }
        with pytest.raises(DomainError, match=f"^{operand} is singular$"):
            calls[op]()


class TestStiefel:
    stiefel = Stiefel(4, 2)
    metric = stiefel.canonical_metric

    def test_exp_zero(self):
        rng = np.random.default_rng(21)
        base = self.stiefel.random_point(rng=rng)
        np.testing.assert_allclose(self.metric.exp(np.zeros((4, 2)), base), base, atol=1e-15)

    def test_canonical_inner_block_weights(self):
        # For V = X A + X_perp B the canonical norm is ||A||^2/2 + ||B||^2.
        rng = np.random.default_rng(33)
        base = self.stiefel.random_point(rng=rng)
        complement = self.stiefel.orthogonal_complement(base)
        skew_part = np.array([[0.0, -0.7], [0.7, 0.0]])
        normal_part = rng.standard_normal((2, 2))
        vec = base @ skew_part + complement @ normal_part
        expected = 0.5 * np.sum(skew_part**2) + np.sum(normal_part**2)
        assert float(self.metric.squared_norm(vec, base)) == pytest.approx(expected, rel=1e-12)

    def test_exp_preserves_orthonormality(self):
        rng = np.random.default_rng(22)
        base = self.stiefel.random_point(20, rng)
        vecs = self.metric.random_tangent(base, 20, rng)
        out = self.metric.exp(vecs, base)
        assert np.max(self.stiefel.membership_residual(out)) < 1e-8

    def test_full_frame_reduces_to_rotation_group(self):
        # St(n, n) with p = n: exp matches the SO(n) bi-invariant exp on SO components.
        rng = np.random.default_rng(23)
        so3 = SpecialOrthogonal(3)
        st33 = Stiefel(3, 3)
        base = so3.random_point(rng=rng)
        vec = so3.metric.random_tangent(base, rng=rng)
        np.testing.assert_allclose(
            st33.canonical_metric.exp(vec, base), so3.metric.exp(vec, base), atol=1e-12
        )

    def test_rank_one_reduces_to_sphere(self):
        rng = np.random.default_rng(24)
        sphere = Hypersphere(3)
        st41 = Stiefel(4, 1)
        base = sphere.random_point(rng=rng)
        vec = sphere.metric.random_tangent(base, rng=rng)
        np.testing.assert_allclose(
            st41.canonical_metric.exp(vec[:, None], base[:, None])[:, 0],
            sphere.metric.exp(vec, base),
            atol=1e-10,
        )

    def test_log_small_perturbation(self, monkeypatch):
        monkeypatch.setattr(stiefel_module, "_LOG_TOL", 1e-10)
        rng = np.random.default_rng(25)
        base = self.stiefel.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        vec = 1e-3 * vec / float(self.metric.norm(vec, base))
        target = self.metric.exp(vec, base)
        np.testing.assert_allclose(self.metric.log(target, base), vec, atol=1e-8)

    def test_log_round_trip(self):
        rng = np.random.default_rng(26)
        base = self.stiefel.random_point(10, rng)
        vecs = self.metric.random_tangent(base, 10, rng)
        norms = self.metric.norm(vecs, base)
        vecs = vecs * (0.6 / norms)[:, None, None]
        target = self.metric.exp(vecs, base)
        logs = self.metric.log(target, base)
        np.testing.assert_allclose(self.metric.exp(logs, base), target, atol=1e-5)

    def test_log_of_base_is_zero(self):
        rng = np.random.default_rng(27)
        base = self.stiefel.random_point(rng=rng)
        np.testing.assert_allclose(self.metric.log(base, base), np.zeros((4, 2)), atol=1e-12)

    def test_non_convergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(stiefel_module, "_LOG_MAX_ITER", 1)
        monkeypatch.setattr(stiefel_module, "_LOG_TOL", 1e-14)
        rng = np.random.default_rng(32)
        base = self.stiefel.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        vec = vec / float(self.metric.norm(vec, base))
        target = self.metric.exp(vec, base)
        with pytest.raises(ConvergenceError) as info:
            self.metric.log(target, base)
        assert info.value.residual is not None and info.value.residual > 1e-14


STIEFEL_SHAPES = [(4, 2), (5, 2), (6, 3), (3, 2), (4, 1), (3, 3)]


def _stiefel_pairs(n, p, seed, count=6):
    """Base points and targets at canonical distances 0.1 to 1.0."""
    stiefel = Stiefel(n, p)
    metric = stiefel.canonical_metric
    rng = np.random.default_rng(seed)
    base = stiefel.random_point(count, rng)
    vecs = metric.random_tangent(base, count, rng)
    vecs = vecs * (np.linspace(0.1, 1.0, count) / metric.norm(vecs, base))[:, None, None]
    return stiefel, metric, base, metric.exp(vecs, base)


@pytest.mark.parametrize("n, p", STIEFEL_SHAPES, ids=[f"st{n}{p}" for n, p in STIEFEL_SHAPES])
class TestStiefelLog:
    """Zimmermann's log against its stopping bound, its loop and the shooting log."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    def test_exp_residual_within_tol(self, n, p, tol, monkeypatch):
        monkeypatch.setattr(stiefel_module, "_LOG_TOL", tol)
        _, metric, base, target = _stiefel_pairs(n, p, 61)
        log = metric.log(target, base)
        assert np.max(np.abs(metric.exp(log, base) - target)) <= tol

    def test_batch_equals_loop(self, n, p):
        _, metric, base, target = _stiefel_pairs(n, p, 62)
        loop = np.stack([metric.log(t, b) for t, b in zip(target, base)])
        np.testing.assert_array_equal(metric.log(target, base), loop)

    def test_matches_shooting_log(self, n, p):
        from riemstats.geometry import log_by_shooting, orthonormal_tangent_basis

        stiefel, metric, base, target = _stiefel_pairs(n, p, 63)
        log = metric.log(target, base)
        for b, t, v in zip(base, target, log):
            shot = log_by_shooting(
                metric,
                b,
                t,
                tangent_basis=orthonormal_tangent_basis(metric, b),
                initial_tangent=stiefel.to_tangent(t - b, b),
                max_iter=100,
                tol=1e-11,
                point_ndim=2,
            )
            np.testing.assert_allclose(v, shot, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_general_linear_log_and_dist_near_a_rotation(n):
    """GL(n) log and dist from 2I to 2(I + 2e-11 B), B Gaussian: the body
    I + 2e-11 B is orthogonal within 1e-10 but not a rotation, and its log
    keeps the symmetric part. The reference is mpmath's 40-digit logm."""
    mpmath = pytest.importorskip("mpmath")
    body = np.eye(n) + 2e-11 * np.random.default_rng(3).standard_normal((n, n))
    with mpmath.workdps(40):
        exact = mpmath.logm(mpmath.matrix(body.tolist()))
        exact = np.array([[float(mpmath.re(exact[i, j])) for j in range(n)] for i in range(n)])
    metric = GeneralLinear(n).metric
    base, point = 2.0 * np.eye(n), 2.0 * body
    np.testing.assert_allclose(metric.log(point, base), 2.0 * exact, rtol=1e-6, atol=0.0)
    assert metric.dist(base, point) == pytest.approx(np.linalg.norm(exact), rel=1e-6)


def test_logs_below_the_rotation_bound_skip_shooting_and_the_general_log(monkeypatch):
    """The Stiefel log, and the SO(4) and Grassmann(4, 2) logs at rotation
    angles below 2.69 rad, reach neither the shooting log nor ``_log_general``."""
    from riemstats import linalg
    from riemstats.geometry import numerical, stiefel

    def forbidden(*args, **kwargs):
        raise AssertionError("fallback called")

    monkeypatch.setattr(numerical, "log_by_shooting", forbidden)
    monkeypatch.setattr(linalg, "_log_general", forbidden)
    assert not hasattr(stiefel, "log_by_shooting")
    rng = np.random.default_rng(64)
    for n, p in [(4, 2), (5, 2), (6, 3)]:
        _, metric, base, target = _stiefel_pairs(n, p, 65)
        assert np.all(np.isfinite(metric.log(target, base)))

    so4 = SpecialOrthogonal(4)
    frame = so4.random_point(10, rng)
    algebra = np.zeros((10, 4, 4))
    algebra[:, 1, 0], algebra[:, 3, 2] = rng.uniform(0.0, 2.65, 10), rng.uniform(0.0, 2.65, 10)
    rotation = linalg.matrix_exp(algebra - np.swapaxes(algebra, -1, -2))
    relative = frame @ rotation @ np.swapaxes(frame, -1, -2)
    base = so4.random_point(10, rng)
    assert np.all(np.isfinite(so4.metric.log(base @ relative, base)))

    grassmann = Grassmann(4, 2)
    base = grassmann.random_point(10, rng)
    vecs = grassmann.metric.random_tangent(base, 10, rng)
    vecs = vecs * (1.3 / grassmann.metric.norm(vecs, base))[:, None, None]
    target = grassmann.metric.exp(vecs, base)
    assert np.all(np.isfinite(grassmann.metric.log(target, base)))


def _pair_short_of_the_cut(name, gap, rng):
    """A base point and a target ``gap`` short of the cut locus: on SO(3) and
    SO(4) at largest rotation angle pi - gap (SO(4) turns a second plane by
    0.7), on Grassmann(4, 2) at largest principal angle pi/2 - gap (the
    other 0.7). Both points are turned by one random rotation."""
    n = 3 if name == "so3" else 4
    frame = SpecialOrthogonal(n).random_point(rng=rng)
    if name == "grassmann42":
        basis = np.zeros((4, 2))
        for j, angle in enumerate([0.5 * np.pi - gap, 0.7]):
            basis[[j, j + 2], j] = np.cos(angle), np.sin(angle)
        return Grassmann(4, 2), projector_from_basis(frame[:, :2]), projector_from_basis(frame @ basis)
    block = np.eye(n)
    for j, angle in enumerate([np.pi - gap, 0.7][: n // 2]):
        c, s = np.cos(angle), np.sin(angle)
        block[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    return SpecialOrthogonal(n), frame, frame @ block


@pytest.mark.parametrize("name", ["so3", "so4", "grassmann42"])
def test_cut_locus_threshold(name):
    """The SO(n) log raises within 1e-6 of rotation angle pi and the Grassmann
    log within 1e-6 of principal angle pi/2; just outside, each returns a
    finite tangent vector."""
    atol = 1e-6
    rng = np.random.default_rng(70)
    space, base, target = _pair_short_of_the_cut(name, 0.5 * atol, rng)
    with pytest.raises(CutLocusError):
        space.metric.log(target, base)
    space, base, target = _pair_short_of_the_cut(name, 2.0 * atol, rng)
    log = space.metric.log(target, base)
    assert np.all(np.isfinite(log)) and space.metric.is_tangent(log, base)


def test_rotation_logs_take_the_cut_locus_from_their_own_decomposition(monkeypatch):
    """No ``np.linalg.eigvals`` call in SO(3) logs, nor in SO(4) and
    Grassmann(4, 2) logs at rotation angles below 2.69 rad; the Grassmann log
    never computes principal angles, also where it raises at the cut locus."""
    from riemstats.geometry.grassmann import GrassmannMetric

    calls = []
    eigvals = np.linalg.eigvals

    def counting(mat):
        calls.append(np.shape(mat))
        return eigvals(mat)

    def forbidden(*args, **kwargs):
        raise AssertionError("principal_angles called")

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(GrassmannMetric, "principal_angles", forbidden)
    rng = np.random.default_rng(71)
    so3 = SpecialOrthogonal(3)
    base = so3.random_point(50, rng)
    assert np.all(np.isfinite(so3.metric.log(so3.random_point(50, rng), base)))
    for space in (SpecialOrthogonal(4), Grassmann(4, 2)):
        base = space.random_point(20, rng)
        vecs = space.metric.random_tangent(base, 20, rng)
        # Largest rotation angle at most 1.3 / sqrt(2) on SO(4), and twice the
        # largest principal angle, at most 2.6, on Grassmann.
        vecs = vecs * (1.3 / space.metric.norm(vecs, base))[:, None, None]
        assert np.all(np.isfinite(space.metric.log(space.metric.exp(vecs, base), base)))
    assert calls == []
    space, base, target = _pair_short_of_the_cut("grassmann42", 0.5e-6, rng)
    with pytest.raises(CutLocusError):
        space.metric.log(target, base)


@pytest.mark.parametrize("diagonal", [[1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
def test_symmetric_half_turns_raise_cut_locus_error(diagonal):
    """Symmetric rotations other than the identity reach the rotation route of
    ``matrix_log``, not its symmetric one, which would raise a plain DomainError."""
    so = SpecialOrthogonal(len(diagonal))
    with pytest.raises(CutLocusError):
        so.metric.log(np.diag(diagonal), so.identity)


@pytest.mark.parametrize("noise", [3e-9, 1e-11])
def test_noisy_rotation_near_the_cut_raises_cut_locus_error(noise):
    """A rotation by pi - 1e-7 with Gaussian noise that ``belongs`` still
    accepts raises CutLocusError, also where the noise is too large for a
    rotation route of ``matrix_log`` and the member takes the general one."""
    so = SpecialOrthogonal(3)
    rot = matrix_from_rotation_vector(np.array([0.0, 0.0, np.pi - 1e-7]))
    rot = rot + noise * np.random.default_rng(0).standard_normal((3, 3))
    assert so.belongs(rot)
    with pytest.raises(CutLocusError):
        so.metric.log(rot, so.identity)


class TestGrassmann:
    grassmann = Grassmann(4, 2)
    metric = grassmann.metric

    def test_dist_to_self(self):
        rng = np.random.default_rng(28)
        point = self.grassmann.random_point(rng=rng)
        assert self.metric.dist(point, point) < 1e-10

    def test_coordinate_planes(self):
        gr31 = Grassmann(3, 1)
        assert gr31.metric.dist(np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0])) == pytest.approx(
            np.pi / 2, abs=1e-12
        )

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(29)
        rot = SpecialOrthogonal(4).random_point(rng=rng)
        a = self.grassmann.random_point(20, rng)
        b = self.grassmann.random_point(20, rng)
        np.testing.assert_allclose(
            self.metric.dist(rot @ a @ rot.T, rot @ b @ rot.T),
            self.metric.dist(a, b),
            atol=1e-9,
        )

    def test_log_round_trip_and_dist_consistency(self):
        rng = np.random.default_rng(30)
        base = self.grassmann.random_point(20, rng)
        vecs = self.metric.random_tangent(base, 20, rng)
        norms = self.metric.norm(vecs, base)
        vecs = vecs * (0.6 / norms)[:, None, None]
        target = self.metric.exp(vecs, base)
        logs = self.metric.log(target, base)
        np.testing.assert_allclose(logs, vecs, atol=1e-6)
        np.testing.assert_allclose(
            self.metric.dist(base, target), self.metric.norm(logs, base), atol=1e-8
        )

    def test_projector_from_basis(self):
        rng = np.random.default_rng(31)
        basis = rng.standard_normal((4, 2))
        proj = projector_from_basis(basis)
        assert self.grassmann.belongs(proj)
        np.testing.assert_allclose(proj @ basis, basis, atol=1e-10)

    def test_cut_locus_raises(self):
        base = projector_from_basis(np.eye(4)[:, :2])
        target = projector_from_basis(np.eye(4)[:, 2:])
        with pytest.raises(CutLocusError):
            self.metric.log(target, base)

    def test_dist_takes_a_point_symmetric_within_the_membership_tolerance(self):
        """A projector 5e-9 from symmetric belongs, and ``dist``,
        ``principal_angles`` and ``basis_from_projector`` answer as at its
        symmetric part; at 1e-7 they raise DomainError naming the point."""
        rng = np.random.default_rng(32)
        a, b = self.grassmann.random_point(2, rng)
        member = a.copy()
        member[0, 1] += 5e-9
        assert self.grassmann.belongs(member)
        out = self.metric.dist(member, b)
        assert np.isfinite(out)
        assert out == self.metric.dist(0.5 * (member + member.T), b)
        np.testing.assert_array_equal(
            self.metric.principal_angles(b, member),
            self.metric.principal_angles(b, 0.5 * (member + member.T)),
        )
        np.testing.assert_array_equal(
            self.grassmann.basis_from_projector(member),
            self.grassmann.basis_from_projector(0.5 * (member + member.T)),
        )
        outside = a.copy()
        outside[0, 1] += 1e-7
        with pytest.raises(DomainError, match="^point is not symmetric within 1e-08$"):
            self.grassmann.basis_from_projector(outside)
        with pytest.raises(DomainError, match="^point is not symmetric within 1e-08$"):
            self.metric.dist(b, outside)
        with pytest.raises(DomainError, match="^point is not symmetric within 1e-08$"):
            self.metric.principal_angles(outside, b)

    def test_rank_mismatch_raises(self):
        from riemstats.errors import ShapeError

        with pytest.raises(ShapeError):
            self.metric.log(np.eye(3), self.grassmann.random_point(rng=1))
