import warnings

import numpy as np
import pytest

from riemstats.errors import CutLocusError, DomainError, TangencyError
from riemstats.geometry import (
    Euclidean,
    Hyperboloid,
    Hypersphere,
    Minkowski,
    PoincareBall,
    ball_to_hyperboloid,
    ball_to_hyperboloid_tangent,
    hyperboloid_to_ball,
    minkowski_inner,
    transport_by_ladder,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestSphere:
    sphere = Hypersphere(2)
    metric = sphere.metric

    def test_exp_zero_is_base(self):
        np.testing.assert_array_equal(self.metric.exp(np.zeros(3), E1), E1)

    def test_exp_quarter_circle(self):
        np.testing.assert_allclose(self.metric.exp((np.pi / 2) * E2, E1), E2, atol=1e-15)

    def test_exp_half_circle(self):
        np.testing.assert_allclose(self.metric.exp(np.pi * E2, E1), -E1, atol=1e-15)

    def test_exp_small_norm_series(self):
        tiny = 1e-9 * E2
        out = self.metric.exp(tiny, E1)
        np.testing.assert_allclose(out, E1 + tiny, atol=1e-17)
        assert self.sphere.belongs(out, atol=1e-12)

    def test_exp_rejects_non_tangent(self):
        with pytest.raises(TangencyError):
            self.metric.exp(E1, E1)

    def test_log_of_base(self):
        np.testing.assert_array_equal(self.metric.log(E1, E1), np.zeros(3))

    def test_log_quarter_circle(self):
        log = self.metric.log(E2, E1)
        np.testing.assert_allclose(log, (np.pi / 2) * E2, atol=1e-15)

    def test_log_round_trip_random(self):
        rng = np.random.default_rng(0)
        base = self.sphere.random_point(50, rng)
        target = self.sphere.random_point(50, rng)
        logs = self.metric.log(target, base)
        np.testing.assert_allclose(self.metric.exp(logs, base), target, atol=1e-6)

    def test_log_antipodal_raises(self):
        with pytest.raises(CutLocusError):
            self.metric.log(-E1, E1)

    def test_dist_orthogonal_units(self):
        assert self.metric.dist(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_dist_works_at_antipode(self):
        assert self.metric.dist(E1, -E1) == pytest.approx(np.pi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_log_and_dist_reject_non_finite_points(self, bad):
        point = np.array([bad, 0.0, 1.0])
        batch = np.stack([E2, point])
        for call in (
            lambda: self.metric.log(point, E1),
            lambda: self.metric.log(E2, point),
            lambda: self.metric.log(batch, E1),
            lambda: self.metric.dist(point, E1),
            lambda: self.metric.dist(E1, batch),
        ):
            with pytest.raises(DomainError, match="finite"):
                call()

    def test_inner_product_at_north_pole(self):
        assert self.metric.inner_product(E2, E2, E1) == 1.0

    def test_geodesic_midpoint(self):
        curve = self.metric.geodesic(E1, initial_tangent_vec=(np.pi / 2) * E2)
        np.testing.assert_allclose(
            curve(0.5), np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0]), atol=1e-15
        )

    def test_transport_fixes_orthogonal_component(self):
        moved = self.metric.parallel_transport(E3, E1, direction=(np.pi / 2) * E2)
        np.testing.assert_allclose(moved, E3, atol=1e-15)

    def test_transport_zero_direction(self):
        np.testing.assert_array_equal(
            self.metric.parallel_transport(E3, E1, direction=np.zeros(3)), E3
        )

    def test_transport_matches_ladder(self):
        rng = np.random.default_rng(1)
        base = self.sphere.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        direction = self.metric.random_tangent(base, rng=rng)
        closed = self.metric.parallel_transport(vec, base, direction=direction)
        ladder = transport_by_ladder(
            self.metric, vec, base, self.metric.exp(direction, base), n_rungs=50
        )
        np.testing.assert_allclose(ladder, closed, atol=1e-5)

    def test_random_uniform_unit_norm_and_seeded(self):
        pts = self.sphere.random_point(100, rng=123)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(pts, self.sphere.random_point(100, rng=123))

    def test_random_uniform_mean_direction_vanishes(self):
        # Law of large numbers: the empirical mean of uniform samples is tiny.
        pts = Hypersphere(2).random_point(100_000, rng=7)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.02

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        from riemstats.geometry import SpecialOrthogonal

        rot = SpecialOrthogonal(3).random_point(rng=rng)
        a = self.sphere.random_point(20, rng)
        b = self.sphere.random_point(20, rng)
        np.testing.assert_allclose(
            self.metric.dist(a @ rot.T, b @ rot.T), self.metric.dist(a, b), atol=1e-10
        )


class TestHyperboloid:
    space = Hyperboloid(2)
    metric = space.metric

    def test_exp_zero(self):
        origin = self.space.origin()
        np.testing.assert_array_equal(self.metric.exp(np.zeros(3), origin), origin)

    def test_exp_stays_on_sheet(self):
        rng = np.random.default_rng(3)
        base = self.space.random_point(100, rng)
        vecs = self.metric.random_tangent(base, 100, rng)
        norms = self.metric.norm(vecs, base)
        vecs = vecs * (5.0 * rng.uniform(0.1, 1.0, 100) / norms)[:, None]
        out = self.metric.exp(vecs, base)
        assert np.max(self.space.membership_residual(out)) < 1e-8

    def test_exp_norm_equals_dist(self):
        rng = np.random.default_rng(4)
        base = self.space.random_point(50, rng)
        vecs = self.metric.random_tangent(base, 50, rng)
        np.testing.assert_allclose(
            self.metric.dist(base, self.metric.exp(vecs, base)),
            self.metric.norm(vecs, base),
            atol=1e-8,
        )

    def test_log_round_trip(self):
        rng = np.random.default_rng(5)
        base = self.space.random_point(50, rng)
        target = self.space.random_point(50, rng)
        logs = self.metric.log(target, base)
        np.testing.assert_allclose(self.metric.exp(logs, base), target, atol=1e-6)

    def test_dist_symmetry(self):
        rng = np.random.default_rng(6)
        a = self.space.random_point(100, rng)
        b = self.space.random_point(100, rng)
        np.testing.assert_allclose(self.metric.dist(a, b), self.metric.dist(b, a), atol=1e-10)

    @pytest.mark.parametrize("s, t", [(0.0, 15.0), (0.0, 18.0), (-7.0, 8.0), (-9.0, 9.0)])
    def test_dist_far_apart_is_symmetric_and_accurate(self, s, t):
        # Points at signed distances s and t from the origin on one geodesic.
        rng = np.random.default_rng(11)
        origin = self.space.origin()
        for _ in range(5):
            u = rng.standard_normal(2)
            axis = np.concatenate([[0.0], u / np.linalg.norm(u)])
            a, b = self.metric.exp(np.stack([s * axis, t * axis]), origin)
            forward, backward = self.metric.dist(a, b), self.metric.dist(b, a)
            assert forward == backward
            assert abs(forward - (t - s)) <= 1e-10 * (t - s)

    def test_exp_overflow_raises_without_warnings(self):
        origin = self.space.origin()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                self.metric.exp(np.array([0.0, 800.0, 0.0]), origin)

    @pytest.mark.parametrize("d", [3.0, 8.0, 12.0, 20.0])
    def test_log_to_the_origin_from_far_on_a_ray(self, d):
        # log_x(o) = d / sinh(d) (o - cosh(d) x) = (-d sinh d, -d cosh d, 0) at
        # x = (cosh d, sinh d, 0); the Minkowski norm of o - cosh(d) x cancels
        # entries of size cosh(d)^2, so it cannot give the length here.
        point = np.array([np.cosh(d), np.sinh(d), 0.0])
        log = self.metric.log(self.space.origin(), point)
        want = np.array([-d * np.sinh(d), -d * np.cosh(d), 0.0])
        assert np.max(np.abs(log - want)) <= 1e-14 * np.max(np.abs(want))

    def test_transport_isometry(self):
        rng = np.random.default_rng(7)
        base = self.space.random_point(rng=rng)
        vec = self.metric.random_tangent(base, rng=rng)
        direction = self.metric.random_tangent(base, rng=rng)
        moved = self.metric.parallel_transport(vec, base, direction=direction)
        end = self.metric.exp(direction, base)
        assert self.space.is_tangent(moved, end, atol=1e-8)
        assert self.metric.norm(moved, end) == pytest.approx(
            float(self.metric.norm(vec, base)), abs=1e-10
        )


class TestPoincareBall:
    ball = PoincareBall(2)
    metric = ball.metric

    def test_known_distance(self):
        # arccosh route equals 2 artanh(0.5) = ln 3.
        assert self.metric.dist(np.zeros(2), np.array([0.5, 0.0])) == pytest.approx(
            np.log(3.0), abs=1e-12
        )

    def test_conversion_round_trip(self):
        rng = np.random.default_rng(8)
        pts = self.ball.random_point(50, rng)
        np.testing.assert_allclose(
            hyperboloid_to_ball(ball_to_hyperboloid(pts)), pts, atol=1e-10
        )

    def test_origin_maps_to_sheet_origin(self):
        np.testing.assert_array_equal(ball_to_hyperboloid(np.zeros(2)), [1.0, 0.0, 0.0])

    def test_conversion_preserves_distance(self):
        rng = np.random.default_rng(9)
        a = self.ball.random_point(30, rng)
        b = self.ball.random_point(30, rng)
        hyper = Hyperboloid(2).metric
        np.testing.assert_allclose(
            self.metric.dist(a, b),
            hyper.dist(ball_to_hyperboloid(a), ball_to_hyperboloid(b)),
            atol=1e-10,
        )

    def test_ball_operations_match_hyperboloid(self):
        # Representation equivalence: convert -> operate -> convert back.
        rng = np.random.default_rng(10)
        base = self.ball.random_point(rng=rng)
        vec = 0.5 * self.metric.random_tangent(base, rng=rng)
        hyper = Hyperboloid(2).metric
        direct = self.metric.exp(vec, base)
        routed = hyperboloid_to_ball(
            hyper.exp(ball_to_hyperboloid_tangent(vec, base), ball_to_hyperboloid(base))
        )
        np.testing.assert_allclose(direct, routed, atol=1e-9)

    @pytest.mark.parametrize(
        "distance", [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    )
    def test_ray_from_the_origin(self, distance):
        """Axis and off-axis points at distance D from the origin: ``dist`` within
        1e-9 of 50-digit arithmetic, ``|log|`` equal to ``dist`` and the exp back
        to the origin a member.

        The exp misses the origin by at most 1e-12 + ``2 eps / (1 - |p|^2)``,
        the round-off of ``|p|^2`` magnified as in every ball formula at p
        (2.7e-8 at D = 20).
        """
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        directions = np.concatenate([np.eye(2), -np.eye(2), rng.standard_normal((16, 2))])
        directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
        points, origin = np.tanh(0.5 * distance) * directions, np.zeros(2)
        with mpmath.workdps(50):
            exact = [2 * mpmath.atanh(mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2))
                     for x, y in points]
        dist = self.metric.dist(origin, points)
        np.testing.assert_allclose(dist, np.array(exact, dtype=float), rtol=1e-9, atol=0.0)
        logs = self.metric.log(origin, points)
        np.testing.assert_allclose(self.metric.norm(logs, points), dist, rtol=1e-12, atol=0.0)
        back = self.metric.exp(logs, points)
        assert np.all(self.ball.belongs(back))
        miss = np.max(np.abs(back), axis=-1)
        bound = 1e-12 + 2.0 * np.finfo(float).eps / (1.0 - np.sum(points**2, axis=-1))
        assert np.all(miss <= bound)

    def test_operations_agree_with_the_hyperboloid(self):
        """Log, dist, exp and transport by direction, each mapped onto the sheet
        at its base or end point, equal the hyperboloid's within 1e-12."""
        rng = np.random.default_rng(12)
        base, target = self.ball.random_point(200, rng), self.ball.random_point(200, rng)
        vec = self.metric.random_tangent(base, 200, rng)
        vec /= self.metric.norm(vec, base)[:, None]
        direction = self.metric.random_tangent(base, 200, rng)
        direction *= (1.5 * rng.uniform(0.05, 1.0, 200) / self.metric.norm(direction, base))[:, None]
        hyper, sheet_base = Hyperboloid(2).metric, ball_to_hyperboloid(base)
        end = self.metric.exp(direction, base)
        pairs = [
            (self.metric.dist(base, target), hyper.dist(sheet_base, ball_to_hyperboloid(target))),
            (ball_to_hyperboloid_tangent(self.metric.log(target, base), base),
             hyper.log(ball_to_hyperboloid(target), sheet_base)),
            (ball_to_hyperboloid(end),
             hyper.exp(ball_to_hyperboloid_tangent(direction, base), sheet_base)),
            (ball_to_hyperboloid_tangent(
                self.metric.parallel_transport(vec, base, direction=direction), end),
             hyper.parallel_transport(ball_to_hyperboloid_tangent(vec, base), sheet_base,
                                      direction=ball_to_hyperboloid_tangent(direction, base))),
        ]
        for ball_side, sheet_side in pairs:
            scale = max(1.0, np.max(np.abs(sheet_side)))
            assert np.max(np.abs(ball_side - sheet_side)) <= 1e-12 * scale

    @pytest.mark.parametrize("distance", [8.0, 12.0, 16.0, 18.0])
    def test_transport_far_from_the_origin(self, distance):
        """Transport from base points at distance D from the origin matches a
        60-digit evaluation of Ungar's textbook gyration on the same float
        base, end point and vector: within 1e-9 up to D = 12 and 1e-5 beyond."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng([21, int(distance)])
        unit = rng.standard_normal((20, 2))
        base = np.tanh(0.5 * distance) * unit / np.linalg.norm(unit, axis=-1, keepdims=True)
        vec = self.metric.random_tangent(base, 20, rng)
        direction = self.metric.random_tangent(base, 20, rng)
        direction *= (rng.uniform(0.1, 1.0, 20) / self.metric.norm(direction, base))[:, None]
        out = self.metric.parallel_transport(vec, base, direction=direction)
        end = self.metric.exp(direction, base)

        def dot(a, b):
            return sum(i * j for i, j in zip(a, b))

        exact = []
        with mpmath.workdps(60):
            for x, y, w in zip(base, end, vec):
                u, v, w = ([mpmath.mpf(float(c)) for c in arr] for arr in (y, -x, w))
                uu, vv, uv, uw, vw = dot(u, u), dot(v, v), dot(u, v), dot(u, w), dot(v, w)
                a, b = vw * (1 + 2 * uv) - uw * vv, -(uw + vw * uu)
                denom = 1 + 2 * uv + uu * vv
                scale = (1 - uu) / (1 - vv)
                exact.append([float(scale * (wi + 2 * (a * ui + b * vi) / denom))
                              for wi, ui, vi in zip(w, u, v)])
        exact = np.array(exact)
        rel = np.linalg.norm(out - exact, axis=-1) / np.linalg.norm(exact, axis=-1)
        assert np.max(rel) <= (1e-9 if distance <= 12.0 else 1e-5)

    def test_out_of_ball_raises(self):
        with pytest.raises(DomainError):
            ball_to_hyperboloid(np.array([1.2, 0.0]))

    def test_boundary_and_outside_points_do_not_belong(self):
        points = np.array(
            [[0.6, 0.0], [1.0 - 1e-12, 0.0], [1.0, 0.0], [0.6, 0.8], [1.0 + 1e-12, 0.0]]
        )
        assert self.ball.membership_residual(points)[2:].min() >= 1.0
        np.testing.assert_array_equal(self.ball.belongs(points), [True, True, False, False, False])

    def test_exp_rounding_onto_boundary_raises(self):
        # Distance 80 from the origin: tanh(40) rounds to 1 in float64.
        with pytest.raises(DomainError, match="boundary"):
            self.metric.exp(np.array([40.0, 0.0]), np.zeros(2))
        near = self.metric.exp(np.array([10.0, 0.0]), np.zeros(2))
        assert self.ball.belongs(near)
        assert self.metric.dist(np.zeros(2), near) == pytest.approx(20.0, rel=1e-9)

    def test_dist_near_boundary_is_symmetric(self):
        # Distance 30 from the origin: 1 - |p|^2 is 4e-13, so only ~4 digits survive.
        point, origin = np.array([np.tanh(15.0), 0.0]), np.zeros(2)
        assert self.metric.dist(point, origin) == self.metric.dist(origin, point)
        assert self.metric.dist(point, origin) == pytest.approx(30.0, rel=1e-4)

    def test_exp_overflow_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                self.metric.exp(np.array([800.0, 0.0]), np.zeros(2))

    def test_inner_product_conformal(self):
        base = np.array([0.3, -0.2])
        vec = np.array([0.5, 0.1])
        factor = 2.0 / (1.0 - np.sum(base**2))
        assert self.metric.inner_product(vec, vec, base) == pytest.approx(
            factor**2 * np.sum(vec**2), rel=1e-12
        )


class TestMinkowski:
    space = Minkowski(3)
    metric = space.metric

    def test_exp_is_addition(self):
        p = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, -1.0, 0.25])
        np.testing.assert_array_equal(self.metric.exp(v, p), p + v)

    def test_signature(self):
        assert minkowski_inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0
        assert minkowski_inner([1.0, 1.0, 0.0], [1.0, 1.0, 0.0]) == 0.0

    def test_timelike_distance_raises(self):
        with pytest.raises(DomainError):
            self.metric.dist(np.zeros(3), np.array([2.0, 0.1, 0.0]))

    def test_spacelike_distance(self):
        assert self.metric.dist(np.zeros(3), np.array([0.0, 3.0, 4.0])) == pytest.approx(5.0)

    def test_timelike_norm_is_nan_with_a_warning(self):
        """``norm`` is ``sqrt(squared_norm)`` with no rule for a negative
        squared norm: a timelike vector's norm is NaN, with a RuntimeWarning."""
        with pytest.warns(RuntimeWarning, match="invalid value"):
            norm = self.metric.norm(np.array([[2.0, 0.1, 0.0], [0.0, 3.0, 4.0]]), np.zeros(3))
        assert np.isnan(norm[0]) and norm[1] == 5.0


class TestEuclidean:
    metric = Euclidean(3).metric

    def test_orthogonal_inner(self):
        assert self.metric.inner_product([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], np.zeros(3)) == 0.0

    def test_norm_345(self):
        assert self.metric.norm(np.array([3.0, 4.0, 0.0]), np.zeros(3)) == 5.0

    def test_geodesic_is_line(self):
        base = np.array([1.0, 0.0, 2.0])
        vec = np.array([0.0, 2.0, -1.0])
        curve = self.metric.geodesic(base, initial_tangent_vec=vec)
        ts = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(curve(ts), base + ts[:, None] * vec, atol=1e-15)
