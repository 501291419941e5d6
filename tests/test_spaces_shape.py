import numpy as np
import pytest

from riemstats.errors import CutLocusError, DomainError, ShapeError
from riemstats.geometry import (
    DiscretizedCurves,
    Euclidean,
    Hypersphere,
    Landmarks,
    LandmarksMetric,
    srv_inverse,
    srv_transform,
)


def _segment(direction, k=10, speed=1.0):
    """Unit-parameter straight segment c(t) = t * speed * direction."""
    ts = np.linspace(0.0, 1.0, k)
    return speed * ts[:, None] * np.asarray(direction, dtype=float)


class TestL2Metric:
    curves = DiscretizedCurves(10, 2)
    metric = curves.l2_metric

    def test_dist_to_self(self):
        c = self.curves.random_point(rng=0)
        assert self.metric.dist(c, c) == 0.0

    def test_constant_curves(self):
        k = self.curves.k_sampling_points
        c1 = np.tile([0.0, 0.0], (k, 1))
        c2 = np.tile([3.0, 4.0], (k, 1))
        assert self.metric.dist(c1, c2) == pytest.approx(5.0, abs=1e-12)

    def test_refinement_convergence(self):
        # Distances between smooth curves change by O(1/k^2) under k -> 2k.
        def curves_at(k):
            ts = np.linspace(0.0, 1.0, k)
            c1 = np.stack([np.sin(2 * np.pi * ts), np.cos(2 * np.pi * ts)], axis=-1)
            c2 = np.stack([ts, ts**2], axis=-1)
            return c1, c2

        dists = []
        for k in (20, 40, 80):
            metric = DiscretizedCurves(k, 2).l2_metric
            dists.append(float(metric.dist(*curves_at(k))))
        # Richardson: successive differences shrink by about 4x.
        first, second = dists[1] - dists[0], dists[2] - dists[1]
        assert abs(second) < abs(first) / 2.5

    def test_exp_log_flat(self):
        rng = np.random.default_rng(1)
        a = self.curves.random_point(rng=rng)
        b = self.curves.random_point(rng=rng)
        np.testing.assert_allclose(self.metric.exp(self.metric.log(b, a), a), b, atol=1e-14)


class TestSRVTransform:
    def test_unit_speed_segment_constant_q(self):
        q = srv_transform(_segment([1.0, 0.0]))
        np.testing.assert_allclose(q, np.tile([1.0, 0.0], (9, 1)), atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(q, axis=-1), 1.0, atol=1e-14)

    def test_translation_leaves_q_unchanged(self):
        rng = np.random.default_rng(2)
        c = DiscretizedCurves(12, 3).random_point(rng=rng)
        shift = np.array([5.0, -1.0, 2.0])
        np.testing.assert_allclose(srv_transform(c + shift), srv_transform(c), atol=1e-12)

    def test_translation_bitwise_for_integer_inputs(self):
        # Integer-representable samples: identical arithmetic, identical bits.
        c = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 2.0], [4.0, 5.0]])
        shift = np.array([128.0, -64.0])
        np.testing.assert_array_equal(srv_transform(c + shift), srv_transform(c))

    def test_inverse_recovers_curve(self):
        rng = np.random.default_rng(3)
        c = DiscretizedCurves(15, 2).random_point(rng=rng)
        np.testing.assert_allclose(srv_inverse(srv_transform(c), c[0]), c, atol=1e-12)

    def test_vanishing_velocity_raises(self):
        c = np.zeros((5, 2))
        with pytest.raises(DomainError):
            srv_transform(c)


class TestSRVMetric:
    curves = DiscretizedCurves(10, 2)
    metric = curves.srv_metric

    def test_dist_to_self(self):
        c = self.curves.random_point(rng=4)
        assert self.metric.dist(c, c) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        c1 = self.curves.random_point(rng=rng)
        c2 = self.curves.random_point(rng=rng)
        shift = np.array([2.0, -7.0])
        assert self.metric.dist(c1 + shift, c2 + shift) == pytest.approx(
            float(self.metric.dist(c1, c2)), abs=1e-12
        )

    def test_angled_unit_segments(self):
        # Discrete formula gives 2 sin(alpha / 2) for unit-speed segments
        # meeting at angle alpha; alpha = pi/3 makes the distance exactly 1.
        alpha = np.pi / 3
        c1 = _segment([1.0, 0.0])
        c2 = _segment([np.cos(alpha), np.sin(alpha)])
        assert self.metric.dist(c1, c2) == pytest.approx(2 * np.sin(alpha / 2), abs=1e-12)
        assert self.metric.dist(c1, c2) == pytest.approx(1.0, abs=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(6)
        base = self.curves.random_point(rng=rng)
        target = self.curves.random_point(rng=rng)
        vec = self.metric.log(target, base)
        recovered = self.metric.exp(vec, base)
        np.testing.assert_allclose(self.metric.log(recovered, base), vec, atol=1e-10)
        # exp re-anchors at the base curve's start point.
        np.testing.assert_allclose(recovered, target - target[0] + base[0], atol=1e-10)

    def test_geodesic_midpoint_equidistant(self):
        rng = np.random.default_rng(7)
        c1 = self.curves.random_point(rng=rng)
        c2 = self.curves.random_point(rng=rng)
        mid = self.metric.exp(0.5 * self.metric.log(c2, c1), c1)
        half = 0.5 * self.metric.dist(c1, c2)
        assert self.metric.dist(c1, mid) == pytest.approx(half, abs=1e-10)
        assert self.metric.dist(mid, c2) == pytest.approx(half, abs=1e-10)

    def test_exp_through_vanishing_velocity_raises(self):
        base = _segment([1.0, 0.0])
        vec = -srv_transform(base)  # drives every q_i to zero
        with pytest.raises(DomainError):
            self.metric.exp(vec, base)

    def test_is_tangent_checks_shape(self):
        # SRV tangents have shape (k - 1, d) = (9, 2), not the point shape (10, 2).
        base = self.curves.random_point(rng=10)
        assert self.metric.is_tangent(np.zeros((9, 2)), base)
        assert not self.metric.is_tangent(np.zeros((10, 2)), base)
        assert not self.metric.is_tangent(np.zeros(2), base)
        np.testing.assert_array_equal(
            self.metric.is_tangent(np.zeros((3, 9, 2)), base), [True, True, True]
        )
        with pytest.raises(ShapeError):
            self.metric.parallel_transport(np.zeros((10, 2)), base, direction=np.zeros((9, 2)))
        with pytest.raises(ShapeError):
            self.metric.parallel_transport(np.zeros((9, 2)), base, direction=np.zeros((10, 2)))


class TestLandmarks:
    sphere = Hypersphere(2)
    space = Landmarks(sphere, 3)
    metric = space.metric

    def test_dist_zero_when_equal(self):
        p = self.space.random_point(rng=8)
        assert self.metric.dist(p, p) < 1e-10

    def test_single_landmark_reduces_to_base(self):
        single = Landmarks(self.sphere, 1)
        rng = np.random.default_rng(9)
        a = single.random_point(rng=rng)
        b = single.random_point(rng=rng)
        assert single.metric.dist(a, b) == pytest.approx(
            float(self.sphere.metric.dist(a[0], b[0])), rel=1e-14
        )

    def test_euclidean_pair_is_flat_distance(self):
        flat = Landmarks(Euclidean(2), 2)
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[3.0, 4.0], [1.0, 2.0]])
        expected = np.sqrt(np.sum((a - b) ** 2))
        assert flat.metric.dist(a, b) == pytest.approx(expected, abs=1e-12)

    def test_squared_dist_adds_over_components(self):
        rng = np.random.default_rng(10)
        a = self.space.random_point(rng=rng)
        b = self.space.random_point(rng=rng)
        per = self.sphere.metric.squared_dist(a, b)
        assert self.metric.squared_dist(a, b) == pytest.approx(float(np.sum(per)), rel=1e-12)

    def test_cut_locus_on_one_component_fails_log(self):
        a = self.space.random_point(rng=11)
        b = a.copy()
        b[1] = -a[1]  # antipodal landmark
        with pytest.raises(CutLocusError):
            self.metric.log(b, a)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        a = self.space.random_point(20, rng)
        b = self.space.random_point(20, rng)
        logs = self.metric.log(b, a)
        np.testing.assert_allclose(self.metric.exp(logs, a), b, atol=1e-6)

    def test_custom_component_metric(self):
        space = Landmarks(DiscretizedCurves(6, 2), 2)
        metric = LandmarksMetric(space, DiscretizedCurves(6, 2).srv_metric)
        rng = np.random.default_rng(13)
        a = space.random_point(rng=rng)
        b = space.random_point(rng=rng)
        per = DiscretizedCurves(6, 2).srv_metric.squared_dist(a, b)
        assert metric.squared_dist(a, b) == pytest.approx(float(np.sum(per)), rel=1e-12)
