import numpy as np
import pytest

from riemstats.errors import DomainError, ShapeError
from riemstats.geometry import (
    Euclidean,
    Hyperboloid,
    Hypersphere,
    SPDMatrices,
    SpecialOrthogonal,
    orthonormal_tangent_basis,
)
from riemstats.learning import (
    FrechetMean,
    OnlineKMeans,
    RiemannianKMeans,
    TangentPCA,
    frechet_mean,
    frechet_variance,
    riemannian_gradient_descent,
)
from riemstats.learning import kmeans
from riemstats.learning.frechet import karcher_flow

SPHERE = Hypersphere(2)
S_METRIC = SPHERE.metric
FLAT = Euclidean(3)
F_METRIC = FLAT.metric


def sphere_cap(center, radius, n, rng):
    """n points within geodesic distance ``radius`` of ``center``."""
    vecs = S_METRIC.random_tangent(center, n, rng)
    norms = S_METRIC.norm(vecs, center)
    scales = radius * rng.uniform(0.1, 1.0, n) / norms
    return S_METRIC.exp(vecs * scales[:, None], center)


def hyperboloid_clusters(metric, rng, n_clusters=4):
    """5-29 points within 1.2 of each of ``n_clusters`` random centres, and the segment bounds."""
    space = metric.manifold
    sizes = rng.integers(5, 30, n_clusters)
    segments = []
    for center, n in zip(space.random_point(len(sizes), rng), sizes):
        vecs = metric.random_tangent(center, n, rng)
        vecs *= (rng.uniform(0.1, 1.2, n) / metric.norm(vecs, center))[:, None]
        segments.append(metric.exp(vecs, center))
    return np.concatenate(segments), np.concatenate([[0], np.cumsum(sizes)])


def brute_force_sphere_minimizer(data, init, span=0.6, levels=14, grid=9):
    """Variance minimizer by refined grid search over the tangent plane.

    Independent of the Karcher flow: only closed-form exp and dist are used.
    """
    center = np.asarray(init, dtype=float)
    for _ in range(levels):
        basis = orthonormal_tangent_basis(S_METRIC, center)
        offsets = np.linspace(-span, span, grid)
        uu, vv = np.meshgrid(offsets, offsets, indexing="ij")
        tangents = uu[..., None] * basis[0] + vv[..., None] * basis[1]
        candidates = S_METRIC.exp(tangents.reshape(-1, 3), center)
        variances = np.mean(S_METRIC.squared_dist(candidates[:, None], data[None]), axis=-1)
        center = candidates[int(np.argmin(variances))]
        span *= 2.0 / (grid - 1)
    return center


class TestFrechetMean:
    def test_single_point(self):
        point = SPHERE.random_point(rng=0)
        result = frechet_mean(S_METRIC, point[None])
        np.testing.assert_array_equal(result.estimate, point)
        assert result.converged and result.n_iter <= 1

    def test_euclidean_is_arithmetic_mean(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((25, 3))
        result = frechet_mean(F_METRIC, data)
        np.testing.assert_allclose(result.estimate, data.mean(axis=0), atol=1e-12)

    def test_two_sphere_points_meet_at_midpoint(self):
        data = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        result = frechet_mean(S_METRIC, data)
        expected = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
        np.testing.assert_allclose(result.estimate, expected, atol=1e-8)

    def test_cap_matches_brute_force_minimizer(self):
        rng = np.random.default_rng(2)
        center = SPHERE.random_point(rng=rng)
        data = sphere_cap(center, 0.5, 10, rng)
        karcher = frechet_mean(S_METRIC, data, tol=1e-10)
        oracle = brute_force_sphere_minimizer(data, data[0])
        assert float(S_METRIC.dist(karcher.estimate, oracle)) < 1e-5

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(3)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.8, 15, rng)
        tol = 1e-7
        result = frechet_mean(S_METRIC, data, tol=tol)
        assert result.converged
        logs = S_METRIC.log(data, result.estimate)
        assert float(np.linalg.norm(logs.mean(axis=0))) < 10 * tol

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.7, 12, rng)
        rot = SpecialOrthogonal(3).random_point(rng=rng)
        plain = frechet_mean(S_METRIC, data).estimate
        rotated = frechet_mean(S_METRIC, data @ rot.T).estimate
        np.testing.assert_allclose(rotated, rot @ plain, atol=1e-6)

    def test_weighted_flat_mean(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((10, 3))
        weights = rng.uniform(0.1, 2.0, 10)
        result = frechet_mean(F_METRIC, data, weights=weights)
        expected = np.sum(weights[:, None] * data, axis=0) / np.sum(weights)
        np.testing.assert_allclose(result.estimate, expected, atol=1e-12)

    def test_unconverged_flag(self):
        rng = np.random.default_rng(6)
        data = sphere_cap(SPHERE.random_point(rng=rng), 1.0, 30, rng)
        result = frechet_mean(S_METRIC, data, max_iter=1, tol=1e-14)
        assert not result.converged

    def test_variance_evaluated_once_per_candidate(self, monkeypatch):
        calls = {"exp": 0, "squared_dist": 0}
        metric = Hypersphere(2).metric
        plain_exp, plain_squared_dist = metric.exp, metric.squared_dist

        def exp(vec, base):
            calls["exp"] += 1
            return plain_exp(vec, base)

        def squared_dist(*args):
            calls["squared_dist"] += 1
            return plain_squared_dist(*args)

        monkeypatch.setattr(metric, "exp", exp)
        monkeypatch.setattr(metric, "squared_dist", squared_dist)
        rng = np.random.default_rng(8)
        data = sphere_cap(SPHERE.random_point(rng=rng), 1.2, 40, rng)
        result = frechet_mean(metric, data)
        assert result.converged and result.n_iter > 2
        # One evaluation at the start point, then one per line-search candidate.
        assert calls["squared_dist"] == calls["exp"] + 1

    @pytest.mark.parametrize("n_seg", [3, 5])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("step_size", [1.0, 2.5], ids=["stops_apart", "halves"])
    def test_flow_batches_all_segments(self, monkeypatch, n_seg, weighted, step_size):
        """One log per iteration and one squared_dist per line-search round,
        whatever the number of segments; each segment's mean is still its
        own frechet_mean bit for bit."""
        metric = Hypersphere(2).metric
        rng = np.random.default_rng(30)
        sizes = rng.integers(5, 30, n_seg)
        data = np.concatenate(
            [sphere_cap(SPHERE.random_point(rng=rng), 1.2, n, rng) for n in sizes]
        )
        weights = rng.uniform(0.2, 2.0, len(data)) if weighted else None
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        inits = data[bounds[:-1]]
        options = dict(step_size=step_size, max_iter=30, tol=1e-9)
        expected = [
            frechet_mean(
                metric,
                data[a:b],
                None if weights is None else weights[a:b],
                init=data[a],
                **options,
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

        calls = {"exp": 0, "log": 0, "squared_dist": 0}
        for name in calls:
            plain = getattr(metric, name)

            def counted(*args, _name=name, _plain=plain):
                calls[_name] += 1
                return _plain(*args)

            monkeypatch.setattr(metric, name, counted)
        result = karcher_flow(metric, data, bounds, inits, weights, **options)

        if step_size == 1.0:
            # The segments stop at different iterations; a stopped one is frozen.
            assert result.converged.all() and len(set(result.n_iter)) > 1
        else:
            # Steps beyond twice the mean tangent overshoot, so rounds halve.
            assert calls["exp"] > result.n_iter.max()
        assert calls["log"] == result.n_iter.max()
        assert calls["squared_dist"] == calls["exp"] + 1
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("step_size", [1.0, 2.5], ids=["stops_apart", "halves"])
    def test_gradient_flow_batches_all_segments(self, monkeypatch, weighted, step_size):
        """The gradient path of a metric without a Newton hook: one log per
        iteration and one squared_dist per line-search round, whatever the
        number of segments; each segment's mean is its own frechet_mean bit
        for bit."""
        metric = Hyperboloid(2).metric
        assert metric._newton_directions is None
        rng = np.random.default_rng(32)
        data, bounds = hyperboloid_clusters(metric, rng)
        weights = rng.uniform(0.2, 2.0, len(data)) if weighted else None
        options = dict(step_size=step_size, max_iter=40, tol=1e-8)
        expected = [
            frechet_mean(
                metric,
                data[a:b],
                None if weights is None else weights[a:b],
                init=data[a],
                **options,
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

        calls = {"exp": 0, "log": 0, "squared_dist": 0}
        for name in calls:
            plain = getattr(metric, name)

            def counted(*args, _name=name, _plain=plain):
                calls[_name] += 1
                return _plain(*args)

            monkeypatch.setattr(metric, name, counted)
        result = karcher_flow(metric, data, bounds, data[bounds[:-1]], weights, **options)

        if step_size == 1.0:
            assert result.converged.all() and len(set(result.n_iter)) > 1
        else:
            assert calls["exp"] > result.n_iter.max()
        assert calls["log"] == result.n_iter.max()
        assert calls["squared_dist"] == calls["exp"] + 1
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_long_steps_converge_on_every_segment(self, weighted):
        """On the hyperboloid the Hessian of the Frechet function, d coth d,
        exceeds 1, so a step of 2.5 overshoots. Near round-off the line search
        no longer sees the overshoot: restarting every search at the full step
        left 3 of these 4 segments cycling after 100 iterations. A segment
        that has halved and whose mean log then grows starts at half the step."""
        metric = Hyperboloid(2).metric
        rng = np.random.default_rng(32)
        data, bounds = hyperboloid_clusters(metric, rng)
        weights = rng.uniform(0.2, 2.0, len(data)) if weighted else None
        result = karcher_flow(
            metric, data, bounds, data[bounds[:-1]], weights, step_size=2.5, max_iter=40, tol=1e-8
        )
        assert result.converged.all()
        assert np.all(result.final_step_norm < 1e-8)

    @pytest.mark.parametrize("family", ["affine_invariant_metric", "log_euclidean_metric"])
    def test_flow_passes_one_base_when_metric_prefers_it(self, monkeypatch, family):
        """SPD metrics factor every base row they are given, so the flow calls
        them once per segment with that segment's estimate alone; each
        segment's mean is still its own frechet_mean bit for bit."""
        spd = SPDMatrices(3)
        metric = getattr(spd, family)
        assert metric.prefers_shared_base and not S_METRIC.prefers_shared_base
        rng = np.random.default_rng(31)
        sizes = rng.integers(5, 30, 4)
        data = spd.random_point(int(np.sum(sizes)), rng)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        options = dict(max_iter=30, tol=1e-9)
        expected = [
            frechet_mean(metric, data[a:b], init=data[a], **options)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

        base_shapes = {"log": [], "squared_dist": []}
        for name, base_arg in (("log", 1), ("squared_dist", 0)):
            plain = getattr(metric, name)

            def counted(*args, _name=name, _plain=plain, _base_arg=base_arg):
                base_shapes[_name].append(np.shape(args[_base_arg]))
                return _plain(*args)

            monkeypatch.setattr(metric, name, counted)
        result = karcher_flow(metric, data, bounds, data[bounds[:-1]], **options)

        assert result.converged.all()
        assert set(base_shapes["log"]) == set(base_shapes["squared_dist"]) == {(3, 3)}
        assert len(base_shapes["log"]) == result.n_iter.sum()
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

    def test_tight_tolerance_flow_never_halves(self, monkeypatch):
        # At tol=1e-9 the last steps lower the variance by less than its
        # round-off; the line search must not halve them.
        sphere = Hypersphere(5)
        metric = sphere.metric
        calls = {"exp": 0}
        plain_exp = metric.exp

        def exp(vec, base):
            calls["exp"] += 1
            return plain_exp(vec, base)

        rng = np.random.default_rng(0)
        center = sphere.random_point(rng=rng)
        vecs = metric.random_tangent(center, 200, rng)
        vecs *= (rng.uniform(0.1, 1.0, 200) / metric.norm(vecs, center))[:, None]
        data = metric.exp(vecs, center)
        monkeypatch.setattr(metric, "exp", exp)
        result = frechet_mean(metric, data, tol=1e-9)
        assert result.converged and result.n_iter > 2
        # One candidate per iteration that did not stop.
        assert calls["exp"] == result.n_iter - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_hyperboloid_mean_converges_on_the_manifold(self, seed):
        # Without projecting its iterates the flow drifts off the sheet: the
        # steps stall and, for seed 3, exp rejects the mean tangent.
        space = Hyperboloid(3)
        result = frechet_mean(space.metric, space.random_point(100, np.random.default_rng(seed)))
        assert result.converged
        assert space.membership_residual(result.estimate) <= 1e-12

    def test_long_steps_stay_on_the_sphere(self):
        rng = np.random.default_rng(8)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.8, 40, rng)
        result = frechet_mean(S_METRIC, data, step_size=1.9, max_iter=200)
        assert result.converged
        assert SPHERE.membership_residual(result.estimate) <= 1e-12
        unit_step = frechet_mean(S_METRIC, data).estimate
        assert float(S_METRIC.dist(result.estimate, unit_step)) < 1e-6

    def test_estimator_wrapper(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 3))
        est = FrechetMean(F_METRIC).fit(data)
        np.testing.assert_allclose(est.estimate_, data.mean(axis=0), atol=1e-12)
        assert est.variance_ == pytest.approx(
            float(np.mean(np.sum((data - data.mean(0)) ** 2, axis=1))), rel=1e-10
        )

    def test_bad_weights_rejected(self):
        data = np.zeros((3, 3))
        with pytest.raises(ValueError):
            frechet_mean(F_METRIC, data, weights=np.array([1.0, -1.0, 0.5]))


def ring(polar, n=24):
    """``n`` equally spaced points of S^2 at angle ``polar`` from the north pole."""
    azimuth = 2.0 * np.pi * np.arange(n) / n
    return np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
         np.full(n, np.cos(polar))],
        axis=1,
    )


def ball_sample(sphere, rng, n=200):
    """``n`` points within 1 rad of a random point of ``sphere``."""
    metric = sphere.metric
    center = sphere.random_point(rng=rng)
    vecs = metric.random_tangent(center, n, rng)
    vecs *= (rng.uniform(0.1, 1.0, n) / metric.norm(vecs, center))[:, None]
    return metric.exp(vecs, center)


NORTH = np.array([0.0, 0.0, 1.0])
NEAR_NORTH = np.array([np.sin(0.05), 0.0, np.cos(0.05)])


class TestSphereNewton:
    @pytest.mark.parametrize("dim", [2, 5])
    def test_direction_matches_finite_difference_newton_step(self, dim):
        """The hook solves the Newton system of 1/2 sum_i w_i d^2(., p_i),
        whose Hessian here comes from central differences of the Frechet
        variance in normal coordinates at the base point."""
        sphere = Hypersphere(dim)
        metric = sphere.metric
        rng = np.random.default_rng(40 + dim)
        data = ball_sample(sphere, rng, 30)
        weights = rng.uniform(0.2, 2.0, len(data))
        weights /= np.sum(weights)
        base = data[0]
        logs = metric.log(data, base)
        gradient = np.sum(weights[:, None] * logs, axis=0)
        directions, positive = metric._newton_directions([logs], [weights], base[None], gradient[None])
        assert positive.tolist() == [True]
        direction = directions[0]

        basis = orthonormal_tangent_basis(metric, base)

        def half_variance(coords):
            return 0.5 * frechet_variance(metric, data, metric.exp(coords @ basis, base), weights)

        h = 1e-3
        steps = h * np.eye(dim)
        hessian = np.array(
            [
                [
                    half_variance(a + b) - half_variance(a - b)
                    - half_variance(b - a) + half_variance(-a - b)
                    for b in steps
                ]
                for a in steps
            ]
        ) / (4.0 * h**2)
        expected = np.linalg.solve(hessian, basis @ gradient) @ basis
        assert metric.is_tangent(direction, base)
        np.testing.assert_allclose(
            direction, expected, rtol=0, atol=1e-6 * np.linalg.norm(expected)
        )

    def test_converges_where_gradient_flow_crawls(self):
        """At the pole, the Hessian of a ring at 2 rad is 0.042 I: the gradient
        flow contracts by 0.96 per iteration, Newton quadratically."""
        result = frechet_mean(S_METRIC, ring(2.0), tol=1e-9, init=NEAR_NORTH, max_iter=10)
        assert result.converged
        assert float(S_METRIC.dist(result.estimate, NORTH)) < 1e-6

    def test_indefinite_hessian_falls_back_to_gradient_steps(self, monkeypatch):
        """At the pole, the Hessian of a ring at 2.5 rad is negative definite:
        a Newton step would head for that maximum. Gradient steps leave it
        for the minimizer, the south pole."""
        metric = Hypersphere(2).metric
        answers = []
        plain = metric._newton_directions

        def recorded(*args):
            directions, positive = plain(*args)
            answers.append(positive.tolist())
            return directions, positive

        monkeypatch.setattr(metric, "_newton_directions", recorded)
        result = frechet_mean(metric, ring(2.5), tol=1e-9, init=NEAR_NORTH)
        assert result.converged
        assert answers[0] == [False] and answers[-1] == [True]
        assert float(metric.dist(result.estimate, -NORTH)) < 1e-6

    def test_mixed_batch_takes_newton_and_gradient_steps(self, monkeypatch):
        """One hook call covers both segments of a flow. A cap within 1 rad
        has a positive-definite Hessian and takes Newton steps; the ring at
        2.5 rad seen from near its pole has not, and takes the gradient step.
        Each segment's mean is its own frechet_mean bit for bit."""
        sphere = Hypersphere(2)
        metric = sphere.metric
        cap = ball_sample(sphere, np.random.default_rng(44), 30)
        data = np.concatenate([cap, ring(2.5)])
        bounds = [0, len(cap), len(data)]
        inits = np.stack([cap[0], NEAR_NORTH])
        expected = [
            frechet_mean(metric, data[a:b], init=init, tol=1e-9)
            for a, b, init in zip(bounds[:-1], bounds[1:], inits)
        ]

        answers = []
        plain = metric._newton_directions

        def recorded(*args):
            directions, positive = plain(*args)
            answers.append(positive.tolist())
            return directions, positive

        monkeypatch.setattr(metric, "_newton_directions", recorded)
        result = karcher_flow(metric, data, bounds, inits, tol=1e-9)
        assert answers[0] == [True, False]
        assert len(answers) == result.n_iter.max() - 1
        assert result.converged.all()
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

        # After one iteration the ring's segment sits where a gradient step
        # puts it, and the cap's does not.
        newton = karcher_flow(metric, data, bounds, inits, max_iter=1, tol=1e-9)
        monkeypatch.setattr(metric, "_newton_directions", None)
        gradient = karcher_flow(metric, data, bounds, inits, max_iter=1, tol=1e-9)
        np.testing.assert_array_equal(newton.estimate[1], gradient.estimate[1])
        assert not np.allclose(newton.estimate[0], gradient.estimate[0], rtol=0, atol=1e-6)

    def test_tight_tolerance_takes_few_iterations(self):
        # The sample of test_tight_tolerance_flow_never_halves, on which
        # gradient steps took 11 iterations.
        sphere = Hypersphere(5)
        data = ball_sample(sphere, np.random.default_rng(0))
        result = frechet_mean(sphere.metric, data, tol=1e-9)
        assert result.converged and result.n_iter <= 5


class TestFrechetVariance:
    def test_zero_when_all_equal(self):
        point = SPHERE.random_point(rng=8)
        data = np.tile(point, (5, 1))
        assert frechet_variance(S_METRIC, data, point) < 1e-20

    def test_flat_variance_is_covariance_trace(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((40, 3))
        mean = data.mean(axis=0)
        expected = float(np.trace((data - mean).T @ (data - mean) / len(data)))
        assert frechet_variance(F_METRIC, data, mean) == pytest.approx(expected, rel=1e-12)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(10)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.6, 10, rng)
        mean = frechet_mean(S_METRIC, data).estimate
        rot = SpecialOrthogonal(3).random_point(rng=rng)
        assert frechet_variance(S_METRIC, data @ rot.T, rot @ mean) == pytest.approx(
            frechet_variance(S_METRIC, data, mean), rel=1e-10
        )


class TestTangentPCA:
    def test_flat_matches_classical_pca(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((30, 3)) @ np.diag([3.0, 1.0, 0.2])
        mean = data.mean(axis=0)
        model = TangentPCA(F_METRIC).fit(data, base_point=mean)
        centered = data - mean
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(data))
        np.testing.assert_allclose(
            model.explained_variance_, eigvals[::-1], atol=1e-10
        )
        for j in range(3):
            dot = abs(float(np.dot(model.components_[j], eigvecs[:, 2 - j])))
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_single_geodesic_data(self):
        rng = np.random.default_rng(12)
        base = SPHERE.random_point(rng=rng)
        direction = S_METRIC.random_tangent(base, rng=rng)
        direction = direction / S_METRIC.norm(direction, base)
        ts = rng.uniform(-0.7, 0.7, 15)
        data = S_METRIC.exp(ts[:, None] * direction, base)
        model = TangentPCA(S_METRIC, n_components=2).fit(data, base_point=base)
        assert model.explained_variance_ratio_[0] > 0.999

    def test_full_rank_variance_total(self):
        rng = np.random.default_rng(13)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 20, rng)
        model = TangentPCA(S_METRIC).fit(data)
        logs = S_METRIC.log(data, model.base_point_)
        centered = logs - logs.mean(axis=0)
        total = float(np.mean(np.sum(centered**2, axis=-1)))
        assert float(np.sum(model.explained_variance_)) == pytest.approx(total, abs=1e-10)

    def test_transform_of_base_point(self):
        rng = np.random.default_rng(14)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.4, 12, rng)
        base = data[0]
        model = TangentPCA(S_METRIC, n_components=2).fit(data, base_point=base)
        coords = model.transform(base)
        expected = -S_METRIC.inner_product(
            model.mean_tangent_[None], model.components_, base
        )
        np.testing.assert_allclose(coords, expected, atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(15)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 10, rng)
        model = TangentPCA(S_METRIC).fit(data)
        recovered = model.inverse_transform(model.transform(data))
        np.testing.assert_allclose(recovered, data, atol=1e-8)

    def test_column_variances_match_eigenvalues(self):
        rng = np.random.default_rng(16)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.6, 25, rng)
        model = TangentPCA(S_METRIC).fit(data)
        coords = model.transform(data)
        np.testing.assert_allclose(coords.var(axis=0), model.explained_variance_, atol=1e-8)

    def test_components_metric_orthonormal(self):
        rng = np.random.default_rng(17)
        from riemstats.geometry import SPDMatrices

        spd = SPDMatrices(2)
        metric = spd.affine_invariant_metric
        base = spd.random_point(rng=rng)
        vecs = 0.5 * metric.random_tangent(base, 15, rng)
        data = metric.exp(vecs, base)
        model = TangentPCA(metric).fit(data, base_point=base)
        gram = metric.inner_product(
            model.components_[:, None], model.components_[None], base
        )
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_too_many_components_rejected(self):
        with pytest.raises(ShapeError):
            TangentPCA(S_METRIC, n_components=3).fit(SPHERE.random_point(4, rng=18))


class TestKMeans:
    def test_single_cluster_is_frechet_mean(self):
        rng = np.random.default_rng(19)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 12, rng)
        km = RiemannianKMeans(S_METRIC, 1, seed=0).fit(data)
        mean = frechet_mean(S_METRIC, data, tol=1e-9).estimate
        np.testing.assert_allclose(km.centroids_[0], mean, atol=1e-6)

    def test_k_equals_n(self):
        rng = np.random.default_rng(20)
        data = SPHERE.random_point(8, rng)
        km = RiemannianKMeans(S_METRIC, 8, seed=1).fit(data)
        assert km.inertia_ < 1e-16
        assert sorted(km.labels_.tolist()) == list(range(8))

    def test_separates_antipodal_caps(self):
        rng = np.random.default_rng(21)
        north = np.array([0.0, 0.0, 1.0])
        cap_a = sphere_cap(north, 0.5, 20, rng)
        cap_b = -sphere_cap(north, 0.5, 20, rng)
        data = np.concatenate([cap_a, cap_b])
        km = RiemannianKMeans(S_METRIC, 2, seed=0).fit(data)
        labels = km.labels_
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(22)
        data = SPHERE.random_point(40, rng)
        km = RiemannianKMeans(S_METRIC, 4, seed=3).fit(data)
        assert np.all(np.diff(km.inertia_history_) <= 1e-12)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(23)
        data = SPHERE.random_point(30, rng)
        a = RiemannianKMeans(S_METRIC, 3, seed=5).fit(data)
        b = RiemannianKMeans(S_METRIC, 3, seed=5).fit(data)
        np.testing.assert_array_equal(a.centroids_, b.centroids_)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_predict_matches_labels(self):
        rng = np.random.default_rng(24)
        data = SPHERE.random_point(25, rng)
        km = RiemannianKMeans(S_METRIC, 3, seed=7).fit(data)
        np.testing.assert_array_equal(km.predict(data), km.labels_)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            RiemannianKMeans(S_METRIC, 5).fit(SPHERE.random_point(3, rng=25))

    @pytest.mark.parametrize(
        "manifold, metric",
        [
            (Hypersphere(5), Hypersphere(5).metric),
            (SPDMatrices(3), SPDMatrices(3).affine_invariant_metric),
            (SpecialOrthogonal(3), SpecialOrthogonal(3).bi_invariant_metric),
        ],
        ids=["sphere5", "spd3", "so3"],
    )
    @pytest.mark.parametrize("empty_start", [False, True], ids=["seeded", "emptied"])
    def test_centroids_equal_per_cluster_frechet_means(self, manifold, metric, empty_start):
        """Each Lloyd step equals, bit for bit, a frechet_mean per cluster
        started at the previous centroid, or the farthest-point re-seed of an
        emptied cluster."""
        rng = np.random.default_rng(28)
        data = manifold.random_point(45, rng)

        def fit(max_iter):
            km = RiemannianKMeans(metric, 3, max_iter=max_iter, seed=4)
            if empty_start:
                # The third centroid is a copy of the first, so ties leave it empty.
                km._seed_centroids = lambda points, _: points[[0, 1, 0]].copy()
            return km.fit(data)

        previous = fit(0)
        for n_steps in range(1, 5):
            current = fit(n_steps)
            sq = kmeans._pairwise_sq_dist(metric, data, previous.centroids_)
            for k in range(3):
                members = data[previous.labels_ == k]
                if len(members) == 0:
                    expected = data[np.argmax(sq[:, k])]
                else:
                    expected = frechet_mean(
                        metric,
                        members,
                        init=previous.centroids_[k],
                        tol=current.mean_tol,
                        max_iter=current.mean_max_iter,
                    ).estimate
                np.testing.assert_array_equal(current.centroids_[k], expected)
            previous = current
        if empty_start:
            assert np.sum(fit(0).labels_ == 2) == 0


@pytest.mark.parametrize("per_call", [3, 2, 1])
def test_pairwise_sq_dist_broadcast_equals_loop(space_case, per_call, monkeypatch):
    rng = np.random.default_rng(29)
    points, others, _ = space_case.random_triples(7, rng)
    centroids = others[:3]
    point_size = int(np.prod(space_case.manifold.point_shape))
    monkeypatch.setattr(kmeans, "_BROADCAST_ELEMENTS", per_call * 7 * point_size)
    loop = np.stack([space_case.metric.squared_dist(c, points) for c in centroids], axis=-1)
    broadcast = kmeans._pairwise_sq_dist(space_case.metric, points, centroids)
    assert broadcast.shape == (7, 3)
    assert np.array_equal(broadcast, loop)


class TestOnlineKMeans:
    def test_first_samples_fill_empty_centroids(self):
        model = OnlineKMeans(F_METRIC, 2)
        model.partial_fit(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(model.centroids_[0], [1.0, 0.0, 0.0])
        assert model.counts_.tolist() == [1, 0]

    def test_flat_stream_tracks_running_means(self):
        rng = np.random.default_rng(26)
        cluster_a = rng.standard_normal((30, 3)) + np.array([10.0, 0.0, 0.0])
        cluster_b = rng.standard_normal((30, 3)) - np.array([10.0, 0.0, 0.0])
        stream = np.empty((60, 3))
        stream[0::2] = cluster_a
        stream[1::2] = cluster_b
        model = OnlineKMeans(F_METRIC, 2).fit(stream)
        np.testing.assert_allclose(model.centroids_[0], cluster_a.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.centroids_[1], cluster_b.mean(axis=0), atol=1e-12)
        assert model.counts_.tolist() == [30, 30]

    def test_repeated_sample_monotone_convergence(self):
        rng = np.random.default_rng(27)
        model = OnlineKMeans(S_METRIC, 1)
        model.partial_fit(SPHERE.random_point(rng=rng))
        target = SPHERE.random_point(rng=rng)
        dists = []
        for _ in range(20):
            model.partial_fit(target)
            dists.append(float(S_METRIC.dist(model.centroids_[0], target)))
        assert np.all(np.diff(dists) <= 1e-12)

    def test_cut_locus_sample_is_rejected(self):
        model = OnlineKMeans(S_METRIC, 1)
        model.partial_fit(np.array([1.0, 0.0, 0.0]))
        model.partial_fit(np.array([-1.0, 0.0, 0.0]))
        assert model.n_rejected_ == 1
        assert model.counts_.tolist() == [1]
        np.testing.assert_array_equal(model.centroids_[0], [1.0, 0.0, 0.0])


    def test_hyperboloid_stream_keeps_centroids_on_the_manifold(self):
        space = Hyperboloid(3)
        rng = np.random.default_rng(0)
        spatial = 2.0 * rng.standard_normal((300, 3))
        tangents = np.concatenate([np.zeros((300, 1)), spatial], axis=-1)
        model = OnlineKMeans(space.metric, 3)
        worst = 0.0
        for point in space.metric.exp(tangents, space.origin()):
            model.partial_fit(point)
            filled = model.centroids_[model.counts_ > 0]
            worst = max(worst, float(np.max(space.membership_residual(filled))))
        assert model.n_rejected_ == 0
        assert worst <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_fit_counts_a_cut_locus_sample_as_rejected(self):
        stream = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = OnlineKMeans(S_METRIC, 1).fit(stream)
        assert model.n_rejected_ == 1
        assert model.counts_.tolist() == [2]

    def test_partial_fit_takes_exactly_one_point(self):
        """A batch is not a point: it used to fill a slot with a batch-shaped centroid."""
        model = OnlineKMeans(S_METRIC, 2)
        with pytest.raises(ShapeError):
            model.partial_fit(SPHERE.random_point(3, rng=32))
        with pytest.raises(ShapeError):
            model.partial_fit(np.ones(4))
        assert model.centroids_ is None
        assert model.counts_.tolist() == [0, 0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_partial_fit_rejects_a_non_finite_first_point(self, bad):
        """It used to become a non-finite centroid."""
        model = OnlineKMeans(S_METRIC, 2)
        with pytest.raises(DomainError) as info:
            model.partial_fit(np.array([bad, 0.0, 1.0]))
        assert type(info.value) is DomainError
        assert model.centroids_ is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_online_kmeans_rejects_a_non_finite_sample_before_any_update(space_case, bad):
    """Exactly DomainError, as from the public ops, and the model is left unfitted."""
    points = space_case.random_points(6, np.random.default_rng(63))
    points[4].flat[0] = bad
    model = OnlineKMeans(space_case.metric, 2)
    with pytest.raises(DomainError) as info:
        model.fit(points)
    assert type(info.value) is DomainError
    assert model.centroids_ is None
    assert model.n_rejected_ == 0 and not model.counts_.any()


def test_online_kmeans_rejects_a_wrong_shape(space_case):
    """ShapeError for a wrong trailing shape, and for a batch where one point
    belongs or one point where a batch belongs."""
    points = space_case.random_points(4, np.random.default_rng(64))
    model = OnlineKMeans(space_case.metric, 2)
    for call, arg in [
        (model.fit, points[..., :-1]),
        (model.fit, points[0]),
        (model.fit, points[None]),
        (model.partial_fit, points[0, ..., :-1]),
        (model.partial_fit, points),
    ]:
        with pytest.raises(ShapeError):
            call(arg)
    assert model.centroids_ is None


class TestGradientDescent:
    def test_linear_field_reaches_minus_a(self):
        a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        start = np.array([1.0, -0.3, 0.1])
        start = start / np.linalg.norm(start)
        result = riemannian_gradient_descent(
            SPHERE, lambda x: float(np.dot(a, x)), lambda x: a, start
        )
        assert result.converged and result.n_iter <= 200
        assert float(S_METRIC.dist(result.point, -a)) < 1e-6

    def test_constant_field_stops_immediately(self):
        start = SPHERE.random_point(rng=28)
        result = riemannian_gradient_descent(
            SPHERE, lambda x: 1.0, lambda x: np.zeros(3), start
        )
        assert result.n_iter == 0 and result.converged
        np.testing.assert_array_equal(result.point, start)

    def test_squared_distance_field(self):
        rng = np.random.default_rng(29)
        target = SPHERE.random_point(rng=rng)
        start = SPHERE.random_point(rng=rng)

        def fun(x):
            return 0.5 * float(S_METRIC.squared_dist(x, target))

        def grad(x):
            return -S_METRIC.log(target, x)

        result = riemannian_gradient_descent(SPHERE, fun, grad, start, learning_rate=0.5)
        assert float(S_METRIC.dist(result.point, target)) < 1e-6
        # Along the way the Riemannian gradient is exactly -log_x(target).
        mid = result.points[min(3, len(result.points) - 1)]
        np.testing.assert_allclose(
            SPHERE.to_tangent(grad(mid), mid), -S_METRIC.log(target, mid), atol=1e-6
        )

    def test_values_non_increasing(self):
        a = np.array([0.2, -0.5, 0.8])
        a = a / np.linalg.norm(a)
        start = SPHERE.random_point(rng=30)
        result = riemannian_gradient_descent(
            SPHERE, lambda x: float(np.dot(a, x)), lambda x: a, start, learning_rate=0.9
        )
        assert np.all(np.diff(result.values) <= 1e-12)

    def test_projected_gradient_matches_finite_differences(self):
        a = np.array([0.3, 0.7, -0.2])
        fun = lambda x: float(np.dot(a, x))
        x = SPHERE.random_point(rng=31)
        riem_grad = SPHERE.to_tangent(a, x)
        basis = orthonormal_tangent_basis(S_METRIC, x)
        h = 1e-6
        for direction in basis:
            fd = (fun(S_METRIC.exp(h * direction, x)) - fun(S_METRIC.exp(-h * direction, x))) / (
                2 * h
            )
            assert float(np.dot(riem_grad, direction)) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_raises_domain_error(self, bad):
        a = np.array([0.3, 0.7, -0.2])
        with pytest.raises(DomainError) as info:
            riemannian_gradient_descent(
                SPHERE, lambda x: float(np.dot(a, x)), lambda x: a, np.array([bad, 0.6, 0.8])
            )
        assert type(info.value) is DomainError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_domain_error(self, bad):
        start = SPHERE.random_point(rng=33)
        with pytest.raises(DomainError) as info:
            riemannian_gradient_descent(
                SPHERE, lambda x: 0.0, lambda x: np.array([bad, 1.0, 0.0]), start
            )
        assert type(info.value) is DomainError

    @pytest.mark.parametrize(
        "start, gradient",
        [
            (np.array([0.0, 0.0, 0.0, 1.0]), np.ones(3)),
            (SPHERE.random_point(2, rng=34), np.ones(3)),
            (np.array([0.0, 0.0, 1.0]), np.ones(4)),
            (np.array([0.0, 0.0, 1.0]), np.ones((2, 3))),
        ],
        ids=["start_trailing", "start_batch", "gradient_trailing", "gradient_batch"],
    )
    def test_wrong_shape_raises_shape_error(self, start, gradient):
        """Checked before the gradient is projected: not numpy's ValueError."""
        with pytest.raises(ShapeError):
            riemannian_gradient_descent(SPHERE, lambda x: 0.0, lambda x: gradient, start)

    @pytest.mark.parametrize("callback", ["fun", "grad"])
    def test_callbacks_keep_their_float_warnings(self, callback):
        """Only the hooks run with float warnings silenced, not the user's fields."""
        a = np.array([0.3, 0.7, -0.2])

        def overflow():
            return np.exp(np.float64(1000.0))

        def fun(x):
            if callback == "fun":
                overflow()
            return float(np.dot(a, x))

        def grad(x):
            if callback == "grad":
                overflow()
            return a

        with pytest.warns(RuntimeWarning, match="overflow"):
            riemannian_gradient_descent(SPHERE, fun, grad, SPHERE.random_point(rng=35), max_iter=3)
