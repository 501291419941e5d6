import numpy as np
import pytest

from riemstats.errors import ConvergenceError, DomainError, ShapeError
from riemstats.geometry import (
    Euclidean,
    Hyperboloid,
    Hypersphere,
    SPDMatrices,
    SpecialOrthogonal,
    orthonormal_tangent_basis,
)
from riemstats.geometry.euclidean import EuclideanMetric
from riemstats.geometry.sphere import SphereMetric
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
        calls = {"_exp": 0, "_log_and_squared_dist": 0}
        metric = Hypersphere(2).metric
        plain_exp, plain_fused = metric._exp, metric._log_and_squared_dist

        def exp(vec, base):
            calls["_exp"] += 1
            return plain_exp(vec, base)

        def fused(*args):
            calls["_log_and_squared_dist"] += 1
            return plain_fused(*args)

        monkeypatch.setattr(metric, "_exp", exp)
        monkeypatch.setattr(metric, "_log_and_squared_dist", fused)
        rng = np.random.default_rng(8)
        data = sphere_cap(SPHERE.random_point(rng=rng), 1.2, 40, rng)
        result = frechet_mean(metric, data)
        assert result.converged and result.n_iter > 2
        # One evaluation at the start point, then one per line-search candidate.
        assert calls["_log_and_squared_dist"] == calls["_exp"] + 1

    @pytest.mark.parametrize("n_seg", [3, 5])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("step_size", [1.0, 2.5], ids=["stops_apart", "halves"])
    def test_flow_batches_all_segments(self, monkeypatch, n_seg, weighted, step_size):
        """One log-and-distance call at the start and one per line-search
        round, whatever the number of segments, and no public log or
        squared_dist; each segment's mean is still its own frechet_mean bit
        for bit."""
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

        calls = {"_exp": 0, "log": 0, "squared_dist": 0, "_log_and_squared_dist": 0}
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
            assert calls["_exp"] > result.n_iter.max()
        assert calls["log"] == calls["squared_dist"] == 0
        assert calls["_log_and_squared_dist"] == calls["_exp"] + 1
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("step_size", [1.0, 2.5], ids=["stops_apart", "halves"])
    def test_gradient_flow_batches_all_segments(self, monkeypatch, weighted, step_size):
        """The gradient path of a metric without a Newton hook: one
        log-and-distance call at the start and one per line-search round,
        whatever the number of segments, and no public log or squared_dist;
        each segment's mean is its own frechet_mean bit for bit."""
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

        calls = {"_exp": 0, "log": 0, "squared_dist": 0, "_log_and_squared_dist": 0}
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
            assert calls["_exp"] > result.n_iter.max()
        assert calls["log"] == calls["squared_dist"] == 0
        assert calls["_log_and_squared_dist"] == calls["_exp"] + 1
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

        base_shapes = []
        plain = metric._log_and_squared_dist

        def counted(point, base_point):
            base_shapes.append(np.shape(base_point))
            return plain(point, base_point)

        monkeypatch.setattr(metric, "_log_and_squared_dist", counted)
        result = karcher_flow(metric, data, bounds, data[bounds[:-1]], **options)

        assert result.converged.all()
        assert set(base_shapes) == {(3, 3)}
        assert len(base_shapes) == result.n_iter.sum()
        for s, mean in enumerate(expected):
            np.testing.assert_array_equal(result.estimate[s], mean.estimate)
            assert result.n_iter[s] == mean.n_iter

    def test_tight_tolerance_flow_never_halves(self, monkeypatch):
        # At tol=1e-9 the last steps lower the variance by less than its
        # round-off; the line search must not halve them.
        sphere = Hypersphere(5)
        metric = sphere.metric
        calls = {"_exp": 0}
        plain_exp = metric._exp

        def exp(vec, base):
            calls["_exp"] += 1
            return plain_exp(vec, base)

        rng = np.random.default_rng(0)
        center = sphere.random_point(rng=rng)
        vecs = metric.random_tangent(center, 200, rng)
        vecs *= (rng.uniform(0.1, 1.0, 200) / metric.norm(vecs, center))[:, None]
        data = metric.exp(vecs, center)
        monkeypatch.setattr(metric, "_exp", exp)
        result = frechet_mean(metric, data, tol=1e-9)
        assert result.converged and result.n_iter > 2
        # One candidate per iteration that did not stop.
        assert calls["_exp"] == result.n_iter - 1

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

    @pytest.mark.parametrize(
        "metric, rtol",
        [(SPHERE.metric, 0.0), (Hyperboloid(2).metric, 0.0),
         (SPDMatrices(3).log_euclidean_metric, 0.0),
         (SPDMatrices(3).affine_invariant_metric, 1e-14)],
        ids=["sphere", "hyperboloid", "spd_log_euclidean", "spd_affine"],
    )
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("max_iter", [64, 0], ids=["converged", "no_step"])
    def test_fit_takes_the_variance_from_the_flow(self, monkeypatch, metric, rtol, weighted,
                                                  max_iter):
        """``variance_`` is the flow's variance at the estimate, with no
        distance call after the flow: ``frechet_variance``'s value, bit for
        bit where the flow's fused hook shares ``_squared_dist``'s
        arithmetic. The affine SPD hook takes it from ``eigh``'s eigenvalues,
        ``_squared_dist`` from ``eigvalsh``'s."""
        from riemstats.learning import frechet

        rng = np.random.default_rng(31)
        center = metric.manifold.random_point(rng=rng)
        vecs = metric.random_tangent(center, 25, rng)
        scales = rng.uniform(0.1, 0.8, 25) / metric.norm(vecs, center)
        points = metric.exp(vecs * scales.reshape((-1,) + (1,) * center.ndim), center)
        weights = rng.uniform(0.2, 2.0, 25) if weighted else None
        plain_flow = frechet.karcher_flow

        def no_distance(*args):
            raise AssertionError("a distance after the flow")

        def flow(*args, **kwargs):
            result = plain_flow(*args, **kwargs)
            for name in ("squared_dist", "_squared_dist", "_log_and_squared_dist"):
                monkeypatch.setattr(metric, name, no_distance)
            return result

        monkeypatch.setattr(frechet, "karcher_flow", flow)
        model = FrechetMean(metric, max_iter=max_iter).fit(points, weights)
        monkeypatch.undo()
        assert model.converged_ == (max_iter > 0)
        expected = frechet_variance(metric, points, model.estimate_, weights)
        np.testing.assert_allclose(model.variance_, expected, rtol=rtol, atol=0.0)

    def test_bad_weights_rejected(self):
        data = np.zeros((3, 3))
        with pytest.raises(ValueError):
            frechet_mean(F_METRIC, data, weights=np.array([1.0, -1.0, 0.5]))


def run_flow(kind, metric, points, init):
    """``frechet_mean`` from ``init``, or a two-segment ``karcher_flow`` whose
    segments both start at ``init``."""
    if kind == "frechet_mean":
        return frechet_mean(metric, points, init=init)
    return karcher_flow(metric, points, [0, 3, len(points)], np.stack([init, init]))


@pytest.mark.parametrize("kind", ["frechet_mean", "karcher_flow"])
class TestFlowEntryChecks:
    """The flow checks its points and starting estimates once, on entry, with
    the errors of the public ops."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point(self, kind, bad):
        rng = np.random.default_rng(40)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 6, rng)
        data[4, 1] = bad
        with pytest.raises(DomainError):
            run_flow(kind, S_METRIC, data, data[0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_init(self, kind, bad):
        rng = np.random.default_rng(41)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 6, rng)
        init = data[0].copy()
        init[2] = bad
        with pytest.raises(DomainError):
            run_flow(kind, S_METRIC, data, init)

    def test_wrong_trailing_shape(self, kind):
        rng = np.random.default_rng(42)
        data = sphere_cap(SPHERE.random_point(rng=rng), 0.5, 6, rng)
        with pytest.raises(ShapeError):
            run_flow(kind, S_METRIC, data[:, :2], data[0, :2])
        with pytest.raises(ShapeError):
            run_flow(kind, S_METRIC, data, np.append(data[0], 0.0))

    def test_spd_point_that_is_not_positive_definite(self, kind):
        spd = SPDMatrices(3)
        data = spd.random_point(6, np.random.default_rng(43))
        data[4] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(DomainError):
            run_flow(kind, spd.metric, data, data[0])


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
        directions, positive = metric._newton_directions(
            [logs], [[]], [weights], base[None], gradient[None]
        )
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


def spd_newton_inputs(metric, base, points, weights):
    """The Newton hook's inputs for one segment, the logs and extras from the flow's hook."""
    logs, _, *extras = metric._log_and_squared_dist(points, base)
    return [logs], [extras], [weights], base[None], np.tensordot(weights, logs, axes=1)[None]


class TestSPDNewton:
    def test_commuting_data_lands_in_one_step(self):
        """Diagonal points seen from a diagonal start, with repeated
        eigenvalues: the Hessian is the identity on diagonal directions, so
        one step lands on exp(mean log), and the next iteration stops."""
        spd = SPDMatrices(4)
        rng = np.random.default_rng(46)
        spectra = np.exp(rng.uniform(-1.0, 1.0, (25, 4)))
        spectra[:, 1] = spectra[:, 0]
        spectra[::3, 3] = spectra[::3, 2]
        weights = rng.uniform(0.2, 2.0, 25)
        init = np.diag([2.0, 2.0, 0.5, 0.5])
        result = frechet_mean(
            spd.affine_invariant_metric, spectra[:, None, :] * np.eye(4), weights, init=init
        )
        expected = np.diag(np.exp(np.average(np.log(spectra), axis=0, weights=weights)))
        assert result.converged and result.n_iter == 2
        np.testing.assert_allclose(
            result.estimate, expected, rtol=0, atol=1e-13 * np.abs(expected).max()
        )

    def test_directions_are_congruence_equivariant(self):
        """P -> A P A^T is an isometry, so it maps the Newton direction D at X
        to the one at A X A^T: A D A^T."""
        spd = SPDMatrices(4)
        metric = spd.affine_invariant_metric
        rng = np.random.default_rng(47)
        points = spd.random_point(30, rng)
        base = spd.random_point(1, rng)
        weights = rng.uniform(0.2, 2.0, 30)
        weights /= np.sum(weights)
        a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        direction = metric._newton_directions(*spd_newton_inputs(metric, base, points, weights))[0]
        moved = metric._newton_directions(
            *spd_newton_inputs(metric, a @ base @ a.T, a @ points @ a.T, weights)
        )[0]
        expected = a @ direction[0] @ a.T
        assert np.linalg.norm(moved[0] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_newton_mean_matches_a_tight_gradient_mean(self, monkeypatch):
        spd = SPDMatrices(5)
        metric = spd.affine_invariant_metric
        points = spd.random_point(200, np.random.default_rng(48))
        result = frechet_mean(metric, points)
        monkeypatch.setattr(metric, "_newton_directions", None)
        reference = frechet_mean(metric, points, tol=1e-12, max_iter=200)
        assert result.converged and reference.converged
        assert result.n_iter <= 5 < reference.n_iter
        assert float(metric.dist(result.estimate, reference.estimate)) <= 1e-10

    def test_directions_solve_the_explicit_hessian(self):
        """The matrix-free solve against the Hessian written out as an
        (n^2, n^2) matrix from the same formula, on spread SPD(6) data at a
        point away from their mean."""
        spd = SPDMatrices(6)
        metric = spd.affine_invariant_metric
        rng = np.random.default_rng(50)
        points = spd.random_point(40, rng)
        base = spd.random_point(1, rng)
        weights = rng.uniform(0.2, 2.0, 40)
        weights /= np.sum(weights)
        inputs = spd_newton_inputs(metric, base, points, weights)
        direction = metric._newton_directions(*inputs)[0][0]

        low = np.linalg.cholesky(base)
        inv_low = np.linalg.inv(low)
        log_w, v = np.linalg.eigh(inv_low @ inputs[0][0] @ inv_low.T)
        half_gap = 0.5 * (log_w[:, :, None] - log_w[:, None, :])
        safe = np.where(half_gap == 0.0, 1.0, half_gap)
        kernel = np.where(half_gap == 0.0, 1.0, safe / np.tanh(safe))
        # vec(v_i^T D v_i) = kron(v_i, v_i)^T vec(D), row-major vec.
        kron = np.einsum("iap,ibq->iabpq", v, v).reshape(40, 36, 36)
        hessian = np.einsum("i,iap,ip,ibp->ab", weights, kron, kernel.reshape(40, 36), kron)
        rhs = inv_low @ inputs[4][0] @ inv_low.T
        expected = low @ np.linalg.solve(hessian, rhs.reshape(36)).reshape(6, 6) @ low.T
        assert np.linalg.norm(direction - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_hook_memory_is_linear_in_the_points_times_n_squared(self):
        """On SPD(40) a Hessian written out would take (1600, 1600) floats,
        20 MB; the hook's peak stays within a few (points, n, n) arrays."""
        import tracemalloc

        spd = SPDMatrices(40)
        metric = spd.affine_invariant_metric
        rng = np.random.default_rng(51)
        points = spd.random_point(20, rng)
        inputs = spd_newton_inputs(metric, spd.random_point(1, rng), points, np.full(20, 0.05))
        tracemalloc.start()
        try:
            directions = metric._newton_directions(*inputs)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(directions).all()
        assert peak <= 12 * points.nbytes

    def test_flow_decomposes_each_log_batch_once(self, monkeypatch):
        """Over a whole ``frechet_mean`` on SPD(5), each ``_log_and_squared_dist``
        call makes one stacked ``eigh`` of all the points, and
        ``_newton_directions`` makes none: it takes the eigenpairs that call
        returned."""
        spd = SPDMatrices(5)
        metric = spd.affine_invariant_metric
        points = spd.random_point(40, np.random.default_rng(49))
        made = {"_log_and_squared_dist": [], "_newton_directions": []}  # eigh shapes per call
        inside = [None]  # the list of the hook call running, if any
        plain_eigh = np.linalg.eigh

        def counted(mat, *args, **kwargs):
            if inside[0] is not None:
                inside[0].append(np.shape(mat))
            return plain_eigh(mat, *args, **kwargs)

        def recorded(name, plain):
            def hook(*args):
                made[name].append([])
                inside[0] = made[name][-1]
                try:
                    return plain(*args)
                finally:
                    inside[0] = None
            return hook

        for name in made:
            monkeypatch.setattr(metric, name, recorded(name, getattr(metric, name)))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        result = frechet_mean(metric, points)
        monkeypatch.undo()
        fused, newton = made["_log_and_squared_dist"], made["_newton_directions"]
        assert result.converged and len(newton) == result.n_iter - 1 >= 2
        assert fused == [[(40, 5, 5)]] * len(fused)
        assert newton == [[]] * len(newton)


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

    def test_fit_takes_one_batch(self):
        """A single point raised a numpy broadcast ValueError."""
        with pytest.raises(ShapeError):
            TangentPCA(S_METRIC, 1).fit(SPHERE.random_point(rng=33))


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
        "n_clusters, points",
        [(2, SPHERE.random_point(rng=30)), (1, SPHERE.random_point(rng=31)),
         (2, SPHERE.random_point(6, rng=32).reshape(2, 3, 3))],
        ids=["point-k2", "point-k1", "two-batch-axes"],
    )
    def test_fit_takes_one_batch(self, n_clusters, points):
        """A single point raised TypeError or ValueError, a (2, 3, 3) batch ValueError."""
        with pytest.raises(ShapeError):
            RiemannianKMeans(S_METRIC, n_clusters).fit(points)

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
                        tol=kmeans._MEAN_TOL,
                        max_iter=kmeans._MEAN_MAX_ITER,
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


def _labels_everywhere(metric, points, centroids):
    """The nearest-centroid labels of ``fit`` (seeded at ``centroids``, no
    Lloyd step), ``predict`` and ``OnlineKMeans``, with the ``argmin`` of
    ``_pairwise_sq_dist``, for each of ``points``."""
    k = len(centroids)
    model = RiemannianKMeans(metric, k, max_iter=0)
    model._seed_centroids = lambda points, rng: centroids.copy()
    model.fit(points)
    online = []
    for point in points:
        stream = OnlineKMeans(metric, k)
        stream.centroids_ = centroids.copy()
        stream.counts_[:] = 1
        stream.partial_fit(point)
        assert stream.n_rejected_ == 0
        online.append(int(np.argmax(stream.counts_)))
    expected = np.argmin(kmeans._pairwise_sq_dist(metric, points, centroids), axis=-1)
    return expected, [model.labels_, model.predict(points), np.array(online)]


class TestNearestCentroids:
    """The sphere's Gram-product ``_nearest`` never changes a label: fit,
    predict and online K-means take the ``argmin`` of ``_pairwise_sq_dist``,
    ties to the lowest index, whatever the hook certifies."""

    def test_norm_drift_that_reverses_the_gram_order(self):
        """c1 = (1 + 5e-9) x and c2 at 1e-9 rad from x both belong; the Gram
        product prefers c1 by 5e-9, the distances prefer c2."""
        x = np.array([1.0, 0.0, 0.0])
        centroids = np.array([(1.0 + 5e-9) * x, [np.cos(1e-9), np.sin(1e-9), 0.0]])
        assert np.all(SPHERE.belongs(centroids))
        assert np.argmax(centroids @ x) == 0
        _, certain = S_METRIC._nearest(x[None], centroids)
        assert not certain[0]
        points = np.stack([x, SPHERE.random_point(rng=40)])
        expected, found = _labels_everywhere(S_METRIC, points, centroids)
        assert expected[0] == 1
        for labels in found:
            np.testing.assert_array_equal(labels, expected)

    def test_duplicate_centroids_go_to_the_lowest_index(self):
        rng = np.random.default_rng(41)
        a, b = SPHERE.random_point(2, rng)
        points = np.concatenate([SPHERE.random_point(20, rng), [a, -a, b]])
        expected, found = _labels_everywhere(S_METRIC, points, np.stack([a, b, a]))
        assert 2 not in expected and 0 in expected
        for labels in found:
            np.testing.assert_array_equal(labels, expected)

    def test_near_ties(self):
        """Points whose two Gram entries differ by 1e-17 to 1e-11: the bound
        on S^2 is near 5e-14, so some rows are certain and some are not."""
        rng = np.random.default_rng(42)
        a, b = SPHERE.random_point(2, rng)
        offsets = np.geomspace(1e-17, 1e-11, 24) * np.where(np.arange(24) % 2, 1.0, -1.0)
        points = SPHERE.project((a + b) + offsets[:, None] * (a - b) / np.dot(a - b, a - b))
        gaps = np.abs(points @ a - points @ b)
        assert gaps.min() < 1e-15 and gaps.max() > 1e-12
        _, certain = S_METRIC._nearest(points, np.stack([a, b]))
        assert certain.any() and not certain.all()
        expected, found = _labels_everywhere(S_METRIC, points, np.stack([a, b]))
        for labels in found:
            np.testing.assert_array_equal(labels, expected)

    def test_one_centroid(self):
        rng = np.random.default_rng(43)
        points = SPHERE.random_point(6, rng)
        expected, found = _labels_everywhere(S_METRIC, points, SPHERE.random_point(1, rng)[None])
        for labels in found:
            np.testing.assert_array_equal(labels, expected)
            assert not labels.any()

    def test_antipodal_sample(self):
        rng = np.random.default_rng(44)
        x, c = SPHERE.random_point(2, rng)
        points = np.stack([x, -c])
        expected, found = _labels_everywhere(S_METRIC, points, np.stack([-x, c]))
        np.testing.assert_array_equal(expected, [1, 0])
        for labels in found:
            np.testing.assert_array_equal(labels, expected)

    def test_certain_rows_under_norm_drift(self):
        """Centroids whose norms drift by up to 1e-9 (they still belong),
        points near every bisector: each certain row is the ``argmin``."""
        space = Hypersphere(5)
        rng = np.random.default_rng(45)
        centroids = space.random_point(4, rng) * (1.0 + rng.uniform(-1e-9, 1e-9, (4, 1)))
        pairs = rng.integers(4, size=(600, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        a, b = centroids[pairs[:, 0]], centroids[pairs[:, 1]]
        signs = rng.choice([-1.0, 1.0], (len(pairs), 1))
        offsets = signs * 10.0 ** rng.uniform(-17, -3, (len(pairs), 1))
        points = space.project(a + b + offsets * (a - b))
        labels, certain = space.metric._nearest(points, centroids)
        expected = np.argmin(kmeans._pairwise_sq_dist(space.metric, points, centroids), axis=-1)
        assert 0.1 < certain.mean() < 0.9
        np.testing.assert_array_equal(labels[certain], expected[certain])

    def test_no_row_is_certain_off_the_sphere(self):
        """A point of norm 2 makes every row go through the distances."""
        points = np.array([[2.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        centroids = np.eye(3)[:2]
        _, certain = S_METRIC._nearest(points, centroids)
        assert not certain.any()
        expected = np.argmin(kmeans._pairwise_sq_dist(S_METRIC, points, centroids), axis=-1)
        model = RiemannianKMeans(S_METRIC, 2, max_iter=0)
        model._seed_centroids = lambda points, rng: centroids.copy()
        np.testing.assert_array_equal(model.fit(points).labels_, expected)
        np.testing.assert_array_equal(model.predict(points), expected)

    @pytest.mark.parametrize("empty_start", [False, True], ids=["seeded", "emptied"])
    def test_hook_path_equals_the_distance_path_bit_for_bit(self, empty_start, monkeypatch):
        space = Hypersphere(5)
        rng = np.random.default_rng(46)
        data = space.random_point(300, rng)
        stream = space.random_point(120, rng)

        def run():
            model = RiemannianKMeans(space.metric, 4, seed=2)
            if empty_start:
                # The fourth centroid is a copy of the first, so ties leave it empty.
                model._seed_centroids = lambda points, _: points[[0, 1, 2, 0]].copy()
            model.fit(data)
            online = OnlineKMeans(space.metric, 4).fit(stream)
            return model, [
                model.centroids_, model.labels_, model.inertia_history_, model.predict(stream),
                online.centroids_, online.counts_, online.predict(data),
            ]

        model, hook = run()
        assert model.n_iter_ > 1
        assert space.metric._nearest(data, model.centroids_)[1].mean() > 0.9
        monkeypatch.setattr(SphereMetric, "_nearest", None)
        _, distances = run()
        for a, b in zip(hook, distances):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


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

    @pytest.mark.parametrize("space", ["sphere", "spd"])
    def test_predict_uses_only_clusters_with_a_sample(self, space):
        """The empty slots hold zeros: on the sphere the nearest one won, and
        on SPD(2) the zero matrix raised DomainError."""
        if space == "sphere":
            metric, first = S_METRIC, np.array([0.0, 0.0, 1.0])
            points = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        else:
            metric, first = SPDMatrices(2).metric, np.eye(2)
            points = np.array([np.diag([4.0, 0.5]), [[2.0, 0.5], [0.5, 1.0]]])
        model = OnlineKMeans(metric, 3)
        model.partial_fit(first)
        assert model.predict(points).tolist() == [0, 0]

    def test_predict_before_any_sample_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one fitted sample"):
            OnlineKMeans(S_METRIC, 2).predict(np.array([[0.0, 0.0, 1.0]]))


def _per_sample(metric, k, stream, model=None):
    """The reference fit: ``_update`` on one sample at a time, float warnings silenced."""
    model = OnlineKMeans(metric, k) if model is None else model
    with np.errstate(all="ignore"):
        for point in np.asarray(stream, dtype=float):
            model._update(point)
    return model


def _assert_same_fit(fitted, reference, points):
    np.testing.assert_array_equal(fitted.centroids_, reference.centroids_)
    np.testing.assert_array_equal(fitted.counts_, reference.counts_)
    assert fitted.n_rejected_ == reference.n_rejected_
    np.testing.assert_array_equal(fitted.predict(points), reference.predict(points))


class _FlaggedRows:
    """A test metric whose ``_exp`` raises ``error`` when any row steps
    mostly along the last axis; ``raised`` records the rows of each such call."""

    def __init__(self, manifold, error=DomainError):
        super().__init__(manifold)
        self.error = error
        self.raised = []

    def _exp(self, tangent_vec, base_point):
        if np.any(tangent_vec[..., -1] > 0.5 * np.linalg.norm(tangent_vec, axis=-1)):
            self.raised.append(tangent_vec.size // tangent_vec.shape[-1])
            raise self.error("flagged row")
        return super()._exp(tangent_vec, base_point)


class _FlaggedSphereMetric(_FlaggedRows, SphereMetric):
    pass


class _FlaggedEuclideanMetric(_FlaggedRows, EuclideanMetric):
    pass


def _flagged_stream(space, n, flagged, rng):
    """``n`` samples of three clusters in the plane of the first two axes;
    those at index ``flagged`` move off it, so that their step from any
    centroid in the plane points mostly along the last axis."""
    angles = rng.choice([0.0, 2.0, 4.0], n) + 0.2 * rng.standard_normal(n)
    stream = np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=-1)
    if space == "sphere":
        stream[flagged] = [0.0, 0.0, 1.0]
    else:
        stream *= 10.0
        stream[flagged, -1] = 100.0
    return stream


_STREAM_SPACES = {"sphere": (SPHERE, _FlaggedSphereMetric), "flat": (FLAT, _FlaggedEuclideanMetric)}


def test_online_kmeans_fit_equals_the_per_sample_path(space_case, monkeypatch):
    """Bit for bit on a seeded stream of every catalog space, and most
    samples skip the one-row step."""
    stream = space_case.random_points(150, np.random.default_rng(70))
    reference = _per_sample(space_case.metric, 4, stream)
    one_row = []
    update = OnlineKMeans._update
    monkeypatch.setattr(OnlineKMeans, "_update", lambda self, x: one_row.append(update(self, x)))
    fitted = OnlineKMeans(space_case.metric, 4).fit(stream)
    assert len(one_row) < len(stream) // 4
    _assert_same_fit(fitted, reference, stream)


@pytest.mark.parametrize("space", ["sphere", "flat"])
class TestOnlineKMeansRounds:
    """``fit`` in verified rounds equals ``_update`` sample by sample, bit for
    bit, on streams that make the rounds' guessed labels wrong, stop short
    of a chunk, or reject samples inside a round."""

    def check(self, metric, k, stream, split=None):
        fitted = OnlineKMeans(metric, k)
        for part in np.split(stream, [] if split is None else [split]):
            fitted.fit(part)
        _assert_same_fit(fitted, _per_sample(metric, k, stream), stream)
        return fitted

    def test_near_ties(self, space):
        """Samples within 1e-17 to 1e-11 of the bisector of the first two
        centroids, interleaved with random samples."""
        manifold, _ = _STREAM_SPACES[space]
        rng = np.random.default_rng(71)
        a, b = manifold.random_point(2, rng)
        offsets = np.geomspace(1e-17, 1e-11, 60) * np.where(np.arange(60) % 2, 1.0, -1.0)
        ties = (a + b) / 2.0 + offsets[:, None] * (a - b)
        if space == "sphere":
            ties = SPHERE.project(ties)
        stream = np.concatenate([[a, b], ties])
        stream[2::3] = manifold.random_point(len(stream[2::3]), rng)
        self.check(manifold.metric, 2, stream)

    def test_duplicate_centroids(self, space):
        """The first and third slots hold the same sample."""
        manifold, _ = _STREAM_SPACES[space]
        rng = np.random.default_rng(72)
        a, b = manifold.random_point(2, rng)
        near = np.empty((80, 3))
        if space == "sphere":
            near[0::2], near[1::2] = sphere_cap(a, 0.3, 40, rng), sphere_cap(b, 0.3, 40, rng)
        else:
            near[0::2], near[1::2] = a, b
            near += 0.1 * rng.standard_normal((80, 3))
        near[:6:2] = a  # equally near the first and third centroids
        self.check(manifold.metric, 3, np.concatenate([[a, b, a], near]))

    def test_one_centroid(self, space):
        manifold, _ = _STREAM_SPACES[space]
        self.check(manifold.metric, 1, manifold.random_point(70, np.random.default_rng(73)))

    @pytest.mark.parametrize("extra", [-1, 1, 160], ids=["short", "longer", "long"])
    def test_stream_lengths(self, space, extra):
        """After the two fills, one sample short of a chunk, one past it, or many chunks."""
        manifold, _ = _STREAM_SPACES[space]
        stream = manifold.random_point(2 + kmeans._CHUNK + extra, np.random.default_rng(74))
        self.check(manifold.metric, 2, stream)

    def test_fill_ends_in_a_later_call(self, space):
        """The first call fills two of four slots; the second fills the rest, then streams."""
        manifold, _ = _STREAM_SPACES[space]
        self.check(manifold.metric, 4, manifold.random_point(90, np.random.default_rng(75)), 2)

    def test_rejections_inside_multi_row_rounds(self, space):
        manifold, flagged = _STREAM_SPACES[space]
        stream = _flagged_stream(space, 150, slice(3, None, 4), np.random.default_rng(76))
        metric = flagged(manifold)
        fitted = self.check(metric, 3, stream)
        assert fitted.n_rejected_ >= 30
        assert max(metric.raised) > 1

    def test_an_uncaught_error_leaves_the_per_sample_state(self, space):
        """A ``ConvergenceError`` is no rejection: ``fit`` raises it at the
        sample where the per-sample path does, with that path's state."""
        manifold, flagged = _STREAM_SPACES[space]
        stream = _flagged_stream(space, 80, [60], np.random.default_rng(77))
        reference = OnlineKMeans(flagged(manifold, ConvergenceError), 3)
        with pytest.raises(ConvergenceError):
            _per_sample(reference.metric, 3, stream, reference)
        metric = flagged(manifold, ConvergenceError)
        fitted = OnlineKMeans(metric, 3)
        with pytest.raises(ConvergenceError):
            fitted.fit(stream)
        assert metric.raised[0] > 1  # first raised inside a round, then replayed
        assert fitted.counts_.sum() == 60
        _assert_same_fit(fitted, reference, stream)


@pytest.mark.parametrize("k", [64, 128])
def test_online_kmeans_rounds_memory_stays_within_the_broadcast_cap(k, monkeypatch):
    """On SPD(16) the ``_BROADCAST_ELEMENTS`` cap allows chunks of two
    samples with k = 64 and of one with k = 128: the fit still equals the
    per-sample path, and its tracemalloc peak exceeds that path's by at most
    the (k, 16, 16) temporaries of the chunk's samples."""
    import tracemalloc

    spd = SPDMatrices(16)
    metric = spd.affine_invariant_metric
    stream = spd.random_point(k + 30, np.random.default_rng(78))
    chunk = kmeans._BROADCAST_ELEMENTS // (k * 256)
    rounds = []  # the chunk sizes
    fit_rounds = OnlineKMeans._rounds
    monkeypatch.setattr(
        OnlineKMeans, "_rounds", lambda self, c: rounds.append(len(c)) or fit_rounds(self, c)
    )

    def peak(fit):
        tracemalloc.start()
        try:
            return fit(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    reference, reference_peak = peak(lambda: _per_sample(metric, k, stream))
    fitted, fitted_peak = peak(lambda: OnlineKMeans(metric, k).fit(stream))
    assert max(rounds, default=1) == chunk
    _assert_same_fit(fitted, reference, stream)
    assert fitted_peak <= reference_peak + chunk * k * 256 * 8


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
