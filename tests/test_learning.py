import numpy as np
import pytest

from riemstats.errors import ShapeError
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
        from riemstats.learning import frechet

        calls = {"exp": 0, "variance": 0}
        metric = Hypersphere(2).metric
        plain_exp, plain_variance = metric.exp, frechet.frechet_variance

        def exp(vec, base):
            calls["exp"] += 1
            return plain_exp(vec, base)

        def variance(*args):
            calls["variance"] += 1
            return plain_variance(*args)

        monkeypatch.setattr(metric, "exp", exp)
        monkeypatch.setattr(frechet, "frechet_variance", variance)
        rng = np.random.default_rng(8)
        data = sphere_cap(SPHERE.random_point(rng=rng), 1.2, 40, rng)
        result = frechet_mean(metric, data)
        assert result.converged and result.n_iter > 2
        # One evaluation at the start point, then one per line-search candidate.
        assert calls["variance"] == calls["exp"] + 1

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
