"""Contracts every (manifold, metric) pair must satisfy.

Smaller-sample versions of the acceptance suite, run per space for
pinpointed failures: exp/log round-trips inside the injectivity bound,
metric axioms on sampled triples, geodesic speed constancy, transport
isometry, the transport argument contract, batch-equals-loop consistency,
the exp/log input contract (shape, finiteness) and the projection.
"""

import numpy as np
import pytest

from riemstats.errors import DomainError, GeometryError, MembershipError, ShapeError
from riemstats.geometry import RiemannianMetric


def test_round_trip(space_case):
    rng = np.random.default_rng(42)
    case = space_case
    base = case.random_points(10, rng)
    vecs = case.scaled_tangents(base, 10, rng)
    logs_back = case.metric.log(case.metric.exp(vecs, base), base)
    assert np.max(np.abs(logs_back - vecs)) < 1e-6


def test_exp_lands_on_manifold(space_case):
    rng = np.random.default_rng(43)
    case = space_case
    base = case.random_points(10, rng)
    vecs = case.scaled_tangents(base, 10, rng)
    points = case.metric.exp(vecs, base)
    assert np.max(case.manifold.membership_residual(points)) < 1e-8


def test_dist_identity(space_case):
    rng = np.random.default_rng(44)
    points = space_case.random_points(20, rng)
    if not space_case.true_metric:
        pytest.skip("no positive-definite distance on this space")
    assert np.max(space_case.metric.dist(points, points)) < 1e-10


def test_dist_symmetry_and_triangle(space_case):
    if not space_case.true_metric:
        pytest.skip("no positive-definite distance on this space")
    rng = np.random.default_rng(45)
    case = space_case
    a, b, c = case.random_triples(50, rng)
    d_ab = case.metric.dist(a, b)
    assert np.all(d_ab > 0)  # distinct random draws are separated
    np.testing.assert_allclose(d_ab, case.metric.dist(b, a), atol=1e-8)
    d_ac = case.metric.dist(a, c)
    d_cb = case.metric.dist(c, b)
    assert np.all(d_ab <= d_ac + d_cb + 1e-8)


def test_geodesic_constant_speed(space_case):
    rng = np.random.default_rng(46)
    case = space_case
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    curve = case.metric.geodesic(base, initial_tangent_vec=vec)
    ts = np.linspace(0.0, 1.0, 11)
    points = curve(ts)
    if not case.true_metric:
        pytest.skip("speed needs a distance")
    seg = case.metric.dist(points[:-1], points[1:])
    spread = (np.max(seg) - np.min(seg)) / np.mean(seg)
    assert spread < 1e-4


def test_exp_scaling_matches_geodesic(space_case):
    rng = np.random.default_rng(47)
    case = space_case
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    curve = case.metric.geodesic(base, initial_tangent_vec=vec)
    for t in (0.0, 0.25, 0.5, 1.0):
        np.testing.assert_allclose(
            curve(t), case.metric.exp(t * vec, base), atol=1e-8
        )


def test_parallel_transport_isometry(space_case):
    case = space_case
    if not case.has_transport:
        pytest.skip("transport not exposed for this space")
    rng = np.random.default_rng(48)
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    other = case.scaled_tangents(base, 1, rng)[0]
    direction = case.scaled_tangents(base, 1, rng)[0]
    end = case.metric.exp(direction, base)
    moved_v = case.metric.parallel_transport(vec, base, direction=direction)
    moved_w = case.metric.parallel_transport(other, base, direction=direction)
    before = case.metric.inner_product(vec, other, base)
    after = case.metric.inner_product(moved_v, moved_w, end)
    assert abs(float(after) - float(before)) < 1e-6 * max(1.0, abs(float(before)))


def test_parallel_transport_contract(space_case):
    """Exactly one of direction / end_point, both agree, and a batch equals its loop."""
    rng = np.random.default_rng(55)
    case = space_case
    metric = case.metric
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    directions = case.scaled_tangents(base, 3, rng)
    end = metric.exp(directions[0], base)
    with pytest.raises(ValueError):
        metric.parallel_transport(vec, base)
    with pytest.raises(ValueError):
        metric.parallel_transport(vec, base, direction=directions[0], end_point=end)

    by_direction = metric.parallel_transport(vec, base, direction=directions[0])
    by_end = metric.parallel_transport(vec, base, end_point=end)
    np.testing.assert_allclose(by_end, by_direction, atol=1e-8)

    batched = metric.parallel_transport(vec, base, direction=directions)
    assert batched.shape == (3,) + tuple(metric.tangent_shape)
    looped = np.stack([metric.parallel_transport(vec, base, direction=d) for d in directions])
    np.testing.assert_allclose(batched, looped, atol=1e-12)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_no_metric_overrides_parallel_transport():
    """Closed forms go in the ``_transport`` hook, behind the base argument checks."""
    offenders = [
        sub.__qualname__
        for sub in _all_subclasses(RiemannianMetric)
        if "parallel_transport" in vars(sub)
    ]
    assert offenders == []


def test_no_metric_overrides_exp_or_log():
    """Closed forms go in the ``_exp``/``_log`` hooks, behind the base checks.

    Binding the inherited method itself under the subclass is not an override.
    """
    offenders = [
        f"{sub.__qualname__}.{op}"
        for sub in _all_subclasses(RiemannianMetric)
        for op in ("exp", "log")
        if vars(sub).get(op, vars(RiemannianMetric)[op]) is not vars(RiemannianMetric)[op]
    ]
    assert offenders == []


def _exp_log_inputs(case, seed):
    """A base point, a tangent vector at it and the point it reaches."""
    rng = np.random.default_rng(seed)
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    return base, vec, case.metric.exp(vec, base)


def _with_first_entry(array, value):
    out = np.array(array, dtype=float)
    out.flat[0] = value
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", ["exp", "log"])
@pytest.mark.parametrize("where", ["nan_base", "nan_argument", "inf_base"])
def test_non_finite_input_raises_domain_error(space_case, op, where):
    """Exactly ``DomainError``: not a subclass, a LinAlgError or a NaN result."""
    base, vec, point = _exp_log_inputs(space_case, 56)
    argument = vec if op == "exp" else point
    if where == "nan_argument":
        argument = _with_first_entry(argument, np.nan)
    else:
        base = _with_first_entry(base, np.nan if where == "nan_base" else np.inf)
    with pytest.raises(DomainError) as info:
        getattr(space_case.metric, op)(argument, base)
    assert type(info.value) is DomainError
    assert info.value.code == "domain_error"


def test_wrong_trailing_shape_raises_shape_error(space_case):
    base, vec, point = _exp_log_inputs(space_case, 57)
    with pytest.raises(ShapeError):
        space_case.metric.exp(vec[..., :-1], base)
    with pytest.raises(ShapeError):
        space_case.metric.log(point[..., :-1], base)
    with pytest.raises(ShapeError):
        space_case.metric.log(point, base[..., :-1])


def test_project_keeps_members_and_restores_perturbed_points(space_case):
    rng = np.random.default_rng(58)
    manifold = space_case.manifold
    points = space_case.random_points(10, rng)
    np.testing.assert_allclose(manifold.project(points), points, rtol=0.0, atol=1e-12)
    perturbed = points + 1e-6 * rng.standard_normal(points.shape)
    assert np.max(manifold.membership_residual(manifold.project(perturbed))) <= 1e-12


def test_empty_batch_gives_empty_result(space_case):
    rng = np.random.default_rng(59)
    metric = space_case.metric
    base = space_case.random_point(rng)
    points = space_case.random_points(2, rng)[:0]
    vecs = space_case.scaled_tangents(base, 2, rng)[:0]
    point_shape, tangent_shape = space_case.manifold.point_shape, metric.tangent_shape
    assert metric.exp(vecs, base).shape == (0,) + point_shape
    assert metric.log(points, base).shape == (0,) + tangent_shape
    assert metric.dist(points, base).shape == (0,)
    assert metric.parallel_transport(vecs, base, direction=vecs).shape == (0,) + tangent_shape
    assert metric.parallel_transport(vecs, base, end_point=points).shape == (0,) + tangent_shape


def test_batch_matches_loop(space_case):
    rng = np.random.default_rng(49)
    case = space_case
    base = case.random_points(8, rng)
    vecs = case.scaled_tangents(base, 8, rng)
    batched_exp = case.metric.exp(vecs, base)
    looped_exp = np.stack(
        [case.metric.exp(vecs[i], base[i]) for i in range(len(base))]
    )
    np.testing.assert_allclose(batched_exp, looped_exp, atol=1e-12)

    batched_log = case.metric.log(batched_exp, base)
    looped_log = np.stack(
        [case.metric.log(batched_exp[i], base[i]) for i in range(len(base))]
    )
    np.testing.assert_allclose(batched_log, looped_log, atol=1e-12)

    if case.true_metric:
        batched_dist = case.metric.dist(base, batched_exp)
        looped_dist = np.array(
            [case.metric.dist(base[i], batched_exp[i]) for i in range(len(base))]
        )
        np.testing.assert_allclose(batched_dist, looped_dist, atol=1e-12)


def test_single_base_broadcasts_over_batch(space_case):
    rng = np.random.default_rng(50)
    case = space_case
    base = case.random_point(rng)
    vecs = case.scaled_tangents(base, 6, rng)
    batched = case.metric.exp(vecs, base)
    looped = np.stack([case.metric.exp(v, base) for v in vecs])
    np.testing.assert_allclose(batched, looped, atol=1e-12)


def test_injectivity_radius_positive(space_case):
    rng = np.random.default_rng(51)
    base = space_case.random_point(rng)
    assert float(space_case.metric.injectivity_radius(base)) > 0


def test_random_points_belong(space_case):
    rng = np.random.default_rng(52)
    points = space_case.random_points(20, rng)
    assert np.max(space_case.manifold.membership_residual(points)) < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_do_not_belong(space_case, bad):
    """``belongs`` is False exactly on the rows with a non-finite entry, without warnings."""
    manifold = space_case.manifold
    points = space_case.random_points(5, np.random.default_rng(60))
    assert not manifold.belongs(np.full(manifold.point_shape, bad))
    mixed = points.copy()
    mixed[1] = bad
    mixed[3].flat[-1] = bad
    np.testing.assert_array_equal(manifold.belongs(mixed), [True, False, True, False, True])
    assert not np.any(manifold.belongs(mixed[[1, 3]]))
    with pytest.raises(MembershipError):
        manifold.check_point(mixed)


def test_tangent_projection_is_idempotent(space_case):
    rng = np.random.default_rng(53)
    case = space_case
    base = case.random_point(rng)
    vec = case.metric.random_tangent(base, rng=rng)
    assert np.all(case.metric.is_tangent(vec, base, atol=1e-8))
    reproj = case.metric.to_tangent(vec, base)
    np.testing.assert_allclose(reproj, vec, atol=1e-12)


def test_norm_of_log_matches_dist(space_case):
    if not space_case.true_metric:
        pytest.skip("no positive-definite distance on this space")
    rng = np.random.default_rng(54)
    case = space_case
    base = case.random_point(rng)
    vec = case.scaled_tangents(base, 1, rng)[0]
    target = case.metric.exp(vec, base)
    try:
        log = case.metric.log(target, base)
    except GeometryError:
        pytest.skip("log unavailable for this draw")
    assert float(case.metric.norm(log, base)) == pytest.approx(
        float(case.metric.dist(base, target)), abs=1e-6
    )
