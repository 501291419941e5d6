"""Contracts every (manifold, metric) pair must satisfy.

Smaller-sample versions of the acceptance suite, run per space for
pinpointed failures: exp/log round-trips inside the injectivity bound,
metric axioms on sampled triples, geodesic speed constancy, transport
isometry, the transport argument contract, batch-equals-loop consistency,
the input contract of the public point ops (shape, finiteness) and the
projection.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from riemstats.errors import DomainError, GeometryError, MembershipError, ShapeError
from riemstats.geometry import Manifold, RiemannianMetric, numerical
from riemstats.learning import OnlineKMeans, riemannian_gradient_descent

from conftest import ALL_CASES


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
    """Exactly one of direction / end_point, both agree, and a batch of either equals its loop."""
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

    ends = metric.exp(directions, base)
    batched = metric.parallel_transport(vec, base, end_point=ends)
    assert batched.shape == (3,) + tuple(metric.tangent_shape)
    looped = np.stack([metric.parallel_transport(vec, base, end_point=e) for e in ends])
    np.testing.assert_allclose(batched, looped, atol=1e-12)


@pytest.mark.parametrize("name", ["euclidean3", "minkowski3", "curves_l2", "curves_srv"])
def test_flat_transport_keeps_the_base_batch(name):
    """A flat transport is the identity, yet its result carries the base points'
    batch axes, as the end-point form and every curved metric's result do."""
    case = next(case for case in ALL_CASES if case.name == name)
    rng = np.random.default_rng(62)
    bases = case.random_points(4, rng)
    vec = case.scaled_tangents(bases[0], 1, rng)[0]
    for target in ({"direction": vec}, {"end_point": bases[0]}):
        out = case.metric.parallel_transport(vec, bases, **target)
        np.testing.assert_array_equal(out, np.broadcast_to(vec, (4,) + vec.shape))

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


def test_transport_hooks_take_the_initial_velocity():
    """Every ``_transport`` takes a direction; base.py turns an end point into one."""
    offenders = [
        sub.__qualname__
        for sub in _all_subclasses(RiemannianMetric)
        if "_transport" in vars(sub)
        and list(inspect.signature(vars(sub)["_transport"]).parameters)
        != ["self", "tangent_vec", "base_point", "direction"]
    ]
    assert offenders == []


def test_only_cheaper_end_point_forms_override_transport_to():
    """The default ``_transport_to`` is ``_transport`` of the log; only a
    cheaper closed form in the end point, or a forward to one, replaces it."""
    overriders = sorted(
        sub.__qualname__
        for sub in _all_subclasses(RiemannianMetric)
        if "_transport_to" in vars(sub)
    )
    assert overriders == ["LandmarksMetric", "SPDAffineMetric", "SPDLogEuclideanMetric"]


@pytest.mark.parametrize("by", ["direction", "end_point"])
def test_closed_form_transports_never_reach_the_ladder(space_case, by, monkeypatch):
    if not space_case.has_transport:
        pytest.skip("this space transports by the ladder")

    def ladder(*args, **kwargs):
        raise AssertionError("the pole ladder ran")

    monkeypatch.setattr(numerical, "transport_by_ladder", ladder)
    base, vec, end = _exp_log_inputs(space_case, 60)
    target = {"direction": vec, "end_point": end}[by]
    out = space_case.metric.parallel_transport(vec, base, **{by: target})
    assert out.shape == tuple(space_case.metric.tangent_shape)


def test_streaming_estimators_never_reach_the_public_ops(space_case, monkeypatch):
    """Online K-means and gradient descent check their data once, then call the
    hooks: no public op runs per sample or per iteration."""
    metric, manifold = space_case.metric, space_case.manifold
    rng = np.random.default_rng(65)
    points = space_case.random_points(12, rng)
    start = space_case.random_point(rng)
    a = rng.standard_normal(manifold.point_shape)

    def public(*args, **kwargs):
        raise AssertionError("a public op ran")

    for op in ("exp", "log", "squared_dist", "inner_product"):
        monkeypatch.setattr(metric, op, public)
    model = OnlineKMeans(metric, 2).fit(points)
    assert model.counts_.sum() + model.n_rejected_ == len(points)
    if metric.tangent_shape != manifold.point_shape or not space_case.true_metric:
        return  # descent follows an ambient gradient under a positive-definite metric
    result = riemannian_gradient_descent(
        manifold, lambda x: float(np.sum(a * x)), lambda x: a, start, metric=metric,
        learning_rate=0.01, max_iter=3,
    )
    assert result.n_iter >= 1


def test_no_metric_overrides_exp_or_log():
    """Closed forms go in the ``_exp``, ``_log``, ``_squared_dist`` and
    ``_inner_product`` hooks, behind the base checks.

    Binding the inherited method itself under the subclass is not an override.
    Minkowski's ``dist`` is the one exception: its squared interval is
    negative on timelike separations, which have no real distance.
    """
    offenders = [
        f"{sub.__qualname__}.{op}"
        for sub in _all_subclasses(RiemannianMetric)
        for op in ("exp", "log", "squared_dist", "dist", "inner_product")
        if vars(sub).get(op, vars(RiemannianMetric)[op]) is not vars(RiemannianMetric)[op]
    ]
    assert offenders == ["MinkowskiMetric.dist"]


def test_no_manifold_overrides_membership_residual_or_belongs():
    """Residuals go in the ``_membership_residual`` hook, behind the base checks."""
    offenders = [
        f"{sub.__qualname__}.{op}"
        for sub in _all_subclasses(Manifold)
        for op in ("membership_residual", "belongs")
        if op in vars(sub)
    ]
    assert offenders == []


SRC = Path(__file__).resolve().parents[1] / "src" / "riemstats"


def test_no_np_linalg_norm_outside_linalg():
    """Trailing-axis norms go through ``linalg.norm``: one einsum contraction,
    the same kernel for a batch as for each of its rows."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "linalg.py" and "np.linalg.norm(" in path.read_text()
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
@pytest.mark.parametrize(
    "op", ["exp", "log", "squared_dist", "dist", "inner_product", "transport_direction",
           "transport_end"]
)
@pytest.mark.parametrize("where", ["nan_base", "nan_argument", "inf_base"])
def test_non_finite_input_raises_domain_error(space_case, op, where):
    """Exactly ``DomainError``: not a subclass, a LinAlgError, a NaN result, or a
    finite result from a hook that ignores the bad input."""
    base, vec, point = _exp_log_inputs(space_case, 56)
    argument = vec if op in ("exp", "inner_product", "transport_direction") else point
    if where == "nan_argument":
        argument = _with_first_entry(argument, np.nan)
    else:
        base = _with_first_entry(base, np.nan if where == "nan_base" else np.inf)
    metric = space_case.metric
    with pytest.raises(DomainError) as info:
        if op == "inner_product":
            metric.inner_product(argument, vec, base)
        elif op == "transport_direction":
            metric.parallel_transport(vec, base, direction=argument)
        elif op == "transport_end":
            metric.parallel_transport(vec, base, end_point=argument)
        else:
            getattr(metric, op)(argument, base)
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
    with pytest.raises(ShapeError):
        space_case.metric.dist(point[..., :-1], base)
    with pytest.raises(ShapeError):
        space_case.metric.inner_product(vec[..., :-1], vec, base)
    with pytest.raises(ShapeError):
        space_case.metric.inner_product(vec, vec, base[..., :-1])
    with pytest.raises(ShapeError):
        space_case.manifold.membership_residual(point[..., :-1])
    with pytest.raises(ShapeError):
        space_case.manifold.belongs(point[..., :-1])


@pytest.mark.parametrize(
    "op", ["exp", "log", "squared_dist", "dist", "inner_product", "transport_direction",
           "transport_end"]
)
def test_batches_that_do_not_broadcast_raise_shape_error(space_case, op):
    """Batches of 2 and 3 raise ShapeError naming both batch shapes: not a numpy
    ValueError, nor a result shaped by the operands the hook happens to read."""
    rng = np.random.default_rng(61)
    metric = space_case.metric
    bases = space_case.random_points(2, rng)
    points = space_case.random_points(3, rng)
    vecs = space_case.scaled_tangents(bases[0], 3, rng)
    calls = {
        "exp": lambda: metric.exp(vecs, bases),
        "log": lambda: metric.log(points, bases),
        "squared_dist": lambda: metric.squared_dist(points, bases),
        "dist": lambda: metric.dist(points, bases),
        "inner_product": lambda: metric.inner_product(vecs, vecs, bases),
        "transport_direction": lambda: metric.parallel_transport(vecs[0], bases, direction=vecs),
        "transport_end": lambda: metric.parallel_transport(vecs[0], bases, end_point=points),
    }
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2,\)|\(2,\).*\(3,\)"):
        calls[op]()


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


def test_repeated_base_is_bit_identical(space_case):
    """The segmented Karcher flow takes each row at its own segment's
    estimate, repeated per row; log and squared_dist must then give the
    bits of the shared-base calls that one segment alone makes."""
    points = space_case.random_triples(12, np.random.default_rng(52))[0]
    bases, rows = points[:2], np.split(points[2:], [4])
    repeated = np.concatenate([np.repeat(b[None], len(r), axis=0) for b, r in zip(bases, rows)])
    metric = space_case.metric
    shared_log = np.concatenate([metric.log(r, b) for b, r in zip(bases, rows)])
    shared_sq = np.concatenate([metric.squared_dist(b, r) for b, r in zip(bases, rows)])
    assert np.array_equal(metric.log(np.concatenate(rows), repeated), shared_log)
    assert np.array_equal(metric.squared_dist(repeated, np.concatenate(rows)), shared_sq)


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
    """``belongs`` is False exactly on the rows with a non-finite entry, whose
    residual is inf, without warnings."""
    manifold = space_case.manifold
    points = space_case.random_points(5, np.random.default_rng(60))
    assert not manifold.belongs(np.full(manifold.point_shape, bad))
    assert manifold.membership_residual(np.full(manifold.point_shape, bad)) == np.inf
    mixed = points.copy()
    mixed[1] = bad
    mixed[3].flat[-1] = bad
    np.testing.assert_array_equal(manifold.belongs(mixed), [True, False, True, False, True])
    np.testing.assert_array_equal(manifold.membership_residual(mixed)[[1, 3]], [np.inf, np.inf])
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
