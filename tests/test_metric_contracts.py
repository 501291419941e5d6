"""Contracts every (manifold, metric) pair must satisfy.

Smaller-sample versions of the acceptance suite, run per space for
pinpointed failures: exp/log round-trips inside the injectivity bound,
metric axioms on sampled triples, geodesic speed constancy, transport
isometry, the transport argument contract, batch-equals-loop consistency,
the input contract of the public point ops (shape, finiteness) and the
projection.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from riemstats import linalg
from riemstats.errors import DomainError, GeometryError, MembershipError, ShapeError, TangencyError
from riemstats import geometry
from riemstats.geometry import Manifold, RiemannianMetric, SPDMatrices, numerical
from riemstats.geometry.base import ATOL, orthonormal_tangent_basis
from riemstats.learning import (
    OnlineKMeans,
    RiemannianKMeans,
    TangentPCA,
    frechet_mean,
    frechet_variance,
    riemannian_gradient_descent,
)
from riemstats.learning.frechet import karcher_flow

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


def test_poincare_ball_never_reaches_the_hyperboloid(monkeypatch):
    """The ball computes in its own coordinates: no public ball op calls a
    hyperboloid hook."""
    from riemstats.geometry import HyperboloidMetric

    case = next(case for case in ALL_CASES if case.name == "poincare_ball2")
    metric = case.metric
    base, vec, end = _exp_log_inputs(case, 67)
    other = case.random_point(np.random.default_rng(68))

    def hook(*args, **kwargs):
        raise AssertionError("a hyperboloid hook ran")

    for name in ("_exp", "_log", "_squared_dist", "_transport"):
        monkeypatch.setattr(HyperboloidMetric, name, hook)
    assert metric.inner_product(vec, vec, base) == metric.squared_norm(vec, base) > 0.0
    np.testing.assert_allclose(metric.log(metric.exp(vec, base), base), vec, atol=1e-12)
    assert metric.dist(base, other) ** 2 == pytest.approx(metric.squared_dist(other, base))
    assert metric.norm(metric.log(other, base), base) == pytest.approx(metric.dist(base, other))
    by_direction = metric.parallel_transport(vec, base, direction=vec)
    np.testing.assert_allclose(metric.parallel_transport(vec, base, end_point=end), by_direction)
    np.testing.assert_allclose(metric.geodesic(base, end_point=end)(1.0), end, atol=1e-12)


def _point_cloud(case, n, seed, radius=0.3):
    """``n`` points within ``radius`` of one random base point."""
    rng = np.random.default_rng(seed)
    base = case.random_point(rng)
    return case.metric.exp(case.scaled_tangents(base, n, rng, radius=radius), base)


@pytest.mark.parametrize(
    "estimator",
    ["karcher_flow", "kmeans", "online_kmeans", "descent", "tangent_pca", "tangent_basis"],
)
def test_estimators_never_reach_the_public_ops(space_case, estimator, monkeypatch):
    """Every estimator checks its data once, then calls the hooks through the
    metric's ``_apply``: with the public ``exp``, ``log``, ``squared_dist``,
    ``dist``, ``inner_product`` and ``parallel_transport`` set to raise, it
    still runs. Online K-means runs on every space. The others need a
    positive-definite metric (for the flow's step norm and the tangent
    basis), and descent follows an ambient gradient."""
    metric, manifold = space_case.metric, space_case.manifold
    if estimator != "online_kmeans" and not space_case.true_metric:
        pytest.skip("needs a positive-definite metric")
    if estimator == "descent" and metric.tangent_shape != manifold.point_shape:
        pytest.skip("descent follows an ambient gradient")
    points = _point_cloud(space_case, 12, 69)
    rng = np.random.default_rng(65)
    start = space_case.random_point(rng)
    a = rng.standard_normal(manifold.point_shape)

    def public(*args, **kwargs):
        raise AssertionError("a public op ran")

    for op in ("exp", "log", "squared_dist", "dist", "inner_product", "parallel_transport"):
        monkeypatch.setattr(metric, op, public)
    if estimator == "karcher_flow":
        result = karcher_flow(metric, points, [0, 5, 12], points[[0, 5]], max_iter=5)
        assert result.estimate.shape == (2,) + manifold.point_shape
        assert np.all(result.n_iter >= 1)
        assert frechet_mean(metric, points, max_iter=5).n_iter >= 1
    elif estimator == "kmeans":
        model = RiemannianKMeans(metric, 2, max_iter=3).fit(points)
        np.testing.assert_array_equal(model.predict(points), model.labels_)
    elif estimator == "online_kmeans":
        model = OnlineKMeans(metric, 2).fit(points)
        assert model.counts_.sum() + model.n_rejected_ == len(points)
        assert model.predict(points).shape == (len(points),)
    elif estimator == "descent":
        result = riemannian_gradient_descent(
            manifold, lambda x: float(np.sum(a * x)), lambda x: a, start, metric=metric,
            learning_rate=0.01, max_iter=3,
        )
        assert result.n_iter >= 1
    elif estimator == "tangent_pca":
        model = TangentPCA(metric, n_components=2).fit(points, base_point=points[0])
        coefficients = model.transform(points)
        assert model.inverse_transform(coefficients).shape == points.shape
    else:
        basis = orthonormal_tangent_basis(metric, points[0])
        assert basis.shape == (metric.tangent_dim,) + metric.tangent_shape


def test_log_and_squared_dist_is_the_log_and_the_squared_dist(space_case):
    """``_log_and_squared_dist(p, b)`` is ``(_log(p, b), _squared_dist(b, p))``:
    the log bit for bit, the squared distance to 1e-14 relative (the affine SPD
    metric takes it from ``eigh``'s eigenvalues, ``_squared_dist`` from
    ``eigvalsh``'s)."""
    metric = space_case.metric
    cloud = _point_cloud(space_case, 8, 70, radius=0.8)
    base, points = cloud[0], cloud[1:]
    for point, base_point in ((points, base), (points, cloud[:-1]), (points[0], base)):
        log, sq, *_ = metric._log_and_squared_dist(point, base_point)
        np.testing.assert_array_equal(log, metric._log(point, base_point))
        np.testing.assert_allclose(sq, metric._squared_dist(base_point, point), rtol=1e-14, atol=0)


NEWTON_CASES = [case for case in ALL_CASES if case.metric._newton_directions is not None]


def test_newton_cases():
    assert [case.name for case in NEWTON_CASES] == ["sphere2", "sphere4", "spd3_affine"]


@pytest.mark.parametrize("case", NEWTON_CASES, ids=str)
def test_newton_directions_solve_the_finite_difference_newton_system(case):
    """``_newton_directions`` on two weighted segments, each holding its own
    base point (a zero log): one mask entry per segment, finite tangent
    directions and no float warning, since the Karcher flow calls the hook
    outside ``np.errstate``. Each direction solves the Newton system of
    1/2 sum_i w_i d^2(., p_i), whose Hessian comes from central differences
    of the Frechet variance in normal coordinates at the base point."""
    metric = case.metric
    rng = np.random.default_rng(71)
    clouds = [_point_cloud(case, 9, seed) for seed in (72, 73)]
    bases = np.stack([cloud[0] for cloud in clouds])
    weights = [w / np.sum(w) for w in rng.uniform(0.2, 2.0, (2, 9))]
    fused = [metric._log_and_squared_dist(cloud, base) for cloud, base in zip(clouds, bases)]
    logs, extras = [out[0] for out in fused], [list(out[2:]) for out in fused]
    gradients = np.stack([np.tensordot(w, log, axes=1) for w, log in zip(weights, logs)])
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        directions, positive = metric._newton_directions(logs, extras, weights, bases, gradients)
    assert positive.tolist() == [True, True]
    assert np.isfinite(directions).all()
    assert np.all(metric.is_tangent(directions, bases))

    h = 1e-3
    for cloud, w, base, gradient, direction in zip(clouds, weights, bases, gradients, directions):
        basis = orthonormal_tangent_basis(metric, base)

        def half_variance(coords, cloud=cloud, w=w, base=base, basis=basis):
            point = metric.exp(np.tensordot(coords, basis, axes=1), base)
            return 0.5 * frechet_variance(metric, cloud, point, w)

        steps = h * np.eye(len(basis))
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
        coords = np.linalg.solve(hessian, metric.inner_product(basis, gradient, base))
        expected = np.tensordot(coords, basis, axes=1)
        np.testing.assert_allclose(
            direction, expected, rtol=0, atol=1e-6 * np.linalg.norm(expected)
        )


def test_srv_exp_and_transport_skip_the_tangency_pass(monkeypatch):
    """Tangency is the manifold's ``tangency_residual``, skipped where the
    manifold keeps the identity ``to_tangent``: the SRV metric's own
    ``to_tangent`` is a shape check that ``_inputs`` already makes."""
    from riemstats.geometry.curves import SRVMetric

    case = next(c for c in ALL_CASES if c.name == "curves_srv")
    base, vec, end = _exp_log_inputs(case, 66)

    def projection(*args, **kwargs):
        raise AssertionError("SRVMetric.to_tangent ran")

    monkeypatch.setattr(SRVMetric, "to_tangent", projection)
    metric = case.metric
    np.testing.assert_array_equal(metric.exp(vec, base), end)
    for target in ({"direction": vec}, {"end_point": end}):
        assert metric.parallel_transport(vec, base, **target).shape == vec.shape


@pytest.mark.parametrize(
    "case",
    [c for c in ALL_CASES if type(c.manifold).to_tangent is not Manifold.to_tangent],
    ids=lambda c: c.name,
)
def test_tangency_check_is_the_residual_rule_over_the_whole_call(case):
    """A call raises TangencyError exactly when some vector's
    ``tangency_residual`` is above ``ATOL``: a normal offset 10 times that
    fails, 0.1 times passes, also as one member of a batch. A manifold that
    keeps the identity ``to_tangent`` has no normal offset."""
    manifold, metric = case.manifold, case.metric
    base, vec, _ = _exp_log_inputs(case, 67)
    noise = np.random.default_rng(68).standard_normal(vec.shape)
    normal = noise - manifold.to_tangent(noise, base)
    normal /= np.abs(normal).max()
    message = f"^vector is not tangent to {re.escape(manifold.name)} at the base point$"
    for scale, tangent in [(10.0, False), (0.1, True)]:
        offset = vec + scale * ATOL * normal
        assert bool(manifold.is_tangent(offset, base)) is tangent
        batch = np.stack([vec, offset])
        if tangent:
            assert metric.exp(batch, base).shape == batch.shape
        else:
            with pytest.raises(TangencyError, match=message):
                metric.exp(batch, base)

def test_no_metric_overrides_exp_or_log():
    """Closed forms go in the ``_exp``, ``_log``, ``_squared_dist`` and
    ``_inner_product`` hooks, behind the base checks, and ``dist`` is the
    base rule for every metric, Minkowski's included.

    Binding the inherited method itself under the subclass is not an override.
    """
    offenders = [
        f"{sub.__qualname__}.{op}"
        for sub in _all_subclasses(RiemannianMetric)
        for op in ("exp", "log", "squared_dist", "dist", "inner_product")
        if vars(sub).get(op, vars(RiemannianMetric)[op]) is not vars(RiemannianMetric)[op]
    ]
    assert offenders == []


_HOOKS = ("_inner_product", "_exp", "_log", "_squared_dist", "_log_and_squared_dist",
          "_transport", "_transport_to")


def test_metric_hooks_take_exactly_their_operands():
    """Every hook has the signature of its base definition, so a public op
    has no keyword to forward: a tolerance of an iterative hook is a module
    constant."""
    operands = {hook: inspect.signature(getattr(RiemannianMetric, hook)) for hook in _HOOKS}
    offenders = [
        f"{sub.__qualname__}.{hook}"
        for sub in _all_subclasses(RiemannianMetric)
        for hook in _HOOKS
        if hook in vars(sub) and inspect.signature(vars(sub)[hook]) != operands[hook]
    ]
    assert offenders == []


def _state(obj):
    """``vars(obj)`` as ``{name: (value, contents)}``, with a copy of the
    contents of an array, dict, list or set value, and None for the others."""
    state = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            contents = value.copy()
        elif isinstance(value, dict):
            contents = list(value.keys()) + list(value.values())
        elif isinstance(value, (list, set)):
            contents = list(value)
        else:
            contents = None
        state[name] = (value, contents)
    return state


def _changes(before, after):
    """Names of the attributes added, removed, rebound or whose contents changed."""
    changed = sorted(before.keys() ^ after.keys())
    for name in before.keys() & after.keys():
        (value, contents), (now, now_contents) = before[name], after[name]
        if isinstance(contents, np.ndarray):
            same = np.array_equal(contents, now_contents, equal_nan=True)
        elif contents is not None:
            same = len(contents) == len(now_contents) and all(
                a is b for a, b in zip(contents, now_contents)
            )
        else:
            same = True
        if now is not value or not same:
            changed.append(name)
    return changed


def test_metrics_hold_no_state_between_calls(space_case):
    """A metric is a plain object: calling every hook it defines, with every
    result still referenced, leaves the metric, and each metric or manifold
    it holds, with the same attributes bound to the same objects, and each
    container among them with the same contents."""
    metric = space_case.metric
    held = [metric] + [
        value for value in vars(metric).values() if isinstance(value, (Manifold, RiemannianMetric))
    ]
    before = [_state(obj) for obj in held]
    cloud = _point_cloud(space_case, 7, 74)
    base, points = cloud[0], cloud[1:]
    vecs = space_case.scaled_tangents(base, len(points), np.random.default_rng(75), radius=0.3)
    fused = metric._log_and_squared_dist(points, base)
    results = [  # every output stays referenced through the check
        fused,
        metric._inner_product(vecs, vecs, base),
        metric._exp(vecs, base),
        metric._log(points, base),
        metric._squared_dist(base, points),
        metric._transport(vecs, base, vecs),
        metric._transport_to(vecs, base, points),
    ]
    if metric._newton_directions is not None:
        weights = np.full(len(points), 1.0 / len(points))
        gradient = np.tensordot(weights, fused[0], axes=1)
        results.append(metric._newton_directions(
            [fused[0]], [list(fused[2:])], [weights], base[None], gradient[None]
        ))
    if metric._nearest is not None:
        results.append(metric._nearest(points, cloud[:2]))
    assert [_changes(old, _state(obj)) for old, obj in zip(before, held)] == [[]] * len(held)


def test_geometry_keeps_no_object_identities():
    """No metric keys a cache by ``id`` or watches its results with ``weakref``:
    what one hook call makes for another is passed to it explicitly."""
    pattern = re.compile(r"\bweakref\b|\bid\(")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "geometry").rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []


def test_geometry_does_not_import_learning():
    """Estimators live in ``learning/``, on top of the metrics; no module under
    ``geometry/`` reaches up into them."""
    upward = re.compile(r"riemstats\.learning|from \.\.learning|from \.\. import [\w, ]*learning")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "geometry").rglob("*.py"))
        if upward.search(path.read_text())
    ]
    assert offenders == []


@pytest.mark.parametrize("sq, expected", [(-1e-13, 0.0), ([4.0, -1e-12], [2.0, 0.0])])
def test_round_off_negative_squared_distance_gives_zero(space_case, sq, expected, monkeypatch):
    """``dist`` clips a squared distance in ``[-1e-12, 0)`` to 0, silently."""
    metric = space_case.metric
    point = space_case.random_points(1, np.random.default_rng(81))
    monkeypatch.setattr(metric, "_squared_dist", lambda point_a, point_b: np.asarray(sq))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(metric.dist(point, point), expected)


def test_negative_squared_distance_beyond_round_off_raises(space_case, monkeypatch):
    metric = space_case.metric
    point = space_case.random_points(1, np.random.default_rng(82))
    monkeypatch.setattr(metric, "_squared_dist", lambda point_a, point_b: np.asarray([1.0, -1e-11]))
    with pytest.raises(DomainError, match="^negative squared distance: "):
        metric.dist(point, point)


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


def test_no_np_linalg_eigvals_outside_linalg():
    """Rotation angles come from ``linalg``, and the cut locus of a rotation
    log is decided once, inside ``linalg.matrix_log``, from the decomposition
    its route already makes."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "linalg.py" and "np.linalg.eigvals(" in path.read_text()
    ]
    assert offenders == []


def test_no_estimator_calls_a_public_metric_op():
    """The estimators check their data once and then call the hooks, so no
    module under ``learning/`` calls a public metric op, which would check
    again what the estimator computed itself."""
    public = re.compile(
        r"metric\.(exp|log|squared_dist|dist|inner_product|squared_norm|norm"
        r"|parallel_transport|geodesic|mean)\("
    )
    offenders = [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path in sorted((SRC / "learning").rglob("*.py"))
        for match in public.finditer(path.read_text())
    ]
    assert offenders == []


def test_learning_names_no_geometry_class():
    """Estimators see a space only through its metric's hooks: no module under
    ``learning/`` imports a class of ``geometry/``, or names one in its code,
    as in an ``isinstance`` test. A space-specific shortcut, such as the
    sphere's Gram-product ``_nearest``, then stays behind a hook."""
    classes = set()
    for info in pkgutil.iter_modules(geometry.__path__):
        module = importlib.import_module(f"riemstats.geometry.{info.name}")
        classes |= {
            name for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__.startswith("riemstats.geometry")
        }
    assert {"SphereMetric", "Hypersphere", "RiemannianMetric"} <= classes
    offenders = []
    for path in sorted((SRC / "learning").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Name):
                named = [node.id]
            elif isinstance(node, ast.Attribute):
                named = [node.attr]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno}: {name}" for name in named if name in classes
            ]
    assert offenders == []


def test_symmetric_operands_and_the_membership_tolerance_are_decided_once():
    """SPD and Grassmann operands are checked by ``base._symmetric``, at the
    membership tolerance ``base.ATOL``, which no other module defines again."""
    calls = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "geometry").rglob("*.py"))
        if "check_symmetric(" in path.read_text()
    ]
    assert calls == []
    redefined = re.compile(r"\w*ATOL\w*\s*=\s*1(\.0*)?e-0*8\b", re.IGNORECASE)
    copies = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "geometry" / "base.py" and redefined.search(path.read_text())
    ]
    assert copies == []


def test_orthonormal_tangent_basis(space_case, monkeypatch):
    """Two passes over Gram matrices built in blocks of rows: at most two
    ``_inner_product`` calls per direction, each broadcasting at most twice
    as many entries as the projected frame has. The basis is orthonormal in
    the metric and the same bits on every call. Minkowski's indefinite
    metric has none."""
    metric = space_case.metric
    base = space_case.random_point(np.random.default_rng(55))
    broadcasts = []
    inner_product = metric._inner_product

    def counted(vec_a, vec_b, base_point):
        broadcasts.append(np.broadcast_shapes(np.shape(vec_a), np.shape(vec_b)))
        return inner_product(vec_a, vec_b, base_point)

    monkeypatch.setattr(metric, "_inner_product", counted)
    if space_case.name == "minkowski3":
        with pytest.raises(GeometryError, match="got 2 of 3 directions"):
            orthonormal_tangent_basis(metric, base)
        return
    basis = orthonormal_tangent_basis(metric, base)
    monkeypatch.undo()
    size = int(np.prod(metric.tangent_shape))
    assert 2 <= len(broadcasts) <= 2 * metric.tangent_dim
    assert max(int(np.prod(shape)) for shape in broadcasts) <= 2 * size**2
    assert basis.shape == (metric.tangent_dim,) + metric.tangent_shape
    gram = metric.inner_product(basis[:, None], basis[None], base)
    np.testing.assert_allclose(gram, np.eye(metric.tangent_dim), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(orthonormal_tangent_basis(metric, base), basis)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_tangent_basis_cutoff_scales_with_the_metric(scale):
    """The rank cutoff is relative to the largest singular value of the
    projected frame, and the metric's passes to the largest eigenvalue of
    each Gram matrix: the affine-invariant inner products at ``scale * P``
    scale by ``scale^-2``."""
    metric = SPDMatrices(2).affine_invariant_metric
    base = scale * np.diag([1.0, 2.0])
    basis = orthonormal_tangent_basis(metric, base)
    gram = metric.inner_product(basis[:, None], basis[None], base)
    np.testing.assert_allclose(gram, np.eye(3), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("family", ["affine_invariant_metric", "log_euclidean_metric"])
@pytest.mark.parametrize(
    "n, kappa, rotated", [(2, 1e8, False), (2, 1e6, True), (3, 1e6, True), (3, 1e8, True)]
)
def test_tangent_basis_at_ill_conditioned_spd_points(family, n, kappa, rotated):
    """SPD points of condition number ``kappa`` that ``belongs`` accepts;
    ``diag(1e-4, 1e4)`` is the unrotated one, whose basis is exact to
    round-off. At a rotated point the Gram matrix of unit vectors along the
    extreme eigendirections is itself computed only to about ``eps *
    kappa``, so the bound is 1000 times that. One Gram matrix of the frame
    would not do: its condition number, ``kappa^2``, exceeds ``1 / eps``."""
    metric = getattr(SPDMatrices(n), family)
    spectrum = np.geomspace(kappa**-0.5, kappa**0.5, n)
    if rotated:
        rot, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
        base = linalg.sym((rot * spectrum) @ rot.T)
        atol = 1e3 * np.finfo(float).eps * kappa
    else:
        base, atol = np.diag(spectrum), 1e-12
    assert metric.manifold.belongs(base)
    basis = orthonormal_tangent_basis(metric, base)
    gram = metric.inner_product(basis[:, None], basis[None], base)
    np.testing.assert_allclose(gram, np.eye(metric.tangent_dim), rtol=0.0, atol=atol)


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
