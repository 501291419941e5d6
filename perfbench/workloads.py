"""The benchmark workloads: seeded inputs, fixed task lists and correctness checks.

A task is one operation the benchmark times. Its ``call`` looks every
library name up at call time, so the span wrappers of the traced run see
it. Its ``check`` runs after the timed region, on the task's last output,
and returns ``None`` when the output is correct or a one-line reason.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cases

# Two workloads, each run long enough to average over the host's slow and
# fast phases (see README.md): in-process operations, and estimators plus
# cold ``geo`` processes. Every layer is measured on one of them.
WORKLOADS = ("batch_ops", "estimators")
FALLBACK_TASKS = ("shooting_stiefel52", "shooting_se3_invariant", "ladder_stiefel52",
                  "integration_chart2")
ESTIMATOR_TASKS = ("frechet_mean_spd5", "kmeans_s5", "online_kmeans_s5", "tpca_so3", "descent_s2")
CLI_COMMANDS = ("op_dist", "learn_kmeans", "figure_sphere_descent", "validate")


def task_layers(workload):
    """``(layer, task)`` pairs of a workload in pass order.

    The layer is the one the task calls into; the task's traced time is the
    per-layer metric ``<layer>.<task>_s``.
    """
    if workload == "batch_ops":
        return ([("geometry", f"{case.name}.{op}") for case in cases.CASES for op in case.ops]
                + [("numerical", name) for name in FALLBACK_TASKS])
    return [("learning", name) for name in ESTIMATOR_TASKS] + [("cli", c) for c in CLI_COMMANDS]


def build(workload, rs, seed, runner, smoke=False):
    """The task list of a workload; ``runner`` starts the ``geo`` processes."""
    if workload == "batch_ops":
        return batch_ops(rs, seed, batch=50 if smoke else None) + fallbacks(rs, seed)
    return estimators(rs, seed) + cli(rs, seed, runner)


_CHECK_ATOL = 1e-7


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]


def _sphere_exp(base, vec):
    """Great-circle step, written out so input generation times nothing."""
    angle = np.linalg.norm(vec, axis=-1, keepdims=True)
    safe = np.where(angle > 0.0, angle, 1.0)
    return np.cos(angle) * base + np.sin(angle) * vec / safe


def _sphere_blobs(rng, n_points, dim, n_clusters, spread):
    """Points around ``n_clusters`` random centres of S^dim, Gaussian in the tangent."""
    centres = rng.standard_normal((n_clusters, dim + 1))
    centres /= np.linalg.norm(centres, axis=-1, keepdims=True)
    base = centres[rng.integers(n_clusters, size=n_points)]
    noise = spread * rng.standard_normal((n_points, dim + 1))
    noise -= np.sum(noise * base, axis=-1, keepdims=True) * base
    return _sphere_exp(base, noise)


def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)


def _kmeans_samples(rng, n_points, dim, n_rotations):
    """One fixed uniform sample of S^dim, in ``n_rotations`` seeded orientations.

    Lloyd's iteration count on uniform data swings with the draw (28 to 96
    over eight draws of 3000 points on S^5), which would make the timing
    follow the draw instead of the code. K-means is rotation-equivariant, so
    rotating one fixed sample varies the coordinates with the seed while the
    Lloyd iteration count stays the same (43 for this sample). The Frechet
    means inside still depend on rounding: their step-halving line search
    made 7.9k to 18.9k variance calls for different rotations, and a fit took
    1.6 to 3.2 s. So each call fits the next rotation, and the task's median
    is taken over several orientations instead of resting on one.
    """
    fixed = np.random.default_rng(5).standard_normal((n_points, dim + 1))
    fixed /= np.linalg.norm(fixed, axis=-1, keepdims=True)
    return [fixed @ _random_rotation(rng, dim + 1).T for _ in range(n_rotations)]


def _max_rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _all(mask, what):
    return None if bool(np.all(mask)) else what


# -- batch_ops --------------------------------------------------------------


def batch_ops(rs, seed, batch=None):
    tasks = []
    for case in cases.CASES:
        manifold, metric = case.build(rs.geometry)
        inp = cases.make_inputs(case, manifold, metric, seed, batch=batch)
        tasks.extend(_case_tasks(case, manifold, metric, inp))
    return tasks


def _case_tasks(case, manifold, metric, inp):
    name = case.name

    def check_exp(out, outputs):
        return _all(manifold.belongs(out, atol=_CHECK_ATOL), "exp output off the manifold")

    def check_log(out, outputs):
        bad = _all(metric.is_tangent(out, inp.base, atol=_CHECK_ATOL), "log output not tangent")
        if bad:
            return bad
        err = _max_rel(metric.exp(out, inp.base), inp.target)
        return None if err <= case.roundtrip_rtol else f"exp(log) misses the target by {err:.2e}"

    def check_dist(out, outputs):
        out = np.asarray(out)
        if out.shape != inp.base.shape[:1] or not np.all(np.isfinite(out)) or np.any(out < 0):
            return "dist is not a finite nonnegative batch"
        if not case.true_metric:
            return None
        log = outputs.get(f"{name}.log")
        if log is None:
            return "no log output to compare with"
        err = _max_rel(out, metric.norm(log, inp.base))
        return None if err <= case.roundtrip_rtol else f"dist != |log| by {err:.2e}"

    def check_transport(out, outputs):
        end = outputs.get(f"{name}.exp")
        if end is None:
            return "no exp output to transport to"
        bad = _all(metric.is_tangent(out, end, atol=_CHECK_ATOL), "transport output not tangent")
        if bad:
            return bad
        before = metric.squared_norm(inp.vector, inp.base)
        after = metric.squared_norm(out, end)
        err = _max_rel(after, before)
        return None if err <= 1e-7 else f"transport changes the squared norm by {err:.2e}"

    calls = {
        "exp": (lambda: metric.exp(inp.tangent, inp.base), check_exp),
        "log": (lambda: metric.log(inp.target, inp.base), check_log),
        "dist": (lambda: metric.dist(inp.base, inp.target), check_dist),
        "transport": (
            lambda: metric.parallel_transport(inp.vector, inp.base, direction=inp.tangent),
            check_transport,
        ),
    }
    return [Task(f"{name}.{op}", *calls[op]) for op in case.ops]


# -- estimators -------------------------------------------------------------


def _stationarity(metric, points, estimate):
    mean_log = np.mean(metric.log(points, estimate), axis=0)
    return float(metric.norm(mean_log, estimate))


def estimators(rs, seed):
    g, learn = rs.geometry, rs.learning
    rng = np.random.default_rng([seed, 100])
    spd = g.SPDMatrices(5)
    spd_metric = spd.affine_invariant_metric
    spd_points = spd.random_point(2000, rng)
    sphere = g.Hypersphere(5)
    sphere_metric = sphere.metric
    kmeans_samples = _kmeans_samples(np.random.default_rng([seed, 101]), 3000, 5, 16)
    kmeans_fit = {"calls": 0, "points": None}  # the points of the latest fit
    online_points = _sphere_blobs(rng, 2000, 5, 8, spread=0.25)
    so3 = g.SpecialOrthogonal(3)
    so3_metric = so3.bi_invariant_metric
    so3_points = cases._rotation_near(
        np.broadcast_to(so3.random_point(1, rng), (1000, 3, 3)), rng, 1.0
    )
    # Descent minimizes f = dist^2(x, target) / 2 from 2.5 rad away. Its
    # minimum value is 0, so f resolves steps down to the default gradient
    # tolerance; a linear field's minimum of -1 does not (f - f* falls below
    # float64 resolution near 1e-8 rad), and descent then stops unconverged.
    s2 = g.Hypersphere(2)
    s2_metric = s2.metric
    target = s2.random_point(1, rng)
    across = s2.to_tangent(rng.standard_normal(3), target)
    across /= np.linalg.norm(across)
    x0 = _sphere_exp(target, 2.5 * across)

    def check_mean(out, outputs):
        if not out.converged:
            return "Frechet mean did not converge"
        res = _stationarity(spd_metric, spd_points, out.estimate)
        return None if res <= 1e-6 else f"mean log sum not stationary: {res:.2e}"

    def fit_kmeans():
        points = kmeans_samples[kmeans_fit["calls"] % len(kmeans_samples)]
        kmeans_fit["calls"] += 1
        kmeans_fit["points"] = points
        return learn.RiemannianKMeans(sphere_metric, 8, seed=0).fit(points)

    def check_kmeans(out, outputs):
        kmeans_points = kmeans_fit["points"]
        if not out.converged_:
            return "k-means did not converge"
        sq = np.stack([sphere_metric.squared_dist(c, kmeans_points) for c in out.centroids_], -1)
        if not np.array_equal(np.argmin(sq, axis=-1), out.labels_):
            return "k-means labels are not the nearest centroids"
        for k, centroid in enumerate(out.centroids_):
            members = kmeans_points[out.labels_ == k]
            if len(members) and _stationarity(sphere_metric, members, centroid) > 1e-6:
                return f"centroid {k} is not the mean of its cluster"
        return None

    def check_online(out, outputs):
        if int(np.sum(out.counts_)) + out.n_rejected_ != len(online_points):
            return "online k-means lost samples"
        return _all(sphere.belongs(out.centroids_, atol=_CHECK_ATOL), "centroid off the sphere")

    def check_tpca(out, outputs):
        res = _stationarity(so3_metric, so3_points, out.base_point_)
        if res > 1e-6:
            return f"tPCA base point not stationary: {res:.2e}"
        gram = so3_metric.inner_product(
            out.components_[:, None], out.components_[None], out.base_point_
        )
        if _max_rel(gram, np.eye(3)) > 1e-8:
            return "tPCA components are not orthonormal"
        return _all(np.diff(out.explained_variance_) <= 0.0, "variances not sorted")

    def check_descent(out, outputs):
        if not out.converged:
            return "gradient descent did not converge"
        err = float(np.max(np.abs(out.point - target)))
        return None if err <= 1e-6 else f"descent ends {err:.2e} from the minimizer"

    return [
        Task("frechet_mean_spd5", lambda: learn.frechet_mean(spd_metric, spd_points), check_mean),
        Task("kmeans_s5", fit_kmeans, check_kmeans),
        Task(
            "online_kmeans_s5",
            lambda: learn.OnlineKMeans(sphere_metric, 8).fit(online_points),
            check_online,
        ),
        Task(
            "tpca_so3",
            lambda: learn.TangentPCA(so3_metric, n_components=3).fit(so3_points),
            check_tpca,
        ),
        Task(
            "descent_s2",
            lambda: learn.riemannian_gradient_descent(
                s2,
                lambda x: 0.5 * float(s2_metric.squared_dist(x, target)),
                lambda x: -s2_metric.log(target, x),
                x0,
                max_iter=1000,
            ),
            check_descent,
        ),
    ]


# -- fallbacks ----------------------------------------------------------------


def _chart_metric(coords):
    """Spherical chart (theta, phi) of S^2: metric diag(1, sin^2 theta)."""
    out = np.zeros(coords.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.sin(coords[..., 0]) ** 2
    return out


def _chart_to_xyz(coords):
    theta, phi = coords[..., 0], coords[..., 1]
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def _chart_pushforward(coords, vec):
    theta, phi = coords[..., 0], coords[..., 1]
    d_theta = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
    )
    d_phi = np.stack(
        [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.zeros_like(theta)], -1
    )
    return vec[..., :1] * d_theta + vec[..., 1:] * d_phi


def fallbacks(rs, seed):
    g = rs.geometry
    rng = np.random.default_rng([seed, 200])
    stiefel = g.Stiefel(5, 2)
    st_metric = stiefel.canonical_metric
    st_base = stiefel.random_point(200, rng)
    st_target = cases._near_stiefel(stiefel, st_base, rng, 0.45)

    se3 = g.SpecialEuclidean(3)
    se3_metric = se3.invariant_metric(inner_matrix=np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]))
    se3_base = se3.random_point(20, rng)
    se3_target = se3_base.copy()
    se3_target[:, :3, :3] = cases._rotation_near(se3_base[:, :3, :3], rng, 0.5)
    se3_target[:, :3, 3] += 0.3 * rng.standard_normal((20, 3))

    ladder_base = stiefel.random_point(1, rng)
    ladder_vec = stiefel.to_tangent(rng.standard_normal((5, 2)), ladder_base)
    ladder_vec *= 0.3 / float(st_metric.norm(ladder_vec, ladder_base))
    ladder_dir = stiefel.to_tangent(rng.standard_normal((5, 2)), ladder_base)
    ladder_dir *= 0.4 / float(st_metric.norm(ladder_dir, ladder_base))

    christoffels = g.christoffels_from_metric(_chart_metric, 2)
    chart_base = np.stack([rng.uniform(0.8, np.pi - 0.8, 1000), rng.uniform(-3, 3, 1000)], -1)
    chart_vel = rng.standard_normal((1000, 2))
    chart_vel *= 0.5 / np.linalg.norm(chart_vel, axis=-1, keepdims=True)

    def residual_check(metric, base, target, tol):
        def check(out, outputs):
            res = float(np.max(np.abs(metric.exp(out, base) - target)))
            return None if res <= tol + 1e-12 else f"shooting residual {res:.2e} above {tol}"

        return check

    def check_ladder(out, outputs):
        end = st_metric.exp(ladder_dir, ladder_base)
        bad = _all(st_metric.is_tangent(out, end, atol=_CHECK_ATOL), "ladder output not tangent")
        if bad:
            return bad
        drift = abs(float(st_metric.norm(out, end)) - 0.3) / 0.3
        return None if drift <= 1e-3 else f"ladder changes the norm by {drift:.2e}"

    def check_integration(out, outputs):
        sphere = g.Hypersphere(2).metric
        expected = sphere.exp(_chart_pushforward(chart_base, chart_vel), _chart_to_xyz(chart_base))
        err = float(np.max(np.abs(_chart_to_xyz(out) - expected)))
        return None if err <= 1e-6 else f"integrated geodesic off by {err:.2e}"

    return [
        Task("shooting_stiefel52", lambda: st_metric.log(st_target, st_base),
             residual_check(st_metric, st_base, st_target, 1e-9)),
        Task("shooting_se3_invariant", lambda: se3_metric.log(se3_target, se3_base),
             residual_check(se3_metric, se3_base, se3_target, 1e-8)),
        Task(
            "ladder_stiefel52",
            lambda: st_metric.parallel_transport(ladder_vec, ladder_base, direction=ladder_dir),
            check_ladder,
        ),
        Task(
            "integration_chart2",
            lambda: g.numerical.exp_by_integration(christoffels, chart_base, chart_vel),
            check_integration,
        ),
    ]


# -- cli ------------------------------------------------------------------------


def _j(value):
    return json.dumps(np.asarray(value).tolist())


class GeoRunner:
    """Runs ``geo`` as fresh processes, one after another, from the source tree."""

    def __init__(self, env, cwd):
        self.env = env
        self.cwd = cwd
        self.importtime = False
        self.stderr_log = []

    def __call__(self, argv):
        flags = ["-X", "importtime"] if self.importtime else []
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "riemstats.cli", *argv],
            env=self.env, cwd=self.cwd, capture_output=True, text=True, timeout=120,
        )
        if self.importtime:
            self.stderr_log.append(proc.stderr)
        return proc

    def bare_interpreter(self):
        """Seconds to start and stop the interpreter with no imports of ours."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd,
                       capture_output=True, timeout=60, check=True)
        return time.perf_counter() - start


def cli(rs, seed, runner):
    g, learn = rs.geometry, rs.learning
    rng = np.random.default_rng([seed, 300])
    sphere = g.Hypersphere(2)
    metric = sphere.metric
    spec = '{"name": "hypersphere", "n": 2}'
    point_a, point_b = sphere.random_point(2, rng)
    kmeans_data = _sphere_blobs(rng, 60, 2, 2, spread=0.15)
    validate_data = sphere.random_point(100, rng)
    x0 = sphere.random_point(1, rng)
    field = np.ones(3) / np.sqrt(3.0)

    commands = {
        "op_dist": ["op", "dist", "--manifold-spec", spec, "--inputs",
                    f'{{"point_a": {_j(point_a)}, "point_b": {_j(point_b)}}}'],
        "learn_kmeans": ["learn", "kmeans", "--manifold-spec", spec, "--n-clusters", "2",
                         "--seed", "0", "--data", f'{{"points": {_j(kmeans_data)}}}'],
        "figure_sphere_descent": ["figure", "sphere-descent", "--max-iter", "150",
                                  "--x0", _j(x0)],
        "validate": ["validate", "--manifold-spec", spec,
                     "--data", f'{{"points": {_j(validate_data)}}}'],
    }

    def parsed(proc):
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return json.loads(proc.stdout)

    def close(actual, expected, what, tol=1e-10):
        err = _max_rel(actual, expected)
        return None if err <= tol else f"{what} differs from the in-process result by {err:.2e}"

    def check_dist(proc, outputs):
        return close(parsed(proc)["result"], metric.dist(point_a, point_b), "dist")

    def check_kmeans(proc, outputs):
        out = parsed(proc)
        model = learn.RiemannianKMeans(metric, 2, seed=0).fit(kmeans_data)
        if out["labels"] != model.labels_.tolist():
            return "k-means labels differ from the in-process result"
        return close(out["centroids"], model.centroids_, "k-means centroids")

    def check_descent(proc, outputs):
        out = parsed(proc)
        result = learn.riemannian_gradient_descent(
            sphere, lambda x: float(field @ x), lambda x: field, x0, max_iter=150
        )
        if out["n_iter"] != result.n_iter:
            return "descent iteration count differs from the in-process result"
        return close(out["points"], result.points, "descent trace")

    def check_validate(proc, outputs):
        out = parsed(proc)
        residuals = sphere.membership_residual(validate_data)
        expected = int(np.sum(residuals > out["tolerance"]))
        if out["n_points"] != len(validate_data) or out["n_failed"] != expected:
            return "validate counts differ from the in-process result"
        return None

    checks = {
        "op_dist": check_dist,
        "learn_kmeans": check_kmeans,
        "figure_sphere_descent": check_descent,
        "validate": check_validate,
    }
    return [Task(name, lambda argv=commands[name]: runner(argv), checks[name])
            for name in CLI_COMMANDS]
