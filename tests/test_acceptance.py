"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live) and asserts at the stated tolerance. Everything is seeded; suites run
at desk scale.
"""

import json
import subprocess
import sys

import numpy as np

from riemstats.geometry import (
    ChristoffelField,
    Hypersphere,
    SpecialOrthogonal,
    christoffels_from_metric,
    exp_by_integration,
    log_by_shooting,
    matrix_from_rotation_vector,
    transport_by_ladder,
)
from riemstats.geometry.spd import SPDMatrices
from riemstats.learning import RiemannianKMeans, TangentPCA, frechet_mean, riemannian_gradient_descent

from cli_examples import EXAMPLE_COMMANDS
from conftest import ALL_CASES
from test_learning import brute_force_sphere_minimizer, sphere_cap
from test_numerical import (
    chart_pushforward,
    chart_to_xyz,
    sphere_christoffels_closed_form,
    sphere_metric_matrix,
)


def _check(criterion, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _geo(args):
    return subprocess.run(
        [sys.executable, "-m", "riemstats.cli", *args], capture_output=True, text=True
    )


def test_criterion_1_exp_log_round_trip():
    worst = 0.0
    worst_name = ""
    for case in ALL_CASES:
        rng = np.random.default_rng(1000)
        base = case.random_points(100, rng)
        vecs = case.scaled_tangents(base, 100, rng)
        err = np.max(np.abs(case.metric.log(case.metric.exp(vecs, base), base) - vecs))
        if err > worst:
            worst, worst_name = float(err), case.name
    _check(
        1,
        "exp/log round-trip < 1e-6 on 100 seeded pairs per (manifold, metric)",
        worst < 1e-6,
        f"worst {worst:.2e} on {worst_name}",
    )


def test_criterion_2_metric_axioms():
    ok = True
    detail = ""
    for case in ALL_CASES:
        if not case.true_metric:
            continue  # indefinite metric: no distance axioms to satisfy
        rng = np.random.default_rng(2000)
        a, b, c = case.random_triples(1000, rng)
        identity = float(np.max(case.metric.dist(a, a)))
        d_ab = case.metric.dist(a, b)
        sym = float(np.max(np.abs(d_ab - case.metric.dist(b, a))))
        slack = float(np.max(d_ab - case.metric.dist(a, c) - case.metric.dist(c, b)))
        if identity >= 1e-10 or sym >= 1e-8 or slack > 1e-8:
            ok = False
            detail = f"{case.name}: identity {identity:.2e}, symmetry {sym:.2e}, triangle slack {slack:.2e}"
            break
    _check(
        2,
        "1000 seeded triples per manifold: symmetry 1e-8, identity 1e-10, triangle 1e-8",
        ok,
        detail,
    )


def test_criterion_3_numerical_fallbacks_match_closed_forms():
    rng = np.random.default_rng(3000)
    sphere = Hypersphere(2)
    metric = sphere.metric
    gamma = ChristoffelField(sphere_christoffels_closed_form, 2)
    gamma_fd = christoffels_from_metric(sphere_metric_matrix, 2)

    exp_err = 0.0
    log_err = 0.0
    for _ in range(20):
        base = np.array([rng.uniform(1.0, np.pi - 1.0), rng.uniform(-1.0, 1.0)])
        vel = rng.standard_normal(2)
        vel = 0.5 * vel / np.linalg.norm(vel)
        end = exp_by_integration(gamma_fd, base, vel)
        closed = metric.exp(chart_pushforward(base, vel), chart_to_xyz(base))
        exp_err = max(exp_err, float(np.max(np.abs(chart_to_xyz(end) - closed))))

        target = exp_by_integration(gamma, base, vel)
        shot = log_by_shooting(
            lambda v, b: exp_by_integration(gamma, b, v), base, target, tol=1e-9
        )
        log_err = max(log_err, float(np.max(np.abs(shot - vel))))

    ladder_err = 0.0
    for _ in range(20):
        base = sphere.random_point(rng=rng)
        vec = metric.random_tangent(base, rng=rng)
        vec = vec / float(metric.norm(vec, base))
        direction = metric.random_tangent(base, rng=rng)
        direction = direction / float(metric.norm(direction, base))
        closed = metric.parallel_transport(vec, base, direction=direction)
        ladder = transport_by_ladder(
            metric, vec, base, metric.exp(direction, base), n_rungs=50
        )
        ladder_err = max(ladder_err, float(np.max(np.abs(ladder - closed))))

    _check(
        3,
        "sphere fallbacks: integrated exp & shooting log within 1e-6, 50-rung ladder within 1e-5",
        exp_err < 1e-6 and log_err < 1e-6 and ladder_err < 1e-5,
        f"exp {exp_err:.2e}, log {log_err:.2e}, ladder {ladder_err:.2e}",
    )


def test_criterion_4_closed_form_spot_values():
    sphere = Hypersphere(2).metric
    d1 = float(sphere.dist([1.0, 0, 0], [0.0, 1, 0]))

    from riemstats.geometry import PoincareBall

    ball = PoincareBall(2).metric
    d2 = float(ball.dist([0.0, 0.0], [0.5, 0.0]))

    spd = SPDMatrices(2).affine_invariant_metric
    d3 = float(spd.dist(np.eye(2), np.diag([np.e, 1.0])))

    so3 = SpecialOrthogonal(3).bi_invariant_metric
    rot = matrix_from_rotation_vector(np.array([0.0, 0.0, np.pi / 2]))
    d4 = float(so3.dist(np.eye(3), rot))

    ok = (
        abs(d1 - np.pi / 2) < 1e-12
        and abs(d2 - np.log(3.0)) < 1e-12
        and abs(d3 - 1.0) < 1e-12
        and abs(d4 - np.sqrt(2.0) * np.pi / 2) < 1e-10
    )
    _check(
        4,
        "spot values: S2 pi/2, ball ln 3, SPD 1, SO(3) sqrt(2) pi/2",
        ok,
        f"{d1!r} {d2!r} {d3!r} {d4!r}",
    )


def test_criterion_5_invariance_suites():
    rng = np.random.default_rng(5000)

    sphere = Hypersphere(2)
    sm = sphere.metric
    rots = SpecialOrthogonal(3).random_point(100, rng)
    a = sphere.random_point(100, rng)
    b = sphere.random_point(100, rng)
    rot_a = np.einsum("nij,nj->ni", rots, a)
    rot_b = np.einsum("nij,nj->ni", rots, b)
    sphere_err = float(np.max(np.abs(sm.dist(rot_a, rot_b) - sm.dist(a, b))))

    spd = SPDMatrices(3)
    am = spd.affine_invariant_metric
    from riemstats import linalg

    p = spd.random_point(100, rng)
    q = spd.random_point(100, rng)
    congr = linalg.matrix_exp(0.3 * rng.standard_normal((100, 3, 3)))
    lhs = am.dist(congr @ p @ linalg.transpose(congr), congr @ q @ linalg.transpose(congr))
    spd_err = float(np.max(np.abs(lhs - am.dist(p, q))))

    so3 = SpecialOrthogonal(3)
    bm = so3.bi_invariant_metric
    r1 = so3.random_point(100, rng)
    r2 = so3.random_point(100, rng)
    g = so3.random_point(100, rng)
    base_d = bm.dist(r1, r2)
    left_err = float(np.max(np.abs(bm.dist(g @ r1, g @ r2) - base_d)))
    right_err = float(np.max(np.abs(bm.dist(r1 @ g, r2 @ g) - base_d)))

    from riemstats.geometry import DiscretizedCurves

    curves = DiscretizedCurves(10, 2)
    srv = curves.srv_metric
    c1 = curves.random_point(100, rng)
    c2 = curves.random_point(100, rng)
    shift = rng.standard_normal((100, 1, 2))
    srv_err = float(np.max(np.abs(srv.dist(c1 + shift, c2 + shift) - srv.dist(c1, c2))))

    worst = max(sphere_err, spd_err, left_err, right_err, srv_err)
    _check(
        5,
        "invariances within 1e-8 on 100 seeded cases: sphere rotation, SPD congruence, "
        "SO(3) bi-invariance, SRV translation",
        worst < 1e-8,
        f"sphere {sphere_err:.2e}, spd {spd_err:.2e}, so {max(left_err, right_err):.2e}, srv {srv_err:.2e}",
    )


def test_criterion_6_learning_suite():
    sphere = Hypersphere(2)
    sm = sphere.metric

    mid = frechet_mean(sm, np.array([[1.0, 0, 0], [0.0, 1, 0]])).estimate
    mid_err = float(np.max(np.abs(mid - np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0]))))

    rng = np.random.default_rng(6000)
    data = sphere_cap(sphere.random_point(rng=rng), 0.5, 10, rng)
    karcher = frechet_mean(sm, data, tol=1e-10).estimate
    oracle = brute_force_sphere_minimizer(data, data[0])
    cap_err = float(sm.dist(karcher, oracle))

    flat = rng.standard_normal((30, 3)) @ np.diag([2.0, 1.0, 0.4])
    from riemstats.geometry import Euclidean

    em = Euclidean(3).metric
    model = TangentPCA(em).fit(flat, base_point=flat.mean(axis=0))
    centered = flat - flat.mean(axis=0)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / len(flat))[::-1]
    pca_err = float(np.max(np.abs(model.explained_variance_ - eigvals)))

    north = np.array([0.0, 0.0, 1.0])
    cap_a = sphere_cap(north, 0.5, 20, rng)
    cap_b = -sphere_cap(north, 0.5, 20, rng)
    km = RiemannianKMeans(sm, 2, seed=0).fit(np.concatenate([cap_a, cap_b]))
    label_errors = int(
        min(
            np.sum(km.labels_ != np.repeat([0, 1], 20)),
            np.sum(km.labels_ != np.repeat([1, 0], 20)),
        )
    )
    inertia_monotone = bool(np.all(np.diff(km.inertia_history_) <= 1e-12))

    a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    start = np.array([1.0, -0.3, 0.1])
    start = start / np.linalg.norm(start)
    descent = riemannian_gradient_descent(
        sphere, lambda x: float(np.dot(a, x)), lambda x: a, start, max_iter=200
    )
    descent_err = float(sm.dist(descent.point, -a))

    ok = (
        mid_err < 1e-8
        and cap_err < 1e-5
        and pca_err < 1e-10
        and label_errors == 0
        and inertia_monotone
        and descent.n_iter <= 200
        and descent_err < 1e-6
    )
    _check(
        6,
        "learning: midpoint 1e-8, cap mean vs brute force 1e-5, flat PCA 1e-10, "
        "k-means caps exact, inertia monotone, descent to -a < 1e-6",
        ok,
        f"mid {mid_err:.2e}, cap {cap_err:.2e}, pca {pca_err:.2e}, "
        f"labels {label_errors}, monotone {inertia_monotone}, descent {descent_err:.2e}",
    )


def test_criterion_7_figure_data():
    from riemstats.geometry import PoincareBall

    ball = PoincareBall(2).metric
    grid = _geo(["figure", "poincare-grid", "--grid-size", "4", "--num-points", "50"])
    payload = json.loads(grid.stdout)
    inside = True
    speed_spread = 0.0
    for curve in payload["curves"]:
        pts = np.asarray(curve["points"])
        inside &= bool(np.all(np.linalg.norm(pts, axis=-1) < 1.0))
        seg = ball.dist(pts[:-1], pts[1:])
        speed_spread = max(speed_spread, float((np.max(seg) - np.min(seg)) / np.mean(seg)))

    end = {"rotation_vector": [0.3, -0.2, 0.4], "translation": [0.5, 1.0, -2.0]}
    se3 = _geo(
        ["figure", "se3-geodesic", "--num-points", "7", "--end", json.dumps(end)]
    )
    poses = json.loads(se3.stdout)["poses"]
    want_rot = matrix_from_rotation_vector(np.asarray(end["rotation_vector"], dtype=float))
    endpoint_err = max(
        float(np.max(np.abs(np.asarray(poses[0]["rotation"]) - np.eye(3)))),
        float(np.max(np.abs(np.asarray(poses[0]["translation"])))),
        float(np.max(np.abs(np.asarray(poses[-1]["rotation"]) - want_rot))),
        float(np.max(np.abs(np.asarray(poses[-1]["translation"]) - end["translation"]))),
    )

    _check(
        7,
        "figures: poincare grid inside the disk with constant speed (1e-4), "
        "se3 geodesic endpoints within 1e-8",
        inside and speed_spread < 1e-4 and endpoint_err < 1e-8,
        f"inside {inside}, spread {speed_spread:.2e}, endpoints {endpoint_err:.2e}",
    )


def test_criterion_8_batch_contract():
    rng = np.random.default_rng(8000)
    cases = {case.name: case for case in ALL_CASES}
    worst = 0.0
    for name in ("sphere2", "spd3_affine", "se3"):
        case = cases[name]
        base = case.random_points(100, rng)
        vecs = case.scaled_tangents(base, 100, rng)
        batched_exp = case.metric.exp(vecs, base)
        batched_log = case.metric.log(batched_exp, base)
        batched_dist = case.metric.dist(base, batched_exp)
        for i in range(100):
            worst = max(
                worst,
                float(np.max(np.abs(case.metric.exp(vecs[i], base[i]) - batched_exp[i]))),
                float(np.max(np.abs(case.metric.log(batched_exp[i], base[i]) - batched_log[i]))),
                float(abs(case.metric.dist(base[i], batched_exp[i]) - batched_dist[i])),
            )
    _check(
        8,
        "batched exp/log/dist equal the element-wise loop within 1e-12 (100-element batches)",
        worst < 1e-12,
        f"worst {worst:.2e}",
    )


def test_criterion_9_cli_determinism():
    mismatches = []
    for argv in EXAMPLE_COMMANDS:
        first = _geo(argv)
        second = _geo(argv)
        if first.returncode != 0 or first.stdout != second.stdout:
            mismatches.append(" ".join(argv[:2]))
    _check(
        9,
        "every documented CLI example is byte-identical across repeated runs",
        not mismatches,
        f"mismatches: {mismatches}",
    )
