import json
import subprocess
import sys

import numpy as np
import pytest

from cli_examples import EXAMPLE_COMMANDS, SE3, SPHERE
from riemstats.cli._main import run


def run_geo(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "riemstats.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


# Every module of the package, imported before a guard lists sys.modules: the
# space modules load on first use, and a guard must still see all of them.
IMPORT_EVERY_MODULE = (
    "import importlib, pkgutil, sys, riemstats; "
    "[importlib.import_module(m.name) "
    "for m in pkgutil.walk_packages(riemstats.__path__, 'riemstats.')]; "
)


def test_import_does_not_load_scipy():
    """scipy is a test-only reference; the library and the CLI run on numpy alone."""
    code = IMPORT_EVERY_MODULE + "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_numpy_polynomial():
    """The matrix log's quadrature rule is written out, not built at import."""
    code = IMPORT_EVERY_MODULE + (
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _modules_after_geo(argv):
    """The riemstats modules a fresh ``geo`` process has loaded when it exits."""
    code = (
        "import json, sys; from riemstats.cli import main; rc = main(json.loads(sys.argv[1])); "
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('riemstats'))]))"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rc, modules = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0, out.stderr
    return modules


@pytest.mark.parametrize("argv", [
    ["op", "dist", "--manifold-spec", SPHERE, "--inputs",
     '{"point_a": [1, 0, 0], "point_b": [0, 1, 0]}'],
    ["validate", "--manifold-spec", SPHERE, "--data", '{"points": [[1, 0, 0], [0, 1, 0]]}'],
], ids=["op_dist", "validate"])
def test_cold_geo_loads_only_the_space_it_is_asked_about(argv):
    loaded = [m for m in _modules_after_geo(argv) if m.startswith("riemstats.geometry.")]
    assert loaded == [f"riemstats.geometry.{name}"
                      for name in ("base", "invariant", "numerical", "sphere")]


def test_cold_geo_kmeans_does_not_load_the_figures():
    argv = ["learn", "kmeans", "--manifold-spec", SPHERE, "--n-clusters", "2",
            "--data", '{"points": [[1, 0, 0], [0.8, 0.6, 0], [-1, 0, 0], [-0.8, 0, 0.6]]}']
    assert "riemstats.cli._figures" not in _modules_after_geo(argv)


def test_dist_spot_value():
    out = run_geo(
        ["op", "dist", "--manifold-spec", SPHERE, "--inputs",
         '{"point_a": [1, 0, 0], "point_b": [0, 1, 0]}']
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"] == 1.5707963267948966


def test_exp_zero_tangent_echoes_base():
    out = run_geo(
        ["op", "exp", "--manifold-spec", SPHERE, "--inputs",
         '{"base": [0, 0, 1], "tangent": [0, 0, 0]}']
    )
    assert json.loads(out.stdout)["result"] == [0.0, 0.0, 1.0]


def test_spd_dist_spot_value():
    out = run_geo(
        ["op", "dist", "--manifold-spec", '{"name": "spd", "n": 2}', "--inputs",
         '{"point_a": [[1, 0], [0, 1]], "point_b": [[2.718281828459045, 0], [0, 1]]}']
    )
    assert json.loads(out.stdout)["result"] == pytest.approx(1.0, abs=1e-12)


def test_inputs_from_stdin():
    out = run_geo(
        ["op", "dist", "--manifold-spec", SPHERE, "--inputs", "-"],
        stdin='{"point_a": [1, 0, 0], "point_b": [0, 0, 1]}',
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"] == pytest.approx(np.pi / 2)


def test_geodesic_sampling():
    out = run_geo(
        ["op", "geodesic", "--manifold-spec", SPHERE, "--num-points", "3", "--inputs",
         '{"base": [1, 0, 0], "target": [0, 1, 0]}']
    )
    payload = json.loads(out.stdout)
    assert payload["times"] == [0.0, 0.5, 1.0]
    mid = np.asarray(payload["points"][1])
    np.testing.assert_allclose(mid, [np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0], atol=1e-12)


def test_serialization_round_trip_is_bit_exact():
    out = run_geo(
        ["op", "log", "--manifold-spec", SPHERE, "--inputs",
         '{"base": [1, 0, 0], "target": [0.36, 0.48, 0.8]}']
    )
    vec = np.asarray(json.loads(out.stdout)["result"])
    from riemstats.geometry import Hypersphere

    expected = Hypersphere(2).metric.log(np.array([0.36, 0.48, 0.8]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(vec, expected)  # parse(print(x)) == x exactly


def test_batched_inputs():
    out = run_geo(
        ["op", "dist", "--manifold-spec", SPHERE, "--inputs",
         '{"point_a": [[1, 0, 0], [0, 1, 0]], "point_b": [[0, 1, 0], [0, 1, 0]]}']
    )
    result = json.loads(out.stdout)["result"]
    assert result[0] == pytest.approx(np.pi / 2) and result[1] == 0.0


def test_exit_code_2_on_schema_error():
    out = run_geo(["op", "dist", "--manifold-spec", '{"name": "sphere?"}', "--inputs", "{}"])
    assert out.returncode == 2
    error = json.loads(out.stderr)["error"]
    assert error["code"] == "invalid_input"


def test_exit_code_2_on_bad_flags():
    out = run_geo(["op", "frobnicate", "--manifold-spec", SPHERE, "--inputs", "{}"])
    assert out.returncode == 2
    assert json.loads(out.stderr)["error"]["code"] == "invalid_arguments"


def test_exit_code_3_on_cut_locus():
    out = run_geo(
        ["op", "log", "--manifold-spec", SPHERE, "--inputs",
         '{"base": [1, 0, 0], "target": [-1, 0, 0]}']
    )
    assert out.returncode == 3
    assert json.loads(out.stderr)["error"]["code"] == "cut_locus"


def test_op_rejects_off_manifold_points():
    out = run_geo(
        ["op", "dist", "--manifold-spec", SPHERE, "--inputs",
         '{"point_a": [2, 0, 0], "point_b": [0, 1, 0]}']
    )
    assert out.returncode == 3
    assert json.loads(out.stderr)["error"]["code"] == "not_on_manifold"


def test_op_rejects_singular_gl_point():
    out = run_geo(
        ["op", "exp", "--manifold-spec", '{"name": "gl", "n": 2}', "--inputs",
         '{"base": [[0, 0], [0, 0]], "tangent": [[1, 0], [0, 1]]}']
    )
    assert out.returncode == 3


def test_exit_code_3_on_membership_failure():
    out = run_geo(
        ["learn", "mean", "--manifold-spec", SPHERE, "--data", '{"points": [[2, 0, 0]]}']
    )
    assert out.returncode == 3
    assert json.loads(out.stderr)["error"]["code"] == "not_on_manifold"


def test_exit_code_4_on_unconverged_mean():
    data = '{"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
    out = run_geo(
        ["learn", "mean", "--manifold-spec", SPHERE, "--data", data, "--max-iter", "1",
         "--tol", "1e-15"]
    )
    assert out.returncode == 4
    assert json.loads(out.stderr)["error"]["code"] == "no_convergence"
    ok = run_geo(
        ["learn", "mean", "--manifold-spec", SPHERE, "--data", data, "--max-iter", "1",
         "--tol", "1e-15", "--allow-unconverged"]
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["converged"] is False


def test_exit_code_5_on_validation_failure():
    out = run_geo(
        ["validate", "--manifold-spec", SPHERE, "--data",
         '{"points": [[1, 0, 0], [0, 2, 0]]}']
    )
    assert out.returncode == 5
    payload = json.loads(out.stdout)
    assert payload["failures"][0]["index"] == 1


def test_validate_reports_non_finite_residual_as_null():
    """Singular and indefinite SPD points fail at every tolerance; their
    residual is infinite, which JSON cannot hold, so it is written as null."""
    out = run_geo(
        ["validate", "--manifold-spec", '{"name": "spd", "n": 2}', "--data",
         '{"points": [[[2, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [0, -1]], [[1, 0.5], [0, 1]]]}']
    )
    assert out.returncode == 5

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(out.stdout, parse_constant=reject)
    assert payload["n_failed"] == 3
    assert payload["failures"] == [
        {"index": 1, "residual": None},
        {"index": 2, "residual": None},
        {"index": 3, "residual": 0.5},
    ]


def test_validate_tolerance_semantics():
    # A point of norm 1 + 1e-9 passes at the default 1e-8 tolerance.
    out = run_geo(
        ["validate", "--manifold-spec", SPHERE, "--data",
         '{"points": [[1.000000001, 0, 0]]}']
    )
    assert out.returncode == 0


def test_a_validated_spd_point_is_an_operand(capsys):
    """A point that ``validate`` accepts, 5e-9 from symmetric, is accepted by ``op dist``."""
    spec = '{"name": "spd", "n": 2}'
    point = "[[2, 5e-9], [0, 1]]"
    assert run(["validate", "--manifold-spec", spec, "--data", f'{{"points": [{point}]}}']) == 0
    argv = op("dist", f'{{"point_a": {point}, "point_b": [[1, 0], [0, 1]]}}', spec)
    assert run_inline(argv, capsys) == (0, None)


def test_tpca_on_large_spd_points(capsys):
    """The tangent basis's rank cutoff is relative, so SPD points of size 1e8,
    whose affine-invariant inner products are of size 1e-16, have one."""
    data = {"points": [[[1e8, 0], [0, 2e8]], [[2e8, 0], [0, 1e8]], [[1.5e8, 2e7], [2e7, 1.5e8]]]}
    spec = '{"name": "spd", "n": 2}'
    assert run(["learn", "tpca", "--manifold-spec", spec, "--data", json.dumps(data)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["explained_variance"][0] > got["explained_variance"][1] > 0.0


def test_kmeans_single_cluster_equals_mean():
    data = '{"points": [[1, 0, 0], [0, 1, 0], [0.6, 0.8, 0]]}'
    mean_out = run_geo(["learn", "mean", "--manifold-spec", SPHERE, "--data", data])
    km_out = run_geo(
        ["learn", "kmeans", "--manifold-spec", SPHERE, "--n-clusters", "1", "--data", data]
    )
    mean_pt = np.asarray(json.loads(mean_out.stdout)["estimate"])
    centroid = np.asarray(json.loads(km_out.stdout)["centroids"][0])
    np.testing.assert_allclose(centroid, mean_pt, atol=1e-6)


def test_tpca_matches_classical_reference():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 3)) @ np.diag([2.0, 1.0, 0.3])
    payload = json.dumps({"points": data.tolist()})
    out = run_geo(
        ["learn", "tpca", "--manifold-spec", '{"name": "euclidean", "n": 3}',
         "--data", payload, "--base-point", json.dumps(data.mean(axis=0).tolist())]
    )
    got = json.loads(out.stdout)
    centered = data - data.mean(axis=0)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / len(data))[::-1]
    np.testing.assert_allclose(got["explained_variance"], eigvals, atol=1e-10)


def test_online_kmeans_counts():
    data = '{"points": [[1, 0], [-1, 0], [1.2, 0], [-1.1, 0]]}'
    out = run_geo(
        ["learn", "online-kmeans", "--manifold-spec", '{"name": "euclidean", "n": 2}',
         "--n-clusters", "2", "--data", data]
    )
    payload = json.loads(out.stdout)
    assert payload["counts"] == [2, 2] and payload["n_rejected"] == 0


def test_figure_sphere_descent_values_non_increasing():
    out = run_geo(["figure", "sphere-descent"])
    payload = json.loads(out.stdout)
    values = np.asarray(payload["values"])
    assert np.all(np.diff(values) <= 1e-12)
    assert payload["converged"] is True


def test_figure_poincare_grid_inside_disk():
    out = run_geo(["figure", "poincare-grid", "--grid-size", "3", "--num-points", "30"])
    payload = json.loads(out.stdout)
    for curve in payload["curves"]:
        pts = np.asarray(curve["points"])
        assert np.all(np.linalg.norm(pts, axis=-1) < 1.0)


def test_figure_se3_endpoints():
    end = '{"rotation_vector": [0.2, 0.1, -0.3], "translation": [1, 2, 3]}'
    out = run_geo(["figure", "se3-geodesic", "--num-points", "4", "--end", end])
    payload = json.loads(out.stdout)
    first, last = payload["poses"][0], payload["poses"][-1]
    np.testing.assert_allclose(first["rotation"], np.eye(3), atol=1e-8)
    from riemstats.geometry import matrix_from_rotation_vector

    np.testing.assert_allclose(
        last["rotation"], matrix_from_rotation_vector(np.array([0.2, 0.1, -0.3])), atol=1e-8
    )
    np.testing.assert_allclose(last["translation"], [1.0, 2.0, 3.0], atol=1e-8)


def test_figure_csv_output(tmp_path):
    target = tmp_path / "grid.csv"
    out = run_geo(
        ["figure", "poincare-grid", "--grid-size", "2", "--num-points", "5",
         "--format", "csv", "--out", str(target)]
    )
    assert out.returncode == 0 and out.stdout == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "curve,s,x,y"
    assert len(lines) == 1 + 4 * 5


def test_csv_dataset_loading(tmp_path):
    target = tmp_path / "points.csv"
    target.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n")
    out = run_geo(["validate", "--manifold-spec", SPHERE, "--data", str(target)])
    assert out.returncode == 0
    assert json.loads(out.stdout)["n_points"] == 2


def test_landmarks_spec():
    spec = '{"name": "landmarks", "k": 2, "base": {"name": "hypersphere", "n": 2}}'
    out = run_geo(
        ["op", "dist", "--manifold-spec", spec, "--inputs",
         '{"point_a": [[1, 0, 0], [0, 1, 0]], "point_b": [[0, 1, 0], [0, 1, 0]]}']
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"] == pytest.approx(np.pi / 2)


def test_se_homogeneous_matrix_input():
    pose = "[[1,0,0,1],[0,1,0,2],[0,0,1,3],[0,0,0,1]]"
    out = run_geo(
        ["op", "log", "--manifold-spec", '{"name": "se", "n": 3}', "--inputs",
         '{"base": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]], "target": ' + pose + "}"]
    )
    assert out.returncode == 0
    vec = np.asarray(json.loads(out.stdout)["result"])
    np.testing.assert_allclose(vec[:3, 3], [1.0, 2.0, 3.0], atol=1e-12)


def test_hyperboloid_representation():
    out = run_geo(
        ["op", "dist", "--manifold-spec", '{"name": "hyperbolic", "n": 2}', "--inputs",
         '{"point_a": [1, 0, 0], "point_b": [1.6666666666666667, 1.3333333333333333, 0]}']
    )
    assert json.loads(out.stdout)["result"] == pytest.approx(np.log(3.0), abs=1e-12)


def test_unknown_spec_fields_rejected():
    out = run_geo(
        ["op", "dist", "--manifold-spec", '{"name": "hypersphere", "n": 2, "radius": 2}',
         "--inputs", '{"point_a": [1, 0, 0], "point_b": [0, 1, 0]}']
    )
    assert out.returncode == 2


@pytest.mark.parametrize("argv", EXAMPLE_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_documented_examples_succeed(argv):
    out = run_geo(argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


# -- one input path: every point is membership-checked, every object field-checked --

S2_DATA = '{"points": [[1, 0, 0], [0, 1, 0], [0.6, 0.8, 0]]}'
LINEAR = '{"type": "linear", "vector": [1, 0, 0]}'
POSE = '{"rotation": [[1,0,0],[0,1,0],[0,0,1]], "translation": [0, 0, 0]}'
BAD_POSE = '{"rotation": [[2,0,0],[0,1,0],[0,0,1]], "translation": [0, 0, 0]}'


def run_inline(argv, capsys):
    """``geo`` in this process: (exit code, error object or None)."""
    code = run(argv)
    err = capsys.readouterr().err
    return code, (json.loads(err)["error"] if err else None)


def op(name, inputs, spec=SPHERE):
    return ["op", name, "--manifold-spec", spec, "--inputs", inputs]


OFF_MANIFOLD = {
    "exp base": op("exp", '{"base": [2, 0, 0], "tangent": [0, 0, 0]}'),
    "log base": op("log", '{"base": [2, 0, 0], "target": [0, 1, 0]}'),
    "log target": op("log", '{"base": [1, 0, 0], "target": [0, 2, 0]}'),
    "dist point_b": op("dist", '{"point_a": [1, 0, 0], "point_b": [[0, 1, 0], [0, 3, 0]]}'),
    "geodesic target": op("geodesic", '{"base": [1, 0, 0], "target": [0, 2, 0]}'),
    "transport base": op("transport", '{"vector": [0, 0, 1], "base": [2, 0, 0], '
                                      '"direction": [0, 1, 0]}'),
    "transport target": op("transport", '{"vector": [0, 0, 1], "base": [1, 0, 0], '
                                        '"target": [0, 2, 0]}'),
    "se pose": op("dist", '{"point_a": ' + BAD_POSE + ', "point_b": ' + POSE + "}", SE3),
    "tpca --base-point": ["learn", "tpca", "--manifold-spec", SPHERE, "--data", S2_DATA,
                          "--base-point", "[3, 0, 0]"],
    "learn --x0": ["learn", "rgrad", "--manifold-spec", SPHERE, "--field", LINEAR,
                   "--x0", "[2, 0, 0]"],
    "figure --x0": ["figure", "sphere-descent", "--x0", "[2, 0, 0]"],
    "figure --start": ["figure", "se3-geodesic", "--start", BAD_POSE],
    "figure --end": ["figure", "se3-geodesic", "--end", BAD_POSE],
    "field point": ["learn", "rgrad", "--manifold-spec", SPHERE, "--x0", "[1, 0, 0]",
                    "--field", '{"type": "squared-distance", "point": [0, 0, 2]}'],
    "figure field point": ["figure", "sphere-descent",
                           "--field", '{"type": "squared-distance", "point": [0, 0, 2]}'],
}


@pytest.mark.parametrize("argv", OFF_MANIFOLD.values(), ids=OFF_MANIFOLD.keys())
def test_off_manifold_points_exit_3(argv, capsys):
    code, error = run_inline(argv, capsys)
    assert (code, error["code"]) == (3, "not_on_manifold"), error


SPD_METRIC = '{"name": "spd", "n": 2, "metric": {"family": "log-euclidean", "scale": 2}}'
INVALID = {
    "batch --x0": ["learn", "rgrad", "--manifold-spec", SPHERE, "--field", LINEAR,
                   "--x0", "[[1, 0, 0], [0, 1, 0]]"],
    "batch figure --x0": ["figure", "sphere-descent", "--x0", "[[1, 0, 0], [0, 1, 0]]"],
    "batch --base-point": ["learn", "tpca", "--manifold-spec", SPHERE, "--data", S2_DATA,
                           "--base-point", "[[1, 0, 0], [0, 1, 0]]"],
    "batch field point": ["learn", "rgrad", "--manifold-spec", SPHERE, "--x0", "[1, 0, 0]",
                          "--field", '{"type": "squared-distance", '
                                     '"point": [[0, 0, 1], [0, 1, 0]]}'],
    "spec missing": op("dist", "{}", '{"name": "stiefel", "n": 3}'),
    "spec unknown": op("dist", "{}", '{"name": "hypersphere", "n": 2, "radius": 2}'),
    "metric unknown": op("dist", "{}", SPD_METRIC),
    "metric not object": op("dist", "{}", '{"name": "so", "n": 3, "metric": "bi-invariant"}'),
    "inputs missing": op("dist", '{"point_a": [1, 0, 0]}'),
    "inputs unknown": op("dist", '{"point_a": [1, 0, 0], "point_b": [0, 1, 0], "c": 1}'),
    "inputs not object": op("dist", "[[1, 0, 0], [0, 1, 0]]"),
    "point not numeric": op("dist", '{"point_a": "north", "point_b": [0, 1, 0]}'),
    "linear missing": ["learn", "rgrad", "--manifold-spec", SPHERE, "--x0", "[1, 0, 0]",
                       "--field", '{"type": "linear"}'],
    "linear unknown": ["learn", "rgrad", "--manifold-spec", SPHERE, "--x0", "[1, 0, 0]",
                       "--field", '{"type": "linear", "vector": [1, 0, 0], "scale": 2}'],
    "squared-distance missing": ["figure", "sphere-descent",
                                 "--field", '{"type": "squared-distance"}'],
    "squared-distance unknown": ["figure", "sphere-descent", "--field",
                                 '{"type": "squared-distance", "point": [0, 0, 1], "w": 1}'],
    "vector length": ["learn", "rgrad", "--manifold-spec", SPHERE, "--x0", "[1, 0, 0]",
                      "--field", '{"type": "linear", "vector": [1, 0]}'],
    "figure vector length": ["figure", "sphere-descent",
                             "--field", '{"type": "linear", "vector": [1, 0, 0, 0]}'],
    "pose missing": op("dist", '{"point_a": {"rotation": [[1,0,0],[0,1,0],[0,0,1]]}, '
                               '"point_b": ' + POSE + "}", SE3),
    "pose unknown": ["figure", "se3-geodesic", "--end",
                     '{"rotation_vector": [0, 0, 1], "translation": [0, 0, 0], "scale": 1}'],
    "dataset missing": ["validate", "--manifold-spec", SPHERE, "--data", '{"point": []}'],
    "dataset unknown": ["learn", "mean", "--manifold-spec", SPHERE,
                        "--data", '{"points": [[1, 0, 0]], "names": ["a"]}'],
    "dataset ragged": ["validate", "--manifold-spec", SPHERE,
                       "--data", '{"points": [[1, 0, 0], [[1, 0, 0], [0, 1, 0]]]}'],
}


@pytest.mark.parametrize("argv", INVALID.values(), ids=INVALID.keys())
def test_invalid_input_exits_2(argv, capsys):
    code, error = run_inline(argv, capsys)
    assert (code, error["code"]) == (2, "invalid_input"), error


TWO = "[[1, 0, 0], [0, 1, 0]]"
THREE = "[[0, 0, 1], [0, 1, 0], [0.6, 0.8, 0]]"
MISMATCHED_BATCHES = {
    "dist": op("dist", f'{{"point_a": {TWO}, "point_b": {THREE}}}'),
    "exp": op("exp", f'{{"base": {TWO}, "tangent": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}'),
    "transport": op("transport", f'{{"vector": [0, 0, 0], "base": {TWO}, "target": {THREE}}}'),
}


@pytest.mark.parametrize("argv", MISMATCHED_BATCHES.values(), ids=MISMATCHED_BATCHES.keys())
def test_batches_that_do_not_broadcast_exit_2(argv, capsys):
    code, error = run_inline(argv, capsys)
    assert (code, error["code"]) == (2, "shape_error"), error
    assert "(2,)" in error["message"] and "(3,)" in error["message"]


def test_linear_field_on_matrix_points(capsys):
    argv = ["learn", "rgrad", "--manifold-spec", '{"name": "spd", "n": 2}', "--max-iter", "3",
            "--allow-unconverged", "--field", '{"type": "linear", "vector": [[1, 0], [0, 1]]}',
            "--x0", "[[1, 0], [0, 1]]"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["n_iter"] == 3
