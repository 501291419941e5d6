"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``.

They are outside the library's test paths on purpose: the smoke runs start
worker processes and take tens of seconds.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _test_catalog():
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_riemstats_conftest", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module.ALL_CASES


def test_every_test_catalog_space_has_a_batch_ops_entry():
    import riemstats.geometry as geometry

    ours = {case.name: case.build(geometry) for case in cases.CASES}
    pairs = {(type(m).__name__, type(g).__name__) for m, g in ours.values()}
    for case in _test_catalog():
        assert case.name in ours, f"{case.name} is not measured by batch_ops"
        pair = (type(case.manifold).__name__, type(case.metric).__name__)
        assert pair in pairs, f"{pair} is not measured by batch_ops"


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end_metrics())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    pass_spans = [
        ["learning.frechet_mean", 0.0, 10.0, -1, {"n_iter": 3}],
        ["geometry.SphereMetric.log", 1.0, 4.0, 0, {"points": 100}],
        ["geometry.SphereMetric.exp", 5.0, 6.0, 0, {"points": 1}],
    ]
    m = spans.pass_metrics(pass_spans)
    assert m["learning.frechet_mean.self_s"] == pytest.approx(6.0)
    assert m["learning.frechet_mean.n_iter"] == 3
    assert m["geometry.self_s"] == pytest.approx(4.0)
    assert m["geometry.points_per_call"] == pytest.approx(50.5)


def test_importtime_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       100 |        150 |   scipy",
        "import time:       400 |        400 |   scipy.linalg",
        "import time:        10 |        860 | riemstats",
    ])
    totals = spans.parse_importtime(text)
    assert totals["numpy"] == pytest.approx(300e-6)
    assert totals["scipy"] == pytest.approx(550e-6)
    assert totals["riemstats"] == pytest.approx(860e-6)


def test_each_call_is_bracketed_by_reference_runs():
    kernel_times = iter([1.0, 2.0, 3.0])
    tasks = [workloads.Task(name, lambda name=name: name, None) for name in ("a", "b")]
    times, last = {"a": [], "b": []}, {}
    worker._run_pass(tasks, times, last, {}, kernel=lambda: next(kernel_times))
    assert [ref for _, ref in times["a"] + times["b"]] == [1.5, 2.5]
    assert last == {"a": "a", "b": "b"}
    assert worker._normalized([(0.3, 1.5), (0.5, 2.5)], 1.0) == pytest.approx([0.2, 0.2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stdout  # fail_frac == 0
    expected = run.per_layer_metrics() if trace else run.end_to_end_metrics()
    assert list(result["metrics"]) == list(expected)
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace{trace}.json")
                        .read_text())
    assert list(record["worker"]["tasks"]) == [t for _, t in workloads.task_layers(workload)]


def test_refuses_a_tree_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
