"""riemstats benchmark: seeded workloads timed layer by layer from outside.

    python3 perfbench/run.py --workload batch_ops --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 [--trace 1]

Run from the root of a source tree (``src/riemstats`` must exist); the
library is imported from that tree, never from site-packages. The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones; lines before it give each task's median,
sample count and tail percentile, the failure share, and the provenance.
The full record (and the spans of a traced run) goes to ``.perfbench_out/``.

Each workload runs in a fresh worker process (``worker.py``), pinned to one
CPU, with the BLAS pools capped at ``BLAS_THREADS`` thread. ``setup_s`` is
the median over ``SETUPS`` fresh processes, each timed from its start until
its first timed repetition; the last of them goes on to the timed passes.
``setup_s`` and ``wall_s`` are normalized to the speed of a reference
kernel (``reference.py``); the raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = workloads.WORKLOADS
SETUPS = 3
RUN_BUDGET_S = 175.0
# One BLAS thread (at most nproc): the workloads' matrices are 2x2 to 6x6,
# where a second OpenBLAS thread does no useful work but spins, and a
# spinning pair slows down many times over whenever the host takes one of
# the two vCPUs away.
BLAS_THREADS = 1


def _pin_cpu():
    """The CPU the workers run on: the last one this process may use.

    The worker, its reference kernel and its ``geo`` children share one CPU,
    so that the kernel measures the speed of the CPU the calls ran on (on a
    shared virtual machine the vCPUs slow down independently).
    """
    return max(os.sched_getaffinity(0))


def task_metrics(workload):
    """Per-layer metric name -> task, for each task of a workload."""
    return {f"{layer}.{task}_s": task for layer, task in workloads.task_layers(workload)}


def end_to_end_metrics():
    return {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    m = {
        "linalg.matrix_log.self_s": "s",
        "linalg.matrix_log.calls": "count",
        "linalg.matrix_log.matrices": "count",
        "linalg.matrix_log.loop_frac": "frac",
    }
    for kernel in ("matrix_exp", "sym_eig"):
        m.update({f"linalg.{kernel}.self_s": "s", f"linalg.{kernel}.calls": "count",
                  f"linalg.{kernel}.matrices": "count", f"linalg.{kernel}.bytes_in": "bytes"})
    m.update({n: "s" for n in task_metrics("batch_ops") if n.startswith("geometry.")})
    m.update({
        "geometry.calls": "count",
        "geometry.points_per_call": "count",
        "geometry.self_s": "s",
        "numerical.log_by_shooting.self_s": "s",
        "numerical.log_by_shooting.calls": "count",
        "numerical.log_by_shooting.exp_calls": "count",
        "numerical.exp_by_integration.self_s": "s",
        "numerical.christoffel.calls": "count",
        "numerical.transport_by_ladder.self_s": "s",
        "numerical.transport_by_ladder.exp_calls": "count",
        "numerical.transport_by_ladder.log_calls": "count",
        "numerical.invariant_exp.self_s": "s",
    })
    m.update({n: "s" for n in task_metrics("batch_ops") if n.startswith("numerical.")})
    m.update({
        "learning.frechet_mean.self_s": "s",
        "learning.frechet_mean.calls": "count",
        "learning.frechet_mean.n_iter": "count",
        "learning.frechet_variance.self_s": "s",
        "learning.frechet_variance.calls": "count",
        "learning.kmeans.n_iter": "count",
        "learning.kmeans.frechet_share": "frac",
        "learning.online_kmeans.self_s": "s",
        "learning.online_kmeans.n_rejected": "count",
        "learning.tpca.self_s": "s",
        "learning.descent.n_iter": "count",
    })
    m.update({n: "s" for n in task_metrics("estimators")})
    m.update({"cli.interpreter_s": "s", "cli.import.numpy_s": "s",
              "cli.import.scipy_s": "s", "cli.import.riemstats_s": "s"})
    m["trace.overhead_frac"] = "frac"
    return m


def _nproc():
    return len(os.sched_getaffinity(0))


def _worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, _nproc()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GEO_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)  # the worker imports riemstats from ROOT/src only
    return env


def _spawn(args, deadline, extra, importtime=False):
    """Start one worker, wait for it, return (its JSON result, its stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.monotonic()
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(t0), *extra]
    cpu = _pin_cpu()
    proc = subprocess.run(cmd, env=_worker_env(), cwd=str(ROOT), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(args, blas):
    return {
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "blas_threads": min(BLAS_THREADS, _nproc()),
        "nproc": _nproc(),
        "worker_cpu": _pin_cpu(),
        "cpu_model": _cpu_model(),
        "loop": "closed, one client",
        "seconds": args.seconds,
    }


def _layer_values(workload, res, import_times):
    """Every per-layer metric of a traced run; layers the workload does not reach read 0."""
    layers = res.get("layers", {})
    tasks = task_metrics(workload)
    values = {}
    for name in per_layer_metrics():
        if name in tasks:
            values[name] = res["traced_tasks"][tasks[name]]
        elif name.startswith("cli.import."):
            values[name] = import_times.get(name[len("cli.import."):-len("_s")], 0.0)
        elif name == "cli.interpreter_s":
            values[name] = res.get("interpreter_s", 0.0)
        elif name == "trace.overhead_frac":
            values[name] = res["traced_wall_s"] / res["wall_s"] - 1.0
        else:
            values[name] = layers.get(name, 0.0)
    return values


def run_one(args):
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--smoke"] if args.smoke else []
    if args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        res, stderr = _spawn(args, deadline, [*extra, "--trace", "1", "--spans-out",
                                              str(spans_path)], importtime=True)
        import spans

        import_times = res.get("imports") or spans.parse_importtime(stderr)
        units = per_layer_metrics()
        values = _layer_values(args.workload, res, import_times)
    else:
        setups = [_spawn(args, deadline, extra + ["--setup-only"])[0]
                  for _ in range(0 if args.smoke else SETUPS - 1)]
        res, _ = _spawn(args, deadline, extra)
        setups.append(res)
        units = end_to_end_metrics()
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"]}
        res["setup_samples_s"] = [s["setup_s"] for s in setups]
        res["setup_raw_samples_s"] = [s["setup_raw_s"] for s in setups]
        print(f"{args.workload} raw setup_s median="
              f"{statistics.median(res['setup_raw_samples_s']):.6g} s (unnormalized)")

    for task, summary in res["tasks"].items():
        tail = (f"p{summary['tail_pct']:g}={summary['tail_s']:.6f}s"
                if summary["tail_pct"] is not None else "no tail percentile (n <= 10)")
        print(f"task {task:34s} median={summary['median_s']:.6f}s n={summary['n']} {tail}"
              f" raw_median={summary['raw_median_s']:.6f}s")
    for name, reason in sorted(res["failures"].items()):
        print(f"FAILED {name}: {reason}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"{args.workload} fail_frac={fail_frac:.6g} ({res['failed']}/{res['attempted']})"
          f" passes={res['passes']}")
    if "raw_wall_s" in res:
        print(f"{args.workload} raw_wall_s={res['raw_wall_s']:.6g} s (unnormalized)"
              f" reference_s={res['reference_s']:.6g} s (REF_S={res['ref_s']:g} s)")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    prov = provenance(args, res.pop("blas", None))
    print("provenance " + json.dumps(prov))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "fail_frac": fail_frac, "metrics": metrics, "worker": res}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own run; each metric and fail_frac by name, with units."""
    rows, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=RUN_BUDGET_S + 10)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[workload] = result
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"{workload} fail_frac = {result['failed'] / result['attempted']:.6g}"
              f" ({result['failed']}/{result['attempted']})")
    if args.trace:
        _print_baseline_table(rows)
    print(json.dumps({"correct": ok, "workloads": rows}))
    return 0


def _print_baseline_table(rows):
    """The ROADMAP baseline rows, read from the traced runs via baseline_map.json."""
    mapping = json.loads((HERE / "baseline_map.json").read_text())
    print("ROADMAP baseline row -> per-layer metric (workload): value")
    for row in mapping["rows"]:
        values = []
        for ref in row["metrics"]:
            metric = rows.get(ref["workload"], {}).get("metrics", {}).get(ref["metric"])
            if metric is not None:
                values.append(f"{ref['metric']} ({ref['workload']}) = "
                              f"{metric['value']:.6g} {metric['unit']}")
        print(f"  {row['row']}: " + "; ".join(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over small inputs and one set-up (for the tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riemstats" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no riemstats source tree at {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
