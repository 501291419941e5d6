"""One workload process: set up, run timed passes, check, report one JSON line.

Started by ``run.py``; not meant to be run by hand. ``--t0`` is the
``time.monotonic()`` reading the parent took just before starting this
process (the clock is shared between processes on Linux), so ``setup_s``
covers interpreter start, the ``riemstats`` import, building the spaces,
generating the inputs and one untimed warm-up call of every task.

The loop is closed with one client: each call starts when the previous one
returned. One pass calls every task once; passes repeat until ``--seconds``
have elapsed. With ``--trace 1`` untraced and traced passes alternate, and
the span recorder is installed only for the traced ones.

Each call, the warm-up calls included, sits between two runs of a fixed
reference kernel (``reference.py``), and its time is divided by the mean of
those two kernel times; ``reference.REF_S`` turns the ratio back into
seconds at the reference speed. ``wall_s`` sums each task's median of these
speed-normalized call times. ``setup_s`` leaves the kernel's own runs out
and is scaled by ``REF_S`` over the median kernel time of the warm-up pass.
The raw times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def _percentile_summary(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    out = {"n": n, "median_s": median, "tail_pct": None, "tail_s": None}
    if n > 10:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail_s"] = ordered[n - 11]
    return out


def _median(values):
    return _percentile_summary(values)["median_s"] if values else 0.0


def _blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no machine-readable config
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import riemstats
    import riemstats.geometry.numerical  # noqa: F401  (explicit for the tracer)

    if Path(riemstats.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"riemstats imported from {riemstats.__file__}, not {ROOT / 'src'}")
    return riemstats


def _geo_env():
    """The worker's environment, with the source tree first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_pass(tasks, times, last, errors, kernel=None):
    """Call every task once; append ``(call_s, reference_s)`` per call.

    With a reference ``kernel`` (a callable returning its own run time), each
    call is bracketed by kernel runs and ``reference_s`` is the mean of the
    two; without one it is ``None`` (the untimed warm-up pass).
    """
    ref_before = kernel() if kernel else None
    for task in tasks:
        start = time.perf_counter()
        try:
            out = task.call()
        except Exception as exc:  # a raising operation is a counted failure
            elapsed = time.perf_counter() - start
            errors.setdefault(task.name, f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            last[task.name] = out
        ref_s = None
        if kernel:
            ref_after = kernel()
            ref_s, ref_before = 0.5 * (ref_before + ref_after), ref_after
        times[task.name].append((elapsed, ref_s))


def _normalized(samples, ref_s):
    """Call times at the reference speed: ``ref_s * call_s / reference_s``."""
    return [ref_s * call / ref for call, ref in samples]



def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="one pass, small batches")
    parser.add_argument("--spans-out", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    rs = _import_library()
    sys.path.insert(0, str(HERE))
    import reference
    import workloads

    runner = workloads.GeoRunner(_geo_env(), str(ROOT))
    tasks = workloads.build(args.workload, rs, args.seed, runner, smoke=args.smoke)
    kernel = reference.Reference()
    warm_up = {t.name: [] for t in tasks}
    _run_pass(tasks, warm_up, {}, {}, kernel)  # the untimed warm-up call
    setup_raw_s = time.monotonic() - args.t0 - kernel.total_s
    ref_s = reference.REF_S
    setup_s = setup_raw_s * ref_s / _median([r for t in tasks for _, r in warm_up[t.name]])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    plain = {t.name: [] for t in tasks}
    traced = {t.name: [] for t in tasks}
    last, errors, layer_passes, all_spans, interpreter = {}, {}, [], [], []
    deadline = time.perf_counter() + args.seconds
    n_passes = 0
    while True:
        _run_pass(tasks, plain, last, errors, kernel)
        n_passes += 1
        if tracer is not None:
            tracer.install()
            runner.importtime = True
            try:
                _run_pass(tasks, traced, last, errors, kernel)
            finally:
                tracer.remove()
                runner.importtime = False
            pass_spans = tracer.take()
            layer_passes.append(spans.pass_metrics(pass_spans))
            all_spans.append(pass_spans)
            if runner.stderr_log:
                interpreter.append(runner.bare_interpreter())
        if args.smoke or time.perf_counter() >= deadline:
            break

    failures = dict(errors)
    for task in tasks:
        if task.name in failures:
            continue
        if task.name not in last:
            failures[task.name] = "no output"
            continue
        try:
            reason = task.check(last[task.name], last)
        except Exception as exc:  # a check that cannot run is a failed check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[task.name] = reason

    attempted = sum(len(plain[t.name]) + len(traced[t.name]) for t in tasks)
    failed = sum(len(plain[n]) + len(traced[n]) for n in failures)
    tasks_out = {}
    for t in tasks:
        summary = _percentile_summary(_normalized(plain[t.name], ref_s))
        summary["raw_median_s"] = _median([call for call, _ in plain[t.name]])
        tasks_out[t.name] = summary
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "passes": n_passes,
        "wall_s": sum(s["median_s"] for s in tasks_out.values()),
        "raw_wall_s": sum(s["raw_median_s"] for s in tasks_out.values()),
        "reference_s": _median([r for t in tasks for _, r in plain[t.name]]),
        "ref_s": ref_s,
        "tasks": tasks_out,
        "samples_s": plain,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas_info(),
    }
    if tracer is not None:
        traced_tasks = {t.name: _median(_normalized(traced[t.name], ref_s)) for t in tasks}
        result["traced_wall_s"] = sum(traced_tasks.values())
        result["traced_tasks"] = traced_tasks
        # Times: the median over the traced passes. Counts: the first traced
        # pass, which fits the same inputs in every run of a seed (K-means
        # fits another rotation of its sample in each pass).
        keys = sorted({k for p in layer_passes for k in p})
        result["layers"] = {
            k: (_median([p.get(k, 0.0) for p in layer_passes])
                if k.endswith(("_s", "_share")) else layer_passes[0].get(k, 0.0))
            for k in keys
        }
        if runner.stderr_log:
            result["interpreter_s"] = _median(interpreter)
            imports = [spans.parse_importtime(text) for text in runner.stderr_log]
            result["imports"] = {
                pkg: _median([i.get(pkg, 0.0) for i in imports])
                for pkg in ("numpy", "scipy", "riemstats")
            }
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(
                    {"fields": ["name", "start", "end", "parent"],
                     "passes": [[s[:4] for s in pass_spans] for pass_spans in all_spans]},
                    handle,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
