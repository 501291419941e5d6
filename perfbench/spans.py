"""Outside-in span recorder for the traced run.

Wrappers are installed from here, at every lookup site of a wrapped name:
each ``riemstats`` module attribute that is the original function (so both
``riemstats.geometry.numerical.log_by_shooting`` and the names that
``stiefel`` and ``invariant`` imported from it), and the metric classes'
own ``exp``/``log``/``dist``/``squared_dist``/``parallel_transport``. The
library itself is not modified; ``Tracer.remove`` restores every original.

A span is ``[name, start, end, parent, attrs]`` with ``perf_counter``
times and the parent's index in the same list (-1 at top level). Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

METRIC_OPS = ("exp", "log", "dist", "squared_dist", "parallel_transport")

# (module, function name) -> span name, wrapped at every lookup site.
FUNCTIONS = {
    ("riemstats.linalg", "matrix_log"): "linalg.matrix_log",
    ("riemstats.linalg", "matrix_exp"): "linalg.matrix_exp",
    ("riemstats.linalg", "sym_eig"): "linalg.sym_eig",
    ("riemstats.geometry.numerical", "log_by_shooting"): "numerical.log_by_shooting",
    ("riemstats.geometry.numerical", "exp_by_integration"): "numerical.exp_by_integration",
    ("riemstats.geometry.numerical", "transport_by_ladder"): "numerical.transport_by_ladder",
    ("riemstats.learning.frechet", "frechet_mean"): "learning.frechet_mean",
    ("riemstats.learning.frechet", "frechet_variance"): "learning.frechet_variance",
    ("riemstats.learning.descent", "riemannian_gradient_descent"): "learning.descent",
}

# (module, class, method) -> span name.
METHODS = {
    ("riemstats.geometry.numerical", "ChristoffelField", "__call__"): "numerical.christoffel",
    ("riemstats.geometry.invariant", "InvariantMetric", "exp"): "numerical.invariant_exp",
    ("riemstats.learning.kmeans", "RiemannianKMeans", "fit"): "learning.kmeans",
    ("riemstats.learning.kmeans", "OnlineKMeans", "fit"): "learning.online_kmeans",
    ("riemstats.learning.pca", "TangentPCA", "fit"): "learning.tpca",
}


def _matrix_info(args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    arr = mat if isinstance(mat, np.ndarray) else np.asarray(mat, dtype=float)
    return {"matrices": arr.size // max(arr.shape[-1] * arr.shape[-2], 1), "bytes": arr.nbytes}


def _points_info(args, kwargs):
    """Batch size of a metric call: the larger leading size of its first two arrays."""
    metric = args[0]
    ndim = len(metric.manifold.point_shape)
    points = 1
    for arr in list(args[1:3]) + list(kwargs.values())[:2]:
        shape = np.shape(arr)
        if len(shape) > ndim:
            points = max(points, int(np.prod(shape[: len(shape) - ndim])))
    return {"points": points}


ANNOTATE = {
    "learning.frechet_mean": lambda out: {"n_iter": out.n_iter},
    "learning.kmeans": lambda out: {"n_iter": out.n_iter_},
    "learning.online_kmeans": lambda out: {"n_rejected": out.n_rejected_},
    "learning.descent": lambda out: {"n_iter": out.n_iter},
}


class Tracer:
    """Installs and removes span wrappers; owns the span list of one run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._collect()

    def _wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      info(args, kwargs) if info else None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                record[4] = {**(record[4] or {}), **annotate(out)}
            return out

        return wrapper

    def _collect(self):
        loaded = {k: m for k, m in sys.modules.items() if k.startswith("riemstats") and m}
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(loaded[module], attr)
            info = _matrix_info if name.startswith("linalg.") else None
            wrapper = self._wrap(name, original, info)
            for mod in loaded.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(loaded[module], cls_name)
            original = cls.__dict__[attr]
            info = _points_info if name == "numerical.invariant_exp" else None
            self._patches.append((cls, attr, original, self._wrap(name, original, info)))
        base = loaded["riemstats.geometry.base"].RiemannianMetric
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for op in METRIC_OPS:
                if op not in cls.__dict__ or (cls.__name__, op) == ("InvariantMetric", "exp"):
                    continue
                original = cls.__dict__[op]
                wrapper = self._wrap(f"geometry.{cls.__name__}.{op}", original, _points_info)
                self._patches.append((cls, op, original, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self):
        """Spans recorded since the last call; the recorder starts a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def pass_metrics(spans):
    """Per-layer aggregates of the spans of one pass."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = defaultdict(float)
    geo_points = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        attrs = attrs or {}
        if name.startswith("geometry."):
            m["geometry.calls"] += 1
            m["geometry.self_s"] += own
            geo_points += attrs["points"]
            if name.endswith(".exp") and parent_name == "numerical.log_by_shooting":
                m["numerical.log_by_shooting.exp_calls"] += 1
            if parent_name == "numerical.transport_by_ladder":
                if name.endswith(".exp"):
                    m["numerical.transport_by_ladder.exp_calls"] += 1
                elif name.endswith(".log"):
                    m["numerical.transport_by_ladder.log_calls"] += 1
            continue
        if name.startswith("linalg."):
            m[name + ".self_s"] += own
            m[name + ".calls"] += 1
            nested = parent_name == name  # per-matrix recursion inside matrix_log
            if not nested:
                m[name + ".matrices"] += attrs["matrices"]
                m[name + ".bytes_in"] += attrs["bytes"]
            elif name == "linalg.matrix_log":
                m["linalg.matrix_log.loop_matrices"] += attrs["matrices"]
            continue
        m[name + ".self_s"] += own
        m[name + ".calls"] += 1
        for key, value in attrs.items():
            if key != "points":
                m[f"{name}.{key}"] += value
        if name == "numerical.invariant_exp" and parent_name == "numerical.log_by_shooting":
            m["numerical.log_by_shooting.exp_calls"] += 1
        if name == "learning.kmeans":
            m["learning.kmeans.time_s"] += dur
        if name == "learning.frechet_mean" and parent_name == "learning.kmeans":
            m["learning.kmeans.frechet_s"] += dur
    m["geometry.points_per_call"] = _ratio(geo_points, m["geometry.calls"])
    m["linalg.matrix_log.loop_frac"] = _ratio(
        m.pop("linalg.matrix_log.loop_matrices", 0.0), m["linalg.matrix_log.matrices"]
    )
    m["learning.kmeans.frechet_share"] = _ratio(
        m.pop("learning.kmeans.frechet_s", 0.0), m.pop("learning.kmeans.time_s", 0.0)
    )
    return dict(m)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def parse_importtime(stderr_text):
    """Cumulative seconds per top-level package from ``python -X importtime``.

    Entries are printed children first; an entry counts for its package only
    when no enclosing entry belongs to the same package, so ``scipy`` sums
    ``scipy`` and ``scipy.linalg`` where both are imported at top level.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = len(raw) - len(raw.lstrip(" "))
        entries.append((depth, raw.strip(), int(parts[1]) * 1e-6))
    totals = defaultdict(float)
    stack = []  # enclosing entries, walking parents before children
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if not any(p == package for _, p in stack):
            totals[package] += cumulative
        stack.append((depth, package))
    return dict(totals)
