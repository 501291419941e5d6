"""Argument parsing and command dispatch for the ``geo`` executable.

Exit codes: 0 success, 2 invalid input or schema, 3 geometric domain error
(cut locus, membership, ...), 4 estimator non-convergence, 5 validation
failure. Every error path prints a single-line JSON object
``{"error": {"code", "message"}}`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..errors import ConvergenceError, GeometryError, ShapeError
from ..geometry.base import ATOL
from ._specs import (
    SchemaError,
    load_dataset,
    read_json_source,
    read_point,
    resolve_manifold,
    take_fields,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_UNCONVERGED = 4
EXIT_INVALID_DATA = 5


class _CliError(Exception):
    def __init__(self, code, message, exit_code):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """Argparse that reports errors as single-line JSON on stderr."""

    def error(self, message):
        raise _CliError("invalid_arguments", f"{self.prog}: {message}", EXIT_SCHEMA)


def _emit(payload, out=None, csv=None):
    if csv is not None:
        header, rows = csv
        lines = [header] + [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(rows)]
        text = "\n".join(lines)
    else:
        text = json.dumps(payload, default=lambda value: value.tolist())
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _manifold_from_args(args):
    spec = read_json_source(args.manifold_spec, "manifold spec")
    return resolve_manifold(spec)


def _given(args, *names):
    """The named options the user gave; the rest keep the callee's own defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_op(args):
    if args.num_points < 2:
        raise SchemaError("--num-points must be >= 2")
    manifold, metric, codec = _manifold_from_args(args)
    payload = read_json_source(args.inputs, "operation inputs")
    op = args.operation

    def point_of(obj):
        return read_point(obj, manifold, codec, batched=True)

    if op == "exp":
        fields = take_fields(payload, "operation inputs", ["base", "tangent"])
        result = metric.exp(codec.decode_tangent(fields["tangent"]), point_of(fields["base"]))
        _emit({"result": codec.encode(result)})
    elif op == "log":
        fields = take_fields(payload, "operation inputs", ["base", "target"])
        result = metric.log(point_of(fields["target"]), point_of(fields["base"]))
        _emit({"result": result})
    elif op == "dist":
        fields = take_fields(payload, "operation inputs", ["point_a", "point_b"])
        result = metric.dist(point_of(fields["point_a"]), point_of(fields["point_b"]))
        _emit({"result": result})
    elif op == "geodesic":
        fields = take_fields(payload, "operation inputs", ["base"], ["tangent", "target"])
        base = point_of(fields["base"])
        if ("tangent" in fields) == ("target" in fields):
            raise SchemaError("geodesic needs exactly one of 'tangent' / 'target'")
        if "tangent" in fields:
            curve = metric.geodesic(
                base, initial_tangent_vec=codec.decode_tangent(fields["tangent"])
            )
        else:
            curve = metric.geodesic(base, end_point=point_of(fields["target"]))
        times = np.linspace(0.0, 1.0, args.num_points)
        points = curve(times)
        _emit({"times": times.tolist(), "points": [codec.encode(p) for p in points]})
    else:  # transport
        fields = take_fields(
            payload, "operation inputs", ["vector", "base"], ["direction", "target"]
        )
        if ("direction" in fields) == ("target" in fields):
            raise SchemaError("transport needs exactly one of 'direction' / 'target'")
        vector = codec.decode_tangent(fields["vector"])
        base = point_of(fields["base"])
        if "direction" in fields:
            result = metric.parallel_transport(
                vector, base, direction=codec.decode_tangent(fields["direction"])
            )
        else:
            result = metric.parallel_transport(
                vector, base, end_point=point_of(fields["target"])
            )
        _emit({"result": result})
    return EXIT_OK


def _cmd_learn(args):
    from ..learning import (
        FrechetMean,
        OnlineKMeans,
        RiemannianKMeans,
        TangentPCA,
        riemannian_gradient_descent,
    )

    manifold, metric, codec = _manifold_from_args(args)
    estimator = args.estimator
    limits = _given(args, "max_iter", "tol")
    points = weights = None
    if args.data is not None:
        points, _, weights = load_dataset(args.data, manifold, codec)
    elif estimator != "rgrad":
        raise SchemaError("this estimator needs --data")

    if estimator == "mean":
        model = FrechetMean(metric, step_size=args.step_size, **limits).fit(points, weights)
        if not model.converged_ and not args.allow_unconverged:
            raise ConvergenceError(
                "Frechet mean did not converge; rerun with --allow-unconverged to inspect",
                residual=model.final_step_norm_,
            )
        _emit(
            {
                "estimate": codec.encode(model.estimate_),
                "n_iter": model.n_iter_,
                "converged": model.converged_,
                "final_step_norm": model.final_step_norm_,
                "variance": model.variance_,
            }
        )
    elif estimator == "tpca":
        base_point = None
        if args.base_point is not None:
            base_point = read_point(
                read_json_source(args.base_point, "base point"), manifold, codec, "base point"
            )
        model = TangentPCA(metric, n_components=args.n_components).fit(
            points, base_point=base_point
        )
        _emit(
            {
                "base_point": codec.encode(model.base_point_),
                "components": model.components_,
                "explained_variance": model.explained_variance_,
                "explained_variance_ratio": model.explained_variance_ratio_,
                "coefficients": model.transform(points),
            }
        )
    elif estimator == "kmeans":
        if args.n_clusters is None:
            raise SchemaError("kmeans needs --n-clusters")
        model = RiemannianKMeans(metric, args.n_clusters, seed=args.seed, **limits).fit(points)
        if not model.converged_ and not args.allow_unconverged:
            raise ConvergenceError("k-means did not converge within --max-iter")
        _emit(
            {
                "centroids": [codec.encode(c) for c in model.centroids_],
                "labels": model.labels_.tolist(),
                "inertia": model.inertia_,
                "inertia_history": model.inertia_history_,
                "n_iter": model.n_iter_,
                "converged": model.converged_,
            }
        )
    elif estimator == "online-kmeans":
        if args.n_clusters is None:
            raise SchemaError("online-kmeans needs --n-clusters")
        model = OnlineKMeans(metric, args.n_clusters).fit(points)
        _emit(
            {
                "centroids": [codec.encode(c) for c in model.centroids_],
                "counts": model.counts_.tolist(),
                "n_rejected": model.n_rejected_,
                "labels": model.predict(points).tolist(),
            }
        )
    else:  # rgrad
        from ._figures import resolve_field

        if args.field is None:
            raise SchemaError("rgrad needs --field")
        field_spec = read_json_source(args.field, "field spec")
        fun, grad, description = resolve_field(field_spec, metric, codec, data=points)
        if args.x0 is not None:
            x0 = read_point(
                read_json_source(args.x0, "start point"), manifold, codec, "start point"
            )
        elif points is not None:
            x0 = points[0]
        else:
            raise SchemaError("rgrad needs --x0 or --data")
        result = riemannian_gradient_descent(
            manifold,
            fun,
            grad,
            x0,
            metric=metric,
            learning_rate=args.learning_rate,
            **limits,
        )
        if not result.converged and not args.allow_unconverged:
            raise ConvergenceError("gradient descent did not converge within --max-iter")
        _emit(
            {
                "field": description,
                "point": codec.encode(result.point),
                "value": result.value,
                "n_iter": result.n_iter,
                "converged": result.converged,
            }
        )
    return EXIT_OK


def _cmd_figure(args):
    from . import _figures

    if args.name == "sphere-descent":
        field_spec = read_json_source(args.field, "field spec") if args.field else None
        start = read_json_source(args.x0, "start point") if args.x0 else None
        payload, csv = _figures.sphere_descent(
            field_spec=field_spec,
            start=start,
            **_given(args, "learning_rate", "max_iter", "tol"),
        )
    elif args.name == "poincare-grid":
        payload, csv = _figures.poincare_grid(
            **_given(args, "grid_size", "extent", "num_points")
        )
    else:  # se3-geodesic
        start = read_json_source(args.start, "start pose") if args.start else None
        end = read_json_source(args.end, "end pose") if args.end else None
        payload, csv = _figures.se3_geodesic(
            start=start, end=end, **_given(args, "num_points")
        )
    _emit(payload, out=args.out, csv=csv if args.format == "csv" else None)
    return EXIT_OK


def _cmd_validate(args):
    manifold, _, codec = _manifold_from_args(args)
    points, _, _ = load_dataset(args.data, manifold, codec, validate=False)
    residuals = manifold.membership_residual(points)
    failed = np.nonzero(residuals > args.atol)[0]
    # JSON has no infinity: a point that fails at every tolerance (a singular
    # or indefinite SPD matrix, a singular GL one) reports a null residual.
    _emit(
        {
            "n_points": int(len(points)),
            "n_failed": int(failed.size),
            "tolerance": args.atol,
            "failures": [
                {"index": int(i),
                 "residual": float(residuals[i]) if np.isfinite(residuals[i]) else None}
                for i in failed
            ],
        }
    )
    return EXIT_OK if failed.size == 0 else EXIT_INVALID_DATA


def build_parser():
    parser = _Parser(prog="geo", description="Geometric operations and statistics on manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    op = sub.add_parser("op", help="evaluate a geometric operation")
    op.add_argument("operation", choices=["exp", "log", "dist", "geodesic", "transport"])
    op.add_argument("--manifold-spec", required=True, help="file path or inline JSON")
    op.add_argument("--inputs", required=True, help="file path, inline JSON, or '-' for stdin")
    op.add_argument("--num-points", type=int, default=100, help="samples along a geodesic")
    op.set_defaults(func=_cmd_op)

    learn = sub.add_parser("learn", help="fit an estimator on a dataset")
    learn.add_argument("estimator", choices=["mean", "tpca", "kmeans", "online-kmeans", "rgrad"])
    learn.add_argument("--manifold-spec", required=True)
    learn.add_argument("--data", help="dataset file (JSON or CSV), inline JSON, or '-'")
    learn.add_argument("--max-iter", type=int, default=None)
    learn.add_argument("--tol", type=float, default=None)
    learn.add_argument("--step-size", type=float, default=1.0)
    learn.add_argument("--n-components", type=int, default=None)
    learn.add_argument("--n-clusters", type=int, default=None)
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--base-point", default=None, help="tpca base point (inline JSON or file)")
    learn.add_argument("--field", default=None, help="rgrad scalar field (inline JSON or file)")
    learn.add_argument("--x0", default=None, help="rgrad start point (inline JSON or file)")
    learn.add_argument("--learning-rate", type=float, default=0.1)
    learn.add_argument("--allow-unconverged", action="store_true")
    learn.set_defaults(func=_cmd_learn)

    figure = sub.add_parser("figure", help="emit demonstration figure data")
    figure.add_argument("name", choices=["sphere-descent", "poincare-grid", "se3-geodesic"])
    figure.add_argument("--out", default=None, help="output file (default: stdout)")
    figure.add_argument("--format", choices=["json", "csv"], default="json")
    figure.add_argument("--field", default=None)
    figure.add_argument("--x0", default=None)
    figure.add_argument("--learning-rate", type=float, default=None)
    figure.add_argument("--max-iter", type=int, default=None)
    figure.add_argument("--tol", type=float, default=None)
    figure.add_argument("--grid-size", type=int, default=None)
    figure.add_argument("--extent", type=float, default=None)
    figure.add_argument("--num-points", type=int, default=None)
    figure.add_argument("--start", default=None, help="se3 start pose (inline JSON or file)")
    figure.add_argument("--end", default=None, help="se3 end pose (inline JSON or file)")
    figure.set_defaults(func=_cmd_figure)

    validate = sub.add_parser("validate", help="membership-check a dataset")
    validate.add_argument("--manifold-spec", required=True)
    validate.add_argument("--data", required=True)
    validate.add_argument("--atol", type=float, default=ATOL)
    validate.set_defaults(func=_cmd_validate)

    return parser


def _fail(code, message, exit_code):
    sys.stderr.write(
        json.dumps({"error": {"code": code, "message": " ".join(str(message).split())}}) + "\n"
    )
    return exit_code


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        return _fail(exc.code, exc, exc.exit_code)
    except (SchemaError, ShapeError) as exc:
        return _fail(exc.code, exc, EXIT_SCHEMA)
    except ConvergenceError as exc:
        # Non-convergence is its own failure mode for estimators; for plain
        # operations it means the input left the algorithm's domain.
        in_learn = getattr(args, "command", None) == "learn" if "args" in locals() else False
        return _fail(exc.code, exc, EXIT_UNCONVERGED if in_learn else EXIT_DOMAIN)
    except GeometryError as exc:
        return _fail(exc.code, exc, EXIT_DOMAIN)
    except np.linalg.LinAlgError as exc:
        return _fail("domain_error", exc, EXIT_DOMAIN)
    except Exception as exc:  # keep the single-line JSON contract for bugs too
        return _fail("internal_error", f"{type(exc).__name__}: {exc}", 1)
