"""Data generators for the three demonstration figures.

Every generator returns a payload dict (numpy values are converted to JSON
on output) plus a CSV rendering; no plotting happens here.
"""

from __future__ import annotations

import numpy as np

from .. import geometry
from ..learning import riemannian_gradient_descent
from ..linalg import norm
from ._specs import SchemaError, read_array, read_point, resolve_manifold, take_fields

# Documented defaults for the sphere-descent demonstration: a linear field
# f(x) = <a, x>, minimized on S^2 at -a.
DEFAULT_FIELD_VECTOR = (1.0 / np.sqrt(3.0)) * np.ones(3)
DEFAULT_DESCENT_START = np.array([1.0, -0.3, 0.1]) / norm(np.array([1.0, -0.3, 0.1]))

# Documented default endpoints for the SE(3) geodesic demonstration.
DEFAULT_SE3_START = {"rotation": np.eye(3).tolist(), "translation": [0.0, 0.0, 0.0]}
DEFAULT_SE3_END = {
    "rotation_vector": [0.7, -0.4, 0.5],
    "translation": [1.0, 0.5, -0.8],
}


def resolve_field(field_spec, metric, codec, data=None):
    """Scalar-field spec -> (fun, grad, description).

    Supported: ``{"type": "linear", "vector": [...]}`` (f(x) = <vector, x>, entrywise),
    ``{"type": "squared-distance", "point": ...}`` (f = dist^2(x, p) / 2),
    and ``{"type": "frechet"}`` (f = mean of dist^2(x, data_i) / 2, needs data).
    """
    if not isinstance(field_spec, dict) or "type" not in field_spec:
        raise SchemaError("field spec must be an object with a 'type'")
    kind = field_spec["type"]
    manifold = metric.manifold

    if kind == "linear":
        fields = take_fields(field_spec, "field spec", ["type", "vector"])
        vector = read_array(fields["vector"], "field 'vector'", manifold.point_shape)

        def fun(x):
            return float(np.vdot(vector, x))

        def grad(x):
            return vector

        return fun, grad, {"type": "linear", "vector": vector.tolist()}

    if kind == "squared-distance":
        fields = take_fields(field_spec, "field spec", ["type", "point"])
        point = read_point(fields["point"], manifold, codec, "field 'point'")

        def fun(x):
            return 0.5 * float(metric.squared_dist(x, point))

        def grad(x):
            return -metric.log(point, x)

        return fun, grad, {"type": "squared-distance", "point": codec.encode(point)}

    if kind == "frechet":
        take_fields(field_spec, "field spec", ["type"])
        if data is None:
            raise SchemaError("the 'frechet' field needs a dataset")

        def fun(x):
            return 0.5 * float(np.mean(metric.squared_dist(x, data)))

        def grad(x):
            return -np.mean(metric.log(data, x), axis=0)

        return fun, grad, {"type": "frechet", "n_points": int(len(data))}

    raise SchemaError(f"unknown field type '{kind}'")


def sphere_descent(field_spec=None, start=None, learning_rate=0.1, max_iter=200, tol=1e-8):
    """Iterate trace of Riemannian gradient descent on S^2."""
    sphere, metric, codec = resolve_manifold({"name": "hypersphere", "n": 2})
    if field_spec is None:
        field_spec = {"type": "linear", "vector": DEFAULT_FIELD_VECTOR.tolist()}
    fun, grad, description = resolve_field(field_spec, metric, codec)
    start = DEFAULT_DESCENT_START if start is None else start
    x0 = read_point(start, sphere, codec, "start point")
    result = riemannian_gradient_descent(
        sphere, fun, grad, x0, learning_rate=learning_rate, max_iter=max_iter, tol=tol
    )
    payload = {
        "field": description,
        "points": result.points,
        "values": result.values,
        "n_iter": result.n_iter,
        "converged": result.converged,
    }
    rows = np.column_stack([result.points, result.values])
    return payload, ("x,y,z,value", rows)


def poincare_grid(grid_size=5, extent=1.5, num_points=100):
    """Regular geodesic grid on H^2 in Poincare-disk coordinates.

    Fermi construction: for each offset u along one axis geodesic through the
    origin, emit the geodesic through exp(u * axis) in the parallel-transported
    orthogonal direction. Both families together draw the grid; every curve is
    a unit-speed geodesic.
    """
    if grid_size < 1 or num_points < 2:
        raise SchemaError("grid-size must be >= 1 and num-points >= 2")
    hyperboloid = geometry.Hyperboloid(2)
    metric = hyperboloid.metric
    origin = hyperboloid.origin()
    axes = np.eye(3)[1:]  # tangent directions at the origin
    offsets = np.linspace(-extent, extent, grid_size)
    times = np.linspace(-extent, extent, num_points)

    curves = []
    for family, (along, across) in (("u", (axes[0], axes[1])), ("v", (axes[1], axes[0]))):
        for index, offset in enumerate(offsets):
            node = metric.exp(offset * along, origin)
            direction = metric.parallel_transport(across, origin, direction=offset * along)
            points = metric.exp(times[:, None] * direction, node)
            curves.append(
                {
                    "family": family,
                    "index": index,
                    "offset": float(offset),
                    "points": geometry.hyperboloid_to_ball(points),
                }
            )
    payload = {
        "grid_size": int(grid_size),
        "extent": float(extent),
        "num_points": int(num_points),
        "curves": curves,
    }
    rows = np.concatenate(
        [
            np.column_stack(
                [
                    np.full(num_points, i),
                    times,
                    np.asarray(curve["points"]),
                ]
            )
            for i, curve in enumerate(curves)
        ]
    )
    return payload, ("curve,s,x,y", rows)


def se3_geodesic(start=None, end=None, num_points=100):
    """Poses along the SE(3) geodesic between two rigid motions."""
    if num_points < 2:
        raise SchemaError("num-points must be >= 2")
    group, metric, codec = resolve_manifold({"name": "se", "n": 3})
    start_pose = read_point(
        DEFAULT_SE3_START if start is None else start, group, codec, "start pose"
    )
    end_pose = read_point(DEFAULT_SE3_END if end is None else end, group, codec, "end pose")
    times = np.linspace(0.0, 1.0, num_points)
    curve = metric.geodesic(start_pose, end_point=end_pose)
    poses = curve(times)
    payload = {
        "times": times,
        "poses": [
            {
                "rotation": geometry.rotation_part(pose),
                "translation": geometry.translation_part(pose),
            }
            for pose in poses
        ],
    }
    rot_flat = geometry.rotation_part(poses).reshape(num_points, 9)
    rows = np.column_stack([times, rot_flat, geometry.translation_part(poses)])
    header = "t," + ",".join(f"r{i}{j}" for i in range(3) for j in range(3)) + ",tx,ty,tz"
    return payload, (header, rows)
