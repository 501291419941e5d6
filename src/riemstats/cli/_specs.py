"""Wire formats: manifold specs, point codecs, dataset loading.

A manifold spec is a JSON object with a ``name`` plus dimension parameters,
an optional ``metric`` family selector, and an optional ``representation``.
Points are JSON arrays matching the manifold's point shape (rigid motions may
also be ``{"rotation", "translation"}`` objects); datasets are
``{"points": [...]}`` with optional ``labels`` and ``weights``,
membership-validated on load. Every JSON object is read by
:func:`take_fields`, which rejects unknown fields, and every point given on
the command line by :func:`read_point`, which checks membership.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ..errors import MembershipError
from ..geometry import (
    DiscretizedCurves,
    Euclidean,
    GeneralLinear,
    Grassmann,
    Hyperboloid,
    Hypersphere,
    Landmarks,
    LandmarksMetric,
    Minkowski,
    PoincareBall,
    SPDMatrices,
    SpecialEuclidean,
    SpecialOrthogonal,
    Stiefel,
    homogeneous_from_parts,
    matrix_from_rotation_vector,
    rotation_part,
    tangent_from_parts,
    translation_part,
)
from ..geometry.base import ATOL


class SchemaError(ValueError):
    """Invalid CLI input: bad JSON, unknown fields, wrong shapes."""

    code = "invalid_input"


def _require(condition, message):
    if not condition:
        raise SchemaError(message)


def take_fields(obj, what, required=(), optional=()):
    """The fields of the JSON object ``what``: all ``required``, any ``optional``, no others."""
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    obj = dict(obj)
    out = {}
    for key in required:
        _require(key in obj, f"{what}: missing required field '{key}'")
        out[key] = obj.pop(key)
    for key in optional:
        if key in obj:
            out[key] = obj.pop(key)
    _require(not obj, f"{what}: unknown fields {sorted(obj)}")
    return out


def read_point(obj, manifold, codec, what="point", batched=False):
    """Decode a point (a batch of points if ``batched``) and check membership."""
    point = codec.decode_point(obj)
    _require(
        batched or point.shape == manifold.point_shape,
        f"{what} must be one point of shape {list(manifold.point_shape)}, got {list(point.shape)}",
    )
    return manifold.check_point(point)


def read_array(obj, what, shape=None):
    """A finite numeric array, of exactly ``shape`` when one is given."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be a numeric array") from None
    _require(bool(np.all(np.isfinite(arr))), f"{what} has non-finite entries")
    _require(shape is None or arr.shape == tuple(shape),
             f"{what} must have shape {list(shape or ())}, got {list(arr.shape)}")
    return arr


def _positive_int(value, name):
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"'{name}' must be a positive integer")
    return value


class PointCodec:
    """Default codec: points and tangents are plain (nested) JSON arrays."""

    def __init__(self, point_shape, tangent_shape):
        self.point_shape = tuple(point_shape)
        self.tangent_shape = tuple(tangent_shape)

    def _decode(self, obj, shape, what):
        arr = read_array(obj, what)
        _require(
            arr.shape[len(arr.shape) - len(shape):] == shape and arr.ndim <= len(shape) + 1,
            f"{what} must have shape {list(shape)} (optionally batched), got {list(arr.shape)}",
        )
        return arr

    def decode_point(self, obj):
        return self._decode(obj, self.point_shape, "point")

    def decode_tangent(self, obj):
        return self._decode(obj, self.tangent_shape, "tangent vector")

    def encode(self, arr):
        return np.asarray(arr, dtype=float).tolist()


class RigidCodec(PointCodec):
    """SE(n) points as homogeneous matrices or rotation/translation objects."""

    def __init__(self, n):
        super().__init__((n + 1, n + 1), (n + 1, n + 1))
        self.n = n

    def _from_parts(self, obj, assemble, what):
        fields = take_fields(obj, what, ["translation"], ["rotation", "rotation_vector"])
        _require(("rotation" in fields) != ("rotation_vector" in fields),
                 f"{what} takes one of 'rotation' / 'rotation_vector'")
        if "rotation_vector" in fields:
            _require(self.n == 3, "'rotation_vector' is only available for n=3")
            rotation_vector = read_array(fields["rotation_vector"], f"{what} rotation_vector")
            _require(rotation_vector.shape[-1:] == (3,),
                     f"{what} rotation_vector must have length 3")
            rotation = matrix_from_rotation_vector(rotation_vector)
        else:
            rotation = read_array(fields["rotation"], f"{what} rotation")
        translation = read_array(fields["translation"], f"{what} translation")
        _require(rotation.shape[-2:] == (self.n, self.n),
                 f"{what} rotation must be {self.n}x{self.n}")
        _require(translation.shape[-1:] == (self.n,),
                 f"{what} translation must have length {self.n}")
        return assemble(rotation, translation)

    def decode_point(self, obj):
        if isinstance(obj, dict):
            return self._from_parts(obj, homogeneous_from_parts, "pose")
        return super().decode_point(obj)

    def decode_tangent(self, obj):
        if isinstance(obj, dict):
            return self._from_parts(obj, tangent_from_parts, "pose velocity")
        return super().decode_tangent(obj)

    def encode(self, arr):
        arr = np.asarray(arr, dtype=float)
        return {
            "rotation": rotation_part(arr).tolist(),
            "translation": translation_part(arr).tolist(),
        }


def resolve_manifold(spec):
    """Manifold spec object -> (manifold, metric, codec)."""
    _require(isinstance(spec, dict), "manifold spec must be a JSON object")
    _require(isinstance(spec.get("name"), str), "manifold spec needs a 'name'")
    manifold, metric = _build_manifold(spec["name"], spec)
    if isinstance(manifold, SpecialEuclidean):
        return manifold, metric, RigidCodec(manifold.n)
    return manifold, metric, PointCodec(manifold.point_shape, metric.tangent_shape)


def _build_manifold(name, spec):
    def take(sizes, optional=()):
        fields = take_fields(spec, "manifold spec", ["name", *sizes], optional)
        return [_positive_int(fields[key], key) for key in sizes], fields

    def family(fields, families, options=()):
        """The metric family (default first in ``families``) and the metric fields."""
        given = fields.get("metric")
        metric = take_fields({} if given is None else given, "metric", (), ["family", *options])
        chosen = metric.get("family", families[0])
        _require(chosen in families, f"metric family must be one of {sorted(families)}")
        return chosen, metric

    flat = {"euclidean": Euclidean, "minkowski": Minkowski, "gl": GeneralLinear}
    if name in flat:
        (n,), _ = take(["n"])
        manifold = flat[name](n)
        return manifold, manifold.metric

    if name == "hypersphere":
        (n,), fields = take(["n"], ["representation"])
        _require(fields.get("representation", "extrinsic") == "extrinsic",
                 "hypersphere only has the 'extrinsic' representation")
        manifold = Hypersphere(n)
        return manifold, manifold.metric

    if name == "hyperbolic":
        (n,), fields = take(["n"], ["representation"])
        representation = fields.get("representation", "hyperboloid")
        _require(representation in ("hyperboloid", "ball"),
                 "hyperbolic representation must be 'hyperboloid' or 'ball'")
        manifold = Hyperboloid(n) if representation == "hyperboloid" else PoincareBall(n)
        return manifold, manifold.metric

    if name in ("stiefel", "grassmann"):
        (n, p), _ = take(["n", "p"])
        manifold = Stiefel(n, p) if name == "stiefel" else Grassmann(n, p)
        return manifold, manifold.metric

    if name == "spd":
        (n,), fields = take(["n"], ["metric"])
        chosen, _ = family(fields, ["affine-invariant", "log-euclidean"])
        manifold = SPDMatrices(n)
        if chosen == "affine-invariant":
            return manifold, manifold.affine_invariant_metric
        return manifold, manifold.log_euclidean_metric

    if name == "so":
        (n,), fields = take(["n"], ["metric"])
        family(fields, ["bi-invariant"])
        manifold = SpecialOrthogonal(n)
        return manifold, manifold.bi_invariant_metric

    if name == "se":
        (n,), fields = take(["n"], ["metric"])
        chosen, options = family(fields, ["left-invariant", "right-invariant"], ["inner_matrix"])
        manifold = SpecialEuclidean(n)
        inner_matrix = options.get("inner_matrix")
        if inner_matrix is not None:
            inner_matrix = read_array(inner_matrix, "'inner_matrix'", (manifold.dim,) * 2)
        side = "left" if chosen == "left-invariant" else "right"
        return manifold, manifold.invariant_metric(side=side, inner_matrix=inner_matrix)

    if name == "curves":
        (k, d), fields = take(["k", "d"], ["metric"])
        chosen, _ = family(fields, ["l2", "srv"])
        manifold = DiscretizedCurves(k, d)
        return manifold, manifold.l2_metric if chosen == "l2" else manifold.srv_metric

    if name == "landmarks":
        fields = take_fields(spec, "manifold spec", ["name", "k", "base"])
        base_manifold, base_metric, base_codec = resolve_manifold(fields["base"])
        _require(type(base_codec) is PointCodec,
                 "landmarks on this base manifold are not supported")
        manifold = Landmarks(base_manifold, _positive_int(fields["k"], "k"))
        return manifold, LandmarksMetric(manifold, base_metric)

    raise SchemaError(f"unknown manifold name '{name}'")


def read_json_source(source, what):
    """Read JSON from inline text, '-' (stdin), or a file path."""
    text = None
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {what} from '{source}': {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def load_dataset(source, manifold, codec, validate=True):
    """Load ``{"points", "labels"?, "weights"?}`` (JSON) or a flat-vector CSV."""
    if not source.lstrip().startswith(("{", "[")) and source.endswith(".csv"):
        _require(
            len(manifold.point_shape) == 1,
            "CSV datasets are only supported for flat point arrays (one point per row)",
        )
        try:
            points = np.loadtxt(source, delimiter=",", ndmin=2)
        except OSError as exc:
            raise SchemaError(f"cannot read dataset from '{source}': {exc}") from exc
        payload = {"points": points.tolist()}
    else:
        payload = read_json_source(source, "dataset")
    fields = take_fields(payload, "dataset", ["points"], ["labels", "weights"])

    raw_points = fields["points"]
    _require(isinstance(raw_points, list) and raw_points, "'points' must be a non-empty array")
    points = [codec.decode_point(p) for p in raw_points]
    _require(
        all(p.shape == manifold.point_shape for p in points),
        "every dataset point must have the manifold's point shape",
    )
    points = np.stack(points)

    labels = fields.get("labels")
    if labels is not None:
        labels = np.asarray(labels)
        _require(labels.shape == (len(raw_points),), "'labels' must have one entry per point")
    weights = fields.get("weights")
    if weights is not None:
        weights = read_array(weights, "'weights'")
        _require(weights.shape == (len(raw_points),), "'weights' must have one entry per point")

    if validate:
        residuals = manifold.membership_residual(points)
        bad = np.nonzero(residuals > ATOL)[0]
        if bad.size:
            raise MembershipError(
                f"dataset points {bad.tolist()} fail the {manifold.name} "
                f"membership check at tolerance {ATOL}"
            )
    return points, labels, weights

