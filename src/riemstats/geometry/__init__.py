"""Manifolds, metrics, and the numerical fallbacks behind them.

Importing this package imports only the generic layer: ``base``,
``numerical`` and ``invariant`` (and ``hat``/``vee`` from ``linalg``, which
``base`` imports anyway). Each space module (``sphere``, ``spd``, ``rigid``,
...) is imported on first use of one of its names, through the module
``__getattr__`` (PEP 562), so a process that works on one space compiles and
imports only that space's module. ``invariant`` stays eager because the
benchmark's tracer (``perfbench/spans.py``) looks ``InvariantMetric`` up in
``sys.modules`` when it installs, and nothing else in the ``estimators``
workload imports it.
"""

from importlib import import_module as _import_module

from ..linalg import hat, vee
from .base import Geodesic, Manifold, RiemannianMetric, orthonormal_tangent_basis
from .invariant import InvariantMetric
from .numerical import (
    ChristoffelField,
    christoffels_from_metric,
    exp_by_integration,
    log_by_shooting,
    transport_by_ladder,
)

# Public name -> the space module that defines it, imported on first use.
_LAZY = {
    name: module
    for module, names in {
        "curves": ("CurvesL2Metric", "DiscretizedCurves", "SRVMetric", "srv_inverse",
                   "srv_transform"),
        "euclidean": ("Euclidean", "EuclideanMetric", "Minkowski", "MinkowskiMetric",
                      "minkowski_inner"),
        "general_linear": ("GLGroupMetric", "GeneralLinear"),
        "grassmann": ("Grassmann", "GrassmannMetric", "projector_from_basis"),
        "hyperbolic": ("Hyperboloid", "HyperboloidMetric", "PoincareBall", "PoincareBallMetric",
                       "ball_to_hyperboloid", "ball_to_hyperboloid_tangent",
                       "hyperboloid_to_ball"),
        "landmarks": ("Landmarks", "LandmarksMetric"),
        "rigid": ("SECanonicalLeftMetric", "SpecialEuclidean", "homogeneous_from_parts",
                  "rotation_part", "tangent_from_parts", "translation_part"),
        "rotations": ("SOBiInvariantMetric", "SpecialOrthogonal", "matrix_from_rotation_vector",
                      "rotation_vector_from_matrix"),
        "sphere": ("Hypersphere", "SphereMetric"),
        "spd": ("SPDAffineMetric", "SPDLogEuclideanMetric", "SPDMatrices"),
        "stiefel": ("Stiefel", "StiefelCanonicalMetric"),
    }.items()
    for name in names
}

# The eager names are the public functions and classes bound above (the
# submodules that the imports bind are not callable).
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and callable(value)]
    + list(_LAZY)
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
