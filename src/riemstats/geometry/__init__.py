"""Manifolds, metrics, and the numerical fallbacks behind them."""

from .base import Geodesic, Manifold, RiemannianMetric, orthonormal_tangent_basis
from .curves import (
    CurvesL2Metric,
    DiscretizedCurves,
    SRVMetric,
    srv_inverse,
    srv_transform,
)
from .euclidean import Euclidean, EuclideanMetric, Minkowski, MinkowskiMetric, minkowski_inner
from .general_linear import GeneralLinear, GLGroupMetric
from .grassmann import Grassmann, GrassmannMetric, projector_from_basis
from .hyperbolic import (
    Hyperboloid,
    HyperboloidMetric,
    PoincareBall,
    PoincareBallMetric,
    ball_to_hyperboloid,
    ball_to_hyperboloid_tangent,
    hyperboloid_to_ball,
)
from .invariant import InvariantMetric
from .landmarks import Landmarks, LandmarksMetric
from .numerical import (
    ChristoffelField,
    christoffels_from_metric,
    exp_by_integration,
    log_by_shooting,
    transport_by_ladder,
)
from .rigid import (
    SECanonicalLeftMetric,
    SpecialEuclidean,
    homogeneous_from_parts,
    rotation_part,
    tangent_from_parts,
    translation_part,
)
from .rotations import (
    SOBiInvariantMetric,
    SpecialOrthogonal,
    hat,
    matrix_from_rotation_vector,
    rotation_vector_from_matrix,
    vee,
)
from .sphere import Hypersphere, SphereMetric
from .spd import SPDAffineMetric, SPDLogEuclideanMetric, SPDMatrices
from .stiefel import Stiefel, StiefelCanonicalMetric

__all__ = [
    "ChristoffelField",
    "CurvesL2Metric",
    "DiscretizedCurves",
    "Euclidean",
    "EuclideanMetric",
    "GLGroupMetric",
    "GeneralLinear",
    "Geodesic",
    "Grassmann",
    "GrassmannMetric",
    "Hyperboloid",
    "HyperboloidMetric",
    "Hypersphere",
    "InvariantMetric",
    "Landmarks",
    "LandmarksMetric",
    "Manifold",
    "Minkowski",
    "MinkowskiMetric",
    "PoincareBall",
    "PoincareBallMetric",
    "RiemannianMetric",
    "SECanonicalLeftMetric",
    "SOBiInvariantMetric",
    "SPDAffineMetric",
    "SPDLogEuclideanMetric",
    "SPDMatrices",
    "SRVMetric",
    "SphereMetric",
    "SpecialEuclidean",
    "SpecialOrthogonal",
    "Stiefel",
    "StiefelCanonicalMetric",
    "ball_to_hyperboloid",
    "ball_to_hyperboloid_tangent",
    "christoffels_from_metric",
    "exp_by_integration",
    "hat",
    "homogeneous_from_parts",
    "hyperboloid_to_ball",
    "log_by_shooting",
    "matrix_from_rotation_vector",
    "minkowski_inner",
    "orthonormal_tangent_basis",
    "projector_from_basis",
    "rotation_part",
    "rotation_vector_from_matrix",
    "srv_inverse",
    "srv_transform",
    "tangent_from_parts",
    "translation_part",
    "transport_by_ladder",
    "vee",
]
