"""riemstats: computations and statistics on Riemannian manifolds.

A catalog of manifolds (constant-curvature spaces, matrix groups and
quotients, discretized curves, landmark products) with closed-form or
numerically integrated Riemannian operations, plus estimators for
manifold-valued data (Frechet mean, tangent PCA, K-means, Riemannian
gradient descent) and a ``geo`` command-line front end.
"""

import os as _os

# GEO_NUM_THREADS caps the BLAS pools behind batched linear algebra. BLAS
# reads these variables when numpy is first imported, so they are exported
# here, before the imports below; ``geo`` runs inside this package, so every
# ``geo`` process passes through here before numpy loads.
_threads = _os.environ.get("GEO_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import geometry, learning, linalg
from .errors import (
    ConvergenceError,
    CutLocusError,
    DomainError,
    GeometryError,
    MembershipError,
    ShapeError,
    TangencyError,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CutLocusError",
    "DomainError",
    "GeometryError",
    "MembershipError",
    "ShapeError",
    "TangencyError",
    "geometry",
    "learning",
    "linalg",
    "__version__",
]
