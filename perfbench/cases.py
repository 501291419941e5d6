"""The benchmark's catalog of (manifold, metric) cases and their seeded inputs.

The list mirrors ``tests/conftest.ALL_CASES`` (same names, same spaces), plus
three spaces the ROADMAP baseline names: SO(4), SPD(5) and GL(3) (GL(3) is
``gl3`` itself, sized like the baseline row). It is a copy on purpose: the
benchmark must not change when the test fixtures do, and
``perfbench/tests`` fails if the test catalog gains a space this list lacks.

Inputs are generated from the seed without calling any operation the
benchmark times (exp, log, dist, parallel transport): points come from
``random_point`` or from explicit constructions with ``scipy.linalg.expm``,
tangent vectors from projected Gaussian noise scaled with the metric norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Case:
    name: str
    build: Callable  # geometry module -> (manifold, metric)
    batch: int
    radius: float  # tangent-norm bound for exp inputs and nearby log targets
    near: Callable | None = None  # (manifold, base, rng, radius) -> targets near base
    transport: bool = True  # has a closed-form parallel transport
    true_metric: bool = True  # dist is a positive-definite distance
    roundtrip_rtol: float = 1e-7  # exp(log(q)) == q, relative to max(1, |q|)

    @property
    def ops(self):
        return ("exp", "log", "dist") + (("transport",) if self.transport else ())


@dataclass
class CaseInputs:
    base: np.ndarray
    tangent: np.ndarray  # exp input at ``base``
    target: np.ndarray  # log / dist partner of ``base``
    vector: np.ndarray  # transported vector at ``base``


def _expm(mat):
    import scipy.linalg  # deferred: run.py reads the catalog without needing scipy

    return scipy.linalg.expm(mat)


def _rotation_near(base, rng, radius):
    """base @ expm(A), A skew with Frobenius norm at most ``radius``."""
    n = base.shape[-1]
    raw = rng.standard_normal(base.shape[:-2] + (n, n))
    skew = 0.5 * (raw - np.swapaxes(raw, -1, -2))
    norms = np.linalg.norm(skew, axis=(-2, -1))
    scale = radius * rng.uniform(0.05, 1.0, size=norms.shape) / norms
    return base @ _expm(skew * scale[..., None, None])


def _near_so(manifold, base, rng, radius):
    return _rotation_near(base, rng, radius)


def _near_se(manifold, base, rng, radius):
    n = manifold.n
    out = base.copy()
    out[..., :n, :n] = _rotation_near(base[..., :n, :n], rng, radius)
    out[..., :n, n] += rng.standard_normal(base.shape[:-2] + (n,))
    return out


def _near_gl(manifold, base, rng, radius):
    n = manifold.n
    raw = rng.standard_normal(base.shape[:-2] + (n, n))
    norms = np.linalg.norm(raw, axis=(-2, -1))
    scale = radius * rng.uniform(0.05, 1.0, size=norms.shape) / norms
    return base @ _expm(raw * scale[..., None, None])


def _near_stiefel(manifold, base, rng, radius):
    """QR retraction of a tangent step of norm at most ``radius``."""
    step = manifold.to_tangent(rng.standard_normal(base.shape), base)
    norms = np.linalg.norm(step, axis=(-2, -1))
    step = step * (radius * rng.uniform(0.05, 1.0, size=norms.shape) / norms)[..., None, None]
    q, r = np.linalg.qr(base + step)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
    return q * signs[..., None, :]


def _near_grassmann(manifold, base, rng, radius):
    """Rotate the projector by expm of a small skew matrix."""
    n = manifold.n
    raw = rng.standard_normal(base.shape[:-2] + (n, n))
    skew = 0.5 * (raw - np.swapaxes(raw, -1, -2))
    norms = np.linalg.norm(skew, axis=(-2, -1))
    scale = radius * rng.uniform(0.05, 1.0, size=norms.shape) / norms
    rot = _expm(skew * scale[..., None, None])
    return rot @ base @ np.swapaxes(rot, -1, -2)


def _near_minkowski(manifold, base, rng, radius):
    """Spacelike partners, so that ``dist`` is defined."""
    spatial = rng.standard_normal(base.shape[:-1] + (base.shape[-1] - 1,))
    time = 0.5 * np.linalg.norm(spatial, axis=-1) * rng.uniform(-1.0, 1.0, size=base.shape[:-1])
    return base + np.concatenate([time[..., None], spatial], axis=-1)


def _near_curve(manifold, base, rng, radius):
    """A random curve starting where ``base`` starts: SRV log forgets translations."""
    curve = manifold.random_point(base.shape[0], rng)
    return curve - curve[..., :1, :] + base[..., :1, :]


def _hyperboloid_points(n, dim, rng):
    spatial = rng.standard_normal((n, dim))
    time = np.sqrt(1.0 + np.sum(spatial**2, axis=-1))
    return np.concatenate([time[:, None], spatial], axis=-1)


def _space(make, metric="metric"):
    """Make one case's (manifold, metric): ``make(geometry) -> manifold``, then the named metric."""

    def build(geometry):
        manifold = make(geometry)
        return manifold, getattr(manifold, metric)

    return build


# Batches: 10^4 for vector spaces, 2-5 x 10^3 for small matrix spaces, a few
# hundred where log runs a per-matrix loop or shooting.
CASES = [
    Case("euclidean3", _space(lambda g: g.Euclidean(3)), 10_000, 2.0),
    Case("minkowski3", _space(lambda g: g.Minkowski(3)), 10_000, 2.0,
         near=_near_minkowski, true_metric=False),
    Case("sphere2", _space(lambda g: g.Hypersphere(2)), 10_000, 0.45 * np.pi),
    Case("sphere4", _space(lambda g: g.Hypersphere(4)), 10_000, 0.45 * np.pi),
    Case("hyperboloid2", _space(lambda g: g.Hyperboloid(2)), 10_000, 2.0, roundtrip_rtol=1e-6),
    Case("poincare_ball2", _space(lambda g: g.PoincareBall(2)), 10_000, 1.5,
         roundtrip_rtol=1e-6),
    Case("spd3_affine", _space(lambda g: g.SPDMatrices(3), "affine_invariant_metric"),
         2_000, 1.5),
    Case("spd3_log_euclidean", _space(lambda g: g.SPDMatrices(3), "log_euclidean_metric"),
         2_000, 1.5),
    Case("spd5_affine", _space(lambda g: g.SPDMatrices(5), "affine_invariant_metric"),
         2_000, 1.5),
    Case("so3", _space(lambda g: g.SpecialOrthogonal(3), "bi_invariant_metric"), 2_000, 2.0,
         near=_near_so),
    Case("so4", _space(lambda g: g.SpecialOrthogonal(4), "bi_invariant_metric"), 200, 2.0,
         near=_near_so),
    Case("se3", _space(lambda g: g.SpecialEuclidean(3), "canonical_left_metric"), 2_000, 2.0,
         near=_near_se),
    Case("gl3", _space(lambda g: g.GeneralLinear(3)), 200, 0.3, near=_near_gl, transport=False),
    Case("stiefel42", _space(lambda g: g.Stiefel(4, 2), "canonical_metric"), 200, 0.45,
         near=_near_stiefel, transport=False, roundtrip_rtol=1e-6),
    Case("grassmann42", _space(lambda g: g.Grassmann(4, 2)), 200, 0.6, near=_near_grassmann),
    Case("curves_l2", _space(lambda g: g.DiscretizedCurves(10, 2), "l2_metric"), 5_000, 2.0),
    Case("curves_srv", _space(lambda g: g.DiscretizedCurves(10, 2), "srv_metric"), 5_000, 0.4,
         near=_near_curve),
    Case("landmarks_sphere", _space(lambda g: g.Landmarks(g.Hypersphere(2), 3)), 5_000, 1.3),
]

CASE_NAMES = [case.name for case in CASES]


def _random_points(case, manifold, n, rng):
    if case.name == "hyperboloid2":
        return _hyperboloid_points(n, 2, rng)
    if case.name == "poincare_ball2":
        pts = _hyperboloid_points(n, 2, rng)
        return pts[:, 1:] / (1.0 + pts[:, :1])
    pts = manifold.random_point(n, rng)
    return pts[None] if n == 1 else pts


def _scaled_tangents(case, metric, base, rng):
    """Tangents at each base row with norms uniform in (0.05, 1] x radius."""
    n = base.shape[0]
    vecs = metric.random_tangent(base, n, rng)
    if n == 1:
        vecs = vecs[None]
    with np.errstate(invalid="ignore"):  # indefinite metrics: nan norms
        norms = metric.norm(vecs, base)
    norms = np.where(np.isfinite(norms) & (norms > 0), norms, 1.0)
    radius = case.radius
    if case.name == "curves_srv":  # stay well inside the vanishing-velocity boundary
        radius = case.radius * metric.injectivity_radius(base)
    scales = radius * rng.uniform(0.05, 1.0, size=n)
    expand = (...,) + (None,) * (vecs.ndim - 1)
    return vecs * (scales / norms)[expand]


def make_inputs(case, manifold, metric, seed, batch=None):
    """Seeded inputs of one case; the same seed gives the same arrays."""
    index = CASE_NAMES.index(case.name)
    rng = np.random.default_rng([seed, index])
    n = case.batch if batch is None else batch
    base = _random_points(case, manifold, n, rng)
    tangent = _scaled_tangents(case, metric, base, rng)
    if case.near is None:
        target = _random_points(case, manifold, n, rng)
    else:
        target = case.near(manifold, base, rng, case.radius)
    vector = _scaled_tangents(case, metric, base, rng)
    return CaseInputs(base=base, tangent=tangent, target=target, vector=vector)
