"""Manifold and Riemannian-metric abstractions.

Every operation is vectorized: points and tangent vectors may carry leading
batch axes, ``(..., *point_shape)``, and a single base point broadcasts
against a batch of vectors (and vice versa). Batched calls agree with the
element-wise loop.

All values are plain ``float64`` numpy arrays; a tangent vector is an array
interpreted at an explicitly passed base point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import DomainError, GeometryError, MembershipError, ShapeError, TangencyError

ATOL = 1e-8


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _sample_shape(n_samples, shape):
    """Array shape of ``n_samples`` draws of ``shape``; one draw stays unbatched."""
    return (n_samples,) + tuple(shape) if n_samples != 1 else tuple(shape)


def _shaped(array, shape, what):
    """``array`` as float64; :class:`ShapeError` unless its trailing axes are ``shape``."""
    array = np.asarray(array, dtype=float)
    if array.shape[-len(shape):] != shape:
        raise ShapeError(f"{what} must have trailing shape {shape}, got {array.shape}")
    return array


def _check_batches(op, *operands):
    """ShapeError unless the batch axes of the ``(array, trailing_shape)`` operands broadcast.

    Only two or more batched operands are compared, by broadcasting views of
    their first trailing entries, so a per-sample call pays one ``ndim`` test
    per operand.
    """
    batched = [a[(...,) + (0,) * len(shape)] for a, shape in operands if a.ndim > len(shape)]
    if len(batched) > 1:
        try:
            np.broadcast(*batched)
        except ValueError:
            shapes = ", ".join(str(b.shape) for b in batched)
            raise ShapeError(f"{op}: operand batch shapes {shapes} do not broadcast") from None


class Manifold(ABC):
    """A smooth manifold with an explicit point representation.

    Subclass contract: implement the ``_membership_residual`` hook, never
    ``membership_residual`` or ``belongs``. The public residual raises
    ShapeError unless the trailing shape is ``point_shape``, gives a point
    with a non-finite entry the residual ``inf``, and calls the hook on the
    finite points only, as float64 arrays with float warnings silenced.

    Attributes
    ----------
    dim : int
        Intrinsic dimension.
    point_shape : tuple of int
        Trailing shape of a single point array.
    """

    def __init__(self, dim, point_shape, name):
        if dim < 1:
            raise ValueError(f"manifold dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.point_shape = tuple(point_shape)
        self.name = name

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, point_shape={self.point_shape})"

    def membership_residual(self, point):
        """Scalar residual per point: zero (up to round-off) on the manifold, inf if not finite."""
        point = _shaped(point, self.point_shape, "point")
        finite = np.isfinite(point).all(axis=tuple(range(-len(self.point_shape), 0)))
        with np.errstate(all="ignore"):
            if finite.all():
                return self._membership_residual(point)
            out = np.full(finite.shape, np.inf)
            if finite.any():
                out[finite] = self._membership_residual(point[finite])
        return out[()]

    @abstractmethod
    def _membership_residual(self, point):
        """Residual hook: finite float64 points of the right shape."""

    def belongs(self, point, atol=ATOL):
        """Membership per point; a point with a non-finite entry is not a member."""
        return self.membership_residual(point) <= atol

    def check_point(self, point, atol=ATOL):
        point = np.asarray(point, dtype=float)
        if not np.all(self.belongs(point, atol=atol)):
            raise MembershipError(f"point does not satisfy the {self.name} constraint")
        return point

    # An open subset of its ambient space keeps these identity defaults;
    # a constrained manifold overrides both.
    def to_tangent(self, vector, base_point):
        """Project an ambient vector onto the tangent space at ``base_point``."""
        return np.asarray(vector, dtype=float)

    def project(self, point):
        """A nearby point on the manifold: the nearest one or a cheap retraction."""
        return np.asarray(point, dtype=float)

    def tangency_residual(self, vector, base_point):
        vector = np.asarray(vector, dtype=float)
        diff = vector - self.to_tangent(vector, base_point)
        axes = tuple(range(-len(self.point_shape), 0)) or (-1,)
        return np.max(np.abs(diff), axis=axes)

    def is_tangent(self, vector, base_point, atol=ATOL):
        return self.tangency_residual(vector, base_point) <= atol

    @abstractmethod
    def random_point(self, n_samples=1, rng=None):
        """Draw points on the manifold; deterministic for a given seed."""

    @property
    @abstractmethod
    def default_metric(self):
        """The canonical metric of this space."""

    @property
    def metric(self):
        """Alias for :attr:`default_metric`."""
        return self.default_metric


class RiemannianMetric(ABC):
    """Riemannian metric: inner products, exp/log, distances, transport.

    Subclasses implement the closed forms they have; the base class supplies
    the generic identities (norm from inner product, squared distance from
    log, distance from squared distance, pole ladder for parallel transport).

    Subclass contract: implement the ``_``-hooks, never a public op. Every
    metric implements ``_inner_product``, ``_exp`` and ``_log``; a closed
    form of the squared distance goes in ``_squared_dist`` and one of the
    transport along an initial velocity in ``_transport``, whose defaults
    are the squared norm of the log and the pole ladder. An end point goes
    to ``_transport_to``, by default ``_transport`` of the tangency-checked
    log; only a closed form that skips the log overrides it. The public
    ``inner_product``, ``exp``, ``log``, ``squared_dist``, ``dist`` and
    ``parallel_transport`` convert their inputs once, raise ShapeError on a
    wrong trailing shape or on batch axes that do not broadcast and, in
    ``exp`` and ``parallel_transport``, TangencyError on a vector that is
    not tangent; they call the hook on float64 arrays with float warnings
    silenced and raise DomainError when an input or the result is not
    finite. A metric built on another calls that metric's hooks, so one
    public call validates once. ``dist`` is ``sqrt(squared_dist)``;
    Minkowski space alone overrides it, because its squared interval is
    negative on timelike separations, which have no real distance.
    """

    # True when an op's work on a base point (a factorization or transform
    # of it) costs about as much as its work on a point, so rows that share
    # a few base points are cheaper as one call per base point than as one
    # call with the base repeated per row. Batched estimators read it.
    prefers_shared_base = False

    # Metrics with a closed-form Hessian of the Frechet function define
    # ``_newton_directions(logs, weights, base_points, gradients)``: the
    # Newton directions of the Karcher-flow segments still searching, one
    # call per flow iteration, and the mask of the segments whose Hessian is
    # positive definite. None here: the flow takes gradient steps.
    _newton_directions = None

    def __init__(self, manifold):
        self.manifold = manifold

    def __repr__(self):
        return f"{type(self).__name__}({self.manifold!r})"

    # Tangent representation. Almost every metric uses the manifold's own
    # ambient representation; metrics working in a chart override these.
    @property
    def tangent_shape(self):
        return self.manifold.point_shape

    @property
    def tangent_dim(self):
        return self.manifold.dim

    def to_tangent(self, vector, base_point):
        return self.manifold.to_tangent(vector, base_point)

    def is_tangent(self, vector, base_point, atol=ATOL):
        vector = np.asarray(vector, dtype=float)
        if vector.shape[-len(self.tangent_shape):] != self.tangent_shape:
            return False
        return self.manifold.is_tangent(vector, base_point, atol=atol)

    def _check_tangent(self, op, vector, base_point):
        """One tangency residual for the whole batch; call with float warnings silenced."""
        if not np.abs(vector - self.to_tangent(vector, base_point)).max(initial=0.0) <= ATOL:
            self._require_finite(op, vector, base_point)
            raise TangencyError(
                f"vector is not tangent to {self.manifold.name} at the base point"
            )

    def _require_finite(self, op, *arrays):
        if not all(a is None or np.isfinite(a).all() for a in arrays):
            raise DomainError(f"non-finite input to {self.manifold.name} {op}")

    def _finite_result(self, op, hook, *args, **kwargs):
        """``hook(*args)``; DomainError if the input or the result is not finite."""
        try:
            out = hook(*args, **kwargs)
        except (GeometryError, np.linalg.LinAlgError):
            self._require_finite(op, *args)
            raise
        if not np.isfinite(out).all():
            self._require_finite(op, *args)
            raise DomainError(f"{self.manifold.name} {op} overflows: the result is not finite")
        return out

    def _all_finite(self, op, hook, *arrays):
        """``hook(*arrays)``; DomainError if an input or the result is not finite.

        The inputs are checked up front: a hook may map a non-finite input
        to a finite result, as ``arctan2`` maps an infinite one to pi/2.
        """
        with np.errstate(all="ignore"):
            self._require_finite(op, *arrays)
            return self._finite_result(op, hook, *arrays)

    def random_tangent(self, base_point, n_samples=1, rng=None):
        """Gaussian ambient noise projected to the tangent space."""
        rng = _rng(rng)
        base_point = np.asarray(base_point, dtype=float)
        raw = rng.standard_normal(_sample_shape(n_samples, self.tangent_shape))
        return self.to_tangent(raw, base_point)

    # Core operations -----------------------------------------------------

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        """Metric inner product of two tangent vectors at a shared base point."""
        tangent_vec_a = _shaped(tangent_vec_a, self.tangent_shape, "tangent vector")
        tangent_vec_b = _shaped(tangent_vec_b, self.tangent_shape, "tangent vector")
        base_point = _shaped(base_point, self.manifold.point_shape, "base point")
        _check_batches(
            "inner_product",
            (tangent_vec_a, self.tangent_shape),
            (tangent_vec_b, self.tangent_shape),
            (base_point, self.manifold.point_shape),
        )
        return self._all_finite(
            "inner_product", self._inner_product, tangent_vec_a, tangent_vec_b, base_point
        )

    @abstractmethod
    def _inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        """Inner-product hook: finite float64 arrays of the right shapes."""

    def squared_norm(self, tangent_vec, base_point):
        return self.inner_product(tangent_vec, tangent_vec, base_point)

    def norm(self, tangent_vec, base_point):
        return np.sqrt(self.squared_norm(tangent_vec, base_point))

    def exp(self, tangent_vec, base_point):
        """Point reached after unit time along the geodesic with given velocity."""
        tangent_vec = _shaped(tangent_vec, self.tangent_shape, "tangent vector")
        base_point = _shaped(base_point, self.manifold.point_shape, "base point")
        _check_batches(
            "exp", (tangent_vec, self.tangent_shape), (base_point, self.manifold.point_shape)
        )
        with np.errstate(all="ignore"):
            self._check_tangent("exp", tangent_vec, base_point)
            return self._finite_result("exp", self._exp, tangent_vec, base_point)

    def log(self, point, base_point, **kwargs):
        """Initial velocity of the geodesic from ``base_point`` to ``point``.

        The iterative logs (Stiefel, shooting) take ``max_iter`` and ``tol``
        as ``kwargs``.
        """
        point = _shaped(point, self.manifold.point_shape, "point")
        base_point = _shaped(base_point, self.manifold.point_shape, "base point")
        _check_batches(
            "log", (point, self.manifold.point_shape), (base_point, self.manifold.point_shape)
        )
        with np.errstate(all="ignore"):
            return self._finite_result("log", self._log, point, base_point, **kwargs)

    @abstractmethod
    def _exp(self, tangent_vec, base_point):
        """Exp hook: float64 arrays of the right shapes, tangency checked."""

    @abstractmethod
    def _log(self, point, base_point):
        """Log hook: float64 arrays of the right shapes."""

    def squared_dist(self, point_a, point_b):
        point_a = _shaped(point_a, self.manifold.point_shape, "point")
        point_b = _shaped(point_b, self.manifold.point_shape, "point")
        _check_batches(
            "squared_dist",
            (point_a, self.manifold.point_shape),
            (point_b, self.manifold.point_shape),
        )
        return self._all_finite("squared_dist", self._squared_dist, point_a, point_b)

    def _squared_dist(self, point_a, point_b):
        """Squared-distance hook: finite float64 points; the squared norm of the log."""
        log = self._log(point_b, point_a)
        return self._inner_product(log, log, point_a)

    def dist(self, point_a, point_b):
        """``sqrt(squared_dist)``.

        ``sqrt(x * x) == x`` in float64, so a ``_squared_dist`` hook that
        squares a closed-form distance gives ``dist`` that form's bits.
        """
        return np.sqrt(self.squared_dist(point_a, point_b))

    def geodesic(self, initial_point, initial_tangent_vec=None, end_point=None):
        """Constant-speed geodesic curve, as a callable of the time parameter."""
        if (initial_tangent_vec is None) == (end_point is None):
            raise ValueError("provide exactly one of initial_tangent_vec / end_point")
        if initial_tangent_vec is None:
            initial_tangent_vec = self.log(end_point, initial_point)
        return Geodesic(self, initial_point, initial_tangent_vec)

    def parallel_transport(self, tangent_vec, base_point, direction=None, end_point=None):
        """Transport ``tangent_vec`` along the geodesic from ``base_point``.

        The geodesic is given by exactly one of its initial velocity
        ``direction`` or its ``end_point``. A single vector broadcasts over
        a batch of directions or end points.
        """
        if (direction is None) == (end_point is None):
            raise ValueError("provide exactly one of direction / end_point")
        base_point = _shaped(base_point, self.manifold.point_shape, "base point")
        tangent_vec = _shaped(tangent_vec, self.tangent_shape, "tangent vector")
        if direction is None:
            hook, shape = self._transport_to, self.manifold.point_shape
            target = end_point = _shaped(end_point, shape, "end point")
        else:
            hook, shape = self._transport, self.tangent_shape
            target = _shaped(direction, shape, "direction")
        _check_batches(
            "parallel_transport",
            (tangent_vec, self.tangent_shape),
            (base_point, self.manifold.point_shape),
            (target, shape),
        )
        with np.errstate(all="ignore"):
            # A flat metric's hook ignores the points; a non-finite vector
            # fails its tangency check, whose residual is then not finite.
            self._require_finite("parallel_transport", base_point, end_point)
            self._check_tangent("parallel_transport", tangent_vec, base_point)
            if direction is not None:
                self._check_tangent("parallel_transport", target, base_point)
            return self._finite_result("parallel_transport", hook, tangent_vec, base_point, target)

    def _transport(self, tangent_vec, base_point, direction):
        """Transport hook along the initial velocity ``direction``: the pole-ladder fallback."""
        from .numerical import transport_by_ladder

        return transport_by_ladder(self, tangent_vec, base_point, self.exp(direction, base_point))

    def _transport_to(self, tangent_vec, base_point, end_point):
        """End-point transport hook: ``_transport`` along the tangency-checked log."""
        direction = self.log(end_point, base_point)
        self._check_tangent("parallel_transport", direction, base_point)
        return self._transport(tangent_vec, base_point, direction)

    def injectivity_radius(self, base_point):
        """Conservative lower bound on the injectivity radius at a point."""
        return np.inf

    def mean(self, points, weights=None):
        """Frechet mean estimate of a batch of points (convenience wrapper)."""
        from ..learning.frechet import frechet_mean

        return frechet_mean(self, points, weights=weights).estimate


class Geodesic:
    """Geodesic through ``initial_point`` with velocity ``initial_tangent_vec``.

    Calling with a scalar ``t`` returns one point; an array of times returns
    points stacked along leading axes: ``curve(t)[i] == curve(t[i])``.
    """

    def __init__(self, metric, initial_point, initial_tangent_vec):
        self.metric = metric
        self.initial_point = np.asarray(initial_point, dtype=float)
        self.initial_tangent_vec = np.asarray(initial_tangent_vec, dtype=float)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vec = self.initial_tangent_vec
        if t.ndim:
            t = t.reshape(t.shape + (1,) * vec.ndim)
        return self.metric.exp(t * vec, self.initial_point)


def orthonormal_tangent_basis(metric, base_point, atol=1e-8):
    """Metric-orthonormal basis of the tangent space at one base point.

    Projects the canonical ambient basis to the tangent space and runs
    modified Gram-Schmidt (two passes) under ``metric.inner_product``.
    Deterministic: the result depends only on the base point.
    """
    base_point = np.asarray(base_point, dtype=float)
    shape = metric.tangent_shape
    ambient_dim = int(np.prod(shape))
    target = metric.tangent_dim

    basis = []
    for i in range(ambient_dim):
        cand = np.zeros(ambient_dim)
        cand[i] = 1.0
        vec = metric.to_tangent(cand.reshape(shape), base_point)
        for _ in range(2):
            for b in basis:
                vec = vec - metric.inner_product(vec, b, base_point) * b
        sq = metric.squared_norm(vec, base_point)
        if sq > atol**2:
            basis.append(vec / np.sqrt(sq))
        if len(basis) == target:
            break
    if len(basis) != target:
        raise GeometryError(
            f"could not build a tangent basis: got {len(basis)} of {target} directions"
        )
    return np.stack(basis)
