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


# Operand roles of the metric's tangent shape; any other role has the point shape.
_TANGENT_ROLES = ("tangent vector", "direction")


def _one_point(metric, op, array, role):
    """``array`` checked by ``metric._inputs``; ShapeError unless it is one point."""
    (array,) = metric._inputs(op, (array, role))
    shape = metric.manifold.point_shape
    if array.shape != shape:
        raise ShapeError(f"{op} takes one {role} of shape {shape}, got {array.shape}")
    return array


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
    ``parallel_transport`` share one rule, ``_checked``: ``_inputs`` raises
    ShapeError on a wrong trailing shape or batch axes that do not
    broadcast and DomainError on a non-finite entry; ``exp`` and
    ``parallel_transport`` raise TangencyError on a vector that is not
    tangent; the hook runs with float warnings silenced; ``_result`` raises
    DomainError unless its output is finite. A metric built on another, and
    an estimator that checks its data once through ``_inputs``, call the
    hooks. ``dist`` is ``sqrt(squared_dist)``; Minkowski space alone
    overrides it, because its squared interval is negative on timelike
    separations, which have no real distance.
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

    def _inputs(self, op, *operands):
        """The ``(array, role)`` operands of an ``op`` call as float64 arrays.

        ShapeError unless each has its role's trailing shape and the batch
        axes broadcast (compared on views of the first trailing entries);
        DomainError unless every entry is finite, since a hook may map a
        non-finite input to a finite result, as ``arctan2`` maps inf to pi/2.
        """
        arrays, batched = [], []
        for array, role in operands:
            shape = self.tangent_shape if role in _TANGENT_ROLES else self.manifold.point_shape
            array = _shaped(array, shape, role)
            if array.ndim > len(shape):
                batched.append(array[(...,) + (0,) * len(shape)])
            arrays.append(array)
        if len(batched) > 1:
            try:
                np.broadcast(*batched)
            except ValueError:
                shapes = ", ".join(str(b.shape) for b in batched)
                raise ShapeError(f"{op}: operand batch shapes {shapes} do not broadcast") from None
        if not all(np.isfinite(a).all() for a in arrays):
            raise DomainError(f"non-finite input to {self.manifold.name} {op}")
        return arrays

    def _require_tangent(self, vector, base_point):
        """TangencyError unless the finite ``vector`` is tangent; call with warnings silenced.

        Where the metric and the manifold keep the identity ``to_tangent``,
        every finite vector is tangent and the residual pass is skipped.
        """
        if type(self).to_tangent is RiemannianMetric.to_tangent:
            if type(self.manifold).to_tangent is Manifold.to_tangent:
                return
        if not np.abs(vector - self.to_tangent(vector, base_point)).max(initial=0.0) <= ATOL:
            raise TangencyError(f"vector is not tangent to {self.manifold.name} at the base point")

    def _result(self, op, out):
        """``out`` of a hook of ``op``; DomainError unless it is finite."""
        if not np.isfinite(out).all():
            raise DomainError(f"{self.manifold.name} {op} overflows: the result is not finite")
        return out

    def _checked(self, op, hook, *operands, tangent=False, **kwargs):
        """``hook`` of the checked ``(array, role)`` operands, passed in order.

        With ``tangent``, each tangent vector and direction must be tangent
        at the second operand, the base point.
        """
        arrays = self._inputs(op, *operands)
        with np.errstate(all="ignore"):
            if tangent:
                for array, (_, role) in zip(arrays, operands):
                    if role in _TANGENT_ROLES:
                        self._require_tangent(array, arrays[1])
            return self._result(op, hook(*arrays, **kwargs))

    def random_tangent(self, base_point, n_samples=1, rng=None):
        """Gaussian ambient noise projected to the tangent space."""
        rng = _rng(rng)
        base_point = np.asarray(base_point, dtype=float)
        raw = rng.standard_normal(_sample_shape(n_samples, self.tangent_shape))
        return self.to_tangent(raw, base_point)

    # Core operations -----------------------------------------------------

    def inner_product(self, tangent_vec_a, tangent_vec_b, base_point):
        """Metric inner product of two tangent vectors at a shared base point."""
        return self._checked(
            "inner_product", self._inner_product, (tangent_vec_a, "tangent vector"),
            (tangent_vec_b, "tangent vector"), (base_point, "base point"),
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
        return self._checked(
            "exp", self._exp, (tangent_vec, "tangent vector"), (base_point, "base point"),
            tangent=True,
        )

    def log(self, point, base_point, **kwargs):
        """Initial velocity of the geodesic from ``base_point`` to ``point``.

        The iterative logs (Stiefel, shooting) take ``max_iter`` and ``tol``
        as ``kwargs``.
        """
        return self._checked(
            "log", self._log, (point, "point"), (base_point, "base point"), **kwargs
        )

    @abstractmethod
    def _exp(self, tangent_vec, base_point):
        """Exp hook: float64 arrays of the right shapes, tangency checked."""

    @abstractmethod
    def _log(self, point, base_point):
        """Log hook: float64 arrays of the right shapes."""

    def squared_dist(self, point_a, point_b):
        return self._checked(
            "squared_dist", self._squared_dist, (point_a, "point"), (point_b, "point")
        )

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
        if direction is None:
            hook, target = self._transport_to, (end_point, "end point")
        else:
            hook, target = self._transport, (direction, "direction")
        return self._checked(
            "parallel_transport", hook, (tangent_vec, "tangent vector"), (base_point, "base point"),
            target, tangent=True,
        )

    def _transport(self, tangent_vec, base_point, direction):
        """Transport hook along the initial velocity ``direction``: the pole-ladder fallback."""
        from .numerical import transport_by_ladder

        return transport_by_ladder(self, tangent_vec, base_point, self.exp(direction, base_point))

    def _transport_to(self, tangent_vec, base_point, end_point):
        """End-point transport hook: ``_transport`` along the tangency-checked log."""
        direction = self.log(end_point, base_point)
        self._require_tangent(direction, base_point)
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
