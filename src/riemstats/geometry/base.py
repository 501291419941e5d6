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
from functools import reduce

import numpy as np

from .. import linalg
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


def _symmetric(mat, role):
    """Symmetric part of the operand ``mat``; DomainError naming ``role`` unless
    finite and ``|mat - mat^T| <= ATOL`` entry for entry (one flat ``max``),
    the SPD and Grassmann membership rule. The one scan of each operand: it
    goes on to the unchecked ``linalg._sym_eig`` or ``linalg._spd_frame``."""
    mat = np.asarray(mat, dtype=float)
    if not np.abs(mat - np.swapaxes(mat, -1, -2)).max(initial=0.0) <= ATOL:
        raise DomainError(f"{role} is not symmetric within {ATOL}")
    return linalg.sym(mat)


def _one_point(metric, op, array, role):
    """``array`` checked by ``metric._inputs``; ShapeError unless it is one point."""
    (array,) = metric._inputs(op, (array, role))
    shape = metric.manifold.point_shape
    if array.shape != shape:
        raise ShapeError(f"{op} takes one {role} of shape {shape}, got {array.shape}")
    return array


def _one_batch(metric, op, array, role):
    """``array`` checked by ``metric._inputs``; ShapeError unless it is one
    batch of shape ``(n, *point_shape)``."""
    (array,) = metric._inputs(op, (array, role))
    if array.ndim != len(metric.manifold.point_shape) + 1:
        raise ShapeError(f"{op} fit takes one batch of {role}s, got {array.shape}")
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

    def check_point(self, point):
        point = np.asarray(point, dtype=float)
        if not np.all(self.belongs(point)):
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

    def _tangency_gap(self, vector, base_point):
        """``|vector - to_tangent(vector)|``, entry by entry."""
        vector = np.asarray(vector, dtype=float)
        return np.abs(vector - self.to_tangent(vector, base_point))

    def tangency_residual(self, vector, base_point):
        """Largest entry of ``|vector - to_tangent(vector)|`` per vector: one
        ``np.maximum`` per point entry, as numpy's ``max`` over short trailing
        axes is 20-40 times slower on 10^4 vectors."""
        diff = self._tangency_gap(vector, base_point)
        entries = diff.shape[diff.ndim - len(self.point_shape):]
        if diff.ndim == len(entries):
            return diff.max()
        return reduce(np.maximum, (diff[(...,) + i] for i in np.ndindex(entries)))

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
    log; only a closed form that skips the log overrides it. A log and the
    squared distance of the same pair come together from
    ``_log_and_squared_dist``, which composes the two hooks; a metric whose
    two share a decomposition overrides it and takes ``_log`` from it. The
    public ``inner_product``, ``exp``, ``log``, ``squared_dist``, ``dist`` and
    ``parallel_transport`` share one rule, ``_checked``: ``_inputs`` raises
    ShapeError on a wrong trailing shape or batch axes that do not
    broadcast and DomainError on a non-finite entry; then ``_apply`` raises
    TangencyError on a vector of ``exp`` or ``parallel_transport`` that is
    not tangent, runs the hook with float warnings silenced, and ``_result``
    raises DomainError unless its output is finite. A metric built on
    another calls the hooks; an estimator checks its data once through
    ``_inputs``, then calls ``_apply``. Each hook takes only its operands.
    ``dist`` is ``sqrt(squared_dist)``, with one rule for a negative squared
    distance, which only an indefinite metric such as Minkowski's gives
    beyond round-off.
    """

    # True when an op's work on a base point (a factorization or transform
    # of it) costs about as much as its work on a point, so rows that share
    # a few base points are cheaper as one call per base point than as one
    # call with the base repeated per row. Batched estimators read it.
    prefers_shared_base = False

    # Metrics with a closed-form Hessian of the Frechet function (the sphere
    # and the affine-invariant SPD metric) define
    # ``_newton_directions(logs, weights, base_points, gradients)``: the
    # Newton directions of the Karcher-flow segments still searching, one
    # call per flow iteration, and the mask of the segments whose Hessian is
    # positive definite. None here: the flow takes gradient steps.
    _newton_directions = None

    # A metric whose nearest centroids follow from a cheaper product than
    # the distances defines ``_nearest(points, centroids)`` on a checked
    # batch ``(n, *point_shape)`` and finite centroids: each point's nearest
    # centroid and the mask of the rows where that label is certain, that
    # is, where ``_squared_dist`` as computed is strictly least at it. The
    # sphere does, from one Gram product and a rounding bound derived in its
    # docstring. K-means sends the other rows through the distances. None
    # here: every row takes the distances.
    _nearest = None

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

        The test is the largest entry of the manifold's ``_tangency_gap``
        over the whole call, one flat ``max``; ``tangency_residual`` reduces
        the same gap per vector. Where the manifold keeps the identity
        ``to_tangent``, every finite vector is tangent and the pass is skipped.
        """
        if type(self.manifold).to_tangent is Manifold.to_tangent:
            return
        if not self.manifold._tangency_gap(vector, base_point).max(initial=0.0) <= ATOL:
            raise TangencyError(f"vector is not tangent to {self.manifold.name} at the base point")

    def _result(self, op, out):
        """``out`` of a hook of ``op``; DomainError unless it is finite."""
        if not np.isfinite(out).all():
            raise DomainError(f"{self.manifold.name} {op} overflows: the result is not finite")
        return out

    def _checked(self, op, hook, *operands, tangent=False):
        """``_apply`` of ``hook`` to the ``(array, role)`` operands that pass
        ``_inputs``; with ``tangent``, to their tangent vectors and direction."""
        arrays = self._inputs(op, *operands)
        if tangent:
            tangent = [a for a, (_, role) in zip(arrays, operands) if role in _TANGENT_ROLES]
        return self._apply(op, hook, *arrays, tangent=tangent or ())

    def _apply(self, op, hook, *arrays, tangent=()):
        """``_result`` of ``hook(*arrays)`` with float warnings silenced, on
        finite arrays that passed ``_inputs`` or were computed from them; each
        array in ``tangent`` must be tangent at the base point ``arrays[1]``."""
        with np.errstate(all="ignore"):
            for step in tangent:
                self._require_tangent(step, arrays[1])
            return self._result(op, hook(*arrays))

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
        """``sqrt(squared_norm)``. A timelike vector of an indefinite metric gets
        NaN with a RuntimeWarning, not ``dist``'s DomainError: the tangent
        rescaling of the tests and the benchmark replaces that NaN."""
        return np.sqrt(self.squared_norm(tangent_vec, base_point))

    def exp(self, tangent_vec, base_point):
        """Point reached after unit time along the geodesic with given velocity."""
        return self._checked(
            "exp", self._exp, (tangent_vec, "tangent vector"), (base_point, "base point"),
            tangent=True,
        )

    def log(self, point, base_point):
        """Initial velocity of the geodesic from ``base_point`` to ``point``.

        An iterative log (Stiefel, invariant metrics) stops at its module's
        step limit and tolerance.
        """
        return self._checked("log", self._log, (point, "point"), (base_point, "base point"))

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

    def _log_and_squared_dist(self, point, base_point):
        """``(_log(point, base_point), _squared_dist(base_point, point))``: the
        Karcher flow's logs and variance terms. Without a closed-form
        ``_squared_dist``, the squared norm of the one log is that hook's value."""
        log = self._log(point, base_point)
        if type(self)._squared_dist is RiemannianMetric._squared_dist:
            return log, self._inner_product(log, log, base_point)
        return log, self._squared_dist(base_point, point)

    def dist(self, point_a, point_b):
        """``sqrt(squared_dist)``.

        ``sqrt(x * x) == x`` in float64, so a ``_squared_dist`` hook that
        squares a closed-form distance gives ``dist`` that form's bits. A
        squared distance below ``-1e-12`` (timelike, in Minkowski space) raises
        DomainError; one in ``[-1e-12, 0)`` is round-off and gives 0.
        """
        sq = self.squared_dist(point_a, point_b)
        lowest = np.min(sq, initial=0.0)
        if lowest < -1e-12:
            raise DomainError(f"negative squared distance: no real {self.manifold.name} distance")
        return np.sqrt(np.maximum(sq, 0.0) if lowest < 0.0 else sq)

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

        end_point = self._apply("exp", self._exp, direction, base_point)
        return transport_by_ladder(self, tangent_vec, base_point, end_point)

    def _transport_to(self, tangent_vec, base_point, end_point):
        """End-point transport hook: ``_transport`` along the tangency-checked log."""
        direction = self._apply("log", self._log, end_point, base_point)
        self._require_tangent(direction, base_point)
        return self._transport(tangent_vec, base_point, direction)

    def injectivity_radius(self, base_point):
        """Conservative lower bound on the injectivity radius at a point."""
        return np.inf


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


def orthonormal_tangent_basis(metric, base_point):
    """Metric-orthonormal basis of the tangent space at one base point.

    The singular values of the projected canonical basis decide the rank
    without the metric: GeometryError unless ``tangent_dim`` of them exceed
    ``n eps`` times the largest, for ``n`` ambient coordinates. The top
    singular vectors, a Euclidean-orthonormal tangent frame ``q``, then take
    two passes ``q <- (H + s)^-1/2 q``, ``H`` the Gram matrix of ``q`` in the
    metric (shifted CholeskyQR). The shift ``s >= 0`` lifts the smallest
    eigenvalue of ``H`` to ``n eps`` times the largest, so no cutoff depends
    on the scale or the conditioning of the metric. GeometryError if ``H``
    has an eigenvalue below ``-n eps`` times the largest: the metric is not
    positive definite. Deterministic: the result depends only on the point.
    """
    base_point = _one_point(metric, "tangent basis", base_point, "base point")
    shape = metric.tangent_shape
    size = int(np.prod(shape))
    target = metric.tangent_dim
    round_off = size * np.finfo(float).eps
    frame = metric.to_tangent(np.eye(size).reshape((size,) + shape), base_point)
    u, sig, _ = linalg.svd(frame.reshape(size, size))
    if not sig[target - 1] > round_off * sig[0]:
        raise _missing_directions(np.count_nonzero(sig > round_off * sig[0]), target)
    basis = np.tensordot(u[:, :target] / sig[:target], frame, axes=(0, 0))
    rows = -(-size // target)  # per inner_product call: temporaries within 2 size^2
    for _ in range(2):
        gram = [
            metric._apply("inner_product", metric._inner_product, basis[i : i + rows, None],
                          basis, base_point)
            for i in range(0, target, rows)
        ]
        w, v = linalg.sym_eig(linalg.sym(np.concatenate(gram)))
        if not w[-1] > -round_off * w[0]:
            raise _missing_directions(np.count_nonzero(w > round_off * w[0]), target)
        shift = max(round_off * w[0] - w[-1], 0.0)
        basis = np.tensordot((v / np.sqrt(w + shift)) @ v.T, basis, axes=(1, 0))
    return basis


def _missing_directions(found, target):
    return GeometryError(f"could not build a tangent basis: got {found} of {target} directions")
