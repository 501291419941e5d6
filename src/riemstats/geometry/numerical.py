"""Numerical fallbacks for metrics without closed forms.

Three generic tools over a coordinate chart or an embedded manifold:

* geodesics by integration of the geodesic equation
  ``x'' + Gamma(x)(x', x') = 0`` with :func:`dormand_prince`, whose
  docstring states the accuracy contract; the invariant metrics integrate
  with it too;
* logarithms by shooting (damped Gauss-Newton on the exp residual);
* parallel transport by the pole ladder, which is exact on symmetric
  spaces up to the accuracy of the exp/log maps used per rung.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..linalg import norm

_FD_STEP = 1e-5  # central differences of the metric matrix
_SHOOTING_FD = 1e-7  # forward differences of the shooting residual
_INTEGRATION_TOL = 3e-10  # per-step error of dormand_prince, relative to 1 + |state|
_FIRST_STEP = 0.1  # dormand_prince's first trial step, in units of geodesic time
_MAX_STEPS = 10_000  # dormand_prince's cap on attempted steps
_LEFT_DOMAIN = "geodesic integration left the domain: non-finite state"

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, 1993, table
# II.5.2): the stage coefficients, whose last row is also the fifth-order
# solution, so the last stage is the next step's first (first same as last),
# and the weights of the error estimate, fifth-order minus fourth-order.
_DP_STAGES = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERROR = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


class ChristoffelField:
    """Levi-Civita coefficients ``Gamma^k_{ij}`` over a coordinate chart.

    Wraps an evaluator mapping intrinsic coordinates ``(..., dim)`` to a
    coefficient array ``(..., dim, dim, dim)`` indexed ``[k, i, j]`` and
    symmetric in ``(i, j)``.

    ``field(coords)`` returns that tensor. ``field(coords, velocity)``
    returns the geodesic acceleration term
    ``Gamma(v, v)^k = sum_ij Gamma^k_ij v^i v^j``, shape ``(..., dim)``,
    through the ``_contract`` hook. The base hook builds the tensor and
    contracts it; a field that can form ``Gamma(v, v)`` directly overrides
    the hook and never builds the tensor. Non-finite results raise
    :class:`DomainError` (chart domain exit).
    """

    def __init__(self, evaluator, dim):
        self._evaluator = evaluator
        self.dim = int(dim)

    def __call__(self, coords, velocity=None):
        coords = np.asarray(coords, dtype=float)
        if velocity is None:
            return self._tensor(coords)
        accel = self._contract(coords, np.asarray(velocity, dtype=float))
        if not np.all(np.isfinite(accel)):
            raise DomainError("geodesic acceleration is not finite (chart domain exit)")
        return accel

    def _tensor(self, coords):
        gamma = np.asarray(self._evaluator(coords), dtype=float)
        expected = coords.shape[:-1] + (self.dim,) * 3
        if gamma.shape != expected:
            raise DomainError(
                f"christoffel evaluator returned shape {gamma.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(gamma)):
            raise DomainError("christoffel coefficients are not finite (chart domain exit)")
        return gamma

    def _contract(self, coords, velocity):
        """``Gamma(v, v)`` on float arrays; the result is checked by ``__call__``."""
        return np.einsum("...kij,...i,...j->...k", self._tensor(coords), velocity, velocity)


class _MetricChristoffels(ChristoffelField):
    """Christoffel field of a coordinate metric matrix ``g``, by central differences.

    The tensor is ``Gamma^k_ij = g^{kl} Gamma_{l,ij}`` with the first-kind
    symbols ``Gamma_{l,ij} = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)``. The
    contraction uses the symmetry of ``g`` to skip the tensor:
    ``Gamma(v, v) = g^{-1} (d_v g . v - 1/2 grad g(v, v))``. Both solve
    against ``g``; an exactly singular ``g`` raises :class:`DomainError`.
    """

    def __init__(self, metric_matrix_fn, dim):
        super().__init__(self._christoffels, dim)
        self._metric_matrix_fn = metric_matrix_fn

    def _metric_and_partials(self, coords):
        """``g`` and ``dg[..., l, i, j] = d_l g_ij``: ``2 * dim + 1`` metric evaluations."""
        g = np.asarray(self._metric_matrix_fn(coords), dtype=float)
        partials = []
        for axis in range(self.dim):
            offset = np.zeros(self.dim)
            offset[axis] = _FD_STEP
            g_plus = np.asarray(self._metric_matrix_fn(coords + offset), dtype=float)
            g_minus = np.asarray(self._metric_matrix_fn(coords - offset), dtype=float)
            partials.append((g_plus - g_minus) / (2.0 * _FD_STEP))
        return g, np.stack(partials, axis=-3)

    def _christoffels(self, coords):
        g, dg = self._metric_and_partials(coords)
        d_i_g_jl = np.moveaxis(dg, -1, -3)  # [l, i, j]
        lower = 0.5 * (d_i_g_jl + np.swapaxes(d_i_g_jl, -1, -2) - dg)
        flat = lower.reshape(lower.shape[:-2] + (self.dim * self.dim,))
        return _solve_metric(g, flat).reshape(lower.shape)

    def _contract(self, coords, velocity):
        g, dg = self._metric_and_partials(coords)
        w = np.einsum("...lij,...j->...li", dg, velocity)  # w[l, i] = sum_j d_l g_ij v^j
        first = np.einsum("...li,...l->...i", w, velocity)
        third = np.einsum("...li,...i->...l", w, velocity)
        return _solve_metric(g, (first - 0.5 * third)[..., None])[..., 0]


def _solve_metric(g, rhs):
    """``g^{-1} rhs`` for a stack of metric matrices; singular ``g`` leaves the chart.

    A 2x2 ``g`` is solved in closed form, by its adjugate over its
    determinant, which on stacks is several times faster than
    ``np.linalg.solve``; every other dim uses the latter.
    """
    if g.shape[-1] != 2:
        try:
            return np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError as exc:
            raise DomainError("singular metric matrix (chart domain exit)") from exc
    g00, g01 = g[..., 0, 0, None], g[..., 0, 1, None]
    g10, g11 = g[..., 1, 0, None], g[..., 1, 1, None]
    r0, r1 = rhs[..., 0, :], rhs[..., 1, :]
    # Overflow gives inf, as LAPACK would; the callers reject non-finite results.
    with np.errstate(all="ignore"):
        det = g00 * g11 - g01 * g10
        if np.any(det == 0.0):
            raise DomainError("singular metric matrix (chart domain exit)")
        return np.stack([g11 * r0 - g01 * r1, g00 * r1 - g10 * r0], axis=-2) / det[..., None]


def christoffels_from_metric(metric_matrix_fn, dim):
    """Christoffel field from a coordinate metric matrix by central differences.

    ``metric_matrix_fn`` maps coordinates ``(..., dim)`` to the metric matrix
    ``(..., dim, dim)``; each evaluation of the field calls it ``2 * dim + 1``
    times, at coordinate offsets of ``1e-5``. Matches registered closed forms
    to ~1e-6 for smooth metrics. The returned field forms ``Gamma(v, v)``
    without the tensor.
    """
    return _MetricChristoffels(metric_matrix_fn, dim)


def dormand_prince(rates, state, batch_ndim):
    """Adaptive Dormand-Prince 5(4) over unit time, with steps chosen per batch member.

    The one geodesic integrator of the library, and its contract: each batch
    member takes its own steps, each with a local error of at most
    ``_INTEGRATION_TOL`` = 3e-10 relative to ``1 + |state|``, and
    :class:`ConvergenceError` is raised past ``_MAX_STEPS`` = 10000 steps.

    ``state`` is a tuple of arrays sharing ``batch_ndim`` leading batch axes,
    and ``rates(*state)`` returns their time derivatives as a tuple of the
    same shapes. The batch is flattened to one axis of length ``n``, an
    unbatched state to one of length 1, and the state of the ``m <= n``
    members that have not reached t = 1 is held in one flat float64 vector:
    component after component, each a contiguous block of shape
    ``(m,) + tail``, so that a stage is one array operation per Runge-Kutta
    coefficient, whatever the number of components. ``rates`` gets a view of
    each block, so it sees only the unfinished members, ``m`` falling as
    they finish, and must compute each member independently of the others.
    Then each member takes the steps, and gets the bits, it would get on its
    own.

    A member accepts a step when the largest entry of the error estimate,
    each divided by ``_INTEGRATION_TOL * (1 + max(|y|, |y_new|))``, is at
    most 1; the next step is the last one times ``0.9 err^(-1/5)``, clipped
    to [0.2, 5], and the last step lands on t = 1 exactly. The first trial
    step is ``_FIRST_STEP``; six rate evaluations per step after the first.

    Raises :class:`DomainError` as soon as a stage is not finite, and
    :class:`ConvergenceError`, with the largest remaining time as its
    residual, if some member has not reached t = 1 after ``_MAX_STEPS``
    attempted steps.
    """
    batch = state[0].shape[:batch_ndim]
    n = int(np.prod(batch))
    tails = [s.shape[batch_ndim:] for s in state]
    widths = [int(np.prod(tail)) for tail in tails]

    def layout(m):
        """The component blocks of a flat state of ``m`` members, and each entry's member."""
        ends = np.cumsum([m * width for width in widths]).tolist()
        blocks = [slice(end - m * width, end) for end, width in zip(ends, widths)]
        return blocks, np.concatenate([np.repeat(np.arange(m), width) for width in widths])

    def flat_rates(y):  # on the current layout: m members in blocks
        ks = rates(*(y[block].reshape((m,) + tail) for block, tail in zip(blocks, tails)))
        return np.concatenate([np.reshape(k, (m * w,)) for k, w in zip(ks, widths)])

    y = np.concatenate([np.reshape(s, (n * w,)) for s, w in zip(state, widths)], dtype=float)
    out = np.empty_like(y)
    m = n
    blocks, member = layout(m)
    out_blocks = blocks
    # place[i] is the entry of ``out`` that entry i of the unfinished members' state fills.
    place = np.arange(y.size)
    t = np.zeros(m)
    step = np.full(m, _FIRST_STEP)
    k_first = flat_rates(y)
    for _ in range(_MAX_STEPS):
        if not m:
            break
        remaining = 1.0 - t
        last = step >= remaining
        step = np.where(last, remaining, step)
        h = step[member]
        ks = [k_first]
        for row in _DP_STAGES:
            y_new = _combine(row, ks, h)
            y_new += y
            if not np.isfinite(y_new).all():
                raise DomainError(_LEFT_DOMAIN)
            ks.append(flat_rates(y_new))
        # The last stage is the fifth-order solution.
        scale = _INTEGRATION_TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        ratio = np.abs(_combine(_DP_ERROR, ks, h)) / scale
        err = np.zeros(m)
        for block, width in zip(blocks, widths):
            err = np.maximum(err, np.max(ratio[block].reshape(m, width), axis=1, initial=0.0))
        if not np.isfinite(err).all():  # the last stage's rates enter only the estimate
            raise DomainError(_LEFT_DOMAIN)
        accept = err <= 1.0
        t = np.where(accept, np.where(last, 1.0, t + step), t)
        keep = accept[member]
        y = np.where(keep, y_new, y)
        k_first = np.where(keep, ks[-1], k_first)
        step = step * np.clip(0.9 * np.maximum(err, 1e-10) ** -0.2, 0.2, 5.0)
        done = t >= 1.0
        if done.any():
            # Finished members leave the state: their entries go to ``out``
            # once, and the next steps run on the others only.
            finished = done[member]
            out[place[finished]] = y[finished]
            running = ~finished
            y, k_first, place = y[running], k_first[running], place[running]
            t, step = t[~done], step[~done]
            m = t.size
            blocks, member = layout(m)
    if m:
        raise ConvergenceError(
            f"geodesic integration did not reach t = 1 in {_MAX_STEPS} steps",
            residual=float(np.max(1.0 - t)),
        )
    return tuple(out[block].reshape(batch + tail) for block, tail in zip(out_blocks, tails))


def _combine(coeffs, ks, h):
    """``h * sum_j coeffs[j] ks[j]`` over the nonzero coefficients in order, in one new array."""
    total = None
    for c, k in zip(coeffs, ks):
        if c:
            if total is None:
                total = c * k
            else:
                total += c * k
    total *= h
    return total


def exp_by_integration(christoffels, base_coords, velocity_coords):
    """Chart exponential map: integration of the geodesic equation by :func:`dormand_prince`.

    Each rate evaluation asks the field for the acceleration term alone,
    ``christoffels(coords, velocity) = Gamma(v, v)``, so a field from
    :func:`christoffels_from_metric` never builds the ``(dim, dim, dim)``
    tensor; a field wrapping a closed-form tensor evaluates and contracts it.
    """
    x, v = np.broadcast_arrays(
        np.asarray(base_coords, dtype=float), np.asarray(velocity_coords, dtype=float)
    )

    def rates(coords, velocity):
        return velocity, -christoffels(coords, velocity)

    return dormand_prince(rates, (x, v), x.ndim - 1)[0]


def log_by_shooting(
    exp_map,
    base_point,
    target_point,
    tangent_basis=None,
    initial_tangent=None,
    max_iter=64,
    tol=1e-6,
    point_ndim=1,
):
    """Logarithm by shooting: solve ``exp(v) = target`` for the tangent ``v``.

    Damped Gauss-Newton on the residual ``exp(v) - target`` with a
    forward-difference Jacobian; the step is halved whenever the residual
    would increase. Problems may be batched over leading axes and are solved
    simultaneously.

    Parameters
    ----------
    exp_map : callable or metric
        ``exp_map(tangent, base) -> point``, or an object with ``.exp``.
    tangent_basis : array, optional
        Basis spanning the unknown tangent space, ``batch + (d, *point_shape)``.
        Without it the tangent is a free array of the point's shape
        (coordinate-chart mode) initialized at ``target - base``.
    initial_tangent : array, optional
        Starting guess (projected onto the basis span in basis mode).
    tol : float
        Max-abs residual on ``exp(v) - target`` required for convergence.
    point_ndim : int
        Number of trailing axes that make up a single point.

    Raises
    ------
    ConvergenceError
        If any problem in the batch misses ``tol`` after ``max_iter`` steps.
    """
    exp_fn = exp_map.exp if hasattr(exp_map, "exp") else exp_map
    base_point = np.asarray(base_point, dtype=float)
    target_point = np.asarray(target_point, dtype=float)
    base_point, target_point = np.broadcast_arrays(base_point, target_point)
    point_shape = base_point.shape[base_point.ndim - point_ndim :]
    batch = base_point.shape[: base_point.ndim - point_ndim]
    m = int(np.prod(point_shape))
    n_prob = int(np.prod(batch)) if batch else 1

    if tangent_basis is None:
        d = m
        basis = np.broadcast_to(np.eye(m).reshape((m,) + point_shape), (n_prob, m) + point_shape)
        if initial_tangent is None:
            initial_tangent = target_point - base_point
    else:
        basis = np.asarray(tangent_basis, dtype=float)
        d = basis.shape[-point_ndim - 1]
        basis = np.broadcast_to(basis, batch + (d,) + point_shape)
        basis = basis.reshape((n_prob, d) + point_shape)
        if initial_tangent is None:
            initial_tangent = np.zeros(batch + point_shape)

    base_flat = base_point.reshape((n_prob,) + point_shape)
    target_flat = target_point.reshape((n_prob, m))
    basis_flat = basis.reshape((n_prob, d, m))
    init_flat = (
        np.broadcast_to(np.asarray(initial_tangent, dtype=float), batch + point_shape)
        .reshape((n_prob, m))
    )
    # Express the initial guess in basis coordinates (least squares).
    gram = np.einsum("pdm,pem->pde", basis_flat, basis_flat)
    rhs = np.einsum("pdm,pm->pd", basis_flat, init_flat)
    coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]

    def residuals_from_tangents(tan_flat):
        lead = tan_flat.shape[:-1]
        pts = exp_fn(tan_flat.reshape(lead + point_shape), base_flat)
        return pts.reshape(lead + (m,)) - target_flat

    def tangent_of(c):
        return np.einsum("pd,pdm->pm", c, basis_flat)

    res = residuals_from_tangents(tangent_of(coeff))
    norms = norm(res)
    for _ in range(max_iter):
        # Converged problems are frozen so that a batched solve iterates each
        # problem exactly as its element-wise run would.
        active = np.max(np.abs(res), axis=-1) > tol
        if not np.any(active):
            break
        step_h = _SHOOTING_FD * (1.0 + np.max(np.abs(coeff), axis=-1))  # (p,)
        # exp is evaluated on a (d, p) stack; the tangent is linear in the
        # coefficients, so perturbed tangents are tan + h * basis_k.
        tan0 = tangent_of(coeff)
        pert_tan = tan0[None] + step_h[None, :, None] * np.moveaxis(basis_flat, 1, 0)
        pert_res = residuals_from_tangents(pert_tan)  # (d, p, m)
        jac = np.moveaxis((pert_res - res[None]) / step_h[None, :, None], 0, -1)  # (p, m, d)
        delta = -np.einsum("pdm,pm->pd", np.linalg.pinv(jac), res)

        lam = np.ones(n_prob)
        improved = np.zeros(n_prob, dtype=bool)
        cand, cand_res, cand_norms = coeff, res, norms
        for _ in range(30):
            trial = coeff + lam[:, None] * delta
            trial_res = residuals_from_tangents(tangent_of(trial))
            trial_norms = norm(trial_res)
            better = active & ~improved & (trial_norms < cand_norms)
            cand = np.where(better[:, None], trial, cand)
            cand_res = np.where(better[:, None], trial_res, cand_res)
            cand_norms = np.where(better, trial_norms, cand_norms)
            improved |= better
            if np.all(improved | ~active):
                break
            lam = np.where(improved, lam, lam * 0.5)
        if not np.any(improved):
            break
        coeff, res, norms = cand, cand_res, cand_norms

    residual = float(np.max(np.abs(res), initial=0.0))
    if residual > tol:
        raise ConvergenceError(f"shooting log failed to reach tol={tol}", residual=residual)
    return tangent_of(coeff).reshape(batch + point_shape)


def transport_by_ladder(metric, tangent_vec, base_point, end_point, n_rungs=20):
    """Parallel transport by the pole ladder along the base->end geodesic.

    One rung reflects ``exp(v)`` through the rung's geodesic midpoint; the
    scheme is first order per rung in general and exact (up to the exp/log
    accuracy) on symmetric spaces.
    """
    if n_rungs < 1:
        raise ValueError("n_rungs must be >= 1")
    tangent_vec = np.asarray(tangent_vec, dtype=float)
    base_point = np.asarray(base_point, dtype=float)
    end_point = np.asarray(end_point, dtype=float)

    whole = metric.log(end_point, base_point)
    # Every rung's start, midpoint and end on the base->end geodesic, from
    # one batched exp: point j is exp((j / 2) / n_rungs * whole), so rung i
    # runs from point 2i through point 2i + 1 to point 2i + 2.
    fracs = np.arange(2 * n_rungs + 1) * 0.5 / n_rungs
    points = metric.exp(fracs.reshape((-1,) + (1,) * whole.ndim) * whole, base_point)
    vec = tangent_vec
    for i in range(n_rungs):
        start, mid, nxt = points[2 * i], points[2 * i + 1], points[2 * i + 2]
        lifted = metric.exp(vec, start)
        reflected = metric.exp(-metric.log(lifted, mid), mid)
        vec = -metric.log(reflected, nxt)
    return vec
