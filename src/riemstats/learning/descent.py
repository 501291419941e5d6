"""Riemannian gradient descent for scalar fields on embedded manifolds.

The ambient gradient is projected to the tangent space (the Riemannian
gradient for the embedding-induced metric) and followed through the
exponential map with a backtracking-halved learning rate, so the objective
never increases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.base import _one_point

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class GradientDescentResult:
    point: np.ndarray
    value: float
    n_iter: int
    converged: bool
    points: np.ndarray  # iterate trace, (n_iter + 1, *point_shape)
    values: np.ndarray  # objective trace, (n_iter + 1,)


def riemannian_gradient_descent(
    manifold,
    fun,
    grad,
    initial_point,
    metric=None,
    learning_rate=0.1,
    max_iter=200,
    tol=1e-8,
):
    """Minimize ``fun`` over an embedded manifold.

    The start point and each ``grad`` output must be one finite point-shaped
    array (else ShapeError or DomainError, as from the public ops). Steps
    then call the metric's hooks with float warnings silenced, keeping the
    tangency and finiteness checks; ``fun`` and ``grad`` keep their warnings.

    Parameters
    ----------
    fun, grad : callables
        Scalar field on the ambient space and its ambient gradient.
    metric : RiemannianMetric, optional
        Defaults to the manifold's metric; assumed induced by the embedding
        (the tangent projection of ``grad`` is then the Riemannian gradient).
    tol : float
        Stop when the Riemannian gradient norm falls below this.
    """
    metric = metric if metric is not None else manifold.default_metric
    x = _one_point(metric, "gradient descent", initial_point, "initial point")
    trace = [x]
    values = [float(fun(x))]
    converged = False
    for _ in range(max_iter):
        raw = _one_point(metric, "gradient descent", grad(x), "gradient")
        with np.errstate(all="ignore"):
            riem_grad = manifold.to_tangent(raw, x)
            sq_norm = metric._inner_product(riem_grad, riem_grad, x)
        if float(np.sqrt(metric._result("inner_product", sq_norm))) < tol:
            converged = True
            break
        current = values[-1]
        for halvings in range(_MAX_HALVINGS + 1):
            step = -(learning_rate * 0.5**halvings) * riem_grad
            with np.errstate(all="ignore"):
                metric._require_tangent(step, x)
                candidate = metric._result("exp", metric._exp(step, x))
            cand_value = float(fun(candidate))
            if cand_value <= current:
                break
        if cand_value > current:
            break  # backtracking exhausted: flat to machine precision
        x = candidate
        trace.append(x)
        values.append(cand_value)
    return GradientDescentResult(
        point=x,
        value=values[-1],
        n_iter=len(trace) - 1,
        converged=converged,
        points=np.stack(trace),
        values=np.asarray(values),
    )
