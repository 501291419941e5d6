"""Hyperbolic space H^2: the hyperboloid model and the Poincare ball.

Each model computes in its own coordinates (the ball by Mobius addition);
the coordinate maps carry points between them, and the two agree to round-off."""

import numpy as np

from riemstats.geometry import (
    Hyperboloid,
    PoincareBall,
    ball_to_hyperboloid,
    hyperboloid_to_ball,
)

hyperboloid = Hyperboloid(2)
ball = PoincareBall(2)

print("== representations ==")
y = np.array([0.5, 0.0])
x = ball_to_hyperboloid(y)
print("ball point", y, "-> hyperboloid", x)
print("round trip:", hyperboloid_to_ball(x))

print("\n== distances agree across representations ==")
print("ball dist(0, (0.5, 0))       =", ball.metric.dist(np.zeros(2), y))
print("ln 3                          =", np.log(3.0))
origin = hyperboloid.origin()
print("hyperboloid dist(origin, x)   =", hyperboloid.metric.dist(origin, x))

print("\n== geodesics bend toward the disk boundary ==")
a = np.array([-0.6, -0.3])
b = np.array([0.6, -0.3])
curve = ball.metric.geodesic(a, end_point=b)
for t in np.linspace(0.0, 1.0, 5):
    print(f"  gamma({t:.2f}) = {curve(t)}")

print("\n== exponential growth of circumference ==")
# Points at hyperbolic distance r from the origin sit at ball radius tanh(r/2).
for r in (0.5, 1.0, 2.0, 4.0):
    direction = np.array([0.0, 1.0, 0.0])
    reached = hyperboloid.metric.exp(r * direction, origin)
    print(f"  r = {r:3.1f}: ball radius = {np.linalg.norm(hyperboloid_to_ball(reached)):.6f}",
          f"(tanh(r/2) = {np.tanh(r / 2):.6f})")
