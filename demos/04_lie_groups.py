"""Lie groups: rotations SO(3), rigid motions SE(3), invariant metrics.

The bi-invariant SO(n) metric and the canonical left-invariant SE(n) metric
have closed-form geodesics; other invariant metrics integrate the
Euler-Poincare equation and recover logarithms by shooting."""

import numpy as np

from riemstats.geometry import (
    InvariantMetric,
    SpecialEuclidean,
    SpecialOrthogonal,
    matrix_from_rotation_vector,
    rotation_part,
    rotation_vector_from_matrix,
    tangent_from_parts,
    translation_part,
)

so3 = SpecialOrthogonal(3)
bi = so3.bi_invariant_metric

print("== SO(3): axis-angle round trip ==")
rot_vec = np.array([0.0, 0.0, np.pi / 2])
rot = matrix_from_rotation_vector(rot_vec)
print("Rz(pi/2) =\n", rot)
print("recovered rotation vector:", rotation_vector_from_matrix(rot))
print("dist(I, Rz(pi/2)) =", bi.dist(np.eye(3), rot), "= sqrt(2) pi/2 =", np.sqrt(2) * np.pi / 2)

print("\n== SE(3): canonical left-invariant geodesics ==")
se3 = SpecialEuclidean(3)
canon = se3.canonical_left_metric
velocity = tangent_from_parts(
    matrix_from_rotation_vector(np.zeros(3)) @ np.array(
        [[0.0, -0.8, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, 0.0]]
    ),
    np.array([1.0, 0.0, 0.5]),
)
curve = canon.geodesic(np.eye(4), initial_tangent_vec=velocity)
for t in np.linspace(0.0, 1.0, 4):
    pose = curve(t)
    print(f"  t = {t:.2f}: rotvec = {rotation_vector_from_matrix(rotation_part(pose))},"
          f" translation = {translation_part(pose)}")
print("(the rotation spins at constant rate while the translation is a straight line)")

print("\n== a non-canonical invariant metric needs integration ==")
aniso = se3.invariant_metric("left", np.diag([1.0, 1.0, 1.0, 4.0, 1.0, 1.0]))
print("metric class:", type(aniso).__name__)
base = np.eye(4)
vec = tangent_from_parts(np.zeros((3, 3)), np.array([0.3, 0.4, 0.0]))
end_canon = canon.exp(
    tangent_from_parts(
        np.array([[0.0, -0.9, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([0.3, 0.4, 0.0])
    ),
    base,
)
vec_full = canon.log(end_canon, base)
moved = aniso.exp(vec_full, base)
print("canonical endpoint translation:  ", translation_part(end_canon))
print("anisotropic endpoint translation:", translation_part(moved))
print("(coupling the blocks bends the translation path)")
back = aniso.log(moved, base)
print("shooting log round-trip error:", np.max(np.abs(aniso.exp(back, base) - moved)))

print("\n== Euler-Poincare integration matches the closed form when A = I ==")
integ = InvariantMetric(se3, side="left")
print("max |integrated - closed form| =", np.max(np.abs(integ.exp(vec_full, base) - end_canon)))
