"""The invariant metric family and the Kaehler two-forms.

Assembles the 4-parameter group metric from the squared one-forms,
shows its parameter specializations and the coordinate metrics on the
Siegel-Jacobi space and its extension, drives the Cayley / ball-model
machinery, and finishes with the seeded invariance verification runs,
including the deliberately broken negative control.
"""

import numpy as np

from jacobigeom import (
    KahlerParams,
    MetricParams,
    cayley,
    cayley_inverse,
    fc_inverse,
    fc_transform,
    invariance_report,
    kahler_ball,
    kahler_xjn,
    metric_extended,
    metric_group,
    metric_xjn,
    sn_chart_identity,
)
from jacobigeom.sampling import rand_ball_tangent, rand_pq_point, rand_pq_tangent, rand_vu_point

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(5)

print("group metric Gram matrix at the identity chart, degree 1,")
print("coordinate order (x, y, theta, p, q, kappa), all weights 1:")
chart = sn_chart_identity(1)
z = np.zeros((1, 1)); zr = np.zeros(1); one = np.ones((1, 1)); e = np.array([1.0])
basis = [
    (one, z, z, z, zr, zr, 0.0), (z, one, z, z, zr, zr, 0.0),
    (z, z, z, one, zr, zr, 0.0), (z, z, z, z, e, zr, 0.0),
    (z, z, z, z, zr, e, 0.0), (z, z, z, z, zr, zr, 1.0),
]
params = MetricParams(1.0, 1.0, 1.0, 1.0)
gram = np.array([[metric_group(params, chart, a, b) for b in basis] for a in basis])
print(gram)
print("positive definite:", np.linalg.eigvalsh(gram).min() > 0)
print("setting beta = gamma = delta = 0 keeps only the symplectic sector;")
print("the center direction carries weight delta alone:",
      metric_group(MetricParams(1, 0, 0, 2.5), chart, basis[-1], basis[-1]))
print()

n = 2
pt = rand_pq_point(rng, n)
t1, t2 = rand_pq_tangent(rng, n), rand_pq_tangent(rng, n)
print("two-parameter metric on the Siegel-Jacobi space (pq chart):",
      metric_xjn(1.0, 1.0, "pq", pt, t1, t2))
ept = pt + (0.1,)
et1 = t1 + (0.4,); et2 = t2 + (-0.2,)
print("three-parameter extension adds the center one-form square:",
      metric_extended(1.0, 1.0, 1.0, ept, et1, et2))
print()

v, u = rand_vu_point(rng, n)
w, zz = cayley(v, u)
print("partial Cayley transform from the upper half space to the ball:")
print("   ||W||_2 =", np.linalg.norm(w, 2), "< 1, round trip error:",
      max(np.max(np.abs(a - b)) for a, b in zip(cayley_inverse(w, zz), (v, u))))
eta = fc_transform(w, zz)
print("   normalized coordinate round trip:", np.max(np.abs(fc_inverse(w, eta) - zz)))
kp = KahlerParams(2.0, 1.0)
tb1, tb2 = rand_ball_tangent(rng, n), rand_ball_tangent(rng, n)
print("   ball two-form value:", kahler_ball(kp, w, zz, tb1, tb2))
dv = 0.2 * np.eye(n) + 0.1j * np.eye(n)
du = np.ones(n) * (0.3 - 0.4j)
print("   half-space two-form on a sample tangent pair:",
      kahler_xjn(kp, v, u, (dv, du), (1j * dv, 1j * du)))
print()

print("seeded invariance verification with exact pushforwards, default gate 1e-12")
print("(deterministic given the seed):")
for obj in ("metric_xjn_pq", "metric_xjn_xirho", "metric_extended",
            "kahler_ball", "kahler_xjn", "lambda_R", "metric_xjn_broken"):
    rep = invariance_report(obj, n=1, samples=300, seed=42)
    flag = "PASS" if rep.passed else "FAIL"
    note = " (the broken metric must fail)" if obj == "metric_xjn_broken" else ""
    print(f"   {obj:20s} max_rel={rep.max_rel:.2e}  {flag}{note}")
