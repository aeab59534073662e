"""Demand as a fixed point: support mass feeds back into utility.

A product's appeal grows with the number of people already backing it, so
choice probabilities and support mass must be solved jointly.  This script
walks the monotone iteration from both ends and shows an instance with
three fixed points, where the two iteration starts bracket the answer.
"""

import numpy as np
from scipy.special import expit

from assort_mnl import ProblemInstance, solve_fixed_point

# A single product, one segment.  Intrinsic appeal is zero, the remaining
# funding gap is 5, and the network-effect sensitivity is 10: support is
# attractive only if enough support is already there.
inst = ProblemInstance(y=[[0.0]], alpha=[[10.0]], F=[5.0], lam=[1.0])

print("Iterating q -> sigma(y - F + alpha * q) from both endpoints:")
for start in ("zero", "one"):
    # A solve capped at t passes ends at the t-th iterate.
    trail = [float(start == "one")] + [solve_fixed_point(inst, start, max_iter=t).q[0, 0] for t in range(1, 7)]
    print(f"  {start:>4}-start trail: " + " -> ".join(f"{v:.5f}" for v in trail))

lo = solve_fixed_point(inst, "zero")
hi = solve_fixed_point(inst, "one")
print(f"\nsmallest fixed point: {lo.q[0, 0]:.6f}  ({lo.iterations} iterations)")
print(f"largest  fixed point: {hi.q[0, 0]:.6f}  ({hi.iterations} iterations)")
print(f"residuals: {lo.residual:.2e}, {hi.residual:.2e}")

# q = 0.5 also solves the equation (sigma(10 * 0.5 - 5) = sigma(0) = 0.5),
# but it is unstable: the iteration walks away from it in either direction.
def step(q):
    """One pass of the iteration: sigma(V(q)) = sigma(y - F + alpha * q) with one segment."""
    return expit(inst.y - inst.F[:, None] + inst.alpha * q)[0, 0]


mid = step(0.5)
print(f"\nmiddle fixed point check: sigma(V(0.5)) = {mid}")

nudge = step(0.51)
print(f"one step from 0.51 lands at {nudge:.5f} (moving toward the largest point)")

# With no network effects the loop disappears and the solution is closed
# form: sigma(y - F).
flat = ProblemInstance(y=[[2.0], [-1.0]], alpha=[[0.0], [0.0]], F=[1.0, 1.0], lam=[1.0])
sol = solve_fixed_point(flat)
print("\nalpha = 0 collapses to sigma(y - F):")
print("  solver:", np.round(sol.q.ravel(), 6))
print("  direct:", np.round(1 / (1 + np.exp(-(flat.y - flat.F[:, None]))).ravel(), 6))
