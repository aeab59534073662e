"""Exact assortment optimization as a revenue-ordered top-k.

Expected revenue is additive over the offered products, so the best size-k
assortment keeps the k products with the largest individual contributions.
The script checks that top-k against a search over all C(n, k) subsets,
then shows revenue growing with k and per-segment assortments beating a
shared one when segments disagree.
"""

from itertools import combinations

import numpy as np

from assort_mnl import GenSpec, ProblemInstance, generate_instance, optimize_assortment

rng_seed = 20_240_601
inst = generate_instance(GenSpec(n=5, m=1, M=50.0), seed=rng_seed)

print("Per-product revenue contributions at the largest fixed point:")
best, w, sol = optimize_assortment(inst, k=2)
contrib = sol.q @ inst.lam
for i, c in enumerate(contrib):
    print(f"  product {i + 1}: 0.44 * {c:.4f} = {0.44 * c:.4f}")

# With one segment of weight 1 a subset earns 0.44 times its summed contributions.
subsets = list(combinations(range(inst.n), 2))
searched = max(subsets, key=lambda c: contrib[list(c)].sum())
print(f"\n{'revenue-ordered top-2:':<24}{[i + 1 for i in best.per_segment[0]]}, W* = {w:.4f}")
print(f"{f'best of {len(subsets)} subsets:':<24}{[i + 1 for i in searched]}, "
      f"W = {inst.revenue.per_support * contrib[list(searched)].sum():.4f}")

print("\nRevenue is nondecreasing in assortment size (ceiling 0.44 per slot):")
for k in range(1, 6):
    _, w_k, _ = optimize_assortment(inst, k)
    print(f"  k={k}: W* = {w_k:.4f}  (bound {0.44 * k:.2f})")

# Two segments with opposite tastes: a shared page must compromise, while
# per-segment pages serve each side its favorite.
y = np.array([[4.0, -4.0], [-4.0, 4.0]])
split = ProblemInstance(y=y, alpha=np.zeros((2, 2)), F=[0.0, 0.0], lam=[0.5, 0.5])
shared_best, shared_w, _ = optimize_assortment(split, k=1, mode="shared")
per_best, per_w, _ = optimize_assortment(split, k=1, mode="per-segment")
print("\nOpposite-taste segments, one slot to fill:")
print(f"  shared page:      {shared_best.per_segment}  W = {shared_w:.4f}")
print(f"  per-segment page: {per_best.per_segment}  W = {per_w:.4f}")
