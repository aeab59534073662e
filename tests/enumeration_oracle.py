"""Exhaustive reference for the revenue-maximizing assortment.

Enumerates every size-k subset and compares revenue sums exactly, so it
shares no code or reasoning with the top-k rule that labels datasets and
that it checks (``assort_mnl.core._best_blocks``, through
``optimize_assortment`` too).  Exponential in ``n``: a
test oracle only.
"""

from fractions import Fraction
from itertools import combinations

from assort_mnl import Assortment
from assort_mnl.core import SHARED


def enumerate_optimum(instance, k, q, mode=SHARED):
    """Best size-k assortment at support ``q`` by exhaustive enumeration.

    In "shared" mode all C(n, k) subsets are enumerated and every segment
    sees the winning set; in "per-segment" mode the best size-k set is
    chosen independently for each segment.  Revenue ties go to the
    lexicographically smallest index set.
    """
    if mode == SHARED:
        # Subset sums are compared exactly (floats as rationals): plain
        # float sums can round two distinct sums to the same value when
        # probabilities saturate near 1, and the phantom tie would then be
        # broken differently than by contribution ranking.
        contribution = [Fraction(c) for c in (q @ instance.lam).tolist()]
        best_combo = None
        best_sum = None
        # combinations() yields index sets in lexicographic order, so strict
        # improvement keeps the lexicographically smallest argmax.
        for combo in combinations(range(instance.n), k):
            s = sum(contribution[i] for i in combo)
            if best_sum is None or s > best_sum:
                best_combo, best_sum = combo, s
        return Assortment(per_segment=(best_combo,) * instance.m, k=k)

    blocks = []
    for j in range(instance.m):
        weight = Fraction(float(instance.lam[j]))
        column = [Fraction(v) for v in q[:, j].tolist()]
        best_block = None
        best_sum = None
        for combo in combinations(range(instance.n), k):
            s = weight * sum(column[i] for i in combo)
            if best_sum is None or s > best_sum:
                best_block, best_sum = combo, s
        blocks.append(best_block)
    return Assortment(per_segment=tuple(blocks), k=k)
