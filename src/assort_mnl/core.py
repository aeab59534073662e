"""Logit demand with network effects and exact assortment optimization.

A market snapshot couples ``n`` products with ``m`` customer segments.  A
customer in segment ``j`` backs product ``i`` with probability
``sigma(V_ij)``, where the mean utility ``V_ij`` combines the product's
intrinsic appeal, a penalty for its remaining funding gap, and a
network-effect bonus proportional to the total support mass the product
draws from the whole population.  That mass depends on the choice
probabilities themselves, so demand is pinned down by the fixed point
``q = sigma(V(q))``.  Iterating the map from the all-zeros matrix is
componentwise nondecreasing and converges to the smallest fixed point;
from the all-ones matrix it is nonincreasing and converges to the largest.
Every fixed point lies between the two limits.

Expected platform revenue is additive over the offered products, and the
support probabilities do not depend on which products are offered.  The
revenue-maximizing size-k assortment therefore keeps the k products with
the largest revenue contributions, ties going to the lower product index;
``best_assortment`` implements that rule and ``optimize_assortment`` pairs
it with the fixed-point solve.  The solve, selection and revenue are array
code over records stacked on leading axes, which solves, labels, verifies
and evaluates a whole dataset at once, each record of a solve stopping on
its own; the per-instance functions, ``solve_fixed_point`` among them, are
its one-row case.

Everything here is a pure function of its inputs: no mutation, no global
state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "ZERO_START",
    "ONE_START",
    "SHARED",
    "PER_SEGMENT",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "NonConvergenceError",
    "RevenueTerms",
    "ProblemInstance",
    "SupportSolution",
    "Assortment",
    "total_support_mass",
    "mean_utility",
    "choice_probability",
    "support_map",
    "solve_fixed_point",
    "expected_revenue",
    "best_assortment",
    "optimize_assortment",
]

ZERO_START = "zero"
ONE_START = "one"
SHARED = "shared"
PER_SEGMENT = "per-segment"

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class NonConvergenceError(RuntimeError):
    """Raised when a fixed-point solve is required but did not converge.

    Carries the partial result in ``solution``.
    """

    def __init__(self, solution: "SupportSolution"):
        super().__init__(
            "fixed-point iteration did not converge after "
            f"{solution.iterations} iterations (residual {solution.residual:.3e})"
        )
        self.solution = solution


@dataclass(frozen=True)
class RevenueTerms:
    """Platform revenue parameters.

    Contribution sizes are uniform on ``[a, b]``; only the mean
    ``(a + b) / 2`` enters expected revenue.  The platform keeps an
    ``omega`` share of each contribution plus a ``xi`` share of all raised
    funds.  The defaults (contributions of $1 to $10, a 5% revenue share
    and a 3% processing share) give 0.44 expected revenue per fully
    supported product.
    """

    a: float = 1.0
    b: float = 10.0
    omega: float = 0.05
    xi: float = 0.03

    def __post_init__(self):
        if not 0.0 <= self.a <= self.b:
            raise ValueError(f"need 0 <= a <= b, got a={self.a}, b={self.b}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi}")
        if not np.isfinite(self.per_support):
            raise ValueError(f"revenue per unit of support must be finite, got a={self.a}, b={self.b}")

    @property
    def per_support(self) -> float:
        """Expected revenue from one unit of weighted support mass."""
        return 0.5 * (self.a + self.b) * (self.omega + self.xi)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One market snapshot: n products, m customer segments.

    Attributes
    ----------
    y : (n, m) array
        Intrinsic utility of product i for a segment-j customer.
    alpha : (n, m) array, >= 0
        Network-effect sensitivity: utility gained per unit of total
        support mass behind the product.
    beta : (n, m) array
        Sensitivity to the remaining funding gap.  ``None`` defaults to
        all ones.
    F : (n,) array, >= 0
        Remaining funding gap of each product.
    lam : (m,) array
        Segment weights; nonnegative, summing to 1 (within 1e-12).
    revenue : RevenueTerms
        Platform revenue parameters.

    Arrays are copied and frozen at construction; instances are immutable
    and safe to share across threads.
    """

    y: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray | None = None
    F: np.ndarray = None
    lam: np.ndarray = None
    revenue: RevenueTerms = RevenueTerms()

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError(f"y must be a nonempty 2-d matrix, got shape {np.shape(self.y)}")
        n, m = y.shape
        alpha = np.array(self.alpha, dtype=float)
        beta = np.ones((n, m)) if self.beta is None else np.array(self.beta, dtype=float)
        if self.F is None or self.lam is None:
            raise ValueError("F and lam are required")
        F = np.array(self.F, dtype=float).reshape(-1)
        lam = np.array(self.lam, dtype=float).reshape(-1)

        if alpha.shape != (n, m):
            raise ValueError(f"alpha must have shape {(n, m)}, got {alpha.shape}")
        if beta.shape != (n, m):
            raise ValueError(f"beta must have shape {(n, m)}, got {beta.shape}")
        if F.shape != (n,):
            raise ValueError(f"F must have length {n}, got {F.shape}")
        if lam.shape != (m,):
            raise ValueError(f"lam must have length {m}, got {lam.shape}")
        for name, arr in (("y", y), ("alpha", alpha), ("beta", beta), ("F", F), ("lam", lam)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(alpha < 0.0):
            raise ValueError("alpha must be componentwise nonnegative")
        if np.any(F < 0.0):
            raise ValueError("F must be componentwise nonnegative")
        if np.any(lam < 0.0):
            raise ValueError("lam must be componentwise nonnegative")
        if abs(lam.sum() - 1.0) > 1e-12:
            raise ValueError(f"lam must sum to 1 within 1e-12, got sum {lam.sum()!r}")

        for name, arr in (("y", y), ("alpha", alpha), ("beta", beta), ("F", F), ("lam", lam)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
            and np.array_equal(self.F, other.F)
            and np.array_equal(self.lam, other.lam)
            and self.revenue == other.revenue
        )


@dataclass(frozen=True)
class SupportSolution:
    """Result of a fixed-point solve.

    ``q`` is the final (n, m) iterate; ``residual`` is the sup-norm of
    ``q - sigma(V(q))`` evaluated at that iterate.
    """

    q: np.ndarray
    start: str
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class Assortment:
    """Per-segment product sets of a fixed cardinality k.

    Product indices are 0-based here; file formats use 1-based indices.
    Blocks are normalized to sorted tuples, so equality is set equality.
    """

    per_segment: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        blocks = []
        for block in self.per_segment:
            ids = sorted(int(i) for i in block)
            if len(set(ids)) != len(ids):
                raise ValueError(f"assortment block {block} has repeated products")
            if len(ids) != self.k:
                raise ValueError(f"assortment block {block} must have exactly k={self.k} products")
            if ids and ids[0] < 0:
                raise ValueError(f"product indices must be nonnegative, got {block}")
            blocks.append(tuple(ids))
        if not blocks:
            raise ValueError("assortment needs at least one segment block")
        object.__setattr__(self, "per_segment", tuple(blocks))

    @classmethod
    def shared(cls, products, m: int, k: int | None = None) -> "Assortment":
        """Offer the same product set to all m segments."""
        block = tuple(sorted(int(i) for i in products))
        return cls(per_segment=(block,) * m, k=len(block) if k is None else k)


def _check_support(instance: ProblemInstance, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (instance.n, instance.m):
        raise ValueError(
            f"support matrix must have shape {(instance.n, instance.m)}, got {q.shape}"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("support probabilities must be finite")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("support probabilities must lie in [0, 1]")
    return q


def _check_blocks(assortment: Assortment, n: int, m: int) -> np.ndarray:
    if len(assortment.per_segment) != m:
        raise ValueError(f"assortment has {len(assortment.per_segment)} segment blocks, expected {m}")
    blocks = np.array(assortment.per_segment)
    if blocks.max() >= n:
        raise ValueError(f"product index {blocks.max()} out of range for n={n}")
    return blocks


def total_support_mass(instance: ProblemInstance, q) -> np.ndarray:
    """Population support mass per product: ``s_i = sum_j lam_j q_ij``.

    Each ``s_i`` lies in [0, 1] because the weights sum to one.
    """
    q = _check_support(instance, q)
    return q @ instance.lam


def mean_utility(instance: ProblemInstance, q) -> np.ndarray:
    """Mean utilities ``V_ij = y_ij - beta_ij F_i + alpha_ij s_i``.

    ``s`` is the population support mass from :func:`total_support_mass`;
    the network bonus for a product is driven by backers of that product
    across all segments.
    """
    s = total_support_mass(instance, q)
    return instance.y - instance.beta * instance.F[:, None] + instance.alpha * s[:, None]


def choice_probability(V) -> np.ndarray:
    """Per-product logit choice probabilities ``sigma(V_ij)``.

    Evaluated in the overflow-safe form that branches on the sign of V
    (scipy's expit), so large |V| saturates cleanly instead of producing
    NaN.
    """
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise ValueError("mean utilities must be finite")
    return expit(V)


def support_map(instance: ProblemInstance, q) -> np.ndarray:
    """One application of the demand map ``q -> sigma(V(q))``."""
    return choice_probability(mean_utility(instance, q))


def solve_fixed_point(
    instance: ProblemInstance,
    start: str = ONE_START,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SupportSolution:
    """Solve ``q = sigma(V(q))`` by monotone fixed-point iteration.

    The one-row case of the stacked solve that datasets use.

    Parameters
    ----------
    start : "zero" or "one"
        Starting matrix.  "zero" iterates upward to the smallest fixed
        point, "one" iterates downward to the largest.
    tol : float
        Stop once consecutive iterates differ by at most ``tol`` in
        sup-norm.
    max_iter : int
        Iteration cap.  Exhausting it yields ``converged=False`` with the
        last iterate; it never raises.

    Returns
    -------
    SupportSolution
        The final iterate plus iteration count and the honest fixed-point
        residual ``sup|q - sigma(V(q))|``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if start not in (ZERO_START, ONE_START):
        raise ValueError(f"start must be {ZERO_START!r} or {ONE_START!r}, got {start!r}")
    stacked = (x[None] for x in (instance.y, instance.alpha, instance.beta, instance.F, instance.lam))
    q, iterations, residual, converged = _solve_stack(*stacked, start, tol, max_iter)
    return SupportSolution(
        q=q[0],
        start=start,
        iterations=int(iterations[0]),
        residual=float(residual[0]),
        converged=bool(converged[0]),
    )


def _solve_stack(y, alpha, beta, F, lam, start: str, tol: float, max_iter: int):
    """Monotone fixed-point iteration of every record of a stack.

    Instances are stacked on a leading record axis: ``y``, ``alpha`` and
    ``beta`` (N, n, m), ``F`` (N, n) and ``lam`` (N, m).  Each record
    iterates until its own step is at most ``tol`` or ``max_iter`` passes;
    a pass maps only the records still active.  Returns the read-only
    final iterates ``q`` (N, n, m) and per-record ``iterations``,
    ``residual`` (``sup|q - sigma(V(q))|``) and ``converged``.
    """
    # Computed once per record: the same bits as the leading terms of
    # mean_utility, which evaluates V left to right.
    c = y - beta * F[..., None]
    q = np.full(y.shape, 1.0 if start == ONE_START else 0.0)
    iterations = np.full(len(q), max_iter)
    converged = np.zeros(len(q), dtype=bool)
    active = np.arange(len(q))
    c_a, alpha_a, lam_a, q_a = c, alpha, lam, q
    for it in range(1, max_iter + 1):
        q_next = _demand(c_a, alpha_a, lam_a, q_a)
        done = np.max(np.abs(q_next - q_a), axis=(-2, -1)) <= tol
        q_a = q_next
        if done.any():
            finished = active[done]
            q[finished], iterations[finished], converged[finished] = q_a[done], it, True
            keep = ~done
            active, c_a, alpha_a, lam_a, q_a = active[keep], c_a[keep], alpha_a[keep], lam_a[keep], q_a[keep]
            if not active.size:
                break
    q[active] = q_a
    residual = np.max(np.abs(_demand(c, alpha, lam, q) - q), axis=(-2, -1))
    q.setflags(write=False)
    return q, iterations, residual, converged


def _demand(c, alpha, lam, q) -> np.ndarray:
    """The map ``q -> sigma(c + alpha * s)`` over stacked records, ``s = q @ lam`` per record."""
    # matmul rounds a stack of records exactly as it rounds one; einsum
    # does not, and would move the last bit of some supports.
    s = np.matmul(q, lam[..., None])[..., 0]
    return choice_probability(c + alpha * s[..., None])


def expected_revenue(instance: ProblemInstance, assortment: Assortment, q) -> float:
    """Expected per-customer revenue of offering ``assortment`` at support ``q``.

    ``W = (a+b)/2 * (omega+xi) * sum_j lam_j * sum_{i in G_j} q_ij``.
    """
    q = _check_support(instance, q)
    blocks = _check_blocks(assortment, instance.n, instance.m)
    return float(_block_revenue(q, instance.lam, instance.revenue.per_support, blocks))


def _block_revenue(q, lam, per_support, blocks) -> np.ndarray:
    """Revenue of offering ``blocks`` (..., m, k) at supports ``q`` (..., n, m)."""
    # Blocks sum over a contiguous axis and segments add in order, as for
    # one record, so stacking records changes no bit of any revenue.
    picked = np.take_along_axis(np.swapaxes(q, -1, -2), blocks, axis=-1).sum(axis=-1)
    total = np.zeros(picked.shape[:-1])
    for j in range(picked.shape[-1]):
        total = total + lam[..., j] * picked[..., j]
    return per_support * total


def _check_selection(n: int, k: int, mode: str) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if mode not in (SHARED, PER_SEGMENT):
        raise ValueError(f"mode must be {SHARED!r} or {PER_SEGMENT!r}, got {mode!r}")


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending; ties go to the lower index."""
    # Stable sort on the negated values puts ties in ascending index order.
    return np.sort(np.argsort(-values, axis=-1, kind="stable")[..., :k], axis=-1)


def _best_blocks(q, lam, k: int, mode: str) -> np.ndarray:
    """Optimal blocks (..., m, k) at supports ``q`` (..., n, m) and weights ``lam`` (..., m)."""
    if mode == SHARED:
        # matmul rounds a stack of records exactly as it rounds one.
        block = _top_k(np.matmul(q, lam[..., None])[..., 0], k)
        return np.repeat(block[..., None, :], q.shape[-1], axis=-2)
    # Rank q itself rather than lam_j * q: a positive weight keeps the order,
    # but rounding the products could merge two distinct values into a tie.
    return np.where(lam[..., None] > 0.0, _top_k(np.swapaxes(q, -1, -2), k), np.arange(k))


def best_assortment(instance: ProblemInstance, k: int, q, mode: str = SHARED) -> Assortment:
    """Revenue-maximizing size-k assortment at the support matrix ``q``.

    Revenue is additive over offered products, so the optimum keeps the k
    largest contributions: ``sum_j lam_j q_ij`` per product in "shared"
    mode, ``q_ij`` within each segment in "per-segment" mode, where a
    zero-weight segment gets products ``0..k-1``.  Ties go to the lower
    index: the result is the lexicographically smallest optimal set.
    """
    _check_selection(instance.n, k, mode)
    q = _check_support(instance, q)
    return Assortment(per_segment=_best_blocks(q, instance.lam, k, mode).tolist(), k=k)


def optimize_assortment(
    instance: ProblemInstance,
    k: int,
    mode: str = SHARED,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[Assortment, float, SupportSolution]:
    """Exact revenue-maximizing size-k assortment.

    Support probabilities are solved once from the all-ones start (the
    largest fixed point); they do not depend on the assortment offered.
    :func:`best_assortment` then picks the set from them.

    Returns ``(assortment, revenue, solution)``; raises
    :class:`NonConvergenceError` if the fixed point did not converge.
    """
    _check_selection(instance.n, k, mode)
    solution = solve_fixed_point(instance, ONE_START, tol=tol, max_iter=max_iter)
    if not solution.converged:
        raise NonConvergenceError(solution)
    assortment = best_assortment(instance, k, solution.q, mode)
    return assortment, expected_revenue(instance, assortment, solution.q), solution
