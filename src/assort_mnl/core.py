"""Logit demand with network effects and exact assortment optimization.

A market snapshot couples ``n`` products with ``m`` customer segments.  A
customer in segment ``j`` backs product ``i`` with probability
``sigma(V_ij)``, where the mean utility ``V_ij`` combines the product's
intrinsic appeal, a penalty for its remaining funding gap, and a
network-effect bonus proportional to the total support mass the product
draws from the whole population: ``V_ij = y_ij - beta_ij F_i + alpha_ij
s_i`` with ``s_i = sum_j lam_j q_ij`` in [0, 1], and ``sigma`` is scipy's
``expit``, which saturates at large ``|V|`` instead of overflowing.  That
mass depends on the choice probabilities themselves, so demand is pinned
down by the fixed point ``q = sigma(V(q))``.  Iterating the map from the all-zeros matrix is
componentwise nondecreasing and converges to the smallest fixed point;
from the all-ones matrix it is nonincreasing and converges to the largest.
Every fixed point lies between the two limits.

Expected platform revenue is additive over the offered products, and the
support probabilities do not depend on which products are offered.  The
revenue-maximizing size-k assortment therefore keeps the k products with
the largest revenue contributions, ties going to the lower product index.
The solve, selection and revenue are array code over records stacked on
leading axes, which solves, labels, verifies and evaluates a whole dataset
at once, each record of a solve stopping on its own.
:func:`solve_fixed_point` and :func:`optimize_assortment` run that code on
the one-row stack of a single instance.

Validation sits at the boundaries: :class:`ProblemInstance` checks its
arrays when built, and a solve checks once, before its loop, that the
utilities at the all-ones matrix are finite, which bounds those of every
iterate; the loop itself checks nothing.  From the zero start this is
stricter than checking each pass only when ``V(1)`` overflows, near
1e308.  The loop tests convergence once per block of passes, 4 in the
first block and up to 16 in the others (a float32 BLAS count of the small
steps for records of up to 96 entries, ``all`` for longer ones), and
records that finish ride along in its buffers, masked out, until half of
the stack is done (or they grow large); only then is it compacted.  The
support mass is one ``matmul``, or the iterate itself when every record
has one segment of weight exactly 1.  A record stops on a step of at most
``DEFAULT_TOL`` or after ``DEFAULT_MAX_ITER`` passes, the constants every
dataset's ``q`` was solved at; only :func:`solve_fixed_point` takes a
lower cap, to show the iterates.

Everything here is a pure function of its inputs: no mutation, no global
state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    "solve_fixed_point",
    "optimize_assortment",
]

ZERO_START = "zero"
ONE_START = "one"
SHARED = "shared"
PER_SEGMENT = "per-segment"

# The step tolerance and iteration cap that every dataset's q was solved at.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


def _fields_equal(a, b):
    """Equality of the array-holding value types: every dataclass field equal, arrays by ``np.array_equal``.

    Other fields compare by ``==``.  An array holding NaN is unequal even to
    itself, and ``b`` of another type gives ``NotImplemented``.  A class
    body that sets ``__eq__ = _fields_equal`` makes its class unhashable.
    """
    if b.__class__ is not a.__class__:
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y
               for x, y in pairs)


def _freeze(obj, name: str, array: np.ndarray) -> None:
    """Store ``array``, made read-only, as the field ``name`` of the frozen dataclass ``obj``."""
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


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
        """Expected revenue from one unit of weighted support mass, from the terms as float64 (as files hold them)."""
        a, b, omega, xi = (float(term) for term in (self.a, self.b, self.omega, self.xi))
        return 0.5 * (a + b) * (omega + xi)


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
    and safe to share across threads, and compare equal field by field.
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
        for message, ok in _instance_faults(y[None], alpha[None], beta[None], F[None], lam[None]):
            if not ok.all():
                raise ValueError(message)

        for name, arr in (("y", y), ("alpha", alpha), ("beta", beta), ("F", F), ("lam", lam)):
            _freeze(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    __eq__ = _fields_equal


def _instance_faults(y, alpha, beta, F, lam):
    """The value rules of :class:`ProblemInstance` over records stacked on a leading axis.

    Yields, rule by rule, ``(message, ok)``: ``ok`` flags the entries that keep the rule if those
    before it hold.  The arrays have their stacked shapes; ``beta`` is None for all-ones betas.
    """
    for name, arr in (("y", y), ("alpha", alpha), ("beta", beta), ("F", F), ("lam", lam)):
        if arr is not None:
            yield f"{name} must be finite", np.isfinite(arr)
    yield "alpha must be componentwise nonnegative", alpha >= 0.0
    yield "F must be componentwise nonnegative", F >= 0.0
    yield "lam must be componentwise nonnegative", lam >= 0.0
    yield "lam must sum to 1 within 1e-12", np.abs(lam.sum(axis=1) - 1.0) <= 1e-12


@dataclass(frozen=True, eq=False)
class SupportSolution:
    """Result of a fixed-point solve.

    ``q`` is the final (n, m) iterate; ``residual`` is the sup-norm of
    ``q - sigma(V(q))`` evaluated at that iterate.  Solutions compare equal
    field by field.
    """

    q: np.ndarray
    iterations: int
    residual: float
    converged: bool

    __eq__ = _fields_equal


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


def _mass(q, lam) -> np.ndarray:
    """Support mass ``s = q @ lam`` per record of supports (..., n, m) and weights (..., m)."""
    # matmul rounds a stack of records exactly as it rounds one; einsum
    # does not, and would move the last bit of some supports.
    return np.matmul(q, lam[..., None])[..., 0]


def _fixed_utility(y, beta, F) -> np.ndarray:
    """The part ``y - beta F`` of the mean utilities that support does not move, over stacked records."""
    return y - beta * F[..., None]


def _utility(c, alpha, lam, q) -> np.ndarray:
    """Mean utilities ``c + alpha * s`` over stacked records, with ``c`` from :func:`_fixed_utility`."""
    return c + alpha * _mass(q, lam)[..., None]


def solve_fixed_point(instance: ProblemInstance, start: str = ONE_START, max_iter: int = DEFAULT_MAX_ITER) -> SupportSolution:
    """Solve ``q = sigma(V(q))`` by monotone fixed-point iteration.

    The one-row case of the stacked solve that datasets use, which stops
    once consecutive iterates differ by at most ``DEFAULT_TOL`` in sup-norm.

    Parameters
    ----------
    start : "zero" or "one"
        Starting matrix.  "zero" iterates upward to the smallest fixed
        point, "one" iterates downward to the largest.
    max_iter : int
        Iteration cap.  Exhausting it yields ``converged=False`` with the
        last iterate; it never raises.

    Returns
    -------
    SupportSolution
        The final iterate plus iteration count and the honest fixed-point
        residual ``sup|q - sigma(V(q))|``.

    Raises ``ValueError("mean utilities must be finite")`` when the
    utilities at the all-ones matrix overflow, from either start.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if start not in (ZERO_START, ONE_START):
        raise ValueError(f"start must be {ZERO_START!r} or {ONE_START!r}, got {start!r}")
    # An overflow here leaves an infinite utility, which the solve refuses by name.
    with np.errstate(over="ignore"):
        c = _fixed_utility(instance.y, instance.beta, instance.F)
    c, alpha, lam = (x[None] for x in (c, instance.alpha, instance.lam))
    q, iterations, converged = _solve_stack(c, alpha, lam, start, max_iter)
    residual = np.max(np.abs(expit(_utility(c, alpha, lam, q)) - q))
    return SupportSolution(
        q=q[0],
        iterations=int(iterations[0]),
        residual=float(residual),
        converged=bool(converged[0]),
    )


class _RecordFault(ValueError):
    """A value ``rule`` broken first at the record ``position`` of a stack; the message is ``prefix + rule``."""

    def __init__(self, rule: str, position: int, prefix: str = ""):
        super().__init__(prefix + rule)
        self.rule, self.position = rule, position


# Finished records ride along in a stacked solve until at most half of the
# working set is live or they hold this many entries.  A riding entry costs
# a pass some 30 ns, a compaction some 10 us plus a copy of the live
# records, so at large n * m compacting sooner pays: at (N, n, m) =
# (2000, 100, 4) the half rule alone made the solve 10% slower.
_RIDE_LIMIT = 1 << 14

# A stacked solve tests convergence once per block of up to 16 passes whose
# history holds at most this many entries (256 KiB).  At (N, n, m) = (40,
# 12, 1), on one Xeon core, a pass's arithmetic takes some 4 us, a test
# after every pass some 8 us more and one test over 4 or 16 passes some 10
# or 16 us; larger working sets run one-pass blocks, where the test is a
# small share.
_BLOCK_ENTRIES = 1 << 15
# The solve's first block runs at most this many passes, as a block runs
# every one of its passes and most generated records stop at pass 2-4.
_FIRST_PASSES = 4


# The block test counts a record's small steps with a float32 BLAS product
# (exact in any order, as it sums at most this many zeros and ones) for 2
# to this many entries a record, and runs ``all`` over the entries
# otherwise; over one entry ``all`` wins, as the count makes a copy.  On
# one Xeon core (SkylakeX kernels), the minimum of 5 x 400 calls at the
# block shapes the solve builds, the count took this share of ``all``'s
# time: 0.22-0.61 at 17-48 entries, 0.50-0.87 at 64-96, 0.91-1.20 at 128
# and 1.17-3.34 at 200 and 400.  tests/test_microbench.py times both.
_COUNT_ENTRIES = 96


def _unit_mass(q, lam, out) -> np.ndarray:
    """The support mass of one segment of weight exactly 1: ``q`` itself, as ``q * 1.0`` is ``q``."""
    return q


def _small_records(ok: np.ndarray, ones: np.ndarray | None) -> np.ndarray:
    """Whether each record's flags in ``ok`` (passes, records, entries) all hold: a float32 count against ``ones``, or ``all``."""
    return ok.all(axis=2) if ones is None else ok.view(np.uint8).astype(np.float32) @ ones == len(ones)


def _block_buffers(stores, like: np.ndarray) -> list[np.ndarray]:
    """History ``(K + 1, *like.shape)``, steps ``(K, *like.shape)`` and their test, as views of flat ``stores``."""
    passes = max(1, min(16, _BLOCK_ENTRIES // like.size))
    return [store[: (passes + i) * like.size].reshape((passes + i,) + like.shape) for store, i in zip(stores, (1, 0, 0))]


def _solve_stack(c, alpha, lam, start: str, max_iter: int):
    """Monotone fixed-point iteration of every record of a stack.

    Instances are stacked on a leading record axis: ``c = y - beta F`` and
    ``alpha`` (N, n, m) and ``lam`` (N, m), all C-contiguous.
    Each record iterates until its own step is at most ``DEFAULT_TOL`` or
    ``max_iter`` passes.  Returns the read-only final iterates ``q`` (N, n,
    m) and per-record ``iterations`` and ``converged``.

    Validation happens once, before the loop: the mean utilities at the
    all-ones matrix, ``V(1)``, must be finite, or :class:`_RecordFault`
    names the first record at fault.  This check is exact: iterates lie in
    [0, 1] and alpha and lam are nonnegative, so, rounding being monotone,
    every iterate's utilities lie between ``c`` and ``V(1)``.
    From the one start ``V(1)`` is the first pass's V, so the check costs
    nothing and gives the verdict that checking every pass gives.  From the
    zero start it is stricter only when ``V(1)`` overflows while no
    iterate's utilities do, which takes values near 1e308.

    The loop runs blocks of passes into a history of up to 17 slabs
    (``_BLOCK_ENTRIES``), each block cut short at ``max_iter``: first
    ``_FIRST_PASSES`` passes, from slab 0, then forward on to the last
    slab, and from there backward and forward in turn, so that a block
    starts on the slab the last one ended on and nothing is copied between
    blocks.  One test per block finds each record's first pass with a step
    of at most ``DEFAULT_TOL``: for records of 2 to ``_COUNT_ENTRIES`` = 96
    entries, one float32 BLAS count of the small steps, exact on any kernel
    as it sums zeros and ones, and for others ``all`` over the entries,
    which is faster there.  A record finishing there stores that pass's
    iterate, count and flag, then rides along, masked out, until at most
    half of the working set is live (or the finished records hold
    ``_RIDE_LIMIT`` entries).  Only then are the live records compacted,
    into buffers of stores allocated once.  Every slab, like every operand,
    is C-contiguous, so each record's bits are those of the record solved
    alone.  The mass has two paths: ``matmul``, and, when every record has
    one segment of weight exactly 1, the slab itself, as ``q * 1.0`` is
    ``q``.
    """
    mass = _unit_mass if c.shape[-1] == 1 and (lam == 1.0).all() else np.matmul
    # Flat stores of every working set's buffers: a set of x entries takes
    # K x <= max(x, min(16 x, _BLOCK_ENTRIES)) steps a block, history K x + x.
    n_steps = max(c.size, min(16 * c.size, _BLOCK_ENTRIES))
    stores = np.empty(n_steps + c.size), np.empty(n_steps), np.empty(n_steps, dtype=bool)
    history, steps, small = _block_buffers(stores, c)
    slabs, work, s, lam_a = list(history), steps[0], np.empty(c.shape[:-1] + (1,)), lam[..., None]
    # V(1), computed as a pass computes V and into the buffer the passes use.
    history[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.add(c, np.multiply(alpha, mass(history[0], lam_a, out=s), out=work), out=work)
    if not np.isfinite(V).all():
        raise _RecordFault("mean utilities must be finite", int(np.argmin(np.isfinite(V).all(axis=(1, 2)))))
    history[0] = float(start == ONE_START)
    entries = c[0].size
    ones = np.ones(entries, np.float32) if 1 < entries <= _COUNT_ENTRIES else None
    q, iterations, converged = np.empty(c.shape), np.full(len(c), max_iter), np.zeros(len(c), dtype=bool)
    active, live, live_count = np.arange(len(q)), np.ones(len(q), dtype=bool), len(q)
    c_a, alpha_a, at, it = c, alpha, 0, 0
    while it < max_iter:
        # Passes it + 1 .. it + size, from slab `at` to slab `end`: the solve's first block ends
        # at slab _FIRST_PASSES, a block from the last slab runs back to slab 0 and any other
        # forward to the last slab.  V(1) is the first pass's V from the one start; V sits in
        # the first step slab until the block's steps fill it.
        way = -1 if at == len(steps) else 1
        stop = 0 if way < 0 else len(steps) if it else min(_FIRST_PASSES, len(steps))
        size = min(way * (stop - at), max_iter - it)
        end = at + way * size
        for slab in range(at, end, way):
            if it or start != ONE_START:
                V = np.add(c_a, np.multiply(alpha_a, mass(slabs[slab], lam_a, out=s), out=work), out=work)
            expit(V, out=slabs[slab + way])
            it += 1
        lo, at, block = min(at, end), end, steps[:size]
        np.abs(np.subtract(history[lo + 1 : lo + size + 1], history[lo : lo + size], out=block), out=block)
        # done[j] flags the records whose step on the block's pass j + 1 is at most DEFAULT_TOL.
        ok = np.less_equal(block, DEFAULT_TOL, out=small[:size]).reshape(size, len(live), entries)
        done = _small_records(ok, ones)
        if way < 0:
            done = done[::-1]
        newly = np.flatnonzero(done.any(axis=0) & live)
        if not len(newly):
            continue
        # Pass j + 1 of the block wrote slab lo + 1 + j going forward, lo + size - 1 - j going backward.
        first, rows = done[:, newly].argmax(axis=0), active[newly]
        q[rows] = history[first + (lo + 1) if way > 0 else (lo + size - 1) - first, newly]
        iterations[rows], converged[rows] = first + (it - size + 1), True
        live[newly] = False
        live_count -= len(newly)
        if not live_count:
            break
        if 2 * live_count <= len(live) or (len(live) - live_count) * entries >= _RIDE_LIMIT:
            active, c_a, alpha_a, lam_a = (x[live] for x in (active, c_a, alpha_a, lam_a))
            current, (history, steps, small) = history[at], _block_buffers(stores, c_a)
            history[0] = current[live]
            slabs, work, s, at = list(history), steps[0], s[:live_count], 0
            live = np.ones(live_count, dtype=bool)
    q[active[live]] = history[at][live]
    q.setflags(write=False)
    return q, iterations, converged


def _block_revenue(q, lam, per_support, blocks) -> np.ndarray:
    """Revenue of offering ``blocks`` (..., m, k) at supports ``q`` (..., n, m)."""
    # Blocks sum over a contiguous axis and segments add in order, as for
    # one record, so stacking records changes no bit of any revenue.
    picked = np.take_along_axis(np.swapaxes(q, -1, -2), blocks, axis=-1).sum(axis=-1)
    total = np.zeros(picked.shape[:-1])
    for j in range(picked.shape[-1]):
        total = total + lam[..., j] * picked[..., j]
    return per_support * total


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending; ties go to the lower index."""
    # Stable sort on the negated values puts ties in ascending index order.
    return np.sort(np.argsort(-values, axis=-1, kind="stable")[..., :k], axis=-1)


def _best_blocks(q, lam, k: int, mode: str) -> np.ndarray:
    """Optimal blocks (..., m, k) at supports ``q`` (..., n, m) and weights ``lam`` (..., m)."""
    if mode == SHARED:
        block = _top_k(_mass(q, lam), k)
        return np.repeat(block[..., None, :], q.shape[-1], axis=-2)
    # Rank q itself rather than lam_j * q: a positive weight keeps the order,
    # but rounding the products could merge two distinct values into a tie.
    return np.where(lam[..., None] > 0.0, _top_k(np.swapaxes(q, -1, -2), k), np.arange(k))


def optimize_assortment(instance: ProblemInstance, k: int, mode: str = SHARED) -> tuple[Assortment, float, SupportSolution]:
    """Exact revenue-maximizing size-k assortment.

    Support probabilities are solved once from the all-ones start (the
    largest fixed point), at the tolerance and cap datasets are labeled
    at; they do not depend on the assortment offered.
    Revenue is additive over offered products, so the optimum keeps the k
    largest contributions: ``sum_j lam_j q_ij`` per product in "shared"
    mode, ``q_ij`` within each segment in "per-segment" mode, where a
    zero-weight segment gets products ``0..k-1``.  Ties go to the lower
    index: the result is the lexicographically smallest optimal set.  The
    selection and revenue are those that label a dataset, run on this one
    instance.

    Returns ``(assortment, revenue, solution)``; raises
    :class:`NonConvergenceError` if the fixed point did not converge.
    """
    if not 1 <= k <= instance.n:
        raise ValueError(f"k must lie in [1, {instance.n}], got {k}")
    if mode not in (SHARED, PER_SEGMENT):
        raise ValueError(f"mode must be {SHARED!r} or {PER_SEGMENT!r}, got {mode!r}")
    solution = solve_fixed_point(instance, ONE_START)
    if not solution.converged:
        raise NonConvergenceError(solution)
    q, lam = solution.q[None], instance.lam[None]
    blocks = _best_blocks(q, lam, k, mode)
    revenue = _block_revenue(q, lam, instance.revenue.per_support, blocks)
    return Assortment(per_segment=blocks[0].tolist(), k=k), float(revenue[0]), solution
