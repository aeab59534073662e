"""Seeded synthesis of market instances and labeled assortment datasets.

Generation is deterministic: an instance is a pure function of
``(spec, seed)`` and a dataset record's seed is a pure function of
``(master_seed, record index)``, so datasets regenerate byte-identically
and records could be produced in any order or in parallel without
changing the result.

A :class:`LabeledDataset` holds its records as columns: arrays with a
leading record axis, which generation draws straight into and which
labeling, verification, splitting, training and evaluation read and slice
directly.  :attr:`LabeledDataset.records` presents them as
:class:`DatasetRecord` objects for inspection.  Every
:class:`LabeledDataset` passes a file's rules (``_dataset_faults``) at
construction, so :func:`write_dataset` writes what :func:`read_dataset` reads.

Datasets persist as JSON Lines.  Line 1 is a header object::

    {"format_version": 1, "spec": {...}, "master_seed": ..., "count": ...,
     "seed_mix": "splitmix64", "excluded": [...]}

and each following line is one record::

    {"idx": ..., "seed": ..., "y": [[...]], "alpha": [[...]],
     "beta": [[1.0, ...]], "F": [...], "lambda": [...],
     "revenue": {"a": ..., "b": ..., "omega": ..., "xi": ...},
     "q": [[...]], "label": {"per_segment": [[...]], "k": ...}, "r_a": ...}

Product indices are 1-based inside files and 0-based in memory.  Floats
are serialized with ``repr`` precision, so a read after a write
reproduces every number exactly.  The header fixes what does not vary
between records: each record's ``seed`` is
``record_seed(master_seed, idx)``, the SplitMix64 mix the header's
``seed_mix`` names, its ``beta`` is all 1.0 and its ``revenue`` is the
spec's terms as floats.  Each line carries them so that it stands alone;
a :class:`LabeledDataset` keeps only the header's.  The records of a file
carry the idx ``range(count)`` without the ``excluded`` ones, in order,
and their values fit the spec: ``y`` and ``alpha`` in [0, M], ``alpha``
zero without network effects, and ``F`` in [0, M] ("unit" f_mode) or an
integer in 1..10000 ("dollar"); ``q`` lies in [0, 1], each label block
holds k distinct products in 1..n and ``r_a`` is finite (JSON has no NaN
or infinity).  :func:`read_dataset` rejects a file that breaks any of
these rules, naming the line.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import gc
import hashlib
import json
import math
import operator
import os
import re
import secrets
import sys
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, islice, pairwise, zip_longest
from pathlib import Path

import numpy as np

from ._numtext import FLOAT_CELL, INT_CELL, PAD, LineLayout, cells, mul_hi, parse_lines
from .core import (
    DEFAULT_MAX_ITER,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    Assortment,
    ProblemInstance,
    RevenueTerms,
    _RecordFault,
    _best_blocks,
    _block_revenue,
    _fields_equal,
    _freeze,
    _instance_faults,
    _solve_stack,
)

__all__ = [
    "FORMAT_VERSION",
    "UNIT_SCALE",
    "DOLLAR_SCALE",
    "DOLLAR_MAX",
    "DatasetFormatError",
    "GenSpec",
    "DatasetRecord",
    "LabeledDataset",
    "record_seed",
    "generate_instance",
    "generate_dataset",
    "relabel_dataset",
    "write_dataset",
    "read_dataset",
]

FORMAT_VERSION = 1

UNIT_SCALE = "unit"
DOLLAR_SCALE = "dollar"
DOLLAR_MAX = 10_000

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GAMMA = 0x9E3779B97F4A7C15

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# uint64 shift counts for the 128-bit arithmetic.
_U1, _U11, _U58, _U63, _U64 = (np.uint64(b) for b in (1, 11, 58, 63, 64))


class DatasetFormatError(ValueError):
    """A dataset, model or case report file could not be parsed or fails its schema."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one family of random instances.

    ``y`` and ``alpha`` entries are uniform on [0, M] (``alpha`` forced to
    zero when ``network_effects`` is off), ``beta`` is all ones, segment
    weights are uniform draws normalized to sum to one, and funding gaps
    follow ``f_mode``: uniform on [0, M] ("unit") or uniform on the
    integers 1..10000 ("dollar").  ``k`` and ``mode`` fix how generated
    instances are labeled with their optimal assortment.
    """

    n: int
    m: int = 1
    M: float = 50.0
    network_effects: bool = True
    f_mode: str = UNIT_SCALE
    revenue: RevenueTerms = RevenueTerms()
    k: int = 1
    mode: str = SHARED

    def __post_init__(self):
        for name in ("n", "m", "k"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if isinstance(self.M, bool) or not isinstance(self.M, (int, float)):
            raise TypeError(f"M must be an int or a float, got {self.M!r}")
        if not isinstance(self.network_effects, bool):
            raise TypeError(f"network_effects must be a bool, got {self.network_effects!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        # Compared exactly, so an int beyond the float range is not finite either.
        if not 0 < self.M <= sys.float_info.max:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in [1, {self.n}], got {self.k}")
        if self.f_mode not in (UNIT_SCALE, DOLLAR_SCALE):
            raise ValueError(f"f_mode must be {UNIT_SCALE!r} or {DOLLAR_SCALE!r}, got {self.f_mode!r}")
        if self.mode not in (SHARED, PER_SEGMENT):
            raise ValueError(f"mode must be {SHARED!r} or {PER_SEGMENT!r}, got {self.mode!r}")


def _integer(name: str, value) -> int:
    """An int or numpy integer ``value`` as the int it equals, which json writes; anything else raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class DatasetRecord:
    """One labeled example: instance, its support matrix, and the optimum; records compare equal field by field."""

    idx: int
    seed: int
    instance: ProblemInstance
    q: np.ndarray
    label: Assortment
    r_a: float

    __eq__ = _fields_equal


_COLUMNS = ("idx", "y", "alpha", "F", "lam", "q", "blocks", "r_a")
_IDX_RULE = "idx must increase strictly through range(count), without the excluded indices"
# The float columns in the order a record line holds them (_line_template).
_FLOAT_COLUMNS = ("y", "alpha", "F", "lam", "q", "r_a")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A reproducible sequence of labeled examples, stored as columns, that compare field by field.

    ``count`` is the requested number of records; indices listed in
    ``excluded`` hit the fixed-point iteration cap and carry no record.
    Each other field is a read-only array whose leading axis runs over the
    N records: ``idx`` (integers), the instances' ``y``, ``alpha`` (N, n,
    m), ``F`` (N, n) and ``lam`` (N, m), the supports ``q`` (N, n, m) and
    the label: 0-based sorted ``blocks`` (N, m, k, integers) with revenue
    ``r_a``.  The header fixes beta (all ones), the revenue terms
    (``spec.revenue``) and :attr:`seed`.  :attr:`records` presents them as
    :class:`DatasetRecord` objects.  Construction checks a file's rules
    (``_dataset_faults``), but records may be a subset: their idx increase
    strictly through range(count) without ``excluded``.  A broken rule
    raises ``ValueError`` as ``record {idx}: <rule>``, for the first record.
    The arrays given become read-only columns, so none can change after its
    rules passed, but another writable view of them is beyond numpy's guard.
    """

    spec: GenSpec
    master_seed: int
    count: int
    idx: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    F: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    blocks: np.ndarray
    r_a: np.ndarray
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _check_master_seed(_integer("master_seed", self.master_seed)))
        object.__setattr__(self, "count", _integer("count", self.count))
        object.__setattr__(self, "excluded", tuple(_integer("excluded", i) for i in self.excluded))
        for name in _COLUMNS:
            _freeze(self, name, np.asarray(getattr(self, name)))
        _check(self, _dataset_faults(self))

    def __len__(self) -> int:
        return len(self.idx)

    __eq__ = _fields_equal

    @property
    def seed(self) -> np.ndarray:
        """Each record's seed, ``record_seed(master_seed, idx)``, as uint64."""
        return _record_seeds(self.master_seed, self.idx)

    def take(self, rows) -> "LabeledDataset":
        """The records at ``rows`` (a slice, indices or a mask) in record order; unsorted or repeated rows raise ``ValueError``.

        Records of a checked dataset keep every rule but the order of idx,
        so only that rule is checked again.
        """
        return _derive(self, _order_faults, self.spec, **{name: getattr(self, name)[rows] for name in _COLUMNS})

    @property
    def records(self) -> tuple[DatasetRecord, ...]:
        """The records as :class:`DatasetRecord` objects, built anew on each access.

        For tests, demos and inspection; the package's stages read the columns.
        """
        columns = (
            self.idx.tolist(), self.seed.tolist(), self.y, self.alpha, self.F, self.lam, self.q,
            self.blocks.tolist(), self.r_a.tolist(),
        )
        return tuple(
            DatasetRecord(idx, seed, ProblemInstance(y, alpha, None, F, lam, self.spec.revenue),
                          q, Assortment(blocks, self.spec.k), r_a)
            for idx, seed, y, alpha, F, lam, q, blocks, r_a in zip(*columns)
        )


def _check(dataset: LabeledDataset, faults) -> None:
    """Raise the first broken rule of ``faults`` (pairs as ``_dataset_faults`` yields) for its first record at fault."""
    # Rules are tested over whole columns; only a broken one is reduced to records.
    for rule, ok in faults:
        if not ok.all():
            position = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
            raise _RecordFault(rule, position, f"record {dataset.idx[position]}: ")


def _derive(dataset: LabeledDataset, faults, spec: GenSpec, **columns) -> LabeledDataset:
    """A checked ``dataset`` under ``spec`` with new ``columns``, checked by ``faults(derived)``: the rules they may break."""
    derived = copy.copy(dataset)
    object.__setattr__(derived, "spec", spec)
    for name, column in columns.items():
        _freeze(derived, name, column)
    _check(derived, faults(derived))
    return derived


def _order_faults(dataset: LabeledDataset):
    """The rule on the order of idx, the one rule that taking records breaks."""
    idx = dataset.idx
    if idx.ndim != 1:
        raise ValueError(f"rows must pick records along one axis, got idx of shape {idx.shape}")
    ok = np.ones(len(idx), dtype=bool)
    ok[1:] = idx[1:] > idx[:-1]
    yield _IDX_RULE, ok


def _layout(spec: GenSpec) -> list[tuple[tuple, type]]:
    """Shape of one record's entry and dtype of each column, in ``_COLUMNS`` order."""
    n, m = spec.n, spec.m
    floats = [((n, m), float)] * 2 + [((n,), float), ((m,), float), ((n, m), float)]
    return [((), np.int64), *floats, ((m, spec.k), np.int64), ((), float)]


def _dataset_faults(dataset: LabeledDataset):
    """A file's rules for ``dataset``: header, shape and dtype faults raise; record rules yield as in ``_instance_faults``."""
    spec, count, excluded = dataset.spec, dataset.count, dataset.excluded
    idx, y, alpha, F, lam, q, blocks, r_a = (getattr(dataset, name) for name in _COLUMNS)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not all(0 <= i < count for i in excluded) or len(set(excluded)) != len(excluded):
        raise ValueError(f"excluded must list distinct record indices in [0, {count})")
    if idx.ndim != 1:
        raise ValueError(f"idx must have one dimension, got shape {idx.shape}")
    for name, (shape, dtype) in zip(_COLUMNS, _layout(spec)):
        column, (kinds, what) = getattr(dataset, name), ("iu", "integers") if dtype is np.int64 else ("f", "floats")
        if column.shape != (len(idx), *shape):
            raise ValueError(f"{name} must have shape {(len(idx), *shape)}, got {column.shape}")
        if column.dtype.kind not in kinds:
            raise ValueError(f"{name} must hold {what}, got dtype {column.dtype}")
    ok = (idx >= 0) & (idx < count)
    ok[1:] &= idx[1:] > idx[:-1]
    if excluded:
        ok &= ~np.isin(idx, excluded)
    yield _IDX_RULE, ok
    yield from _instance_faults(y, alpha, None, F, lam)
    M, at_M = float(spec.M), f"with the header's M={spec.M!r}"
    yield f"y must lie in [0, M] {at_M}", (y >= 0.0) & (y <= M)
    yield ((f"alpha must lie in [0, M] {at_M}", alpha <= M) if spec.network_effects
           else ("alpha must be all zero under the header's network_effects false", alpha == 0.0))
    yield ((f"F must lie in [0, M] {at_M} in unit f_mode", F <= M) if spec.f_mode == UNIT_SCALE
           else (f"F must be an integer in 1..{DOLLAR_MAX} under the header's dollar f_mode",
                 (F >= 1.0) & (F <= DOLLAR_MAX) & (F == np.floor(F))))
    yield "q must lie in [0, 1]", (q >= 0.0) & (q <= 1.0)
    yield from _label_faults(dataset)


def _label_faults(dataset: LabeledDataset):
    """The rules on the label columns ``blocks`` and ``r_a``, the ones that relabeling may break."""
    spec, blocks, r_a = dataset.spec, dataset.blocks, dataset.r_a
    ok, increasing = (blocks >= 0) & (blocks < spec.n), blocks[..., 1:] > blocks[..., :-1]
    # Products that increase are distinct; only others are sorted to tell.
    if not increasing.all():
        ordered = np.sort(blocks, axis=-1)
        ok[..., 1:] &= ordered[..., 1:] != ordered[..., :-1]
    yield f"label must have {spec.m} block(s) of k={spec.k} distinct products in 1..{spec.n}", ok
    yield "label products must be sorted within each block", increasing
    yield "r_a must be a finite number", np.isfinite(r_a)


def record_seed(master_seed: int, index: int) -> int:
    """Per-record seed: SplitMix64 output ``index`` steps from ``master_seed``.

    A pure 64-bit mix of (master_seed, index), so record seeds are
    independent of generation order.  ``master_seed`` must lie in [0,
    2**64), where the mix tells every seed apart.
    """
    _check_master_seed(master_seed)
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return int(_record_seeds(master_seed, [index])[0])


def _check_master_seed(master_seed: int) -> int:
    """``master_seed``, which must lie in [0, 2**64), where the seed mix tells every seed apart."""
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    return master_seed


def _record_seeds(master_seed: int, indices) -> np.ndarray:
    """``record_seed(master_seed, t)`` for each nonnegative index ``t`` of ``indices``, as uint64.

    The mix in uint64 arithmetic, which wraps modulo 2**64 as the formula does.
    """
    u64 = np.uint64
    z = u64(int(master_seed) & _MASK64) + (np.asarray(indices, dtype=u64) + u64(1)) * u64(_GAMMA)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return z ^ (z >> u64(31))


def generate_instance(spec: GenSpec, seed: int) -> ProblemInstance:
    """Draw one instance from ``spec`` with a deterministic generator.

    Draw order is fixed (y, alpha, F, lambda).  alpha is always consumed
    from the stream and only zeroed afterwards when network effects are
    off, so flipping the toggle under a shared seed changes nothing else.
    The one-record case of the stacked draw that datasets use.  The draws
    are those of ``np.random.default_rng(seed)``; ``seed`` must lie in
    [0, 2**64), the range of record seeds.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    y, alpha, F, lam = (column[0] for column in _draw(spec, [seed]))
    return ProblemInstance(y=y, alpha=alpha, F=F, lam=lam, revenue=spec.revenue)


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``calls`` successive SeedSequence hash calls, as (calls, 1) uint32.

    Each call XORs with the current constant, advances it by ``mult`` and
    multiplies by the new one; the sequence is the same for every seed.
    """
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants[:-1], np.uint32)[:, None], np.array(constants[1:], np.uint32)[:, None]


# Four hash calls mix in the entropy, twelve mix the pool, eight draw the output.
_HASH_MIX = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_OUT = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed ``s`` in [0, 2**64), as (N, 4) uint64.

    numpy's SeedSequence algorithm run on all seeds at once in uint32
    arithmetic.  A seed's entropy words are (low, high, 0, 0), which for a
    seed below 2**32 is the pool of its one-word entropy too.  Hash calls
    whose inputs do not depend on each other's results run as one array
    operation, each with its own constants (``_hash_constants``).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    u32 = np.uint32

    def hashmix(values, calls, constants=_HASH_MIX):
        xor, mult = (c[calls] for c in constants)
        values = (values ^ xor) * mult
        return values ^ (values >> u32(16))

    def mix(x, y):
        result = x * u32(_MIX_MULT_L) - y * u32(_MIX_MULT_R)
        return result ^ (result >> u32(16))

    pool = np.zeros((4, seeds.size), u32)
    pool[0], pool[1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    pool = hashmix(pool, slice(0, 4))
    # Word src is hashed once for each other word, in order, and none of
    # those words' updates changes it.
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src)))
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], slice(0, 8), _HASH_OUT).astype(np.uint64)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1.
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def _pcg64_seeding(seeds) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """PCG64's state one step before it is seeded, and its increment, for each seed in [0, 2**64).

    ``np.random.PCG64(s)`` seeds from the four words w of ``_seed_words``:
    its increment is ``inc = (w[2:4] << 1) | 1`` and its state ``P * MULT +
    inc``, one step from ``P = inc + w[0:2]``, all modulo 2**128.  Returns
    ``(P, inc)`` in array code, each 128-bit number a (high word, low word)
    pair of uint64 arrays.
    """
    hi, lo, inc_hi, inc_lo = _seed_words(seeds).T
    inc = ((inc_hi << _U1) | (inc_lo >> _U63), (inc_lo << _U1) | _U1)
    before_lo = inc[1] + lo
    return (inc[0] + hi + (before_lo < lo), before_lo), inc


def _pcg64_states(seeds) -> list[dict]:
    """``np.random.PCG64(s).state`` for each seed ``s`` in [0, 2**64), built from ``_pcg64_seeding``."""
    (before_hi, before_lo), (inc_hi, inc_lo) = _pcg64_seeding(seeds)
    states = []
    for bh, bl, ih, il in zip(before_hi.tolist(), before_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = ih << 64 | il
        state = ((bh << 64 | bl) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit Python ints ``values`` as a (high words, low words) pair of uint64 arrays."""
    return np.array([v >> 64 for v in values], np.uint64), np.array([v & _MASK64 for v in values], np.uint64)


def _mul_add(a, x, b, y) -> tuple[np.ndarray, np.ndarray]:
    """``a * x + b * y`` modulo 2**128 for (high, low) uint64 pairs, broadcast elementwise.

    Modulo 2**128 the high word of a product is ``mulhi(a_lo, x_lo) +
    a_lo * x_hi + a_hi * x_lo``, in wrapping uint64 arithmetic.
    """
    (a_hi, a_lo), (x_hi, x_lo), (b_hi, b_lo), (y_hi, y_lo) = a, x, b, y
    ax_lo = a_lo * x_lo
    low = ax_lo + b_lo * y_lo
    high = (
        mul_hi(a_lo, x_lo) + a_lo * x_hi + a_hi * x_lo
        + mul_hi(b_lo, y_lo) + b_lo * y_hi + b_hi * y_lo
        + (low < ax_lo)
    )
    return high, low


@functools.cache
def _jump_constants(steps: int) -> tuple:
    """``MULT**j`` and ``sum(MULT**i for i < j)`` modulo 2**128 for j = 2..steps + 1, as (high, low) pairs.

    PCG64 steps its state S to ``S * MULT + inc``, so j steps take P to
    ``MULT**j * P + sum(MULT**i for i < j) * inc``; from the state P of
    ``_pcg64_seeding``, output t reads the state j = t + 2 steps on.
    """
    powers, sums = [1], [0]
    for _ in range(steps + 1):
        powers.append(powers[-1] * _PCG64_MULT & _MASK128)
        sums.append((sums[-1] * _PCG64_MULT + 1) & _MASK128)
    pairs = (_split(powers[2:]), _split(sums[2:]))
    for column in (c for pair in pairs for c in pair):
        column.setflags(write=False)
    return pairs


def _pcg64_raw(before, inc, steps: int) -> np.ndarray:
    """The first ``steps`` raw outputs of PCG64 for each ``(P, inc)`` of ``_pcg64_seeding``, as (N, steps) uint64.

    Jump-ahead instead of a generator: output t is ``rotr64(hi ^ lo, hi >>
    58)`` of the state after t + 1 steps from the seeded one, (hi, lo) being
    its words, and ``_jump_constants`` gives all those states at once.
    """
    powers, sums = (tuple(word[None, :] for word in pair) for pair in _jump_constants(steps))
    high, low = _mul_add(powers, tuple(word[:, None] for word in before), sums, tuple(word[:, None] for word in inc))
    mixed, rotation = high ^ low, high >> _U58
    return (mixed >> rotation) | (mixed << ((_U64 - rotation) & _U63))


# Records _pcg64_uniforms draws at a time take at most this many outputs,
# so its temporaries stay a few 128 KB arrays.
_JUMP_BLOCK = 1 << 14


def _pcg64_uniforms(seeds, steps: int, high: float) -> np.ndarray:
    """``np.random.default_rng(s).uniform(0.0, high, steps)`` for each seed ``s``, as (N, steps) rows.

    ``uniform`` maps a raw output r to ``0.0 + high * ((r >> 11) * 2**-53)``,
    which is ``high * ((r >> 11) * 2**-53)`` as the product is never -0.0.
    The raw outputs come from ``_pcg64_raw``, a block of records at a time.
    """
    before, inc = _pcg64_seeding(seeds)
    out = np.empty((len(inc[0]), steps))
    rows = max(1, _JUMP_BLOCK // steps)
    for start in range(0, len(out), rows):
        block = slice(start, start + rows)
        raw = _pcg64_raw((before[0][block], before[1][block]), (inc[0][block], inc[1][block]), steps)
        np.multiply((raw >> _U11).astype(float), 2.0**-53, out=out[block])
    out *= high
    return out


# _draw's rule for the jump-ahead: a generator costs several microseconds a
# record, the jump-ahead a fixed set-up plus a share of a microsecond an
# output.  Generator over jump-ahead time at 192 draws a record (one
# thread, 2-core x86-64, interleaved, median of five runs): 0.94 at 16
# records, 1.09 at 40 and 1.19 at 500; at 451 draws 0.66-0.76 from 16
# records up.  Below 16 records the jump-ahead loses under 0.1 ms a call.
_JUMP_MAX_DRAWS = 192


def _draw(spec: GenSpec, seeds) -> list[np.ndarray]:
    """Instances drawn from ``spec``, one per seed, stacked: ``y``, ``alpha``, ``F``, ``lam`` (beta is all ones).

    Record t draws what ``np.random.default_rng(seeds[t])`` draws, seeds in
    [0, 2**64), into its row: y | alpha | F | raw weights.  In "unit"
    f_mode, records of at most ``_JUMP_MAX_DRAWS`` draws jump every PCG64
    stream ahead at once in array code (``_pcg64_uniforms``).  Other records
    reuse one ``Generator``, set to each seed's state (``_pcg64_states``):
    only numpy repeats "dollar" f_mode's F, integers drawn by rejection, and
    splitting a run of uniform draws into calls changes none of them.

    A record's segment weights are its raw weights over their sum, which
    can overflow or be zero: either raises ``_RecordFault``.
    """
    n, m, nm = spec.n, spec.m, spec.n * spec.m
    size = 2 * nm + n + m
    if spec.f_mode == UNIT_SCALE and size <= _JUMP_MAX_DRAWS:
        draws = _pcg64_uniforms(seeds, size, spec.M)
    else:
        draws = np.empty((len(seeds), size))
        rng = np.random.Generator(np.random.PCG64(0))
        for row, state in zip(draws, _pcg64_states(seeds)):
            rng.bit_generator.state = state
            if spec.f_mode == UNIT_SCALE:
                row[:] = rng.uniform(0.0, spec.M, size)
            else:
                row[: 2 * nm] = rng.uniform(0.0, spec.M, 2 * nm)
                row[2 * nm : 2 * nm + n] = rng.integers(1, DOLLAR_MAX + 1, size=n)
                row[2 * nm + n :] = rng.uniform(0.0, spec.M, m)
    # Contiguous copies: matmul rounds a stack of records exactly as it
    # rounds one only for contiguous operands.
    y, alpha, F, raw = (np.ascontiguousarray(c) for c in np.split(draws, [nm, 2 * nm, 2 * nm + n], axis=1))
    y, alpha = y.reshape(-1, n, m), alpha.reshape(-1, n, m)
    if not spec.network_effects:
        alpha = np.zeros_like(alpha)
    with np.errstate(over="ignore"):
        total = raw.sum(axis=1, keepdims=True)
    if np.isinf(total).any():
        raise _RecordFault("segment weights overflowed: their sum exceeds the float maximum", int(np.isinf(total).argmax()))
    if not np.all(total > 0.0):
        raise _RecordFault("raw weights must not all be zero", int(np.argmin(total > 0.0)))
    return [y, alpha, F, raw / total]


# Generation peaks at about this many times the bytes of its three (count,
# n, m) float64 columns, y, alpha and q: 434 MB for 96 MB at (n, m) =
# (100, 4) with 10**4 records.
_PEAK_OVER_COLUMNS = 4.5

# A container's memory limit, cgroup v2's and v1's.
_CGROUP_MEMORY_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@functools.cache
def _memory_limit() -> tuple[int, str]:
    """Physical memory or a smaller cgroup limit, and what sets it; read once, as a read costs some 30 us."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "the machine's {} GB of physical memory"
    for path in _CGROUP_MEMORY_LIMITS:
        # No file, no number (v2 reads "max" for no limit) or v1's no limit, near 2**63: physical memory stands.
        with contextlib.suppress(OSError, ValueError):
            limit = min(limit, (int(Path(path).read_text()), "the container's memory limit of {} GB"))
    return limit


def generate_dataset(spec: GenSpec, count: int, master_seed: int) -> LabeledDataset:
    """Generate ``count`` instances and label each with its optimal assortment.

    Record ``t`` draws its instance from seed ``record_seed(master_seed, t)``
    straight into row ``t`` of the dataset's columns.  The largest fixed
    points of all records are then solved in one array iteration, each
    record stopping on its own, and all records are labeled at once with
    the exact optima.  Records whose fixed point fails to converge are
    then dropped and reported in ``excluded``.  ``master_seed`` must lie in
    [0, 2**64), where the seed mix tells every seed apart.  A dataset whose
    estimated peak memory exceeds the machine's physical memory, or a
    smaller cgroup memory limit, raises ``ValueError`` before anything is
    drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_master_seed(master_seed)
    peak = _PEAK_OVER_COLUMNS * 3 * count * spec.n * spec.m * 8
    memory, source = _memory_limit()
    if peak > memory:
        raise ValueError(
            f"a dataset of n={spec.n}, m={spec.m} and count={count} needs about {peak / 1e9:.3g} GB to generate, "
            f"more than {source.format(f'{memory / 1e9:.3g}')}"
        )
    try:
        y, alpha, F, lam = _draw(spec, _record_seeds(master_seed, np.arange(count)))
        # y - F is y - beta F at beta = 1, bit for bit.
        q, _, converged = _solve_stack(y - F[..., None], alpha, lam, ONE_START, DEFAULT_MAX_ITER)
    except _RecordFault as e:
        # Record t sits at position t of the stack.
        raise ValueError(f"record {e.position}: {e}") from None
    blocks = _best_blocks(q, lam, spec.k, spec.mode)
    r_a = _block_revenue(q, lam, spec.revenue.per_support, blocks)
    excluded = np.flatnonzero(~converged)
    columns = (np.arange(count), y, alpha, F, lam, q, blocks, r_a)
    if len(excluded):
        columns = (column[converged] for column in columns)
    return LabeledDataset(spec, int(master_seed), count, *columns, tuple(excluded.tolist()))


def relabel_dataset(dataset: LabeledDataset, k=None, mode=None) -> LabeledDataset:
    """Recompute labels of an existing dataset under a new ``k`` or ``mode``.

    ``q`` depends on neither ``k`` nor ``mode``, so records keep their
    instance, seed and stored ``q`` and ``excluded`` carries over; the
    ``blocks`` and ``r_a`` columns are recomputed and only their rules
    checked again.  Useful for sweeping assortment size over one shared set
    of instances.
    """
    spec = replace(dataset.spec, **{name: value for name, value in (("k", k), ("mode", mode)) if value is not None})
    blocks = _best_blocks(dataset.q, dataset.lam, spec.k, spec.mode)
    r_a = _block_revenue(dataset.q, dataset.lam, spec.revenue.per_support, blocks)
    return _derive(dataset, _label_faults, spec, blocks=blocks, r_a=r_a)


_SPEC_KEYS = tuple(field.name for field in fields(GenSpec))
_REVENUE_KEYS = tuple(field.name for field in fields(RevenueTerms))
_RECORD_KEYS = ("idx", "seed", "y", "alpha", "beta", "F", "lambda", "revenue", "q", "label", "r_a")
# The keys of the columns, in _COLUMNS order: all but the fields the header fixes.
_COLUMN_KEYS = [key for key in _RECORD_KEYS if key not in ("seed", "beta", "revenue")]
_RECORD_VALUES = operator.itemgetter(*_RECORD_KEYS)


def _file_revenue(spec: GenSpec) -> dict:
    """The revenue object every record line carries: the spec's terms as float64."""
    return {key: float(getattr(spec.revenue, key)) for key in _REVENUE_KEYS}


def _fields(obj, keys, where: str, what: str) -> tuple:
    """The values of ``keys`` in the JSON object ``obj``, which ``where`` and ``what`` name in errors."""
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{where}: {what} must be a JSON object, got {type(obj).__name__}")
    try:
        return tuple(map(obj.__getitem__, keys))
    except KeyError as e:
        raise DatasetFormatError(f"{where}: {what} is missing field {e.args[0]!r}") from None


def spec_from_dict(d: dict, where: str = "spec") -> GenSpec:
    values = dict(zip(_SPEC_KEYS, _fields(d, _SPEC_KEYS, where, "spec")))
    revenue = _fields(values["revenue"], _REVENUE_KEYS, where, "revenue")
    try:
        return GenSpec(**{**values, "revenue": RevenueTerms(*revenue)})
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"{where}: invalid spec ({e})") from None


def _load_json(data: bytes, where: str, what: str = ""):
    """The JSON document in ``data``: dataset line ``where``, or, given ``what``, the ``what`` file at path ``where``.

    Every file's bytes become values here.  Text that is not UTF-8, invalid
    JSON, nesting past the parser's recursion limit and an integer longer
    than ``sys.get_int_max_str_digits()`` raise :class:`DatasetFormatError`,
    naming the dataset line, or the file and the line and byte column in it.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        problem, fault = f"not UTF-8 text ({e.reason})", e
    except json.JSONDecodeError as e:
        problem, fault = f"invalid JSON ({e.msg})", e
    except RecursionError as e:
        problem, fault = "JSON nested deeper than the parser allows", e
    except ValueError as e:
        # json raises no other ValueError: an integer literal past the digit limit.
        problem, fault = f"JSON integer longer than {sys.get_int_max_str_digits()} digits", e
    if what:
        offset = _fault_offset(data, fault)
        lineno, column = data.count(b"\n", 0, offset) + 1, offset - data.rfind(b"\n", 0, offset)
        where = f"{where}: invalid {what} file at line {lineno} column {column}"
    raise DatasetFormatError(f"{where}: {problem}") from None


_JSON_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"')


def _fault_offset(data: bytes, fault: Exception) -> int:
    """The byte of JSON text ``data`` where ``json.loads`` raised ``fault``.

    The parser places neither of its limits, so the text, strings blanked,
    is scanned: too deep nesting is placed at the deepest bracket, a too
    long integer at the first.
    """
    if isinstance(fault, UnicodeDecodeError):
        return fault.start
    if isinstance(fault, json.JSONDecodeError):
        return len(fault.doc[: fault.pos].encode())
    text = _JSON_STRING.sub(lambda string: b" " * len(string[0]), data)
    if isinstance(fault, RecursionError):
        chars = np.frombuffer(text, np.uint8)
        return int(np.cumsum(np.isin(chars, list(b"[{")).astype(int) - np.isin(chars, list(b"]}"))).argmax())
    integer = re.search(rb"(?<![\d.eE+-])-?\d{%d,}(?![\d.eE])" % (sys.get_int_max_str_digits() + 1), text)
    return integer.start() if integer else 0


_INDENT = "  "
# The types json writes as scalars.  A subclass of one (an IntEnum, say)
# takes the recursive path, which writes it as json does.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth: int):
    """The text json writes of a container of scalars, or a scalar, its item separator starting a new line ``depth`` indents deep.

    json's C encoder is built once per depth, with ``json.JSONEncoder``'s
    settings, rather than on each call, as ``JSONEncoder.encode`` builds
    it.  It keeps no markers of the containers it is in, as it only ever
    meets containers of scalars here.
    """
    encoder = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + _INDENT * depth, False, False, True,
    )
    return lambda doc: "".join(encoder(doc, 0))


def _indented_json(doc, depth: int = 0) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for ``doc`` whose closing bracket sits ``depth`` indents deep.

    json indents in pure Python.  Here its C encoder writes every container
    whose items are all scalars, and a list of nonempty such dicts in one
    call, whose item separators one ``str.replace`` then fixes: ``},`` and a
    newline come only between those dicts, as an encoded string never
    holds a raw newline.  Only containers of containers recurse in Python.
    """
    items = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, (list, tuple)) else None
    if not items:
        return _flat_encoder(0)(doc)
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    if _SCALARS.issuperset(map(type, items)):
        text = _flat_encoder(depth + 1)(doc)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if isinstance(doc, dict):
        # A key as json writes it, quoted whatever its type.
        keys = (_flat_encoder(0)({key: 0})[1:-4] for key in doc)
        body = (key + ": " + _indented_json(value, depth + 1) for key, value in zip(keys, items))
        return "{" + inner + ("," + inner).join(body) + outer + "}"
    if (set(map(type, items)) == {dict} and all(map(len, items))
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, items))))):
        deeper = inner + _INDENT
        body = _flat_encoder(depth + 2)(doc)[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + body + inner + "}" + outer + "]"
    return "[" + inner + ("," + inner).join(_indented_json(item, depth + 1) for item in items) + outer + "]"


# Bytes of record lines read at a time: bounds the memory the reader holds
# beyond the dataset itself.  A read of 2,000 records of learn_io's shape
# (3.2 MB, 1.22 MB of columns; in process, 2-core x86-64, numpy 2.4) takes,
# by budget, 57 ms at 64 KB, 49 at 96, 44 at 128, 39 at 192, 37 at 256 and
# 36 at 320, and peaks at 0.42, 0.50, 0.64, 0.91, 1.17 and 1.37 MB of
# allocations above its columns, which must stay below 1.39 MB.
_CHUNK_BYTES = 256 * 1024
# Floats the writer formats at a time: a dataset of F floats is cut into
# max(1, round(F / _CHUNK_FLOATS)) chunks of equal record counts, so that a
# chunk holds 0.5 to 1.5 budgets (or one record).  A write's allocations
# peak at about 390-460 bytes a float of its largest chunk (numpy 2.4):
# 5.6 MB at case3p5's shape and 1.49 budgets, 5.0 MB for case3p5's 500
# records, 3.2 MB for learn_io's chunks of 111 records.
_CHUNK_FLOATS = 8192


def write_dataset(dataset: LabeledDataset, path) -> str:
    """Write a dataset as JSON Lines (see the module docstring for the schema), atomically; returns its SHA-256.

    The header goes through ``json.dumps``, the record lines through array
    code in chunks of equal record counts (within one), as many as the
    dataset's floats over ``_CHUNK_FLOATS``, rounded (at least one, at most
    one a record), which spreads a chunk's fixed cost in array calls over
    as many numbers as its memory allows and leaves no short last chunk to
    pay it again.
    Every number becomes a fixed-width cell of candidate characters, 0
    where one is dropped (``_numtext.cells``, one pass over the chunk's
    floats and integers; a float keeps its shortest round-trip digits, as
    ``repr`` writes them), the cells go into a buffer of the chunk's lines
    that holds the literal text ``json.dumps`` writes around the numbers
    (``_line_template``, ``_line_buffer``), and one compaction of the kept
    characters, record by record (``_compact``), gives the bytes
    ``json.dumps`` writes.  A dataset whose records and ``excluded`` fall
    short of ``count``, as a subset's do, raises ``ValueError``; no
    file is written.
    """
    if len(dataset) + len(dataset.excluded) != dataset.count:
        raise ValueError(f"expected {dataset.count} records ({len(dataset.excluded)} excluded), found {len(dataset)}")
    header = {
        "format_version": FORMAT_VERSION,
        "spec": asdict(dataset.spec),
        "master_seed": dataset.master_seed,
        "count": dataset.count,
        "seed_mix": "splitmix64",
        "excluded": list(dataset.excluded),
    }

    def chunks():
        yield (json.dumps(header, separators=(",", ":")) + "\n").encode()
        records = len(dataset)
        if not records:
            # Nothing to lay out, so a spec too large for one line still writes its header.
            return
        floats = [getattr(dataset, name) for name in _FLOAT_COLUMNS]
        per_record = sum(math.prod(column.shape[1:]) for column in floats)
        parts = min(records, max(1, round(records * per_record / _CHUNK_FLOATS)))
        lines, float_slots, int_slots = _line_buffer(dataset.spec, math.ceil(records / parts))
        for start, stop in pairwise(records * part // parts for part in range(parts + 1)):
            rows = slice(start, stop)
            idx = dataset.idx[rows]
            count = len(idx)
            values = np.concatenate([column[rows].reshape(count, -1) for column in floats], axis=1)
            # The integers of a line in order, none negative: idx, seed and
            # the label's products, 1-based in files.
            seeds, products = _record_seeds(dataset.master_seed, idx), (dataset.blocks[rows] + 1).reshape(count, -1).T
            ints = np.vstack([idx.astype(np.uint64), seeds, products.astype(np.uint64)])
            # The cells, slot by slot: a slot's numbers of all the chunk's records together.
            float_cells, int_cells = cells(values.T.ravel(), ints.ravel())
            lines[float_slots, :count] = float_cells.reshape(*float_slots.shape, count)
            lines[int_slots, :count] = int_cells.reshape(*int_slots.shape, count)
            yield _compact(lines[:, :count])

    return _write_atomic(path, chunks())


def _compact(text: np.ndarray) -> np.ndarray:
    """The characters of ``text``, a (width, records) part of a line buffer, record by record and without its 0s.

    The literal text holds no 0; the cells hold 0 where they drop a
    character.  ``compress`` makes an index of 8 bytes a kept character
    (2.5 MB for a chunk of case3p5), and freeing it lifts glibc's dynamic
    mmap threshold.  Masking ``text.T`` in place, without the transposed
    copy, is faster a chunk but makes no such index, so that glibc trims
    and regrows its heap on every write: about 3,000 more minor page
    faults and 4-8 ms more system time a presets pass of 90 ms.
    """
    text = text.T.ravel()
    return np.compress(text != 0, text)


def _line_template(spec: GenSpec) -> tuple[list[str], np.ndarray]:
    """A record line under ``spec`` cut at its numbers: the literal runs around them, and which of them are floats.

    The line is the ``json.dumps`` of a record, keys and nesting as in the
    module docstring, whose numbers are the strings ``"%d"`` (an integer)
    and ``"%r"`` (a float, which ``json.dumps`` writes as ``float.__repr__``
    does).  Beta, the revenue terms and ``k``, which the header fixes, are
    literal text, written by the encoder that writes the header.
    """
    n, m, d, r = spec.n, spec.m, "%d", "%r"
    grid, label = [[r] * m] * n, {"per_segment": [[d] * spec.k] * m, "k": spec.k}
    values = (d, d, grid, grid, [[1.0] * m] * n, [r] * n, [r] * m, _file_revenue(spec), grid, label, r)
    pieces = re.split('"(%[dr])"', json.dumps(dict(zip(_RECORD_KEYS, values)), separators=(",", ":")) + "\n")
    return pieces[0::2], np.array(pieces[1::2]) == r


def _line_buffer(spec: GenSpec, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A buffer for ``size`` record lines under ``spec``, and where its number cells go.

    Character j of line t is entry ``[j, t]`` of the (width, size) uint8
    buffer.  Each line is filled, in one broadcast copy, with one template
    line: the literal runs of ``_line_template``, and between them a
    ``FLOAT_CELL``-wide cell of NULs for a float and an ``INT_CELL``-wide
    one for an integer.  Entry ``[i, s]`` of the two (cell width, slots)
    arrays returned is the position of row i of the s-th float or integer
    cell.
    """
    runs, is_float = _line_template(spec)
    widths = np.where(is_float, FLOAT_CELL, INT_CELL).tolist()
    line = "".join(run + "\0" * width for run, width in zip_longest(runs, widths, fillvalue=0))
    line = np.frombuffer(line.encode(), np.uint8)
    # A cell begins where a NUL follows literal text, which begins and ends a line and holds no NUL.
    starts = np.flatnonzero((line[1:] == 0) & (line[:-1] != 0)) + 1
    lines = np.empty((len(line), size), np.uint8)
    lines[...] = line[:, None]
    return lines, np.arange(FLOAT_CELL)[:, None] + starts[is_float], np.arange(INT_CELL)[:, None] + starts[~is_float]


def _temporary_name(name: str) -> str:
    """A fresh name for the temporary file that ``_write_atomic`` moves over the file ``name``."""
    return f".{name}.{secrets.token_hex(8)}.tmp"


def _write_atomic(path, chunks) -> str:
    """Replace ``path`` by a file holding the bytes-like ``chunks`` and return its SHA-256, or leave it untouched on failure.

    The chunks go, one by one, to a fresh temporary file in the same
    directory, which ``os.replace`` then moves over ``path``; the digest is
    taken of the chunks as they are written.  On any failure the temporary
    file is removed and the error propagates.
    """
    path = Path(path)
    # Opened with "x" rather than made by tempfile.mkstemp, so the file gets
    # the permissions a plain open gives it instead of owner-only ones.
    tmp = path.with_name(_temporary_name(path.name))
    digest = hashlib.sha256()
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def read_dataset(path) -> LabeledDataset:
    """Read a JSON Lines dataset; inverse of :func:`write_dataset`.

    Raises :class:`DatasetFormatError` on malformed content, naming the
    offending line; nothing partial is ever returned.  Record lines are read
    a chunk at a time, ``_CHUNK_BYTES`` bytes and the rest of the line they
    end in, into one buffer after ``PAD``, and each chunk takes one of two
    paths, picked by its bytes alone, never by an option.  A chunk whose
    every line is laid out as the writer lays it (``_line_template``) is
    read in array code (``_layout_columns``): ``_numtext.parse_lines``
    matches each line's separators and literal text, the beta, revenue and
    label k the header fixes among them, and parses its numbers as
    ``json.loads`` reads them, which leaves the idx and seeds to check.  Any
    other chunk, of another spacing, key order or line end, or with a fault
    in a line's form, idx or seed, is parsed line by line by ``json``, the
    collector paused, and checked field by field by ``_record_columns``, the
    only code that words a record fault; a chunk both paths accept gives the
    same columns either way.  Each chunk takes the idx its records must carry
    from one lazy, in-order stream over ``range(count)`` without
    ``excluded``, so memory does not grow with the header's ``count``.
    :class:`LabeledDataset` then checks the values, and a fault names the
    line of the record at fault.
    """
    # Read as bytes and decoded line by line, so that text which is not UTF-8 is named by its line.
    with open(Path(path), "rb") as fh:
        spec, master_seed, count, excluded = _read_header(fh.readline())
        skipped = set(excluded)
        parts = list(_record_parts(fh, spec, master_seed, (i for i in range(count) if i not in skipped)))
    if not parts:
        parts.append(_chunk_columns(PAD, 0, 2, spec, master_seed, [], None))
    found = sum(len(part[0]) for part in parts)
    if found + len(excluded) != count:
        raise DatasetFormatError(f"expected {count} records ({len(excluded)} excluded), found {found}")
    # Column by column, each column's parts dropped once joined, so that the dataset is held about once.
    columns = [np.concatenate([part.pop(0) for part in parts]) for _ in _COLUMNS]
    try:
        return LabeledDataset(spec, master_seed, count, *columns, excluded)
    except _RecordFault as e:
        # Record p sits on line p + 2.
        raise DatasetFormatError(f"line {e.position + 2}: {e.rule}") from None


def _read_header(line: bytes) -> tuple[GenSpec, int, int, tuple[int, ...]]:
    """``spec``, ``master_seed``, ``count`` and ``excluded`` of a header line, type-checked."""
    header = _load_json(line, "line 1")
    (version,) = _fields(header, ("format_version",), "line 1", "header")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetFormatError(f"line 1: format_version must be the integer {FORMAT_VERSION}, got {version!r}")
    spec, master_seed, count, seed_mix, excluded = _fields(
        header, ("spec", "master_seed", "count", "seed_mix", "excluded"), "line 1", "header"
    )
    # write_dataset gives a dataset without records a count of 0.
    if type(count) is not int or count < 0:
        raise DatasetFormatError(f"line 1: count must be an integer >= 0, got {count!r}")
    if not isinstance(excluded, list):
        raise DatasetFormatError(f"line 1: excluded must be a list, got {excluded!r}")
    if not all(type(i) is int and 0 <= i < count for i in excluded) or len(set(excluded)) != len(excluded):
        raise DatasetFormatError(f"line 1: excluded must list distinct record indices in [0, {count})")
    if type(master_seed) is not int or not 0 <= master_seed <= _MASK64:
        raise DatasetFormatError(f"line 1: master_seed must be an integer in [0, 2**64), got {master_seed!r}")
    # Record seeds are derived from master_seed by this mix alone.
    if seed_mix != "splitmix64":
        raise DatasetFormatError(f"line 1: seed_mix must be 'splitmix64', got {seed_mix!r}")
    spec = spec_from_dict(spec, "line 1")
    # With no record line to read the shape against, the header alone must give (n, m) floats an array can hold.
    if count == len(excluded) and spec.n * spec.m > sys.maxsize // 8:
        raise DatasetFormatError(f"line 1: spec n={spec.n}, m={spec.m} gives records no array can hold")
    return spec, master_seed, count, tuple(excluded)


def _record_parts(fh, spec: GenSpec, master_seed: int, expected):
    """The columns of the record lines of ``fh``, a chunk at a time, which take their idx in order from ``expected``.

    A chunk is the next ``_CHUNK_BYTES`` bytes and the rest of the line
    they end in, read into one buffer after ``PAD``; the file's last line
    may lack its newline.
    """
    first, layout, pad = 2, None, len(PAD)
    while True:
        buf = bytearray(PAD).ljust(pad + _CHUNK_BYTES)
        if not (size := fh.readinto(memoryview(buf)[pad:])):
            return
        del buf[pad + size :]
        if not buf.endswith(b"\n"):
            buf += fh.readline()
        rows = buf.count(b"\n", pad) + (not buf.endswith(b"\n"))
        # Built once a line shows that the header's n * m numbers could fit
        # in it, so that a header's sizes ask for no more than a line holds.
        if layout is None and spec.n * spec.m <= buf.find(b"\n", pad) - pad:
            layout = LineLayout(*_line_template(spec))
        yield _chunk_columns(buf, rows, first, spec, master_seed, list(islice(expected, rows)), layout)
        first += rows


def _chunk_columns(buf, rows: int, first: int, spec: GenSpec, master_seed: int, expected: list, layout) -> list:
    """The columns of the ``rows`` record lines in ``buf`` after ``PAD``, the first on file line ``first``, which must carry the idx ``expected``, in ``_COLUMNS`` order.

    In array code when every line matches ``layout`` (if any), else parsed
    and checked line by line; a fault raises, naming its line.
    """
    columns = _layout_columns(buf, rows, layout, spec, master_seed, expected) if layout else None
    if columns is None:
        lines = bytes(memoryview(buf)[len(PAD) :]).split(b"\n")[:rows]
        # Parsed records hold no reference cycles: the collector, paused while they live, would only scan them over and over.
        collecting = gc.isenabled()
        gc.disable()
        try:
            try:
                records = [_RECORD_VALUES(_load_json(line, "")) for line in lines]
            except (KeyError, TypeError, DatasetFormatError):
                # Parsed again line by line, so that the first line at fault is named.
                records = [_fields(_load_json(line, f"line {lineno}"), _RECORD_KEYS, f"line {lineno}", "record")
                           for lineno, line in enumerate(lines, start=first)]
            columns = _record_columns(records, first, spec, master_seed, iter(expected))
            del records
        finally:
            if collecting:
                gc.enable()
    # A file may list a block's products in any order; a dataset holds them sorted.
    return [*columns[:6], np.sort(columns[6] - 1, axis=-1), columns[7]]


def _layout_columns(text, rows: int, layout: LineLayout, spec: GenSpec, master_seed: int, expected: list) -> list | None:
    """The columns of the ``rows`` record lines in ``text`` after ``PAD`` as ``_record_columns`` makes them, if every line matches ``layout`` and carries its ``expected`` idx and seed; else None.

    What a line of the layout holds beyond its numbers, the beta, revenue
    and label k the header fixes among them, is its literal text, which
    ``parse_lines`` has matched.
    """
    numbers = parse_lines(text, rows, layout)
    if numbers is None:
        return None
    floats, ints = numbers
    idx, seeds, products = ints[:, 0], ints[:, 1], ints[:, 2:]
    # Above 2**63 an integer is no int64: _record_columns words such a product's fault.
    if (products >> _U63).any() or idx.tolist() != expected or not np.array_equal(seeds, _record_seeds(master_seed, expected)):
        return None
    shapes = dict(zip(_COLUMNS, (shape for shape, _ in _layout(spec))))
    sizes = [math.prod(shapes[name]) for name in _FLOAT_COLUMNS]
    # Each column a copy of its own, so that the reader can drop the parts of one once it is joined.
    columns = dict(zip(_FLOAT_COLUMNS, (part.copy() for part in np.split(floats, np.cumsum(sizes)[:-1], axis=1))))
    columns.update(idx=idx.astype(np.int64), blocks=products.astype(np.int64))
    return [columns[name].reshape(rows, *shapes[name]) for name in _COLUMNS]


def _record_columns(rows: list, line: int, spec: GenSpec, master_seed: int, expected) -> list:
    """The columns of parsed records ``rows``, the first on file line ``line``, checked field by field.

    ``expected`` yields, in order, the idx each record of the file must
    carry; the records take the next ``len(rows)`` of them.  The worded
    checks of a record chunk: a fault raises naming its first line.  The
    label products stay as the file lists them.
    """
    idx, seed, y, alpha, beta, F, lam, revenue, q, label, r_a = list(zip(*rows)) or [()] * len(_RECORD_KEYS)
    expected = list(islice(expected, len(rows)))
    # A record beyond the last expected one meets None.
    _reject(line, [type(i) is not int or i != e for i, e in zip_longest(idx, expected)],
            "idx must run through range(count) without the excluded indices, in order")
    seeds = _record_seeds(master_seed, expected).tolist()
    _reject(line, [type(s) is not int or s != e for s, e in zip(seed, seeds)],
            "seed must be record_seed(master_seed, idx), as seed_mix splitmix64 declares")
    terms = _file_revenue(spec)
    _reject(line, [r != terms for r in revenue], f"revenue must be the header's spec revenue {terms}")
    try:
        labels = [(d["per_segment"], d["k"]) for d in label]
    except (KeyError, TypeError):
        labels = [_fields(d, ("per_segment", "k"), f"line {lineno}", "label") for lineno, d in enumerate(label, start=line)]
    _reject(line, [type(k) is not int or k != spec.k for _, k in labels], f"label k must be the integer {spec.k}")
    _reject(line, [type(r) not in (int, float) for r in r_a], "r_a must be a number")
    values = (idx, y, alpha, F, lam, q, [b for b, _ in labels], r_a)
    columns = [_column(v, line, shape, dtype, key) for v, key, (shape, dtype) in zip(values, _COLUMN_KEYS, _layout(spec))]
    # Built once y holds (n, m) numbers, so that a header's n or m asks for no more than the records hold.
    # Compared as JSON values, so 1 and true pass for 1.0, as they do in numeric fields.
    ones = [[1.0] * spec.m] * spec.n if rows else None
    _reject(line, [b != ones for b in beta], "beta must be all 1.0 under the header's spec")
    # _column checked the labels' shape, but it would cast a float or a boolean to a product.
    if set(map(type, chain.from_iterable(chain.from_iterable(values[6])))) - {int}:
        _reject(line, [any(type(i) is not int for block in b for i in block) for b, _ in labels],
                "label products must be JSON integers")
    return columns


def _reject(line: int, bad, message: str) -> None:
    """Name the line of the first record flagged in ``bad``, which covers records from line ``line`` on."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise DatasetFormatError(f"line {line + rows[0]}: {message}")


# Products past int64 make a float column, whose cast falls outside the label rule's 1..n; numpy would warn.
@np.errstate(invalid="ignore")
def _column(values, line: int, shape: tuple, dtype, name: str) -> np.ndarray:
    """A field of records from line ``line`` on as one (N, *shape) array; errors name the first bad line.

    Only JSON numbers and booleans are accepted: a string, null or an
    integer too large for 64 bits is an error, not a value to convert.
    """
    if not values:
        return np.empty((0,) + shape, dtype)
    # Flattened level by level while each holds lists of its size: numpy reads a flat list faster, to the same dtype.
    flat = values
    try:
        for size in shape:
            if set(map(len, flat)) != {size}:
                raise ValueError
            flat = list(chain.from_iterable(flat))
        column = np.array(flat)
        column = column.reshape(len(values), *shape) if column.ndim == 1 else None
    except (TypeError, ValueError):
        column = None
    if column is None or column.dtype.kind not in "biuf":
        # Only this error path looks at the records one by one.
        for lineno, value in enumerate(values, start=line):
            try:
                row = np.array(value)
            except ValueError as e:
                raise DatasetFormatError(f"line {lineno}: invalid {name} ({e})") from None
            if row.dtype.kind not in "biuf":
                raise DatasetFormatError(f"line {lineno}: {name} must hold numbers that fit in 64 bits")
            if row.shape != shape:
                raise DatasetFormatError(f"line {lineno}: {name} must have shape {shape}")
    return column.astype(dtype, copy=False)


# How far a stored r_a may lie from a fresh evaluation of its label.
_LABEL_TOL = 1e-12


def verify_labels(dataset: LabeledDataset) -> None:
    """Assert every stored r_a and label is what labeling makes of its record's ``q``.

    An r_a must match a fresh revenue evaluation of its label within
    ``_LABEL_TOL``, and a label ``_best_blocks``' optimum bit for bit.
    Cheap consistency check used by file consumers; raises
    :class:`DatasetFormatError` on the first mismatch, r_a first.
    """
    w = _block_revenue(dataset.q, dataset.lam, dataset.spec.revenue.per_support, dataset.blocks)
    # Written so that a NaN on either side fails the check.
    bad = np.flatnonzero(~(np.abs(w - dataset.r_a) <= _LABEL_TOL))
    if bad.size:
        t = bad[0]
        raise DatasetFormatError(
            f"record {dataset.idx[t]}: stored r_a {float(dataset.r_a[t])!r} differs from evaluated {float(w[t])!r}"
        )
    best = _best_blocks(dataset.q, dataset.lam, dataset.spec.k, dataset.spec.mode)
    bad = np.flatnonzero((best != dataset.blocks).any(axis=(1, 2)))
    if bad.size:
        t = bad[0]
        # Products 1-based, as files list them.
        raise DatasetFormatError(
            f"record {dataset.idx[t]}: stored label {(dataset.blocks[t] + 1).tolist()} differs from "
            f"the optimal label {(best[t] + 1).tolist()} at its q"
        )
