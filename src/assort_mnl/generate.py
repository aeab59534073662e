"""Seeded synthesis of market instances and labeled assortment datasets.

Generation is deterministic: an instance is a pure function of
``(spec, seed)`` and a dataset record's seed is a pure function of
``(master_seed, record index)``, so datasets regenerate byte-identically
and records could be produced in any order or in parallel without
changing the result.

Datasets persist as JSON Lines.  Line 1 is a header object::

    {"format_version": 1, "spec": {...}, "master_seed": ..., "count": ...,
     "seed_mix": "splitmix64", "excluded": [...]}

and each following line is one record::

    {"idx": ..., "seed": ..., "y": [[...]], "alpha": [[...]],
     "beta": [[...]], "F": [...], "lambda": [...],
     "revenue": {"a": ..., "b": ..., "omega": ..., "xi": ...},
     "q": [[...]], "label": {"per_segment": [[...]], "k": ...}, "r_a": ...}

Product indices are 1-based inside files and 0-based in memory.  Floats
are serialized with ``repr`` precision, so a read after a write
reproduces every number exactly.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ONE_START,
    PER_SEGMENT,
    SHARED,
    Assortment,
    ProblemInstance,
    RevenueTerms,
    _best_blocks,
    _block_revenue,
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
    "normalize_weights",
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

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class DatasetFormatError(ValueError):
    """A dataset or model file could not be parsed or fails its schema."""


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
    m: int
    M: float = 50.0
    network_effects: bool = True
    f_mode: str = UNIT_SCALE
    revenue: RevenueTerms = RevenueTerms()
    k: int = 1
    mode: str = SHARED

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in [1, {self.n}], got {self.k}")
        if self.f_mode not in (UNIT_SCALE, DOLLAR_SCALE):
            raise ValueError(f"f_mode must be {UNIT_SCALE!r} or {DOLLAR_SCALE!r}, got {self.f_mode!r}")
        if self.mode not in (SHARED, PER_SEGMENT):
            raise ValueError(f"mode must be {SHARED!r} or {PER_SEGMENT!r}, got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class DatasetRecord:
    """One labeled example: instance, its support matrix, and the optimum."""

    idx: int
    seed: int
    instance: ProblemInstance
    q: np.ndarray
    label: Assortment
    r_a: float

    def __eq__(self, other):
        if not isinstance(other, DatasetRecord):
            return NotImplemented
        return (
            self.idx == other.idx
            and self.seed == other.seed
            and self.instance == other.instance
            and np.array_equal(self.q, other.q)
            and self.label == other.label
            and self.r_a == other.r_a
        )


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A reproducible sequence of labeled examples.

    ``count`` is the requested number of records; indices listed in
    ``excluded`` hit the fixed-point iteration cap and carry no record.
    """

    spec: GenSpec
    master_seed: int
    count: int
    records: tuple[DatasetRecord, ...]
    excluded: tuple[int, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.master_seed == other.master_seed
            and self.count == other.count
            and self.excluded == other.excluded
            and len(self.records) == len(other.records)
            and all(a == b for a, b in zip(self.records, other.records))
        )


def record_seed(master_seed: int, index: int) -> int:
    """Per-record seed: SplitMix64 output ``index`` steps from ``master_seed``.

    A pure 64-bit mix of (master_seed, index), so record seeds are
    independent of generation order.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    z = (int(master_seed) + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def normalize_weights(raw) -> np.ndarray:
    """Scale nonnegative draws to a probability vector: ``raw / sum(raw)``."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 1:
        raise ValueError("raw weights must be a nonempty 1-d sequence")
    if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
        raise ValueError("raw weights must be finite and nonnegative")
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("raw weights must not all be zero")
    return raw / total


def generate_instance(spec: GenSpec, seed: int) -> ProblemInstance:
    """Draw one instance from ``spec`` with a deterministic generator.

    Draw order is fixed (y, alpha, F, lambda).  alpha is always consumed
    from the stream and only zeroed afterwards when network effects are
    off, so flipping the toggle under a shared seed changes nothing else.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.n, spec.m
    y = rng.uniform(0.0, spec.M, size=(n, m))
    alpha = rng.uniform(0.0, spec.M, size=(n, m))
    if not spec.network_effects:
        alpha = np.zeros((n, m))
    if spec.f_mode == UNIT_SCALE:
        F = rng.uniform(0.0, spec.M, size=n)
    else:
        F = rng.integers(1, DOLLAR_MAX + 1, size=n).astype(float)
    lam = normalize_weights(rng.uniform(0.0, spec.M, size=m))
    return ProblemInstance(
        y=y, alpha=alpha, beta=np.ones((n, m)), F=F, lam=lam, revenue=spec.revenue
    )


def generate_dataset(spec: GenSpec, count: int, master_seed: int) -> LabeledDataset:
    """Generate ``count`` instances and label each with its optimal assortment.

    Record ``t`` draws its instance from seed ``record_seed(master_seed, t)``.
    The instances are then stacked and their largest fixed points solved in
    one array iteration, each record stopping on its own, and
    :func:`relabel_dataset` labels them all at once with the exact optima.
    Records whose fixed point fails to converge are dropped and reported in
    ``excluded``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    seeds = [record_seed(master_seed, idx) for idx in range(count)]
    instances = [generate_instance(spec, seed) for seed in seeds]
    stacked = _stack(instances, "y", "alpha", "beta", "F", "lam")
    q, _, _, converged = _solve_stack(*stacked, ONE_START, DEFAULT_TOL, DEFAULT_MAX_ITER)
    records = tuple(
        DatasetRecord(idx=idx, seed=seeds[idx], instance=instances[idx], q=q[idx], label=None, r_a=None)
        for idx in np.flatnonzero(converged).tolist()
    )
    unlabeled = LabeledDataset(
        spec=spec,
        master_seed=int(master_seed),
        count=count,
        records=records,
        excluded=tuple(np.flatnonzero(~converged).tolist()),
    )
    return relabel_dataset(unlabeled)


def relabel_dataset(dataset: LabeledDataset, k=None, mode=None) -> LabeledDataset:
    """Recompute labels of an existing dataset under a new ``k`` or ``mode``.

    ``q`` depends on neither ``k`` nor ``mode``, so records keep their
    instance, seed and stored ``q`` and ``excluded`` carries over; label
    and r_a are recomputed.  Useful for sweeping assortment size over one
    shared set of instances.
    """
    spec = replace(
        dataset.spec,
        k=dataset.spec.k if k is None else k,
        mode=dataset.spec.mode if mode is None else mode,
    )
    if not dataset.records:
        return replace(dataset, spec=spec)
    q, lam, per_support = _stack(dataset.records, "q", "instance.lam", "instance.revenue.per_support")
    blocks = _best_blocks(q, lam, spec.k, spec.mode)
    r_a = _block_revenue(q, lam, per_support, blocks)
    records = tuple(
        replace(rec, label=Assortment(per_segment=b, k=spec.k), r_a=w)
        for rec, b, w in zip(dataset.records, blocks.tolist(), r_a.tolist())
    )
    return replace(dataset, spec=spec, records=records)


def _stack(records, *fields) -> list[np.ndarray]:
    """Record attributes (dotted names) as arrays with a leading record axis."""
    if not records:
        raise ValueError("no records to stack")
    return [np.array([attrgetter(f)(rec) for rec in records]) for f in fields]


def _revenue_to_dict(rev: RevenueTerms) -> dict:
    return {"a": rev.a, "b": rev.b, "omega": rev.omega, "xi": rev.xi}


def _revenue_from_dict(d: dict, where: str) -> RevenueTerms:
    if not isinstance(d, dict):
        raise DatasetFormatError(f"{where}: revenue must be a JSON object")
    try:
        return RevenueTerms(a=d["a"], b=d["b"], omega=d["omega"], xi=d["xi"])
    except KeyError as e:
        raise DatasetFormatError(f"{where}: revenue is missing field {e.args[0]!r}") from None


def spec_to_dict(spec: GenSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "M": spec.M,
        "network_effects": spec.network_effects,
        "f_mode": spec.f_mode,
        "revenue": _revenue_to_dict(spec.revenue),
        "k": spec.k,
        "mode": spec.mode,
    }


def spec_from_dict(d: dict, where: str = "spec") -> GenSpec:
    if not isinstance(d, dict):
        raise DatasetFormatError(f"{where}: spec must be a JSON object")
    try:
        return GenSpec(
            n=d["n"],
            m=d["m"],
            M=d["M"],
            network_effects=d["network_effects"],
            f_mode=d["f_mode"],
            revenue=_revenue_from_dict(d["revenue"], where),
            k=d["k"],
            mode=d["mode"],
        )
    except KeyError as e:
        raise DatasetFormatError(f"{where}: missing field {e.args[0]!r}") from None
    except DatasetFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"{where}: invalid spec ({e})") from None


def _record_to_dict(rec: DatasetRecord) -> dict:
    inst = rec.instance
    return {
        "idx": rec.idx,
        "seed": rec.seed,
        "y": inst.y.tolist(),
        "alpha": inst.alpha.tolist(),
        "beta": inst.beta.tolist(),
        "F": inst.F.tolist(),
        "lambda": inst.lam.tolist(),
        "revenue": _revenue_to_dict(inst.revenue),
        "q": rec.q.tolist(),
        "label": {
            "per_segment": [[i + 1 for i in block] for block in rec.label.per_segment],
            "k": rec.label.k,
        },
        "r_a": rec.r_a,
    }


def _load_object(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"line {lineno}: invalid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise DatasetFormatError(
            f"line {lineno}: expected a JSON object, got {type(obj).__name__}"
        )
    return obj


def _get(obj: dict, key: str, lineno: int):
    try:
        return obj[key]
    except KeyError:
        raise DatasetFormatError(f"line {lineno}: missing field {key!r}") from None


def _record_from_dict(obj: dict, lineno: int, spec: GenSpec) -> DatasetRecord:
    label_obj = _get(obj, "label", lineno)
    try:
        instance = ProblemInstance(
            y=_get(obj, "y", lineno),
            alpha=_get(obj, "alpha", lineno),
            beta=_get(obj, "beta", lineno),
            F=_get(obj, "F", lineno),
            lam=_get(obj, "lambda", lineno),
            revenue=_revenue_from_dict(_get(obj, "revenue", lineno), f"line {lineno}"),
        )
        label = Assortment(
            per_segment=tuple(
                tuple(int(i) - 1 for i in block)
                for block in _get(label_obj, "per_segment", lineno)
            ),
            k=_get(label_obj, "k", lineno),
        )
        q = np.array(_get(obj, "q", lineno), dtype=float)
        q.setflags(write=False)
        _check_fits_spec(instance, q, label, spec, lineno)
        idx, seed, r_a = (_get(obj, key, lineno) for key in ("idx", "seed", "r_a"))
        if type(idx) is not int or type(seed) is not int:
            raise DatasetFormatError(f"line {lineno}: idx and seed must be integers")
        if type(r_a) not in (int, float) or not math.isfinite(r_a):
            raise DatasetFormatError(f"line {lineno}: r_a must be a finite number, got {r_a!r}")
        return DatasetRecord(idx=idx, seed=seed, instance=instance, q=q, label=label, r_a=r_a)
    except DatasetFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"line {lineno}: invalid record ({e})") from None


def _check_fits_spec(instance, q, label, spec: GenSpec, lineno: int) -> None:
    # Relabeling and training trust the stored q and label, so both are
    # checked here once against the header's spec; NaN fails the range test.
    n, m = spec.n, spec.m
    if instance.y.shape != (n, m) or q.shape != (n, m):
        raise DatasetFormatError(f"line {lineno}: instance and q must have shape {(n, m)}")
    if not (0.0 <= q.min() and q.max() <= 1.0):
        raise DatasetFormatError(f"line {lineno}: q must lie in [0, 1]")
    blocks = label.per_segment
    if label.k != spec.k or len(blocks) != m or max(b[-1] for b in blocks) >= n:
        raise DatasetFormatError(
            f"line {lineno}: label must have {m} block(s) of k={spec.k} products in 1..{n}"
        )


def write_dataset(dataset: LabeledDataset, path) -> None:
    """Write a dataset as JSON Lines (see the module docstring for the schema), atomically."""
    header = {
        "format_version": FORMAT_VERSION,
        "spec": spec_to_dict(dataset.spec),
        "master_seed": dataset.master_seed,
        "count": dataset.count,
        "seed_mix": "splitmix64",
        "excluded": list(dataset.excluded),
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    lines.extend(
        json.dumps(_record_to_dict(rec), separators=(",", ":")) for rec in dataset.records
    )
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text: str) -> None:
    """Replace ``path`` by a file holding ``text``, or leave it untouched on failure.

    The text goes to a fresh temporary file in the same directory, which
    ``os.replace`` then moves over ``path``; on any failure the temporary
    file is removed and the error propagates.
    """
    path = Path(path)
    # Opened with "x" rather than made by tempfile.mkstemp, so the file gets
    # the permissions a plain open gives it instead of owner-only ones.
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dataset(path) -> LabeledDataset:
    """Read a JSON Lines dataset; inverse of :func:`write_dataset`.

    Raises :class:`DatasetFormatError` on malformed content, naming the
    offending line; nothing partial is ever returned.  Each record's
    instance, ``q`` and label must also fit the header's spec, with ``q``
    in [0, 1].
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise DatasetFormatError(f"not UTF-8 text ({e.reason})") from None
    if not lines or not lines[0].strip():
        raise DatasetFormatError("line 1: missing header")
    header = _load_object(lines[0], 1)
    version = _get(header, "format_version", 1)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    spec = spec_from_dict(_get(header, "spec", 1), "line 1")
    count, excluded, master_seed = _header_fields(header)

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise DatasetFormatError(f"line {lineno}: blank line inside record block")
        records.append(_record_from_dict(_load_object(line, lineno), lineno, spec))
    if len(records) + len(excluded) != count:
        raise DatasetFormatError(
            f"expected {count} records ({len(excluded)} excluded), found {len(records)}"
        )
    return LabeledDataset(
        spec=spec,
        master_seed=master_seed,
        count=count,
        records=tuple(records),
        excluded=excluded,
    )


def _header_fields(header: dict) -> tuple[int, tuple[int, ...], int]:
    """``count``, ``excluded`` and ``master_seed`` of a header, type-checked."""
    count, excluded, master_seed = (_get(header, key, 1) for key in ("count", "excluded", "master_seed"))
    # write_dataset gives a dataset without records a count of 0.
    if type(count) is not int or count < 0:
        raise DatasetFormatError(f"line 1: count must be an integer >= 0, got {count!r}")
    if not isinstance(excluded, list):
        raise DatasetFormatError(f"line 1: excluded must be a list, got {excluded!r}")
    if not all(type(i) is int and 0 <= i < count for i in excluded) or len(set(excluded)) != len(excluded):
        raise DatasetFormatError(f"line 1: excluded must list distinct record indices in [0, {count})")
    if type(master_seed) is not int:
        raise DatasetFormatError(f"line 1: master_seed must be an integer, got {master_seed!r}")
    return count, tuple(excluded), master_seed


def verify_labels(dataset: LabeledDataset, tol: float = 1e-12) -> None:
    """Assert every stored r_a matches a fresh revenue evaluation of its label.

    Cheap consistency check used by file consumers; raises
    :class:`DatasetFormatError` on the first mismatch.
    """
    if not dataset.records:
        return
    q, lam, per_support, labels, r_a = _stack(
        dataset.records, "q", "instance.lam", "instance.revenue.per_support", "label.per_segment", "r_a"
    )
    w = _block_revenue(q, lam, per_support, labels)
    # Written so that a NaN on either side fails the check.
    bad = np.flatnonzero(~(np.abs(w - r_a) <= tol))
    if bad.size:
        rec, w = dataset.records[bad[0]], float(w[bad[0]])
        raise DatasetFormatError(
            f"record {rec.idx}: stored r_a {rec.r_a!r} differs from evaluated {w!r}"
        )
