"""Tests for seeded instance/dataset generation and JSON Lines persistence."""

import copy
import dataclasses
import functools
import gc
import hashlib
import json
import re
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assort_mnl import (
    DatasetFormatError,
    GenSpec,
    generate_dataset,
    generate_instance,
    read_dataset,
    record_seed,
    relabel_dataset,
    verify_labels,
    write_dataset,
)
from assort_mnl import generate
from assort_mnl.core import PER_SEGMENT, SHARED
from assort_mnl.generate import DOLLAR_SCALE, UNIT_SCALE, _record_seeds


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, m=1)
        with pytest.raises(ValueError):
            GenSpec(n=2, m=0)
        with pytest.raises(ValueError):
            GenSpec(n=2, m=1, M=0.0)
        with pytest.raises(ValueError):
            GenSpec(n=2, m=1, k=3)
        with pytest.raises(ValueError):
            GenSpec(n=2, m=1, f_mode="euro")
        with pytest.raises(ValueError):
            GenSpec(n=2, m=1, mode="both")

    @pytest.mark.parametrize("M", [float("inf"), float("nan"), -float("inf"), 10**400])
    def test_non_finite_M_rejected(self, M):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            GenSpec(n=2, m=1, M=M)

    @pytest.mark.parametrize(
        "field,value",
        [("n", 2.0), ("n", True), ("m", "1"), ("k", 1.0), ("k", None), ("M", True), ("M", "50"),
         ("network_effects", "no"), ("network_effects", 1)],
    )
    def test_field_types_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be"):
            GenSpec(**{"n": 2, "m": 1, field: value})

    def test_numpy_integers_become_ints(self):
        spec = GenSpec(n=np.int64(3), m=np.uint8(2), k=np.int32(2), M=50)
        assert (type(spec.n), type(spec.m), type(spec.k)) == (int, int, int)
        assert spec == GenSpec(n=3, m=2, k=2, M=50)


class TestRecordSeed:
    def test_pure_and_64bit(self):
        s1 = record_seed(123, 0)
        s2 = record_seed(123, 0)
        assert s1 == s2
        assert 0 <= s1 < 2**64

    def test_spread(self):
        seeds = {record_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert record_seed(7, 0) != record_seed(8, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            record_seed(1, -1)

    @pytest.mark.parametrize("master_seed", [-1, 2**64, 2**70])
    def test_master_seed_outside_64_bits_rejected(self, master_seed):
        # The mix reads a master seed modulo 2**64: -1 would alias 2**64 - 1.
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\), got "):
            record_seed(master_seed, 0)

    @pytest.mark.parametrize("master_seed,index", [(1.5, 0), (np.float64(7.9), 0), (True, 0), ("1", 0), (1, 0.5), (1, 1.0), (1, None)])
    def test_seed_and_index_must_be_integers(self, master_seed, index):
        # A float master seed once mixed as its floor, and a float index as a number.
        name = "index" if isinstance(master_seed, int) and not isinstance(master_seed, bool) else "master_seed"
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            record_seed(master_seed, index)

    def test_numpy_integers_mix_as_their_ints(self):
        assert record_seed(np.uint64(2**64 - 1), np.int32(3)) == record_seed(2**64 - 1, 3)

    @pytest.mark.parametrize("master_seed", [0, -1, 2**64 - 1, 2**70])
    def test_array_mix_is_the_scalar_formula(self, master_seed):
        mask = 2**64 - 1

        def splitmix64(index):
            z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        indices = list(range(300)) + [2**40, 2**63 - 1]
        seeds = _record_seeds(master_seed, indices)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [splitmix64(i) for i in indices]
        if 0 <= master_seed < 2**64:
            assert [record_seed(master_seed, i) for i in indices[:20]] == seeds.tolist()[:20]


class TestGenerateInstance:
    def test_ranges(self):
        spec = GenSpec(n=4, m=2, M=50.0)
        inst = generate_instance(spec, seed=99)
        assert np.all((inst.y >= 0) & (inst.y <= 50.0))
        assert np.all((inst.alpha >= 0) & (inst.alpha <= 50.0))
        assert np.all((inst.F >= 0) & (inst.F <= 50.0))
        assert np.all(inst.beta == 1.0)
        assert np.all(inst.lam >= 0)
        assert abs(inst.lam.sum() - 1.0) <= 1e-12

    def test_single_segment_weight_exactly_one(self):
        inst = generate_instance(GenSpec(n=2, m=1), seed=5)
        assert inst.lam[0] == 1.0

    def test_dollar_scale_integers(self):
        spec = GenSpec(n=50, m=1, f_mode=DOLLAR_SCALE)
        inst = generate_instance(spec, seed=13)
        assert np.all(inst.F == np.round(inst.F))
        assert np.all((inst.F >= 1) & (inst.F <= 10_000))

    def test_network_toggle_pairs_all_other_draws(self):
        on = generate_instance(GenSpec(n=3, m=2, network_effects=True), seed=42)
        off = generate_instance(GenSpec(n=3, m=2, network_effects=False), seed=42)
        assert np.all(off.alpha == 0.0)
        assert np.any(on.alpha > 0.0)
        assert np.array_equal(on.y, off.y)
        assert np.array_equal(on.F, off.F)
        assert np.array_equal(on.lam, off.lam)

    def test_deterministic(self):
        spec = GenSpec(n=3, m=2)
        assert generate_instance(spec, seed=7) == generate_instance(spec, seed=7)
        assert generate_instance(spec, seed=7) != generate_instance(spec, seed=8)

    def test_statistical_sanity(self):
        spec = GenSpec(n=2, m=1, M=50.0)
        ys = [generate_instance(spec, record_seed(0, i)).y.mean() for i in range(500)]
        assert abs(np.mean(ys) - 25.0) <= 2.5


class TestGenerateDataset:
    def test_determinism(self):
        spec = GenSpec(n=2, m=1, k=1)
        d1 = generate_dataset(spec, count=30, master_seed=11)
        d2 = generate_dataset(spec, count=30, master_seed=11)
        assert d1 == d2
        d3 = generate_dataset(spec, count=30, master_seed=12)
        assert d1 != d3

    def test_labels_are_brute_force_optima(self):
        spec = GenSpec(n=4, m=1, k=2)
        data = generate_dataset(spec, count=25, master_seed=3)
        for rec in data.records:
            factor = rec.instance.revenue.per_support
            contrib = rec.q @ rec.instance.lam
            best = max(
                factor * contrib[list(c)].sum() for c in combinations(range(4), 2)
            )
            assert rec.r_a == pytest.approx(best, abs=1e-12)

    def test_full_set_when_k_equals_n(self):
        data = generate_dataset(GenSpec(n=2, m=1, k=2), count=10, master_seed=1)
        assert all(rec.label.per_segment == ((0, 1),) for rec in data.records)

    def test_stored_revenue_matches_label(self):
        data = generate_dataset(GenSpec(n=3, m=2, k=1, mode=PER_SEGMENT), 15, 21)
        verify_labels(data)

    def test_wrong_revenue_rejected(self):
        data = generate_dataset(GenSpec(n=3, m=1, k=1), 3, 21)
        r_a = data.r_a.copy()
        r_a[1] += 1e-9
        with pytest.raises(DatasetFormatError, match=f"record {data.idx[1]}: stored r_a"):
            verify_labels(dataclasses.replace(data, r_a=r_a))

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_dataset(GenSpec(n=2, m=1), count=0, master_seed=0)

    def test_dataset_larger_than_memory_refused_before_drawing(self, monkeypatch):
        # About 1.08e14 bytes at the peak, more than any machine holds.
        def draw(*args):
            raise AssertionError("_draw ran")

        monkeypatch.setattr(generate, "_draw", draw)
        # Physical memory sets the limit here, whatever cgroup limit the host has.
        monkeypatch.setattr(generate, "_CGROUP_MEMORY_LIMITS", ())
        monkeypatch.setattr(generate, "_memory_limit", functools.cache(generate._memory_limit.__wrapped__))
        with pytest.raises(ValueError, match=r"needs about 1.08e\+05 GB to generate, more than the machine's [\d.]+ GB"):
            generate_dataset(GenSpec(n=10**6, m=10**3), count=10**3, master_seed=0)

    @pytest.mark.parametrize(
        "name,text,refused",
        [
            ("memory.max", "1000000\n", True),
            ("memory.limit_in_bytes", "1000000\n", True),
            # cgroup v2 reads "max", and v1 a number near 2**63, for no limit.
            ("memory.max", "max\n", False),
            ("memory.limit_in_bytes", "9223372036854771712\n", False),
            ("memory.max", None, False),
            ("memory.max", "directory", False),
        ],
    )
    def test_cgroup_memory_limit_refuses_before_drawing(self, tmp_path, monkeypatch, name, text, refused):
        # About 43 MB at the peak: within this machine's memory, not within a 1 MB limit.
        class Drew(Exception):
            pass

        def draw(*args):
            raise Drew

        monkeypatch.setattr(generate, "_draw", draw)
        monkeypatch.setattr(generate, "_CGROUP_MEMORY_LIMITS", (tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"))
        # The limit is read once per process: this test reads it afresh.
        monkeypatch.setattr(generate, "_memory_limit", functools.cache(generate._memory_limit.__wrapped__))
        if text == "directory":
            (tmp_path / name).mkdir()
        elif text is not None:
            (tmp_path / name).write_text(text)
        spec = GenSpec(n=100, m=4)
        if refused:
            with pytest.raises(ValueError, match=r"needs about 0.0432 GB to generate, more than the container's memory limit of 0.001 GB"):
                generate_dataset(spec, count=1000, master_seed=0)
        else:
            with pytest.raises(Drew):
                generate_dataset(spec, count=1000, master_seed=0)

    @pytest.mark.parametrize(
        "count,master_seed,name",
        [(3, 1.5, "master_seed"), (3, np.float64(7.9), "master_seed"), (3, "1", "master_seed"), (3, None, "master_seed"),
         (2.5, 1, "count"), ("3", 1, "count"), (True, 1, "count"), (3.0, 1, "count")],
    )
    def test_seed_and_count_must_be_integers_before_drawing(self, monkeypatch, count, master_seed, name):
        # A float master seed once drew its floor's dataset, and a float
        # count drew and solved its ceiling's records before it raised.
        def draw(*args):
            raise AssertionError("_draw ran")

        monkeypatch.setattr(generate, "_draw", draw)
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            generate_dataset(GenSpec(n=2, m=1), count, master_seed)

    def test_numpy_integer_count_and_seed_generate_as_their_ints(self):
        data = generate_dataset(GenSpec(n=2, m=1), np.int64(3), np.uint64(5))
        assert (type(data.count), type(data.master_seed)) == (int, int)
        assert data == generate_dataset(GenSpec(n=2, m=1), 3, 5)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_master_seed_must_fit_64_bits(self, master_seed):
        # The seed mix reads a master seed modulo 2**64: -1 would alias 2**64 - 1.
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\), got "):
            generate_dataset(GenSpec(n=2, m=1), count=5, master_seed=master_seed)

    def test_overflowing_utilities_name_the_first_record(self):
        # Near the float maximum, V(1) = y - F + alpha overflows for some records.
        spec, count, master_seed = GenSpec(n=3, m=1, M=1e308), 2000, 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^record (\d+): mean utilities must be finite$") as caught:
                generate_dataset(spec, count, master_seed)
        named = int(caught.value.args[0].split(":")[0].split()[1])
        y, alpha, F = (np.stack([getattr(generate_instance(spec, record_seed(master_seed, t)), f) for t in range(named + 1)])
                       for f in ("y", "alpha", "F"))
        with np.errstate(over="ignore"):
            overflows = ~np.isfinite(y - F[..., None] + alpha).all(axis=(1, 2))
        assert overflows.tolist() == [False] * named + [True]


class TestRelabel:
    def test_k_sweep_keeps_instances(self):
        base = generate_dataset(GenSpec(n=5, m=1, k=1), count=12, master_seed=9)
        swept = relabel_dataset(base, k=3)
        assert swept.spec.k == 3
        assert len(swept.records) == len(base.records)
        for a, b in zip(base.records, swept.records):
            assert a.instance == b.instance
            assert b.label.k == 3
            assert b.r_a >= a.r_a  # revenue is monotone in k

    @pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
    def test_equals_generating_under_the_new_spec(self, mode):
        # The stored q is reused, so relabeling must reproduce generation
        # under the new k and mode exactly, exclusions included.
        spec = GenSpec(n=5, m=2, k=1)
        base = generate_dataset(spec, count=40, master_seed=31)
        fresh = generate_dataset(dataclasses.replace(spec, k=3, mode=mode), 40, 31)
        assert relabel_dataset(base, k=3, mode=mode) == fresh

    def test_mode_switch(self):
        base = generate_dataset(GenSpec(n=2, m=2, k=1), count=8, master_seed=2)
        swept = relabel_dataset(base, mode=PER_SEGMENT)
        assert swept.spec.mode == PER_SEGMENT
        for a, b in zip(base.records, swept.records):
            assert b.r_a >= a.r_a - 1e-12


# Each edit of a valid n=3, m=2, k=2 dataset of 40 records, with the
# ValueError it meets: a record and the rule it breaks, or the count.
_OUT_OF_RULE = {
    "idx-shifted-up": (lambda d: dataclasses.replace(d, idx=d.idx + 7), r"^record 40: idx must increase strictly"),
    "idx-shifted-down": (lambda d: dataclasses.replace(d, idx=d.idx - 1), r"^record -1: idx must increase strictly"),
    "y-above-M": (lambda d: dataclasses.replace(d, y=d.y + 100.0), r"^record 0: y must lie in \[0, M\]"),
    "q-doubled": (lambda d: dataclasses.replace(d, q=d.q * 2), r"^record 0: q must lie in \[0, 1\]$"),
    "lam-doubled": (lambda d: dataclasses.replace(d, lam=d.lam * 2), r"^record 0: lam must sum to 1 within 1e-12$"),
    "blocks-shifted": (
        lambda d: dataclasses.replace(d, blocks=d.blocks + 5),
        r"^record 0: label must have 2 block\(s\) of k=2 distinct products in 1\.\.3$",
    ),
    "excluded-outside-count": (
        lambda d: dataclasses.replace(d, excluded=(99,)), r"^excluded must list distinct record indices in \[0, 40\)$",
    ),
    "y-drops-a-segment": (lambda d: dataclasses.replace(d, y=d.y[:, :1]), r"^y must have shape \(40, 3, 2\), got \(40, 1, 2\)$"),
    # A subset is a dataset, but a file holds every record.
    "subset-written-as-is": (lambda d: d.take(slice(0, 30)), r"^expected 40 records \(0 excluded\), found 30$"),
}


@functools.cache
def _base_dataset():
    return generate_dataset(GenSpec(n=3, m=2, k=2), 24, 5)


_ROWS = st.one_of(
    st.builds(slice, st.none() | st.integers(-30, 30), st.none() | st.integers(-30, 30), st.sampled_from([None, 1, 2, -1])),
    st.lists(st.integers(0, 10**6), max_size=30),
    st.lists(st.booleans(), min_size=24, max_size=24).map(np.array),
)
_FLOATS = st.sampled_from([float("nan"), float("inf"), -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.0000000000000002, 3.0, 50.0, 50.5, 1e300])
# One edit of a dataset: its records at some rows, the records of a mask with
# the others excluded, one entry of a column, its count, excluded or a spec field.
_EDITS = st.one_of(
    st.tuples(st.just("take"), _ROWS),
    st.tuples(st.just("drop"), st.lists(st.booleans(), min_size=24, max_size=24).map(np.array)),
    st.tuples(st.just("set"), st.sampled_from(["y", "alpha", "F", "lam", "q", "r_a"]), st.integers(0, 10**6), _FLOATS),
    st.tuples(st.just("set"), st.sampled_from(["idx", "blocks"]), st.integers(0, 10**6), st.integers(-3, 30)),
    st.tuples(st.just("count"), st.integers(-2, 2)),
    st.tuples(st.just("excluded"), st.lists(st.integers(-1, 30), max_size=3).map(tuple)),
    st.tuples(st.just("spec"), st.sampled_from([("M", 1.0), ("M", 100.0), ("network_effects", False), ("f_mode", DOLLAR_SCALE)])),
)


def _edited(data, edit):
    kind, *args = edit
    if kind == "take":
        # Indices taken modulo the records, and a mask fitted to them.
        rows = args[0]
        if isinstance(rows, list):
            rows = [row % len(data) for row in rows] if len(data) else []
        elif isinstance(rows, np.ndarray):
            rows = np.resize(rows, len(data))
        return data.take(rows)
    if kind == "drop":
        kept = np.resize(args[0], len(data))
        return dataclasses.replace(data.take(kept), excluded=data.excluded + tuple(data.idx[~kept].tolist()))
    if kind == "set":
        name, position, value = args
        column = getattr(data, name).copy()
        if column.size:
            column.flat[position % column.size] = value
        return dataclasses.replace(data, **{name: column})
    if kind == "count":
        return dataclasses.replace(data, count=data.count + args[0])
    if kind == "excluded":
        return dataclasses.replace(data, excluded=args[0])
    return dataclasses.replace(data, spec=dataclasses.replace(data.spec, **dict([args[0]])))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edits=st.lists(_EDITS, min_size=1, max_size=3))
def test_what_construction_and_write_let_through_reads_back(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("edited") / "data.jsonl"
    try:
        data = functools.reduce(_edited, edits, _base_dataset())
        write_dataset(data, path)
    except ValueError:
        assert not path.exists()
        return
    assert read_dataset(path) == data


def test_take_checks_only_the_order_of_idx(monkeypatch):
    # Records of a checked dataset keep its value rules, so a take runs
    # only the rule a subset can break; construction still decides them all,
    # and walks them where its verdict fails.
    data = generate_dataset(GenSpec(n=3, m=2), 20, 5)
    monkeypatch.setattr(generate, "_keeps_rules", lambda dataset: False)
    monkeypatch.setattr(generate, "_dataset_faults", lambda dataset: iter([("broken", np.zeros(len(dataset), bool))]))
    with pytest.raises(ValueError, match="broken"):
        dataclasses.replace(data, count=data.count)
    with pytest.raises(ValueError, match="broken"):
        generate.LabeledDataset(data.spec, data.master_seed, data.count, *(getattr(data, f) for f in generate._COLUMNS))
    assert data.take(slice(2, 9)).idx.tolist() == list(range(2, 9))
    picked = data.take([1, 4, 7])
    assert picked.idx.tolist() == [1, 4, 7] and picked.count == data.count
    for name in generate._COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(picked, name)[...] = 0
    for rows, first in (([4, 1], 1), ([3, 5, 5], 5), (slice(None, None, -1), 18)):
        with pytest.raises(ValueError, match=rf"^record {first}: idx must increase strictly"):
            data.take(rows)


def test_a_column_given_to_a_dataset_is_frozen(tmp_path):
    # A write through the caller's array would skip the rules that construction checked.
    data = generate_dataset(GenSpec(n=3, m=2), 20, 5)
    y = data.y.copy()
    edited = dataclasses.replace(data, y=y)
    with pytest.raises(ValueError, match="read-only"):
        y[0, 0, 0] = 1e9
    path = tmp_path / "data.jsonl"
    write_dataset(edited, path)
    assert read_dataset(path) == edited


# Valid datasets whose records the verdict tests below plant one fault in.
_VERDICT_SPECS = {
    "unit": GenSpec(n=4, m=2, k=2),
    "dollar": GenSpec(n=4, m=2, k=2, f_mode=DOLLAR_SCALE, mode=PER_SEGMENT),
    "no-network-effects": GenSpec(n=4, m=1, k=3, network_effects=False),
}


def _set_entry(name, value):
    """A fault that sets one entry of record ``row`` of column ``name`` to ``value(spec)``, at an entry ``rng`` picks."""
    def plant(data, row, rng):
        column = getattr(data, name).copy()
        entries = column.reshape(len(column), -1)
        entries[row, rng.integers(entries.shape[1])] = value(data.spec)
        return {name: column}
    return plant


def _edit_record(name, edit):
    """A fault that applies ``edit`` to a copy of record ``row`` of column ``name`` (a row of idx is the whole column)."""
    def plant(data, row, rng):
        column = getattr(data, name).copy()
        edit(column if name == "idx" else column[row], row, rng, data)
        return {name: column}
    return plant


def _swap_neighbours(idx, row, rng, data):
    row = min(row, len(idx) - 2)
    idx[row], idx[row + 1] = idx[row + 1], idx[row]


def _repeat_product(blocks, row, rng, data):
    block = blocks[rng.integers(len(blocks))]
    block[1] = block[0]


def _unsort_block(blocks, row, rng, data):
    block = blocks[rng.integers(len(blocks))]
    block[[0, 1]] = block[[1, 0]]


_ENTRY_FAULTS = {
    f"{name}-{label}": _set_entry(name, lambda spec, value=value: value)
    for name in ("y", "alpha", "F", "lam", "q", "r_a")
    for label, value in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf), ("minus-zero", -0.0), ("negative", -1.0))
}
_PLANTED_FAULTS = {
    **_ENTRY_FAULTS,
    "y-just-above-M": _set_entry("y", lambda spec: np.nextafter(spec.M, np.inf)),
    "alpha-just-above-M": _set_entry("alpha", lambda spec: np.nextafter(spec.M, np.inf)),
    "F-just-above-M": _set_entry("F", lambda spec: np.nextafter(spec.M, np.inf)),
    "F-not-whole-dollars": _set_entry("F", lambda spec: 1.5),
    "F-past-dollar-max": _set_entry("F", lambda spec: generate.DOLLAR_MAX + 1.0),
    "F-zero": _set_entry("F", lambda spec: 0.0),
    "alpha-subnormal": _set_entry("alpha", lambda spec: 5e-324),
    "q-just-above-1": _set_entry("q", lambda spec: np.nextafter(1.0, 2.0)),
    "r_a-huge": _set_entry("r_a", lambda spec: 1e308),
    "lam-sum-off-by-2e-12": _edit_record("lam", lambda lam, row, rng, data: lam.__setitem__(0, lam[0] + 2e-12)),
    "lam-sum-off-by-5e-13": _edit_record("lam", lambda lam, row, rng, data: lam.__setitem__(0, lam[0] + 5e-13)),
    "idx-out-of-order": _edit_record("idx", _swap_neighbours),
    "idx-negative": _edit_record("idx", lambda idx, row, rng, data: idx.__setitem__(0, -1)),
    "idx-at-count": _edit_record("idx", lambda idx, row, rng, data: idx.__setitem__(-1, data.count)),
    "idx-excluded": lambda data, row, rng: {"excluded": (int(data.idx[row]),)},
    "block-unsorted": _edit_record("blocks", _unsort_block),
    "block-repeats-a-product": _edit_record("blocks", _repeat_product),
    "block-product-n": _set_entry("blocks", lambda spec: spec.n),
    "block-product-negative": _set_entry("blocks", lambda spec: -1),
    "none": lambda data, row, rng: {},
}


def _outcome(check):
    """The message of the ValueError ``check()`` raises, or None."""
    try:
        check()
    except ValueError as e:
        return str(e)
    return None


def _assert_verdict_is_the_walk(data, **fields):
    """Construction over ``data`` with ``fields`` raises as the rule walk alone does, and the verdict passes what it passes."""
    planted = copy.copy(data)
    for name, value in fields.items():
        object.__setattr__(planted, name, value)
    walked = _outcome(lambda: generate._check(planted, generate._dataset_faults(planted)))
    columns = (getattr(planted, name) for name in generate._COLUMNS)
    built = _outcome(lambda: generate.LabeledDataset(planted.spec, planted.master_seed, planted.count, *columns, planted.excluded))
    assert built == walked
    # The verdict decides the record rules of a dataset whose header and layout hold.
    if _outcome(lambda: generate._check_layout(planted)) is None:
        assert generate._keeps_rules(planted) == (walked is None)
    return walked


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fault", sorted(_PLANTED_FAULTS))
@pytest.mark.parametrize("base", sorted(_VERDICT_SPECS))
def test_construction_names_what_the_rule_walk_names(base, fault, seed):
    data = generate_dataset(_VERDICT_SPECS[base], 30, 7)
    rng = np.random.default_rng([seed, sorted(_PLANTED_FAULTS).index(fault)])
    row = int(rng.integers(len(data)))
    walked = _assert_verdict_is_the_walk(data, **_PLANTED_FAULTS[fault](data, row, rng))
    if fault in ("none", "lam-sum-off-by-5e-13") or fault.endswith("minus-zero") and fault[0] not in "Fl":
        assert walked is None
    elif fault in _ENTRY_FAULTS and walked is not None or fault.startswith(("block", "lam", "idx-excluded")):
        assert walked.startswith(f"record {data.idx[row]}: "), walked


@pytest.mark.parametrize("base", sorted(_VERDICT_SPECS))
def test_every_rule_of_the_walk_has_a_planted_fault(base):
    # The verdict restates the walk's rules as bounds, so a rule added to the
    # walk alone would pass unseen unless some planted fault breaks it here.
    data = generate_dataset(_VERDICT_SPECS[base], 30, 7)
    rules = [rule for rule, _ in generate._dataset_faults(data)]
    named = set()
    for fault, plant in _PLANTED_FAULTS.items():
        walked = _assert_verdict_is_the_walk(data, **plant(data, 3, np.random.default_rng(0)))
        if walked is not None:
            named.add(re.sub(r"^record \d+: ", "", walked))
    assert [rule for rule in rules if rule not in named] == []


@pytest.mark.parametrize("base", sorted(_VERDICT_SPECS))
def test_an_empty_dataset_keeps_every_rule(base):
    empty = generate_dataset(_VERDICT_SPECS[base], 5, 7).take(slice(0, 0))
    assert _assert_verdict_is_the_walk(empty) is None
    assert _assert_verdict_is_the_walk(empty, count=0) is None
    assert _assert_verdict_is_the_walk(empty, count=-1) == "count must be >= 0, got -1"


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        spec = GenSpec(n=3, m=2, k=2, mode=SHARED)
        data = generate_dataset(spec, count=20, master_seed=17)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        assert read_dataset(path) == data

    def test_write_returns_the_sha256_of_the_file(self, tmp_path):
        data = generate_dataset(GenSpec(n=3, m=2, k=2), count=300, master_seed=17)
        path = tmp_path / "data.jsonl"
        assert write_dataset(data, path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_byte_identical_rewrites(self, tmp_path):
        spec = GenSpec(n=2, m=1)
        data = generate_dataset(spec, count=15, master_seed=4)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(data, p1)
        write_dataset(generate_dataset(spec, count=15, master_seed=4), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_indices_one_based_in_file(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1, k=2), count=1, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        import json

        record = json.loads(path.read_text().splitlines()[1])
        assert record["label"]["per_segment"] == [[1, 2]]

    def test_empty_records_header_only(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1), count=1, master_seed=0)
        empty = dataclasses.replace(data.take(slice(0, 0)), count=0)
        path = tmp_path / "empty.jsonl"
        write_dataset(empty, path)
        back = read_dataset(path)
        assert back.records == ()

    @pytest.mark.parametrize("master_seed", [-5, 2**64, 1.0, True])
    def test_master_seed_the_reader_refuses_is_refused_at_construction(self, master_seed):
        # A master seed of -5 would write the record seeds of 2**64 - 5
        # under a header that read_dataset refuses.
        data = generate_dataset(GenSpec(n=2, m=1), count=3, master_seed=5)
        error = TypeError if isinstance(master_seed, (bool, float)) else ValueError
        with pytest.raises(error, match="master_seed must"):
            dataclasses.replace(data, master_seed=master_seed)

    def test_numpy_master_seed_is_stored_as_its_int(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1), count=3, master_seed=5)
        again = dataclasses.replace(data, master_seed=np.uint64(2**64 - 1))
        assert type(again.master_seed) is int and again.master_seed == 2**64 - 1
        write_dataset(again, tmp_path / "data.jsonl")
        assert read_dataset(tmp_path / "data.jsonl") == again

    def test_non_finite_float_refused_and_nothing_written(self, tmp_path):
        # JSON cannot carry a NaN, and no dataset holds one.
        data = generate_dataset(GenSpec(n=3, m=1, k=1), 3, 21)
        r_a = data.r_a.copy()
        r_a[1] = float("nan")
        with pytest.raises(ValueError, match=rf"^record {data.idx[1]}: r_a must be a finite number$"):
            write_dataset(dataclasses.replace(data, r_a=r_a), tmp_path / "data.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["y", "F", "lam", "q"])
    def test_non_finite_float_names_its_field(self, tmp_path, field):
        data = generate_dataset(GenSpec(n=3, m=2, k=1), 300, 5)
        column = getattr(data, field).copy()
        column[280].flat[-1] = float("inf")
        rule = r"q must lie in \[0, 1\]" if field == "q" else f"{field} must be finite"
        with pytest.raises(ValueError, match=f"^record 280: {rule}$"):
            write_dataset(dataclasses.replace(data, **{field: column}), tmp_path / "data.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(_OUT_OF_RULE))
    def test_dataset_a_file_cannot_hold_is_refused_and_nothing_written(self, tmp_path, case):
        data = generate_dataset(GenSpec(n=3, m=2, k=2), 40, 5)
        assert data.excluded == ()
        edit, message = _OUT_OF_RULE[case]
        with pytest.raises(ValueError, match=message):
            write_dataset(edit(data), tmp_path / "data.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_names_line(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1), count=3, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        text = path.read_text()
        # Cut the last record in half: a JSON error on its line.
        path.write_text(text[: len(text) - 40])
        with pytest.raises(DatasetFormatError, match="line 4"):
            read_dataset(path)

    @pytest.mark.parametrize("lineno", [257, 258, 601])
    def test_bad_line_in_a_later_chunk_is_named(self, tmp_path, monkeypatch, lineno):
        # Chunks of the bytes of 256 records: lines 2-257, 258 to about 513, and the rest up to 601.
        import json

        data = generate_dataset(GenSpec(n=2, m=1), count=600, master_seed=8)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        monkeypatch.setattr(generate, "_CHUNK_BYTES", sum(len(line) + 1 for line in lines[1:257]))
        assert read_dataset(path) == data
        record = json.loads(lines[lineno - 1])
        record["q"][0][0] = 1.5
        lines[lineno - 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"line {lineno}: q"):
            read_dataset(path)

    @pytest.mark.parametrize("count", [256, 512])
    def test_whole_chunks_round_trip(self, tmp_path, monkeypatch, count):
        # Chunks of the bytes of the first 256 records: the last chunk ends with the file.
        data = generate_dataset(GenSpec(n=2, m=1), count=count, master_seed=8)
        assert len(data) == count
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_bytes().splitlines(keepends=True)
        monkeypatch.setattr(generate, "_CHUNK_BYTES", sum(map(len, lines[1:257])))
        assert read_dataset(path) == data

    def test_read_runs_no_cyclic_collection(self, tmp_path):
        # The writer's lines are read in array code, which leaves the
        # collector no parsed container to scan.
        path = tmp_path / "data.jsonl"
        data = generate_dataset(GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT), count=2000, master_seed=1729)
        write_dataset(data, path)
        starts = []

        def count_starts(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count_starts)
        try:
            read = read_dataset(path)
        finally:
            gc.callbacks.remove(count_starts)
        assert read == data
        assert starts == []

    def test_excluded_indices_after_the_last_record(self, tmp_path):
        import json

        data = generate_dataset(GenSpec(n=2, m=1), count=40, master_seed=8)
        assert len(data) == 40
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.update(count=42, excluded=[41, 40])
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        back = read_dataset(path)
        assert (back.count, back.excluded) == (42, (41, 40))
        assert dataclasses.replace(back, count=40, excluded=()) == data

    def test_extra_record_named(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1), count=3, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        text = path.read_text()
        path.write_text(text + text.splitlines()[-1].replace('"idx":2', '"idx":"x"') + "\n")
        with pytest.raises(DatasetFormatError, match="line 5: idx"):
            read_dataset(path)

    def test_missing_record_detected(self, tmp_path):
        data = generate_dataset(GenSpec(n=2, m=1), count=3, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError, match="expected 3 records"):
            read_dataset(path)

    def test_missing_field_named(self, tmp_path):
        import json

        data = generate_dataset(GenSpec(n=2, m=1), count=1, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["F"]
        path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2.*'F'"):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        import json

        data = generate_dataset(GenSpec(n=2, m=1), count=1, master_seed=0)
        path = tmp_path / "data.jsonl"
        write_dataset(data, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 99
        path.write_text(json.dumps(header) + "\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(DatasetFormatError, match="format_version"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)


def _relaid(line: bytes) -> bytes:
    """A record line laid out again by ``json.dumps`` with its default separators."""
    return json.dumps(json.loads(line)).encode() + b"\n"


def _keys_reversed(line: bytes) -> bytes:
    record = json.loads(line)
    return json.dumps(dict(reversed(record.items())), separators=(",", ":")).encode() + b"\n"


def _whole_F_as_integers(line: bytes) -> bytes:
    record = json.loads(line)
    record["F"] = [int(f) for f in record["F"]]
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


# Record line layouts other than the writer's, which json reads to the same values.
_FOREIGN_LAYOUTS = {
    "json-default-separators": _relaid,
    "keys-reversed": _keys_reversed,
    "crlf": lambda line: line[:-1] + b"\r\n",
    "upper-case-exponents": lambda line: re.sub(rb"(\d)e([-+]\d)", rb"\1E\2", line),
    "integers-in-float-fields": _whole_F_as_integers,
}


class TestRecordLayouts:
    """A file reads the same whatever the layout of its record lines; the writer's layout is read in array code."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        # Dollar f_mode gives whole F; the learn_io shape gives floats in exponent form.
        data = generate_dataset(GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT, f_mode=DOLLAR_SCALE), 200, 3)
        path = tmp_path_factory.mktemp("layouts") / "data.jsonl"
        write_dataset(data, path)
        return data, path.read_bytes().splitlines(keepends=True)

    @staticmethod
    def read(tmp_path, lines):
        path = tmp_path / "relaid.jsonl"
        path.write_bytes(b"".join(lines))
        return read_dataset(path)

    def test_the_writers_lines_never_reach_json(self, tmp_path, monkeypatch, written):
        data, lines = written
        calls = []
        monkeypatch.setattr(generate, "_load_json", lambda *args: calls.append(args[1]) or generate.json.loads(args[0]))
        assert self.read(tmp_path, lines) == data
        assert calls == ["line 1"]

    @pytest.mark.parametrize("layout", sorted(_FOREIGN_LAYOUTS))
    def test_a_foreign_layout_reads_as_the_writers(self, tmp_path, written, layout):
        data, lines = written
        relaid = [lines[0]] + [_FOREIGN_LAYOUTS[layout](line) for line in lines[1:]]
        assert relaid[1:] != lines[1:]
        assert self.read(tmp_path, relaid) == data

    def test_a_missing_final_newline_reads_as_the_writers(self, tmp_path, written):
        data, lines = written
        assert self.read(tmp_path, [*lines[:-1], lines[-1].rstrip(b"\n")]) == data

    def test_chunks_alternating_layouts_read_as_the_writers(self, tmp_path, monkeypatch, written):
        # Runs of 10 records, every other one laid out by json.dumps, read in chunks of about 3.
        data, lines = written
        monkeypatch.setattr(generate, "_CHUNK_BYTES", 3 * len(lines[1]))
        relaid = [lines[0]] + [_relaid(line) if t // 10 % 2 else line for t, line in enumerate(lines[1:])]
        calls = []
        monkeypatch.setattr(generate, "_load_json", lambda *args: calls.append(args[1]) or generate.json.loads(args[0]))
        assert self.read(tmp_path, relaid) == data
        assert 1 < len(calls) < len(lines)


def test_read_allocates_little_beyond_the_columns(tmp_path):
    # A reader that parses every line with json allocates at most 1.39 MB
    # above these 1.22 MB of columns (2.60 MB in all, numpy 2.4): the bound
    # holds the temporaries of a chunk of the array reader below that.
    data = generate_dataset(GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT), 2000, 1)
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    read_dataset(path)
    tracemalloc.start()
    try:
        read = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(read, name).nbytes for name in generate._COLUMNS)
    assert read == data
    assert peak - columns < 1.39e6, (peak, columns)


def _with_excluded(spec: GenSpec, count: int, master_seed: int, dropped) -> "generate.LabeledDataset":
    """The dataset of ``count`` records under ``spec`` without the records ``dropped``, which its header lists as excluded."""
    data = generate_dataset(spec, count, master_seed)
    return dataclasses.replace(data.take(np.setdiff1d(np.arange(count), dropped)), excluded=tuple(dropped))


class TestChunkBudgets:
    """A read does not depend on how many bytes the reader takes at a time."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        data = _with_excluded(GenSpec(n=3, m=2, k=1, mode=PER_SEGMENT), 640, 11, list(range(5, 640, 47)))
        path = tmp_path_factory.mktemp("budgets") / "data.jsonl"
        write_dataset(data, path)
        return data, path.read_bytes().splitlines(keepends=True)

    @staticmethod
    def budgets(lines):
        # One line, 7 lines, the reader's own budget and the whole file.
        return [len(lines[1]), sum(map(len, lines[1:8])), generate._CHUNK_BYTES, sum(map(len, lines))]

    @pytest.mark.parametrize("layout", ["writer", "json-default-separators", "alternating"])
    def test_every_budget_reads_the_written_dataset(self, tmp_path, monkeypatch, written, layout):
        data, lines = written
        assert len(data) >= 600 and data.excluded
        relay = {"writer": lambda t, line: line, "json-default-separators": lambda t, line: _relaid(line),
                 "alternating": lambda t, line: _relaid(line) if t // 10 % 2 else line}[layout]
        lines = lines[:1] + [relay(t, line) for t, line in enumerate(lines[1:])]
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(lines))
        for budget in self.budgets(lines):
            monkeypatch.setattr(generate, "_CHUNK_BYTES", budget)
            assert read_dataset(path) == data, budget

    @pytest.mark.parametrize("fault", ["q", "seed"])
    def test_every_budget_names_one_bad_line_alike(self, tmp_path, monkeypatch, written, fault):
        # A value the dataset's rules refuse, and a seed the worded checks refuse, in the writer's layout.
        _, lines = written
        record = json.loads(lines[300])
        if fault == "q":
            record["q"][0][0] = 1.5
        else:
            record["seed"] += 1
        lines = lines[:300] + [json.dumps(record, separators=(",", ":")).encode() + b"\n"] + lines[301:]
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(lines))
        messages = set()
        for budget in self.budgets(lines):
            monkeypatch.setattr(generate, "_CHUNK_BYTES", budget)
            with pytest.raises(DatasetFormatError) as caught:
                read_dataset(path)
            messages.add(str(caught.value))
        assert len(messages) == 1 and messages.pop().startswith(f"line 301: {fault}")


# A full chunk's parse allocates at most this many bytes per byte of its
# text (3.67 on learn_io's shape, numpy 2.4; 11.0 when chunks were 64 KB),
# so that its temporaries cannot regrow while a whole read keeps within
# test_read_allocates_little_beyond_the_columns's bound.
_CHUNK_PEAK_PER_BYTE = 4.3


def test_a_chunk_parse_allocates_few_bytes_per_byte(tmp_path):
    data = generate_dataset(GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT), 400, 1)
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    # One full chunk of record lines, read into a buffer as the reader reads it.
    with open(path, "rb") as fh:
        fh.readline()
        buf = bytearray(generate.PAD) + fh.read(generate._CHUNK_BYTES) + fh.readline()
    rows, layout = buf.count(b"\n"), generate.LineLayout(*generate._line_template(data.spec))
    assert rows < len(data)
    generate.parse_lines(buf, rows, layout)
    tracemalloc.start()
    try:
        floats, _ = generate.parse_lines(buf, rows, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(floats[:, -1], data.r_a[:rows])
    assert peak / (len(buf) - len(generate.PAD)) < _CHUNK_PEAK_PER_BYTE, peak


# A write allocates at most this many bytes per float of its largest chunk
# (458 at case3p5's shape, numpy 2.4; at most 1.5 budgets of floats, 6.4 MB
# at this bound), so that a chunk's temporaries cannot regrow unseen.
_WRITE_PEAK_PER_FLOAT = 520


def test_a_write_allocates_few_bytes_per_float(tmp_path):
    # The largest chunk the writer makes: a dataset of case3p5's shape whose
    # floats fall just short of 1.5 budgets, written in one chunk.
    spec = GenSpec(n=5, m=1, k=4)
    per_record = sum(int(np.prod(shape)) for shape, dtype in generate._layout(spec) if dtype is float)
    data = generate_dataset(spec, int(1.49 * generate._CHUNK_FLOATS) // per_record, 1)
    floats = len(data) * per_record
    assert 1.45 < floats / generate._CHUNK_FLOATS < 1.5
    path = tmp_path / "data.jsonl"
    write_dataset(data, path)
    tracemalloc.start()
    try:
        write_dataset(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_dataset(path) == data
    assert peak / floats < _WRITE_PEAK_PER_FLOAT, peak
