"""Microbenchmarks of the hot kernels, with pytest-benchmark.

They are deselected by default; run them with

    PYTHONPATH=src python -m pytest -m microbench tests/test_microbench.py
"""

import json

import numpy as np
import pytest

from assort_mnl import core, generate
from assort_mnl._numtext import FLOAT_CELL, PAD, LineLayout, cells, parse_lines
from assort_mnl.bench import DEFAULT_MASTER_SEED, PRESET_NAMES, preset, run_case, split_dataset
from assort_mnl.core import (
    _BLOCK_ENTRIES, DEFAULT_MAX_ITER, ONE_START, PER_SEGMENT, SHARED, _small_records, _solve_stack, solve_fixed_point,
)
from assort_mnl.generate import (
    GenSpec, _chunk_columns, _compact, _draw, _indented_json, _line_template, generate_dataset, generate_instance, read_dataset,
    record_seed, write_dataset,
)
from assort_mnl.learner import _decode_blocks

pytestmark = pytest.mark.microbench

SPEC = preset("case3p5").spec


def solve_operands(spec, count):
    """The stacked solve's operands for the first ``count`` records of ``spec`` at the default master seed."""
    y, alpha, F, lam = _draw(spec, [record_seed(DEFAULT_MASTER_SEED, t) for t in range(count)])
    return y - F[..., None], alpha, lam


def test_solve_one_record(benchmark):
    instance = generate_instance(SPEC, record_seed(DEFAULT_MASTER_SEED, 0))
    assert benchmark(solve_fixed_point, instance).converged


def test_solve_stack_of_500_records(benchmark):
    stacked = solve_operands(SPEC, 500)
    _, _, converged = benchmark(_solve_stack, *stacked, ONE_START, DEFAULT_MAX_ITER)
    assert converged.all()


def test_solve_the_preset_stacks(benchmark):
    # The 11 solves of a presets pass, 500 records each.
    stacks = [solve_operands(preset(name).spec, 500) for name in PRESET_NAMES]

    def solve_all():
        return [_solve_stack(*stacked, ONE_START, DEFAULT_MAX_ITER) for stacked in stacks]

    assert all(converged.all() for _, _, converged in benchmark(solve_all))


def test_solve_stack_of_200_records_at_n100_m4(benchmark):
    # 80,000 entries, far more than a block may hold: every block is one
    # pass until compaction shrinks the stack.
    stacked = solve_operands(GenSpec(n=100, m=4), 200)
    _, _, converged = benchmark(_solve_stack, *stacked, ONE_START, DEFAULT_MAX_ITER)
    assert converged.all()


@pytest.mark.parametrize("test", ["count", "and"])
@pytest.mark.parametrize("entries", [2, 12, 24, 96, 128])
@pytest.mark.parametrize("records", [1, 16, 40, 100])
def test_block_test(benchmark, monkeypatch, records, entries, test):
    # The solve's two block tests over a 16-pass block of a stack of this
    # many records of this many entries, the shapes the solve runs, to
    # measure where the count starts and stops paying: the solve counts for
    # blocks of at least _COUNT_ROWS record-passes of 2 to _COUNT_ENTRIES
    # entries each.
    passes = max(1, min(16, _BLOCK_ENTRIES // (records * entries)))
    ok = np.random.default_rng(entries).random((passes * records, entries)) < 0.999
    counts = test == "count"
    monkeypatch.setattr(core, "_COUNT_ROWS", 0 if counts else len(ok) + 1)
    monkeypatch.setattr(core, "_COUNT_ENTRIES", entries if counts else 1)
    assert np.array_equal(benchmark(_small_records, ok), ok.all(axis=1))


# The benchmark's wide_menu jobs: (spec, records).
WIDE_MENU_JOBS = {
    "shared": (GenSpec(n=12, m=1, k=6, mode=SHARED), 40),
    "per-segment": (GenSpec(n=12, m=2, k=6, mode=PER_SEGMENT), 16),
}


@pytest.mark.parametrize("job", sorted(WIDE_MENU_JOBS))
def test_solve_stack_of_a_wide_menu_job(benchmark, job):
    spec, count = WIDE_MENU_JOBS[job]
    stacked = solve_operands(spec, count)
    _, _, converged = benchmark(_solve_stack, *stacked, ONE_START, DEFAULT_MAX_ITER)
    assert converged.all()


@pytest.mark.parametrize("job", sorted(WIDE_MENU_JOBS))
def test_draw_of_a_wide_menu_job(benchmark, job):
    # 37 draws a record in the shared job, 62 in the per-segment one.
    spec, count = WIDE_MENU_JOBS[job]
    seeds = [record_seed(DEFAULT_MASTER_SEED, t) for t in range(count)]
    assert len(benchmark(_draw, spec, seeds)[0]) == count


@pytest.mark.parametrize("job", sorted(WIDE_MENU_JOBS))
def test_generate_a_wide_menu_job(benchmark, job):
    # One of the two calls of a wide_menu pass.
    spec, count = WIDE_MENU_JOBS[job]
    assert len(benchmark(generate_dataset, spec, count, DEFAULT_MASTER_SEED)) == count


@pytest.mark.parametrize("spec", [WIDE_MENU_JOBS["shared"][0], WIDE_MENU_JOBS["per-segment"][0], SPEC], ids=["shared", "per-segment", "case3p5"])
def test_generate_dataset_of_one_record(benchmark, spec):
    # What a call costs before its records add work: seeds, draw, solve,
    # labels and the construction check of one record.
    assert len(benchmark(generate_dataset, spec, 1, DEFAULT_MASTER_SEED)) == 1


def test_generate_dataset_of_500_records(benchmark):
    assert len(benchmark(generate_dataset, SPEC, 500, DEFAULT_MASTER_SEED)) == 500


def test_generate_and_split_500_records(benchmark):
    # Each of the three datasets checks a file's rules at construction.
    train, test = benchmark(lambda: split_dataset(generate_dataset(SPEC, 500, DEFAULT_MASTER_SEED), 0.75))
    assert (len(train), len(train) + len(test)) == (375, 500)


def test_draw_of_5500_records(benchmark):
    # The records of one presets pass, all drawn under one preset's spec.
    seeds = [record_seed(DEFAULT_MASTER_SEED, t) for t in range(5500)]
    assert len(benchmark(_draw, SPEC, seeds)[0]) == 5500


# The shape of the benchmark's learn_io workload.
LEARN_IO_SPEC = GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT)


def test_write_dataset_of_2000_records(benchmark, tmp_path):
    path = tmp_path / "dataset.jsonl"
    benchmark(write_dataset, generate_dataset(LEARN_IO_SPEC, 2000, DEFAULT_MASTER_SEED), path)
    assert len(path.read_text().splitlines()) == 2001


def test_write_the_preset_datasets_of_500_records(benchmark, tmp_path):
    # The small files a presets pass of `case` writes, one per preset.
    datasets = [generate_dataset(preset(name).spec, 500, DEFAULT_MASTER_SEED) for name in PRESET_NAMES]
    paths = [tmp_path / f"{name}_dataset.jsonl" for name in PRESET_NAMES]

    def write_all():
        for dataset, path in zip(datasets, paths):
            write_dataset(dataset, path)

    benchmark(write_all)
    assert all(len(path.read_text().splitlines()) == len(dataset) + 1 for dataset, path in zip(datasets, paths))


def test_write_dataset_of_40_records(benchmark, tmp_path):
    # The fixed cost of a write: one chunk of 40 case3p5 records, 880 floats.
    path = tmp_path / "dataset.jsonl"
    benchmark(write_dataset, generate_dataset(SPEC, 40, DEFAULT_MASTER_SEED), path)
    assert len(path.read_text().splitlines()) == 41


# The datasets whose first chunk test_compact_a_chunk compacts: a presets
# file of 500 records, written in one chunk, and learn_io's, in 18.
COMPACTED = {"case3p5": (SPEC, 500), "learn_io": (LEARN_IO_SPEC, 2000)}


@pytest.mark.parametrize("shape", sorted(COMPACTED))
def test_compact_a_chunk(benchmark, monkeypatch, tmp_path, shape):
    # The writer's line buffer of one chunk, as the write fills it.
    spec, count = COMPACTED[shape]
    buffers = []
    monkeypatch.setattr(generate, "_compact", lambda text: buffers.append(text.copy()) or _compact(text))
    write_dataset(generate_dataset(spec, count, DEFAULT_MASTER_SEED), tmp_path / "dataset.jsonl")
    text = benchmark(_compact, buffers[0])
    assert text.tobytes() == b"".join((tmp_path / "dataset.jsonl").read_bytes().splitlines(keepends=True)[1 : 1 + buffers[0].shape[1]])


def float_cells(values):
    """The cells of float64 ``values`` alone, as the writer's ``cells`` makes them with no integers."""
    return cells(values, np.empty(0, np.uint64))[0]


@pytest.mark.parametrize("count", [256, 2560, 8192])
def test_float_cells(benchmark, count):
    # The cost of a call against its size: a presets file holds 5,000 to
    # 11,000 floats, which the writer formats in one chunk; a chunk holds
    # 0.5 to 1.5 times _CHUNK_FLOATS = 8,192 floats, or one record.
    data = generate_dataset(SPEC, 500, DEFAULT_MASTER_SEED)
    values = np.resize(np.concatenate([data.y.ravel(), data.alpha.ravel(), data.q.ravel(), data.r_a]), count)
    assert benchmark(float_cells, values).shape == (FLOAT_CELL, count)


@pytest.mark.parametrize("count", [2560, 8192])
def test_parse_float_tokens(benchmark, count):
    # The reader's kernel on the floats of test_float_cells, 64 a line.
    data = generate_dataset(SPEC, 500, DEFAULT_MASTER_SEED)
    values = np.resize(np.concatenate([data.y.ravel(), data.alpha.ravel(), data.q.ravel(), data.r_a]), count)
    layout = LineLayout(["["] + [","] * 63 + ["]\n"], np.ones(64, bool))
    text = PAD + "".join("[" + ",".join(map(repr, row)) + "]\n" for row in values.reshape(-1, 64).tolist()).encode()
    floats, _ = benchmark(parse_lines, text, count // 64, layout)
    assert np.array_equal(floats.ravel(), values)


def test_read_dataset_of_2000_records(benchmark, tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset(generate_dataset(LEARN_IO_SPEC, 2000, DEFAULT_MASTER_SEED), path)
    assert len(benchmark(read_dataset, path)) == 2000


@pytest.mark.parametrize("lines", [1, 40, 160])
def test_chunk_columns_of_learn_io_lines(benchmark, tmp_path, lines):
    # The fixed cost of a chunk and its cost a line: a default chunk of
    # learn_io's records holds about 160 lines.
    path = tmp_path / "dataset.jsonl"
    write_dataset(generate_dataset(LEARN_IO_SPEC, lines, DEFAULT_MASTER_SEED), path)
    buf = bytearray(PAD) + path.read_bytes().split(b"\n", 1)[1]
    layout = LineLayout(*_line_template(LEARN_IO_SPEC))
    columns = benchmark(_chunk_columns, buf, lines, 2, LEARN_IO_SPEC, DEFAULT_MASTER_SEED, list(range(lines)), layout)
    assert columns[0].tolist() == list(range(lines))


def test_read_dataset_of_2000_records_in_a_foreign_layout(benchmark, tmp_path):
    # Laid out by json.dumps with its default separators, which the reader
    # parses line by line with json and checks field by field.
    path = tmp_path / "dataset.jsonl"
    write_dataset(generate_dataset(LEARN_IO_SPEC, 2000, DEFAULT_MASTER_SEED), path)
    header, *lines = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join([header, *(json.dumps(json.loads(line)).encode() for line in lines)]) + b"\n")
    assert len(benchmark(read_dataset, path)) == 2000


def test_parse_2000_record_lines_with_json_alone(benchmark, tmp_path):
    # The floor of the reader's worded path, which a file laid out other
    # than as the writer lays it takes: what json takes of the writer's
    # lines, each parsed and dropped, without the reader's checks.
    path = tmp_path / "dataset.jsonl"
    write_dataset(generate_dataset(LEARN_IO_SPEC, 2000, DEFAULT_MASTER_SEED), path)
    lines = path.read_bytes().splitlines()[1:]

    def parse_all():
        for line in lines:
            json.loads(line.decode("utf-8"))

    benchmark(parse_all)
    assert len(lines) == 2000


def test_read_and_split_2000_records(benchmark, tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset(generate_dataset(LEARN_IO_SPEC, 2000, DEFAULT_MASTER_SEED), path)
    train, test = benchmark(lambda: split_dataset(read_dataset(path), 0.75))
    assert (len(train), len(train) + len(test)) == (1500, 2000)


def test_encode_case_report(benchmark, tmp_path):
    doc = run_case(preset("case3p5", out_dir=str(tmp_path)))
    assert len(doc["evaluation"]["examples"]) == 125
    assert benchmark(_indented_json, doc) == json.dumps(doc, indent=2)


def test_encode_the_preset_reports(benchmark, tmp_path):
    # The 11 reports of a presets pass.
    docs = [run_case(preset(name, out_dir=str(tmp_path))) for name in PRESET_NAMES]
    texts = benchmark(lambda: [_indented_json(doc) for doc in docs])
    assert texts == [json.dumps(doc, indent=2) for doc in docs]


def test_decode_blocks_of_10000_rows(benchmark):
    n, m, k = 5, 2, 2
    scores = np.random.default_rng(1).uniform(-0.5, 1.5, size=(10_000, n * m))
    assert benchmark(_decode_blocks, scores, k, n, m, SHARED).shape == (10_000, m, k)
