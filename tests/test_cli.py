"""Tests for the assort-mnl command-line interface."""

import contextlib
import dataclasses
import functools
import io
import json
import operator
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assort_mnl import GenSpec, RevenueTerms, generate_dataset, read_dataset, read_model, write_dataset
from assort_mnl import cli, generate
from assort_mnl.bench import DEFAULT_MASTER_SEED, CaseConfig, preset, run_case
from assort_mnl.cli import main
from assort_mnl.generate import DatasetFormatError, generate_instance, record_seed, spec_from_dict


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_dataset(self, tmp_path, capsys):
        code = run("gen", "--n", 2, "--count", 20, "--seed", 5, "--out", tmp_path)
        assert code == 0
        data = read_dataset(tmp_path / "dataset.jsonl")
        assert data.count == 20
        assert "wrote 20 records" in capsys.readouterr().out

    def test_preset_spec(self, tmp_path):
        assert run("gen", "--preset", "case2p3", "--count", 15, "--out", tmp_path) == 0
        data = read_dataset(tmp_path / "dataset.jsonl")
        assert (data.spec.n, data.spec.k) == (3, 2)

    def test_json_format(self, tmp_path, capsys):
        code = run("gen", "--n", 2, "--count", 10, "--out", tmp_path, "--format", "json")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 10

    def test_missing_shape_is_config_error(self, tmp_path, capsys):
        assert run("gen", "--out", tmp_path) == 2
        assert "error [config]" in capsys.readouterr().err


class TestPresetConflicts:
    # Each flag sets a spec field that --preset would override.
    @pytest.mark.parametrize("command", ["gen", "case"])
    @pytest.mark.parametrize(
        "flag,value", [("--n", 9), ("--m", 3), ("--k", 4), ("--M", 10), ("--f-mode", "dollar"), ("--mode", "per-segment")]
    )
    def test_spec_flag_is_config_error(self, tmp_path, capsys, command, flag, value):
        assert run(command, "--preset", "case3p3", flag, value, "--count", 40, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"error [config] {flag} conflicts with --preset, which sets the spec\n"
        assert list(tmp_path.iterdir()) == []


class TestDefaultsAreTheDataclasses:
    # A flag not given takes the GenSpec or CaseConfig field's default, which
    # the CLI and preset() never restate.
    def test_gen_builds_the_spec_of_the_flags_given(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "generate_dataset", lambda *args: built.append(args) or generate_dataset(*args))
        assert run("gen", "--n", 3, "--out", tmp_path) == 0
        assert built == [(GenSpec(n=3), CaseConfig.count, DEFAULT_MASTER_SEED)]

    def test_case_builds_the_preset_config_at_the_class_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        built = []
        monkeypatch.setattr(cli, "run_case", lambda config: built.append(config) or run_case(config))
        assert run("case", "--preset", "case1p1") == 0
        defaults = {f.name: f.default for f in dataclasses.fields(CaseConfig) if f.default is not dataclasses.MISSING}
        del defaults["reference"]
        assert built == [preset("case1p1")]
        assert {name: getattr(built[0], name) for name in defaults} == defaults
        assert built[0].spec == GenSpec(n=2)
        # out_dir "." is the working directory.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case1p1_dataset.jsonl", "case1p1_model.json", "case1p1_report.json"]


class TestNonFiniteM:
    @pytest.mark.parametrize("command", ["gen", "case"])
    @pytest.mark.parametrize("M", ["inf", "nan"])
    def test_is_config_error(self, tmp_path, capsys, command, M):
        assert run(command, "--n", 2, "--count", 20, "--M", M, "--out", tmp_path) == 2
        assert "error [config] M must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMasterSeedRange:
    @pytest.mark.parametrize("command", ["gen", "case"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_is_config_error(self, tmp_path, capsys, command, seed):
        # The seed mix reads a master seed modulo 2**64: -1 would alias 2**64 - 1.
        assert run(command, "--n", 2, "--count", 40, "--seed", seed, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"error [config] master_seed must lie in [0, 2**64), got {seed}\n"
        assert list(tmp_path.iterdir()) == []


class TestDatasetLargerThanMemory:
    @pytest.mark.parametrize("command,count", [("gen", 10**3), ("case", 3 * 10**9)])
    def test_is_config_error_before_drawing(self, tmp_path, capsys, monkeypatch, command, count):
        # At n = 10**6 and m = 10**3 generation would need far more memory
        # than any machine holds; case needs more records to fit its features.
        def draw(*args):
            raise AssertionError("_draw ran")

        monkeypatch.setattr(generate, "_draw", draw)
        # Physical memory sets the limit here, whatever cgroup limit the host has.
        monkeypatch.setattr(generate, "_CGROUP_MEMORY_LIMITS", ())
        monkeypatch.setattr(generate, "_memory_limit", functools.cache(generate._memory_limit.__wrapped__))
        assert run(command, "--n", 10**6, "--m", 10**3, "--count", count, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error \[config\] a dataset of n=1000000, m=1000 and count=\d+ needs about "
                            r"\S+ GB to generate, more than the machine's \S+ GB of physical memory\n", err), err
        assert list(tmp_path.iterdir()) == []


class TestOverflowingUtilities:
    def test_is_one_config_line(self, tmp_path, capsys):
        # At M = 1e308 some record's V(1) = y - F + alpha overflows.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("gen", "--n", 3, "--M", "1e308", "--count", 2000, "--out", tmp_path)
        assert caught == []
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert re.fullmatch(r"error \[config\] record \d+: mean utilities must be finite\n", err), err
        assert list(tmp_path.iterdir()) == []


class TestDegenerateSegmentWeights:
    @pytest.mark.parametrize(
        "M,message",
        [
            # Two segment draws can sum past the float maximum.
            (1e308, "segment weights overflowed: their sum exceeds the float maximum"),
            # Both segment draws can round to zero.
            (5e-324, "raw weights must not all be zero"),
        ],
    )
    def test_names_the_first_record(self, tmp_path, capsys, M, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("gen", "--n", 3, "--m", 2, "--M", M, "--count", 50, "--seed", 5, "--out", tmp_path)
        assert caught == []
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        match = re.fullmatch(rf"error \[config\] record (\d+): {message}\n", err)
        assert match, err
        assert list(tmp_path.iterdir()) == []
        spec, first = GenSpec(n=3, m=2, M=M), int(match[1])
        for t in range(first):
            generate_instance(spec, record_seed(5, t))
        with pytest.raises(ValueError, match=message):
            generate_instance(spec, record_seed(5, first))


class TestParserReuse:
    def test_back_to_back_calls_behave_as_if_fresh(self, tmp_path, capsys):
        # The parser is built once per process; each call must still see
        # only its own arguments and its subcommand's defaults.
        assert run("gen", "--n", 3, "--k", 2, "--count", 20, "--seed", 5, "--out", tmp_path, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["records"] == 20
        assert run("gen", "--n", 2, "--count", 12, "--seed", 5, "--out", tmp_path / "b") == 0
        assert capsys.readouterr().out.startswith("wrote 12 records")
        data = read_dataset(tmp_path / "b" / "dataset.jsonl")
        assert (data.spec.n, data.spec.k, data.spec.mode) == (2, 1, "shared")
        assert run("label", tmp_path / "dataset.jsonl", "--out", tmp_path / "c", "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2
        assert run("label", tmp_path / "dataset.jsonl", "--k", 3, "--out", tmp_path / "d") == 0
        assert capsys.readouterr().out.startswith("relabeled 20 records (k=3, mode=shared)")
        assert run("gen", "--out", tmp_path) == 2
        assert "either --preset or --n is required" in capsys.readouterr().err


class TestLabel:
    def test_relabel_new_k(self, tmp_path):
        run("gen", "--n", 5, "--k", 1, "--count", 12, "--seed", 3, "--out", tmp_path)
        out2 = tmp_path / "k3"
        code = run("label", tmp_path / "dataset.jsonl", "--k", 3, "--out", out2)
        assert code == 0
        data = read_dataset(out2 / "dataset.jsonl")
        assert data.spec.k == 3
        assert all(len(rec.label.per_segment[0]) == 3 for rec in data.records)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run("label", tmp_path / "nope.jsonl") == 5
        assert "error [io]" in capsys.readouterr().err


class TestTrainEval:
    def test_pipeline(self, tmp_path, capsys):
        run("gen", "--n", 2, "--count", 40, "--seed", 5, "--out", tmp_path)
        assert run("train", tmp_path / "dataset.jsonl", "--out", tmp_path) == 0
        model = read_model(tmp_path / "model.json")
        assert model.layout.n == 2
        capsys.readouterr()
        code = run(
            "eval", tmp_path / "dataset.jsonl", tmp_path / "model.json",
            "--out", tmp_path, "--format", "json",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["test_count"] == 10
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["test_count"] == 10

    def test_underdetermined_train_exit_code(self, tmp_path, capsys):
        run("gen", "--n", 2, "--count", 8, "--seed", 5, "--out", tmp_path)
        assert run("train", tmp_path / "dataset.jsonl", "--out", tmp_path) == 4
        assert "error [train]" in capsys.readouterr().err

    def test_corrupt_dataset_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format_version":1,"spec":{}}\n')
        assert run("train", bad, "--out", tmp_path) == 5
        assert "error [read]" in capsys.readouterr().err


# Python converts integer literals of at most this many digits, or any when 0.
_DIGIT_LIMIT = sys.get_int_max_str_digits()
# A value that _with_long makes an integer literal longer than the limit.
_LONG = "<long integer>"
_DEPTH = 100_000
_DEEP = "[" * _DEPTH + "]" * _DEPTH


def _with_long(text: str) -> str:
    return text.replace(json.dumps(_LONG), "9" * (_DIGIT_LIMIT + 1))


def _edit(change):
    """A mutation of one JSON document (a dataset line or a model file) by ``change``.

    A value that ``change`` sets to ``_LONG`` is spliced in as a too long integer.
    """

    def mutate(line):
        rec = json.loads(line)
        change(rec)
        return _with_long(json.dumps(rec))

    return mutate


def _cases(table) -> list:
    """The names of a table's cases; the integer-literal cases skip when Python has no digit limit."""
    skip = pytest.mark.skipif(not _DIGIT_LIMIT, reason="no limit on the digits of an integer literal")
    return [pytest.param(case, marks=skip) if "digits" in case else case for case in sorted(table)]


# Each case breaks one line of a valid n=3, m=1, k=1 dataset, made with
# M=50 and any gen flags the case lists: the header (line 1) or the second
# record (line 3).
_BAD_LINES = {
    "header-not-object": (1, lambda line: "[1, 2]"),
    "header-nested-too-deep": (1, lambda line: _DEEP),
    "header-count-too-many-digits": (1, _edit(lambda header: header.update(count=_LONG))),
    "header-spec-not-object": (1, _edit(lambda header: header.update(spec=[3, 1]))),
    "header-k-exceeds-n": (1, _edit(lambda header: header["spec"].update(k=4))),
    "header-revenue-not-object": (1, _edit(lambda header: header["spec"].update(revenue=[1, 10]))),
    "header-count-not-int": (1, _edit(lambda header: header.update(count=40.0))),
    "header-excluded-not-list": (1, _edit(lambda header: header.update(excluded=5))),
    "header-excluded-not-int": (1, _edit(lambda header: header.update(count=41, excluded=[0.5]))),
    "header-master-seed-not-int": (1, _edit(lambda header: header.update(master_seed=[1]))),
    # The records were made with master seed 5, which 5 + 2**64 aliases.
    "header-master-seed-past-64-bits": (1, _edit(lambda header: header.update(master_seed=5 + 2**64))),
    "header-master-seed-negative": (1, _edit(lambda header: header.update(master_seed=-1))),
    "header-format-version-float": (1, _edit(lambda header: header.update(format_version=1.0))),
    "header-format-version-bool": (1, _edit(lambda header: header.update(format_version=True))),
    "header-M-infinite": (1, _edit(lambda header: header["spec"].update(M=float("inf")))),
    "header-n-float": (1, _edit(lambda header: header["spec"].update(n=3.0))),
    "header-n-bool": (1, _edit(lambda header: header["spec"].update(n=True))),
    "header-k-float": (1, _edit(lambda header: header["spec"].update(k=1.0))),
    "header-network-effects-string": (1, _edit(lambda header: header["spec"].update(network_effects="no"))),
    "header-seed-mix-other": (1, _edit(lambda header: header.update(seed_mix="pcg"))),
    "record-not-object": (3, lambda line: "[]"),
    "record-nested-too-deep": (3, lambda line: _DEEP),
    "r_a-too-many-digits": (3, _edit(lambda rec: rec.update(r_a=_LONG))),
    "q-wrong-shape": (3, _edit(lambda rec: rec.update(q=rec["q"][:-1]))),
    "q-above-one": (3, _edit(lambda rec: rec.update(q=[[1.5]] + rec["q"][1:]))),
    "q-negative": (3, _edit(lambda rec: rec.update(q=[[-0.25]] + rec["q"][1:]))),
    "q-nan": (3, _edit(lambda rec: rec.update(q=[[float("nan")]] + rec["q"][1:]))),
    "y-string": (3, _edit(lambda rec: rec.update(y=[["12.5"]] + rec["y"][1:]))),
    "y-past-64-bits": (3, _edit(lambda rec: rec.update(y=[[2**64]] + rec["y"][1:]))),
    "label-k-differs": (3, _edit(lambda rec: rec.update(label={"per_segment": [[1, 2]], "k": 2}))),
    "label-index-exceeds-n": (3, _edit(lambda rec: rec["label"].update(per_segment=[[4]]))),
    "label-blocks-exceed-m": (3, _edit(lambda rec: rec["label"].update(per_segment=[[1], [2]]))),
    "label-index-string": (3, _edit(lambda rec: rec["label"].update(per_segment=[["1"]]))),
    # A float or a boolean product would be cast: 2.9 to product 2, true to product 1.
    "label-index-float": (3, _edit(lambda rec: rec["label"].update(per_segment=[[2.9]]))),
    "label-index-bool": (3, _edit(lambda rec: rec["label"].update(per_segment=[[True]]))),
    "label-k-float": (3, _edit(lambda rec: rec["label"].update(k=1.0))),
    "label-k-bool": (3, _edit(lambda rec: rec["label"].update(k=True))),
    "idx-not-integer": (3, _edit(lambda rec: rec.update(idx="x"))),
    "idx-duplicated": (3, _edit(lambda rec: rec.update(idx=0))),
    "seed-not-integer": (3, _edit(lambda rec: rec.update(seed=1.5))),
    "seed-not-splitmix": (3, _edit(lambda rec: rec.update(seed=12345))),
    "r_a-not-number": (3, _edit(lambda rec: rec.update(r_a="y"))),
    "r_a-nan": (3, _edit(lambda rec: rec.update(r_a=float("nan")))),
    "r_a-overflows-float": (3, _edit(lambda rec: rec.update(r_a=10**400))),
    "revenue-overflows-float": (3, _edit(lambda rec: rec["revenue"].update(b=10**400))),
    "revenue-a-differs": (3, _edit(lambda rec: rec["revenue"].update(a=5.0))),
    "beta-not-one": (3, _edit(lambda rec: rec.update(beta=[[2.0]] + rec["beta"][1:]))),
    "y-above-M": (3, _edit(lambda rec: rec.update(y=[[50.5]] + rec["y"][1:]))),
    "y-negative": (3, _edit(lambda rec: rec.update(y=[[-0.5]] + rec["y"][1:]))),
    "alpha-above-M": (3, _edit(lambda rec: rec.update(alpha=[[50.5]] + rec["alpha"][1:]))),
    "alpha-without-network-effects": (
        3, _edit(lambda rec: rec.update(alpha=[[0.5]] + rec["alpha"][1:])), "--no-network-effects",
    ),
    "F-above-M-unit": (3, _edit(lambda rec: rec.update(F=[50.5] + rec["F"][1:]))),
    "F-fractional-dollar": (3, _edit(lambda rec: rec.update(F=[12.5] + rec["F"][1:])), "--f-mode", "dollar"),
    "F-beyond-dollar-max": (3, _edit(lambda rec: rec.update(F=[10001.0] + rec["F"][1:])), "--f-mode", "dollar"),
    "record-drops-a-product": (
        3,
        _edit(lambda rec: rec.update({f: rec[f][:-1] for f in ("y", "alpha", "beta", "F", "q")})),
    ),
}


# What `train` writes to stderr for each case of _BAD_LINES after "error [read] ", word for word.
_BAD_LINE_ERRORS = {
    "F-above-M-unit": "line 3: F must lie in [0, M] with the header's M=50.0 in unit f_mode",
    "F-beyond-dollar-max": "line 3: F must be an integer in 1..10000 under the header's dollar f_mode",
    "F-fractional-dollar": "line 3: F must be an integer in 1..10000 under the header's dollar f_mode",
    "alpha-above-M": "line 3: alpha must lie in [0, M] with the header's M=50.0",
    "alpha-without-network-effects": "line 3: alpha must be all zero under the header's network_effects false",
    "beta-not-one": "line 3: beta must be all 1.0 under the header's spec",
    "header-M-infinite": "line 1: invalid spec (M must be positive and finite, got inf)",
    "header-count-not-int": "line 1: count must be an integer >= 0, got 40.0",
    "header-count-too-many-digits": f"line 1: JSON integer longer than {_DIGIT_LIMIT} digits",
    "header-excluded-not-int": "line 1: excluded must list distinct record indices in [0, 41)",
    "header-excluded-not-list": "line 1: excluded must be a list, got 5",
    "header-format-version-bool": "line 1: format_version must be the integer 1, got True",
    "header-format-version-float": "line 1: format_version must be the integer 1, got 1.0",
    "header-k-exceeds-n": "line 1: invalid spec (k must lie in [1, 3], got 4)",
    "header-k-float": "line 1: invalid spec (k must be an integer, got 1.0)",
    "header-master-seed-negative": "line 1: master_seed must be an integer in [0, 2**64), got -1",
    "header-master-seed-not-int": "line 1: master_seed must be an integer in [0, 2**64), got [1]",
    "header-master-seed-past-64-bits": "line 1: master_seed must be an integer in [0, 2**64), got 18446744073709551621",
    "header-n-bool": "line 1: invalid spec (n must be an integer, got True)",
    "header-n-float": "line 1: invalid spec (n must be an integer, got 3.0)",
    "header-nested-too-deep": "line 1: JSON nested deeper than the parser allows",
    "header-network-effects-string": "line 1: invalid spec (network_effects must be a bool, got 'no')",
    "header-not-object": "line 1: header must be a JSON object, got list",
    "header-revenue-not-object": "line 1: revenue must be a JSON object, got list",
    "header-seed-mix-other": "line 1: seed_mix must be 'splitmix64', got 'pcg'",
    "header-spec-not-object": "line 1: spec must be a JSON object, got list",
    "idx-duplicated": "line 3: idx must run through range(count) without the excluded indices, in order",
    "idx-not-integer": "line 3: idx must run through range(count) without the excluded indices, in order",
    "label-blocks-exceed-m": "line 3: label must have shape (1, 1)",
    "label-index-bool": "line 3: label products must be JSON integers",
    "label-index-exceeds-n": "line 3: label must have 1 block(s) of k=1 distinct products in 1..3",
    "label-index-float": "line 3: label products must be JSON integers",
    "label-index-string": "line 3: label must hold numbers that fit in 64 bits",
    "label-k-bool": "line 3: label k must be the integer 1",
    "label-k-differs": "line 3: label k must be the integer 1",
    "label-k-float": "line 3: label k must be the integer 1",
    "q-above-one": "line 3: q must lie in [0, 1]",
    "q-nan": "line 3: q must lie in [0, 1]",
    "q-negative": "line 3: q must lie in [0, 1]",
    "q-wrong-shape": "line 3: q must have shape (3, 1)",
    "r_a-nan": "line 3: r_a must be a finite number",
    "r_a-not-number": "line 3: r_a must be a number",
    "r_a-overflows-float": "line 3: r_a must hold numbers that fit in 64 bits",
    "r_a-too-many-digits": f"line 3: JSON integer longer than {_DIGIT_LIMIT} digits",
    "record-drops-a-product": "line 3: y must have shape (3, 1)",
    "record-nested-too-deep": "line 3: JSON nested deeper than the parser allows",
    "record-not-object": "line 3: record must be a JSON object, got list",
    "revenue-a-differs": (
        "line 3: revenue must be the header's spec revenue {'a': 1.0, 'b': 10.0, 'omega': 0.05, 'xi': 0.03}"
    ),
    "revenue-overflows-float": (
        "line 3: revenue must be the header's spec revenue {'a': 1.0, 'b': 10.0, 'omega': 0.05, 'xi': 0.03}"
    ),
    "seed-not-integer": "line 3: seed must be record_seed(master_seed, idx), as seed_mix splitmix64 declares",
    "seed-not-splitmix": "line 3: seed must be record_seed(master_seed, idx), as seed_mix splitmix64 declares",
    "y-above-M": "line 3: y must lie in [0, M] with the header's M=50.0",
    "y-negative": "line 3: y must lie in [0, M] with the header's M=50.0",
    "y-past-64-bits": "line 3: y must hold numbers that fit in 64 bits",
    "y-string": "line 3: y must hold numbers that fit in 64 bits",
}


def _bad_dataset(out, case) -> Path:
    """The valid dataset of _BAD_LINES, made in ``out`` with one line broken as ``case`` breaks it."""
    lineno, mutate, *flags = _BAD_LINES[case]
    assert run("gen", "--n", 3, "--count", 40, "--seed", 5, *flags, "--out", out) == 0
    path = out / "dataset.jsonl"
    lines = path.read_text().splitlines()
    lines[lineno - 1] = mutate(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDatasetValidation:
    @pytest.mark.parametrize("command", ["train", "label"])
    @pytest.mark.parametrize("case", _cases(_BAD_LINES))
    def test_bad_line_is_read_error_naming_it(self, tmp_path, capsys, command, case):
        path = _bad_dataset(tmp_path, case)
        capsys.readouterr()
        assert run(command, path, "--out", tmp_path / "out") == 5
        err = capsys.readouterr().err
        assert "error [read]" in err and f"line {_BAD_LINES[case][0]}" in err

    @pytest.mark.parametrize("case", _cases(_BAD_LINES))
    def test_train_words_each_bad_line_as_recorded(self, tmp_path, case):
        code, err = _exit_and_stderr(["train", _bad_dataset(tmp_path, case), "--out", tmp_path / "out"])
        assert (code, err) == (5, f"error [read] {_BAD_LINE_ERRORS[case]}\n")

    @pytest.mark.parametrize("case", [case for case in _cases(_BAD_LINES) if _BAD_LINES[getattr(case, "values", [case])[0]][0] > 1])
    def test_bad_record_in_the_writers_layout_is_worded_as_recorded(self, tmp_path, case):
        # Laid out as the writer lays a line, where it is JSON, so that only its fault turns its chunk from array code.
        path = _bad_dataset(tmp_path, case)
        lines = path.read_text().splitlines()
        lineno = _BAD_LINES[case][0]
        with contextlib.suppress(ValueError, RecursionError):
            lines[lineno - 1] = json.dumps(json.loads(lines[lineno - 1]), separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        code, err = _exit_and_stderr(["train", path, "--out", tmp_path / "out"])
        assert (code, err) == (5, f"error [read] {_BAD_LINE_ERRORS[case]}\n")

    @pytest.mark.parametrize("count", [40, 256])
    def test_record_after_the_last_expected_idx_is_named(self, tmp_path, capsys, monkeypatch, count):
        # Chunks of the bytes of the count records: the extra record is alone in a chunk of its own.
        run("gen", "--n", 2, "--count", count, "--seed", 5, "--out", tmp_path)
        path = tmp_path / "dataset.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) == count + 1
        monkeypatch.setattr(generate, "_CHUNK_BYTES", sum(len(line) + 1 for line in lines[1:]))
        record = json.loads(lines[-1])
        record.update(idx=count, seed=record_seed(5, count))
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        capsys.readouterr()
        assert run("train", path, "--out", tmp_path / "out") == 5
        err = capsys.readouterr().err
        assert f"error [read] line {count + 2}: idx must run through range(count)" in err, err

    def test_integers_and_true_for_floats_read_as_those_floats(self, tmp_path):
        # Dollar-mode F are whole numbers, and with one segment lambda is [1.0].
        assert run("gen", "--n", 3, "--count", 40, "--seed", 5, "--f-mode", "dollar", "--out", tmp_path) == 0
        lines = (tmp_path / "dataset.jsonl").read_text().splitlines()

        def read_with(two, one, whole):
            records = [json.loads(line) for line in lines[1:]]
            for record in records:
                record["y"][0][0], record["q"][0][0], record["lambda"] = two, one, [one]
                record["F"] = [whole(f) for f in record["F"]]
            path = tmp_path / "edited.jsonl"
            path.write_text("\n".join(lines[:1] + [json.dumps(record) for record in records]) + "\n")
            return path.read_text().splitlines()[1], read_dataset(path)

        _, floats = read_with(2.0, 1.0, float)
        record, others = read_with(2, True, int)
        assert '"y": [[2], ' in record and '"lambda": [true]' in record and '"q": [[true], ' in record, record
        assert "." not in record.split('"F": ')[1].split("]")[0], record
        assert _same_columns(*([getattr(data, name) for name in generate._COLUMNS] for data in (floats, others)))


    @pytest.mark.parametrize("path", ["flat", "worded"])
    def test_label_products_past_int64_are_one_read_error(self, tmp_path, monkeypatch, path):
        # Products 2**63 and -1 in one chunk make numpy type the products column float64.
        assert run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", tmp_path) == 0
        dataset = tmp_path / "dataset.jsonl"
        lines = dataset.read_text().splitlines()
        for lineno, product in ((3, 2**63), (4, -1)):
            record = json.loads(lines[lineno - 1])
            record["label"]["per_segment"] = [[product]]
            lines[lineno - 1] = json.dumps(record)
        dataset.write_text("\n".join(lines) + "\n")
        if path == "worded":
            monkeypatch.setattr(generate, "_layout_columns", lambda *args: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _exit_and_stderr(["train", dataset, "--out", tmp_path / "out"])
        assert caught == []
        assert (code, err) == (5, "error [read] line 3: label must have 1 block(s) of k=1 distinct products in 1..3\n")


class TestLabelsAreOptimal:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_worst_labels_are_a_read_error(self, tmp_path, command):
        # Every record carries its worst top-2, with the r_a of that label.
        spec = GenSpec(n=5, m=1, k=2)
        good = generate_dataset(spec, 40, 3)
        worst = np.sort(np.argsort(good.q[..., 0], axis=1, kind="stable")[:, :2], axis=1)[:, None, :]
        r_a = generate._block_revenue(good.q, good.lam, spec.revenue.per_support, worst)
        write_dataset(good, tmp_path / "good.jsonl")
        write_dataset(dataclasses.replace(good, blocks=worst, r_a=r_a), tmp_path / "worst.jsonl")
        assert run("train", tmp_path / "good.jsonl", "--out", tmp_path) == 0
        argv = ["eval", tmp_path / "worst.jsonl", tmp_path / "model.json"] if command == "eval" else \
            ["train", tmp_path / "worst.jsonl", "--out", tmp_path / "out"]
        code, err = _exit_and_stderr(argv)
        t = int(np.flatnonzero((worst != good.blocks).any(axis=(1, 2)))[0])
        assert (code, err) == (5, f"error [read] record {t}: stored label {(worst[t] + 1).tolist()} differs from "
                                  f"the optimal label {(good.blocks[t] + 1).tolist()} at its q\n")


class TestHeaderCount:
    def test_reader_memory_does_not_grow_with_count(self, tmp_path):
        # A header claiming 10**12 records over a file of 5: the reader must
        # fail on the count without first listing every expected idx.  The
        # address-space cap turns a reader that does into a MemoryError.
        run("gen", "--n", 2, "--count", 5, "--seed", 5, "--out", tmp_path)
        path = tmp_path / "dataset.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = _edit(lambda header: header.update(count=10**12))(lines[0])
        path.write_text("\n".join(lines) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # A BLAS thread pool reserves address space per thread; one thread
        # keeps numpy's import well under the cap on any core count.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "assort_mnl", "train", str(path), "--out", str(tmp_path / "out")],
            env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 5, proc.stderr
        assert "expected 1000000000000 records (0 excluded), found 5" in proc.stderr


# The header spec of the valid dataset below, as written.
_SPEC = dataclasses.asdict(GenSpec(n=3, m=1))
_FIELDS = [("spec", key) for key in _SPEC] + [("revenue", key) for key in _SPEC["revenue"]]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _retyped(value) -> list:
    """``value`` carried over, as far as it goes, to each other JSON type."""
    number = value if isinstance(value, (int, float)) and not isinstance(value, bool) else 1
    others = [int(number), float(number), bool(number), json.dumps(value), None, [value], {"value": value}]
    return [other for other in others if type(other) is not type(value)]


# Values of a field's own type: all but M=100 contradict the valid records.
_REVALUED = {
    "M": [10.0, 100.0], "network_effects": [False], "f_mode": ["dollar"],
    "a": [0.0, 2.0], "b": [20.0], "omega": [0.1], "xi": [0.0],
}


def _mutations():
    """A header field and a new value for it: the field's own value retyped, revalued, or any."""
    def values(field):
        where, key = field
        original = _SPEC[key] if where == "spec" else _SPEC["revenue"][key]
        new = st.sampled_from(_retyped(original) + _REVALUED.get(key, [])) | _JSON_VALUES
        return st.tuples(st.just(field), new)

    return st.sampled_from(_FIELDS).flatmap(values)


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    assert run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", out) == 0
    lines = (out / "dataset.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["spec"] == _SPEC
    return lines, read_dataset(out / "dataset.jsonl")


def _contradicts(spec, data) -> bool:
    """Whether the records of ``data`` break a value the parsed header ``spec`` sets for them."""
    def terms(revenue):
        return [float(getattr(revenue, key)) for key in ("a", "b", "omega", "xi")]

    M = float(spec.M)
    return (
        terms(spec.revenue) != terms(data.spec.revenue)
        or max(data.y.max(), data.alpha.max()) > M
        or (not spec.network_effects and data.alpha.any())
        or (spec.f_mode == "unit" and data.F.max() > M)
        or (spec.f_mode == "dollar" and not np.array_equal(data.F, np.round(data.F)))
    )


class TestHeaderSpecMutations:
    @staticmethod
    def train(out, lines, field, value):
        """Exit code and stderr of ``train`` on the valid dataset with header ``field`` set to ``value``."""
        where, key = field
        header = json.loads(lines[0])
        (header["spec"] if where == "spec" else header["spec"]["revenue"])[key] = value
        path = out / "dataset.jsonl"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["train", str(path), "--out", str(out)])
        return code, stderr.getvalue(), header["spec"]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(mutation=_mutations())
    def test_train_exits_cleanly(self, tmp_path_factory, valid_dataset, mutation):
        lines, data = valid_dataset
        code, err, spec = self.train(tmp_path_factory.mktemp("mutated"), lines, *mutation)
        assert code in (0, 5), err
        assert "Traceback" not in err
        # A header that fails to parse names line 1; one that parses but
        # sets values the records break names a record line and the rule.
        if code == 5:
            assert "error [read] line 1:" in err or re.search(r"error \[read\] line \d+: .*the header's", err), err
        try:
            spec = spec_from_dict(spec)
        except DatasetFormatError:
            return
        if _contradicts(spec, data):
            assert code == 5, (spec, err)

    @pytest.mark.parametrize("key,value", [(key, value) for key, values in _REVALUED.items() for value in values])
    def test_values_the_records_break_are_read_errors(self, tmp_path, valid_dataset, key, value):
        lines, data = valid_dataset
        field = ("spec" if key in _SPEC else "revenue", key)
        code, err, spec = self.train(tmp_path, lines, field, value)
        if (key, value) == ("M", 100.0):
            assert not _contradicts(spec_from_dict(spec), data) and code == 0, err
        else:
            assert _contradicts(spec_from_dict(spec), data)
            assert code == 5 and re.search(r"error \[read\] line \d+: .*the header's", err), err


class TestHeaderShape:
    @pytest.mark.parametrize("key", ["n", "m"])
    def test_shape_no_record_can_hold_is_read_error(self, tmp_path, valid_dataset, key):
        # No list of 10**20 entries can be made: the records must be read against the shape without one.
        lines, _ = valid_dataset
        path = tmp_path / "dataset.jsonl"
        header = _edit(lambda header: header["spec"].update({key: 10**20}))(lines[0])
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        code, err = _exit_and_stderr(["train", path, "--out", tmp_path])
        assert code == 5 and err.startswith("error [read] line 2: y must have shape"), err

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_shape_no_array_can_hold_over_no_records_is_read_error(self, tmp_path, valid_dataset, key):
        # No record line shows the shape, so the header alone is at fault.
        lines, _ = valid_dataset
        path = tmp_path / "dataset.jsonl"
        path.write_text(_edit(lambda header: _empty_header(header, key, 10**20))(lines[0]) + "\n")
        code, err = _exit_and_stderr(["label", path, "--out", tmp_path / "out"])
        spec = {"n": 3, "m": 1, key: 10**20}
        assert code == 5, err
        assert err == f"error [read] line 1: spec n={spec['n']}, m={spec['m']} gives records no array can hold\n"
        assert not (tmp_path / "out" / "dataset.jsonl").exists()

    def test_shape_an_array_holds_over_no_records_relabels(self, tmp_path, valid_dataset):
        # n = 2**40 fits an empty column, but not a record line's template:
        # the writer must lay out no line when there is none.  The
        # address-space cap turns a writer that does into a MemoryError.
        lines, _ = valid_dataset
        path = tmp_path / "dataset.jsonl"
        path.write_text(_edit(lambda header: _empty_header(header, "n", 2**40))(lines[0]) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "assort_mnl", "label", str(path), "--out", str(tmp_path / "out")],
            env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_dataset(tmp_path / "out" / "dataset.jsonl").spec.n == 2**40


def _empty_header(header: dict, key: str, value: int) -> None:
    """Set the header's spec ``key`` to ``value`` and make it a header of no records."""
    header["spec"][key] = value
    header.update(count=0, excluded=[])


class TestEmptyTestSplit:
    def test_eval_is_config_error(self, tmp_path, valid_dataset):
        # With the last of 40 records excluded, a 0.99 split trains on all 39 that remain.
        lines, _ = valid_dataset
        path = tmp_path / "dataset.jsonl"
        header = _edit(lambda header: header.update(excluded=[39]))(lines[0])
        path.write_text("\n".join([header, *lines[1:-1]]) + "\n")
        assert run("train", path, "--train-fraction", 0.99, "--out", tmp_path) == 0
        code, err = _exit_and_stderr(["eval", path, tmp_path / "model.json", "--train-fraction", 0.99, "--out", tmp_path])
        assert (code, err) == (2, "error [config] test dataset has no records\n")
        assert not (tmp_path / "report.json").exists()


class TestShortTrainingSplit:
    def test_train_is_config_error(self, tmp_path, valid_dataset):
        # With the last 3 of 40 records excluded, a 0.99 split needs 39 of the 37 that remain.
        lines, _ = valid_dataset
        path = tmp_path / "dataset.jsonl"
        header = _edit(lambda header: header.update(excluded=[37, 38, 39]))(lines[0])
        path.write_text("\n".join([header, *lines[1:-3]]) + "\n")
        code, err = _exit_and_stderr(["train", path, "--train-fraction", 0.99, "--out", tmp_path])
        assert (code, err) == (2, "error [config] training split needs 39 records but only 37 survived generation\n")
        assert not (tmp_path / "model.json").exists()


class TestLabelVerification:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_stored_revenue_must_match_label(self, tmp_path, capsys, command):
        run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", tmp_path)
        run("train", tmp_path / "dataset.jsonl", "--out", tmp_path)
        path = tmp_path / "dataset.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["r_a"] += 1e-3
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "train":
            code = run("train", path, "--out", tmp_path / "out")
        else:
            code = run("eval", path, tmp_path / "model.json")
        assert code == 5
        err = capsys.readouterr().err
        assert "error [read]" in err and f"record {record['idx']}" in err


# Each case breaks the model of an n=3, m=1 dataset; the message names what it says.
_BAD_MODELS = {
    "document-not-object": ("model file", lambda text: "[1, 2]"),
    "layout-not-object": ("layout", _edit(lambda doc: doc.update(layout=[3, 1]))),
    "nan-coefficients": ("coefficients", _edit(
        lambda doc: doc.update(coefficients=[[float("nan")] * len(row) for row in doc["coefficients"]])
    )),
    "invalid-json": ("invalid model file", lambda text: text[: len(text) // 2]),
    "intercept-strings": ("intercept", _edit(lambda doc: doc.update(intercept=["1", "1", "1"]))),
    "coefficients-booleans": ("coefficients", _edit(
        lambda doc: doc.update(coefficients=[[True] * len(row) for row in doc["coefficients"]])
    )),
    "rank-deficient-string": ("rank_deficient", _edit(lambda doc: doc.update(rank_deficient="no"))),
    "layout-n-float": ("layout (n must be an integer", _edit(lambda doc: doc["layout"].update(n=3.0))),
    "layout-m-bool": ("layout (m must be an integer", _edit(lambda doc: doc["layout"].update(m=True))),
    "intercept-bool-among-numbers": ("intercept", _edit(lambda doc: doc.update(intercept=[True] + doc["intercept"][1:]))),
    "format-version-float": ("format_version", _edit(lambda doc: doc.update(format_version=1.0))),
    "format-version-bool": ("format_version", _edit(lambda doc: doc.update(format_version=True))),
    "nested-too-deep": ("invalid model file at line 1 column", lambda text: _DEEP),
    "intercept-too-many-digits": ("invalid model file at line 1 column", _edit(
        lambda doc: doc.update(intercept=[_LONG] + doc["intercept"][1:])
    )),
    # numpy iterates at most 32 dimensions.
    "intercept-nested-40-deep": ("intercept", _edit(
        lambda doc: doc.update(intercept=json.loads("[" * 40 + "1.0" + "]" * 40))
    )),
}


class TestModelValidation:
    @pytest.mark.parametrize("case", _cases(_BAD_MODELS))
    def test_bad_model_is_read_error(self, tmp_path, capsys, case):
        run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", tmp_path)
        run("train", tmp_path / "dataset.jsonl", "--out", tmp_path)
        model = tmp_path / "model.json"
        named, mutate = _BAD_MODELS[case]
        model.write_text(mutate(model.read_text()))
        capsys.readouterr()
        assert run("eval", tmp_path / "dataset.jsonl", model) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error [read] {model}: ") and named in err, err


# Where one value of a model file sits, for an n=3, m=1 model: a top-level
# field, a layout field, or an entry of intercept (3) or coefficients (3 x 9).
_MODEL_VALUES = (
    st.sampled_from([("format_version",), ("layout", "n"), ("layout", "m"), ("rank_deficient",)])
    | st.tuples(st.just("intercept"), st.integers(0, 2))
    | st.tuples(st.just("coefficients"), st.integers(0, 2), st.integers(0, 8))
)
_MODEL_FIELDS = ("format_version", "layout", "intercept", "coefficients", "rank_deficient")
# JSON number tokens beyond a finite float: NaN, Infinity and an int that overflows one.
_NUMBER_TOKENS = [float("nan"), float("inf"), 10**400]


@pytest.fixture(scope="module")
def valid_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", out) == 0
    assert run("train", out / "dataset.jsonl", "--out", out) == 0
    return out / "dataset.jsonl", (out / "model.json").read_text()


class TestModelMutations:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(where=_MODEL_VALUES, choice=st.integers(0, 8))
    @example(where=("layout", "n"), choice=0)
    def test_eval_exits_cleanly(self, tmp_path_factory, valid_model, where, choice):
        # choice picks the value's retyped form or a number token.
        dataset, text = valid_model
        doc = json.loads(text)
        *parents, key = where
        holder = functools.reduce(operator.getitem, parents, doc)
        values = _retyped(holder[key]) + _NUMBER_TOKENS
        holder[key] = values[choice % len(values)]
        path = tmp_path_factory.mktemp("mutated") / "model.json"
        path.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["eval", str(dataset), str(path)])
        err = stderr.getvalue()
        assert code in (0, 2, 5), err
        assert "Traceback" not in err
        if code == 5:
            assert str(path) in err or any(field in err for field in _MODEL_FIELDS), err
        try:
            model = read_model(path)
        except DatasetFormatError:
            return
        assert type(model.layout.n) is int and type(model.layout.m) is int, doc["layout"]
        assert type(model.rank_deficient) is bool, doc.get("rank_deficient")


# Each record's r_a is finite, but the sum of the test split's overflows.
_HUGE_REVENUE = GenSpec(n=2, m=1, k=1, revenue=RevenueTerms(0.0, 1.7976931348623157e308, 1.0, 1.0))


class TestNonFiniteReport:
    def test_run_case_raises_before_writing(self, tmp_path):
        config = CaseConfig("huge", _HUGE_REVENUE, count=40, master_seed=3, out_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="evaluation metric r_a_mean is inf"):
                run_case(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["case", "eval"])
    def test_is_config_error_without_report(self, tmp_path, capsys, monkeypatch, command):
        if command == "case":
            monkeypatch.setattr(cli, "_spec_from_args", lambda args: _HUGE_REVENUE)
            argv = ["case", "--n", 2, "--count", 40, "--seed", 3, "--case-id", "huge"]
        else:
            write_dataset(generate_dataset(_HUGE_REVENUE, 40, 3), tmp_path / "dataset.jsonl")
            assert run("train", tmp_path / "dataset.jsonl", "--out", tmp_path) == 0
            argv = ["eval", tmp_path / "dataset.jsonl", tmp_path / "model.json"]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv, "--out", tmp_path / "out", "--format", "json")
        assert caught == []
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines() == ["error [config] evaluation metric r_a_mean is inf, which a report cannot carry"]
        assert not (tmp_path / "out").exists()


class TestAtomicWrites:
    # Each command rewrites one existing artifact; os.replace fails for it.
    @pytest.mark.parametrize(
        "target,argv",
        [
            ("dataset.jsonl", ["gen", "--n", 3, "--count", 40, "--seed", 6]),
            ("model.json", ["train", "dataset.jsonl", "--train-fraction", 0.5]),
            ("report.json", ["eval", "dataset.jsonl", "model.json", "--train-fraction", 0.5]),
            ("case1p1_report.json", ["case", "--preset", "case1p1", "--count", 40, "--seed", 8]),
        ],
    )
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, capsys, target, argv):
        monkeypatch.chdir(tmp_path)
        run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", ".")
        run("train", "dataset.jsonl", "--out", ".")
        run("eval", "dataset.jsonl", "model.json", "--out", ".")
        run("case", "--preset", "case1p1", "--count", 40, "--seed", 7, "--out", ".")
        before = (tmp_path / target).read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        replace = os.replace

        def fail_on_target(src, dst):
            if os.path.basename(dst) == target:
                raise OSError("simulated failure")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        capsys.readouterr()
        assert run(*argv, "--out", ".") == 5
        assert "simulated failure" in capsys.readouterr().err
        assert (tmp_path / target).read_bytes() == before
        if argv[0] == "case":
            # The failed case removes the dataset and model it wrote.
            names = [n for n in names if n not in ("case1p1_dataset.jsonl", "case1p1_model.json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestCase:
    def test_preset_run(self, tmp_path, capsys):
        code = run(
            "case", "--preset", "case1p1", "--count", 40, "--seed", 7,
            "--out", tmp_path, "--format", "json",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["case_id"] == "case1p1"
        assert (tmp_path / "case1p1_report.json").exists()

    def test_custom_case(self, tmp_path):
        code = run(
            "case", "--n", 3, "--k", 2, "--count", 60, "--seed", 1,
            "--case-id", "demo", "--out", tmp_path,
        )
        assert code == 0
        assert (tmp_path / "demo_dataset.jsonl").exists()

    def test_case_id_names_a_preset_run(self, tmp_path, capsys):
        code = run(
            "case", "--preset", "case1p1", "--no-network-effects", "--case-id", "nonet",
            "--count", 40, "--out", tmp_path, "--format", "json",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["case_id"] == "nonet"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "nonet_dataset.jsonl", "nonet_model.json", "nonet_report.json",
        ]

    @pytest.mark.parametrize("case_id", ["../escape", "a/b", ".."])
    def test_case_id_that_is_not_a_file_name_is_config_error(self, tmp_path, capsys, case_id):
        out = tmp_path / "runs" / "out"
        assert run("case", "--n", 3, "--count", 40, "--case-id", case_id, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error [config] case_id must be a file name")
        assert list(tmp_path.rglob("*")) == []

    # 219 bytes is the most whose dataset's temporary name, ".{id}_dataset.jsonl.{16 hex}.tmp", fits in 255.
    @pytest.mark.parametrize("case_id", ["a" * 219, "\u00e9" * 109 + "a"], ids=["ascii", "two-byte"])
    def test_case_id_of_219_bytes_writes_its_files(self, tmp_path, case_id):
        assert len(case_id.encode()) == 219
        assert run("case", "--n", 3, "--count", 40, "--case-id", case_id, "--out", tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{case_id}_dataset.jsonl", f"{case_id}_model.json", f"{case_id}_report.json",
        ]

    @pytest.mark.parametrize("case_id", ["a" * 220, "\u00e9" * 110], ids=["ascii", "two-byte"])
    def test_case_id_too_long_for_its_file_names_is_config_error(self, tmp_path, capsys, case_id):
        out = tmp_path / "out"
        assert run("case", "--n", 3, "--count", 40, "--case-id", case_id, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error [config] case_id must take at most 219 bytes, so that the names of its files fit in 255; got 220\n"
        )
        assert list(tmp_path.rglob("*")) == []

    def test_count_too_small_for_features(self, tmp_path, capsys):
        assert run("case", "--preset", "case1p1", "--count", 8, "--out", tmp_path) == 2
        assert "error [config]" in capsys.readouterr().err

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("case", "--preset", "case9", "--out", tmp_path)
        assert exc.value.code == 2


class TestCompare:
    def test_compare_reports(self, tmp_path, capsys):
        run("case", "--preset", "case1p1", "--count", 40, "--seed", 7, "--out", tmp_path / "a")
        run("case", "--preset", "case1p2", "--count", 40, "--seed", 7, "--out", tmp_path / "b")
        capsys.readouterr()
        code = run(
            "compare",
            tmp_path / "a" / "case1p1_report.json",
            tmp_path / "b" / "case1p2_report.json",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case_a"] == "case1p1" and doc["case_b"] == "case1p2"
        assert doc["metrics"]["r_a_mean"]["direction"] == "lower"

    def test_null_metric_is_undefined(self, tmp_path, capsys, small_report):
        doc = json.loads(small_report.read_text())
        a = doc["evaluation"]["mean_prl_percent"]
        assert a is not None
        doc["evaluation"]["mean_prl_percent"] = None
        no_prl = tmp_path / "no_prl_report.json"
        no_prl.write_text(json.dumps(doc))
        assert run("compare", small_report, no_prl) == 0
        assert f"  mean_prl_percent: {a} -> None (undefined)\n" in capsys.readouterr().out
        assert run("compare", small_report, no_prl, "--format", "json") == 0
        row = json.loads(capsys.readouterr().out)["metrics"]["mean_prl_percent"]
        assert row == {"a": a, "b": None, "delta": None, "direction": "undefined"}


# Each case breaks the second report given to compare.
_BAD_REPORTS = {
    "evaluation-not-object": ("evaluation", _edit(lambda doc: doc.update(evaluation=[1]))),
    "error-rate-not-number": ("evaluation.error_rate", _edit(lambda doc: doc["evaluation"].update(error_rate="x"))),
    "not-json": ("invalid report file", lambda text: text[: len(text) // 2]),
    "nested-too-deep": ("invalid report file at line 1 column", lambda text: _DEEP),
    # _edit writes the report on one line.
    "error-rate-too-many-digits": ("invalid report file at line 1 column", _edit(
        lambda doc: doc["evaluation"].update(error_rate=_LONG)
    )),
    "case-id-not-string": ("config.case_id", _edit(lambda doc: doc["config"].update(case_id={"x": 1}))),
    "n-list": ("config.spec (n must be an integer", _edit(lambda doc: doc["config"]["spec"].update(n=[2]))),
    "m-bool": ("config.spec (m must be an integer", _edit(lambda doc: doc["config"]["spec"].update(m=True))),
    "n-zero": ("config.spec (need n >= 1", _edit(lambda doc: doc["config"]["spec"].update(n=0))),
}


class TestReportValidation:
    @pytest.mark.parametrize("case", _cases(_BAD_REPORTS))
    def test_bad_report_is_read_error_naming_it(self, tmp_path, capsys, case):
        run("case", "--preset", "case1p1", "--count", 40, "--seed", 7, "--out", tmp_path)
        good = tmp_path / "case1p1_report.json"
        bad = tmp_path / "bad_report.json"
        field, mutate = _BAD_REPORTS[case]
        bad.write_text(mutate(good.read_text()))
        capsys.readouterr()
        assert run("compare", good, bad) == 5
        err = capsys.readouterr().err
        assert "error [read]" in err and str(bad) in err and field in err


def _value_paths(doc, path=()):
    """The path of each value nested in the JSON document ``doc``, containers included, the root not."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


def _at(doc, path):
    """The value at ``path`` in the JSON document ``doc``."""
    return functools.reduce(operator.getitem, path, doc)


# How one JSON document (a record line or a report) is broken: the value at
# a path retyped, made a number token or dropped, or the document
# duplicated, truncated, given a byte that is not UTF-8, nested 100,000
# deep, or given an integer literal past the digit limit at the path.
_VALUE_KINDS = ("retype", "token", "drop")
_TEXT_KINDS = ("duplicate", "truncate", "invalid-utf8", "deep", "long-integer")


def _broken(text, kind, path, choice) -> bytes:
    """``text`` broken by ``kind``, with ``choice`` picking the new value or the byte position."""
    if kind == "duplicate":
        return (text + "\n" + text).encode()
    if kind == "truncate":
        return text[: choice % len(text)].encode()
    if kind == "invalid-utf8":
        cut = choice % len(text)
        return text[:cut].encode() + b"\xff" + text[cut:].encode()
    if kind == "deep":
        return ("[" * _DEPTH + text + "]" * _DEPTH).encode()
    doc = json.loads(text)
    *parents, key = path
    holder = _at(doc, parents)
    if kind == "drop":
        del holder[key]
    elif kind == "long-integer":
        holder[key] = _LONG
    else:
        values = _retyped(holder[key]) if kind == "retype" else _NUMBER_TOKENS
        holder[key] = values[choice % len(values)]
    return _with_long(json.dumps(doc)).encode()


def _exit_and_stderr(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stderr.getvalue()


_BREAKS = dict(kind=st.sampled_from(_VALUE_KINDS + _TEXT_KINDS), choice=st.integers(0, 10**6), data=st.data())


def _broken_lines(valid_lines, lineno, kind, choice, data) -> list[bytes]:
    """The lines of the valid dataset, line ``lineno`` broken by ``kind`` at a path that ``data`` draws."""
    lines = [line.encode() for line in valid_lines]
    assert len(lines) == 41
    text = lines[lineno - 1].decode()
    path = data.draw(st.sampled_from(list(_value_paths(json.loads(text)))))
    lines[lineno - 1] = _broken(text, kind, path, choice)
    return lines


class TestRecordLineMutations:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lineno=st.integers(2, 41), **_BREAKS)
    def test_train_exits_cleanly(self, tmp_path_factory, valid_dataset, lineno, kind, choice, data):
        lines = _broken_lines(valid_dataset[0], lineno, kind, choice, data)
        out = tmp_path_factory.mktemp("mutated")
        (out / "dataset.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        code, err = _exit_and_stderr(["train", out / "dataset.jsonl", "--out", out])
        assert code in (0, 2, 3, 4, 5), err
        assert "Traceback" not in err
        if code == 5:
            # Read errors name the line; a label check names the record and its r_a or label.
            assert re.match(r"error \[read\] (line \d+|record \d+: stored (r_a|label))", err), err


def _chunk_both_ways(lines: list[bytes]):
    """The columns that the reader's array path and its worded checks make of a dataset's ``lines``, as one chunk.

    Each is None where its checks refuse the records; the worded checks
    also refuse a line that is not a JSON record object.
    """
    header = json.loads(lines[0])
    spec, master_seed, expected = spec_from_dict(header["spec"]), header["master_seed"], list(range(header["count"]))
    records = lines[1:]
    layout = generate.LineLayout(*generate._line_template(spec))
    text = generate.PAD + b"".join(line + b"\n" for line in records)
    fast = generate._layout_columns(text, len(records), layout, spec, master_seed, expected[: len(records)])
    try:
        rows = [generate._fields(generate._load_json(line, "line"), generate._RECORD_KEYS, "line", "record")
                for line in records]
        worded = generate._record_columns(rows, 2, spec, master_seed, iter(expected))
    except DatasetFormatError:
        worded = None
    return fast, worded


def _same_columns(a, b) -> bool:
    """Whether two lists of columns hold the same arrays: dtype, shape and bytes."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


# Half floats, since a float in place of a float keeps to the fast checks.
_NUMBERS = st.floats() | st.floats(-100.0, 100.0) | st.integers(-(2**65), 2**65) | st.booleans()



class TestFlatRecordChecks:
    def test_valid_records_take_the_fast_checks(self, valid_dataset):
        fast, worded = _chunk_both_ways([line.encode() for line in valid_dataset[0]])
        assert fast is not None and _same_columns(fast, worded)

    # Half the lines break as TestRecordLineMutations breaks them, half get a
    # JSON number in place of a number, which more often keeps to the fast
    # checks.  A line whose values are broken is laid out as the writer lays
    # it, so that only its values can turn the chunk from the array path.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(lineno=st.integers(2, 41), **{**_BREAKS, "kind": st.just("number") | _BREAKS["kind"]})
    def test_fast_checks_accept_only_what_the_worded_checks_accept(self, valid_dataset, lineno, kind, choice, data):
        if kind == "number":
            lines = [line.encode() for line in valid_dataset[0]]
            record = json.loads(lines[lineno - 1])
            leaves = [path for path in _value_paths(record) if not isinstance(_at(record, path), (list, dict))]
            *parents, key = data.draw(st.sampled_from(leaves))
            _at(record, parents)[key] = data.draw(_NUMBERS)
            lines[lineno - 1] = json.dumps(record, separators=(",", ":")).encode()
        else:
            lines = _broken_lines(valid_dataset[0], lineno, kind, choice, data)
            if kind in _VALUE_KINDS:
                lines[lineno - 1] = json.dumps(json.loads(lines[lineno - 1]), separators=(",", ":")).encode()
        fast, worded = _chunk_both_ways(b"\n".join(lines).split(b"\n"))
        if fast is not None:
            assert worded is not None and _same_columns(fast, worded)

    # Any finite float, or an integer of up to 18 digits, in a float field of
    # a line laid out as the writer lays it: the array path reads the chunk,
    # to the worded checks' columns.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(lineno=st.integers(2, 41), data=st.data(),
           number=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**18) + 1, 10**18 - 1))
    def test_array_path_reads_any_number_in_a_float_field(self, valid_dataset, lineno, data, number):
        lines = [line.encode() for line in valid_dataset[0]]
        record = json.loads(lines[lineno - 1])
        key = data.draw(st.sampled_from(["y", "alpha", "F", "lambda", "q", "r_a"]))
        if key == "r_a":
            record[key] = number
        else:
            holder = record[key][data.draw(st.integers(0, len(record[key]) - 1))] if key in ("y", "alpha", "q") else record[key]
            holder[data.draw(st.integers(0, len(holder) - 1))] = number
        lines[lineno - 1] = json.dumps(record, separators=(",", ":")).encode()
        fast, worded = _chunk_both_ways(lines)
        assert fast is not None and _same_columns(fast, worded)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    assert run("case", "--preset", "case1p1", "--count", 40, "--seed", 7, "--out", out) == 0
    return out / "case1p1_report.json"


class TestReportMutations:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(**_BREAKS)
    def test_compare_exits_cleanly(self, tmp_path_factory, small_report, kind, choice, data):
        text = small_report.read_text()
        path = data.draw(st.sampled_from(list(_value_paths(json.loads(text)))))
        bad = tmp_path_factory.mktemp("mutated") / "report.json"
        bad.write_bytes(_broken(text, kind, path, choice))
        code, err = _exit_and_stderr(["compare", small_report, bad])
        assert code in (0, 2, 3, 4, 5), err
        assert "Traceback" not in err
        if code == 5:
            # A file that is not JSON is named with the line at fault; a
            # field that compare reads, by its name.
            assert str(bad) in err and re.search(r"line \d+|\b(config|evaluation)\b", err), err
