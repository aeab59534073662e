"""Tests for the assort-mnl command-line interface."""

import json
import os

import pytest

from assort_mnl import read_dataset, read_model
from assort_mnl.cli import main


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


def _edit(change):
    """A mutation of one JSON document (a dataset line or a model file) by ``change``."""

    def mutate(line):
        rec = json.loads(line)
        change(rec)
        return json.dumps(rec)

    return mutate


# Each case breaks one line of a valid n=3, m=1, k=1 dataset: the header
# (line 1) or the second record (line 3).
_BAD_LINES = {
    "header-not-object": (1, lambda line: "[1, 2]"),
    "header-spec-not-object": (1, _edit(lambda header: header.update(spec=[3, 1]))),
    "header-k-exceeds-n": (1, _edit(lambda header: header["spec"].update(k=4))),
    "header-revenue-not-object": (1, _edit(lambda header: header["spec"].update(revenue=[1, 10]))),
    "header-count-not-int": (1, _edit(lambda header: header.update(count=40.0))),
    "header-excluded-not-list": (1, _edit(lambda header: header.update(excluded=5))),
    "header-excluded-not-int": (1, _edit(lambda header: header.update(count=41, excluded=[0.5]))),
    "header-master-seed-not-int": (1, _edit(lambda header: header.update(master_seed=[1]))),
    "record-not-object": (3, lambda line: "[]"),
    "q-wrong-shape": (3, _edit(lambda rec: rec.update(q=rec["q"][:-1]))),
    "q-above-one": (3, _edit(lambda rec: rec.update(q=[[1.5]] + rec["q"][1:]))),
    "q-negative": (3, _edit(lambda rec: rec.update(q=[[-0.25]] + rec["q"][1:]))),
    "q-nan": (3, _edit(lambda rec: rec.update(q=[[float("nan")]] + rec["q"][1:]))),
    "label-k-differs": (3, _edit(lambda rec: rec.update(label={"per_segment": [[1, 2]], "k": 2}))),
    "label-index-exceeds-n": (3, _edit(lambda rec: rec["label"].update(per_segment=[[4]]))),
    "label-blocks-exceed-m": (3, _edit(lambda rec: rec["label"].update(per_segment=[[1], [2]]))),
    "idx-not-integer": (3, _edit(lambda rec: rec.update(idx="x"))),
    "seed-not-integer": (3, _edit(lambda rec: rec.update(seed=1.5))),
    "r_a-not-number": (3, _edit(lambda rec: rec.update(r_a="y"))),
    "r_a-nan": (3, _edit(lambda rec: rec.update(r_a=float("nan")))),
    "r_a-overflows-float": (3, _edit(lambda rec: rec.update(r_a=10**400))),
    "revenue-overflows-float": (3, _edit(lambda rec: rec["revenue"].update(b=10**400))),
    "record-drops-a-product": (
        3,
        _edit(lambda rec: rec.update({f: rec[f][:-1] for f in ("y", "alpha", "beta", "F", "q")})),
    ),
}


class TestDatasetValidation:
    @pytest.mark.parametrize("command", ["train", "label"])
    @pytest.mark.parametrize("case", sorted(_BAD_LINES))
    def test_bad_line_is_read_error_naming_it(self, tmp_path, capsys, command, case):
        run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", tmp_path)
        path = tmp_path / "dataset.jsonl"
        lines = path.read_text().splitlines()
        lineno, mutate = _BAD_LINES[case]
        lines[lineno - 1] = mutate(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(command, path, "--out", tmp_path / "out") == 5
        err = capsys.readouterr().err
        assert "error [read]" in err and f"line {lineno}" in err


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


_BAD_MODELS = {
    "document-not-object": lambda text: "[1, 2]",
    "layout-not-object": _edit(lambda doc: doc.update(layout=[3, 1])),
    "nan-coefficients": _edit(
        lambda doc: doc.update(coefficients=[[float("nan")] * len(row) for row in doc["coefficients"]])
    ),
    "invalid-json": lambda text: text[: len(text) // 2],
}


class TestModelValidation:
    @pytest.mark.parametrize("case", sorted(_BAD_MODELS))
    def test_bad_model_is_read_error(self, tmp_path, capsys, case):
        run("gen", "--n", 3, "--count", 40, "--seed", 5, "--out", tmp_path)
        run("train", tmp_path / "dataset.jsonl", "--out", tmp_path)
        model = tmp_path / "model.json"
        model.write_text(_BAD_MODELS[case](model.read_text()))
        capsys.readouterr()
        assert run("eval", tmp_path / "dataset.jsonl", model) == 5
        assert "error [read]" in capsys.readouterr().err


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
