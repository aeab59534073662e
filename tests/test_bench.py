"""Tests for presets, the end-to-end case runner, and run comparison."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from assort_mnl import (
    CaseConfig,
    GenSpec,
    StageError,
    compare_runs,
    evaluate,
    generate_dataset,
    preset,
    read_dataset,
    read_model,
    run_case,
    split_dataset,
    write_dataset,
)
from assort_mnl.bench import (
    EXIT_NONCONVERGENCE,
    EXIT_TRAIN,
    PRESET_NAMES,
    check_convergence_budget,
)
from assort_mnl.cli import main
from assort_mnl.core import PER_SEGMENT, SHARED


# SHA-256 of each preset's 500-record dataset at master seed 1729, taken
# while labels still came from exhaustive subset enumeration.  The top-k
# labeling must reproduce those files byte for byte.
PRESET_DATASET_SHA256 = {
    "case1p1": "f239453da49e2c5e0eb57bfd30fd674f11bfa58cb5a730ae1ae9dea0a449dc9a",
    "case1p2": "4f8d586f492e253cf55aba744b8c39cb0d55234644f8f22a9c96132b6c7c5c34",
    "case2p1": "28f28818dff274d37d8f78c835052894aaa88535e43b847c13a3e3c32e40ea43",
    "case2p2": "b3dbdf225312e56a8c1d91df94cf8e53e5e499290ec13cf85fd2f334af9f77bb",
    "case2p3": "de3a3f30cbb74a873fbdae9d4f3ab34d7e95c381ce0a544999cf1407d99d7331",
    "case3p1": "4a1665401d7b3c33ed6fcc85204779957f4535ae3c06380af989e9890a9fd630",
    "case3p2": "65c6b7913a15a8b714830cc4141b3021171a20b1db25617b6fbab2bd5d0047d7",
    "case3p3": "65625f5aca7993cb746586b211648da684c2d68c65dea41cd9804461f0cae759",
    "case3p4": "2e54ab3b87f191a955b14884d0bb6542784261843bdd3421ae2b11b99ec92f52",
    "case3p5": "6adfa5e3a51fc4b5189241aa0ac515e0c6671821112f5b66c0d51f87fc500dc0",
    "case4": "76d86e4ebc7401a3c978a44964ba13d46903efc3367b68f43eeccf6a21bea1a5",
}

# SHA-256 of each preset's model file and of its case report's
# ``evaluation`` section (``json.dumps(..., sort_keys=True)``) at master
# seed 1729, taken while labeling, training matrices, prediction, decoding
# and revenue still ran one record at a time.  The dataset-level array code
# must reproduce them exactly.
PRESET_MODEL_SHA256 = {
    "case1p1": "4857ba5510b92febb661f4ef1aaf0c4713faeda32a7c805f9f82a8c6d35f4261",
    "case1p2": "2d6ce469b6280501b0b044704e6d0ff0475fb4308c1c82c05be8338145952f23",
    "case2p1": "ec3369ec435281f1bd6580ed73384c97c80746705146e3cc0fe7ac851549ee88",
    "case2p2": "9f4e1b13ba36b6559ceec88d8b50e05f69df57007575298a6b6f89714c5723e8",
    "case2p3": "5967bfccbc2823e49e13022ca547ca8750ceab91202d6ca2dbf8d328025e1059",
    "case3p1": "20f13309d14314be1c4339b98cddc2f21df03ad5306a15ea90c5753a0410da30",
    "case3p2": "13549268158fbe6bf4807fbac6bc8eb68959385503b90f19b7b6e124a2b1fb98",
    "case3p3": "60efae51a7f716f136db75946b25147a1643dd292f2c1f29e76755b3b06d5966",
    "case3p4": "4f23338c246ec3c2a307a6c1279ce1d1d47d0cd039bedc6149bac2a433411890",
    "case3p5": "570a36fae2be59c8d8b9c5a51edb56ac4f037a11b0ff631859a98427c5af7ff7",
    "case4": "1adf2e864ec566a6e334c235f36e821819b127721a374ce052e588c39dc02321",
}
PRESET_EVALUATION_SHA256 = {
    "case1p1": "5071134ff8b49815ef3da4c0ee355d7e6e62658f806a6ab02d7d0d6b0656bb6d",
    "case1p2": "e65593f8339658e89ab31d77d2e4daa4a5ce9255f8c41ef8248926d781cc3162",
    "case2p1": "b358583017bc2495f645c3f192d7aa1639d281172575f44b9cb60ad230eeded6",
    "case2p2": "edee2343644bb7725a57519c5912c7fe30a50e159009014440aed920a006ab31",
    "case2p3": "625e67c0baeb39e682686fd2d3258198d6f8af65f442a72be2d8636a74fb1789",
    "case3p1": "f40546d74aee355de61914e450c28ad9daa55cc7ebb992b4bb77f2d1918389ec",
    "case3p2": "14744b8f3512b3e612a0318403c49e16c52e761a94adb89a7e0ffb436b94d82b",
    "case3p3": "5e4c491deedbe8fc940631979fadecd5692493a276a3a179b452d648063f5796",
    "case3p4": "d285a9c603740b100f27cd12427c2edec53f9abbddd03e9a2bceb5030328a5a5",
    "case3p5": "000ba8c314c635d080436b323bc20d4d176c9e29e050670b43b90e9fc6b9c55a",
    "case4": "d584a43175fd738d80986cfe7310cb94108dd63229af64a77754ef11653e5e20",
}

# SHA-256 of each preset's full case report at master seed 1729, run with
# out_dir "." and every duration written as 0 (see masked_durations), and
# of the eval --out report of case1p2 at seed 1, taken while the reports
# were written from a template of their example rows.  json.dumps(doc,
# indent=2) must reproduce them.
PRESET_REPORT_SHA256 = {
    "case1p1": "49e6123ff495dcfb54b642d11c68a2e5851b5dd8996568275c284a73546fb2dc",
    "case1p2": "c8b0b7a80465d54233b8ff688fce30e081332c9b9bc6dd9ae01f0debd5f5abb3",
    "case2p1": "c20ddcbeec7b68d71d4c67f71258b01723fe57415ffe80afd21489dfb9f0b30b",
    "case2p2": "0a1ab77bd9b7046e279d29bf07f1c760d6f85ce021777dc8d4a13ebb622c294b",
    "case2p3": "00d8d92f552bec6edb7da38fd78479fa50b1f13e32cf1046210e66ebf2b4db58",
    "case3p1": "b7756124ca585c1dcd6e0f026476fb83d6db2b1ede551b1770219f7bbd8d7c99",
    "case3p2": "50efd8e8a05ee4b066fc4b60bd86b4dd2af44a4f9992b4253f4a2ceb7740769f",
    "case3p3": "68eaf60adbb09d9af961f175473db48204e2b2dfeb29745169944d2123aba031",
    "case3p4": "93acc329f08551a7381c30e5ce0a90ed5997ce36aa8df8359cb321d6462e2c1c",
    "case3p5": "462f902984fafbbae520c56ce6d394ebc713cb6eeae5de3d6e7c02374a7fe480",
    "case4": "8f7448c3847c7bf357269950490d42219b0bfeb44df7992d806120960dd512a7",
}
EVAL_REPORT_SHA256 = "05afe8b803f6bb2c12b01a25d7d551d4328e4a1e9c95cd901bb5f4fa03879259"

# Datasets with blocks of k = 9 over m = 3 segments, where a revenue sum no
# longer adds its terms one by one; same seed and the same provenance.
WIDE_DATASET_SHA256 = {
    "shared": "0b885a44c69389fbf76674ed60d89394da98b7b9e040e15d2602436d6d97cbbc",
    "per-segment": "fc75a81c852d4fc6bc856a3d7877e9ffa45fb93b1541d922ea1a73ea22821701",
}

# ``gen --n 5 --m 2 --k 2 --f-mode dollar --count 200 --seed 1729`` with and
# without network effects: dollar funding gaps drive most supports to zero,
# where the tie rule picks every label.  Taken while the per-instance API
# still held its own selection and revenue functions.
DOLLAR_DATASET_SHA256 = {
    "network-effects": "bf27e9f152d3b11afc090ca95e5ea13b04d58112581b12dcfa8eff298e783cd5",
    "no-network-effects": "0d6fb3ed70b5e34ea0dfd84510e1b5409e6089fa95b8916df43c38738d1b90b6",
}
# ``label --k 2 --mode per-segment`` of the case3p1 dataset at seed 1729
# (PRESET_DATASET_SHA256["case3p1"]), same provenance.
RELABELED_DATASET_SHA256 = "2110091e42ca3ae409e820f586de129939875a44e722cce09e927529fe0a0e10"


def masked_durations(text):
    """A case report's text with each of its ``durations_s`` written as 0."""
    head, key, tail = text.partition('\n  "durations_s": {')
    assert key, "no durations_s"
    return head + key + re.sub(r'": [^,\n]+', '": 0', tail)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPreset:
    def test_dataset_bytes_pinned(self, tmp_path):
        assert set(PRESET_DATASET_SHA256) == set(PRESET_NAMES)
        for name, digest in PRESET_DATASET_SHA256.items():
            path = tmp_path / f"{name}.jsonl"
            write_dataset(generate_dataset(preset(name).spec, 500, 1729), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name

    def test_model_and_evaluation_pinned(self, tmp_path, monkeypatch):
        assert set(PRESET_MODEL_SHA256) == set(PRESET_EVALUATION_SHA256) == set(PRESET_REPORT_SHA256) == set(PRESET_NAMES)
        # The report echoes out_dir: a relative one keeps its bytes apart from tmp_path.
        monkeypatch.chdir(tmp_path)
        for name in PRESET_NAMES:
            report = run_case(preset(name))
            assert report["artifacts"]["model"]["sha256"] == PRESET_MODEL_SHA256[name], name
            evaluation = json.dumps(report["evaluation"], sort_keys=True)
            assert sha256(evaluation) == PRESET_EVALUATION_SHA256[name], name
            text = (tmp_path / f"{name}_report.json").read_text()
            assert sha256(masked_durations(text)) == PRESET_REPORT_SHA256[name], name

    @pytest.mark.parametrize("mode", [SHARED, PER_SEGMENT])
    def test_wide_dataset_bytes_pinned(self, tmp_path, mode):
        path = tmp_path / "wide.jsonl"
        write_dataset(generate_dataset(GenSpec(n=20, m=3, k=9, mode=mode), 200, 1729), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_DATASET_SHA256[mode]

    @pytest.mark.parametrize("network_effects", ["network-effects", "no-network-effects"])
    def test_dollar_dataset_bytes_pinned(self, tmp_path, network_effects):
        argv = ["gen", "--n", "5", "--m", "2", "--k", "2", "--f-mode", "dollar", "--count", "200", "--seed", "1729"]
        if network_effects == "no-network-effects":
            argv.append("--no-network-effects")
        assert main(argv + ["--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == DOLLAR_DATASET_SHA256[network_effects]

    def test_relabeled_dataset_bytes_pinned(self, tmp_path):
        assert main(["gen", "--preset", "case3p1", "--seed", "1729", "--out", str(tmp_path / "gen")]) == 0
        digest = hashlib.sha256((tmp_path / "gen" / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == PRESET_DATASET_SHA256["case3p1"]
        argv = ["label", str(tmp_path / "gen" / "dataset.jsonl"), "--k", "2", "--mode", "per-segment"]
        assert main(argv + ["--out", str(tmp_path / "label")]) == 0
        digest = hashlib.sha256((tmp_path / "label" / "dataset.jsonl").read_bytes()).hexdigest()
        assert digest == RELABELED_DATASET_SHA256

    def test_grid(self):
        expected = {
            "case1p1": (2, 1, 1, True, SHARED),
            "case1p2": (2, 1, 1, False, SHARED),
            "case2p1": (3, 1, 1, True, SHARED),
            "case2p2": (3, 1, 1, False, SHARED),
            "case2p3": (3, 1, 2, True, SHARED),
            "case3p1": (5, 1, 1, True, SHARED),
            "case3p2": (5, 1, 1, False, SHARED),
            "case3p3": (5, 1, 2, True, SHARED),
            "case3p4": (5, 1, 3, True, SHARED),
            "case3p5": (5, 1, 4, True, SHARED),
            "case4": (2, 2, 1, True, PER_SEGMENT),
        }
        assert set(PRESET_NAMES) == set(expected)
        for name, (n, m, k, nwe, mode) in expected.items():
            cfg = preset(name)
            assert (cfg.spec.n, cfg.spec.m, cfg.spec.k) == (n, m, k)
            assert cfg.spec.network_effects is nwe
            assert cfg.spec.mode == mode
            assert cfg.spec.M == 50.0
            assert cfg.count == 500
            assert cfg.train_fraction == 0.75
            assert cfg.reference is not None

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ValueError, match="case1p1"):
            preset("case9")


class TestCaseConfig:
    def test_train_fraction_bounds(self):
        spec = GenSpec(n=2, m=1)
        with pytest.raises(ValueError):
            CaseConfig(case_id="x", spec=spec, train_fraction=0.0)
        with pytest.raises(ValueError):
            CaseConfig(case_id="x", spec=spec, train_fraction=1.0)

    def test_training_rows_must_cover_features(self):
        spec = GenSpec(n=2, m=1)  # d = 6
        with pytest.raises(ValueError, match="features"):
            CaseConfig(case_id="x", spec=spec, count=8, train_fraction=0.75)
        CaseConfig(case_id="x", spec=spec, count=12, train_fraction=0.75)

    def test_case_id_must_name_a_file(self):
        with pytest.raises(ValueError, match="case_id must be a file name"):
            CaseConfig(case_id="", spec=GenSpec(n=2, m=1))

    @pytest.mark.parametrize("field,value", [("master_seed", 1.5), ("master_seed", "1"), ("count", 500.0), ("count", True)])
    def test_seed_and_count_must_be_integers(self, field, value):
        # A float master seed once reached the report as given, and the dataset header as its floor.
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            preset("case1p1", **{field: value})

    def test_numpy_integers_become_ints(self):
        config = preset("case1p1", count=np.int64(40), master_seed=np.uint64(7))
        assert (config.count, config.master_seed) == (40, 7)
        assert (type(config.count), type(config.master_seed)) == (int, int)


class TestSplit:
    def test_first_records_train(self):
        data = generate_dataset(GenSpec(n=2, m=1), count=20, master_seed=3)
        train, test = split_dataset(data, 0.75)
        assert len(train.records) == 15
        assert len(test.records) == 5
        assert train.records == data.records[:15]
        assert test.records == data.records[15:]


class TestConvergenceBudget:
    def _with_exclusions(self, count, n_excluded):
        data = generate_dataset(GenSpec(n=2, m=1), count=count, master_seed=3)
        return dataclasses.replace(data.take(slice(n_excluded, None)), excluded=tuple(range(n_excluded)))

    def test_within_budget_passes(self):
        check_convergence_budget(self._with_exclusions(20, 1))  # 5% exactly

    def test_over_budget_raises(self):
        with pytest.raises(StageError) as exc:
            check_convergence_budget(self._with_exclusions(20, 2))
        assert str(exc.value).startswith("[generate] ")
        assert exc.value.exit_code == EXIT_NONCONVERGENCE


class TestRunCase:
    def _config(self, tmp_path, **kwargs):
        defaults = dict(count=40, master_seed=77, out_dir=str(tmp_path))
        defaults.update(kwargs)
        return preset("case1p1", **defaults)

    def test_artifacts_and_report(self, tmp_path):
        report = run_case(self._config(tmp_path))
        assert (tmp_path / "case1p1_dataset.jsonl").exists()
        assert (tmp_path / "case1p1_model.json").exists()
        assert (tmp_path / "case1p1_report.json").exists()
        assert report["counts"]["requested"] == 40
        assert report["counts"]["train"] == 30
        assert report["counts"]["test"] == 10
        assert 0.0 <= report["evaluation"]["error_rate"] <= 1.0
        doc = json.loads((tmp_path / "case1p1_report.json").read_text())
        assert doc["config"]["case_id"] == "case1p1"
        assert doc["reference"]["r_a_max"] == 0.44

    def test_mean_prl_matches_example_table(self, tmp_path):
        report = run_case(self._config(tmp_path))
        values = [ex["prl"] for ex in report["evaluation"]["examples"] if ex["prl"] is not None]
        assert report["evaluation"]["mean_prl_percent"] == pytest.approx(
            float(np.mean(values)), abs=1e-12
        )

    def test_deterministic_except_durations(self, tmp_path):
        d1 = run_case(self._config(tmp_path / "run1"))
        d2 = run_case(self._config(tmp_path / "run2"))
        d1.pop("durations_s"), d2.pop("durations_s")
        d1["config"].pop("out_dir"), d2["config"].pop("out_dir")
        assert d1 == d2
        assert (tmp_path / "run1" / "case1p1_dataset.jsonl").read_bytes() == (
            tmp_path / "run2" / "case1p1_dataset.jsonl"
        ).read_bytes()

    def test_digests_match_files(self, tmp_path):
        import hashlib

        report = run_case(self._config(tmp_path))
        for name in ("dataset", "model"):
            path = tmp_path / report["artifacts"][name]["path"]
            assert (
                hashlib.sha256(path.read_bytes()).hexdigest()
                == report["artifacts"][name]["sha256"]
            )

    def test_minimal_viable_count_and_config_guard(self, tmp_path):
        # 9 training rows for d=6 features is the smallest viable split here.
        cfg = CaseConfig(
            case_id="tiny",
            spec=GenSpec(n=2, m=1),
            count=12,
            train_fraction=0.75,
            master_seed=5,
            out_dir=str(tmp_path),
        )
        report = run_case(cfg)
        assert report["counts"]["train"] == 9
        # Too few records and the config guard rejects it before any work.
        with pytest.raises(ValueError):
            CaseConfig(
                case_id="tiny2",
                spec=GenSpec(n=2, m=1),
                count=8,
                train_fraction=0.75,
                master_seed=5,
                out_dir=str(tmp_path),
            )

    def test_empty_test_split_is_evaluate_error(self, tmp_path, monkeypatch):
        import assort_mnl.bench as bench_mod

        data = generate_dataset(preset("case1p1").spec, 40, 77)
        # With the last record excluded, a 0.99 split trains on all 39 that remain.
        last_excluded = dataclasses.replace(data.take(slice(None, 39)), excluded=(39,))
        monkeypatch.setattr(bench_mod, "generate_dataset", lambda spec, count, seed: last_excluded)
        with pytest.raises(ValueError, match="^test dataset has no records$"):
            run_case(self._config(tmp_path, train_fraction=0.99))
        assert list(tmp_path.iterdir()) == []

    def test_training_failure_is_stage_tagged(self, tmp_path, monkeypatch):
        import assort_mnl.bench as bench_mod
        from assort_mnl.learner import UnderdeterminedFitError

        def boom(X, Y, layout):
            raise UnderdeterminedFitError("forced failure")

        monkeypatch.setattr(bench_mod, "fit_linear", boom)
        with pytest.raises(StageError) as exc:
            run_case(self._config(tmp_path))
        assert str(exc.value) == "[train] forced failure"
        assert exc.value.exit_code == EXIT_TRAIN


class TestCompareRuns:
    def test_identical_reports_zero_deltas(self, tmp_path):
        cfg = preset("case1p1", count=40, master_seed=7, out_dir=str(tmp_path))
        report = run_case(cfg)
        summary = compare_runs(report, report)
        for row in summary["metrics"].values():
            assert row["delta"] == 0 or row["delta"] is None
            assert row["direction"] in ("equal", "undefined")

    def test_network_effect_direction(self, tmp_path):
        on = run_case(preset("case1p1", count=60, master_seed=9, out_dir=str(tmp_path / "on")))
        off = run_case(preset("case1p2", count=60, master_seed=9, out_dir=str(tmp_path / "off")))
        summary = compare_runs(on, off)
        assert summary["metrics"]["r_a_mean"]["direction"] == "lower"

    def test_shape_mismatch_rejected(self, tmp_path):
        a = run_case(preset("case1p1", count=40, master_seed=7, out_dir=str(tmp_path / "a")))
        b = run_case(preset("case2p1", count=40, master_seed=7, out_dir=str(tmp_path / "b")))
        with pytest.raises(ValueError, match="shapes"):
            compare_runs(a, b)

    def test_accepts_dict_form(self, tmp_path):
        report = run_case(preset("case1p1", count=40, master_seed=7, out_dir=str(tmp_path)))
        doc = json.loads((tmp_path / "case1p1_report.json").read_text())
        summary = compare_runs(doc, report)
        assert summary["case_a"] == summary["case_b"] == "case1p1"


class TestReportDocument:
    def test_run_case_returns_the_document_it_wrote(self, tmp_path):
        # case1p2 at seed 1 has examples with a null prl and both misclassified values.
        config = preset("case1p2", master_seed=1, out_dir=str(tmp_path))
        doc = run_case(config)
        text = (tmp_path / "case1p2_report.json").read_text()
        assert type(doc) is dict and doc == json.loads(text)
        assert json.dumps(doc, indent=2) + "\n" == text
        examples = doc["evaluation"]["examples"]
        assert all(type(ex) is dict and list(ex) == ["idx", "r_a", "r_c", "prl", "misclassified"] for ex in examples)
        # The evaluation is evaluate's document, rebuilt from the artifacts.
        _, test = split_dataset(read_dataset(tmp_path / "case1p2_dataset.jsonl"), config.train_fraction)
        assert evaluate(read_model(tmp_path / "case1p2_model.json"), test).to_dict() == doc["evaluation"]
        other = run_case(preset("case1p1", master_seed=1, out_dir=str(tmp_path)))
        summary = compare_runs(doc, other)
        assert (summary["case_a"], summary["case_b"]) == ("case1p2", "case1p1")


class TestReportEncoder:
    def test_case_and_eval_reports_are_json_bytes(self, tmp_path):
        # case1p2 at seed 1 has test examples below PRL_MIN_REVENUE (prl
        # null) and both misclassified values.
        report = run_case(preset("case1p2", master_seed=1, out_dir=str(tmp_path)))
        examples = report["evaluation"]["examples"]
        assert any(ex["prl"] is None for ex in examples)
        assert {ex["misclassified"] for ex in examples} == {True, False}
        text = (tmp_path / "case1p2_report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text)["evaluation"] == report["evaluation"]

    def test_eval_report_bytes_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--preset", "case1p2", "--seed", "1", "--out", "ev"]) == 0
        assert main(["train", "ev/dataset.jsonl", "--out", "ev"]) == 0
        capsys.readouterr()
        assert main(["eval", "ev/dataset.jsonl", "ev/model.json", "--out", "ev", "--format", "json"]) == 0
        text = (tmp_path / "ev" / "report.json").read_text()
        assert sha256(text) == EVAL_REPORT_SHA256
        # --format json prints the document the report file holds.
        assert capsys.readouterr().out == text
