"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

A workload's pass does a fixed amount of work that does not depend on how
fast the program is.  The pass itself is timed; ``inspect`` (cheap, after
every pass) and ``check`` (once per run) are not.  Every pass of a run must
produce byte-identical output, which ``inspect`` reduces to a SHA-256.

An operation is one record: ``records_per_pass`` are requested in each pass
and a record fails when the program drops it (a non-converged fixed point)
or when the case that holds it exits with an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from assort_mnl import bench, cli, generate, learner
from assort_mnl.core import PER_SEGMENT, SHARED
from assort_mnl.generate import GenSpec

import checks

TRAIN_FRACTION = 0.75


@dataclass(frozen=True)
class PassResult:
    records: int  # records carried through the pass
    failed: int  # requested records that did not come through
    digest: str  # SHA-256 of everything the pass produced


def master_seeds(seed: int, count: int) -> list[int]:
    """Program master seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Presets:
    """The paper's 11 preset cases through ``assort-mnl case``, in process."""

    name = "presets"

    def __init__(self, seed: int, workdir: Path, count: int = 500):
        self.count = count
        (self.master_seed,) = master_seeds(seed, 1)
        self.out = Path(workdir) / "presets"
        self.records_per_pass = count * len(bench.PRESET_NAMES)

    def make_inputs(self) -> None:
        self.argvs = [
            ["case", "--preset", name, "--count", str(self.count),
             "--seed", str(self.master_seed), "--out", str(self.out)]
            for name in bench.PRESET_NAMES
        ]

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self.argvs]

    def _files(self, name: str):
        return [self.out / f"{name}_{kind}" for kind in ("dataset.jsonl", "model.json", "report.json")]

    def inspect(self, exit_codes) -> PassResult:
        sha = hashlib.sha256()
        failed = 0
        for name, code in zip(bench.PRESET_NAMES, exit_codes):
            sha.update(f"{name}:{code}\n".encode())
            if code != 0:
                failed += self.count
                continue
            dataset, model, report = self._files(name)
            # The report holds durations, so only the dataset and model are hashed.
            sha.update(dataset.read_bytes())
            sha.update(model.read_bytes())
            failed += json.loads(report.read_text())["counts"]["excluded"]
        return PassResult(self.records_per_pass - failed, failed, sha.hexdigest())

    def check(self, exit_codes) -> None:
        for name, code in zip(bench.PRESET_NAMES, exit_codes):
            if code != 0:
                continue
            dataset_path, model_path, report_path = self._files(name)
            lines = dataset_path.read_text().splitlines()
            spec = json.loads(lines[0])["spec"]
            report = json.loads(report_path.read_text())
            model = json.loads(model_path.read_text())
            if report["artifacts"]["dataset"]["sha256"] != hashlib.sha256(dataset_path.read_bytes()).hexdigest():
                raise checks.CheckError(f"{name}: report names another dataset SHA-256")
            batch = checks.batch_from_jsonl(lines[1:], spec["k"])
            try:
                checks.check_dataset(batch, spec["mode"])
                train, test = checks.split_rows(batch, self.count, TRAIN_FRACTION)
                checks.check_fit(train, model["intercept"], model["coefficients"])
                checks.check_evaluation(
                    test, model["intercept"], model["coefficients"], spec["mode"], report["evaluation"]
                )
            except checks.CheckError as e:
                raise checks.CheckError(f"{name}: {e}") from None


def _dataset_digest(datasets) -> str:
    sha = hashlib.sha256()
    for ds in datasets:
        sha.update(repr((ds.count, ds.excluded)).encode())
        for rec in ds.records:
            inst = rec.instance
            sha.update(repr((rec.idx, rec.seed, rec.label.per_segment, rec.r_a.hex())).encode())
            for arr in (inst.y, inst.alpha, inst.beta, inst.F, inst.lam, rec.q):
                sha.update(arr.tobytes())
    return sha.hexdigest()


class WideMenu:
    """Labeling where the menu is wide: n = 12 products, k = 6 offered."""

    name = "wide_menu"

    def __init__(self, seed: int, workdir: Path, shared_count: int = 40, per_segment_count: int = 16):
        shared_seed, per_segment_seed = master_seeds(seed, 2)
        self.jobs = [
            (GenSpec(n=12, m=1, k=6, mode=SHARED), shared_count, shared_seed),
            (GenSpec(n=12, m=2, k=6, mode=PER_SEGMENT), per_segment_count, per_segment_seed),
        ]
        self.records_per_pass = shared_count + per_segment_count

    def make_inputs(self) -> None:
        pass  # the inputs are the specs and seeds fixed above

    def run_pass(self):
        return [generate.generate_dataset(spec, count, seed) for spec, count, seed in self.jobs]

    def inspect(self, datasets) -> PassResult:
        failed = sum(len(ds.excluded) for ds in datasets)
        return PassResult(self.records_per_pass - failed, failed, _dataset_digest(datasets))

    def check(self, datasets) -> None:
        for ds in datasets:
            if ds.records:
                checks.check_dataset(checks.batch_from_records(ds.records, ds.spec.k), ds.spec.mode)


class LearnIO:
    """Persist, reload and learn from a dataset labeled once in set-up."""

    name = "learn_io"

    def __init__(self, seed: int, workdir: Path, count: int = 2000):
        self.spec = GenSpec(n=10, m=2, k=1, mode=PER_SEGMENT)
        self.count = count
        (self.master_seed,) = master_seeds(seed, 1)
        self.path = Path(workdir) / "learn_io.jsonl"
        self.records_per_pass = count

    def make_inputs(self) -> None:
        self.dataset = generate.generate_dataset(self.spec, self.count, self.master_seed)

    def run_pass(self):
        generate.write_dataset(self.dataset, self.path)
        dataset = generate.read_dataset(self.path)
        generate.verify_labels(dataset)
        train, test = bench.split_dataset(dataset, TRAIN_FRACTION)
        X, Y, layout = bench.training_matrices(train)
        model = learner.fit_linear(X, Y, layout)
        return dataset, model, learner.evaluate(model, test)

    def inspect(self, output) -> PassResult:
        dataset = output[0]
        failed = len(dataset.excluded)
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        return PassResult(self.records_per_pass - failed, failed, digest)

    def check(self, output) -> None:
        dataset, model, report = output
        if dataset != self.dataset:
            raise checks.CheckError("read_dataset(write_dataset(d)) differs from d")
        batch = checks.batch_from_records(dataset.records, self.spec.k)
        checks.check_dataset(batch, self.spec.mode)
        train, test = checks.split_rows(batch, self.count, TRAIN_FRACTION)
        checks.check_fit(train, model.intercept, model.coefficients)
        checks.check_evaluation(test, model.intercept, model.coefficients, self.spec.mode, report.to_dict())


WORKLOADS = {w.name: w for w in (Presets, WideMenu, LearnIO)}
