"""The behaviour manifest: a fixed matrix of CLI runs and what each run leaves behind.

Under a fixed seed the program's behaviour is the bytes of the datasets,
models and reports it writes (the durations in reports aside), what it
prints and its exit codes.  ``MATRIX`` lists ``assort-mnl`` invocations
with relative paths, in order: later runs read what earlier ones wrote,
and a few steps edit a file first so that a run fails on purpose.
:func:`replay` runs the matrix in a directory, in process, and gives per
run its exit code, the SHA-256 of its stdout and stderr, and the SHA-256
of each file it created, replaced or removed (``null``), with every
``durations_s`` value written as 0.  The manifest holds these entries and
the OpenBLAS core that wrote them: the solve's mass and the fit round as
the BLAS kernel does, so that a replay on another core may move bytes.

``tests/test_manifest.py`` replays the matrix and compares the result
with ``behaviour_manifest.json``, naming both cores when an entry
differs.  After a change of behaviour that is meant, regenerate the
manifest, which names on stderr each entry that changed, was added or was
removed, and say why each one did:

    PYTHONPATH=src python tests/behaviour_matrix.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from assort_mnl.cli import main as cli_main

MANIFEST = Path(__file__).with_name("behaviour_manifest.json")

_PRESETS = (
    "case1p1", "case1p2", "case2p1", "case2p2", "case2p3", "case3p1",
    "case3p2", "case3p3", "case3p4", "case3p5", "case4",
)


def _edit_dataset(src: str, dst: str, exclude_last: int = 0, spec: dict | None = None, drop_records: bool = False):
    """An edit step: copy dataset ``src`` to ``dst`` with its last records moved into ``excluded``, or its spec changed."""

    def edit(workdir: Path) -> None:
        header, *records = (workdir / src).read_text().splitlines()
        doc = json.loads(header)
        if exclude_last:
            moved, records = records[-exclude_last:], records[:-exclude_last]
            doc["excluded"] = sorted(doc["excluded"] + [json.loads(r)["idx"] for r in moved])
        if spec:
            doc["spec"].update(spec)
        if drop_records:
            doc.update(count=0, excluded=[])
            records = []
        (workdir / dst).parent.mkdir(parents=True, exist_ok=True)
        (workdir / dst).write_text("\n".join([json.dumps(doc), *records]) + "\n")

    return edit


def _write(dst: str, text: str):
    """An edit step: write ``text`` to ``dst``."""

    def edit(workdir: Path) -> None:
        (workdir / dst).parent.mkdir(parents=True, exist_ok=True)
        (workdir / dst).write_text(text)

    return edit


# (name, argv or edit).  Unit f_mode draws by jump-ahead with at most 192
# draws a record (n=3, m=1 draws 10; n=10, m=3 draws 73; n=25, m=4 draws
# 229), dollar f_mode by a generator per record.
MATRIX = [
    ("gen-unit-jump", ["gen", "--n", "3", "--count", "40", "--seed", "5", "--out", "unit"]),
    ("gen-unit-few-records", ["gen", "--n", "3", "--count", "8", "--seed", "5", "--out", "few"]),
    ("gen-unit-many-draws", ["gen", "--n", "10", "--m", "3", "--k", "4", "--count", "40", "--seed", "6", "--out", "many"]),
    ("gen-unit-past-the-jump-cap", ["gen", "--n", "25", "--m", "4", "--k", "4", "--count", "40", "--seed", "15",
                                    "--out", "past-cap"]),
    ("gen-unit-no-network-effects", ["gen", "--n", "4", "--count", "40", "--no-network-effects", "--out", "unit-off"]),
    ("gen-count-1", ["gen", "--n", "3", "--count", "1", "--seed", "9", "--out", "one"]),
    ("gen-dollar", ["gen", "--n", "4", "--m", "2", "--k", "2", "--f-mode", "dollar", "--count", "40",
                    "--seed", "11", "--out", "dollar", "--format", "json"]),
    ("gen-dollar-no-network-effects", ["gen", "--n", "4", "--m", "2", "--k", "2", "--f-mode", "dollar",
                                       "--count", "40", "--seed", "11", "--no-network-effects", "--out", "dollar-off"]),
    ("gen-n1-m2", ["gen", "--n", "1", "--m", "2", "--count", "40", "--seed", "12", "--out", "n1m2"]),
    ("gen-n5-m2", ["gen", "--n", "5", "--m", "2", "--k", "2", "--mode", "per-segment", "--count", "40",
                   "--seed", "13", "--out", "n5m2"]),
    ("gen-n7-m3", ["gen", "--n", "7", "--m", "3", "--k", "3", "--count", "40", "--seed", "14", "--out", "n7m3"]),
    ("gen-preset", ["gen", "--preset", "case2p3", "--count", "40", "--out", "preset"]),
    ("label-shared", ["label", "n5m2/dataset.jsonl", "--k", "3", "--mode", "shared", "--out", "label-shared"]),
    ("label-per-segment", ["label", "n7m3/dataset.jsonl", "--k", "2", "--mode", "per-segment",
                           "--out", "label-per-segment", "--format", "json"]),
    ("train", ["train", "unit/dataset.jsonl", "--out", "unit"]),
    ("train-json", ["train", "n5m2/dataset.jsonl", "--out", "n5m2", "--format", "json"]),
    ("eval-out-json", ["eval", "unit/dataset.jsonl", "unit/model.json", "--out", "unit-eval", "--format", "json"]),
    ("eval-text", ["eval", "n5m2/dataset.jsonl", "n5m2/model.json"]),
    *((f"case-{name}", ["case", "--preset", name, "--out", "cases"]) for name in _PRESETS),
    *((f"case-{name}-no-network-effects", ["case", "--preset", name, "--no-network-effects",
                                           "--case-id", f"{name}-off", "--out", "cases"]) for name in _PRESETS),
    ("case-json", ["case", "--n", "3", "--count", "60", "--seed", "3", "--case-id", "small", "--out", "small",
                   "--format", "json"]),
    ("compare", ["compare", "cases/case1p1_report.json", "cases/case1p1-off_report.json"]),
    ("compare-json", ["compare", "cases/case3p3_report.json", "cases/case3p4_report.json", "--format", "json"]),
    # Failing runs, exit 2.
    ("fail-preset-conflict", ["gen", "--preset", "case3p3", "--n", "9", "--out", "fail"]),
    ("fail-no-shape", ["case", "--count", "40", "--out", "fail"]),
    ("fail-case-too-few-records", ["case", "--n", "2", "--count", "8", "--out", "fail"]),
    ("fail-seed-range", ["gen", "--n", "2", "--seed", "-1", "--out", "fail"]),
    ("fail-case-id-escapes-out", ["case", "--n", "3", "--count", "40", "--case-id", "../escape", "--out", "fail"]),
    ("fail-case-id-not-a-file-name", ["case", "--n", "3", "--count", "40", "--case-id", "a/b", "--out", "fail"]),
    ("edit-empty-test-split", _edit_dataset("unit/dataset.jsonl", "empty-split/dataset.jsonl", exclude_last=1)),
    ("train-empty-test-split", ["train", "empty-split/dataset.jsonl", "--train-fraction", "0.99", "--out", "empty-split"]),
    ("fail-eval-empty-test-split", ["eval", "empty-split/dataset.jsonl", "empty-split/model.json",
                                    "--train-fraction", "0.99"]),
    ("fail-eval-shape-mismatch", ["eval", "n5m2/dataset.jsonl", "unit/model.json"]),
    # Exit 3: three of 40 records excluded is over the 5% budget.
    ("edit-over-budget", _edit_dataset("unit/dataset.jsonl", "over-budget/dataset.jsonl", exclude_last=3)),
    ("fail-label-over-budget", ["label", "over-budget/dataset.jsonl", "--out", "over-budget"]),
    # Exit 4: 6 training rows cannot fit 9 features.
    ("fail-train-underdetermined", ["train", "few/dataset.jsonl", "--out", "few"]),
    # Exit 5.
    ("fail-missing-dataset", ["train", "missing/dataset.jsonl", "--out", "fail"]),
    ("edit-invalid-json", _write("bad/dataset.jsonl", "not json\n")),
    ("fail-invalid-json", ["label", "bad/dataset.jsonl", "--out", "fail"]),
    ("edit-bad-model", _write("bad/model.json", '{"format_version": 1, "layout": [3, 1]}\n')),
    ("fail-bad-model", ["eval", "unit/dataset.jsonl", "bad/model.json"]),
    ("edit-bad-report", _write("bad/report.json", '{"config": {"case_id": "x"}, "evaluation": {}}\n')),
    ("fail-bad-report", ["compare", "bad/report.json", "cases/case1p1_report.json"]),
    ("edit-huge-n-records", _edit_dataset("unit/dataset.jsonl", "huge-n/dataset.jsonl", spec={"n": 10**20})),
    ("fail-huge-n-records", ["train", "huge-n/dataset.jsonl", "--out", "fail"]),
    ("edit-huge-n-no-records", _edit_dataset("unit/dataset.jsonl", "huge-n-empty/dataset.jsonl",
                                             spec={"n": 10**20}, drop_records=True)),
    ("fail-huge-n-no-records", ["label", "huge-n-empty/dataset.jsonl", "--out", "fail"]),
    ("edit-huge-m-no-records", _edit_dataset("unit/dataset.jsonl", "huge-m-empty/dataset.jsonl",
                                             spec={"m": 10**20}, drop_records=True)),
    ("fail-huge-m-no-records", ["label", "huge-m-empty/dataset.jsonl", "--out", "fail"]),
]


def openblas_core() -> str:
    """The CPU core whose kernels numpy's bundled scipy-openblas runs, or ``unknown`` without that library or symbol."""
    libraries = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libraries[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def masked(data: bytes) -> bytes:
    """``data`` with each number inside a ``"durations_s": {...}`` object written as 0."""
    return re.sub(
        rb'"durations_s": \{[^}]*\}',
        lambda block: re.sub(rb'(": )-?[0-9][0-9.eE+-]*', rb"\g<1>0", block[0]),
        data,
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(masked(data)).hexdigest()


def _stats(workdir: Path) -> dict:
    """Each file under ``workdir`` with what tells a rewrite apart: inode, size and mtime."""
    return {
        str(p.relative_to(workdir)): (s.st_ino, s.st_size, s.st_mtime_ns)
        for p in sorted(workdir.rglob("*")) if p.is_file() for s in [p.stat()]
    }


def _run(argv: list) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``assort-mnl argv`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def replay(workdir) -> dict:
    """Run ``MATRIX`` in the empty directory ``workdir``; the manifest entry of each CLI run, by name."""
    workdir = Path(workdir).resolve()
    entries = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, step in MATRIX:
            if callable(step):
                step(workdir)
                continue
            before = _stats(workdir)
            code, out, err = _run(step)
            after = _stats(workdir)
            files = {
                path: None if path not in after else _digest((workdir / path).read_bytes())
                for path in sorted(before.keys() | after.keys()) if before.get(path) != after.get(path)
            }
            entries[name] = {
                "argv": " ".join(step),
                "exit": code,
                "stdout": _digest(out),
                "stderr": _digest(err),
                "files": files,
            }
    finally:
        os.chdir(previous)
    return entries


def main() -> None:
    """Regenerate the manifest, and name on stderr its core and each entry that changed, was added or was removed."""
    with tempfile.TemporaryDirectory() as tmp:
        entries = replay(tmp)
    previous = json.loads(MANIFEST.read_text())["entries"] if MANIFEST.exists() else {}
    core = openblas_core()
    MANIFEST.write_text(json.dumps({"openblas_core": core, "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {MANIFEST} on OpenBLAS core {core}", file=sys.stderr)
    for name, entry in entries.items():
        if name not in previous:
            print(f"added: {name}", file=sys.stderr)
        elif entry != previous[name]:
            print(f"changed: {name}", file=sys.stderr)
    for name in previous:
        if name not in entries:
            print(f"removed: {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
