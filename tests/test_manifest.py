"""The behaviour manifest holds: each run of the CLI matrix exits, prints and writes what it recorded."""

import json
import re

import pytest

import behaviour_matrix
from behaviour_matrix import MANIFEST, replay


def assert_replays(manifest, entries):
    """Each of ``entries`` equals ``manifest``'s; one that differs is named with the core it was recorded on and this one."""
    expected = manifest["entries"]
    assert list(entries) == list(expected)
    cores = f"recorded on OpenBLAS core {manifest['openblas_core']}, replayed on {behaviour_matrix.openblas_core()}"
    for name, entry in entries.items():
        assert entry == expected[name], f"{name}, {cores}"


def test_matrix_replays_the_manifest(tmp_path):
    assert_replays(json.loads(MANIFEST.read_text()), replay(tmp_path))


def test_a_moved_entry_names_both_cores(monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    entries = dict(manifest["entries"])
    second = list(entries)[1]
    entries[second] = {**entries[second], "exit": 1}
    monkeypatch.setattr(behaviour_matrix, "openblas_core", lambda: "Haswell")
    message = f"{second}, recorded on OpenBLAS core {manifest['openblas_core']}, replayed on Haswell"
    with pytest.raises(AssertionError, match="^" + re.escape(message)):
        assert_replays(manifest, entries)


def test_regenerating_names_the_entries_that_moved(tmp_path, monkeypatch, capsys):
    # The committed manifest as the replay, against an older one that lacks
    # the first entry, differs in the second and holds one entry more.
    manifest = json.loads(MANIFEST.read_text())
    entries = manifest["entries"]
    first, second = list(entries)[:2]
    older = {name: entry for name, entry in entries.items() if name != first}
    older[second] = {**older[second], "exit": 1}
    older["gone"] = older[second]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"openblas_core": "older", "entries": older}))
    monkeypatch.setattr(behaviour_matrix, "MANIFEST", path)
    monkeypatch.setattr(behaviour_matrix, "replay", lambda workdir: entries)
    monkeypatch.setattr(behaviour_matrix, "openblas_core", lambda: manifest["openblas_core"])
    behaviour_matrix.main()
    assert path.read_text() == MANIFEST.read_text()
    assert capsys.readouterr().err.splitlines() == [
        f"wrote {len(entries)} entries to {path} on OpenBLAS core {manifest['openblas_core']}",
        f"added: {first}", f"changed: {second}", "removed: gone",
    ]
