"""The behaviour manifest holds: each run of the CLI matrix exits, prints and writes what it recorded."""

import json

import behaviour_matrix
from behaviour_matrix import MANIFEST, replay


def test_matrix_replays_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    entries = replay(tmp_path)
    assert list(entries) == list(expected)
    for name, entry in entries.items():
        assert entry == expected[name], name


def test_regenerating_names_the_entries_that_moved(tmp_path, monkeypatch, capsys):
    # The committed manifest as the replay, against an older one that lacks
    # the first entry, differs in the second and holds one entry more.
    entries = json.loads(MANIFEST.read_text())
    first, second = list(entries)[:2]
    older = {name: entry for name, entry in entries.items() if name != first}
    older[second] = {**older[second], "exit": 1}
    older["gone"] = older[second]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(older))
    monkeypatch.setattr(behaviour_matrix, "MANIFEST", path)
    monkeypatch.setattr(behaviour_matrix, "replay", lambda workdir: entries)
    behaviour_matrix.main()
    assert path.read_text() == MANIFEST.read_text()
    assert capsys.readouterr().err.splitlines() == [
        f"wrote {len(entries)} entries to {path}", f"added: {first}", f"changed: {second}", "removed: gone",
    ]
