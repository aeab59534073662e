"""The behaviour manifest holds: each run of the CLI matrix exits, prints and writes what it recorded."""

import json

from behaviour_matrix import MANIFEST, replay


def test_matrix_replays_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    entries = replay(tmp_path)
    assert list(entries) == list(expected)
    for name, entry in entries.items():
        assert entry == expected[name], name
