"""Every report in the digest corpus (see `report_corpus`) is byte-identical
to the one the committed manifest was made from."""

import json

import pytest

import report_corpus


def test_reports_match_their_digests():
    manifest = json.loads(report_corpus.MANIFEST.read_text())
    here = report_corpus.environment()
    made = {key: manifest[key] for key in here}
    if made != here:
        pytest.skip(f"digests were made with {made}, this is {here}")
    got, want = report_corpus.digests(), manifest["digests"]
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, f"{len(changed)} reports changed: {', '.join(changed)}"
