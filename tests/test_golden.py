"""Every golden case reproduces its recorded exit code, streams and files.

See ``tests/golden_corpus.py`` for the cases and how the record is made.
"""

import json

import pytest

from golden_corpus import CASES, MANIFEST, run_case

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_case():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path, monkeypatch):
    monkeypatch.delenv("KST_SEED", raising=False)
    assert run_case(CASES[name], tmp_path) == RECORDED[name]
