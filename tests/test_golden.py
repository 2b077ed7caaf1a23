"""Every golden case reproduces its recorded exit code, streams and files,
and every case that succeeds reproduces them on the JSON form of its inputs.

See ``tests/golden_corpus.py`` for the cases and how the record is made.
"""

import json

import pytest

from conftest import json_records
from golden_corpus import CASES, GOLDEN, MANIFEST, run_case

RECORDED = json.loads(MANIFEST.read_text(encoding="utf-8"))
# each CSV input and whether its JSON form is flat (else a ``values`` mapping)
JSON_FORMS = {"cpu.csv": False, "gpu.csv": True, "ties.csv": False}


def test_manifest_covers_every_case():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path, monkeypatch):
    monkeypatch.delenv("KST_SEED", raising=False)
    assert run_case(CASES[name], tmp_path) == RECORDED[name]


@pytest.fixture(scope="module")
def json_golden(tmp_path_factory):
    """A directory holding the JSON form of every golden input, as ``<name>.json``."""
    inputs = tmp_path_factory.mktemp("golden-json")
    for name, flat in JSON_FORMS.items():
        records = json_records((GOLDEN / name).read_text(encoding="utf-8"), flat)
        (inputs / name).with_suffix(".json").write_text(json.dumps(records), encoding="utf-8")
    return inputs


@pytest.mark.parametrize("name", sorted(n for n, r in RECORDED.items() if r["exit"] == 0))
def test_golden_case_json_form(name, tmp_path, monkeypatch, json_golden):
    monkeypatch.delenv("KST_SEED", raising=False)
    argv = tuple(arg.replace(".csv", ".json") for arg in CASES[name])
    record = run_case(argv, tmp_path, json_golden)
    assert {**record, "argv": None} == {**RECORDED[name], "argv": None}
