"""Every golden case reproduces its recorded exit code, streams and files,
and every case that succeeds reproduces them on the JSON form of its inputs.

See ``tests/golden_corpus.py`` for the cases and how the record is made.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kst.quality
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


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if argv[0] == "select-k"))
def test_select_k_case_in_one_process(name, tmp_path, monkeypatch):
    # the gap statistic fits every reference in this one process here, and in
    # as many forked processes as there are CPUs in test_golden_case
    monkeypatch.delenv("KST_SEED", raising=False)
    monkeypatch.setattr(kst.quality, "_cpu_count", lambda: 1)
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


# k-means decides a row from a BLAS product only where the product provably
# agrees with the exact distances, so no k-means output may move with the
# kernel OpenBLAS picks. projection.json still does (report.pca_project's
# eigh and product), so it alone is left out. Each kernel's cases run in a
# fresh process, which fits the select-k cases' gap references in as many
# forked processes as it has CPUs.
BLAS_CASES = ("select-k-kmeans-all-criteria", "select-k-ward", "cluster-kmeans-k3")
_RUN_CASES = ("import json, sys; from pathlib import Path; from golden_corpus import CASES, run_case; "
              "print(json.dumps({n: run_case(CASES[n], Path(sys.argv[1]) / n) for n in sys.argv[2:]}))")


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_kmeans_cases_do_not_depend_on_the_blas_kernel(coretype, tmp_path):
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in ("KST_SEED", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", _RUN_CASES, str(tmp_path), *BLAS_CASES],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name, got in json.loads(run.stdout).items():
        want = RECORDED[name]
        assert {k: got[k] for k in ("exit", "stdout", "stderr")} == \
            {k: want[k] for k in ("exit", "stdout", "stderr")}
        assert got["files"].keys() == want["files"].keys()
        for file, digest in want["files"].items():
            if file != "projection.json":
                assert got["files"][file] == digest, (name, file)
