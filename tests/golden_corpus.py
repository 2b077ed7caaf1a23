"""Golden-output corpus: CLI runs on committed inputs, pinned by SHA-256.

Each case runs ``kst`` in-process on the files in ``tests/golden/`` and
records its exit code and the SHA-256 of its stdout, its stderr and every
file it writes under ``--out``. ``tests/golden/manifest.json`` holds the
record of every case; ``tests/test_golden.py`` reruns the cases and compares,
and reruns each case that exits 0 on the JSON form of its inputs as well.

The input and output directories appear in argv as ``{golden}`` and
``{out}``; they are filled in for the run and put back into the captured
streams before hashing, so the record does not depend on where it ran.
Warnings are recorded and added to stderr, so a run under pytest, which
captures warnings itself, hashes the same stderr as a run of this script.

Runs use the default seed, so ``KST_SEED`` must be unset. A change to a
record is an output change. Regenerate the manifest only for
an output change that is intended, and name the changed cases when you do:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from kst.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

ALL_CRITERIA = "silhouette,calinski_harabasz,dunn,gap,davies_bouldin,bic"
CPU = ("--input", "{golden}/cpu.csv")
BOTH = CPU + ("--input", "{golden}/gpu.csv")
TIES = ("--input", "{golden}/ties.csv")
OUT = ("--out", "{out}")

CASES: dict[str, tuple[str, ...]] = {
    "select-k-ward": ("select-k",) + CPU + OUT,
    "select-k-ward-all-criteria": ("select-k",) + CPU + ("--criteria", ALL_CRITERIA) + OUT,
    "select-k-ward-ties": ("select-k",) + TIES + ("--k-max", "6", "--criteria", ALL_CRITERIA)
    + OUT,
    "select-k-kmeans-all-criteria": ("select-k",) + CPU
    + ("--method", "kmeans", "--k-max", "5", "--criteria", ALL_CRITERIA) + OUT,
    "cluster-ward-merged-all-sizes": ("cluster",) + BOTH + ("--size", "all") + OUT,
    "cluster-kmeans-merged-all-sizes": ("cluster",) + BOTH
    + ("--size", "all", "--method", "kmeans") + OUT,
    "cluster-ward-k3": ("cluster",) + CPU + ("-k", "3") + OUT,
    "cluster-ward-ties-k3": ("cluster",) + TIES + ("-k", "3") + OUT,
    "cluster-kmeans-k3": ("cluster",) + CPU + ("--method", "kmeans", "-k", "3") + OUT,
    "similar": ("similar",) + BOTH
    + ("--size", "4194304", "--target", "Apps_K0000", "--family", "Apps_K000*") + OUT,
    "stability-annotate": ("stability",) + BOTH
    + ("--annotate", "L2=2097152", "--annotate", "LLC=8388608") + OUT,
    "ingest-check": ("ingest-check",) + BOTH,
    # input errors: exit 2, one JSON line on stderr, nothing written
    "error-k-min-above-k-max": ("select-k",) + CPU + ("--k-min", "5", "--k-max", "3") + OUT,
    "error-empty-criteria": ("select-k",) + CPU + ("--criteria", ",") + OUT,
    "error-ties-zero-dispersion": ("select-k",) + TIES
    + ("--k-min", "33", "--k-max", "35", "--criteria", "gap") + OUT,
    "error-k-above-rows": ("cluster",) + TIES + ("-k", "41") + OUT,
    "error-unknown-target": ("similar",) + CPU + ("--target", "nope", "--family", "Apps_*")
    + OUT,
    "error-repeated-annotation": ("stability",) + CPU
    + ("--annotate", "L2=2097152", "--annotate", "L2=4194304") + OUT,
    "error-missing-input": ("ingest-check", "--input", "{golden}/missing.csv"),
    "error-cross-file-duplicate": ("ingest-check",) + CPU + CPU,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Run ``kst`` in-process; return its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    # a warning counts as stderr output, whoever would have shown it
    for w in caught:
        stderr.write(f"{w.category.__name__}: {w.message}\n")
    return code, stdout.getvalue(), stderr.getvalue()


def run_case(argv: tuple[str, ...], workdir: Path, golden: Path = GOLDEN) -> dict:
    """Run one case on the inputs in ``golden`` with its output under
    ``workdir``; return its record."""
    out = workdir / "out"
    places = {"{golden}": str(golden), "{out}": str(out)}
    args = []
    for arg in argv:
        for key, value in places.items():
            arg = arg.replace(key, value)
        args.append(arg)
    code, stdout, stderr = run_cli(args)

    def normalised(text: str) -> bytes:
        for key, value in places.items():
            text = text.replace(value, key)
        return text.encode("utf-8")

    files = {}
    if out.exists():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha(normalised(stdout)),
        "stderr": _sha(normalised(stderr)),
        "files": files,
    }


def build_manifest() -> dict:
    records = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            records[name] = run_case(argv, Path(tmp))
    return records


if __name__ == "__main__":
    os.environ.pop("KST_SEED", None)
    MANIFEST.write_text(json.dumps(build_manifest(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
