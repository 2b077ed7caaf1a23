"""Benchmark workloads: generated inputs, the kst commands run on them, and
the checks each command's outputs must pass.

Why these three:

* ``selectk-ward``: ``select-k --method agglomerative`` on ROADMAP's 400-row
  table. Nearly all the time is the gap statistic running Ward on the data
  and on 50 reference sets, so it shows Ward and distance-core changes; no
  k-means runs.
* ``selectk-kmeans``: the same file and flags with ``--method kmeans``. The
  same criteria and gap code, but the work is k-means++ plus Lloyd and Ward
  never runs, so a Ward change should not move it (and a k-means change
  should not move ``selectk-ward``).
* ``ingest-pipeline``: ``ingest-check``, ``cluster``, ``similar`` and
  ``stability`` on 24,000 CPU and GPU samples in two files. Parsing, trial
  aggregation and GPU-rate derivation dominate, and ``stability`` writes
  about 600 files, so it shows ingest and output changes and guards them
  against clustering changes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

SELECTK_SIZES = (1048576, 4194304)
SELECTK_KERNELS = 200
SELECTK_TRIALS = 3

INGEST_CPU_SIZES = (1048576, 4194304, 16777216, 67108864)
INGEST_GPU_SIZES = (16777216, 67108864, 268435456, 1073741824)
INGEST_KERNELS = 300
INGEST_TRIALS = 10

NAMES = ("selectk-ward", "selectk-kmeans", "ingest-pipeline")

# (stdout, --out directory) -> failure message, or None when the output is right
Check = Callable[[str, Path | None], str | None]


@dataclass(frozen=True)
class Command:
    """One kst invocation and the check of its outputs."""

    name: str
    argv: tuple[str, ...]
    out: Path | None
    check: Check


@dataclass(frozen=True)
class Workload:
    inputs: tuple[Path, ...]
    commands: tuple[Command, ...]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_consensus(expected_k: int) -> Check:
    def check(stdout: str, out: Path | None) -> str | None:
        got = _load(out / "selection.json")["selection"]["consensus_k"]
        return None if got == expected_k else f"consensus_k is {got}, expected {expected_k}"
    return check


def check_partition(bound: set[str], rows: set[str]) -> Check:
    """The k=2 partition must put exactly the ``bound`` kernels in one cluster."""
    def check(stdout: str, out: Path | None) -> str | None:
        labels = _load(out / "partition.json")["partition"]["labels"]
        if set(labels) != rows:
            return f"partition covers {len(labels)} rows, expected {len(rows)}"
        clusters: dict[int, set[str]] = {}
        for label, c in labels.items():
            clusters.setdefault(c, set()).add(label)
        groups = list(clusters.values())
        if len(groups) != 2 or bound not in groups:
            return "partition does not separate memory-bound from compute-bound kernels"
        return None
    return check


def check_relative(stdout: str, out: Path | None) -> str | None:
    relative = _load(out / "family.json")["family"]["relative"]
    return None if relative > 1 else f"family relative is {relative}, expected > 1"


def check_stability(kernels: list[str], platforms: tuple[str, ...]) -> Check:
    expected = {f"{k}_{p}.json" for k in kernels for p in platforms}

    def check(stdout: str, out: Path | None) -> str | None:
        folder = out / "stability"
        reports = {p.name for p in folder.glob("*.json")} - {"summary.json"}
        if reports != expected:
            return f"stability wrote {len(reports)} reports, expected {len(expected)}"
        summary = _load(folder / "summary.json")["stability_summary"]
        covered = sum(summary["histogram"].values()) + len(summary["never_stable"])
        with open(folder / "summary.csv", encoding="utf-8", newline="") as fh:
            csv_rows = sum(1 for _ in csv.reader(fh)) - 1
        if covered != len(expected) or csv_rows != len(expected):
            return (f"stability summary covers {covered} and summary.csv {csv_rows} "
                    f"of {len(expected)} reports")
        return None
    return check


def check_ingest(samples: int, kernels: list[str], sizes: set[int]) -> Check:
    def check(stdout: str, out: Path | None) -> str | None:
        doc = json.loads(stdout)["ingest"]
        got = (doc["samples"], doc["kernels"], set(doc["problem_sizes"]))
        want = (samples, sorted(kernels), sizes)
        if got != want:
            return (f"ingest-check reports {got[0]} samples, {len(got[1])} kernels, "
                    f"{len(got[2])} sizes; expected {want[0]}, {len(want[1])}, {len(want[2])}")
        return None
    return check


def build(name: str, seed: int, workdir: Path, kernels: int | None = None) -> Workload:
    """Write the workload's inputs under ``workdir`` and describe its commands.

    ``kernels`` overrides the kernel count, for smoke runs at a tiny size.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("selectk-ward", "selectk-kmeans"):
        n = kernels or SELECTK_KERNELS
        path = workdir / "cpu.csv"
        path.write_bytes(gen.cpu_csv(n, SELECTK_SIZES, SELECTK_TRIALS, seed))
        method = "agglomerative" if name == "selectk-ward" else "kmeans"
        out = workdir / "out-select-k"
        cmd = Command("select-k",
                      ("select-k", "--input", str(path), "--method", method, "--out", str(out)),
                      out, check_consensus(2))
        return Workload((path,), (cmd,))
    if name != "ingest-pipeline":
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")

    n = kernels or INGEST_KERNELS
    names = gen.kernel_names(n)
    cpu, gpu = workdir / "cpu.csv", workdir / "gpu.csv"
    cpu.write_bytes(gen.cpu_csv(n, INGEST_CPU_SIZES, INGEST_TRIALS, seed))
    gpu.write_bytes(gen.gpu_csv(n, INGEST_GPU_SIZES, INGEST_TRIALS, seed))
    inputs = ("--input", str(cpu), "--input", str(gpu))
    sizes = ("--size", str(INGEST_CPU_SIZES[0]), "--gpu-size", str(INGEST_GPU_SIZES[0]))
    outs = {c: workdir / f"out-{c}" for c in ("cluster", "similar", "stability")}
    samples = n * INGEST_TRIALS * (len(INGEST_CPU_SIZES) + len(INGEST_GPU_SIZES))
    commands = (
        Command("ingest-check", ("ingest-check",) + inputs, None,
                check_ingest(samples, names, set(INGEST_CPU_SIZES) | set(INGEST_GPU_SIZES))),
        Command("cluster",
                ("cluster",) + inputs + sizes
                + ("-k", "2", "--method", "agglomerative", "--out", str(outs["cluster"])),
                outs["cluster"], check_partition(gen.bound_kernels(n), set(names))),
        Command("similar",
                ("similar",) + inputs + sizes
                + ("--target", names[0], "--family", "Apps_*", "--out", str(outs["similar"])),
                outs["similar"], check_relative),
        Command("stability", ("stability",) + inputs + ("--out", str(outs["stability"])),
                outs["stability"], check_stability(names, ("cpu", "gpu"))),
    )
    return Workload((cpu, gpu), commands)
