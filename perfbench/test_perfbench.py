"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert gen.cpu_csv(20, (1, 2), 3, seed=7) == gen.cpu_csv(20, (1, 2), 3, seed=7)
    assert gen.gpu_csv(20, (1, 2), 3, seed=7) == gen.gpu_csv(20, (1, 2), 3, seed=7)
    assert gen.cpu_csv(20, (1, 2), 3, seed=7) != gen.cpu_csv(20, (1, 2), 3, seed=8)
    assert gen.cpu_csv(20, (1, 2), 3, seed=7).count(b"\n") == 1 + 20 * 2 * 3


def test_workload_files_are_byte_identical_for_a_seed(tmp_path):
    a = workloads.build("ingest-pipeline", 3, tmp_path / "a", kernels=10)
    b = workloads.build("ingest-pipeline", 3, tmp_path / "b", kernels=10)
    assert [p.read_bytes() for p in a.inputs] == [p.read_bytes() for p in b.inputs]


def _write_report(folder: Path, name: str, section: str, body: dict) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    (folder / name).write_text(json.dumps({"schema_version": 1, section: body}))


def test_consensus_check_rejects_a_wrong_k(tmp_path):
    check = workloads.check_consensus(2)
    _write_report(tmp_path, "selection.json", "selection", {"consensus_k": 2})
    assert check("", tmp_path) is None
    _write_report(tmp_path, "selection.json", "selection", {"consensus_k": 3})
    assert "consensus_k is 3" in check("", tmp_path)


def test_partition_check_rejects_a_wrong_partition(tmp_path):
    names = gen.kernel_names(6)
    check = workloads.check_partition(gen.bound_kernels(6), set(names))
    right = {n: (0 if n.startswith("Apps") else 1) for n in names}
    _write_report(tmp_path, "partition.json", "partition", {"labels": right})
    assert check("", tmp_path) is None
    wrong = dict(right, Apps_K0000=1)
    _write_report(tmp_path, "partition.json", "partition", {"labels": wrong})
    assert check("", tmp_path) is not None


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_passes_a_tiny_smoke_run(tmp_path, name):
    plain, traced, _ = bench.measure(name, seed=1, seconds=0, trace=False,
                                     workdir=tmp_path, probe=bench.HostProbe(), kernels=8)
    assert len(plain) == 2 and not traced
    assert bench._failures(plain) == []


def test_a_changed_output_counts_as_a_failure(tmp_path):
    plain, _, _ = bench.measure("selectk-ward", seed=1, seconds=0, trace=False,
                                workdir=tmp_path, probe=bench.HostProbe(), kernels=8)
    plain[1].digests[0] = "different"
    assert len(bench._failures(plain)) == 1


def test_traced_run_reports_every_per_layer_metric_in_benchmark_json(tmp_path):
    plain, traced, tr = bench.measure("ingest-pipeline", seed=2, seconds=0, trace=True,
                                      workdir=tmp_path, probe=bench.HostProbe(), kernels=8)
    metrics = bench.layer_metrics(plain, traced, tr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in declared]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    assert tr.absent == []
    assert metrics["dataset.parse_samples.calls"]["value"] == 8  # 4 commands x 2 files
    assert metrics["dataset.samples"]["value"] == 8 * 8 * workloads.INGEST_TRIALS * 4
    assert metrics["report.out_files"]["value"] > 2 * 8
    assert bench._failures(plain + traced) == []


def test_self_time_excludes_wrapped_callees(tmp_path):
    _, traced, tr = bench.measure("selectk-ward", seed=1, seconds=0, trace=True,
                                  workdir=tmp_path, probe=bench.HostProbe(), kernels=8)
    total = sum(v for k, (v, _) in traced[0].layers.items() if k.endswith(".self_s"))
    assert total <= traced[0].raw_s
    by_id = {s[0]: s for s in tr.spans}
    nested = [s for s in tr.spans if s[1] is not None]
    assert nested and all(by_id[s[1]][3] <= s[3] <= s[4] <= by_id[s[1]][4] for s in nested)
    assert traced[0].layers["quality.gap_reference_fits"][0] == 50 * 8


def test_missing_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "cluster", ("agglomerative_ward", "no_such_function"))
    plain, traced, tr = bench.measure("selectk-ward", seed=1, seconds=0, trace=True,
                                      workdir=tmp_path, probe=bench.HostProbe(), kernels=8)
    assert tr.absent == ["cluster.no_such_function"]
    assert bench._failures(plain + traced) == []
    assert traced[0].layers["cluster.no_such_function.self_s"][0] == 0


def test_tracer_restores_the_original_functions():
    import kst.cli
    import kst.quality

    before = (kst.cli._COMMANDS["cluster"], kst.quality.agglomerative_ward)
    tr = tracer.Tracer()
    tr.install()
    assert kst.cli._COMMANDS["cluster"] is not before[0]
    assert kst.quality.agglomerative_ward is not before[1]
    tr.uninstall()
    assert (kst.cli._COMMANDS["cluster"], kst.quality.agglomerative_ward) == before


def test_probe_rounds_during_a_command_are_left_out_of_its_time():
    import time

    probe = bench.HostProbe()
    probe._work = lambda: time.sleep(0.05)  # every round of probe work: 50 ms

    def command():  # 1.2 s of wall time, probe rounds included
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass

    measured, scaled = probe.timed(command)
    assert 1.2 - 3 * 0.05 - 0.02 < measured < 1.2 - 0.05  # two or three rounds left out
    round_reading = bench.READ_ROUNDS * 0.05
    assert scaled == pytest.approx(measured * bench.PROBE_NOMINAL_S / round_reading, rel=0.1)
