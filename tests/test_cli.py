"""Command-line interface: outputs, seed resolution, exit codes, determinism."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from kst import cli
from kst.cli import SEED_ENV_VAR, build_parser, main
from kst.report import parse_report

from conftest import CPU_HEADER, GPU_HEADER, csv_bytes, write_cpu_csv, write_gpu_csv


@pytest.fixture
def cpu_csv(tmp_path):
    p = tmp_path / "cpu.csv"
    write_cpu_csv(p)
    return p


@pytest.fixture
def gpu_csv(tmp_path):
    p = tmp_path / "gpu.csv"
    write_gpu_csv(p)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- parsing

def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("kst ")


def test_parser_defaults():
    args = build_parser().parse_args(["cluster", "--input", "x.csv"])
    assert args.method == "agglomerative"
    assert args.k == 2
    assert args.size == "all"
    assert args.log_policy == "auto"
    assert args.seed is None
    args = build_parser().parse_args(["select-k", "--input", "x.csv"])
    assert (args.k_min, args.k_max, args.gap_b) == (1, 8, 50)


# ------------------------------------------------------------------- cluster

def test_cluster_agglomerative_outputs(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "cluster", "--input", cpu_csv,
                          "--size", 4194304, "--out", out)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["boxplot.json", "dendrogram.json", "partition.json",
                     "projection.json", "quality.json", "transform.json"]
    part = parse_report((out / "partition.json").read_text())
    assert part["partition"]["k"] == 2
    assert sorted(part["partition"]["sizes"], reverse=True) == part["partition"]["sizes"]
    # transform.json is a bare column list, not an envelope
    spec = json.loads((out / "transform.json").read_text())
    assert isinstance(spec, list) and {"metric", "log", "mean", "std"} <= set(spec[0])
    assert "cluster 0" in stdout and "separation:" in stdout
    # fraction metrics render as percentages in the console summary
    assert "%" in stdout


def test_cluster_kmeans_outputs_and_seed(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "cluster", "--input", cpu_csv, "--method", "kmeans",
                     "--size", 4194304, "--seed", 7, "--out", out)
    assert code == 0
    assert (out / "kmeans.json").exists()
    assert not (out / "dendrogram.json").exists()
    model = parse_report((out / "kmeans.json").read_text())["kmeans"]
    assert model["seed"] == 7
    assert model["k"] == 2
    assert len(model["inertia_history"]) == model["iterations"]


def test_seed_resolution_order(tmp_path, capsys, cpu_csv, monkeypatch):
    def fitted_seed(out, *extra):
        code, _, _ = run(capsys, "cluster", "--input", cpu_csv, "--method", "kmeans",
                         "--size", 4194304, "--out", out, *extra)
        assert code == 0
        return parse_report((out / "kmeans.json").read_text())["kmeans"]["seed"]

    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert fitted_seed(tmp_path / "a") == 42
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert fitted_seed(tmp_path / "b") == 99
    assert fitted_seed(tmp_path / "c", "--seed", "7") == 7  # flag beats env


def test_bad_env_seed_is_reported(tmp_path, capsys, cpu_csv, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code, _, err = run(capsys, "cluster", "--input", cpu_csv, "--method", "kmeans",
                       "--size", 4194304, "--out", tmp_path / "o")
    assert code == 2
    assert SEED_ENV_VAR in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ("select-k", "--size", "4194304"),
    ("similar", "--target", "Apps_K00", "--family", "Apps_*"),
    ("stability",),
])
def test_bad_env_seed_fails_every_seeded_command(tmp_path, capsys, cpu_csv, monkeypatch, argv):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    code, out, err = run(capsys, argv[0], "--input", cpu_csv, *argv[1:], "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "KstError",
                               "message": f"${SEED_ENV_VAR} is not an integer: 'abc'"}
    assert not (tmp_path / "o").exists()
    # ingest-check takes no seed, so the variable is not read
    assert run(capsys, "ingest-check", "--input", cpu_csv)[0] == 0


def test_cluster_merged_platforms(tmp_path, capsys, cpu_csv, gpu_csv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "cluster", "--input", cpu_csv, "--input", gpu_csv,
                          "--platform", "both", "--size", 4194304,
                          "--gpu-size", 67108864, "--out", out)
    assert code == 0
    assert "metrics: 8" in stdout  # 4 topdown fractions + 4 derived gpu rates
    box = parse_report((out / "boxplot.json").read_text())["boxplot"]
    metrics = set(box["clusters"]["0"])
    assert "topdown.memory_bound" in metrics and "gpu.ips" in metrics
    assert box["source"] == "raw"


def test_cluster_on_a_platform_without_samples_is_an_input_error(tmp_path, capsys, cpu_csv):
    code, out, err = run(capsys, "cluster", "--input", cpu_csv, "--platform", "gpu",
                         "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "KstError", "message": "no gpu samples in the input"}
    assert not (tmp_path / "o").exists()


def test_size_variant_labels_do_not_collide_with_kernel_names(tmp_path, capsys):
    # a kernel named like another's size variant under the old "_1" labels
    inputs = tmp_path / "cpu.csv"
    write_cpu_csv(inputs, kernels=["foo", "foo_1", "bar"])
    code, _, err = run(capsys, "cluster", "--input", inputs, "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    labels = parse_report((tmp_path / "o" / "partition.json").read_text())["partition"]["labels"]
    assert sorted(labels) == ["bar", "bar@1", "foo", "foo@1", "foo_1", "foo_1@1"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_name_with_variant_separator_is_an_input_error(tmp_path, capsys, fmt):
    rows = [[kernel, "cpu", 1024, 0, 0.5, 0.3, 0.1, 0.1] for kernel in ("ok", "a@b", "c@d")]
    p = tmp_path / f"s.{fmt}"
    if fmt == "csv":
        p.write_text(csv_bytes(CPU_HEADER, rows))
        where = "line 3"
    else:
        p.write_text(json.dumps([dict(zip(CPU_HEADER, row)) for row in rows]))
        where = "record 1"
    code, stdout, err = run(capsys, "cluster", "--input", p, "--out", tmp_path / "o")
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": f"{where}: kernel name must not contain '@', got 'a@b'"}
    assert not (tmp_path / "o").exists()


def test_cluster_explicit_log_requires_metric_list(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "cluster", "--input", cpu_csv, "--size", 4194304,
                       "--log", "explicit", "--out", tmp_path / "o")
    assert code == 2
    assert "log-metrics" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ("cluster",),
    ("cluster", "--log", "none"),
    ("select-k",),
    ("similar", "--target", "Apps_K00", "--family", "Apps_*"),
], ids=["cluster", "cluster-log-none", "select-k", "similar"])
def test_log_metrics_requires_explicit_log(tmp_path, capsys, cpu_csv, argv):
    code, out, err = run(capsys, *argv, "--input", cpu_csv, "--log-metrics",
                         "topdown.core_bound", "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "KstError",
                               "message": "--log-metrics requires --log explicit"}
    assert not (tmp_path / "o").exists()


def test_cluster_explicit_log_applies_to_the_named_metric_only(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "cluster", "--input", cpu_csv, "--log", "explicit",
                       "--log-metrics", "topdown.core_bound", "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    spec = json.loads((tmp_path / "o" / "transform.json").read_text())
    assert {c["metric"]: c["log"] for c in spec} == {
        name: name == "topdown.core_bound" for name in CPU_HEADER[4:]}


def test_cluster_rerun_is_byte_identical(tmp_path, capsys, cpu_csv, gpu_csv):
    args = ("cluster", "--input", cpu_csv, "--input", gpu_csv, "--platform", "both",
            "--size", 4194304, "--gpu-size", 67108864, "--method", "kmeans")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", a)[0] == 0
    assert run(capsys, *args, "--out", b)[0] == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ------------------------------------------------------------------ select-k

def test_select_k_outputs(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "select-k", "--input", cpu_csv, "--size", 4194304,
                          "--k-max", 5, "--gap-b", 20, "--out", out)
    assert code == 0
    sel = parse_report((out / "selection.json").read_text())["selection"]
    assert sel["consensus_k"] == 2
    assert set(sel["criteria"]) == {"silhouette", "calinski_harabasz", "dunn", "gap"}
    assert sel["gap"]["k"] == [1, 2, 3, 4, 5]
    assert "consensus: k=2" in stdout


def test_select_k_criteria_subset(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "select-k", "--input", cpu_csv, "--size", 4194304,
                     "--criteria", "silhouette,davies_bouldin", "--k-max", 4, "--out", out)
    assert code == 0
    sel = parse_report((out / "selection.json").read_text())["selection"]
    assert set(sel["criteria"]) == {"silhouette", "davies_bouldin"}
    assert sel["gap"] is None


def test_select_k_records_degenerate_scores_in_notes(tmp_path, capsys):
    # five kernels, two of them duplicated: k=3 is an exact partition
    rows = [("k0", "0.1,0.8"), ("k1", "0.1,0.8"), ("k2", "0.6,0.2"), ("k3", "0.6,0.2"),
            ("k4", "0.3,0.5")]
    p = tmp_path / "five.csv"
    p.write_text("kernel,platform,problem_size_bytes,trial,topdown.core_bound,"
                 "topdown.memory_bound,topdown.fetch_latency,topdown.fetch_bandwidth\n"
                 + "".join(f"{k},cpu,1024,0,{v},0.05,0.05\n" for k, v in rows))
    code, stdout, err = run(capsys, "select-k", "--input", p, "--k-max", 3, "--criteria",
                            "silhouette,calinski_harabasz,dunn,davies_bouldin,bic",
                            "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    criteria = parse_report((tmp_path / "o" / "selection.json").read_text())["selection"]["criteria"]
    assert {name: c["note"] for name, c in criteria.items()} == {
        "silhouette": None,
        "calinski_harabasz": "WGSS is zero; Calinski-Harabasz reported as +inf (k=3)",
        "dunn": "all clusters have zero diameter; Dunn reported as +inf (k=3)",
        "davies_bouldin": None,
        "bic": "zero pooled variance; BIC reported as -inf (k=3)",
    }
    assert "dunn: k=3  (all clusters have zero diameter" in stdout


def test_select_k_bad_range(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "select-k", "--input", cpu_csv, "--size", 4194304,
                       "--k-min", 5, "--k-max", 3, "--out", tmp_path / "o")
    assert code == 2
    assert json.loads(err)["error"] == "KstError"


@pytest.mark.parametrize("flag", ["--n-init", "--max-iter"])
def test_select_k_gap_rejects_zero_kmeans_budget(tmp_path, capsys, cpu_csv, flag):
    # gap is the only criterion, so no kmeans_fit call checks the budget first
    code, out, err = run(capsys, "select-k", "--input", cpu_csv, "--size", 4194304,
                         "--method", "kmeans", "--criteria", "gap", flag, 0,
                         "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "KstError",
                               "message": "n_init and max_iter must be >= 1"}


# ------------------------------------------------------------------- similar

def test_similar_outputs(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "similar", "--input", cpu_csv,
                          "--target", "Apps_K00", "--family", "Apps_*", "--out", out)
    assert code == 0
    fam = parse_report((out / "family.json").read_text())["family"]
    assert fam["target"] == "Apps_K00"
    assert fam["closest_other"]["label"].startswith("Basic_")
    assert fam["relative"] == pytest.approx(
        fam["closest_other"]["distance"] / fam["family_avg"])
    assert "closest non-family kernel" in stdout


def test_similar_unknown_target(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "similar", "--input", cpu_csv,
                       "--target", "Nope", "--family", "Apps_*", "--out", tmp_path / "o")
    assert code == 2
    assert "Nope" in json.loads(err)["message"]


# ----------------------------------------------------------------- stability

def test_stability_outputs(tmp_path, capsys, cpu_csv):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "stability", "--input", cpu_csv,
                          "--annotate", "l2=1048576", "--out", out)
    assert code == 0
    stab = out / "stability"
    per_kernel = sorted(p.name for p in stab.glob("*.json") if p.name != "summary.json")
    assert per_kernel[0] == "Apps_K00.json"
    assert len(per_kernel) == 12
    summary = parse_report((stab / "summary.json").read_text())["stability_summary"]
    assert summary["annotations"] == {"l2": 1048576.0}
    csv_lines = (stab / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "kernel,min_stable_size_bytes,worst_residual_pct"
    assert len(csv_lines) == 13
    assert "kernels analyzed: 12" in stdout


def test_stability_platform_suffix_on_collision(tmp_path, capsys, cpu_csv, gpu_csv):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "stability", "--input", cpu_csv, "--input", gpu_csv,
                     "--out", out)
    assert code == 0
    stab = out / "stability"
    # same kernel names on both platforms: files carry the platform suffix
    assert (stab / "Apps_K00_cpu.json").exists()
    assert (stab / "Apps_K00_gpu.json").exists()
    assert not (stab / "Apps_K00.json").exists()


def test_stability_file_names_stay_inside_out(tmp_path, capsys):
    kernels = ["../../escaped", "a/b", "a%2Fb", "a\\b", "plain"]
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_cpu_csv(inputs / "cpu.csv", kernels=kernels)
    out = tmp_path / "a" / "b" / "out"
    code, _, _ = run(capsys, "stability", "--input", inputs / "cpu.csv", "--out", out)
    assert code == 0
    written = {p for p in tmp_path.rglob("*") if p.is_file()} - {inputs / "cpu.csv"}
    assert all(out / "stability" in p.parents for p in written)
    names = sorted(p.name for p in written)
    assert names == sorted(["..%2F..%2Fescaped.json", "a%2Fb.json", "a%252Fb.json",
                            "a%5Cb.json", "plain.json", "summary.json", "summary.csv"])
    doc = parse_report((out / "stability" / "a%252Fb.json").read_text())
    assert doc["stability"]["kernel"] == "a%2Fb"


def test_stability_kernel_name_with_nul_gets_a_file(tmp_path, capsys):
    # NUL cannot be in a file name; it is written as %00
    p = tmp_path / "s.json"
    p.write_text(json.dumps([
        dict(zip(CPU_HEADER, ["k\x00", "cpu", size, 0, value, 0.3, 0.1, 0.1]))
        for size, value in ((1024, 0.5), (2048, 0.6))
    ]))
    code, _, err = run(capsys, "stability", "--input", p, "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    out = tmp_path / "o" / "stability"
    assert sorted(q.name for q in out.iterdir()) == [
        "k%00.json", "summary.csv", "summary.json"]
    assert parse_report((out / "k%00.json").read_text())["stability"]["kernel"] == "k\x00"


def test_kernel_name_with_a_lone_surrogate_is_written_and_printed(tmp_path, capsys):
    # a JSON "\ud800" escape makes a lone surrogate, which UTF-8 cannot encode:
    # its report file is named by the %-escaped bytes of its surrogatepass
    # encoding, and summary.csv and stdout show its "\ud800" escape
    p = tmp_path / "s.json"
    p.write_text(json.dumps([
        dict(zip(CPU_HEADER, [kernel, "cpu", size, 0, value, 0.3, 0.1, 0.1]))
        for kernel, low in (("a", 0.5), ("\ud800", 0.2))
        for size, value in ((1024, low), (2048, low + 0.1))
    ]))
    code, stdout, err = run(capsys, "stability", "--input", p, "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    out = tmp_path / "o" / "stability"
    assert sorted(q.name for q in out.iterdir()) == [
        "%ED%A0%80.json", "a.json", "summary.csv", "summary.json"]
    assert parse_report((out / "%ED%A0%80.json").read_text())["stability"]["kernel"] == "\ud800"
    assert "  \\ud800 (cpu): never stable, residual 33.3%\n" in stdout
    assert (out / "summary.csv").read_text().splitlines()[2].startswith("\\ud800,,33.3")
    code, stdout, err = run(capsys, "similar", "--input", p, "--target", "a@1",
                            "--family", "a*", "--out", tmp_path / "f")
    assert (code, err) == (0, "")
    assert "closest non-family kernel: \\ud800@" in stdout


def test_stability_kernel_named_summary_keeps_its_report(tmp_path, capsys):
    inputs = tmp_path / "cpu.csv"
    write_cpu_csv(inputs, kernels=["summary", "other"])
    code, _, _ = run(capsys, "stability", "--input", inputs, "--out", tmp_path / "o")
    assert code == 0
    out = tmp_path / "o" / "stability"
    assert sorted(p.name for p in out.iterdir()) == [
        "%73ummary.json", "other.json", "summary.csv", "summary.json"]
    assert parse_report((out / "%73ummary.json").read_text())["stability"]["kernel"] == "summary"
    assert "stability_summary" in parse_report((out / "summary.json").read_text())


@pytest.mark.parametrize("long, head", [
    ("b" * 300, "b" * 200),
    ("€" * 100, "€" * 66),  # 3 bytes each: the cut falls inside the 67th
], ids=["ascii", "multi-byte"])
def test_stability_long_kernel_name_is_shortened(tmp_path, capsys, long, head):
    # a name over the 255-byte limit keeps 200 bytes of its stem, then "%~" and
    # 32 hex digits of the label's SHA-256; "a" * 250 fits exactly and is kept
    rows = [[k, "cpu", size, 0, 0.1, 0.2, 0.3, 0.4]
            for k in ("a" * 250, long, "ccc") for size in (1024, 2048)]
    p = tmp_path / "s.csv"
    p.write_text(csv_bytes(CPU_HEADER, rows), encoding="utf-8")
    code, _, err = run(capsys, "stability", "--input", p, "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    short = f"{head}%~{hashlib.sha256(long.encode()).hexdigest()[:32]}.json"
    out = tmp_path / "o" / "stability"
    assert sorted(q.name for q in out.iterdir()) == sorted([
        "a" * 250 + ".json", short, "ccc.json", "summary.csv", "summary.json"])
    assert parse_report((out / short).read_text())["stability"]["kernel"] == long


def test_stability_checks_metric_ranges_as_cluster_does(tmp_path, capsys):
    rows = [[k, "cpu", size, 0, 0.1, 0.2, 0.3, 0.4] for k in ("a", "b") for size in (1024, 2048)]
    rows[0][4:6] = [1.5, -0.2]
    p = tmp_path / "s.csv"
    p.write_text(csv_bytes(CPU_HEADER, rows))
    error = {"error": "KstError",
             "message": "fraction metric 'topdown.core_bound' has values outside [0, 1]"}
    for command in ("cluster", "stability"):
        code, stdout, err = run(capsys, command, "--input", p, "--out", tmp_path / command)
        assert (code, stdout, json.loads(err)) == (2, "", error)
        assert not (tmp_path / command).exists()


def test_stability_requested_platform_must_exist(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "stability", "--input", cpu_csv, "--platform", "gpu",
                       "--out", tmp_path / "o")
    assert code == 2
    assert "gpu" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_stability_annotation_must_be_finite(tmp_path, capsys, cpu_csv, value):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--input", str(cpu_csv), "--annotate", f"l2={value}",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"annotation value is not finite: 'l2={value}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["-5", "0"])
def test_stability_annotation_must_be_positive(tmp_path, capsys, cpu_csv, value):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--input", str(cpu_csv), "--annotate", f"l2={value}",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"annotation bytes must be positive: 'l2={value}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stability_annotation_name_must_not_repeat(tmp_path, capsys, cpu_csv):
    code, out, err = run(capsys, "stability", "--input", cpu_csv, "--annotate", "l2=1",
                         "--annotate", "l2=2", "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "KstError",
                               "message": "--annotate names 'l2' more than once"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (("stability", "--threshold-pct", "nan"), "threshold_pct must be finite, got nan"),
    (("stability", "--threshold-pct", "inf"), "threshold_pct must be finite, got inf"),
    (("cluster", "--log-ratio", "nan"), "auto log ratio must be finite, got nan"),
    (("cluster", "--log-ratio", "inf"), "auto log ratio must be finite, got inf"),
    (("cluster", "--log-ratio", "0"), "auto log ratio must be positive, got 0.0"),
    (("cluster", "--log-ratio", "-3"), "auto log ratio must be positive, got -3.0"),
    (("select-k", "--criteria", "silhouette", "--k-max", "1"),
     "criterion 'silhouette' is not defined on any k in [1]"),
], ids=["threshold-nan", "threshold-inf", "log-ratio-nan", "log-ratio-inf", "log-ratio-zero",
        "log-ratio-negative", "criterion-without-k"])
def test_non_finite_option_is_an_input_error(tmp_path, capsys, cpu_csv, argv, message):
    code, out, err = run(capsys, *argv, "--input", cpu_csv, "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "KstError", "message": message}) + "\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, content, error, message", [
    ("empty.csv", b"", "ParseError", "empty input"),
    ("bom.csv", b"\xef\xbb\xbf", "ParseError", "empty input"),
    ("header.csv", ",".join(CPU_HEADER).encode() + b"\n", "KstError",
     "input files contain no samples"),
    ("empty.json", b"[]", "KstError", "input files contain no samples"),
    ("object.json", b"{}", "ParseError", "JSON input must be an array of objects"),
    ("repeated.csv", ",".join(CPU_HEADER + ["topdown.core_bound"]).encode() + b"\n",
     "ParseError", "line 1: duplicate column names in header"),
], ids=["empty", "bom-only", "header-only", "json-empty-array", "json-object",
        "repeated-header"])
def test_unusable_input_file_is_an_input_error(tmp_path, capsys, name, content, error,
                                               message):
    p = tmp_path / name
    p.write_bytes(content)
    code, out, err = run(capsys, "cluster", "--input", p, "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": error, "message": message}) + "\n"
    assert not (tmp_path / "o").exists()


# -------------------------------------------------------------- ingest-check

def test_ingest_check_summary(capsys, cpu_csv):
    code, stdout, _ = run(capsys, "ingest-check", "--input", cpu_csv)
    assert code == 0
    doc = parse_report(stdout)["ingest"]
    assert doc["samples"] == 72          # 12 kernels x 2 sizes x 3 trials
    assert doc["groups"] == 24
    assert doc["platforms"] == ["cpu"]
    assert len(doc["kernels"]) == 12
    assert doc["worst_trial_cv"] > 0
    assert "/" in doc["worst_trial_cv_at"]


def test_ingest_check_json_input(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps([
        {"kernel": "K", "platform": "cpu", "problem_size_bytes": 1024, "trial": 0,
         "topdown.core_bound": 0.5},
        {"kernel": "K", "platform": "cpu", "problem_size_bytes": 2048, "trial": 0,
         "topdown.core_bound": 0.6},
    ]))
    code, stdout, _ = run(capsys, "ingest-check", "--input", p)
    assert code == 0
    assert parse_report(stdout)["ingest"]["samples"] == 2


def _perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_ingest_check_averages_huge_trials_without_overflow(tmp_path, capsys):
    # one trial's counter near the float maximum: its square overflows, the
    # coefficient of variation does not
    rows = list(csv.reader(io.StringIO(
        _perfbench_gen().gpu_csv(40, (16777216, 67108864), 3, 7).decode())))
    col = rows[0].index("gpu.hbm_transactions")
    rows[5][col] = "1.5e308"
    # a time of 1 s at that size keeps the derived rate finite, as the rate rule asks
    time = rows[0].index("gpu.time_sec")
    for r in rows[1:]:
        if r[0] == rows[5][0] and r[2] == rows[5][2]:
            r[time] = "1"
    p = tmp_path / "gpu.csv"
    p.write_text("".join(",".join(r) + "\n" for r in rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code, stdout, err = run(capsys, "ingest-check", "--input", p)
    assert (code, err) == (0, "")
    doc = parse_report(stdout)["ingest"]
    assert doc["worst_trial_cv_at"] == f"{rows[5][0]}/gpu.hbm_transactions"
    trials = [Fraction(r[col]) for r in rows[1:] if r[0] == rows[5][0] and r[2] == rows[5][2]]
    mean = sum(trials) / len(trials)
    var = sum((t - mean) ** 2 for t in trials) / len(trials)
    exact = math.sqrt(var / mean ** 2)
    assert math.isfinite(doc["worst_trial_cv"])
    assert abs(doc["worst_trial_cv"] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("digits, message", [
    (400, "record 0: metric 'm' is too large for a float"),  # beyond the float range
    (5000, "invalid JSON"),  # beyond Python's integer-to-string limit
], ids=["float-range", "str-digits-limit"])
def test_ingest_check_json_integer_too_large(tmp_path, capsys, digits, message):
    p = tmp_path / "s.json"
    p.write_text('[{"kernel": "K", "platform": "cpu", "problem_size_bytes": 1024, '
                 f'"trial": 0, "m": 1{"0" * digits}}}]')
    code, stdout, err = run(capsys, "ingest-check", "--input", p)
    assert (code, stdout) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["message"].startswith(message)


@pytest.mark.parametrize("kernel", [None, True, [1], 5], ids=["null", "true", "list", "number"])
def test_ingest_check_json_kernel_must_be_a_string(tmp_path, capsys, kernel):
    p = tmp_path / "s.json"
    p.write_text(json.dumps([{"kernel": kernel, "platform": "cpu", "problem_size_bytes": 1024,
                              "trial": 0, "m": 1.0}]))
    code, stdout, err = run(capsys, "ingest-check", "--input", p)
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {"error": "ParseError",
                               "message": f"record 0: kernel is not a string: {kernel!r}"}


@pytest.mark.parametrize("bad_first, message", [
    (False, "line 4: field larger than field limit (131072)"),
    (True, "line 3: unknown platform 'tpu'"),  # the earlier bad record is still reported
], ids=["cell", "bad-record-first"])
def test_ingest_check_oversized_csv_cell_is_an_input_error(tmp_path, capsys, bad_first, message):
    rows = [["a", "cpu", 1024, 0, 0.1, 0.2, 0.3, 0.4],
            ["a", "tpu" if bad_first else "cpu", 2048, 0, 0.1, 0.2, 0.3, 0.4],
            ["b", "cpu", 1024, 0, "1" * 200_000, 0.2, 0.3, 0.4]]
    p = tmp_path / "s.csv"
    p.write_text(csv_bytes(CPU_HEADER, rows))
    code, stdout, err = run(capsys, "ingest-check", "--input", p)
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {"error": "ParseError", "message": message}


# ---------------------------------------------------------------- exit codes

def test_internal_error_exits_1_with_one_json_line(tmp_path, capsys, monkeypatch, cpu_csv):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "cluster", fail)
    code, stdout, err = run(capsys, "cluster", "--input", cpu_csv, "--out", tmp_path / "o")
    assert (code, stdout, err) == (1, "", '{"error": "RuntimeError", "message": "boom"}\n')


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, "cluster", "--input", tmp_path / "nope.csv",
                       "--out", tmp_path / "o")
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "FileNotFoundError"
    assert "nope.csv" in doc["message"]


def test_malformed_csv_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("kernel,platform,problem_size_bytes,trial,m\nK,cpu,xyz,0,1.0\n")
    code, _, err = run(capsys, "ingest-check", "--input", p)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith("line 2:")


def test_duplicate_samples_across_files(tmp_path, capsys, cpu_csv):
    code, _, err = run(capsys, "ingest-check", "--input", cpu_csv, "--input", cpu_csv)
    assert code == 2
    assert "duplicate" in json.loads(err)["message"]


def test_duplicate_across_files_reported_before_later_files_parse(tmp_path, capsys, cpu_csv):
    bad = tmp_path / "bad.csv"
    bad.write_text("kernel,platform,problem_size_bytes,trial,m\nK,cpu,xyz,0,1.0\n")
    code, _, err = run(capsys, "ingest-check", "--input", cpu_csv, "--input", cpu_csv,
                       "--input", bad)
    assert code == 2
    assert json.loads(err) == {
        "error": "KstError",
        "message": "duplicate sample key ('Apps_K00', 'cpu', 1048576, 0) across input files",
    }


@pytest.mark.parametrize("time, counters, rate", [
    ("5e-324", ("7", "7", "7", "7"), "gpu.l1_rate"),
    ("1e-10", ("7", "1e300", "7", "7"), "gpu.l2_rate"),
])
@pytest.mark.parametrize("command", ["cluster", "stability"])
def test_gpu_rate_beyond_float_range_is_an_input_error(tmp_path, capsys, command, time,
                                                       counters, rate):
    rows = [[k, "gpu", size, 0, "1e-3", "5", "6", "7", "8"]
            for k in ("A", "B") for size in (1024, 2048)]
    rows[3][4:] = [time, *counters]
    p = tmp_path / "gpu.csv"
    p.write_text(csv_bytes(GPU_HEADER, rows))
    code, out, err = run(capsys, command, "--input", p, "--out", tmp_path / "o")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "KstError",
                               "message": f"metric {rate!r} has non-finite value inf"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, metric, value, message", [
    ("cpu.csv", "topdown.core_bound", 1.5,
     "fraction metric 'topdown.core_bound' has values outside [0, 1]"),
    ("gpu.json", "gpu.time_sec", 5e-324, "metric 'gpu.l1_rate' has non-finite value inf"),
    ("gpu.json", "gpu.l2_transactions", -3.0,
     "counter 'gpu.l2_transactions' must be non-negative, got -3.0"),
], ids=["fraction-above-one", "rate-beyond-float-range", "negative-counter"])
def test_ingest_check_applies_the_rules_cluster_applies(tmp_path, capsys, name, metric, value,
                                                        message):
    platform = "cpu" if name.endswith(".csv") else "gpu"
    header = CPU_HEADER if platform == "cpu" else GPU_HEADER
    rows = [[k, platform, size, 0] + [0.5] * (len(header) - 4)
            for k in ("A", "B") for size in (1024, 2048)]
    rows[3][header.index(metric)] = value
    p = tmp_path / name
    if platform == "cpu":
        p.write_text(csv_bytes(header, rows))
    else:
        p.write_text(json.dumps([dict(zip(header, r[:4]), values=dict(zip(header[4:], r[4:])))
                                 for r in rows]))
    expected = (2, "", json.dumps({"error": "KstError", "message": message}) + "\n")
    assert run(capsys, "ingest-check", "--input", p) == expected
    assert run(capsys, "cluster", "--input", p, "--out", tmp_path / "o") == expected
    assert not (tmp_path / "o").exists()


def test_cluster_log_none_standardizes_a_rate_whose_squares_overflow(tmp_path, capsys):
    # gpu.l1_rate is 1e200 for kernel A and about 1-5 for the rest: its
    # population std overflows numpy's squares, but the column is still
    # standardized, with no RuntimeWarning
    rows = [[k, "gpu", 1024, t, "1e-3", "1e197" if k == "A" else str(1e-3 * (i + 1 + t / 2)),
             5 + i, 6 + 2 * i + t, 8 + i * i]
            for i, k in enumerate("ABCDE") for t in range(2)]
    p = tmp_path / "gpu.csv"
    p.write_text(csv_bytes(GPU_HEADER, rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "cluster", "--input", p, "--log", "none", "-k", "2",
                           "--out", tmp_path / "o")
    assert (code, err) == (0, "")
    spec = {c["metric"]: c for c in json.loads((tmp_path / "o" / "transform.json").read_text())}
    assert spec["gpu.l1_rate"]["log"] is False
    assert spec["gpu.l1_rate"]["mean"] == pytest.approx(2e199)
    assert spec["gpu.l1_rate"]["std"] == pytest.approx(4e199)


def test_error_output_is_single_json_line(tmp_path, capsys):
    code, out, err = run(capsys, "cluster", "--input", tmp_path / "nope.csv",
                         "--out", tmp_path / "o")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
