"""Command-line interface.

Subcommands: ``cluster`` (partition kernels and describe the clusters),
``select-k`` (score candidate cluster counts), ``similar`` (family
similarity for one kernel), ``stability`` (problem-size stability per
kernel) and ``ingest-check`` (validate input files).

Outputs land in ``--out DIR`` under fixed file names. Runs are fully
deterministic: a single ``--seed`` (falling back to the ``KST_SEED``
environment variable, then to the built-in default) drives every random
draw, and rerunning a command with identical inputs and flags reproduces
every output file byte for byte.

Exit codes: 0 success, 2 usage or input error, 1 internal error. Errors are
reported as one line of JSON on stderr; a usage error raises ``SystemExit(2)``
from :func:`main` after printing it, as argparse does.

Each command builds the text of every file it writes before it writes any,
then writes them all with :func:`_write_all` and only then prints, so an
input or analysis error writes nothing. An OS error while writing (a
directory where a file should go, a full disk) exits 2 and can leave the
files written before it.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from . import __version__
from .cluster import agglomerative_ward, cut_dendrogram, kmeans_fit
from .dataset import (
    ALL_SIZES,
    DEFAULT_METRICS,
    MetricTable,
    Samples,
    ingest_summary,
    merge_platforms,
    platform_groups,
    platform_table,
    read_inputs,
)
from .errors import KstError
from .preprocess import fit_transform
from .quality import (
    ALL_CRITERIA,
    DEFAULT_CRITERIA,
    _centroids,
    _check_partition,
    quality_report,
    select_k,
)
from .report import emit_report, export_boxplot_data, format_metric_value, pca_project
from .rng import DEFAULT_SEED, _check_seed
from .similarity import family_similarity
from .stability import (
    DEFAULT_THRESHOLD_PCT,
    REL_BASES,
    kernel_reports,
    stability_summary,
    write_stability_csv,
)

SEED_ENV_VAR = "KST_SEED"
_SURROGATE = re.compile("[\ud800-\udfff]")


def _size_policy(text: str) -> int | str:
    if text == ALL_SIZES:
        return ALL_SIZES
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size must be a byte count or {ALL_SIZES!r}, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive, got {value}")
    return value


def _annotation(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"annotations take the form name=bytes, got {text!r}"
        )
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"annotation value is not a number: {text!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"annotation value is not finite: {text!r}")
    if number <= 0:
        raise argparse.ArgumentTypeError(f"annotation bytes must be positive: {text!r}")
    return name, number


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _criteria(text: str) -> list[str]:
    # an empty --criteria means the defaults; "," means none and is rejected later
    return _comma_list(text) if text else list(DEFAULT_CRITERIA)


class _Parser(argparse.ArgumentParser):
    # a usage error (a bad flag value, an unknown flag, a missing --input) is
    # one JSON line on stderr and exit 2, like an input error; subcommand
    # parsers are of this class too
    def error(self, message: str) -> NoReturn:
        self.exit(2, json.dumps({"error": "UsageError", "message": message}) + "\n")


def _add_common(p: argparse.ArgumentParser, *, dataset: bool = True) -> None:
    p.add_argument("--version", action="version", version=f"kst {__version__}")
    p.add_argument("--input", action="append", required=True, metavar="FILE",
                   help="input samples (CSV or JSON); repeatable")
    p.add_argument("--format", default="auto", choices=("auto", "csv", "json"),
                   help="input format (default: by file extension)")
    if dataset:
        p.add_argument("--platform", default="auto", choices=("auto", "cpu", "gpu", "both"),
                       help="which platform's metrics to analyze (default: what the data has)")
        p.add_argument("--size", type=_size_policy, default=ALL_SIZES, metavar="BYTES|all",
                       help="problem size to select, or 'all' for one row per size (default: all)")
        p.add_argument("--gpu-size", type=_size_policy, default=None, metavar="BYTES|all",
                       help="GPU problem size when merging platforms (default: --size)")
        p.add_argument("--log", default="auto", choices=("auto", "none", "explicit"),
                       dest="log_policy", help="natural-log policy before standardization")
        p.add_argument("--log-metrics", type=_comma_list, default=(), metavar="M1,M2",
                       help="metrics to log under --log explicit")
        p.add_argument("--log-ratio", type=float, default=100.0, metavar="R",
                       help="max/min ratio that triggers the log under --log auto")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kst",
        description="Quantify performance similarity of computational kernels "
                    "from hardware-metric profiles.",
    )
    parser.add_argument("--version", action="version", version=f"kst {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="partition kernels and describe the clusters")
    _add_common(p)
    p.add_argument("--method", default="agglomerative", choices=("agglomerative", "kmeans"))
    p.add_argument("-k", type=int, default=2, help="number of clusters (default: 2)")
    p.add_argument("--n-init", type=int, default=10, help="k-means replicates (default: 10)")
    p.add_argument("--max-iter", type=int, default=300, help="k-means iteration cap")

    p = sub.add_parser("select-k", help="score candidate cluster counts")
    _add_common(p)
    p.add_argument("--method", default="agglomerative", choices=("agglomerative", "kmeans"))
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--criteria", type=_criteria, default=DEFAULT_CRITERIA, metavar="C1,C2",
                   help=f"subset of {','.join(ALL_CRITERIA)}")
    p.add_argument("--gap-b", type=int, default=50, metavar="B",
                   help="gap-statistic reference datasets (default: 50)")
    p.add_argument("--n-init", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=300)

    p = sub.add_parser("similar", help="family similarity for one kernel")
    _add_common(p)
    p.add_argument("--target", required=True, metavar="LABEL", help="row label to analyze")
    p.add_argument("--family", action="append", required=True, metavar="GLOB",
                   help="glob pattern defining the family; repeatable")

    p = sub.add_parser("stability", help="problem-size stability per kernel")
    _add_common(p, dataset=False)
    p.add_argument("--platform", default="auto", choices=("auto", "cpu", "gpu"),
                   help="restrict to one platform (default: analyze what the data has)")
    p.add_argument("--threshold-pct", type=float, default=DEFAULT_THRESHOLD_PCT,
                   help="stability threshold in percent (default: 5.0)")
    p.add_argument("--rel-base", default="larger", choices=REL_BASES,
                   help="denominator of the percent difference (default: larger)")
    p.add_argument("--annotate", action="append", type=_annotation, default=[],
                   metavar="NAME=BYTES", help="reference size to annotate (e.g. a cache); repeatable")

    p = sub.add_parser("ingest-check", help="validate input files and summarize them")
    p.add_argument("--version", action="version", version=f"kst {__version__}")
    p.add_argument("--input", action="append", required=True, metavar="FILE")
    p.add_argument("--format", default="auto", choices=("auto", "csv", "json"))
    return parser


def _resolve_seed(flag: int | None) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if flag is not None:
        seed = flag
    elif env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise KstError(f"${SEED_ENV_VAR} is not an integer: {env!r}") from None
    else:
        seed = DEFAULT_SEED
    _check_seed(seed)
    return seed


def _platform_mode(args: argparse.Namespace, samples: Samples) -> str:
    # a named platform without samples fails in platform_groups
    present = set(samples.platforms())
    if args.platform == "both" and present != {"cpu", "gpu"}:
        raise KstError("--platform both needs samples from both platforms")
    if args.platform != "auto":
        return args.platform
    return "both" if len(present) == 2 else present.pop()


def _build_raw_table(args: argparse.Namespace, samples: Samples) -> MetricTable:
    mode = _platform_mode(args, samples)
    if mode in ("cpu", "gpu"):
        return platform_table(samples, mode, args.size)
    gpu_size = args.gpu_size if args.gpu_size is not None else args.size
    cpu_table = platform_table(samples, "cpu", args.size)
    gpu_table = platform_table(samples, "gpu", gpu_size)
    return merge_platforms(cpu_table, gpu_table)


def _standardize(args: argparse.Namespace, table: MetricTable):
    if args.log_policy != "explicit":
        if args.log_metrics:
            raise KstError("--log-metrics requires --log explicit")
        return fit_transform(table, args.log_policy, auto_ratio=args.log_ratio)
    if not args.log_metrics:
        raise KstError("--log explicit requires --log-metrics")
    return fit_transform(table, args.log_metrics, auto_ratio=args.log_ratio)


def _report_name(label: str, suffix: str) -> str:
    # percent-escape the path separators, NUL (which no file name may hold),
    # each lone surrogate (which UTF-8 cannot encode; a JSON "\ud800" makes
    # one) and "%" itself, so every label names a file inside the output
    # directory and distinct labels distinct files; "summary" escapes its
    # first letter so it cannot overwrite summary.json. A name over the
    # 255-byte limit keeps 200 bytes of its stem, then "%~" (no escape makes
    # it) and the label's hash
    stem = (label.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
            .replace("\x00", "%00"))
    stem = _SURROGATE.sub(lambda c: "".join(
        f"%{b:02X}" for b in c[0].encode("utf-8", "surrogatepass")), stem)
    stem = "%73ummary" if stem == "summary" else stem
    if len(f"{stem}{suffix}.json".encode()) > 255:
        import hashlib  # only here: loading it adds about 3.5 MB to every run
        stem = (stem.encode()[:200].decode(errors="ignore") + "%~"
                + hashlib.sha256(label.encode("utf-8", "surrogatepass")).hexdigest()[:32])
    return f"{stem}{suffix}.json"


def _shown(label: str) -> str:
    # a label as stdout prints it: each lone surrogate as its "\ud800" escape
    return label.encode("utf-8", "backslashreplace").decode("utf-8")


def _write_all(out: Path, files: dict[str, str]) -> None:
    # the one place outputs are written: ``out`` is made once, then each file
    # gets its text as UTF-8 with each lone surrogate as its "\ud800" escape
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_bytes(text.encode("utf-8", "backslashreplace"))


def cmd_cluster(args: argparse.Namespace) -> int:
    raw = _build_raw_table(args, read_inputs(args.input, args.format))
    std, spec = _standardize(args, raw)
    out = Path(args.out)

    if args.method == "agglomerative":
        dendro = agglomerative_ward(std)
        part = cut_dendrogram(dendro, args.k)
        files = {"dendrogram.json": emit_report({"dendrogram": dendro})}
    else:
        model = kmeans_fit(std, args.k, args.seed, args.n_init, args.max_iter)
        part = model.partition()
        files = {"kmeans.json": emit_report({"kmeans": model})}

    qr = quality_report(std, part)
    box = export_boxplot_data(std, part, raw=raw)
    files["partition.json"] = emit_report({"partition": part})
    files["quality.json"] = emit_report({"quality": qr})
    files["boxplot.json"] = emit_report({"boxplot": box})
    files["transform.json"] = spec.to_json()

    if len(std.column_names) >= 2:
        centroids = _centroids(std.data, _check_partition(std, part), part.k)
        proj = pca_project(std, centroids)
        files["projection.json"] = emit_report({"projection": proj})
    _write_all(out, files)

    print(f"rows: {len(std.rows)}  metrics: {len(std.column_names)}  "
          f"method: {args.method}  k: {args.k}")
    raw_cols = {c.name: c for c in raw.columns}
    for c in range(part.k):
        comp = qr.compactness[c]
        print(f"cluster {c} (n={qr.sizes[c]}): compactness {comp:.4f}")
        for name, stats in box.clusters[c].items():
            rendered = format_metric_value(raw_cols[name], stats["median"])
            print(f"  {name}: median {rendered}")
    if qr.separation is not None:
        print(f"separation: {qr.separation:.4f}")
    print(f"outputs written to {out}")
    return 0


def cmd_select_k(args: argparse.Namespace) -> int:
    raw = _build_raw_table(args, read_inputs(args.input, args.format))
    std, _ = _standardize(args, raw)
    if args.k_min > args.k_max:
        raise KstError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    report = select_k(
        std,
        method=args.method,
        criteria=args.criteria,
        k_range=range(args.k_min, args.k_max + 1),
        seed=args.seed,
        gap_b=args.gap_b,
        n_init=args.n_init,
        max_iter=args.max_iter,
    )
    _write_all(Path(args.out), {"selection.json": emit_report({"selection": report})})
    for name, res in report.criteria.items():
        note = f"  ({res.note})" if res.note else ""
        print(f"{name}: k={res.selected_k}{note}")
    print(f"consensus: k={report.consensus_k}")
    print(f"outputs written to {args.out}")
    return 0


def cmd_similar(args: argparse.Namespace) -> int:
    raw = _build_raw_table(args, read_inputs(args.input, args.format))
    std, _ = _standardize(args, raw)
    report = family_similarity(std, args.target, args.family)
    _write_all(Path(args.out), {"family.json": emit_report({"family": report})})

    def fmt(v: float | None) -> str:
        return "n/a" if v is None else f"{v:.4f}"

    print(f"target: {_shown(report.target)}")
    print(f"avg distance to own size variants: {fmt(report.self_family_avg)}")
    print(f"avg distance to counterpart rows:  {fmt(report.counterpart_avg)}")
    print(f"avg distance to whole family:      {fmt(report.family_avg)}")
    print(f"closest non-family kernel: {_shown(report.closest_other[0])} "
          f"at {report.closest_other[1]:.4f} ({report.relative:.2f}x the family average)")
    print(f"outputs written to {args.out}")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    names = [name for name, _ in args.annotate]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise KstError(f"--annotate names {repeated[0]!r} more than once")
    samples = read_inputs(args.input, args.format)
    mode = _platform_mode(args, samples)
    platforms = ["cpu", "gpu"] if mode == "both" else [mode]
    reports = []
    for platform in platforms:
        reports += kernel_reports(platform_groups(samples, platform), DEFAULT_METRICS[platform],
                                  args.threshold_pct, args.rel_base)

    out = Path(args.out) / "stability"
    multi_platform = len({r.kernel for r in reports}) != len(reports)
    files = {_report_name(r.kernel, f"_{r.platform}" if multi_platform else ""):
             emit_report({"stability": r}) for r in reports}
    summary = stability_summary(reports, dict(args.annotate))
    files["summary.json"] = emit_report({"stability_summary": summary})
    csv_text = io.StringIO()
    write_stability_csv(reports, csv_text)
    files["summary.csv"] = csv_text.getvalue()
    _write_all(out, files)

    stable = [r for r in reports if r.min_stable_size is not None]
    print(f"kernels analyzed: {len(reports)}  stable: {len(stable)}  "
          f"never stable: {len(reports) - len(stable)}")
    for r in reports:
        if r.min_stable_size is None:
            print(f"  {_shown(r.kernel)} ({r.platform}): never stable, "
                  f"residual {r.worst_residual_pct:.1f}%")
    print(f"outputs written to {out}")
    return 0


def cmd_ingest_check(args: argparse.Namespace) -> int:
    doc = ingest_summary(read_inputs(args.input, args.format))
    sys.stdout.write(emit_report({"ingest": doc}))
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "select-k": cmd_select_k,
    "similar": cmd_similar,
    "stability": cmd_stability,
    "ingest-check": cmd_ingest_check,
}


def _error_json(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves a parser as it was, as argparse
    # copies an ``append`` default before appending and no other default is
    # mutable
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args.seed)
        return _COMMANDS[args.command](args)
    except (KstError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(_error_json(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
