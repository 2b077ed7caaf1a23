"""The benchmark harness: runs one workload's kst commands in-process through
``kst.cli.main`` as a closed loop (one client, one command at a time), checks
their outputs and reports the metrics.

Untraced runs report the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics instead, with
the tracing overhead as traced minus untraced wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import kst.cli
import numpy as np

import tracer
import workloads

SETUP_SPAWNS = 7
# Seconds one HostProbe reading (READ_ROUNDS rounds of its work) took on the
# 2-core Xeon virtual machine the benchmark was tuned on, in a quiet minute.
# It only sets the unit of scaled times.
PROBE_NOMINAL_S = 0.16
READ_ROUNDS = 8
# While a command runs, one round of probe work every TICK_S seconds.
TICK_S = 0.5


class HostProbe:
    """A fixed piece of work that uses neither kst nor its inputs, timed around
    and during each command to tell how fast the host is running.

    The shared host's speed drifts by tens of percent over seconds to minutes,
    and kst's commands and the interpreter start-up drift together. A command
    timed by :meth:`timed` is interrupted every ``TICK_S`` seconds by a timer
    signal for one round of the work; those rounds are left out of its time.
    Its seconds are then scaled by ``PROBE_NOMINAL_S`` over the median of the
    readings before and after it and of the rounds during it, which reports
    them in seconds at the host's speed in a quiet minute. The work mixes what
    kst spends its time on, so that it slows down with kst when the host does.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._lines = [
            ",".join([f"k{i % 50}", "cpu", str(1 << (i % 4)), str(i % 3)]
                     + [f"{v:.6f}" for v in rng.uniform(size=4)])
            for i in range(750)
        ]
        self._points = rng.normal(size=(100, 8))
        self._matrix = rng.uniform(size=(400, 400))
        self._stream = rng.uniform(size=1 << 19)  # 4 MiB: more than a core's L2
        self.last = self.read()

    def _work(self) -> float:
        # Its arrays stay near 1 MiB, so that a round run during a command
        # adds little to the command's peak memory.
        # parse rows into dicts and average them per group, as ingest does
        groups: dict[tuple[str, int], list[dict[str, float]]] = {}
        for row in csv.reader(self._lines):
            values = {f"m{j}": float(x) for j, x in enumerate(row[4:])}
            groups.setdefault((row[0], int(row[2])), []).append(values)
        acc = 0.0
        for key in sorted(groups):
            acc += float(np.array([[v[m] for m in sorted(v)] for v in groups[key]]).mean())
        # broadcast pairwise distances, as the quality criteria do
        for _ in range(12):
            diff = self._points[:, None, :] - self._points[None, :, :]
            acc += float((diff * diff).sum(axis=2).min())
        # shrinking submatrix gathers, as the Ward merge loop does
        idx = np.arange(len(self._matrix))
        for i in range(3):
            acc += float(self._matrix[np.ix_(idx[i:], idx[i:])].min())
        # stream from the shared cache, where neighbours on the host contend
        for _ in range(50):
            acc += float(self._stream.sum())
        return acc

    def read(self) -> float:
        """Seconds for READ_ROUNDS rounds of the work; also kept as ``last``."""
        start = time.perf_counter()
        for _ in range(READ_ROUNDS):
            self._work()
        self.last = time.perf_counter() - start
        return self.last

    def timed(self, fn: Callable[[], object], ticks: bool = True) -> tuple[float, float]:
        """Run ``fn``; return its seconds as measured and at the usual host speed.

        Without ``ticks`` only the readings before and after count, for runs
        whose time must not include probe work, such as traced passes.
        """
        rounds: list[float] = []

        def tick(signum, frame):
            start = time.perf_counter()
            self._work()
            rounds.append(time.perf_counter() - start)

        before = self.last
        previous = signal.signal(signal.SIGALRM, tick) if ticks else None
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            # every round that ran falls inside this interval
            elapsed = time.perf_counter() - start
        seconds = elapsed - sum(rounds)
        samples = [before, self.read()] + [r * READ_ROUNDS for r in rounds]
        return seconds, seconds * PROBE_NOMINAL_S / statistics.median(samples)


@dataclass
class PassResult:
    wall_s: float   # seconds at the usual host speed (see HostProbe)
    raw_s: float    # seconds as measured
    failures: list[str | None]  # one per command, None when it passed
    digests: list[str]
    out_files: int = 0
    out_bytes: int = 0
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)


def _digest(stdout: str, out: Path | None) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out is not None and out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(wl: workloads.Workload, probe: HostProbe,
             trace: tracer.Tracer | None = None) -> PassResult:
    """Run every command of ``wl`` once; only the ``kst.cli.main`` calls are timed."""
    for cmd in wl.commands:
        if cmd.out is not None:
            shutil.rmtree(cmd.out, ignore_errors=True)
    wall = raw = 0.0
    failures, digests = [], []
    out_files = out_bytes = 0
    for cmd in wl.commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        if trace is not None:
            trace.request = cmd.name
        outcome: dict = {"rc": None, "error": None}

        def invoke() -> None:
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    outcome["rc"] = kst.cli.main(list(cmd.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                outcome["rc"] = exc.code
            except Exception as exc:  # an escaped exception counts against the command
                outcome["error"] = f"{type(exc).__name__}: {exc}"

        measured, scaled = probe.timed(invoke, ticks=trace is None)
        raw += measured
        wall += scaled
        rc, error = outcome["rc"], outcome["error"]

        if error is None and rc != 0:
            error = f"exit code {rc}: {stderr.getvalue().strip()[:300]}"
        if error is None:
            try:
                error = cmd.check(stdout.getvalue(), cmd.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        failures.append(error and f"{cmd.name}: {error}")
        digests.append(_digest(stdout.getvalue(), cmd.out))
        if cmd.out is not None:
            files = [p for p in cmd.out.rglob("*") if p.is_file()]
            out_files += len(files)
            out_bytes += sum(p.stat().st_size for p in files)
    return PassResult(wall, raw, failures, digests, out_files, out_bytes)


def measure_setup(src: Path, probe: HostProbe, spawns: int = SETUP_SPAWNS) -> tuple[float, float]:
    """Median seconds for a fresh interpreter to start and import ``kst.cli``,
    at the usual host speed and as measured."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    scaled, raw = [], []
    probe.read()
    for _ in range(spawns):
        measured, at_speed = probe.timed(
            lambda: subprocess.run([sys.executable, "-c", "import kst.cli"], env=env,
                                   check=True, stdin=subprocess.DEVNULL),
            ticks=False)
        raw.append(measured)
        scaled.append(at_speed)
    return statistics.median(scaled), statistics.median(raw)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            probe: HostProbe, kernels: int | None = None,
            ) -> tuple[list[PassResult], list[PassResult], tracer.Tracer | None]:
    """Run passes until ``seconds`` would be exceeded.

    Untraced: at least two passes, so reruns can be compared byte for byte.
    Traced: at least one (untraced, traced) pair.
    Returns the untraced passes, the traced passes and the tracer.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(name, seed, workdir, kernels)
    tr = tracer.Tracer() if trace else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    min_rounds = 1 if trace else 2
    begin = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(wl, probe))
        if tr is not None:
            tr.reset()
            tr.install()
            try:
                result = run_pass(wl, probe, tr)
            finally:
                tr.uninstall()
            result.layers = tr.metrics()
            traced.append(result)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - begin + (now - round_start) > seconds:
            break
    return plain, traced, tr


def _failures(passes: list[PassResult]) -> list[str]:
    """Failed commands, counting any output that differs from the first pass."""
    out = []
    first = passes[0].digests
    for i, p in enumerate(passes):
        for j, failure in enumerate(p.failures):
            if failure is None and p.digests[j] != first[j]:
                failure = f"pass {i}: command {j} output differs from pass 0"
            if failure is not None:
                out.append(failure)
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(plain: list[PassResult], traced: list[PassResult],
                  tr: tracer.Tracer) -> dict[str, dict]:
    """Per-layer medians over the traced passes, plus output size and trace cost.

    Self times are scaled like their pass (see HostProbe), so runs at
    different host speeds compare.
    """
    def value(p: PassResult, name: str) -> float:
        v, unit = p.layers[name]
        return v * p.wall_s / p.raw_s if unit == "s" and p.raw_s else v

    metrics = {}
    for name in tracer.metric_names():
        metrics[name] = _metric(statistics.median(value(p, name) for p in traced),
                                traced[0].layers[name][1])
    metrics["report.out_files"] = _metric(traced[-1].out_files, "count")
    metrics["report.out_bytes"] = _metric(traced[-1].out_bytes, "bytes")
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(p.wall_s for p in plain), "s")
    metrics["trace.absent"] = _metric(len(tr.absent), "count")
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Run each workload through run.py; the last line sums the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                        help="'all' runs every workload in its own process, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    base = root / ".perfbench"
    workdir = base / f"{args.workload}-seed{args.seed}"
    probe = HostProbe()
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(root / "src", probe)
    try:
        plain, traced, tr = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = plain + traced
    failures = _failures(everything)
    attempted = sum(len(p.failures) for p in everything)
    for failure in failures:
        print(f"FAILED {failure}")

    if args.trace:
        tr.write_spans(base / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(plain, traced, tr)
        if tr.absent:
            print(f"absent from kst, reported as 0: {', '.join(tr.absent)}")
        print(f"{args.workload} seed={args.seed}: {len(traced)} traced pass(es), "
              f"trace.overhead_s {metrics['trace.overhead_s']['value']:.4f} s")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        error_rate = len(failures) / attempted
        plain_wall = statistics.median(p.wall_s for p in plain)
        metrics = {
            "wall_s": _metric(plain_wall, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "success_rate": _metric(1.0 - error_rate, "ratio"),
        }
        raw_wall = statistics.median(p.raw_s for p in plain)
        print(f"{args.workload} seed={args.seed}: wall_s {plain_wall:.4f} s "
              f"(median of {len(plain)} passes; {raw_wall:.4f} s as measured), "
              f"setup_s {setup_s:.4f} s ({setup_raw_s:.4f} s as measured), "
              f"peak_rss_mb {peak_rss_mb:.1f} MB, error_rate {error_rate:.4f} "
              f"({len(failures)} of {attempted} commands)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0
