"""Deterministic input generator for the benchmark workloads.

Follows the recipe of ``tests/conftest.py::write_cpu_csv`` / ``write_gpu_csv``:
the first half of the kernels are memory-bound on the CPU and heavy on the
GPU, the second half compute-bound and light. The same seed gives
byte-identical files.
"""

from __future__ import annotations

import csv
import io

import numpy as np

IDENTITY_HEADER = ["kernel", "platform", "problem_size_bytes", "trial"]
CPU_HEADER = IDENTITY_HEADER + [
    "topdown.core_bound",
    "topdown.memory_bound",
    "topdown.fetch_latency",
    "topdown.fetch_bandwidth",
]
GPU_HEADER = IDENTITY_HEADER + [
    "gpu.time_sec",
    "gpu.l1_transactions",
    "gpu.l2_transactions",
    "gpu.hbm_transactions",
    "gpu.warp_instructions",
]


def kernel_names(n: int) -> list[str]:
    """``Apps_K0000``.. for the first (memory-bound/heavy) half, ``Basic_K..`` after."""
    half = n // 2
    return [f"Apps_K{i:04d}" for i in range(half)] + [f"Basic_K{i:04d}" for i in range(n - half)]


def bound_kernels(n: int) -> set[str]:
    """The kernels generated memory-bound (CPU) and heavy (GPU)."""
    return set(kernel_names(n)[: n // 2])


def _csv(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


def cpu_csv(n_kernels: int, sizes: tuple[int, ...], trials: int, seed: int) -> bytes:
    rng = np.random.default_rng([seed, 0])
    kernels = kernel_names(n_kernels)
    rows = []
    for ki, kernel in enumerate(kernels):
        memory_bound = ki < n_kernels // 2
        for size in sizes:
            for trial in range(trials):
                if memory_bound:
                    mb = 0.90 + rng.normal(0, 0.01)
                    cb = 0.04 + rng.normal(0, 0.004)
                else:
                    mb = 0.20 + rng.normal(0, 0.01)
                    cb = 0.60 + rng.normal(0, 0.01)
                fl = 0.02 + rng.uniform(0, 0.01)
                fb = 0.03 + rng.uniform(0, 0.01)
                rows.append([kernel, "cpu", size, trial,
                             f"{cb:.6f}", f"{mb:.6f}", f"{fl:.6f}", f"{fb:.6f}"])
    return _csv(CPU_HEADER, rows)


def gpu_csv(n_kernels: int, sizes: tuple[int, ...], trials: int, seed: int) -> bytes:
    rng = np.random.default_rng([seed, 1])
    kernels = kernel_names(n_kernels)
    rows = []
    for ki, kernel in enumerate(kernels):
        heavy = ki < n_kernels // 2
        t = 0.01 * (1 + ki * 0.1)
        scale = 1e9 if heavy else 1e6
        for size in sizes:
            for trial in range(trials):
                l1 = scale * (1 + rng.uniform(0, 0.2))
                wi = 5e8 * (1 + rng.uniform(0, 0.5))
                rows.append([kernel, "gpu", size, trial, f"{t:.6f}",
                             f"{l1:.1f}", f"{l1 * 0.4:.1f}", f"{l1 * 0.1:.1f}", f"{wi:.1f}"])
    return _csv(GPU_HEADER, rows)
