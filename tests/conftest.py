"""Shared builders for the test suite.

Synthetic tables use unconstrained "score" descriptors so tests can use
arbitrary coordinates without tripping range validation.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from kst.dataset import MetricDescriptor, MetricTable

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


def score_columns(d: int, prefix: str = "m") -> tuple[MetricDescriptor, ...]:
    return tuple(MetricDescriptor(f"{prefix}{j}", "score", "any", "unspecified") for j in range(d))


def make_table(data, rows=None, columns=None) -> MetricTable:
    """Wrap a 2-D array in a MetricTable with generated labels and score columns."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if rows is None:
        rows = tuple(f"k{i:02d}" for i in range(arr.shape[0]))
    if columns is None:
        columns = score_columns(arr.shape[1])
    return MetricTable(rows=tuple(rows), columns=tuple(columns), data=arr)


def two_blob_array(n: int = 50, d: int = 8, gap: float = 10.0, seed: int = 7):
    """Two unit-variance gaussian blobs separated by ``gap`` along axis 0.

    Returns (data, truth) where truth is the generating assignment
    (0 for the first n//2 rows, 1 for the rest).
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(0.0, 1.0, size=(half, d))
    b = rng.normal(0.0, 1.0, size=(n - half, d))
    b[:, 0] += gap
    truth = np.array([0] * half + [1] * (n - half))
    return np.vstack([a, b]), truth


@pytest.fixture
def two_blob_table():
    data, truth = two_blob_array()
    return make_table(data), truth


@pytest.fixture
def four_point_line():
    """{0, 0.1, 10, 10.1} on a line: the standing hand-check dataset."""
    return make_table([[0.0], [0.1], [10.0], [10.1]])


def csv_bytes(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def json_records(csv_text: str, flat: bool = False) -> list[dict]:
    """The JSON form of a CSV sample file: integer sizes and trials, float
    metrics, empty cells omitted; the metrics sit in a ``values`` mapping or,
    with ``flat``, next to the identity keys."""
    records = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        record = {k: row.pop(k) for k in IDENTITY_HEADER}
        record["problem_size_bytes"] = int(record["problem_size_bytes"])
        record["trial"] = int(record["trial"])
        values = {k: float(v) for k, v in row.items() if v != ""}
        if flat:
            record.update(values)
        else:
            record["values"] = values
        records.append(record)
    return records


def write_cpu_csv(path, kernels=None, sizes=(1048576, 4194304), trials=3, seed=42):
    """Synthetic topdown profile: half the kernels memory bound, half compute bound."""
    if kernels is None:
        kernels = [f"Apps_K{i:02d}" for i in range(6)] + [f"Basic_K{i:02d}" for i in range(6)]
    rng = np.random.default_rng(seed)
    rows = []
    for ki, kernel in enumerate(kernels):
        memory_bound = ki < len(kernels) // 2
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
    path.write_text(csv_bytes(CPU_HEADER, rows))
    return kernels


def write_gpu_csv(path, kernels=None, sizes=(16777216, 67108864), seed=43):
    if kernels is None:
        kernels = [f"Apps_K{i:02d}" for i in range(6)] + [f"Basic_K{i:02d}" for i in range(6)]
    rng = np.random.default_rng(seed)
    rows = []
    for ki, kernel in enumerate(kernels):
        heavy = ki < len(kernels) // 2
        for size in sizes:
            t = 0.01 * (1 + ki * 0.1)
            scale = 1e9 if heavy else 1e6
            l1 = scale * (1 + rng.uniform(0, 0.2))
            wi = 5e8 * (1 + rng.uniform(0, 0.5))
            rows.append([kernel, "gpu", size, 0, f"{t:.6f}",
                         f"{l1:.1f}", f"{l1 * 0.4:.1f}", f"{l1 * 0.1:.1f}", f"{wi:.1f}"])
    path.write_text(csv_bytes(GPU_HEADER, rows))
    return kernels
