"""Two-dimensional projection, distribution summaries, and JSON emission.

Everything written to disk goes through :func:`emit_report`, which produces
versioned JSON (``schema_version: 1``) with sections in a fixed canonical
order so identical inputs yield byte-identical documents. The document is
written by :func:`kst._json.dumps`, the one JSON writer, which walks the
section objects straight to text and falls back to
:func:`kst._json.to_jsonable` for a type it does not know;
:func:`parse_report` reads like ``parse_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Any, Mapping, Sequence

import numpy as np

from ._json import FieldDict, dumps, load_json
from .cluster import Partition
from .dataset import FRACTION, TIME, MetricDescriptor, MetricTable
from .errors import KstError, ParseError
from .quality import _check_partition

SCHEMA_VERSION = 1

# sections of a combined report, in emission order
CANONICAL_SECTIONS = (
    "config",
    "table",
    "transform",
    "partition",
    "dendrogram",
    "kmeans",
    "quality",
    "ratio",
    "selection",
    "family",
    "stability",
    "stability_summary",
    "projection",
    "boxplot",
    "ingest",
)

_RANK_TOL = 1e-12  # eigenvalues below this fraction of the largest count as zero
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
_FIVE_NUMBERS = ("min", "q1", "median", "q3", "max")


@dataclass(frozen=True, eq=False)
class Projection2D(FieldDict):
    """Top-two principal directions of the table rows.

    Components follow a sign convention (each component's largest-magnitude
    entry is positive) so the projection is unique. ``degenerate`` is set
    when the data has rank < 2 and the second axis carries no variance.
    """

    components: np.ndarray                       # 2 x d
    explained_variance_ratio: tuple[float, float]
    coords: dict[str, tuple[float, float]]
    centroid_coords: dict[int, tuple[float, float]]
    degenerate: bool


def pca_project(
    m: MetricTable, centroids: Sequence[Sequence[float]] | np.ndarray | None = None
) -> Projection2D:
    """Project rows (and optional cluster centroids) onto the top-2
    principal directions of the row data.

    The basis is fitted on the rows only; centroids are mapped with the same
    basis so they land where their members do.
    """
    # column-major, as standardized tables are: numpy's sums, and so the
    # projection's last bits, depend on the layout they read
    x = np.asfortranarray(m.data)
    n, d = x.shape
    if n < 2 or d < 2:
        raise KstError(f"projection needs at least 2 rows and 2 columns, got {n}x{d}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = np.einsum("ij,ik->jk", xc, xc) / n
    evals, evecs = np.linalg.eigh(cov)  # ascending
    top = [d - 1, d - 2]
    comps = evecs[:, top].T.copy()
    for row in range(2):
        j = int(np.abs(comps[row]).argmax())
        if comps[row, j] < 0:
            comps[row] = -comps[row]

    clipped = np.clip(evals, 0.0, None)
    clipped[clipped < _RANK_TOL * max(float(clipped.max()), 1e-300)] = 0.0
    total = float(clipped.sum())
    lam = clipped[top]
    if total == 0.0:
        ratios = (0.0, 0.0)
    else:
        ratios = (float(lam[0] / total), float(lam[1] / total))
    degenerate = ratios[1] == 0.0

    proj = xc @ comps.T
    coords = {lab: (float(p[0]), float(p[1])) for lab, p in zip(m.rows, proj)}
    centroid_coords: dict[int, tuple[float, float]] = {}
    if centroids is not None:
        cents = np.asarray(centroids, dtype=float)
        if cents.ndim != 2 or cents.shape[1] != d:
            raise KstError(f"centroids must be shaped (k, {d})")
        cproj = (cents - mean) @ comps.T
        centroid_coords = {c: (float(p[0]), float(p[1])) for c, p in enumerate(cproj)}
    return Projection2D(
        components=comps,
        explained_variance_ratio=ratios,
        coords=coords,
        centroid_coords=centroid_coords,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class BoxplotSummary(FieldDict):
    """Five-number summaries per (cluster, metric).

    ``source`` names whether the numbers come from raw or standardized
    values.
    """

    source: str  # "raw" or "standardized"
    clusters: dict[int, dict[str, dict[str, float]]]


def export_boxplot_data(
    m: MetricTable, p: Partition, raw: MetricTable | None = None
) -> BoxplotSummary:
    """min/q1/median/q3/max per cluster and metric.

    Rows map to clusters as in the quality measures, and one
    linear-interpolation quantile call gives the five numbers of all of a
    cluster's metrics. When ``raw`` is given, statistics are computed over
    its (pre-standardization) values for the same row labels, in whatever
    order ``raw`` holds them; otherwise over ``m`` itself.
    """
    assign = _check_partition(m, p)
    source_table = m if raw is None else raw
    source_name = "standardized" if raw is None and m.meta.get("space") == "standardized" else "raw"
    where = {lab: i for i, lab in enumerate(source_table.rows)}
    missing = [lab for lab in m.rows if lab not in where]
    if missing:
        raise KstError(f"raw table is missing rows {missing}")
    idx = np.array([where[lab] for lab in m.rows], dtype=np.intp)

    clusters: dict[int, dict[str, dict[str, float]]] = {}
    for c in range(p.k):
        q = np.quantile(source_table.data[idx[assign == c]], _QUANTILES, axis=0, method="linear")
        clusters[c] = {col.name: dict(zip(_FIVE_NUMBERS, q[:, j].tolist()))
                       for j, col in enumerate(source_table.columns)}
    return BoxplotSummary(source=source_name, clusters=clusters)


def format_metric_value(descriptor: MetricDescriptor, value: float) -> str:
    """Human-readable rendering; fractions are shown as percentages."""
    if descriptor.kind == FRACTION:
        return f"{100.0 * value:.1f}%"
    if descriptor.kind == TIME:
        return f"{value:.4g} s"
    if abs(value) >= 1e4 or (value != 0 and abs(value) < 1e-3):
        return f"{value:.4g}"
    return f"{value:.4f}"


def emit_report(sections: Mapping[str, Any]) -> str:
    """Serialize a bundle of report sections as versioned JSON.

    Known sections appear in canonical order, unknown ones after them in
    name order. Output is deterministic and round-trips through
    :func:`parse_report`. Non-finite sentinel scores are emitted in the
    JSON extension spellings (``Infinity``, ``-Infinity``) that
    ``json.loads`` reads back.
    """
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    known = [s for s in CANONICAL_SECTIONS if s in sections]
    unknown = sorted(s for s in sections if s not in CANONICAL_SECTIONS)
    for name in known + unknown:
        doc[name] = sections[name]
    return dumps(doc) + "\n"


def parse_report(source: str | bytes | IO[str] | IO[bytes]) -> dict:
    """Parse a document produced by :func:`emit_report`."""
    doc = load_json(source, "report JSON")
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ParseError("report documents must be objects with a schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc['schema_version']!r}")
    return doc
