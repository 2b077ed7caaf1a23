"""kst: quantify performance similarity of computational kernels.

Hardware-metric profiles (CPU top-down fractions, GPU transaction and
instruction rates) are standardized and compared by Euclidean distance;
agglomerative Ward and k-means clustering group kernels into behavioral
families, a battery of quality criteria picks the cluster count, and
problem-size sweeps locate where each kernel's profile stabilizes.
"""

from .cluster import (
    Dendrogram,
    KMeansModel,
    Merge,
    Partition,
    agglomerative_ward,
    cut_dendrogram,
    kmeans_fit,
)
from .dataset import (
    ALL_SIZES,
    CPU_TOPDOWN_METRICS,
    DEFAULT_METRICS,
    GPU_COUNTER_METRICS,
    GPU_RATE_METRICS,
    GPU_TIME_METRIC,
    MetricDescriptor,
    MetricTable,
    RawSample,
    TrialSpread,
    aggregate_trials,
    build_table,
    derive_gpu_rates,
    descriptor_for,
    merge_platforms,
    parse_samples,
)
from .errors import KstError, ParseError
from .preprocess import TransformSpec, apply_transform, fit_transform
from .quality import (
    DegenerateResultWarning,
    GapCurve,
    KSelectionReport,
    QualityReport,
    RatioReport,
    bic_score,
    calinski_harabasz,
    compactness,
    davies_bouldin,
    dunn_index,
    gap_statistic,
    quality_report,
    ratio_report,
    select_k,
    separation,
    silhouette,
    sum_of_squares,
    tibshirani_select,
)
from .report import (
    BoxplotSummary,
    Projection2D,
    emit_report,
    export_boxplot_data,
    format_metric_value,
    parse_report,
    pca_project,
)
from .rng import DEFAULT_SEED
from .similarity import (
    FamilyReport,
    family_similarity,
    geometric_mean,
)
from .stability import (
    StabilityReport,
    StabilitySummary,
    stability_series,
    stability_summary,
    write_stability_csv,
)

__version__ = "0.1.0"
