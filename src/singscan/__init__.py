"""singscan: point-cloud singularity detection via local uniformity testing.

Each point's neighborhood is rescaled to the unit ball, PCA-projected to its
estimated dimension, and scored against the uniform disk distribution with a
closed-form kernel MMD; null tables drawn from the kernel's spectrum turn
scores into p-values, which are filtered into labels, judged by the
dispersion score, and aggregated into global manifold-hypothesis tests.
"""

from .evaluation import RocCurve, SuiteRow, roc_curve, run_synthetic_suite
from .geometry import (
    MIN_NEIGHBORHOOD,
    Knn,
    NeighborIndex,
    Neighborhood,
    PcaResult,
    Radius,
    as_point_cloud,
    estimate_dim,
    local_pca,
    neighbors_knn,
    neighbors_radius,
    project,
)
from .kernels import (
    EXP_DOT,
    GEOMETRIC,
    PowerSeriesKernel,
    beta_coeff,
    expected_mmd_sq,
    mmd_sq_vs_uniform_disk,
)
from .mh import MhReport, ks_uniform, mh_report, supc, upup
from .nulls import (
    NullCache,
    NullTable,
    build_null,
    p_value,
)
from .scoring import (
    dispersion,
    filter_labels,
    kde_density,
    knee_detect,
    knn_neighbor_sets,
    log_inv_p,
    purity,
    roc_auc,
    separation,
)
from .synth import (
    LabeledCloud,
    ShapeSpec,
    generate,
    ground_truth_labels,
    mh_benchmark,
    sample_uniform_ball,
    scaled_experiment_params,
)
from .tuning import (
    GridRow,
    GridSearchResult,
    SearchGrid,
    default_grid,
    grid_search,
    local_scale,
)
from .uniformity import (
    Hyperparams,
    Scores,
    UniformityResult,
    score_columns,
    score_configurations,
    singularity_scores,
    uniformity_test,
)

__version__ = "0.1.0"

__all__ = [
    "EXP_DOT",
    "GEOMETRIC",
    "MIN_NEIGHBORHOOD",
    "GridRow",
    "GridSearchResult",
    "Hyperparams",
    "Knn",
    "LabeledCloud",
    "MhReport",
    "NeighborIndex",
    "Neighborhood",
    "NullCache",
    "NullTable",
    "PcaResult",
    "PowerSeriesKernel",
    "Radius",
    "RocCurve",
    "Scores",
    "SearchGrid",
    "ShapeSpec",
    "SuiteRow",
    "UniformityResult",
    "as_point_cloud",
    "beta_coeff",
    "build_null",
    "default_grid",
    "dispersion",
    "estimate_dim",
    "expected_mmd_sq",
    "filter_labels",
    "generate",
    "grid_search",
    "ground_truth_labels",
    "kde_density",
    "knee_detect",
    "knn_neighbor_sets",
    "ks_uniform",
    "local_pca",
    "local_scale",
    "log_inv_p",
    "mh_benchmark",
    "mh_report",
    "mmd_sq_vs_uniform_disk",
    "neighbors_knn",
    "neighbors_radius",
    "p_value",
    "project",
    "purity",
    "roc_auc",
    "roc_curve",
    "run_synthetic_suite",
    "sample_uniform_ball",
    "scaled_experiment_params",
    "score_columns",
    "score_configurations",
    "separation",
    "singularity_scores",
    "supc",
    "uniformity_test",
    "upup",
]
