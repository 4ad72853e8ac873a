"""Feature-based streamflow regionalization.

Extracts 28 general-purpose time-series features from daily temperature,
precipitation and streamflow records, then explains and predicts streamflow
features at ungauged catchments via Spearman correlations, random-forest
permutation importance and cross-validated RMSE comparisons across seven
predictor groups.
"""

from .dataio import (
    CatchmentRecord,
    CatchmentTable,
    IngestConfig,
    STATIC_ATTRIBUTES,
    load_dataset,
    read_attributes,
)
from .decomposition import Decomposition, loess_smooth, stl_decompose, stl_feature_set
from .engine import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureVector,
    extract_batch,
    extract_features,
)
from .forest import (
    DesignMatrix,
    ForestModel,
    ForestParams,
    ImportanceReport,
    fit,
    oob_error,
    permutation_importance,
    predict,
)
from .regional import (
    ALL_PREDICTORS,
    GROUP_NAMES,
    CorrelationMatrix,
    EvaluationReport,
    correlation_matrix,
    cross_validate,
    evaluate_all,
    feature_summary,
    importance_all,
    kfold_split,
    rmse,
    spearman,
)
from .series import TimeSeries, difference, standardize, validate

__version__ = "0.1.0"

__all__ = [
    "ALL_PREDICTORS",
    "CatchmentRecord",
    "CatchmentTable",
    "CorrelationMatrix",
    "Decomposition",
    "DesignMatrix",
    "EvaluationReport",
    "FEATURE_NAMES",
    "FeatureConfig",
    "FeatureVector",
    "ForestModel",
    "ForestParams",
    "GROUP_NAMES",
    "ImportanceReport",
    "IngestConfig",
    "STATIC_ATTRIBUTES",
    "TimeSeries",
    "correlation_matrix",
    "cross_validate",
    "difference",
    "evaluate_all",
    "extract_batch",
    "extract_features",
    "feature_summary",
    "fit",
    "importance_all",
    "kfold_split",
    "load_dataset",
    "loess_smooth",
    "oob_error",
    "permutation_importance",
    "predict",
    "read_attributes",
    "rmse",
    "spearman",
    "standardize",
    "stl_decompose",
    "stl_feature_set",
    "validate",
]
