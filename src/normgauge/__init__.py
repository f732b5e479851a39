"""Normative models over tabular biological features, with subgroup bias audits.

The pipeline: load or synthesize a cohort, fit per-region warped Bayesian
linear regressions on a reference split, score held-out subjects as
standardized deviations from the predicted norms, then audit those deviations
for residual group structure (group-difference tests and attribute
predictability).
"""

from ._version import __version__
from .audit import (
    GroupSummary,
    ParityReport,
    WelchResult,
    bh_fdr,
    group_difference,
    group_parity,
    group_summary,
    significant_fraction,
    t_two_sided_p,
)
from .blr import (
    DeviationMatrix,
    Hyperparams,
    NormativeModel,
    RegionFitMetrics,
    RegionModel,
    RegionPrediction,
    deviations,
    explained_variance,
    fit_metrics,
    fit_normative,
    fit_region,
    load_bundle,
    predict_region,
    region_metrics,
    save_bundle,
)
from .cohort import (
    Cohort,
    CohortSchema,
    SplitSpec,
    Subject,
    demographics_summary,
    load_cohort,
    qc_filter,
    save_cohort,
    stratified_split,
)
from .classify import (
    ClassifierConfig,
    ClassifierReport,
    OvrLogisticModel,
    cross_validate,
    decision_scores,
    evaluate_holdout,
    roc_points,
    stratified_folds,
)
from .design import (
    BasisConfig,
    DesignMatrix,
    DesignSchema,
    ModelConfig,
    apply_design,
    fit_design,
    spline_basis,
)
from .errors import InputError, NormgaugeError, NumericalError, SchemaError
from .synth import SynthSpec, generate
from .warp import WarpParams, warp_forward, warp_inverse

__all__ = [name for name in dir() if not name.startswith("_")]
