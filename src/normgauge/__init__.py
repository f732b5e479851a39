"""Normative models over tabular biological features, with subgroup bias audits.

The pipeline: load or synthesize a cohort, fit per-region warped Bayesian
linear regressions on a reference split, score held-out subjects as
standardized deviations from the predicted norms, then audit those deviations
for residual group structure (group-difference tests and attribute
predictability).

Importing the package loads none of its submodules, and so not numpy: each
public name below is imported from its submodule on first use (PEP 562), so
that a command line run loads only what its command calls. `from normgauge
import X` and `normgauge.X` work for every name in __all__, the submodules
that define them included.
"""

from __future__ import annotations

import importlib
from typing import Any

from ._version import __version__

# each public name, by the submodule that defines it
_SOURCES = {
    "audit": (
        "GroupSummary",
        "ParityReport",
        "WelchResult",
        "bh_fdr",
        "group_difference",
        "group_parity",
        "group_summary",
        "significant_fraction",
        "t_two_sided_p",
    ),
    "blr": (
        "DeviationMatrix",
        "Hyperparams",
        "NormativeModel",
        "RegionFitMetrics",
        "RegionModel",
        "RegionPrediction",
        "deviations",
        "explained_variance",
        "fit_metrics",
        "fit_normative",
        "fit_region",
        "group_fit",
        "load_bundle",
        "predict_region",
        "region_metrics",
        "save_bundle",
    ),
    "cohort": (
        "Cohort",
        "CohortSchema",
        "SplitSpec",
        "demographics_summary",
        "load_cohort",
        "qc_filter",
        "save_cohort",
        "stratified_split",
    ),
    "classify": (
        "ClassifierConfig",
        "ClassifierReport",
        "OvrLogisticModel",
        "cross_validate",
        "decision_scores",
        "evaluate_holdout",
        "roc_points",
        "stratified_folds",
    ),
    "design": (
        "BasisConfig",
        "DesignMatrix",
        "DesignSchema",
        "ModelConfig",
        "apply_design",
        "fit_design",
        "spline_basis",
    ),
    "errors": ("InputError", "NormgaugeError", "NumericalError", "SchemaError"),
    "serialize": (),
    "synth": ("SynthSpec", "generate"),
    "warp": ("WarpParams", "warp_forward", "warp_inverse"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

# the public names and the submodules that define them, as the package exported
# them when it imported every submodule
__all__ = sorted([*_MODULE_OF, *_SOURCES])


def __getattr__(name: str) -> Any:
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SOURCES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return list(__all__)
