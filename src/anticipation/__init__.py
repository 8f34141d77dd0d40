"""Uncertainty-aware anticipation of sparse instrument usage.

The package turns long procedural timelines (synthetic or ingested from
annotation files) into remaining-time regression targets, fits histogram
baselines, trains a recurrent predictor with per-sequence dropout masks,
aggregates Monte-Carlo dropout samples into predictive means and
uncertainties, and evaluates everything with horizon-bounded error metrics
and uncertainty analyses.
"""

from .analysis import (
    error_uncertainty_pcc,
    filter_by_uncertainty,
    lower_median,
    pooled,
    tp_fp_uncertainty,
    trigger_conditional_uncertainty,
)
from .baselines import BaselineModel, fit_baseline, load_baseline, predict_baseline, save_baseline
from .inference import PredictiveSummary, aggregate_samples, anticipating_mask, mc_predict
from .labels import (
    ANTICIPATING,
    BACKGROUND,
    CLASS_NAMES,
    PRESENT,
    AnticipationTargets,
    compute_targets,
)
from .metrics import MetricsReport, evaluate_predictions, pmae, wmae
from .network import (
    Adam,
    DropoutMasks,
    NetworkConfig,
    RawOutputs,
    compute_loss,
    forward,
    init_params,
    load_params,
    sample_masks,
    save_params,
    stack_masks,
    train,
)
from .workflow import (
    FeatureSpec,
    PhaseSpec,
    ProcedureSequence,
    SimConfig,
    TriggerRule,
    UsageRule,
    attach_features,
    generate_dataset,
    load_annotations,
    load_features,
    save_annotations,
    save_features,
)

__version__ = "0.1.0"
