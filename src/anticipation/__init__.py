"""Uncertainty-aware anticipation of sparse instrument usage.

The package turns long procedural timelines (synthetic or ingested from
annotation files) into remaining-time regression targets, fits histogram
baselines, trains a recurrent predictor with per-sequence dropout masks,
aggregates Monte-Carlo dropout samples into predictive means and
uncertainties, and evaluates everything with horizon-bounded error metrics
and uncertainty analyses.

The package root exports what the README quick start and the demos use;
import anything else from its module (``anticipation.workflow``, ...).
"""

from .artifacts import load_baseline, load_checkpoint, save_baseline, save_params
from .baselines import fit_baseline, predict_baseline
from .inference import anticipating_mask, mc_predict
from .labels import compute_targets
from .metrics import evaluate_predictions, wmae
from .network import NetworkConfig, init_params, train
from .workflow import (
    FeatureSpec,
    PhaseSpec,
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
