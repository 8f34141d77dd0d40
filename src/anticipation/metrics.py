"""Evaluation metrics for anticipation predictions.

Two frame-wise mean absolute errors, both in minutes and bounded by the
horizon:

* ``wMAE`` averages the MAE over anticipating frames (0 < r < h) and the
  MAE over background frames (r = h), balancing the heavy class imbalance.
  Frames where the instrument is present (r = 0) are excluded.
* ``pMAE`` is a precision-style error: the MAE over the frames where the
  *prediction* lies inside (0.1 h, 0.9 h), i.e. where the model claims to
  be anticipating.  If no prediction qualifies the value is absent (NaN),
  never zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


def _as_pooled(arrays) -> np.ndarray:
    """Stack one (n, K) array or a list of them into a single (N, K) array."""
    if isinstance(arrays, np.ndarray):
        return arrays if arrays.ndim == 2 else arrays[:, None]
    return np.concatenate([a if a.ndim == 2 else a[:, None] for a in arrays], axis=0)


def anticipating_selection(predictions: np.ndarray, horizon: float) -> np.ndarray:
    """Predictions strictly inside (0.1 h, 0.9 h): the frames pMAE scores."""
    return (predictions > 0.1 * horizon) & (predictions < 0.9 * horizon)


def wmae(predictions, remaining, horizon: float) -> np.ndarray:
    """Per-instrument wMAE in minutes; NaN where both frame groups are empty.

    ``predictions`` and ``remaining`` are (n, K) arrays in minutes (or lists
    of such arrays, pooled over sequences).  Predictions are clamped to
    ``[0, horizon]`` before scoring.
    """
    pred = np.clip(_as_pooled(predictions), 0.0, horizon)
    r = _as_pooled(remaining)
    if pred.shape != r.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {r.shape}")
    return np.array([wmae_rows(pred[None, :, j], r[:, j], horizon)[0] for j in range(r.shape[1])])


def wmae_rows(predictions: np.ndarray, remaining: np.ndarray, horizon: float) -> np.ndarray:
    """wMAE of each row of (C, n) ``predictions`` against one (n,) target column.

    NaN where both frame groups are empty.  Predictions are scored as given,
    not clamped.
    """
    err = np.abs(predictions - remaining)
    groups = ((remaining > 0.0) & (remaining < horizon), remaining == horizon)
    # np.compress keeps each row contiguous, so a row's mean sums in the same
    # pairwise order as a 1-D mean; ``err[:, g]`` is column-major and does not.
    parts = [np.compress(g, err, axis=1).mean(axis=1) for g in groups if g.any()]
    return np.mean(parts, axis=0) if parts else np.full(err.shape[0], np.nan)


def pmae(predictions, remaining, horizon: float) -> np.ndarray:
    """Per-instrument pMAE in minutes; NaN where no prediction is selected."""
    pred = np.clip(_as_pooled(predictions), 0.0, horizon)
    r = _as_pooled(remaining)
    if pred.shape != r.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {r.shape}")
    selected = anticipating_selection(pred, horizon)
    k = r.shape[1]
    out = np.full(k, np.nan)
    for j in range(k):
        sel = selected[:, j]
        if sel.any():
            out[j] = float(np.abs(pred[sel, j] - r[sel, j]).mean())
    return out


def nanmean_with_count(values: np.ndarray) -> tuple[float, int]:
    """Mean over non-absent entries and how many participated."""
    present = ~np.isnan(values)
    count = int(present.sum())
    return (float(values[present].mean()) if count else float("nan")), count


@dataclass
class MetricsReport:
    """Per-instrument and mean-over-instruments wMAE/pMAE for one method."""

    horizon: float
    names: tuple[str, ...]
    wmae: np.ndarray
    pmae: np.ndarray
    n_anticipating: np.ndarray
    n_background: np.ndarray
    n_selected: np.ndarray
    mean_wmae: float = field(init=False)
    mean_pmae: float = field(init=False)
    wmae_count: int = field(init=False)
    pmae_count: int = field(init=False)

    def __post_init__(self):
        self.mean_wmae, self.wmae_count = nanmean_with_count(self.wmae)
        self.mean_pmae, self.pmae_count = nanmean_with_count(self.pmae)

    def to_dict(self) -> dict:
        def cell(v):
            return None if np.isnan(v) else round(float(v), 6)

        return {
            "horizon": self.horizon,
            "per_instrument": {
                name: {
                    "wmae": cell(self.wmae[j]),
                    "pmae": cell(self.pmae[j]),
                    "n_anticipating": int(self.n_anticipating[j]),
                    "n_background": int(self.n_background[j]),
                    "n_selected": int(self.n_selected[j]),
                }
                for j, name in enumerate(self.names)
            },
            "mean": {
                "wmae": cell(self.mean_wmae),
                "pmae": cell(self.mean_pmae),
                "wmae_instruments": self.wmae_count,
                "pmae_instruments": self.pmae_count,
            },
        }


def evaluate_predictions(
    predictions,
    remaining,
    horizon: float,
    names: Optional[Sequence[str]] = None,
) -> MetricsReport:
    """Pool sequences and build a :class:`MetricsReport`."""
    pred = np.clip(_as_pooled(predictions), 0.0, horizon)
    r = _as_pooled(remaining)
    k = r.shape[1]
    if names is None:
        names = tuple(f"inst_{j}" for j in range(k))
    anticipating = (r > 0.0) & (r < horizon)
    background = r == horizon
    selected = anticipating_selection(pred, horizon)
    return MetricsReport(
        horizon=float(horizon),
        names=tuple(names),
        wmae=wmae(pred, r, horizon),
        pmae=pmae(pred, r, horizon),
        n_anticipating=anticipating.sum(axis=0),
        n_background=background.sum(axis=0),
        n_selected=selected.sum(axis=0),
    )
