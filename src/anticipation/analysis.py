"""Uncertainty-quality analyses on MC prediction summaries.

Four pure analyses of the dict :func:`pooled` builds from a list of
summaries and their targets, each restricted to *anticipating predictions*
(frames where the model claims an instrument is coming):

* correlation between absolute regression error and epistemic variance,
* pMAE as a function of the retained fraction when the most uncertain
  predictions are filtered out,
* uncertainty of true-positive vs false-positive anticipating class
  predictions,
* uncertainty conditioned on whether a trigger instrument is currently
  visible.

Regression-valued quantities use the regression-side anticipating mask
(mean prediction inside (0.1 h, 0.9 h)); class-valued quantities use the
class-side mask (argmax = anticipating).  Medians follow the lower-median
convention for even group sizes.  Everything is deterministic in its
inputs; ties in the filtering sort keep the stable pooled frame order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .inference import anticipating_mask
from .labels import ANTICIPATING, PRESENT


def lower_median(values: np.ndarray) -> float:
    """The lower of the two middle order statistics for even counts."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return float("nan")
    return float(values[(values.size - 1) // 2])


def _as_list(x) -> list:
    return list(x) if isinstance(x, (list, tuple)) else [x]


def pooled(summaries, targets) -> dict:
    """Per-sequence arrays and anticipating masks, concatenated along the frame axis."""
    summaries = _as_list(summaries)
    targets = _as_list(targets)
    if len(summaries) != len(targets):
        raise ValueError("summary and target lists differ in length")
    for s, t in zip(summaries, targets):
        if s.n_frames != t.remaining.shape[0] or s.n_instruments != t.remaining.shape[1]:
            raise ValueError("summary and targets have mismatched shapes")
    reg_masks, cls_masks = zip(*(anticipating_mask(s) for s in summaries))
    epi = np.concatenate([s.class_epistemic_per_class for s in summaries])
    alea = np.concatenate([s.class_aleatoric_per_class for s in summaries])
    return {
        "horizon": summaries[0].horizon,
        "reg_mean": np.concatenate([s.reg_mean for s in summaries]),
        "reg_var": np.concatenate([s.reg_epistemic_var for s in summaries]),
        "cls_epi": epi.mean(axis=2),
        "cls_alea": alea.mean(axis=2),
        "cls_epi_ant": epi[:, :, ANTICIPATING],
        "cls_alea_ant": alea[:, :, ANTICIPATING],
        "remaining": np.concatenate([t.remaining for t in targets]),
        "classes": np.concatenate([t.classes for t in targets]),
        "reg_mask": np.concatenate(reg_masks),
        "cls_mask": np.concatenate(cls_masks),
        "lengths": [t.remaining.shape[0] for t in targets],
    }


# ---------------------------------------------------------------------------
# Error-uncertainty correlation
# ---------------------------------------------------------------------------

@dataclass
class PccResult:
    value: float          # NaN when undefined
    count: int
    reason: Optional[str] = None


def error_uncertainty_pcc(pool: dict, use_std: bool = False) -> list[PccResult]:
    """Pearson correlation of |error| vs epistemic variance per instrument.

    Restricted to regression anticipating predictions.  ``use_std``
    correlates against the standard deviation instead of the variance.
    Undefined (absent) when fewer than two points are selected or either
    coordinate is constant.
    """
    results = []
    for j in range(pool["remaining"].shape[1]):
        sel = pool["reg_mask"][:, j]
        count = int(sel.sum())
        if count < 2:
            results.append(PccResult(float("nan"), count, "fewer than 2 anticipating predictions"))
            continue
        err = np.abs(pool["reg_mean"][sel, j] - pool["remaining"][sel, j])
        unc = pool["reg_var"][sel, j]
        if use_std:
            unc = np.sqrt(unc)
        if np.ptp(err) == 0.0 or np.ptp(unc) == 0.0:
            results.append(PccResult(float("nan"), count, "constant series"))
            continue
        ec = err - err.mean()
        uc = unc - unc.mean()
        value = float((ec * uc).sum() / np.sqrt((ec * ec).sum() * (uc * uc).sum()))
        results.append(PccResult(value, count))
    return results


# ---------------------------------------------------------------------------
# Percentile filtering
# ---------------------------------------------------------------------------

@dataclass
class FilterCurve:
    percentiles: np.ndarray
    pmae: np.ndarray      # NaN where nothing retained
    counts: np.ndarray

    def at(self, percentile: float) -> float:
        idx = int(np.flatnonzero(self.percentiles == percentile)[0])
        return float(self.pmae[idx])


DEFAULT_PERCENTILES = tuple(range(10, 101, 10))


def filter_by_uncertainty(
    pool: dict,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> list[FilterCurve]:
    """pMAE over the q% least (epistemically) uncertain anticipating predictions.

    At q = 100 the curve reproduces the unfiltered pMAE exactly.  The sort
    is stable, so equal uncertainties keep pooled frame order.
    """
    grid = np.asarray(sorted(percentiles), dtype=np.float64)
    curves = []
    for j in range(pool["remaining"].shape[1]):
        sel = np.flatnonzero(pool["reg_mask"][:, j])
        errors = np.abs(pool["reg_mean"][sel, j] - pool["remaining"][sel, j])
        order = np.argsort(pool["reg_var"][sel, j], kind="stable")
        ranked_errors = errors[order]
        values = np.full(grid.size, np.nan)
        counts = np.zeros(grid.size, dtype=np.int64)
        for qi, q in enumerate(grid):
            keep = int(np.floor(q * sel.size / 100.0 + 1e-9))
            counts[qi] = keep
            if keep == sel.size and keep > 0:
                # full retention: sum in frame order so the unfiltered pMAE
                # is reproduced bit for bit
                values[qi] = float(errors.mean())
            elif keep > 0:
                values[qi] = float(ranked_errors[:keep].mean())
        curves.append(FilterCurve(percentiles=grid, pmae=values, counts=counts))
    return curves


# ---------------------------------------------------------------------------
# TP/FP uncertainty for the anticipating class
# ---------------------------------------------------------------------------

@dataclass
class GroupStats:
    count: int
    median_epistemic: float
    median_aleatoric: float


@dataclass
class TpFpResult:
    tp: GroupStats
    fp: GroupStats


def tp_fp_uncertainty(pool: dict) -> list[TpFpResult]:
    """Median anticipating-class uncertainties of TP vs FP predictions.

    A prediction counts as TP when the true class is anticipating, FP
    otherwise; uncertainties are the per-class values of the anticipating
    class.  Empty groups report NaN medians with count 0.
    """
    results = []
    for j in range(pool["remaining"].shape[1]):
        sel = pool["cls_mask"][:, j]
        truth = pool["classes"][:, j] == ANTICIPATING
        groups = []
        for mask in (sel & truth, sel & ~truth):
            groups.append(GroupStats(
                count=int(mask.sum()),
                median_epistemic=lower_median(pool["cls_epi_ant"][mask, j]),
                median_aleatoric=lower_median(pool["cls_alea_ant"][mask, j]),
            ))
        results.append(TpFpResult(tp=groups[0], fp=groups[1]))
    return results


# ---------------------------------------------------------------------------
# Trigger-event conditioning
# ---------------------------------------------------------------------------

@dataclass
class TriggerCondition:
    visible: bool
    reg_count: int
    cls_count: int
    median_reg_epistemic: float
    median_cls_epistemic: float
    median_cls_aleatoric: float
    cls_aleatoric: np.ndarray = field(repr=False, default=None)


@dataclass
class TriggerResult:
    target: int
    trigger: int
    visible: TriggerCondition
    hidden: TriggerCondition


def _seen_within(track: np.ndarray, memory_frames: int) -> np.ndarray:
    """True where ``track`` was true in this frame or one of the ``memory_frames`` before."""
    seen = track.copy()
    for shift in range(1, min(memory_frames, track.size - 1) + 1):
        seen[shift:] |= track[:-shift]
    return seen


def trigger_conditional_uncertainty(
    pool: dict,
    target: int,
    trigger: int,
    memory_frames: int = 0,
) -> TriggerResult:
    """Uncertainty of anticipating predictions for ``target`` split by
    whether ``trigger`` is currently visible.

    The trigger is visible in the frames the pooled targets label it
    ``PRESENT``, i.e. where it is annotated present.  ``memory_frames``
    widens the visible condition to "seen within the last m frames" of the
    same sequence; the window never reaches across sequences.
    """
    if target == trigger:
        raise ValueError("target and trigger must be different instruments")
    k = pool["remaining"].shape[1]
    for name, index in (("target", target), ("trigger", trigger)):
        if not 0 <= index < k:
            raise ValueError(f"{name} {index} out of range for {k} instruments")
    tracks = np.split(pool["classes"][:, trigger] == PRESENT, np.cumsum(pool["lengths"][:-1]))
    visible = np.concatenate([_seen_within(track, memory_frames) for track in tracks])

    conditions = []
    for cond_visible in (True, False):
        cond = visible if cond_visible else ~visible
        reg_sel = pool["reg_mask"][:, target] & cond
        cls_sel = pool["cls_mask"][:, target] & cond
        conditions.append(TriggerCondition(
            visible=cond_visible,
            reg_count=int(reg_sel.sum()),
            cls_count=int(cls_sel.sum()),
            median_reg_epistemic=lower_median(pool["reg_var"][reg_sel, target]),
            median_cls_epistemic=lower_median(pool["cls_epi"][cls_sel, target]),
            median_cls_aleatoric=lower_median(pool["cls_alea"][cls_sel, target]),
            cls_aleatoric=pool["cls_alea"][cls_sel, target],
        ))
    return TriggerResult(target=target, trigger=trigger,
                         visible=conditions[0], hidden=conditions[1])
