"""Histogram baselines: occurrence statistics over normalized progress.

For each instrument, training presence frames are binned by their relative
position in the procedure.  Thresholding the histogram gives an estimated
presence timeline over bins; expanding that timeline to a video duration
and applying the remaining-time rule yields per-frame predictions.

``mean`` mode (MeanHist) expands to the mean training duration and pads
with the horizon beyond it; ``oracle`` mode (OracleHist) expands to the
true duration of the evaluated video, which is only available offline.
Thresholds are chosen per instrument by exhaustive search over the distinct
bin counts (plus a sentinel that marks nothing present), minimizing
training-set wMAE; ties go to the larger threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import labels, metrics
from .workflow import ProcedureSequence

MODES = ("mean", "oracle")


@dataclass
class BaselineModel:
    bins: int
    mode: str
    horizon: float
    fps: float
    mean_duration: int
    hist: np.ndarray        # (K, B) occurrence counts
    thresholds: np.ndarray  # (K,) floats from the searched candidate set
    names: Optional[tuple[str, ...]] = None

    @property
    def n_instruments(self) -> int:
        return self.hist.shape[0]

    def bin_presence(self) -> np.ndarray:
        """Estimated presence over bins: count strictly above threshold."""
        return self.hist > self.thresholds[:, None]


def _bin_index(n_frames: int, bins: int) -> np.ndarray:
    """Bin of each frame of an n-frame video (exact integer arithmetic)."""
    return (np.arange(n_frames) * bins) // n_frames


def occurrence_histogram(train: Sequence[ProcedureSequence], bins: int) -> np.ndarray:
    """Present-frame counts per (instrument, progress bin) over a train set."""
    k = train[0].n_instruments
    hist = np.zeros((k, bins), dtype=np.int64)
    for seq in train:
        idx = _bin_index(seq.n_frames, bins)
        for j in range(k):
            np.add.at(hist[j], idx[seq.presence[:, j]], 1)
    return hist


def expand_to_frames(bin_presence: np.ndarray, n_frames: int) -> np.ndarray:
    """Piecewise-constant expansion of a bin timeline to per-frame flags."""
    return bin_presence[_bin_index(n_frames, bin_presence.shape[0])]


def _remaining_track(bin_presence: np.ndarray, expand_len: int, horizon: float,
                     fps: float) -> np.ndarray:
    """Remaining times of one instrument's estimated timeline over ``expand_len`` frames."""
    return labels.remaining_time(expand_to_frames(bin_presence, expand_len), fps, horizon)


def _fit_length(track: np.ndarray, out_len: int, horizon: float) -> np.ndarray:
    """``track`` cut to ``out_len`` frames, or padded with the horizon beyond its end."""
    if out_len <= track.shape[0]:
        return track[:out_len]
    return np.concatenate([track, np.full(out_len - track.shape[0], horizon)])


def predict_baseline(model: BaselineModel, duration: int) -> np.ndarray:
    """Per-frame, per-instrument predictions in ``[0, horizon]`` minutes.

    ``duration`` is the frame count of the evaluated video.  Oracle mode
    expands the estimated timeline to it; mean mode expands to the stored
    mean duration and truncates or pads (with the horizon) to ``duration``.
    """
    out_len = int(duration)
    expand_len = out_len if model.mode == "oracle" else model.mean_duration
    bin_presence = model.bin_presence()
    out = np.empty((out_len, model.n_instruments))
    for j in range(model.n_instruments):
        track = _remaining_track(bin_presence[j], expand_len, model.horizon, model.fps)
        out[:, j] = _fit_length(track, out_len, model.horizon)
    return out


def _candidate_thresholds(counts: np.ndarray) -> np.ndarray:
    """Distinct bin counts plus a sentinel above the maximum.

    wMAE as a function of the threshold only changes at these values, so an
    exhaustive scan over them is an exact search.
    """
    distinct = np.unique(counts)
    return np.concatenate([distinct, [distinct[-1] + 1]]).astype(np.float64)


def _score_threshold(
    counts: np.ndarray,
    threshold: float,
    train_targets: list[np.ndarray],
    expand_lens: list[int],
    horizon: float,
    fps: float,
) -> float:
    """Pooled train wMAE of the presence timeline induced by one threshold."""
    bin_presence = counts > threshold
    # The track depends on the expansion length alone, which mean mode shares
    # across videos: compute it once per distinct length.
    tracks = {n: _remaining_track(bin_presence, n, horizon, fps) for n in set(expand_lens)}
    preds = [_fit_length(tracks[n], r_true.shape[0], horizon)
             for r_true, n in zip(train_targets, expand_lens)]
    value = metrics.wmae(
        np.concatenate(preds)[:, None],
        np.concatenate(train_targets)[:, None],
        horizon,
    )[0]
    # An instrument absent from the train labels has no scored frames at
    # all; every threshold is equally useless then.
    return float(value) if not np.isnan(value) else 0.0


def fit_baseline(
    train: Sequence[ProcedureSequence],
    horizon: float,
    bins: int = 1000,
    mode: str = "mean",
) -> BaselineModel:
    """Fit the histogram and per-instrument thresholds on a train set."""
    if not train:
        raise ValueError("train set must be nonempty")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    fps = train[0].fps
    k = train[0].n_instruments
    hist = occurrence_histogram(train, bins)
    mean_duration = int(round(np.mean([seq.n_frames for seq in train])))

    targets = [labels.compute_targets(seq, horizon) for seq in train]
    if mode == "oracle":
        expand_lens = [seq.n_frames for seq in train]
    else:
        expand_lens = [mean_duration] * len(train)

    thresholds = np.empty(k)
    for j in range(k):
        per_video = [t.remaining[:, j] for t in targets]
        best_val, best_thr = np.inf, None
        for cand in _candidate_thresholds(hist[j]):
            val = _score_threshold(hist[j], cand, per_video, expand_lens, horizon, fps)
            if val <= best_val:  # ties break toward the larger threshold
                best_val, best_thr = val, cand
        thresholds[j] = best_thr

    return BaselineModel(
        bins=bins, mode=mode, horizon=float(horizon), fps=fps,
        mean_duration=mean_duration, hist=hist, thresholds=thresholds,
        names=train[0].names,
    )


def save_baseline(model: BaselineModel, path: str) -> None:
    payload = {
        "bins": model.bins,
        "mode": model.mode,
        "horizon": model.horizon,
        "fps": model.fps,
        "mean_duration": model.mean_duration,
        "thresholds": model.thresholds.tolist(),
        "hist": model.hist.tolist(),
        "names": list(model.names) if model.names else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> BaselineModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return BaselineModel(
        bins=payload["bins"],
        mode=payload["mode"],
        horizon=payload["horizon"],
        fps=payload["fps"],
        mean_duration=payload["mean_duration"],
        hist=np.array(payload["hist"], dtype=np.int64),
        thresholds=np.array(payload["thresholds"], dtype=np.float64),
        names=tuple(payload["names"]) if payload.get("names") else None,
    )
