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
training-set wMAE; ties go to the larger threshold.  All candidates are
scored in one pass, as the columns of one remaining-time call over the
concatenated expansions to every distinct length, bit for bit as a pass per
candidate would score them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import labels, metrics
from .workflow import ProcedureSequence

MODES = ("mean", "oracle")

# Candidate-frames the threshold search scores at once: bounds its (C, n)
# temporaries to a few MB whatever the size of the train set.
SCORE_BLOCK = 1 << 18


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


def _remaining_tracks(bin_presence: np.ndarray, expand_lens: Sequence[int], horizon: float,
                      fps: float) -> list[np.ndarray]:
    """Remaining times of (B, ...) estimated timelines expanded to each of
    ``expand_lens`` frames, from one remaining-time call over them all."""
    ends = np.cumsum(expand_lens)
    presence = np.concatenate([expand_to_frames(bin_presence, n) for n in expand_lens])
    track = labels.remaining_time(presence, fps, horizon, ends=np.repeat(ends, expand_lens))
    return np.split(track, ends[:-1])


def _fit_length(track: np.ndarray, out_len: int, horizon: float) -> np.ndarray:
    """``track`` cut to ``out_len`` frames, or padded with the horizon beyond its end."""
    if out_len <= track.shape[0]:
        return track[:out_len]
    return np.concatenate([track, np.full((out_len - track.shape[0],) + track.shape[1:], horizon)])


def predict_baseline(model: BaselineModel, duration: int) -> np.ndarray:
    """Per-frame, per-instrument predictions in ``[0, horizon]`` minutes.

    ``duration`` is the frame count of the evaluated video.  Oracle mode
    expands the estimated timeline to it; mean mode expands to the stored
    mean duration and truncates or pads (with the horizon) to ``duration``.
    """
    out_len = int(duration)
    expand_len = out_len if model.mode == "oracle" else model.mean_duration
    track, = _remaining_tracks(model.bin_presence().T, [expand_len], model.horizon, model.fps)
    return _fit_length(track, out_len, model.horizon)


def _candidate_thresholds(counts: np.ndarray) -> np.ndarray:
    """Distinct bin counts plus a sentinel above the maximum.

    wMAE as a function of the threshold only changes at these values, so an
    exhaustive scan over them is an exact search.
    """
    ordered = np.sort(counts, axis=None)  # np.unique without its first-call numpy.ma import
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return np.concatenate([distinct, [distinct[-1] + 1]]).astype(np.float64)


def _candidate_scores(
    counts: np.ndarray,
    cands: np.ndarray,
    train_targets: list[np.ndarray],
    expand_lens: list[int],
    horizon: float,
    fps: float,
) -> np.ndarray:
    """Pooled train wMAE of the presence timeline each threshold in ``cands`` induces."""
    target = np.concatenate(train_targets)
    scores = []
    # Candidates in chunks of at most SCORE_BLOCK candidate-frames.
    step = max(1, SCORE_BLOCK // target.shape[0])
    for first in range(0, cands.shape[0], step):
        bin_presence = counts[:, None] > cands[first:first + step]  # (B, C)
        # The tracks depend on the expansion length alone, which mean mode
        # shares across videos: compute them once per distinct length.
        lens = sorted(set(expand_lens))
        tracks = dict(zip(lens, _remaining_tracks(bin_presence, lens, horizon, fps)))
        preds = np.empty((bin_presence.shape[1], target.shape[0]))
        start = 0
        for r_true, n in zip(train_targets, expand_lens):
            stop = start + r_true.shape[0]
            preds[:, start:stop] = _fit_length(tracks[n], r_true.shape[0], horizon).T
            start = stop
        scores.append(metrics.wmae_rows(preds, target, horizon))
    # An instrument present in every train frame has no scored frames at
    # all; every threshold is equally useless then.
    return np.nan_to_num(np.concatenate(scores), nan=0.0)


def fit_baseline(
    train: Sequence[ProcedureSequence],
    horizon: float,
    bins: int = 1000,
    mode: str = "mean",
    *,
    targets: Optional[Sequence[labels.AnticipationTargets]] = None,
) -> BaselineModel:
    """Fit the histogram and per-instrument thresholds on a train set.

    ``targets`` are the train sequences' targets at ``horizon``, for a caller
    that fits several modes from one set; by default they are computed here.
    """
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

    if targets is None:
        targets = [labels.compute_targets(seq, horizon) for seq in train]
    elif len(targets) != len(train) or any(t.horizon != horizon or t.n_frames != seq.n_frames
                                           for t, seq in zip(targets, train)):
        raise ValueError(f"targets must be those of the {len(train)} train sequences "
                         f"at horizon {horizon:g}")
    if mode == "oracle":
        expand_lens = [seq.n_frames for seq in train]
    else:
        expand_lens = [mean_duration] * len(train)

    thresholds = np.empty(k)
    for j in range(k):
        cands = _candidate_thresholds(hist[j])
        values = _candidate_scores(hist[j], cands, [t.remaining[:, j] for t in targets],
                                   expand_lens, horizon, fps)
        # The last of the equal minima: ties break toward the larger threshold.
        thresholds[j] = cands[cands.shape[0] - 1 - np.argmin(values[::-1])]

    return BaselineModel(
        bins=bins, mode=mode, horizon=float(horizon), fps=fps,
        mean_duration=mean_duration, hist=hist, thresholds=thresholds,
        names=train[0].names,
    )
