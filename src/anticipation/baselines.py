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
candidate would score them.  That call finds horizon-free gaps, so one fit
serves several horizons: only the clip and the scoring run per horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

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


def _fit_length(track: np.ndarray, out_len: int, pad: float) -> np.ndarray:
    """``track`` cut to ``out_len`` frames, or padded with ``pad`` beyond its end."""
    if out_len <= track.shape[0]:
        return track[:out_len]
    return np.concatenate([track, np.full((out_len - track.shape[0],) + track.shape[1:], pad)])


def predict_baseline(model: BaselineModel, duration: Union[int, Sequence[int]]
                     ) -> Union[np.ndarray, list[np.ndarray]]:
    """Per-frame, per-instrument predictions in ``[0, horizon]`` minutes.

    ``duration`` is the frame count of the evaluated video.  Oracle mode
    expands the estimated timeline to it; mean mode expands to the stored
    mean duration and truncates or pads (with the horizon) to ``duration``.
    A sequence of durations gives a list, one per video, from one expansion
    in mean mode and one remaining-time call over every duration in oracle mode.
    """
    out_lens = [int(d) for d in np.atleast_1d(duration)]
    expand_lens = sorted(set(out_lens)) if model.mode == "oracle" else [model.mean_duration]
    tracks = dict(zip(expand_lens, _remaining_tracks(model.bin_presence().T, expand_lens,
                                                     model.horizon, model.fps)))
    preds = [_fit_length(tracks[n if model.mode == "oracle" else model.mean_duration], n,
                         model.horizon) for n in out_lens]
    return preds if np.ndim(duration) else preds[0]


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
    horizon: Union[float, Sequence[float]],
    fps: float,
) -> np.ndarray:
    """Pooled train wMAE of the presence timeline each threshold in ``cands`` induces:
    (C,) scores at one ``horizon``, or (H, C) at H of them, against (n, H) targets."""
    horizons = np.atleast_1d(horizon).tolist()
    out_lens = [r.shape[0] for r in train_targets]
    spans = list(zip(np.cumsum(out_lens) - out_lens, out_lens, expand_lens))
    target = np.concatenate(train_targets).reshape(sum(out_lens), len(horizons)).T
    scores = []
    # Candidates in chunks of at most SCORE_BLOCK candidate-frames.
    step = max(1, SCORE_BLOCK // target.shape[1])
    # The gaps depend on the expansion length alone, which mean mode shares across
    # videos, and not on the horizon: once per distinct length, clipped per horizon.
    lens = sorted(set(expand_lens))
    for first in range(0, cands.shape[0], step):
        bin_presence = counts[:, None] > cands[first:first + step]  # (B, C)
        gaps = dict(zip(lens, _remaining_tracks(bin_presence, lens, np.inf, fps)))
        preds = np.empty((bin_presence.shape[1], target.shape[1]))
        chunk = []
        for m, h in enumerate(horizons):
            tracks = {n: np.minimum(gap, h) for n, gap in gaps.items()}
            for start, out_len, n in spans:
                preds[:, start:start + out_len] = _fit_length(tracks[n], out_len, h).T
            chunk.append(metrics.wmae_rows(preds, target[m], h))
        scores.append(chunk)
    # An instrument present in every train frame has no scored frames at
    # all; every threshold is equally useless then.
    scores = np.nan_to_num(np.concatenate(scores, axis=1), nan=0.0)
    return scores if np.ndim(horizon) else scores[0]


def fit_baseline(
    train: Sequence[ProcedureSequence],
    horizon: Union[float, Sequence[float]],
    bins: int = 1000,
    mode: str = "mean",
    *,
    targets: Optional[Sequence] = None,
) -> Union[BaselineModel, list[BaselineModel]]:
    """Fit the histogram and per-instrument thresholds on a train set.

    ``horizon`` may be a sequence of horizons: then a list of models comes
    back, one per horizon, from one histogram (their shared ``hist``), one
    candidate set and one gap pass per candidate chunk.  ``targets`` are
    ``labels.compute_targets(seq, horizon)`` of each train sequence, for a
    caller that fits several modes from one set; by default computed here.
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

    several, horizons = np.ndim(horizon) > 0, np.atleast_1d(horizon).tolist()
    if targets is None:
        targets = [labels.compute_targets(seq, horizon) for seq in train]
    per_seq = [ts if several else [ts] for ts in targets]
    if len(per_seq) != len(train) or any(
            [t.horizon for t in ts] != horizons or any(t.n_frames != seq.n_frames for t in ts)
            for ts, seq in zip(per_seq, train)):
        raise ValueError(f"targets must be those of the {len(train)} train sequences "
                         f"at horizon {', '.join(f'{h:g}' for h in horizons)}")
    # (n, K, H): every horizon's targets of a sequence, side by side.
    remaining = [np.stack([t.remaining for t in ts], axis=-1) for ts in per_seq]
    if mode == "oracle":
        expand_lens = [seq.n_frames for seq in train]
    else:
        expand_lens = [mean_duration] * len(train)

    thresholds = np.empty((len(horizons), k))
    for j in range(k):
        cands = _candidate_thresholds(hist[j])
        values = _candidate_scores(hist[j], cands, [r[:, j] for r in remaining],
                                   expand_lens, horizons, fps)
        # The last of the equal minima: ties break toward the larger threshold.
        thresholds[:, j] = cands[cands.shape[0] - 1 - np.argmin(values[:, ::-1], axis=1)]

    models = [BaselineModel(bins=bins, mode=mode, horizon=float(h), fps=fps,
                            mean_duration=mean_duration, hist=hist, thresholds=row,
                            names=train[0].names)
              for h, row in zip(horizons, thresholds)]
    return models if several else models[0]
