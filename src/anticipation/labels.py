"""Ground-truth targets for the anticipation task.

For every frame and instrument we derive the remaining time (in minutes,
truncated at the horizon ``h``) until the instrument next appears, plus a
three-way class label used as a regularizing objective:

* ``ANTICIPATING`` -- the instrument appears within the next ``h`` minutes,
* ``PRESENT``      -- the instrument is visible in the current frame,
* ``BACKGROUND``   -- neither of the above (remaining time saturated at ``h``).

The class order matters: it is also the tie-break order used when turning
predicted class probabilities back into a label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .workflow import ProcedureSequence

ANTICIPATING = 0
PRESENT = 1
BACKGROUND = 2

CLASS_NAMES = ("anticipating", "present", "background")


@dataclass(frozen=True)
class AnticipationTargets:
    """Per-frame, per-instrument regression and classification targets.

    ``remaining`` is in minutes and lies in ``[0, horizon]``; ``classes``
    holds one of :data:`ANTICIPATING`, :data:`PRESENT`, :data:`BACKGROUND`.
    """

    horizon: float
    fps: float
    remaining: np.ndarray  # (n, K) float64, minutes
    classes: np.ndarray    # (n, K) int8

    @property
    def n_frames(self) -> int:
        return self.remaining.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.remaining.shape[1]


def remaining_time(presence: np.ndarray, fps: float, horizon: float,
                   ends: Optional[np.ndarray] = None) -> np.ndarray:
    """Remaining minutes until the next occurrence, truncated at ``horizon``.

    ``presence`` is a boolean array of shape (n,) or (n, K).  A frame where
    the instrument is present has remaining time 0; frames after the last
    occurrence saturate at ``horizon``.  The gap to the next occurrence is
    counted in frames and converted with ``fps * 60`` frames per minute.

    ``ends`` (n,), if given, holds for each frame the end of the segment it
    belongs to, so that one call scores a concatenation of tracks, each as
    a call of its own would.  By default the whole array is one segment.
    """
    presence = np.asarray(presence, dtype=bool)
    n = presence.shape[0]
    shape = (n,) + (1,) * (presence.ndim - 1)
    frames = np.arange(n).reshape(shape)
    end = n if ends is None else np.asarray(ends).reshape(shape)
    # Frame of the next occurrence at or after each frame; n where none
    # follows.  One at or beyond the frame's segment end is not in its segment.
    nxt = np.minimum.accumulate(np.where(presence, frames, n)[::-1], axis=0)[::-1]
    gap = np.where(nxt < end, nxt - frames, np.inf)
    return np.minimum(gap / (fps * 60.0), horizon)


def classify(remaining: np.ndarray, presence: np.ndarray, horizon: float) -> np.ndarray:
    """Three-way class labels from remaining times and presence flags."""
    remaining = np.asarray(remaining)
    presence = np.asarray(presence, dtype=bool)
    classes = np.full(remaining.shape, BACKGROUND, dtype=np.int8)
    classes[(remaining > 0.0) & (remaining < horizon)] = ANTICIPATING
    classes[presence] = PRESENT
    return classes


def compute_targets(seq: ProcedureSequence, horizon: float) -> AnticipationTargets:
    """Build :class:`AnticipationTargets` for a sequence.

    Any present frame is an occurrence; consecutive present frames all have
    remaining time 0.  A gap of exactly ``horizon`` minutes classifies as
    background (the anticipating band is the open interval ``(0, h)``).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    r = remaining_time(seq.presence, seq.fps, horizon)
    c = classify(r, seq.presence, horizon)
    return AnticipationTargets(horizon=float(horizon), fps=seq.fps, remaining=r, classes=c)
