"""Monte-Carlo dropout prediction.

Running the network with T freshly sampled dropout mask sets yields T
posterior samples of its outputs.  Their average approximates the
predictive expectation (regression) and predictive posterior (class
probabilities); spread across samples gives the epistemic variance, and
the mean multinomial variance p(1-p) of the softmax samples gives the
aleatoric class variance.  All variances use the population 1/T form.

The T passes are not run one after another: their mask sets are stacked
and run as T rows of one network scan, which gives the same samples as T
separate passes.  Sample t's masks come from seed ``seed ^ t``; this XOR
derivation lets the seeds of different calls collide (ROADMAP defect b).

Memory stays near that of the T samples of the head outputs: the scan works
in blocks of ``network.BLOCK`` row-frames whatever T is, the softmax runs in
place on the logits, and both per-class variance terms share one buffer.

A summary is stored in the binary container of the checkpoints
(``network.save_container``) under its own format tag: a JSON header line
holding ``samples``, ``horizon`` and the instrument ``names``, then the five
arrays of ``SUMMARY_ARRAYS`` as raw little-endian float64, so a reloaded
summary equals the written one bit for bit.  Only this module names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .labels import ANTICIPATING
from .metrics import anticipating_selection
from .network import (
    NetworkConfig,
    Params,
    forward,
    load_container,
    sample_masks,
    save_container,
    softmax,
    stack_masks,
)


@dataclass
class PredictiveSummary:
    """MC aggregates per frame and instrument.

    Class variances are stored per class; their class-averaged form (the
    headline uncertainty numbers) is derived on access.  ``names`` are the
    instruments of the checkpoint that drew the summary, if it recorded them.
    """

    samples: int
    horizon: float
    reg_mean: np.ndarray                 # (n, K) minutes
    reg_epistemic_var: np.ndarray        # (n, K) minutes^2
    class_mean: np.ndarray               # (n, K, 3)
    class_epistemic_per_class: np.ndarray  # (n, K, 3)
    class_aleatoric_per_class: np.ndarray  # (n, K, 3)
    names: Optional[list[str]] = None

    @property
    def class_epistemic_var(self) -> np.ndarray:  # (n, K), averaged over classes
        return self.class_epistemic_per_class.mean(axis=2)

    @property
    def class_aleatoric_var(self) -> np.ndarray:  # (n, K), averaged over classes
        return self.class_aleatoric_per_class.mean(axis=2)

    @property
    def n_frames(self) -> int:
        return self.reg_mean.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.reg_mean.shape[1]


def aggregate_samples(
    reg_samples: np.ndarray,
    class_samples: np.ndarray,
    horizon: float,
) -> PredictiveSummary:
    """Reduce raw MC samples to a :class:`PredictiveSummary`.

    ``reg_samples`` is (T, n, K) regression values in minutes,
    ``class_samples`` is (T, n, K, 3) softmax probabilities.
    """
    t = reg_samples.shape[0]
    reg_mean = reg_samples.mean(axis=0)
    reg_var = np.square(reg_samples - reg_mean).mean(axis=0)
    class_mean = class_samples.mean(axis=0)
    work = np.subtract(class_samples, class_mean)
    epi_pc = np.square(work, out=work).mean(axis=0)
    np.subtract(1.0, class_samples, out=work)
    alea_pc = np.multiply(class_samples, work, out=work).mean(axis=0)
    return PredictiveSummary(
        samples=t,
        horizon=horizon,
        reg_mean=reg_mean,
        reg_epistemic_var=reg_var,
        class_mean=class_mean,
        class_epistemic_per_class=epi_pc,
        class_aleatoric_per_class=alea_pc,
    )


def mc_predict(
    params: Params,
    config: NetworkConfig,
    features: np.ndarray,
    samples: int = 10,
    seed: int = 0,
) -> PredictiveSummary:
    """Draw ``samples`` mask sets, run them as the rows of one forward pass, aggregate.

    Regression samples are clamped to ``[0, horizon]`` before aggregation
    (the clamp policy of ``linear_clamped`` mode; a no-op for
    ``scaled_sigmoid``).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    masks = stack_masks([sample_masks(config, seed ^ t) for t in range(samples)])
    outputs, _ = forward(params, masks, features, config)
    reg = np.clip(outputs.regression, 0.0, config.horizon, out=outputs.regression)
    cls = softmax(outputs.class_logits, out=outputs.class_logits)
    return aggregate_samples(reg, cls, config.horizon)


def anticipating_mask(summary: PredictiveSummary) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n, K) masks of anticipating predictions.

    Regression: mean prediction strictly inside (0.1 h, 0.9 h).
    Classification: argmax of the mean class probabilities is the
    anticipating class (ties resolve in class order, anticipating first).
    """
    reg_mask = anticipating_selection(summary.reg_mean, summary.horizon)
    cls_mask = summary.class_mean.argmax(axis=2) == ANTICIPATING
    return reg_mask, cls_mask


# ---------------------------------------------------------------------------
# Serialization: one summary per file, in the checkpoints' binary container
# ---------------------------------------------------------------------------

SUMMARY_FORMAT = "anticipation-summary-v2"
# The stored arrays, in file order, each with its shape after the (n, K) axes.
SUMMARY_ARRAYS = {
    "reg_mean": (), "reg_epistemic_var": (), "class_mean": (3,),
    "class_epistemic_per_class": (3,), "class_aleatoric_per_class": (3,),
}


def save_summary(summary: PredictiveSummary, path: str) -> None:
    """Write the aggregates of ``summary`` (not its raw samples), exact to the bit."""
    save_container(path, SUMMARY_FORMAT, {name: getattr(summary, name) for name in SUMMARY_ARRAYS},
                   samples=int(summary.samples), horizon=float(summary.horizon), names=summary.names)


def load_summary(path: str) -> PredictiveSummary:
    """Read a :func:`save_summary` file; ``ValueError`` names the path on any defect."""
    header, arrays = load_container(path, SUMMARY_FORMAT, required=("samples", "horizon", "names"))
    samples, horizon, names = header["samples"], header["horizon"], header["names"]
    names_ok = names is None or isinstance(names, list) and all(type(n) is str for n in names)
    if type(samples) is not int or samples < 1 or type(horizon) not in (int, float) or not names_ok:
        raise ValueError(f"{path}: malformed header: samples {samples!r}, horizon {horizon!r}, "
                         f"names {names!r}")
    if sorted(arrays) != sorted(SUMMARY_ARRAYS):
        raise ValueError(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(SUMMARY_ARRAYS)}")
    return PredictiveSummary(samples=samples, horizon=float(horizon), names=names, **arrays)
