"""Monte-Carlo dropout prediction.

Running the network with T freshly sampled dropout mask sets yields T
posterior samples of its outputs.  Their average approximates the
predictive expectation (regression) and predictive posterior (class
probabilities); spread across samples gives the epistemic variance, and
the mean multinomial variance p(1-p) of the softmax samples gives the
aleatoric class variance.  All variances use the population 1/T form.

The T passes are not run one after another: their mask sets are stacked
and run as T rows of one network scan, which gives the same samples as T
separate passes.  The models of several horizons run in that one scan as
well, each on its own T mask sets, so one call summarizes a sequence at
every horizon, each summary bit for bit that of a call of its own.  Sample
t's masks come from seed ``seed ^ t``; this XOR derivation lets the seeds of
different calls collide (ROADMAP defect b).

Memory stays near that of the T samples of the head outputs per model: the
scan works in blocks of ``network.BLOCK`` row-frames whatever T is, the
softmax runs in place on the logits, and both per-class variance terms share
one buffer.

A summary holds five arrays: the regression mean and epistemic variance,
and the class means with their per-class epistemic and aleatoric
variances; the class-averaged variances are derived on access.
``artifacts`` writes and reads summary files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .labels import ANTICIPATING
from .metrics import anticipating_selection
from .network import NetworkConfig, Params, _stacked, forward, sample_masks, softmax, stack_masks


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
    seed: Union[int, Sequence[int]] = 0,
    horizons: Optional[Sequence[float]] = None,
) -> Union[PredictiveSummary, list[PredictiveSummary]]:
    """Draw ``samples`` mask sets, run them as the rows of one forward pass, aggregate.

    Regression samples are clamped to ``[0, horizon]`` before aggregation
    (the clamp policy of ``linear_clamped`` mode; a no-op for
    ``scaled_sigmoid``).

    With ``horizons``, ``params`` holds one model per horizon stacked on a
    leading axis (as ``network.train(..., horizons=)`` trains them),
    ``seed`` holds one seed per model, and one summary per model is
    returned; ``config.horizon`` is then unused.  All models' mask sets run
    in one forward pass, and each summary is the one its model's own call
    (with ``config.horizon`` its horizon) gives, bit for bit.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    one = horizons is None
    if one:
        params, seed, horizons = _stacked(params), [seed], [config.horizon]
    if not len(seed) == len(horizons) == params["lstm_b"].shape[0]:
        raise ValueError(f"{params['lstm_b'].shape[0]} models need one seed and one horizon "
                         f"each, got {len(seed)} seeds and {len(horizons)} horizons")
    masks = stack_masks([stack_masks([sample_masks(config, s ^ t) for t in range(samples)])
                         for s in seed])
    outputs, _ = forward(params, masks, features, config,
                         horizons=np.asarray(horizons, dtype=np.float64))
    cls = softmax(outputs.class_logits, out=outputs.class_logits)
    summaries = [aggregate_samples(np.clip(reg, 0.0, h, out=reg), probs, h)
                 for reg, probs, h in zip(outputs.regression, cls, horizons)]
    return summaries[0] if one else summaries


def anticipating_mask(summary: PredictiveSummary) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n, K) masks of anticipating predictions.

    Regression: mean prediction strictly inside (0.1 h, 0.9 h).
    Classification: argmax of the mean class probabilities is the
    anticipating class (ties resolve in class order, anticipating first).
    """
    reg_mask = anticipating_selection(summary.reg_mean, summary.horizon)
    cls_mask = summary.class_mean.argmax(axis=2) == ANTICIPATING
    return reg_mask, cls_mask
