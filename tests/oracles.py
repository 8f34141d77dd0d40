"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions rather
than the library's code paths: targets by a per-frame forward scan,
feature decoding by nearest-signature enumeration, baseline threshold
selection by a from-scratch exhaustive search, and MC-dropout prediction
by one single-mask-set pass per sample.
"""

import itertools

import numpy as np

from anticipation.inference import aggregate_samples
from anticipation.labels import ANTICIPATING, BACKGROUND, PRESENT
from anticipation.network import forward, sample_masks, softmax


def scan_forward_targets(presence: np.ndarray, fps: float, horizon: float):
    """Remaining time and classes via a forward scan from every frame."""
    presence = np.asarray(presence, dtype=bool)
    n, k = presence.shape
    frames_per_min = fps * 60.0
    span = int(np.ceil(horizon * frames_per_min)) + 1
    r = np.full((n, k), float(horizon))
    c = np.full((n, k), BACKGROUND, dtype=np.int8)
    for j in range(k):
        track = presence[:, j]
        for i in range(n):
            if track[i]:
                r[i, j] = 0.0
                c[i, j] = PRESENT
                continue
            hits = np.flatnonzero(track[i:i + span])
            if hits.size:
                gap = hits[0] / frames_per_min
                r[i, j] = min(gap, horizon)
            if 0.0 < r[i, j] < horizon:
                c[i, j] = ANTICIPATING
    return r, c


def nearest_signature_decode(features: np.ndarray, phase: np.ndarray, config):
    """Decode presence flags by nearest candidate signature sum.

    Enumerates every (presence combination, phase) candidate feature vector
    and picks the closest one per frame.
    """
    inst_sig, phase_sig = config.signature_matrices()
    k = config.instruments
    combos = list(itertools.product([0, 1], repeat=k))
    candidates = []
    for p in range(config.phases):
        for combo in combos:
            vec = np.asarray(combo, dtype=float) @ inst_sig + phase_sig[p]
            candidates.append((vec, combo))
    matrix = np.stack([vec for vec, _ in candidates])
    decoded = np.zeros((features.shape[0], k), dtype=bool)
    for i in range(features.shape[0]):
        idx = int(np.argmin(np.square(matrix - features[i]).sum(axis=1)))
        decoded[i] = candidates[idx][1]
    return decoded


def pooled_wmae(preds: list[np.ndarray], remaining: list[np.ndarray], horizon: float) -> float:
    """Single-instrument wMAE over pooled frames, written from the definition."""
    p = np.concatenate(preds)
    r = np.concatenate(remaining)
    err = np.abs(np.clip(p, 0, horizon) - r)
    ant = (r > 0) & (r < horizon)
    bg = r == horizon
    parts = [err[g].mean() for g in (ant, bg) if g.any()]
    return float(np.mean(parts)) if parts else 0.0


def exhaustive_baseline_search(
    counts: np.ndarray,
    remaining: list[np.ndarray],
    expand_lens: list[int],
    horizon: float,
    fps: float,
):
    """Exhaustive threshold search with its own expansion and anticipation.

    Returns (best_threshold, best_wmae); ties go to the larger threshold.
    """
    bins = counts.shape[0]
    cands = sorted(set(int(v) for v in counts)) + [int(counts.max()) + 1]
    best_thr, best_val = None, np.inf
    for cand in cands:
        bin_presence = counts > cand
        preds = []
        for r_true, expand_len in zip(remaining, expand_lens):
            frame_bins = (np.arange(expand_len) * bins) // expand_len
            synthetic = bin_presence[frame_bins]
            r_syn, _ = scan_forward_targets(synthetic[:, None], fps, horizon)
            r_syn = r_syn[:, 0]
            out_len = r_true.shape[0]
            if out_len <= expand_len:
                preds.append(r_syn[:out_len])
            else:
                preds.append(np.concatenate([r_syn, np.full(out_len - expand_len, horizon)]))
        val = pooled_wmae(preds, remaining, horizon)
        if val <= best_val:
            best_thr, best_val = cand, val
    return float(best_thr), float(best_val)


def serial_mc_predict(params, config, features, samples, seed):
    """MC-dropout summary from ``samples`` separate passes, one mask set each."""
    reg, cls = [], []
    for t in range(samples):
        outputs, _ = forward(params, sample_masks(config, seed ^ t), features, config)
        reg.append(np.clip(outputs.regression, 0.0, config.horizon))
        cls.append(softmax(outputs.class_logits))
    return aggregate_samples(np.stack(reg), np.stack(cls), config.horizon)
