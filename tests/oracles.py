"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions rather
than the library's code paths: targets by a per-frame forward scan,
feature decoding by nearest-signature enumeration, baseline threshold
selection by a from-scratch exhaustive search, MC-dropout prediction by
one single-mask-set pass per sample, and the dataset files by one line per
frame: a row-at-a-time writer of each kind and a line-by-line annotation
scanner.
"""

import io
import itertools
import os

import numpy as np

from anticipation.inference import aggregate_samples
from anticipation.labels import ANTICIPATING, BACKGROUND, PRESENT
from anticipation.errors import AnnotationParseError
from anticipation.network import forward, sample_masks, softmax
from anticipation.workflow import ProcedureSequence


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
    and picks the closest one per frame.  The signatures are the documented
    axes: instrument k on column k, phase p on column K + p.
    """
    k = config.instruments
    inst_sig = np.eye(k, config.feature_dim)
    phase_sig = np.eye(config.phases, config.feature_dim, k=k)
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


def exhaustive_baseline_scores(
    counts: np.ndarray,
    remaining: list[np.ndarray],
    expand_lens: list[int],
    horizon: float,
    fps: float,
):
    """Every candidate threshold and its pooled train wMAE, with the oracle's
    own expansion and anticipation.

    Returns (candidates, scores), both ascending in the threshold.
    """
    bins = counts.shape[0]
    cands = sorted(set(int(v) for v in counts)) + [int(counts.max()) + 1]
    scores = []
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
        scores.append(pooled_wmae(preds, remaining, horizon))
    return cands, scores


def exhaustive_baseline_search(
    counts: np.ndarray,
    remaining: list[np.ndarray],
    expand_lens: list[int],
    horizon: float,
    fps: float,
):
    """Exhaustive threshold search over :func:`exhaustive_baseline_scores`.

    Returns (best_threshold, best_wmae); ties go to the larger threshold.
    """
    best_thr, best_val = None, np.inf
    for cand, val in zip(*exhaustive_baseline_scores(counts, remaining, expand_lens,
                                                     horizon, fps)):
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


def _parse_binary(value: str, line_no: int, path: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise AnnotationParseError(
        f"{path}: line {line_no}: presence value {value!r} is not 0 or 1"
    )


def _parse_int(value: str, line_no: int, path: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise AnnotationParseError(
            f"{path}: line {line_no}: {what} {value!r} is not an integer"
        ) from None


def scan_annotations(path: str, format: str = "generic_csv", fps: float = 1.0) -> ProcedureSequence:
    """Annotation file read line by line, stopping at the first bad line."""
    sep = "\t" if format == "cholec80_tool_tsv" else ","
    frame_field = "Frame" if format == "cholec80_tool_tsv" else "frame"
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise AnnotationParseError(f"{path}: file is empty")
    header = lines[0].split(sep)
    if len(header) < 2 or header[0].strip() != frame_field:
        raise AnnotationParseError(
            f"{path}: line 1: header must start with {frame_field!r} and name at least one instrument"
        )
    names = [h.strip() for h in header[1:]]
    has_phase = format == "generic_csv" and names and names[-1] == "phase"
    if has_phase:
        names = names[:-1]
        if not names:
            raise AnnotationParseError(f"{path}: line 1: no instrument columns before 'phase'")
    k = len(names)

    presence_rows: list[list[bool]] = []
    phase_rows: list[int] = []
    last_index = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(sep)
        expected = 1 + k + (1 if has_phase else 0)
        if len(cells) != expected:
            raise AnnotationParseError(
                f"{path}: line {line_no}: expected {expected} fields, got {len(cells)}"
            )
        index = _parse_int(cells[0].strip(), line_no, path, "frame index")
        if last_index is not None and index <= last_index:
            raise AnnotationParseError(
                f"{path}: line {line_no}: frame index {index} not greater than previous {last_index}"
            )
        last_index = index
        presence_rows.append([_parse_binary(c.strip(), line_no, path) for c in cells[1:1 + k]])
        if has_phase:
            phase = _parse_int(cells[1 + k].strip(), line_no, path, "phase index")
            if phase < 0:
                raise AnnotationParseError(f"{path}: line {line_no}: phase index {phase} is negative")
            if phase >= 2**63:
                raise AnnotationParseError(
                    f"{path}: line {line_no}: phase index {phase} is too large for int64")
            phase_rows.append(phase)
    if not presence_rows:
        raise AnnotationParseError(f"{path}: no data rows")

    seq_id = os.path.splitext(os.path.basename(path))[0]
    return ProcedureSequence(
        id=seq_id,
        presence=np.array(presence_rows, dtype=bool),
        fps=fps,
        phase=np.array(phase_rows, dtype=np.int64) if has_phase else None,
        names=tuple(names),
    )


def write_annotation_rows(seq: ProcedureSequence, path: str) -> None:
    """``generic_csv`` annotations built one row string at a time."""
    names = seq.names or tuple(f"inst_{k}" for k in range(seq.n_instruments))
    buf = io.StringIO()
    header = ["frame"] + list(names) + (["phase"] if seq.phase is not None else [])
    buf.write(",".join(header) + "\n")
    for i in range(seq.n_frames):
        row = [str(i)] + [str(int(v)) for v in seq.presence[i]]
        if seq.phase is not None:
            row.append(str(int(seq.phase[i])))
        buf.write(",".join(row) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def savetxt_features(features: np.ndarray, path: str) -> None:
    """Feature CSV as numpy's row-by-row text writer gives it."""
    np.savetxt(path, np.asarray(features, dtype=np.float64), delimiter=",", fmt="%.17g")
