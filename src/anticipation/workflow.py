"""Synthetic procedural timelines and ingestion of real annotation files.

A procedure is a timeline of frames carrying per-instrument presence flags,
an optional phase index per frame, and optional per-frame feature vectors
(the observable input of the predictor; a stand-in for video frames).

The simulator draws a duration, partitions it into phases, places sparse
instrument usage segments inside phases, fires trigger rules (instrument A
makes instrument B appear after a delay), and emits features on fixed axes:
one column per instrument (1.0 while it is visible), one per phase (1.0
while the procedure is in it), plus Gaussian noise (:class:`FeatureSpec`).
All randomness is derived from ``(config, seed)``, so generation is
reproducible byte for byte.

On disk a procedure is an annotation CSV plus, for the predictor, one
feature CSV of one row per frame (:func:`save_features`); features are
attached to loaded annotations with :func:`attach_features`.  The writers
format a chunk of rows per ``%`` operation, and :func:`load_annotations`
splits a file into cells once and checks them column by column.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import AnnotationParseError, NonNegative, Positive, Probability, _at_least, check


@dataclass(frozen=True)
class ProcedureSequence:
    """One procedure: presence flags plus optional features and phases."""

    id: str
    presence: np.ndarray                      # (n, K) bool
    fps: float = 1.0
    features: Optional[np.ndarray] = None     # (n, F) float64
    phase: Optional[np.ndarray] = None        # (n,) int64
    names: Optional[tuple[str, ...]] = None   # instrument names, length K

    def __post_init__(self):
        presence = np.asarray(self.presence, dtype=bool)
        if presence.ndim != 2 or presence.shape[0] < 1:
            raise ValueError("presence must be a nonempty (n, K) array")
        object.__setattr__(self, "presence", presence)
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != presence.shape[0]:
                raise ValueError(
                    f"features must be (n, F) with n={presence.shape[0]}, got {feats.shape}"
                )
            object.__setattr__(self, "features", feats)
        if self.phase is not None:
            phase = np.asarray(self.phase, dtype=np.int64)
            if phase.shape != (presence.shape[0],):
                raise ValueError("phase must be a (n,) array")
            if (phase < 0).any():
                raise ValueError("phase indices must be non-negative")
            object.__setattr__(self, "phase", phase)
        if self.names is not None and len(self.names) != presence.shape[1]:
            raise ValueError("names length must equal instrument count")

    @property
    def n_frames(self) -> int:
        return self.presence.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.presence.shape[1]

    @property
    def feature_dim(self) -> Optional[int]:
        return None if self.features is None else self.features.shape[1]


@dataclass(frozen=True)
class PhaseSpec:
    """Relative length distribution of one phase (frames before rescaling)."""

    length_mean: Positive
    length_std: NonNegative = 0.0


@dataclass(frozen=True)
class UsageRule:
    """Sparse usage of one instrument inside one phase.

    With probability ``probability`` the instrument is used in the phase:
    ``segments`` segments of normally distributed length are placed at
    uniformly random onsets within the phase.
    """

    instrument: _at_least(0)
    phase: _at_least(0)
    probability: Probability
    length_mean: Positive = 10.0
    length_std: NonNegative = 0.0
    segments: _at_least(1) = 1


@dataclass(frozen=True)
class TriggerRule:
    """Occurrences of ``trigger`` cause ``target`` to appear after a delay.

    Every onset of the trigger instrument fires independently with
    ``probability``; the target onset lands ``delay_mean`` frames later,
    jittered uniformly by up to ``delay_jitter`` frames.  Onsets that fall
    beyond the end of the sequence are dropped.
    """

    trigger: _at_least(0)
    target: _at_least(0)
    delay_mean: NonNegative
    delay_jitter: NonNegative = 0.0
    probability: Probability = 1.0
    length_mean: Positive = 10.0
    length_std: NonNegative = 0.0


@dataclass(frozen=True)
class FeatureSpec:
    """How observable features are emitted from presence and phase.

    A frame's feature vector has ``K + P`` columns: column ``k`` is 1.0
    while instrument ``k`` is visible, column ``K + p`` is 1.0 in phase
    ``p``, and every other column is 0.0; then Gaussian noise of standard
    deviation ``noise_std`` is added to every column.  At zero noise,
    presence and phase are read back exactly.
    """

    noise_std: NonNegative = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Full description of a synthetic procedure population."""

    instruments: _at_least(1)
    phases: _at_least(1)
    duration_mean: Positive
    duration_std: NonNegative = 0.0
    phase_plan: tuple[PhaseSpec, ...] = ()
    usage_rules: tuple[UsageRule, ...] = ()
    trigger_rules: tuple[TriggerRule, ...] = ()
    features: FeatureSpec = field(default_factory=FeatureSpec)
    fps: Positive = 1.0
    instrument_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        """Check the declared type and range of every field, then the fields against each other."""
        check(self, type(self))
        if len(self.phase_plan) != self.phases:
            raise ValueError(
                f"phase_plan has {len(self.phase_plan)} entries for {self.phases} phases"
            )
        for i, rule in enumerate(self.usage_rules):
            if rule.instrument >= self.instruments:
                raise ValueError(f"usage_rules[{i}].instrument out of range")
            if rule.phase >= self.phases:
                raise ValueError(f"usage_rules[{i}].phase out of range")
        for i, rule in enumerate(self.trigger_rules):
            if rule.trigger >= self.instruments:
                raise ValueError(f"trigger_rules[{i}].trigger out of range")
            if rule.target >= self.instruments:
                raise ValueError(f"trigger_rules[{i}].target out of range")
        if self.instrument_names is not None:
            if len(self.instrument_names) != self.instruments:
                raise ValueError("instrument_names length must equal instruments")
            defect = _names_defect(self.instrument_names)
            if defect:
                raise ValueError(f"instrument_names: {defect}")

    @property
    def feature_dim(self) -> int:
        return self.instruments + self.phases


def _segment_length(rng: np.random.Generator, mean: float, std: float) -> int:
    return max(1, int(round(rng.normal(mean, std)))) if std > 0 else max(1, int(round(mean)))


def _phase_boundaries(config: SimConfig, duration: int, rng: np.random.Generator) -> np.ndarray:
    """Per-frame phase index; relative lengths rescaled to fill the duration."""
    raw = np.array([_segment_length(rng, p.length_mean, p.length_std) for p in config.phase_plan],
                   dtype=np.float64)
    cuts = np.floor(np.cumsum(raw) / raw.sum() * duration).astype(int)
    cuts[-1] = duration
    phase = np.empty(duration, dtype=np.int64)
    start = 0
    for p, end in enumerate(cuts):
        phase[start:end] = p
        start = end
    return phase


def _place_segment(presence: np.ndarray, instrument: int, onset: int, length: int) -> None:
    n = presence.shape[0]
    if onset >= n:
        return  # clipped at the end of the procedure: dropped
    presence[onset:min(onset + length, n), instrument] = True


def emit_features(
    presence: np.ndarray,
    phase: np.ndarray,
    config: SimConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-frame features: presence and one-hot phase axes plus Gaussian noise."""
    n, k = presence.shape
    feats = np.zeros((n, config.feature_dim))
    feats[:, :k] = presence
    feats[np.arange(n), k + phase] = 1.0
    if config.features.noise_std > 0:
        feats += rng.normal(0.0, config.features.noise_std, size=feats.shape)
    return feats


def generate_sequence(config: SimConfig, seq_id: str, seed: int) -> ProcedureSequence:
    """Generate one procedure from its own derived seed."""
    rng = np.random.default_rng(seed)
    duration = max(1, int(round(rng.normal(config.duration_mean, config.duration_std))))
    phase = _phase_boundaries(config, duration, rng)
    phase_start = np.searchsorted(phase, np.arange(config.phases), side="left")
    phase_end = np.searchsorted(phase, np.arange(config.phases), side="right")

    presence = np.zeros((duration, config.instruments), dtype=bool)
    for rule in config.usage_rules:
        lo, hi = int(phase_start[rule.phase]), int(phase_end[rule.phase])
        if hi <= lo:
            continue  # phase collapsed to zero frames in this draw
        if rng.random() > rule.probability:
            continue
        for _ in range(rule.segments):
            onset = int(rng.integers(lo, hi))
            _place_segment(presence, rule.instrument, onset,
                           _segment_length(rng, rule.length_mean, rule.length_std))

    for rule in config.trigger_rules:
        onsets = instrument_onsets(presence[:, rule.trigger])
        for onset in onsets:
            if rng.random() > rule.probability:
                continue
            delay = rule.delay_mean
            if rule.delay_jitter > 0:
                delay += rng.uniform(-rule.delay_jitter, rule.delay_jitter)
            target_onset = onset + max(0, int(round(delay)))
            _place_segment(presence, rule.target, target_onset,
                           _segment_length(rng, rule.length_mean, rule.length_std))

    feats = emit_features(presence, phase, config, rng)
    return ProcedureSequence(
        id=seq_id, presence=presence, fps=config.fps,
        features=feats, phase=phase, names=config.instrument_names,
    )


def generate_dataset(config: SimConfig, n: int, seed: int) -> list[ProcedureSequence]:
    """Generate ``n`` procedures, each from the derived seed ``seed ^ index``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [generate_sequence(config, f"proc_{i:04d}", seed ^ i) for i in range(n)]


def instrument_onsets(track: np.ndarray) -> np.ndarray:
    """Frame indices where maximal presence runs begin."""
    track = np.asarray(track, dtype=bool)
    prev = np.concatenate(([False], track[:-1]))
    return np.flatnonzero(track & ~prev)


# ---------------------------------------------------------------------------
# Annotation file ingestion and serialization
# ---------------------------------------------------------------------------

ANNOTATION_FORMATS = ("cholec80_tool_tsv", "generic_csv")

# Rows formatted by one ``%`` operation of the writers: enough to cover a
# typical file in one or two calls, small enough that a long file is never
# held in memory whole.
_CHUNK_ROWS = 1024


def _first(mask: np.ndarray) -> int:
    """Position of the first true entry of ``mask``, or its length if none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def _integers(cells: np.ndarray) -> tuple[np.ndarray, int]:
    """``int`` of each cell up to the first one it rejects, and how many it took."""
    values: list[int] = []
    try:
        values.extend(map(int, cells))
    except ValueError:
        pass  # extend keeps the integers parsed before the rejected cell
    return np.array(values, dtype=object), len(values)


def load_annotations(path: str, format: str = "generic_csv", fps: float = 1.0) -> ProcedureSequence:
    """Load presence annotations from a file.

    ``cholec80_tool_tsv`` is tab-separated with header ``Frame`` followed by
    one column per tool and rows at source-fps intervals; ``generic_csv`` is
    comma-separated with header ``frame,<inst_1>,...,<inst_K>[,phase]``.
    Blank lines are skipped and every cell is read without its surrounding
    whitespace.  Presence cells are ``0`` or ``1``; frame and phase indices
    are integers as Python's ``int`` reads them (``+3``, ``007``), phases
    non-negative.  Frame indices must be strictly increasing and may have
    gaps; rows are renumbered to consecutive frames 0..n-1 at the declared
    ``fps``.

    The body is split into cells once and checked column by column; an
    :class:`AnnotationParseError` names the first line that breaks a rule,
    and within that line the first rule in the order above (field count,
    frame index, frame order, presence, phase).
    """
    if format not in ANNOTATION_FORMATS:
        raise ValueError(f"unknown annotation format {format!r}, expected one of {ANNOTATION_FORMATS}")
    sep = "\t" if format == "cholec80_tool_tsv" else ","
    frame_field = "Frame" if format == "cholec80_tool_tsv" else "frame"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise AnnotationParseError(f"{path}: not UTF-8 text: {exc}") from None
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
    expected = 1 + k + (1 if has_phase else 0)

    rows = list(filter(str.strip, lines[1:]))  # the non-blank lines
    if not rows:
        raise AnnotationParseError(f"{path}: no data rows")
    counts = np.fromiter(map(str.count, rows, itertools.repeat(sep)), np.int64, len(rows)) + 1
    n = _first(counts != expected)  # rows[:n] split into `expected` cells each
    cells = np.array(list(map(str.strip, sep.join(rows[:n]).split(sep))) if n else [],
                     dtype=object).reshape(n, expected)
    index, n_index = _integers(cells[:, 0])
    presence = cells[:, 1:1 + k] == "1"
    bad_presence = ~presence & (cells[:, 1:1 + k] != "0")
    phase, n_phase = _integers(cells[:, -1]) if has_phase else (np.zeros(n, dtype=object), n)
    # (first failing row, reason) per check, in the order a line is checked.
    # Each check covers the rows before the first failure of an earlier one,
    # so the earliest row, and the earliest check failing on it, are where a
    # line-by-line scan stops.
    r, reason = min((
        (n, lambda i: f"expected {expected} fields, got {counts[i]}"),
        (n_index, lambda i: f"frame index {cells[i, 0]!r} is not an integer"),
        (_first(np.concatenate(([False], index[1:] <= index[:-1]))),
         lambda i: f"frame index {index[i]} not greater than previous {index[i - 1]}"),
        (_first(bad_presence.any(axis=1)),
         lambda i: f"presence value {cells[i, 1 + _first(bad_presence[i])]!r} is not 0 or 1"),
        (n_phase, lambda i: f"phase index {cells[i, -1]!r} is not an integer"),
        (_first(phase < 0), lambda i: f"phase index {phase[i]} is negative"),
        (_first(phase >= 2**63), lambda i: f"phase index {phase[i]} is too large for int64"),
    ), key=lambda failure: failure[0])
    if r < len(rows):
        line_no = [no for no, line in enumerate(lines[1:], start=2) if line.strip()][r]
        raise AnnotationParseError(f"{path}: line {line_no}: {reason(r)}")

    seq_id = os.path.splitext(os.path.basename(path))[0]
    return ProcedureSequence(
        id=seq_id,
        presence=presence,
        fps=fps,
        phase=np.array(phase.tolist(), dtype=np.int64) if has_phase else None,
        names=tuple(names),
    )


def _write_rows(path: str, head: str, row_format: str, rows: np.ndarray) -> None:
    """Write ``head``, then ``row_format`` filled with each row of ``rows``.

    One ``%`` operation formats a chunk of :data:`_CHUNK_ROWS` rows, so
    memory stays bounded by the chunk, not the file.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            fh.write((row_format * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _names_defect(names) -> Optional[str]:
    """Why a ``generic_csv`` header would not read back as ``names``, or None if it would."""
    for name in names:
        problem = ("is empty" if not name
                   else "holds a comma" if "," in name
                   else "holds a line break" if name.splitlines() != [name]
                   else "has surrounding whitespace" if name != name.strip()
                   else "is not UTF-8 text" if any("\ud800" <= c <= "\udfff" for c in name)
                   else "is the name of another column" if name in ("frame", "phase")
                   else None)
        if problem:
            return f"name {name!r} {problem}"
    if len(set(names)) != len(names):
        return "a name occurs twice"
    return None


def save_annotations(seq: ProcedureSequence, path: str) -> None:
    """Write a sequence in ``generic_csv`` form (phase column if present).

    The header is ``frame,<names>[,phase]`` (names ``inst_<k>`` when the
    sequence has none), then one ``<frame>,<0|1>,...[,<phase>]`` line per
    frame numbered from 0, every line ending in ``\\n``.  Names that would
    not read back as themselves raise ``ValueError`` before anything is written.
    """
    names = seq.names or tuple(f"inst_{k}" for k in range(seq.n_instruments))
    defect = _names_defect(names)
    if defect:
        raise ValueError(f"{path}: instrument names {list(names)}: {defect}")
    header = ["frame", *names]
    columns = [np.arange(seq.n_frames), seq.presence]
    if seq.phase is not None:
        header.append("phase")
        columns.append(seq.phase)
    rows = np.column_stack(columns).astype(np.int64)
    _write_rows(path, ",".join(header) + "\n", ",".join(["%d"] * len(header)) + "\n", rows)


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

def save_features(features: np.ndarray, path: str) -> None:
    """Write per-frame features as CSV, one row per frame, exact to the bit.

    Each value is written as ``%.17g`` (``nan``, ``inf``, ``-inf`` and
    ``-0`` included), separated by commas, every line ending in ``\\n``;
    the bytes are those of ``np.savetxt(path, features, delimiter=",",
    fmt="%.17g")``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (n, F) array")
    _write_rows(path, "", ",".join(["%.17g"] * features.shape[1]) + "\n", features)


def load_features(path: str) -> np.ndarray:
    """Read a feature CSV written by :func:`save_features` as an (n, F) array."""
    with warnings.catch_warnings():
        # numpy only warns about a file without rows; refuse it instead.
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except UserWarning:
            raise AnnotationParseError(f"{path}: feature file has no rows") from None
        except ValueError as exc:
            raise AnnotationParseError(f"{path}: malformed feature CSV: {exc}") from None


def attach_features(seq: ProcedureSequence, path: str) -> ProcedureSequence:
    """Return a copy of ``seq`` with the features of the CSV file at ``path``.

    The file must hold one row per frame of ``seq``; any other row count is
    an :class:`AnnotationParseError` naming the file.  Presence and phase
    are never modified.
    """
    feats = load_features(path)
    if feats.shape[0] != seq.n_frames:
        raise AnnotationParseError(
            f"{path}: feature rows ({feats.shape[0]}) do not match sequence length ({seq.n_frames})"
        )
    return replace(seq, features=feats)
