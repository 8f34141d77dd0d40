"""Derived files that commands read back, and whether one may stand in for a fresh result.

A checkpoint holds one horizon's trained model, a summary the MC-dropout
aggregates of one test sequence at one horizon, a baseline file a fitted
histogram baseline; only this module knows their formats.  All three share
one binary container: a JSON header line (format tag, dtype, every array's
``[name, shape]`` and the keys each format declares beside its tag), then
the arrays as raw little-endian float64, so a reloaded array is the written
one bit for bit.  :func:`load_container` checks a header against its format's
declaration, and the array names of summaries and baselines.  The two readers
that decide reuse, :func:`load_checkpoint` (the only checkpoint reader) and
:func:`reusable_summary`, raise ``InputError`` naming the file when it may not
be reused; the other loaders raise a ``ValueError`` naming it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, fields
from typing import Annotated, Callable, Optional, Sequence, TypedDict

import numpy as np

from .baselines import MODES, BaselineModel
from .errors import ConfigError, InputError, Positive, _at_least, check
from .inference import PredictiveSummary
from .network import NetworkConfig, Params, param_shapes
from .workflow import ProcedureSequence

# Every header holds its format tag, the dtype and each array's [name, shape],
# under the key of the first format, checkpoints.
_Container = TypedDict("_Container", {
    "format": str, "dtype": Annotated[str, '"<f8"', lambda v: v == "<f8"],
    "params": Annotated[tuple[tuple[str, tuple[_at_least(0), ...]], ...],
                        "[name, shape] pairs of distinct names", lambda v: len(dict(v)) == len(v)]})
_NAMES = Optional[tuple[str, ...]]

CHECKPOINT_FORMAT = "anticipation-params-v1"


class CheckpointHeader(_Container, total=False):  # files of older writers lack these keys
    config_hash: Optional[str]
    names: _NAMES


SUMMARY_FORMAT = "anticipation-summary-v2"
SummaryHeader = TypedDict("SummaryHeader", {**_Container.__annotations__, "samples": _at_least(1),
                                            "horizon": float, "names": _NAMES})
# The stored arrays of a summary, in file order, each with its shape after the (n, K) axes.
SUMMARY_ARRAYS = {"reg_mean": (), "reg_epistemic_var": (), "class_mean": (3,),
                  "class_epistemic_per_class": (3,), "class_aleatoric_per_class": (3,)}
BASELINE_FORMAT = "anticipation-baseline-v1"
BaselineHeader = TypedDict("BaselineHeader", {
    **_Container.__annotations__, "bins": _at_least(1), "horizon": Positive, "fps": Positive,
    "mode": Annotated[str, f"one of {', '.join(MODES)}", lambda v: v in MODES],
    "mean_duration": _at_least(1), "names": _NAMES})
# The stored arrays of a baseline: (K, bins) counts, exact as float64 below 2**53, and (K,).
BASELINE_ARRAYS = ("hist", "thresholds")
# Each format's header declaration, and its array names where they are fixed.
_FORMATS = {CHECKPOINT_FORMAT: (CheckpointHeader, None),
            SUMMARY_FORMAT: (SummaryHeader, sorted(SUMMARY_ARRAYS)),
            BASELINE_FORMAT: (BaselineHeader, sorted(BASELINE_ARRAYS))}


def digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of a JSON value, keys sorted."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def file_digest(path: str) -> str:
    """The SHA-256 of a file's bytes, in hex."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# The binary container of every derived file
# ---------------------------------------------------------------------------

def save_container(path: str, tag: str, arrays: dict[str, np.ndarray], **meta) -> None:
    """Write ``arrays`` under a header of format ``tag`` that also holds ``meta``."""
    header = {"format": tag, "dtype": "<f8", **meta,
              "params": [[name, list(value.shape)] for name, value in arrays.items()]}
    chunks = [json.dumps(header, sort_keys=True).encode() + b"\n"]
    chunks += [np.ascontiguousarray(value, dtype="<f8").tobytes() for value in arrays.values()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))  # one write call: measurably faster than one per array


def load_container(path: str, tag: str) -> tuple[dict, Params]:
    """Read a :func:`save_container` file of format ``tag``: its header, as read and
    checked against the format's declaration, and its arrays.

    ``ValueError`` names the path on any defect: a file that cannot be read,
    a foreign or malformed header, an array cut short, bytes beyond the
    declared arrays, or other array names than a format with fixed arrays
    holds.  The arrays are writable views of one buffer read in a single call.
    """
    try:
        with open(path, "rb") as fh:
            line, payload = fh.readline(), bytearray(fh.read())
        header = json.loads(line.decode())
    except OSError as exc:  # missing or unreadable
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError):  # binary garbage or a broken header line
        header = None
    if not isinstance(header, dict) or header.get("format") != tag:
        raise ValueError(f"{path}: not an {tag} file")
    declared, names = _FORMATS[tag]
    try:
        check(header, declared, "header")
    except ConfigError as exc:  # a defect of this file, not of the run's config
        raise ValueError(f"{path}: {exc}") from None
    arrays, offset = {}, 0
    for name, shape in header["params"]:
        count = math.prod(shape)
        if offset + 8 * count > len(payload):
            raise ValueError(f"{path}: truncated file: array {name!r} needs {8 * count} bytes, "
                             f"found {len(payload) - offset}")
        try:
            arrays[name] = np.frombuffer(payload, "<f8", count, offset).reshape(shape)
        except ValueError as exc:  # a dimension numpy cannot index
            raise ValueError(f"{path}: array {name!r} of shape {shape}: {exc}") from None
        offset += 8 * count
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} bytes beyond the declared arrays")
    if names is not None and sorted(arrays) != names:
        raise ValueError(f"{path}: holds arrays {sorted(arrays)}, expected {names}")
    return header, arrays


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_params(params: Params, path: str, config: NetworkConfig,
                names: Optional[Sequence[str]] = None) -> None:
    """Write a checkpoint of ``params`` stamped with the digest of ``config`` and ``names``,
    the instruments of the data it was trained on."""
    save_container(path, CHECKPOINT_FORMAT, params, config_hash=digest(asdict(config)), names=names)


def load_checkpoint(path: str, config_for: Callable[[int], NetworkConfig]
                    ) -> tuple[Params, NetworkConfig, Optional[list]]:
    """Open a :func:`save_params` checkpoint once: its params, the config that
    ``config_for(input width)`` builds for it, and its instrument names (or None).

    The input width is the row count of the first weight array (``enc0_W``,
    or ``lstm_Wx`` without an encoder).  ``InputError`` names the path if the
    file is missing or damaged, has no such matrix, has a config hash that is
    missing or not that of the config built, or holds other arrays than its
    model's.  A caller that holds its config passes ``lambda width: config``.
    """
    if not os.path.exists(path):
        raise InputError(f"checkpoint not found: {path} (run 'train' first)")
    try:
        header, params = load_container(path, CHECKPOINT_FORMAT)
        first = next(iter(params.values()), None)
        if first is None or first.ndim != 2 or first.shape[0] < 1:
            raise ValueError(f"{path}: checkpoint has no input weight matrix")
        config = config_for(first.shape[0])
        found, expected = header.get("config_hash"), digest(asdict(config))
        if found != expected:
            raise ValueError(f"{path}: checkpoint was written for a different configuration "
                             f"(config hash {found!r}, expected {expected!r})")
        if {name: value.shape for name, value in params.items()} != param_shapes(config):
            raise ValueError(f"{path}: checkpoint arrays are not those of its config's model")
        return params, config, header.get("names")
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# MC-dropout summaries: one sequence at one horizon per file
# ---------------------------------------------------------------------------

def save_summary(summary: PredictiveSummary, path: str) -> None:
    """Write the aggregates of ``summary`` (not its raw samples), exact to the bit."""
    save_container(path, SUMMARY_FORMAT, {name: getattr(summary, name) for name in SUMMARY_ARRAYS},
                   samples=int(summary.samples), horizon=float(summary.horizon), names=summary.names)


def load_summary(path: str) -> PredictiveSummary:
    """Read a :func:`save_summary` file; ``ValueError`` names the path on any defect."""
    header, arrays = load_container(path, SUMMARY_FORMAT)
    return PredictiveSummary(samples=header["samples"], horizon=float(header["horizon"]),
                             names=header["names"], **arrays)


def reusable_summary(path: str, seq: ProcedureSequence, seq_path: str, horizon: float,
                     samples: int, overwrite: bool) -> Optional[PredictiveSummary]:
    """The summary at ``path``, if it may stand in for drawing one of ``seq`` (read
    from ``seq_path``) at ``horizon`` with ``samples`` MC samples; None to draw it.

    None means there is no file, or, under ``overwrite``, one of another
    sample count.  ``InputError`` names the file if it is unreadable, of
    another horizon, drawn for other instruments than ``seq`` names (when it
    recorded them), shaped for another sequence, or of another sample count
    without ``overwrite``.
    """
    if not os.path.exists(path):
        return None
    try:
        summary = load_summary(path)
    except ValueError as exc:
        raise InputError(f"unreadable summary: {exc}") from None
    if summary.horizon != horizon:
        raise InputError(f"summary {path}: horizon {summary.horizon:g}, expected {horizon:g}")
    if summary.names is not None and summary.names != list(seq.names):
        raise InputError(f"summary {path}: drawn for instruments {summary.names}, but "
                         f"{seq_path} names {list(seq.names)}")
    for name, trailing in SUMMARY_ARRAYS.items():
        found, shape = getattr(summary, name).shape, (seq.n_frames, seq.n_instruments) + trailing
        if found != shape:
            raise InputError(
                f"summary {path}: {name} has shape {found}, expected {shape} for sequence {seq.id}"
            )
    if summary.samples == samples:
        return summary
    if not overwrite:
        raise InputError(f"summary {path}: drawn with {summary.samples} MC samples, "
                         f"eval.samples is {samples} (use --overwrite to recompute it)")
    return None


# ---------------------------------------------------------------------------
# Histogram baselines
# ---------------------------------------------------------------------------

def save_baseline(model: BaselineModel, path: str) -> None:
    """Write ``model``: its arrays, and its other fields in the header."""
    meta = dict(vars(model), names=list(model.names) if model.names else None)
    arrays = {name: meta.pop(name) for name in BASELINE_ARRAYS}
    save_container(path, BASELINE_FORMAT, arrays, **meta)


def load_baseline(path: str) -> BaselineModel:
    """Read a :func:`save_baseline` file; ``ValueError`` names the path on any defect."""
    header, arrays = load_container(path, BASELINE_FORMAT)
    hist, thresholds, names = arrays["hist"], arrays["thresholds"], header["names"]
    k = hist.shape[0] if hist.ndim == 2 else 0
    if not k or hist.shape[1] != header["bins"] or thresholds.shape != (k,) \
            or names is not None and len(names) != k \
            or not np.all((hist >= 0) & (hist < 2.0**63) & (np.floor(hist) == hist)) \
            or not np.isfinite(thresholds).all():
        raise ValueError(f"{path}: expected a hist of K > 0 rows of {header['bins']} integer "
                         "counts in [0, 2**63), K finite thresholds and K names (or null)")
    header.update(hist=hist.astype(np.int64), thresholds=thresholds,
                  names=tuple(names) if names else None)
    return BaselineModel(**{f.name: header[f.name] for f in fields(BaselineModel)})
