"""Derived files that commands read back, and whether one may stand in for a fresh result.

A checkpoint holds one horizon's trained model, a summary the MC-dropout
aggregates of one test sequence at one horizon, a baseline file a fitted
histogram baseline; only this module knows their formats.  Checkpoints and
summaries share one binary container: a JSON header line (format tag, dtype,
every array's ``[name, shape]`` and the format's own keys), then the arrays
as raw little-endian float64, so a reloaded array is the written one bit for
bit.  :func:`load_checkpoint` and :func:`reusable_summary` decide reuse, and
raise ``InputError`` naming the file when it may not be reused.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import BaselineModel
from .errors import InputError
from .inference import PredictiveSummary
from .network import NetworkConfig, Params
from .workflow import ProcedureSequence

CHECKPOINT_FORMAT = "anticipation-params-v1"
SUMMARY_FORMAT = "anticipation-summary-v2"
# The stored arrays of a summary, in file order, each with its shape after the (n, K) axes.
SUMMARY_ARRAYS = {
    "reg_mean": (), "reg_epistemic_var": (), "class_mean": (3,),
    "class_epistemic_per_class": (3,), "class_aleatoric_per_class": (3,),
}
_BASELINE_SCALARS = ("bins", "mode", "horizon", "fps", "mean_duration")


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
# The binary container of checkpoints and summaries
# ---------------------------------------------------------------------------

def save_container(path: str, tag: str, arrays: dict[str, np.ndarray], **meta) -> None:
    """Write ``arrays`` under a header of format ``tag`` that also holds ``meta``."""
    header = {
        "format": tag,
        "dtype": "<f8",
        # The array list keeps the key of the first format, checkpoints.
        "params": [[name, list(value.shape)] for name, value in arrays.items()],
        **meta,
    }
    chunks = [json.dumps(header, sort_keys=True).encode() + b"\n"]
    chunks += [np.ascontiguousarray(value, dtype="<f8").tobytes() for value in arrays.values()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))  # one write call: measurably faster than one per array


def _is_entry(entry) -> bool:
    """``[name, shape]`` with a string name and a list of non-negative ints."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1]))


def load_container(path: str, tag: str, required: tuple[str, ...] = ()) -> tuple[dict, Params]:
    """Read a :func:`save_container` file of format ``tag``: its header and its arrays.

    ``required`` names header keys the caller needs besides the array list.
    ``ValueError`` names the path on any defect: a foreign or malformed
    header, an array cut short, or bytes beyond the declared arrays.  The
    arrays are writable views of one buffer read in a single call.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
        except (ValueError, RecursionError):  # binary garbage or a broken header line
            header = None
        if not isinstance(header, dict) or header.get("format") != tag:
            raise ValueError(f"{path}: not an {tag} file")
        missing = [key for key in ("dtype", "params", *required) if key not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        entries = header["params"]
        if header["dtype"] != "<f8" or not isinstance(entries, list) \
                or not all(_is_entry(e) for e in entries) \
                or len({name for name, _ in entries}) != len(entries):
            raise ValueError(f"{path}: malformed header: expected dtype '<f8' and a list of "
                             "distinct [name, [non-negative ints]] arrays")
        payload = bytearray(fh.read())
    arrays: Params = {}
    offset = 0
    for name, shape in entries:
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
    return header, arrays


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_params(params: Params, path: str, config: NetworkConfig,
                names: Optional[Sequence[str]] = None) -> None:
    """Write a checkpoint of ``params`` stamped with the digest of ``config`` and ``names``,
    the instruments of the data it was trained on."""
    save_container(path, CHECKPOINT_FORMAT, params, config_hash=digest(asdict(config)), names=names)


def _stamped(path: str, header: dict, params: Params, config: NetworkConfig) -> Params:
    """``params``, unless the checkpoint's header was stamped for another config."""
    found, expected = header.get("config_hash"), digest(asdict(config))
    if found != expected:
        raise ValueError(f"{path}: checkpoint was written for a different configuration "
                         f"(config hash {found!r}, expected {expected!r})")
    return params


def load_params(path: str, config: NetworkConfig) -> Params:
    """Read a :func:`save_params` checkpoint written for ``config``.

    ``ValueError`` names the path on any defect, including a config hash
    that is missing or belongs to another configuration.
    """
    return _stamped(path, *load_container(path, CHECKPOINT_FORMAT), config)


def load_checkpoint(path: str, config_for: Callable[[int], NetworkConfig]
                    ) -> tuple[Params, NetworkConfig, Optional[list]]:
    """Open a :func:`save_params` checkpoint once: its params, the config that
    ``config_for(input width)`` builds for it, and its instrument names (or None).

    The input width is the row count of the first weight array (``enc0_W``,
    or ``lstm_Wx`` without an encoder).  ``InputError`` names the path if the
    file is missing or damaged, has no such matrix, or was stamped for
    another config than the one built.
    """
    if not os.path.exists(path):
        raise InputError(f"checkpoint not found: {path} (run 'train' first)")
    try:
        header, params = load_container(path, CHECKPOINT_FORMAT)
        first = next(iter(params.values()), None)
        if first is None or first.ndim != 2 or first.shape[0] < 1:
            raise ValueError(f"{path}: checkpoint has no input weight matrix")
        config = config_for(first.shape[0])
        return _stamped(path, header, params, config), config, header.get("names")
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
    header, arrays = load_container(path, SUMMARY_FORMAT, required=("samples", "horizon", "names"))
    samples, horizon, names = header["samples"], header["horizon"], header["names"]
    names_ok = names is None or isinstance(names, list) and all(type(n) is str for n in names)
    if type(samples) is not int or samples < 1 or type(horizon) not in (int, float) or not names_ok:
        raise ValueError(f"{path}: malformed header: samples {samples!r}, horizon {horizon!r}, "
                         f"names {names!r}")
    if sorted(arrays) != sorted(SUMMARY_ARRAYS):
        raise ValueError(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(SUMMARY_ARRAYS)}")
    return PredictiveSummary(samples=samples, horizon=float(horizon), names=names, **arrays)


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
    except (OSError, ValueError) as exc:
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
    payload = {key: getattr(model, key) for key in _BASELINE_SCALARS}
    payload.update(thresholds=model.thresholds.tolist(), hist=model.hist.tolist(),
                   names=list(model.names) if model.names else None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> BaselineModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return BaselineModel(**{key: payload[key] for key in _BASELINE_SCALARS},
                         hist=np.array(payload["hist"], dtype=np.int64),
                         thresholds=np.array(payload["thresholds"], dtype=np.float64),
                         names=tuple(payload["names"]) if payload.get("names") else None)
