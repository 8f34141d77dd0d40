"""Command-line orchestration.

Subcommands cover the whole pipeline on one run directory::

    simulate   generate a synthetic train/test dataset
    baseline   fit a histogram baseline per horizon on the train split and save it
    train      train the recurrent models of all horizons in one lockstep pass
    predict    MC-dropout summaries for the test split
    evaluate   metric tables for baselines and model per horizon
    analyze    uncertainty analyses (PCC, filtering, TP/FP, trigger)

Every setting comes from one JSON config file, over ``DEFAULT_CONFIG``; the
options name files, the write policy and the outputs to produce.
``load_config`` checks the file and builds the config the commands read.  That
config, every default and float field included, lands in the run manifest with
the seed, its hash, and SHA-256 checksums of the artifacts written.
Artifacts are append-only per run directory: rerunning a command that
would overwrite its own outputs fails unless ``--overwrite`` is given.
Each command finds its inputs and claims its outputs through one ``_Run``:
it reads and checks the dataset files, and refuses, makes directories for
and records the outputs.  A command that fails after writing something still
leaves a manifest entry: the files it wrote, with their checksums, and an
``error`` field holding the message.  Only
``baseline`` writes ``baselines/baseline_<mode>_h<h>.bin``, and no command
reads them; ``evaluate`` fits the baselines in memory, both modes from one
set of train targets per horizon, and is the one command that scores them.

A dataset split holds ``<id>.csv`` annotations and, for the network,
``<id>.features.csv`` per-frame features.  Every command reads annotations
(``baseline`` only those of the train split); only the commands that run the
network read feature files: ``train`` those of the train split, and
``predict``, ``evaluate`` and ``analyze`` those of the test sequences whose
summaries they compute.

Checkpoints (``checkpoints/model_h<h>.bin``), MC summaries
(``summaries/summary_<id>_h<h>.bin``) and baseline files share one container
format, read and written by ``artifacts``, which decides whether one is reused.
``predict`` writes the summaries; ``evaluate`` and ``analyze`` reuse them,
and compute (and write) any that are missing from the checkpoint, on one
process per available core (``workers`` in the manifest) if this process is
single-threaded: pin the BLAS threads (``OPENBLAS_NUM_THREADS=1`` ...) for
that.  Either way is bit-identical.  A reused summary drawn for other
instruments, of other shapes or in the v1 format exits 3; ``predict
--overwrite`` redraws it.

``main`` first sets the two policies of the process's owner: under glibc,
freed heap memory stays mapped (``_keep_freed_memory``), so training does
not fault every window's buffers back in; and at exit the heap is frozen
(``gc.freeze`` through ``atexit``), so the interpreter does not walk the
objects the imports built once more on its way out.  Importing the package
sets neither.

Exit codes: 0 ok, 2 config error, 3 input error, 4 numeric failure,
5 empty result.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import ctypes
import dataclasses
import gc
import glob
import json
import os
import pickle
import sys
import typing
from typing import Annotated, Optional, Union

import numpy as np

from . import analysis, artifacts, baselines, inference, labels, metrics, network, reports, workflow
from .errors import (
    AnnotationParseError,
    ConfigError,
    EmptyResultError,
    InputError,
    NumericError,
    _at_least,
    _hints,
    check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_EMPTY = 5


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

# ``model`` and ``train`` hold the fields of ``network.NetworkConfig`` except
# the ones set from the data and the top level; _TRAIN_FIELDS form ``train``.
# ``sim`` holds the fields of ``workflow.SimConfig``, nested parts included,
# and ``split``, ``eval`` and ``analysis`` those of the dataclasses below.
_TRAIN_FIELDS = ("learning_rate", "window", "accum_steps", "epochs")
_DATA_FIELDS = ("input_dim", "instruments", "horizon", "seed")
_NETWORK_TYPES = _hints(network.NetworkConfig)
_NETWORK_DEFAULTS = {f.name: f.default for f in dataclasses.fields(network.NetworkConfig)}
_METHODS = ("meanhist", "oraclehist", "model")

# Field types with a test are built here, not inside an annotation, where a
# test could not look up the names of this module (see errors).
Method = Annotated[str, f"one of {', '.join(_METHODS)} (in any case)",
                   lambda v: v.lower() in _METHODS]
Methods = Annotated[tuple[Method, ...], f"one or more of {', '.join(_METHODS)}", lambda v: len(v) > 0]
Percentile = Annotated[float, "a number in (0, 100]", lambda v: 0 < v <= 100]
Instruments = Annotated[tuple[Union[str, int], ...],
                        "one or more distinct instrument names or indices",
                        lambda v: 0 < len(set(v)) == len(v)]
# That both instruments exist is checked against the data, by 'analyze'.
TriggerPair = Annotated[
    typing.TypedDict("TriggerPair", {"trigger": _at_least(0), "target": _at_least(0)}),
    "a trigger and a target that differ", lambda v: v["trigger"] != v["target"],
]


@dataclasses.dataclass(frozen=True)
class SplitConfig:
    n_train: _at_least(1) = 12
    n_test: _at_least(0) = 8


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    samples: _at_least(1) = 10
    bins: _at_least(1) = 1000
    instruments: Optional[Instruments] = None
    methods: Methods = _METHODS


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    percentiles: tuple[Percentile, ...] = analysis.DEFAULT_PERCENTILES
    trigger: Optional[TriggerPair] = None
    use_std: bool = False
    memory_frames: _at_least(0) = 0


_CONFIG_TYPES = {
    "seed": _NETWORK_TYPES["seed"],
    # Artifact names tag a horizon as f"{h:g}", so no two horizons may share a tag.
    "horizons": Annotated[
        tuple[_NETWORK_TYPES["horizon"], ...],
        "one or more horizons with distinct file tags (6 significant digits)",
        lambda v: 0 < len({f"{h:g}" for h in v}) == len(v),
    ],
    "sim": Optional[workflow.SimConfig],
    "split": SplitConfig,
    "model": {k: _NETWORK_TYPES[k] for k in _NETWORK_DEFAULTS
              if k not in _TRAIN_FIELDS + _DATA_FIELDS},
    "train": {k: _NETWORK_TYPES[k] for k in _TRAIN_FIELDS},
    "eval": EvalConfig,
    "analysis": AnalysisConfig,
}

# The defaults, as JSON: those of the section dataclasses, and NetworkConfig's
# for ``model``, ``train`` and the top level.
DEFAULT_CONFIG = json.loads(json.dumps({
    "seed": _NETWORK_DEFAULTS["seed"], "horizons": [_NETWORK_DEFAULTS["horizon"]], "sim": None,
    "split": dataclasses.asdict(SplitConfig()),
    "model": {k: _NETWORK_DEFAULTS[k] for k in _CONFIG_TYPES["model"]},
    "train": {k: _NETWORK_DEFAULTS[k] for k in _TRAIN_FIELDS},
    "eval": dataclasses.asdict(EvalConfig()),
    "analysis": dataclasses.asdict(AnalysisConfig()),
}))


def load_config(path: str) -> dict:
    """The config file at ``path`` over ``DEFAULT_CONFIG``, checked and built: each
    section an instance of its dataclass (``sim`` may be None; ``model`` and
    ``train`` stay dicts), lists as tuples and float fields as floats."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep to parse
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    for section, value in raw.items():
        if isinstance(value, dict) and isinstance(config.get(section), dict):
            config[section].update(value)
        else:
            config[section] = value
    return check(config, _CONFIG_TYPES)


def network_config(config: dict, input_dim: int, instruments: int, horizon: float) -> network.NetworkConfig:
    return network.NetworkConfig(input_dim=input_dim, instruments=instruments, horizon=horizon,
                                 seed=config["seed"], **config["model"], **config["train"])


# ---------------------------------------------------------------------------
# Run directory: where one command finds its inputs and claims its outputs
# ---------------------------------------------------------------------------

_CHECKPOINT = os.path.join("checkpoints", "model_h{:g}.bin")  # by horizon: train writes it


class _Run:
    """One command's run directory: where it finds its inputs, and the ledger of its outputs."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.dir = args.out
        self.data_dir = getattr(args, "data", None) or os.path.join(self.dir, "dataset")
        # The frame rate the dataset is read at: the simulated one, or 1.0 for ingested data.
        self.fps = 1.0 if config["sim"] is None else config["sim"].fps
        self.overwrite = args.overwrite
        self.claimed: list[str] = []
        self.workers: Optional[int] = None  # processes that drew MC summaries, if any did
        # Read before the command runs, so a damaged manifest stops it before it
        # writes anything that the manifest could then not list.
        self.manifest_path = os.path.join(self.dir, "manifest.json")
        self.manifest = {"runs": []}
        if os.path.exists(self.manifest_path):
            try:
                with open(self.manifest_path, "r", encoding="utf-8") as fh:
                    self.manifest = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
                raise InputError(f"damaged run manifest {self.manifest_path}: {exc}") from None
            runs = self.manifest.get("runs") if isinstance(self.manifest, dict) else None
            if not isinstance(runs, list):
                raise InputError(f"damaged run manifest {self.manifest_path}: "
                                 "expected an object with a 'runs' list")

    def dataset_file(self, split: str, seq_id: str, suffix: str = ".csv") -> str:
        """The path of a file of sequence ``seq_id`` in a split of the dataset."""
        return os.path.join(self.data_dir, split, seq_id + suffix)

    def sequences(self, split: str, like: Optional[tuple] = None) -> list[workflow.ProcedureSequence]:
        """The annotations of one split, without features: see :meth:`features`.

        Every file must name the instruments of the split's first file, and
        that one those of ``like``, a ``(split, sequence)`` pair, if given.
        """
        pattern = self.dataset_file(split, "*")
        split_dir = os.path.dirname(pattern)
        if not os.path.isdir(split_dir):
            raise InputError(f"dataset split directory not found: {split_dir}")
        sequences = [workflow.load_annotations(path, format="generic_csv", fps=self.fps)
                     for path in sorted(glob.glob(pattern)) if not path.endswith(".features.csv")]
        if not sequences:
            raise InputError(f"no sequences found in {split_dir}")
        first = split, sequences[0]
        pairs = [((split, seq), first) for seq in sequences[1:]] + ([(first, like)] if like else [])
        for (split_a, a), (split_b, b) in pairs:
            if a.names != b.names:
                raise InputError(f"{self.dataset_file(split_a, a.id)}: instruments {list(a.names)} "
                                 f"differ from {list(b.names)} of {self.dataset_file(split_b, b.id)}")
        return sequences

    def features(self, seq: workflow.ProcedureSequence, split: str, width: Optional[int],
                 source: str) -> workflow.ProcedureSequence:
        """``seq`` with the features of its feature file.

        An InputError names a feature file that is missing, holds a cell that is
        not a finite number (by line and column) or, unless ``width`` is None (the
        first file of a split), has another number of columns than ``source``.
        """
        path = self.dataset_file(split, seq.id, ".features.csv")
        try:
            seq = workflow.attach_features(seq, path)
        except FileNotFoundError:
            raise InputError(f"feature file not found: {path} "
                             "(the model needs one per sequence)") from None
        bad = np.argwhere(~np.isfinite(seq.features))
        if len(bad):
            row, col = bad[0]
            with open(path, "r", encoding="utf-8", errors="replace") as fh:  # np.loadtxt's rows
                lines = [(no, line) for no, line in enumerate(fh, start=1)
                         if line.split("#")[0].strip()]
            no, line = lines[row]
            cell = line.split("#")[0].split(",")[col].strip()
            raise InputError(f"{path}: line {no}, column {col + 1}: feature value {cell!r} "
                             "is not a finite number")
        if width is not None and seq.feature_dim != width:
            raise InputError(f"{path}: {seq.feature_dim} feature columns, expected {width} ({source})")
        return seq

    def claim(self, *rel_paths: str) -> list[str]:
        """Paths of outputs about to be written: refused if they exist, unless ``--overwrite``."""
        paths = [os.path.join(self.dir, p) for p in rel_paths]
        existing = [p for p in paths if os.path.exists(p)]
        if existing and not self.overwrite:
            raise InputError(
                "output already exists (use --overwrite or a new run directory): "
                + ", ".join(sorted(existing)[:4])
            )
        for path in paths:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        self.claimed += paths
        return paths

    def record(self, command: str, config: dict, error: Optional[str] = None) -> None:
        """Append the manifest entry: the built config as JSON with its hash, and
        every claimed file that exists, with its SHA-256.

        A failed command's entry also carries its ``error``; one that wrote
        nothing adds no entry.
        """
        written = {os.path.relpath(p, self.dir): artifacts.file_digest(p)
                   for p in sorted(self.claimed) if os.path.exists(p)}
        if error is not None and not written:
            return
        resolved = json.loads(json.dumps(config, default=dataclasses.asdict))
        entry = {"command": command, "seed": config["seed"],
                 "config_hash": artifacts.digest(resolved), "resolved_config": resolved,
                 "artifacts": written}
        if self.workers is not None:
            entry["workers"] = self.workers
        if error is not None:
            entry["error"] = error
        # Write beside the old manifest and swap it in, so a failed write never
        # leaves a truncated manifest behind.
        tmp_path = self.manifest_path + ".tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                json.dump({**self.manifest, "runs": self.manifest["runs"] + [entry]}, fh,
                          indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp_path, self.manifest_path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)


def _summary_seed(seed: int, horizon: float, index: int) -> int:
    return network._derived_seed(seed, 5, int(round(horizon * 1000)), index)


def _instrument_subset(config: dict, names: tuple[str, ...]) -> list[int]:
    wanted = config["eval"].instruments
    if wanted is None:
        return list(range(len(names)))
    subset = []
    for item in wanted:
        if isinstance(item, str):
            if item not in names:
                raise ConfigError(f"eval.instruments names unknown instrument {item!r}")
            j = names.index(item)
        else:
            if not 0 <= int(item) < len(names):
                raise ConfigError(f"eval.instruments index {item} out of range")
            j = int(item)
        if j in subset:  # by its name and by its index
            raise ConfigError(f"eval.instruments names instrument {names[j]!r} twice")
        subset.append(j)
    return subset


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, run: _Run, args: argparse.Namespace) -> None:
    if config["sim"] is None:
        raise ConfigError("config has no 'sim' section")
    n_train, n_test = config["split"].n_train, config["split"].n_test
    data = workflow.generate_dataset(config["sim"], n_train + n_test, seed=config["seed"])
    for i, seq in enumerate(data):
        base = os.path.join("dataset", "train" if i < n_train else "test", seq.id)
        csv_path, features_path = run.claim(base + ".csv", base + ".features.csv")
        workflow.save_annotations(seq, csv_path)
        workflow.save_features(seq.features, features_path)


def cmd_baseline(config: dict, run: _Run, args: argparse.Namespace) -> None:
    train_seqs = run.sequences("train")
    for h in config["horizons"]:
        model = baselines.fit_baseline(train_seqs, h, bins=config["eval"].bins, mode=args.mode)
        path, = run.claim(os.path.join("baselines", f"baseline_{args.mode}_h{h:g}.bin"))
        artifacts.save_baseline(model, path)


def cmd_train(config: dict, run: _Run, args: argparse.Namespace) -> None:
    train_seqs = run.sequences("train")
    classes = config["model"]["phase_classes"]
    for i, seq in enumerate(train_seqs):
        seq = train_seqs[i] = run.features(seq, "train", train_seqs[0].feature_dim,
                                           "as in the first train file")
        if defect := network.phase_head_defect(seq, classes):
            raise ConfigError(f"model.phase_classes: {defect}")
    dims = train_seqs[0].feature_dim, train_seqs[0].n_instruments
    net_configs = [network_config(config, *dims, h) for h in config["horizons"]]
    outputs = [run.claim(_CHECKPOINT.format(h), os.path.join("reports", f"train_log_h{h:g}.csv"))
               for h in config["horizons"]]
    trained = network.train(train_seqs, net_configs[0], horizons=config["horizons"])
    for (params, log), net_config, (ckpt_path, log_path) in zip(trained, net_configs, outputs):
        artifacts.save_params(params, ckpt_path, net_config, names=train_seqs[0].names)
        reports._write_csv(log_path, list(log[0]) if log else ["epoch"],
                           (row.values() for row in log))


def _fork_map(fn, items: list) -> tuple[list, int]:
    """``[fn(item) for item in items]`` on one process per available core, and their number.

    Items are dealt round-robin; this process computes share 0, and forked
    children pickle their outcomes into pipes.  The lowest-index item's error
    is raised, as in a serial loop.  Only a single-threaded process forks: a
    child could block on a lock held by a thread it has no copy of (as in an
    unpinned BLAS pool), and Python 3.12 warns about such forks.
    """
    alone = False
    with contextlib.suppress(OSError):  # no /proc: the thread count is unknown
        alone = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    n = min(len(os.sched_getaffinity(0)), len(items)) if alone else 1
    if n < 2:
        return [fn(item) for item in items], 1

    def share(w: int) -> list:  # (ok, result or error) per item, up to the first error
        done = []
        for item in items[w::n]:
            try:
                done.append((True, fn(item)))
            except Exception as exc:
                return done + [(False, exc)]
        return done

    children, shares = [], {}
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send its share's outcomes, then exit
                try:
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(share(w), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((w, pid, read_fd))
        shares[0] = share(0)
    finally:  # read and reap every child, also when this process failed
        for i, (w, pid, read_fd) in enumerate(children):
            with os.fdopen(read_fd, "rb") as fh:
                children[i] = w, fh.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for w, data, code in children:
        shares[w] = pickle.loads(data) if code == 0 else [(False, OSError(
            f"worker process exited with code {code} before returning its results for "
            + ", ".join(map(str, items[w::n]))))]
    outcomes = [None] * len(items)
    for w, done in shares.items():
        outcomes[w:w + n * len(done):n] = done
    for ok, value in outcomes:  # an item without an outcome follows an error in its share
        if not ok:
            raise value
    return [value for _, value in outcomes], n


def _summaries(config: dict, run: _Run, test_seqs: list[workflow.ProcedureSequence],
               reuse: bool = True) -> dict[float, list]:
    """MC summaries of every test sequence at every horizon, reusing files when present.

    This process decides reuse, reads the checkpoints and claims the outputs;
    :func:`_fork_map` splits the sequences that miss summaries.  Each reads
    its feature file once (checked against the checkpoint's input width) and
    draws all its missing horizons in one ``mc_predict`` call, each with its
    own seed, so neither the split nor the grouping changes a summary.
    ``predict`` (``reuse=False``) keeps none in memory and gets an empty dict.
    """
    horizons, samples = config["horizons"], config["eval"].samples
    paths = {(seq.id, h): os.path.join("summaries", f"summary_{seq.id}_h{h:g}.bin")
             for seq in test_seqs for h in horizons}
    found, missing = {}, {}  # (id, h) -> summary; id -> horizons to draw
    for seq in test_seqs:
        for h in horizons:
            path = os.path.join(run.dir, paths[seq.id, h])
            summary = (artifacts.reusable_summary(path, seq, run.dataset_file("test", seq.id), h,
                                                  samples, run.overwrite) if reuse else None)
            if summary is None:
                missing.setdefault(seq.id, []).append(h)
            else:
                found[seq.id, h] = summary
    models = {}
    for h in (h for h in horizons if any(h in hs for hs in missing.values())):
        ckpt_path = os.path.join(run.dir, _CHECKPOINT.format(h))
        models[h] = artifacts.load_checkpoint(
            ckpt_path, lambda width: network_config(config, width, test_seqs[0].n_instruments, h))
        names = models[h][2]
        if names is not None and names != list(test_seqs[0].names):
            raise InputError(f"{ckpt_path}: trained on instruments {names}, but "
                             f"{run.dataset_file('test', test_seqs[0].id)} names "
                             f"{list(test_seqs[0].names)}")
    run.claim(*(paths[seq_id, h] for seq_id, hs in missing.items() for h in hs))
    position = {seq.id: idx for idx, seq in enumerate(test_seqs)}

    def draw(seq_id: str) -> list:
        hs = missing[seq_id]
        net_config = models[hs[0]][1]
        seq = run.features(test_seqs[position[seq_id]], "test", net_config.input_dim,
                           "the checkpoint's input_dim")
        params = {name: np.stack([models[h][0][name] for h in hs]) for name in models[hs[0]][0]}
        drawn = inference.mc_predict(
            params, net_config, seq.features, samples=samples, horizons=hs,
            seed=[_summary_seed(config["seed"], h, position[seq_id]) for h in hs])
        for h, summary in zip(hs, drawn):
            summary.names = models[h][2]
            artifacts.save_summary(summary, os.path.join(run.dir, paths[seq_id, h]))
        return drawn if reuse else []

    if missing:
        drawn, run.workers = _fork_map(draw, list(missing))
        found.update(((seq_id, h), s) for seq_id, summaries in zip(missing, drawn)
                     for h, s in zip(missing[seq_id], summaries))
    return {h: [found[seq.id, h] for seq in test_seqs] for h in horizons} if reuse else {}


def cmd_predict(config: dict, run: _Run, args: argparse.Namespace) -> None:
    _summaries(config, run, run.sequences("test"), reuse=False)


def cmd_evaluate(config: dict, run: _Run, args: argparse.Namespace) -> None:
    train_seqs = run.sequences("train")
    test_seqs = run.sequences("test", like=("train", train_seqs[0]))
    methods = [m.lower() for m in config["eval"].methods]
    names = test_seqs[0].names
    subset = _instrument_subset(config, names)
    sub_names = tuple(names[j] for j in subset)
    summaries = _summaries(config, run, test_seqs) if "model" in methods else {}
    modes = [mode for mode in baselines.MODES if f"{mode}hist" in methods]
    for h in config["horizons"]:
        targets = [labels.compute_targets(s, h) for s in test_seqs]
        remaining = [t.remaining[:, subset] for t in targets]
        table: dict[str, metrics.MetricsReport] = {}
        # Both modes fit from one set of train targets, in memory only:
        # baseline files are the 'baseline' command's.
        train_targets = [labels.compute_targets(s, h) for s in train_seqs] if modes else None
        for mode in modes:
            model = baselines.fit_baseline(train_seqs, h, bins=config["eval"].bins, mode=mode,
                                           targets=train_targets)
            preds = [baselines.predict_baseline(model, duration=s.n_frames)[:, subset]
                     for s in test_seqs]
            table[f"{mode}hist"] = metrics.evaluate_predictions(preds, remaining, h,
                                                                names=sub_names)
        if "model" in methods:
            preds = [s.reg_mean[:, subset] for s in summaries.pop(h)]
            table["model"] = metrics.evaluate_predictions(preds, remaining, h, names=sub_names)
        csv_path, json_path = run.claim(os.path.join("reports", f"metrics_h{h:g}.csv"),
                                        os.path.join("reports", f"metrics_h{h:g}.json"))
        reports.write_metrics_table(table, csv_path, json_path)


def cmd_analyze(config: dict, run: _Run, args: argparse.Namespace) -> None:
    percentiles = config["analysis"].percentiles
    use_std = config["analysis"].use_std
    trigger_cfg = config["analysis"].trigger
    test_seqs = run.sequences("test")
    k = test_seqs[0].n_instruments
    for key, j in (trigger_cfg or {}).items():
        if j >= k:
            raise ConfigError(f"analysis.trigger.{key}: instrument {j} out of range "
                              f"for {k} instruments")
    by_horizon = _summaries(config, run, test_seqs)
    for h in config["horizons"]:
        summaries = by_horizon.pop(h)  # popped, so freed before the next horizon's arrays
        targets = [labels.compute_targets(s, h) for s in test_seqs]
        names = test_seqs[0].names
        pool = analysis.pooled(summaries, targets)

        pcc = analysis.error_uncertainty_pcc(pool, use_std=use_std)
        curves = analysis.filter_by_uncertainty(pool, percentiles=percentiles)
        tpfp = analysis.tp_fp_uncertainty(pool)
        if all(np.isnan(r.value) and r.count == 0 for r in pcc) and \
                all(res.tp.count == 0 and res.fp.count == 0 for res in tpfp):
            raise EmptyResultError(
                f"no anticipating predictions anywhere at horizon {h:g}; nothing to analyze"
            )
        pcc_path, filter_path, tpfp_path = run.claim(
            *(os.path.join("reports", f"analysis_{name}_h{h:g}.csv")
              for name in ("pcc", "filtering", "tpfp"))
        )
        reports.write_pcc_csv(pcc, pcc_path, names)
        reports.write_filter_csv(curves, filter_path, names)
        reports.write_tpfp_csv(tpfp, tpfp_path, names)

        trigger_result = None
        if trigger_cfg:
            trigger_result = analysis.trigger_conditional_uncertainty(
                pool, target=trigger_cfg["target"], trigger=trigger_cfg["trigger"],
                memory_frames=config["analysis"].memory_frames,
            )
            trig_path, = run.claim(os.path.join("reports", f"analysis_trigger_h{h:g}.csv"))
            reports.write_trigger_csv(trigger_result, trig_path, names)

        if args.plots:
            for j, name in enumerate(names):
                sel = pool["reg_mask"][:, j]
                if sel.sum() < 2:
                    continue
                p, = run.claim(os.path.join("plots", f"error_uncertainty_{name}_h{h:g}.svg"))
                errors = np.abs(pool["reg_mean"][sel, j] - pool["remaining"][sel, j])
                reports.plot_error_uncertainty(errors, pool["reg_var"][sel, j], p, title=name)
            p, = run.claim(os.path.join("plots", f"filtering_h{h:g}.svg"))
            reports.plot_filter_curves(curves, p, names)
            if trigger_result is not None:
                p, = run.claim(os.path.join("plots", f"trigger_h{h:g}.svg"))
                reports.plot_trigger_box(trigger_result, p)


COMMANDS = {
    "simulate": cmd_simulate, "baseline": cmd_baseline, "train": cmd_train,
    "predict": cmd_predict, "evaluate": cmd_evaluate, "analyze": cmd_analyze,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticipation",
        description="Anticipate sparse instrument usage in procedural timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="run directory for artifacts")
        p.add_argument("--overwrite", action="store_true",
                       help="allow replacing artifacts in an existing run directory")
        if name != "simulate":
            p.add_argument("--data", default=None,
                           help="dataset directory (default: <out>/dataset)")
        if name == "baseline":
            p.add_argument("--mode", choices=baselines.MODES, default="mean")
        if name == "analyze":
            p.add_argument("--plots", action="store_true", help="emit SVG plots")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    run = _Run(args, config)
    try:
        COMMANDS[args.command](config, run, args)
    except BaseException as exc:
        # List what the command wrote before it failed; a failure to do so
        # must not hide the command's own error.
        with contextlib.suppress(OSError):
            run.record(args.command, config, error=str(exc) or type(exc).__name__)
        raise
    run.record(args.command, config)
    print(f"{args.command}: wrote {len(run.claimed)} artifact(s) under {args.out}")
    return EXIT_OK


# glibc's mallopt(3) parameters, and the values the CLI sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling on 64-bit hosts


def _keep_freed_memory() -> None:
    """Keep freed heap memory mapped for the rest of the process.

    By default glibc returns the top of the heap to the OS once more than a
    dynamic threshold of it is free, and maps each large block afresh, so
    every training window faults its freed temporaries back in.  Fixing
    both thresholds keeps those pages mapped; setting only one would still
    switch off the dynamic mmap threshold and map every large block anew.
    Nothing computed changes.  Where ``mallopt`` is missing (macOS,
    Windows) or ignored (musl), this does nothing.
    """
    with contextlib.suppress(OSError, AttributeError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv: Optional[list[str]] = None) -> int:
    # Allocator and exit policy belong to the process's owner, so the entry
    # point sets them and importing the package leaves them alone.  Frozen at
    # exit, the heap is neither collected nor torn down; registered afresh,
    # gc.freeze stays one handler however often main runs.
    _keep_freed_memory()
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnnotationParseError, InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())
