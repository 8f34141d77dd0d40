#!/usr/bin/env python3
"""Pipeline benchmark for the ``anticipation`` command-line tool.

Run from the repository root::

    python3 perfbench/run.py --workload long_timelines --seed 1 --seconds 58 --trace 0

A run derives one CLI config from ``--seed`` and repeats the workload's
chain of stages (``simulate`` ... ``analyze``) in fresh run directories
while the next chain is expected to end within ``--seconds``.  Every
stage is its own child process, started the way a user starts it
(``python -m anticipation <stage>``), with BLAS/OpenMP pinned to one
thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, the seeds and every raw stage time.

``--trace 0`` reports the end-to-end metrics, each the median over the
chains of the run, with stage times scaled to a reference host speed (see
``YARDSTICK_ARGV``).  ``--trace 1`` runs pairs of one untraced chain and
one traced chain, whose stages run through ``traced_stage.py``; it reports
per-layer self times and counts (medians over the traced chains, summed
over the stages of a chain, not scaled) and the tracing overhead, the
traced minus the untraced median scaled pipeline time.

Every stage invocation is one operation.  It fails when the stage exits
non-zero or an output check fails: every artifact the manifest lists must
re-hash to its recorded SHA-256 and be byte-identical to the same stage's
artifacts in the run's first chain (same seed, same code), every wMAE and
pMAE in ``metrics_h*.json`` must be finite and within [0, h] (a pMAE the
table leaves null because no prediction was selected is allowed), and in
a traced stage the layer self times must add up to the stage's traced time.

Which end-to-end metric each layer metric should move, and where::

    cli.import_s             every stage time; pipeline_s on many_short
    cli.self_s               pipeline_s on many_short (config, argparse, manifest SHA-256)
    cli.process_s            every stage time (interpreter start and exit outside the spans)
    workflow.generate_s, workflow.save_s              setup_s on many_short
    workflow.load_s, workflow.sequences_loaded        baseline_s, evaluate_s on many_short
    labels.targets_s, labels.targets_computed         evaluate_s on many_short
    baselines.fit_s, baselines.fits, baselines.predict_s   baseline_s, evaluate_s on many_short
    network.train_step_s, network.train_step_us_per_frame, network.adam_s,
    network.adam_us_per_step, network.adam_steps,
    network.train_self_s                              train_frames_per_s on long_timelines
    network.forward_s, network.forward_us_per_frame,
    network.forward_calls                             predict_frames_per_s on long_timelines
    network.checkpoint_s                              predict_frames_per_s on many_short
    inference.mc_self_s, inference.aggregate_s        predict_frames_per_s on long_timelines
    inference.summary_write_s, inference.summary_bytes     predict_frames_per_s on many_short
    inference.summary_read_s, inference.summaries_read     evaluate_s, analyze_s on many_short
    metrics.evaluate_s                                evaluate_s
    analysis.s                                        analyze_s
    reports.write_s                                   evaluate_s, analyze_s
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACED_STAGE = os.path.join(HERE, "traced_stage.py")

# Thread settings handed to every stage process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A stage that runs longer than this is killed, so a run ends within 180 s.
STAGE_TIMEOUT_S = 120.0

# The speed the shared host gives one process swings by up to 1.5x, in
# phases of seconds to minutes that can cover a whole run, so no statistic
# over one run's wall times removes it.  Every stage time in the end-to-end
# metrics is therefore scaled to a reference host speed: this yardstick --
# start Python and import NumPy, fixed work the program cannot change -- runs
# before the first stage and after each stage, and a stage's wall time is
# multiplied by YARDSTICK_REFERENCE_S over the mean yardstick time just
# before and just after it.  YARDSTICK_REFERENCE_S is about what the
# yardstick takes on an idle 2-vCPU x86-64 VM, so scaled times read as
# seconds on such a host.
YARDSTICK_ARGV = [sys.executable, "-I", "-c", "import numpy"]
YARDSTICK_REFERENCE_S = 0.1

# Tolerance of the self-time identity, per stage, in seconds.
SELF_TIME_TOLERANCE_S = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "baseline_s": "s",
    "evaluate_s": "s",
    "analyze_s": "s",
    "train_frames_per_s": "1/s",
    "predict_frames_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "model_wmae": "min",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.process_s": "s",
    "workflow.generate_s": "s",
    "workflow.save_s": "s",
    "workflow.load_s": "s",
    "workflow.sequences_loaded": "count",
    "labels.targets_s": "s",
    "labels.targets_computed": "count",
    "baselines.fit_s": "s",
    "baselines.fits": "count",
    "baselines.predict_s": "s",
    "network.train_step_s": "s",
    "network.train_step_us_per_frame": "us",
    "network.adam_s": "s",
    "network.adam_us_per_step": "us",
    "network.adam_steps": "count",
    "network.train_self_s": "s",
    "network.forward_s": "s",
    "network.forward_us_per_frame": "us",
    "network.forward_calls": "count",
    "network.checkpoint_s": "s",
    "inference.mc_self_s": "s",
    "inference.aggregate_s": "s",
    "inference.summary_write_s": "s",
    "inference.summary_bytes": "B",
    "inference.summary_read_s": "s",
    "inference.summaries_read": "count",
    "metrics.evaluate_s": "s",
    "analysis.s": "s",
    "reports.write_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    n_train: int
    n_test: int
    frames: int
    hidden: int
    encoder: tuple[int, ...]
    epochs: int
    samples: int
    horizons: tuple[float, ...]


STAGES = ("simulate", "baseline", "train", "predict", "evaluate", "analyze")

# All workloads run every stage on the trigger scenario of demos/05 at the
# default fps; why each exists is recorded in BENCHMARK.json.  ``baseline``
# runs in every chain so that ``baseline_s`` exists everywhere.  Sizes keep
# one chain near 5-8 s, so that a 58 s run holds seven or more chains: fewer
# left the median of a run too noisy on a shared host.  That budget allows
# two workloads, so long timelines for training and for MC inference share
# one, at the default model size.
WORKLOADS = {
    "long_timelines": Workload(
        n_train=6, n_test=3, frames=1200,
        hidden=64, encoder=(64, 64), epochs=3, samples=16, horizons=(3.0,),
    ),
    "many_short": Workload(
        n_train=24, n_test=16, frames=150,
        hidden=16, encoder=(16,), epochs=3, samples=5, horizons=(1.0, 2.0, 3.0),
    ),
}


def derive_cli_seed(seed: int) -> int:
    """The config seed handed to the CLI, drawn from the benchmark seed.

    Hashing through ``SeedSequence`` keeps neighbouring benchmark seeds from
    giving neighbouring CLI seeds, which ``seed ^ index`` would map onto
    permutations of one another's sequences.
    """
    import numpy as np

    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def workload_config(w: Workload, cli_seed: int) -> dict:
    d = w.frames
    return {
        "seed": cli_seed,
        "horizons": list(w.horizons),
        "sim": {
            "instruments": 3, "phases": 3,
            # A small spread keeps stage times comparable across seeds.
            "duration_mean": d, "duration_std": round(0.02 * d),
            "phase_plan": [{"length_mean": d / 3, "length_std": d / 12}] * 3,
            "usage_rules": [
                {"instrument": 0, "phase": 1, "probability": 1.0, "length_mean": 12},
                {"instrument": 1, "phase": 2, "probability": 0.6, "length_mean": 12},
                {"instrument": 2, "phase": 2, "probability": 0.9, "length_mean": 25},
            ],
            "trigger_rules": [{"trigger": 0, "target": 1, "delay_mean": 60,
                               "delay_jitter": 10, "probability": 0.8, "length_mean": 12}],
            "features": {"noise_std": 0.05},
            "instrument_names": ["clip_tool", "cut_tool", "bag_tool"],
        },
        "split": {"n_train": w.n_train, "n_test": w.n_test},
        "model": {"hidden": w.hidden, "encoder": list(w.encoder), "lambda_cls": 0.5},
        "train": {"epochs": w.epochs, "learning_rate": 2e-3},
        "eval": {"samples": w.samples},
        "analysis": {"trigger": {"trigger": 0, "target": 1}},
    }


# ---------------------------------------------------------------------------
# Stage processes
# ---------------------------------------------------------------------------

@dataclass
class StageRun:
    stage: str
    wall_s: float
    max_rss_mb: float
    errors: list[str]
    spans: list | None = None
    # YARDSTICK_REFERENCE_S over the yardstick time around the stage.
    host_scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.host_scale


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], env: dict, log_path: str) -> tuple[float, int, float]:
    """Wall time, exit code and peak RSS (MB) of one child process."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, _kill, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_manifest(run_dir: str, stage: str, index: int) -> tuple[list[str], dict]:
    """Errors in the manifest entry of the ``index``-th stage, and its artifacts."""
    try:
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{stage}: unreadable manifest: {exc}"], {}
    if len(runs) != index + 1 or runs[-1].get("command") != stage:
        return [f"{stage}: manifest has {len(runs)} runs, expected {index + 1} ending in {stage}"], {}
    artifacts = runs[-1]["artifacts"]
    errors = []
    for rel, digest in artifacts.items():
        path = os.path.join(run_dir, rel)
        if not os.path.isfile(path) or sha256(path) != digest:
            errors.append(f"{stage}: artifact {rel} does not match its manifest SHA-256")
    return errors, artifacts


def check_metrics(run_dir: str) -> tuple[list[str], float]:
    """Errors in ``metrics_h*.json`` and the mean model wMAE over horizons."""
    errors, model = [], []
    paths = sorted(glob.glob(os.path.join(run_dir, "reports", "metrics_h*.json")))
    if not paths:
        return ["evaluate: no metrics_h*.json written"], math.nan
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
        name = os.path.basename(path)
        for method, report in table.items():
            h = report["horizon"]
            cells = [("mean", report["mean"])] + list(report["per_instrument"].items())
            for where, cell in cells:
                for key in ("wmae", "pmae"):
                    value = cell[key]
                    # null is how the table writes a pMAE with no selected
                    # prediction to average; a wMAE is always defined here.
                    if value is None and key == "pmae":
                        continue
                    if value is None or not math.isfinite(value) or not 0.0 <= value <= h:
                        errors.append(f"{name}: {method} {where} {key} = {value} not in [0, {h}]")
        if "model" not in table:
            errors.append(f"{name}: no model row")
        else:
            model.append(table["model"]["mean"]["wmae"])
    wmae = statistics.fmean(model) if model and None not in model else math.nan
    return errors, wmae


def count_frames(split_dir: str) -> int:
    frames = 0
    for path in glob.glob(os.path.join(split_dir, "*.csv")):
        if not path.endswith(".features.csv"):
            with open(path, "rb") as fh:
                frames += sum(1 for _ in fh) - 1
    return frames


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

NAME, FUNCTION, START, END, PARENT, STAGE, FRAMES = range(7)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - covered(span[START], span[END], kids)
            for span, kids in zip(spans, children)]


def check_self_time_sum(stage: str, spans: list, selfs: list[float]) -> list[str]:
    """Self times of a stage must add up to its top-level spans' durations."""
    traced = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    if abs(sum(selfs) - traced) > SELF_TIME_TOLERANCE_S:
        return [f"{stage}: layer self times sum to {sum(selfs)} s, traced stage time {traced} s"]
    return []


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(stages: list[StageRun], summary_bytes: int) -> dict:
    """Per-layer metrics of one traced chain, summed over its stages.

    The ``*_s`` self times, ``analysis.s`` and ``cli.process_s`` (each
    stage's wall time outside its top-level spans) add up to the chain's
    traced wall time.
    """
    self_s, calls, frames = defaultdict(float), defaultdict(int), defaultdict(int)
    fn_calls = defaultdict(int)
    process_s = 0.0
    for stage in stages:
        process_s += stage.wall_s - sum(s[END] - s[START] for s in stage.spans if s[PARENT] < 0)
        for span, own in zip(stage.spans, self_times(stage.spans)):
            self_s[span[NAME]] += own
            calls[span[NAME]] += 1
            frames[span[NAME]] += span[FRAMES]
            fn_calls[span[FUNCTION]] += 1
    return {
        "cli.import_s": self_s["cli.import"],
        "cli.self_s": self_s["cli.main"],
        "cli.process_s": process_s,
        "workflow.generate_s": self_s["workflow.generate"],
        "workflow.save_s": self_s["workflow.save"],
        "workflow.load_s": self_s["workflow.load"],
        "workflow.sequences_loaded": fn_calls["load_annotations"],
        "labels.targets_s": self_s["labels.targets"],
        "labels.targets_computed": calls["labels.targets"],
        "baselines.fit_s": self_s["baselines.fit"],
        "baselines.fits": calls["baselines.fit"],
        "baselines.predict_s": self_s["baselines.predict"],
        "network.train_step_s": self_s["network.train_step"],
        "network.train_step_us_per_frame": _ratio(
            self_s["network.train_step"], frames["network.train_step"], 1e6),
        "network.adam_s": self_s["network.adam"],
        "network.adam_us_per_step": _ratio(self_s["network.adam"], calls["network.adam"], 1e6),
        "network.adam_steps": calls["network.adam"],
        "network.train_self_s": self_s["network.train"],
        "network.forward_s": self_s["network.forward"],
        "network.forward_us_per_frame": _ratio(
            self_s["network.forward"], frames["network.forward"], 1e6),
        "network.forward_calls": calls["network.forward"],
        "network.checkpoint_s": self_s["network.checkpoint"],
        "inference.mc_self_s": self_s["inference.mc"],
        "inference.aggregate_s": self_s["inference.aggregate"],
        "inference.summary_write_s": self_s["inference.summary_write"],
        "inference.summary_bytes": summary_bytes,
        "inference.summary_read_s": self_s["inference.summary_read"],
        "inference.summaries_read": calls["inference.summary_read"],
        "metrics.evaluate_s": self_s["metrics.evaluate"],
        "analysis.s": self_s["analysis"],
        "reports.write_s": self_s["reports.write"],
    }


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

@dataclass
class Chain:
    traced: bool
    stages: list[StageRun]
    train_frames: int = 0
    test_frames: int = 0
    model_wmae: float = math.nan
    summary_bytes: int = 0

    @property
    def complete(self) -> bool:
        return all(not s.errors for s in self.stages)


class Bench:
    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.workload = WORKLOADS[name]
        self.cli_seed = derive_cli_seed(seed)
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(workload_config(self.workload, self.cli_seed), fh, indent=1)
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        self.reference: dict[str, dict] = {}
        self.chains: list[Chain] = []
        self.untraced_functions: set[str] = set()

    def warm_up(self) -> None:
        """Compile the package and load its libraries once, untimed."""
        probe = "import anticipation.cli, sys; sys.stdout.write(anticipation.__file__)"
        out = subprocess.run([sys.executable, "-c", probe], env=self.env, cwd=ROOT,
                             capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
        expected = os.path.join(SRC, "anticipation", "__init__.py")
        if out.returncode != 0 or os.path.realpath(out.stdout) != os.path.realpath(expected):
            raise SystemExit(f"perfbench: cannot import anticipation from {SRC}:\n{out.stderr}")

    def yardstick(self) -> float:
        # run_process waits in wait4, not in subprocess's polling loop,
        # whose sleeps would round the time up by up to 50 ms.
        wall, code, _ = run_process(YARDSTICK_ARGV, self.env, os.devnull)
        if code != 0:
            raise SystemExit(f"perfbench: yardstick {YARDSTICK_ARGV} exited {code}")
        return wall

    def run_chain(self) -> Chain:
        # Traced runs alternate which side of a pair goes first: U T T U U T ...
        traced = self.trace and len(self.chains) % 4 in (1, 2)
        index = len(self.chains)
        run_dir = os.path.join(self.dir, f"run{index}")
        chain = Chain(traced=traced, stages=[])
        before = self.yardstick()
        for i, stage in enumerate(STAGES):
            cli_args = [stage, "--config", self.config_path, "--out", run_dir]
            spans_path = os.path.join(self.dir, f"spans{index}_{stage}.json")
            if traced:
                argv = [sys.executable, TRACED_STAGE, spans_path, stage] + cli_args
            else:
                argv = [sys.executable, "-m", "anticipation"] + cli_args
            log_path = os.path.join(self.dir, f"log{index}_{stage}.txt")
            wall, code, rss = run_process(argv, self.env, log_path)
            after = self.yardstick()
            run = StageRun(stage, wall, rss, [],
                           host_scale=2 * YARDSTICK_REFERENCE_S / (before + after))
            before = after
            chain.stages.append(run)
            if code != 0:
                with open(log_path, encoding="utf-8", errors="replace") as fh:
                    run.errors.append(f"{stage}: exit code {code}: {fh.read()[-2000:]}")
                break
            self.check_stage(run, chain, run_dir, i, spans_path)
            if run.errors:
                break
        self.chains.append(chain)
        shutil.rmtree(run_dir, ignore_errors=True)
        return chain

    def check_stage(self, run: StageRun, chain: Chain, run_dir: str, i: int,
                    spans_path: str) -> None:
        errors, artifacts = check_manifest(run_dir, run.stage, i)
        reference = self.reference.setdefault(run.stage, artifacts)
        if not errors and artifacts != reference:
            errors.append(f"{run.stage}: artifacts differ from the first chain of this seed")
        if run.stage == "simulate":
            chain.train_frames = count_frames(os.path.join(run_dir, "dataset", "train"))
            chain.test_frames = count_frames(os.path.join(run_dir, "dataset", "test"))
        elif run.stage == "predict":
            chain.summary_bytes = sum(
                os.path.getsize(p) for p in glob.glob(os.path.join(run_dir, "summaries", "*")))
        elif run.stage == "evaluate":
            metric_errors, chain.model_wmae = check_metrics(run_dir)
            errors += metric_errors
        if chain.traced:
            with open(spans_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            run.spans = trace["spans"]
            self.untraced_functions.update(trace["missing"])
            errors += check_self_time_sum(run.stage, run.spans, self_times(run.spans))
        run.errors = errors

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, chain: Chain) -> dict:
        w = self.workload
        wall = {s.stage: s.scaled_s for s in chain.stages}
        return {
            "setup_s": wall["simulate"],
            "baseline_s": wall["baseline"],
            "evaluate_s": wall["evaluate"],
            "analyze_s": wall["analyze"],
            "train_frames_per_s": chain.train_frames * w.epochs * len(w.horizons) / wall["train"],
            "predict_frames_per_s":
                chain.test_frames * w.samples * len(w.horizons) / wall["predict"],
            "pipeline_s": sum(wall.values()),
            "peak_rss_mb": max(s.max_rss_mb for s in chain.stages),
            "model_wmae": chain.model_wmae,
        }

    def metrics(self) -> dict:
        untraced = [self.end_to_end(c) for c in self.chains if not c.traced and c.complete]
        if not self.trace:
            return {k: statistics.median(m[k] for m in untraced) for k in END_TO_END_UNITS}
        traced_chains = [c for c in self.chains if c.traced and c.complete]
        layers = [layer_metrics(c.stages, c.summary_bytes) for c in traced_chains]
        out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        out["trace.overhead_s"] = (
            statistics.median(self.end_to_end(c)["pipeline_s"] for c in traced_chains)
            - statistics.median(m["pipeline_s"] for m in untraced))
        return out

    def environment(self) -> dict:
        versions = {}
        for dist in ("numpy", "scipy"):
            try:
                versions[dist] = metadata.version(dist)
            except metadata.PackageNotFoundError:
                versions[dist] = None
        return {
            "workload": self.name, "seed": self.seed, "cli_seed": self.cli_seed,
            "trace": self.trace, "chains": len(self.chains),
            "untraced_functions": sorted(self.untraced_functions),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_env": THREAD_ENV,
            "python": platform.python_version(), **versions,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "anticipation", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through run_process so the running stage is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed, bool(args.trace))
    bench.warm_up()
    # Chains run in groups (an untraced-traced pair when tracing) for as
    # long as the next group is expected to end within --seconds.
    group = 2 if bench.trace else 1
    start = time.perf_counter()
    longest = 0.0
    while True:
        group_start = time.perf_counter()
        if not all(bench.run_chain().complete for _ in range(group)):
            break
        now = time.perf_counter()
        longest = max(longest, now - group_start)
        if now - start + longest > args.seconds:
            break

    errors = [e for c in bench.chains for s in c.stages for e in s.errors]
    attempted = sum(len(c.stages) for c in bench.chains)
    failed = sum(1 for c in bench.chains for s in c.stages if s.errors)
    units = PER_LAYER_UNITS if bench.trace else END_TO_END_UNITS
    metrics = {} if errors else bench.metrics()
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    record = {"environment": bench.environment(),
              "chain_stage_wall_s": [{("traced " if c.traced else "") + s.stage: s.wall_s
                                      for s in c.stages} for c in bench.chains],
              "chain_stage_host_scale": [[s.host_scale for s in c.stages]
                                         for c in bench.chains]}
    with open(os.path.join(bench.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
