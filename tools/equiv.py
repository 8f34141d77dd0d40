#!/usr/bin/env python3
"""Byte equivalence of the ``anticipation`` pipeline between a git revision and this tree.

Run from anywhere in the repository::

    python tools/equiv.py --base HEAD

The revision ``--base`` is checked out with ``git worktree add --detach``
under ``.equiv_work/``.  Then the chain ``simulate, baseline, baseline
--mode oracle, train, predict, evaluate, analyze --plots`` runs on each
config, once with the revision's ``src/`` and once with this tree's, each
in a fresh run directory, every stage its own ``python -m anticipation``
process with BLAS pinned to one thread.  The configs are a tiny built-in
one and the configs of both perfbench workloads at benchmark seed 1,
taken read-only from ``perfbench/run.py``.  Every file the two chains
leave is compared byte for byte, manifests included.

The last line of standard output is one JSON object: the revision, the
number of files compared per config, the paths that differ (a file on one
side only differs too) and the stages that failed.  The exit code is 0 if
nothing differs and no stage failed, else 1.  The worktree and the run
directories are removed on exit.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".equiv_work")

CHAIN = (("simulate",), ("baseline",), ("baseline", "--mode", "oracle"), ("train",),
         ("predict",), ("evaluate",), ("analyze", "--plots"))

# Small enough for a chain of a few seconds; two horizons and a trigger rule,
# so lockstep training and the trigger analysis run too.
TINY_CONFIG = {
    "seed": 5,
    "horizons": [2.0, 3.0],
    "sim": {
        "instruments": 2, "phases": 2, "duration_mean": 150, "duration_std": 15,
        "phase_plan": [{"length_mean": 75, "length_std": 10}] * 2,
        "usage_rules": [
            {"instrument": 0, "phase": 0, "probability": 1.0, "length_mean": 12},
            {"instrument": 1, "phase": 1, "probability": 0.8, "length_mean": 10},
        ],
        "trigger_rules": [{"trigger": 0, "target": 1, "delay_mean": 20, "length_mean": 8}],
        "features": {"noise_std": 0.05},
        "instrument_names": ["probe", "lifter"],
    },
    "split": {"n_train": 3, "n_test": 2},
    "model": {"hidden": 8, "encoder": [8]},
    "train": {"epochs": 2, "window": 64},
    "eval": {"samples": 3, "bins": 20},
    "analysis": {"percentiles": [50, 100], "trigger": {"trigger": 0, "target": 1}},
}


def perfbench():
    """``perfbench/run.py`` as a module, imported without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def configs() -> dict[str, dict]:
    bench = perfbench()
    seed = bench.derive_cli_seed(1)
    return {"tiny": TINY_CONFIG,
            **{name: bench.workload_config(w, seed) for name, w in bench.WORKLOADS.items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_chain(src: str, config_path: str, run_dir: str, env: dict) -> list[str]:
    """Run the chain on one tree's ``src``; the failed stage, if any, as a message."""
    env = dict(env, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c",
                            "import anticipation; print(anticipation.__file__)"],
                           env=env, cwd=os.path.dirname(run_dir), capture_output=True, text=True)
    expected = os.path.join(src, "anticipation", "__init__.py")
    if os.path.realpath(probe.stdout.strip()) != os.path.realpath(expected):
        return [f"{src}: imports anticipation from {probe.stdout.strip() or probe.stderr[-500:]}"]
    for stage in CHAIN:
        proc = subprocess.run([sys.executable, "-m", "anticipation", *stage,
                               "--config", config_path, "--out", run_dir],
                              env=env, cwd=os.path.dirname(run_dir), capture_output=True, text=True)
        if proc.returncode != 0:
            return [f"{run_dir}: {' '.join(stage)} exited {proc.returncode}: {proc.stderr[-500:]}"]
    return []


def files(top: str) -> dict[str, str]:
    """Every file under ``top``, by its path relative to ``top``."""
    return {os.path.relpath(os.path.join(d, name), top): os.path.join(d, name)
            for d, _, names in os.walk(top) for name in names}


def compare(base_dir: str, change_dir: str) -> tuple[int, list[str]]:
    """The number of paths on either side, and those that differ."""
    base, change = files(base_dir), files(change_dir)
    differ = [rel for rel in sorted(base.keys() | change.keys())
              if rel not in base or rel not in change
              or not filecmp.cmp(base[rel], change[rel], shallow=False)]
    return len(base.keys() | change.keys()), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare this tree with")
    args = parser.parse_args(argv)
    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    work = os.path.join(WORK, str(os.getpid()))
    worktree = os.path.join(work, "worktree")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    report = {"base": args.base, "commit": commit, "compared": {}, "differ": [], "failed": []}
    os.makedirs(work)
    try:
        git("worktree", "add", "--detach", worktree, commit)
        for name, config in configs().items():
            config_path = os.path.join(work, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh, indent=1)
            runs = []
            for side, tree in (("base", worktree), ("change", ROOT)):
                runs.append(os.path.join(work, side, name))
                os.makedirs(os.path.dirname(runs[-1]), exist_ok=True)
                report["failed"] += run_chain(os.path.join(tree, "src"), config_path, runs[-1], env)
            count, differ = compare(*runs)
            report["compared"][name] = count
            report["differ"] += [f"{name}/{rel}" for rel in differ]
    finally:
        if os.path.isdir(worktree):
            git("worktree", "remove", "--force", worktree)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)  # unless another run is using it
        except OSError:
            pass
    print(json.dumps(report))
    return 1 if report["differ"] or report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
