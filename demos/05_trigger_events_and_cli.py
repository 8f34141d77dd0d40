#!/usr/bin/env python3
"""Trigger-event detection through uncertainty, plus the CLI pipeline.

When instrument 0 (the trigger) is on screen, the model has concrete
evidence that instrument 1 is coming, so its anticipating predictions are
more certain than the ones it hazards from workflow context alone.  The
same analysis is then reproduced through the command-line pipeline, which
writes deterministic artifacts plus a checksum manifest.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import anticipation as ant
from anticipation.analysis import pooled, trigger_conditional_uncertainty

H = 3.0

sim = ant.SimConfig(
    instruments=3, phases=3, duration_mean=600, duration_std=80,
    phase_plan=(ant.PhaseSpec(200, 60),) * 3,
    usage_rules=(
        ant.UsageRule(0, 1, 1.0, length_mean=12, length_std=2),
        ant.UsageRule(1, 2, 0.6, length_mean=12, length_std=2),
        ant.UsageRule(2, 0, 0.5, length_mean=20, length_std=5),
        ant.UsageRule(2, 2, 0.9, length_mean=30, length_std=8),
    ),
    trigger_rules=(ant.TriggerRule(0, 1, delay_mean=60, delay_jitter=10, probability=0.8,
                                   length_mean=12, length_std=2),),
    features=ant.FeatureSpec(noise_std=0.05),
)
data = ant.generate_dataset(sim, n=20, seed=7100)
train_set, test_set = data[:12], data[12:]
net = ant.NetworkConfig(input_dim=6, instruments=3, hidden=32, encoder=(32,),
                        dropout=0.2, horizon=H, lambda_cls=1.0, weight_decay=1e-5,
                        learning_rate=2e-3, window=128, accum_steps=3, epochs=60, seed=2)
params, _ = ant.train(train_set, net)
summaries = [ant.mc_predict(params, net, s.features, samples=10, seed=500 + i)
             for i, s in enumerate(test_set)]
targets = [ant.compute_targets(s, H) for s in test_set]

result = trigger_conditional_uncertainty(pooled(summaries, targets), target=1, trigger=0)
print("anticipating predictions for instrument 1, split by instrument 0 visibility:")
for cond in (result.visible, result.hidden):
    label = "trigger visible" if cond.visible else "trigger hidden "
    print(f"  {label}: n={cond.cls_count:5d}  median class-aleatoric "
          f"{cond.median_cls_aleatoric:.4f}  class-epistemic {cond.median_cls_epistemic:.5f}")
drop = result.hidden.median_cls_aleatoric - result.visible.median_cls_aleatoric
print(f"seeing the trigger lowers the median aleatoric uncertainty by {drop:.4f}\n")

# The same pipeline, driven through the CLI.
config = {
    "seed": 23,
    "horizons": [H],
    "sim": {
        "instruments": 3, "phases": 3, "duration_mean": 300, "duration_std": 40,
        "phase_plan": [{"length_mean": 100, "length_std": 25}] * 3,
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
    "split": {"n_train": 6, "n_test": 4},
    "model": {"hidden": 16, "encoder": [16], "dropout": 0.2, "lambda_cls": 0.5},
    "train": {"epochs": 10, "learning_rate": 2e-3},
    "eval": {"samples": 5, "bins": 200},
    "analysis": {"percentiles": [50, 100], "trigger": {"trigger": 0, "target": 1}},
}
with tempfile.TemporaryDirectory() as tmp:
    config_path = os.path.join(tmp, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(tmp, "run")
    for command in ("simulate", "train", "evaluate", "analyze"):
        subprocess.run([sys.executable, "-m", "anticipation", command,
                        "--config", config_path, "--out", out], check=True)
    print("\nmetrics table written by the CLI (a miniature run that exercises the "
          "plumbing, not model quality):")
    print(Path(out, "reports", "metrics_h3.csv").read_text().strip())
    manifest = json.loads(Path(out, "manifest.json").read_text())
    total = sum(len(r["artifacts"]) for r in manifest["runs"])
    print(f"\nmanifest records {total} artifact checksums across "
          f"{len(manifest['runs'])} commands")
