#!/usr/bin/env python3
"""Remaining-time targets and the two histogram baselines.

The regression target for every (frame, instrument) is the time in minutes
until the instrument next appears, truncated at a horizon h; each frame
also gets one of three classes (anticipating / present / background).
MeanHist and OracleHist threshold a temporal occurrence histogram and
expand it to the mean or the true video duration.  Each fitted baseline is
saved as a container file in a temporary directory and loaded back bit for
bit.
"""

import os
import tempfile

import numpy as np

import anticipation as ant
from anticipation.labels import CLASS_NAMES

H = 3.0  # minutes

config = ant.SimConfig(
    instruments=2, phases=3, duration_mean=500, duration_std=90,
    phase_plan=(ant.PhaseSpec(170, 50),) * 3,
    usage_rules=(
        ant.UsageRule(0, 1, 1.0, length_mean=18, length_std=4),
        ant.UsageRule(1, 2, 0.9, length_mean=25, length_std=6),
    ),
    instrument_names=("hook_tool", "bag_tool"),
)
data = ant.generate_dataset(config, n=16, seed=7)
train, test = data[:11], data[11:]

# Targets for one sequence.
seq = test[0]
targets = ant.compute_targets(seq, horizon=H)
first_onset = int(np.flatnonzero(seq.presence[:, 0])[0])
window = slice(max(0, first_onset - 5), first_onset + 3)
print(f"{seq.id}, instrument hook_tool around its first onset (frame {first_onset}):")
for i in range(*window.indices(seq.n_frames)):
    r = targets.remaining[i, 0]
    c = CLASS_NAMES[targets.classes[i, 0]]
    print(f"  frame {i:4d}  r = {r:5.3f} min  class = {c}")

# Fit both baselines and compare on the held-out videos.
print(f"\nhistogram baselines (horizon {H:g} min, 1000 bins):")
reports = {}
with tempfile.TemporaryDirectory() as tmp:
    for mode in ("mean", "oracle"):
        model = ant.fit_baseline(train, horizon=H, bins=1000, mode=mode)
        path = os.path.join(tmp, f"baseline_{mode}_h{H:g}.bin")
        ant.save_baseline(model, path)
        again = ant.load_baseline(path)
        assert again.hist.tobytes() == model.hist.tobytes()
        assert again.thresholds.tobytes() == model.thresholds.tobytes()
        preds = [ant.predict_baseline(model, duration=s.n_frames) for s in test]
        remaining = [ant.compute_targets(s, H).remaining for s in test]
        reports[mode] = ant.evaluate_predictions(preds, remaining, H, names=seq.names)
        occupied = model.bin_presence().sum(axis=1)
        print(f"  {mode:6s}: thresholds {model.thresholds.tolist()}, "
              f"estimated-present bins per instrument {occupied.tolist()}")
        print(f"          saved and reloaded bit for bit ({os.path.getsize(path)} bytes)")

print(f"\n{'method':10s} {'wMAE':>8s} {'pMAE':>8s}   (mean over instruments, minutes)")
for mode, report in reports.items():
    print(f"{mode + 'hist':10s} {report.mean_wmae:8.3f} {report.mean_pmae:8.3f}")
print("\nOracleHist reads the true video duration at prediction time, an offline "
      "advantage that pays off when durations vary; both stay within [0, h].")
