#!/usr/bin/env python3
"""Generate synthetic procedures and round-trip them through annotation and feature files.

A procedure is a few hundred frames (1 fps) of per-instrument presence
flags, a phase index, and observable feature vectors.  Instrument 0 acts
as a trigger: whenever it appears, instrument 1 follows 60 frames later.
"""

import os
import tempfile

import numpy as np

import anticipation as ant
from anticipation.workflow import instrument_onsets

config = ant.SimConfig(
    instruments=3,
    phases=3,
    duration_mean=500,
    duration_std=60,
    phase_plan=(ant.PhaseSpec(160, 40), ant.PhaseSpec(170, 40), ant.PhaseSpec(170, 40)),
    usage_rules=(
        ant.UsageRule(instrument=0, phase=1, probability=1.0, length_mean=20, length_std=4),
        ant.UsageRule(instrument=2, phase=2, probability=0.9, length_mean=30, length_std=8),
    ),
    trigger_rules=(
        ant.TriggerRule(trigger=0, target=1, delay_mean=60, probability=1.0,
                        length_mean=12, length_std=2),
    ),
    features=ant.FeatureSpec(noise_std=0.05),
    instrument_names=("clip_tool", "cut_tool", "bag_tool"),
)

dataset = ant.generate_dataset(config, n=5, seed=42)
print(f"generated {len(dataset)} procedures, durations "
      f"{[s.n_frames for s in dataset]} frames")

seq = dataset[0]
print(f"\n{seq.id}: {seq.n_frames} frames, {seq.n_instruments} instruments, "
      f"feature dim {seq.feature_dim}")
for j, name in enumerate(seq.names):
    onsets = instrument_onsets(seq.presence[:, j])
    frac = seq.presence[:, j].mean()
    print(f"  {name:10s} present {frac:6.1%} of frames, onsets at {onsets.tolist()}")

trigger_on = instrument_onsets(seq.presence[:, 0])
target_on = instrument_onsets(seq.presence[:, 1])
print(f"\ntrigger rule check: cut_tool onsets minus 60 = "
      f"{(target_on - 60).tolist()} (all clip_tool onsets)")

# Round trip through the generic CSV annotation format.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "proc.csv")
    ant.save_annotations(seq, path)
    again = ant.load_annotations(path, format="generic_csv")
    assert np.array_equal(again.presence, seq.presence)
    assert np.array_equal(again.phase, seq.phase)
    print(f"round trip through {os.path.basename(path)}: presence and phase identical")

    feat_path = os.path.join(tmp, "proc.features.csv")
    ant.save_features(seq.features, feat_path)
    restored = ant.attach_features(again, feat_path)
    assert np.array_equal(restored.features, seq.features)
    print(f"features reattached from {os.path.basename(feat_path)}: "
          f"shape {restored.features.shape}, identical")

# Features decode the scene: instrument k owns feature column k, so
# correlate each frame with those axes.
inst_sig = np.eye(config.instruments, config.feature_dim)
frame = seq.features[trigger_on[0]]
scores = frame @ inst_sig.T
print(f"\nfeature vector at the first clip_tool onset correlates with signatures as "
      f"{np.round(scores, 2)} -> instrument {int(scores.argmax())} is visible")
