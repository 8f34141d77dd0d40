#!/usr/bin/env python3
"""Train the recurrent predictor on a trigger relationship.

The network (feature encoder -> LSTM -> regression + class heads) sees only
per-frame features.  Because instrument 1 always follows instrument 0 by
60 frames, a trained model learns to start the countdown when the trigger
appears.  Dropout masks are sampled once per video and reused across time
steps, so one mask set is one posterior sample of the weights.
"""

import time

import numpy as np

import anticipation as ant
from anticipation.metrics import wmae

H = 2.0

sim = ant.SimConfig(
    instruments=2, phases=2, duration_mean=360, duration_std=40,
    phase_plan=(ant.PhaseSpec(180, 40), ant.PhaseSpec(180, 40)),
    usage_rules=(ant.UsageRule(0, 0, 1.0, length_mean=18, length_std=3),
                 ant.UsageRule(0, 1, 1.0, length_mean=18, length_std=3)),
    trigger_rules=(ant.TriggerRule(0, 1, delay_mean=60, probability=1.0,
                                   length_mean=10, length_std=2),),
    features=ant.FeatureSpec(noise_std=0.05),
)
data = ant.generate_dataset(sim, n=8, seed=11)
train_set, test_set = data[:6], data[6:]

net = ant.NetworkConfig(
    input_dim=4, instruments=2, hidden=24, encoder=(24,),
    dropout=0.2, horizon=H, lambda_cls=0.2, weight_decay=1e-5,
    learning_rate=3e-3, window=128, accum_steps=3, epochs=40, seed=0,
)
params = ant.init_params(net, seed=net.seed)
print(f"network: {sum(v.size for v in params.values())} parameters, "
      f"window {net.window} frames, {net.accum_steps} windows per update")

t0 = time.time()
params, log = ant.train(train_set, net)
print(f"trained {net.epochs} epochs on {len(train_set)} videos "
      f"in {time.time() - t0:.1f}s")
for row in log[:: max(1, len(log) // 5)]:
    print(f"  epoch {row['epoch']:3d}  total {row['total']:7.4f}  "
          f"regression {row['regression']:7.4f}  classification {row['classification']:7.4f}")

# Held-out error vs the untrained starting point.
fresh = ant.init_params(net, seed=net.seed)
for label, p in (("untrained", fresh), ("trained", params)):
    scores = []
    for i, seq in enumerate(test_set):
        summary = ant.mc_predict(p, net, seq.features, samples=10, seed=50 + i)
        r = ant.compute_targets(seq, H).remaining
        scores.append(wmae(np.clip(summary.reg_mean, 0, H), r, H))
    print(f"{label:10s} test wMAE per instrument: {np.round(np.nanmean(scores, axis=0), 3)}")

# Checkpoints round-trip exactly (float64 binary + JSON header).  load_checkpoint,
# the one checkpoint reader, builds the config from the input width it reads;
# holding the config already, pass a function that returns it.
import tempfile, os
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.bin")
    ant.save_params(params, path, net)
    again, _, _ = ant.load_checkpoint(path, lambda width: net)
    assert all(np.array_equal(again[k], params[k]) for k in params)
    print(f"checkpoint round trip exact ({os.path.getsize(path)} bytes)")
