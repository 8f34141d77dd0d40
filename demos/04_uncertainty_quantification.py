#!/usr/bin/env python3
"""Monte-Carlo dropout: predictive means, variances, and their quality.

Running T forward passes with resampled dropout masks approximates the
predictive distribution.  The spread across samples is the epistemic
(model) uncertainty; the average multinomial variance p(1-p) of the class
probabilities is the aleatoric (data) uncertainty.  Good uncertainty
estimates correlate with errors, so filtering uncertain predictions
improves the precision-style pMAE.
"""

import numpy as np

import anticipation as ant
from anticipation.analysis import (
    error_uncertainty_pcc,
    filter_by_uncertainty,
    pooled,
    tp_fp_uncertainty,
)

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
    instrument_names=("clip_tool", "cut_tool", "bag_tool"),
)
data = ant.generate_dataset(sim, n=20, seed=7100)
train_set, test_set = data[:12], data[12:]

net = ant.NetworkConfig(
    input_dim=6, instruments=3, hidden=32, encoder=(32,), dropout=0.2,
    horizon=H, lambda_cls=1.0, weight_decay=1e-5,
    learning_rate=2e-3, window=128, accum_steps=3, epochs=60, seed=2,
)
params, _ = ant.train(train_set, net)

summaries = [ant.mc_predict(params, net, s.features, samples=10, seed=500 + i)
             for i, s in enumerate(test_set)]
targets = [ant.compute_targets(s, H) for s in test_set]

s0 = summaries[0]
reg_mask, cls_mask = ant.anticipating_mask(s0)
print(f"{test_set[0].id}: {s0.n_frames} frames, T = {s0.samples} samples")
print(f"  anticipating predictions: regression-side {reg_mask.sum()}, "
      f"class-side {cls_mask.sum()}")
i = int(np.flatnonzero(reg_mask[:, 1])[0]) if reg_mask[:, 1].any() else 0
print(f"  example frame {i}, cut_tool: f_hat {s0.reg_mean[i, 1]:.2f} min, "
      f"epistemic var {s0.reg_epistemic_var[i, 1]:.4f}, "
      f"p_hat {np.round(s0.class_mean[i, 1], 2)}, "
      f"class epi {s0.class_epistemic_var[i, 1]:.4f}, "
      f"alea {s0.class_aleatoric_var[i, 1]:.4f}")

print("\nerror-uncertainty correlation (PCC per instrument; the triggered cut_tool,"
      "\nwhose frames span hard guesses and easy countdowns, correlates clearest):")
pool = pooled(summaries, targets)
for name, res in zip(sim.instrument_names, error_uncertainty_pcc(pool)):
    shown = "absent: " + res.reason if np.isnan(res.value) else f"{res.value:+.3f}"
    print(f"  {name:10s} {shown}  ({res.count} anticipating predictions)")

print("\npMAE after keeping only the least (epistemically) uncertain predictions:")
curves = filter_by_uncertainty(pool, percentiles=[25, 50, 75, 100])
for name, curve in zip(sim.instrument_names, curves):
    cells = "  ".join(f"{q:3.0f}%: {v:5.3f}" for q, v in zip(curve.percentiles, curve.pmae))
    print(f"  {name:10s} {cells}")

print("\nanticipating-class TP vs FP uncertainty (medians):")
for name, res in zip(sim.instrument_names, tp_fp_uncertainty(pool)):
    print(f"  {name:10s} TP n={res.tp.count:5d} alea {res.tp.median_aleatoric:.4f} | "
          f"FP n={res.fp.count:5d} alea {res.fp.median_aleatoric:.4f}")
