"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria run fixed-seed synthetic pipelines whose
configurations were frozen after pilot runs; everything else is
property-based against independent oracles at the stated tolerances.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

import anticipation as ant
from anticipation import cli
from anticipation.analysis import (
    error_uncertainty_pcc,
    filter_by_uncertainty,
    pooled,
    trigger_conditional_uncertainty,
)
from anticipation.inference import aggregate_samples, mc_predict
from anticipation.metrics import pmae, wmae
from anticipation.network import compute_loss, forward, loss_and_gradients, sample_masks
from anticipation.workflow import (
    FeatureSpec,
    PhaseSpec,
    ProcedureSequence,
    SimConfig,
    TriggerRule,
    UsageRule,
)

from oracles import exhaustive_baseline_search, scan_forward_targets


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# Shared end-to-end runs (piloted, fixed seeds)
# ---------------------------------------------------------------------------

def trigger_sim_config():
    """Deterministic trigger A->B with 60 s delay and variable durations."""
    return SimConfig(
        instruments=3, phases=3, duration_mean=600.0, duration_std=90.0,
        phase_plan=(PhaseSpec(200, 70), PhaseSpec(200, 70), PhaseSpec(200, 70)),
        usage_rules=(
            UsageRule(0, 1, 1.0, length_mean=25, length_std=5),
            UsageRule(2, 2, 0.9, length_mean=30, length_std=8),
        ),
        trigger_rules=(TriggerRule(0, 1, delay_mean=60, delay_jitter=0, probability=1.0,
                                   length_mean=12, length_std=2),),
        features=FeatureSpec(noise_std=0.05),
    )


def uncertain_trigger_sim_config():
    """A fires B with probability 0.8 (jittered delay); B also appears on its
    own in the last phase; C is a distractor."""
    return SimConfig(
        instruments=3, phases=3, duration_mean=600.0, duration_std=80.0,
        phase_plan=(PhaseSpec(200, 60), PhaseSpec(200, 60), PhaseSpec(200, 60)),
        usage_rules=(
            UsageRule(0, 1, 1.0, length_mean=12, length_std=2),
            UsageRule(1, 2, 0.6, length_mean=12, length_std=2),
            UsageRule(2, 0, 0.5, length_mean=20, length_std=5),
            UsageRule(2, 2, 0.9, length_mean=30, length_std=8),
        ),
        trigger_rules=(TriggerRule(0, 1, delay_mean=60, delay_jitter=10, probability=0.8,
                                   length_mean=12, length_std=2),),
        features=FeatureSpec(noise_std=0.05),
    )


@pytest.fixture(scope="module")
def deterministic_trigger_run():
    """Criterion 7 pipeline: train on the deterministic-trigger dataset."""
    horizon = 2.0
    t0 = time.time()
    data = ant.generate_dataset(trigger_sim_config(), 20, seed=2024)
    train_set, test_set = data[:12], data[12:]
    net = ant.NetworkConfig(
        input_dim=6, instruments=3, hidden=32, encoder=(32,), dropout=0.2,
        horizon=horizon, lambda_cls=0.1, weight_decay=1e-5,
        learning_rate=2e-3, window=128, accum_steps=3, epochs=60, seed=1,
    )
    params, _ = ant.train(train_set, net)
    targets = [ant.compute_targets(s, horizon) for s in test_set]
    summaries = [mc_predict(params, net, s.features, samples=10, seed=100 + i)
                 for i, s in enumerate(test_set)]
    return {
        "horizon": horizon,
        "train": train_set,
        "test": test_set,
        "targets": targets,
        "summaries": summaries,
        "elapsed": time.time() - t0,
    }


@pytest.fixture(scope="module")
def uncertain_trigger_run():
    """Criteria 8/9 pipeline: probabilistic trigger plus distractor."""
    horizon = 3.0
    data = ant.generate_dataset(uncertain_trigger_sim_config(), 20, seed=7100)
    train_set, test_set = data[:12], data[12:]
    net = ant.NetworkConfig(
        input_dim=6, instruments=3, hidden=32, encoder=(32,), dropout=0.2,
        horizon=horizon, lambda_cls=1.0, weight_decay=1e-5,
        learning_rate=2e-3, window=128, accum_steps=3, epochs=60, seed=2,
    )
    params, _ = ant.train(train_set, net)
    targets = [ant.compute_targets(s, horizon) for s in test_set]
    summaries = [mc_predict(params, net, s.features, samples=10, seed=500 + i)
                 for i, s in enumerate(test_set)]
    return {
        "horizon": horizon,
        "test": test_set,
        "targets": targets,
        "summaries": summaries,
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_label_oracle_equivalence():
    """200 random sequences match the scan-forward oracle exactly, < 5 s.

    The bound times ``compute_targets`` alone, not the Python-loop oracle.
    """
    rng = np.random.default_rng(101)
    elapsed = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 2001))
        k = int(rng.integers(1, 6))
        h = float(rng.choice([2.0, 3.0, 5.0, 7.0]))
        presence = rng.random((n, k)) < rng.uniform(0.005, 0.1)
        seq = ProcedureSequence(id="r", presence=presence)
        t0 = time.perf_counter()
        got = ant.compute_targets(seq, h)
        elapsed += time.perf_counter() - t0
        r_ref, c_ref = scan_forward_targets(presence, 1.0, h)
        np.testing.assert_array_equal(got.remaining, r_ref)
        np.testing.assert_array_equal(got.classes, c_ref)
        checked += 1
    report(1, checked == 200 and elapsed < 5.0,
           f"{checked} sequences exact vs forward-scan oracle in {elapsed:.2f}s (< 5 s)")


def test_criterion_02_gradient_correctness():
    """20 random small nets: analytic vs central differences < 1e-4 relative."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(20):
        config = ant.NetworkConfig(
            input_dim=int(rng.integers(2, 5)),
            instruments=int(rng.integers(1, 3)),
            hidden=int(rng.integers(3, 8)),
            encoder=tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(0, 3)))),
            phase_classes=int(rng.choice([0, 3])),
            dropout=float(rng.choice([0.0, 0.2, 0.4])),
            output_mode=str(rng.choice(["linear_clamped", "scaled_sigmoid"])),
            horizon=3.0, lambda_cls=float(rng.uniform(0.1, 1.0)),
            weight_decay=float(rng.choice([0.0, 1e-3])),
        )
        params = ant.init_params(config, seed=trial)
        assert sum(v.size for v in params.values()) <= 1000
        masks = sample_masks(config, seed=trial + 77)
        n = int(rng.integers(5, 31))
        feats = rng.normal(size=(n, config.input_dim))
        remaining = rng.uniform(0, 3.0, size=(n, config.instruments))
        classes = rng.integers(0, 3, size=(n, config.instruments)).astype(np.int8)
        phase = rng.integers(0, 3, size=n) if config.phase_classes else None
        state = (rng.normal(size=config.hidden) * 0.2, rng.normal(size=config.hidden) * 0.2)

        _, _, grads, _ = loss_and_gradients(params, masks, feats, remaining, classes,
                                            config, phase_labels=phase, state=state)

        def loss_at():
            out, _ = forward(params, masks, feats, config, state=state)
            total, _ = compute_loss(out, remaining, classes, params,
                                    config.lambda_cls, config.weight_decay,
                                    phase_labels=phase, lambda_phase=config.lambda_phase)
            return total

        eps = 1e-5
        for name, value in params.items():
            flat = value.ravel()
            fd = np.empty(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                fp = loss_at()
                flat[idx] = orig - eps
                fm = loss_at()
                flat[idx] = orig
                fd[idx] = (fp - fm) / (2 * eps)
            an = grads[name].ravel()
            rel = np.abs(fd - an) / np.maximum.reduce(
                [np.abs(fd), np.abs(an), np.full(flat.size, 1e-4)]
            )
            worst = max(worst, float(rel.max()))
    report(2, worst < 1e-4, f"max relative gradient error {worst:.2e} over 20 configs (< 1e-4)")


def test_criterion_03_mc_algebra():
    """Hand aggregation cases and an independent recomputation at 1e-12."""
    reg = np.array([0.0, 2.0]).reshape(2, 1, 1)
    cls = np.array([[0.3, 0.3, 0.4], [0.3, 0.3, 0.4]]).reshape(2, 1, 1, 3)
    s = aggregate_samples(reg, cls, horizon=3.0)
    ok = abs(s.reg_mean[0, 0] - 1.0) < 1e-12 and abs(s.reg_epistemic_var[0, 0] - 1.0) < 1e-12

    onehot = np.tile(np.array([0.0, 1.0, 0.0]), (4, 1, 1, 1))
    s2 = aggregate_samples(np.zeros((4, 1, 1)), onehot, horizon=3.0)
    ok &= s2.class_epistemic_var[0, 0] < 1e-12 and s2.class_aleatoric_var[0, 0] < 1e-12

    config = ant.NetworkConfig(input_dim=3, instruments=2, hidden=5, encoder=(4,),
                               dropout=0.0, horizon=3.0)
    params = ant.init_params(config, seed=0)
    feats = np.random.default_rng(0).normal(size=(12, 3))
    s3 = mc_predict(params, config, feats, samples=6, seed=3)
    ok &= float(s3.reg_epistemic_var.max()) <= 1e-12
    ok &= float(s3.class_epistemic_var.max()) <= 1e-12

    rng = np.random.default_rng(303)
    t, n, k = 9, 14, 3
    reg_s = rng.uniform(0, 3, size=(t, n, k))
    cls_s = rng.dirichlet([2, 1, 1], size=(t, n, k))
    s4 = aggregate_samples(reg_s, cls_s, horizon=3.0)
    worst = 0.0
    mean2 = np.zeros((n, k))
    var2 = np.zeros((n, k))
    p2 = np.zeros((n, k, 3))
    epi2 = np.zeros((n, k))
    alea2 = np.zeros((n, k))
    for a in range(t):  # plain accumulation, no numpy reductions
        mean2 += reg_s[a]
        p2 += cls_s[a]
    mean2 /= t
    p2 /= t
    for a in range(t):
        var2 += (reg_s[a] - mean2) ** 2
        epi2 += ((cls_s[a] - p2) ** 2).sum(axis=2) / 3.0
        alea2 += (cls_s[a] * (1 - cls_s[a])).sum(axis=2) / 3.0
    var2 /= t
    epi2 /= t
    alea2 /= t
    worst = max(
        float(np.abs(s4.reg_mean - mean2).max()),
        float(np.abs(s4.reg_epistemic_var - var2).max()),
        float(np.abs(s4.class_mean - p2).max()),
        float(np.abs(s4.class_epistemic_var - epi2).max()),
        float(np.abs(s4.class_aleatoric_var - alea2).max()),
    )
    ok &= worst < 1e-12
    report(3, ok, f"hand cases exact; zero-dropout epistemic <= 1e-12; "
                  f"cross-implementation max diff {worst:.1e} (< 1e-12)")


def test_criterion_04_estimator_consistency():
    """std of reg_mean over 50 repeated runs shrinks like 1/sqrt(T)."""
    config = ant.NetworkConfig(input_dim=4, instruments=2, hidden=8, encoder=(6,),
                               dropout=0.3, horizon=3.0)
    params = ant.init_params(config, seed=4)
    feats = np.random.default_rng(44).normal(size=(20, 4))
    stds = {}
    for t in (10, 40, 160):
        means = np.stack([
            mc_predict(params, config, feats, samples=t, seed=10_000 * t + 13 * rep).reg_mean
            for rep in range(50)
        ])
        stds[t] = float(means.std(axis=0).mean())
    r1 = stds[10] / stds[40]
    r2 = stds[40] / stds[160]
    ok = 1.0 <= r1 <= 4.0 and 1.0 <= r2 <= 4.0  # sqrt law predicts 2.0
    report(4, ok, f"std ratios T10/T40 {r1:.2f}, T40/T160 {r2:.2f} (within x2 of 2.0)")


def test_criterion_05_baseline_optimality_and_metric_examples():
    """Thresholds equal an independent exhaustive search; metric hand cases."""
    rng = np.random.default_rng(505)
    mismatches = 0
    for trial in range(10):
        mode = "oracle" if trial % 2 else "mean"
        config = SimConfig(
            instruments=2, phases=3,
            duration_mean=float(rng.integers(120, 240)), duration_std=25.0,
            phase_plan=(PhaseSpec(80, 15), PhaseSpec(80, 15), PhaseSpec(80, 15)),
            usage_rules=tuple(
                UsageRule(j, int(rng.integers(0, 3)), float(rng.uniform(0.5, 1.0)),
                          length_mean=float(rng.uniform(8, 30)))
                for j in range(2)
            ),
        )
        train = ant.generate_dataset(config, 3, seed=int(rng.integers(0, 2**31)))
        model = ant.fit_baseline(train, horizon=2.0, bins=25, mode=mode)
        targets = [ant.compute_targets(s, 2.0) for s in train]
        expand = ([s.n_frames for s in train] if mode == "oracle"
                  else [model.mean_duration] * len(train))
        for j in range(2):
            thr, _ = exhaustive_baseline_search(
                model.hist[j], [t.remaining[:, j] for t in targets], expand, 2.0, 1.0
            )
            if model.thresholds[j] != thr:
                mismatches += 1

    w = wmae(np.array([[3.0], [3.0], [3.0], [3.0]]),
             np.array([[1.0], [2.0], [3.0], [3.0]]), 3.0)[0]
    p = pmae(np.array([[1.0], [2.0]]), np.array([[1.5], [3.0]]), 3.0)[0]
    ok = mismatches == 0 and w == 0.75 and p == 0.75
    report(5, ok, f"thresholds matched exhaustive search on 10 train sets "
                  f"({mismatches} mismatches); wMAE hand case {w}, pMAE hand case {p}")


def test_criterion_06_causality_prefix_invariance():
    """50 random (net, sequence, split) triples agree to 1e-10."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(50):
        config = ant.NetworkConfig(
            input_dim=int(rng.integers(2, 6)),
            instruments=int(rng.integers(1, 4)),
            hidden=int(rng.integers(4, 12)),
            encoder=(int(rng.integers(4, 12)),),
            dropout=float(rng.choice([0.0, 0.2, 0.5])),
            horizon=3.0,
        )
        params = ant.init_params(config, seed=trial)
        masks = sample_masks(config, seed=trial + 999)
        n = int(rng.integers(2, 80))
        cut = int(rng.integers(1, n))
        feats = rng.normal(size=(n, config.input_dim))
        full, _ = forward(params, masks, feats, config)
        part, _ = forward(params, masks, feats[:cut], config)
        worst = max(worst, float(np.abs(part.regression - full.regression[:cut]).max()))
        worst = max(worst, float(np.abs(part.class_logits - full.class_logits[:cut]).max()))
    report(6, worst < 1e-10, f"max prefix deviation {worst:.1e} over 50 triples (< 1e-10)")


def test_criterion_07_end_to_end_anticipation(deterministic_trigger_run):
    """Trained model beats MeanHist on the triggered instrument by >= 30%;
    OracleHist is no worse than MeanHist overall."""
    run = deterministic_trigger_run
    h = run["horizon"]
    rs = [t.remaining for t in run["targets"]]
    model_preds = [np.clip(s.reg_mean, 0, h) for s in run["summaries"]]
    model_w = wmae(model_preds, rs, h)
    baseline_w = {}
    for mode in ("mean", "oracle"):
        bl = ant.fit_baseline(run["train"], h, bins=1000, mode=mode)
        preds = [ant.predict_baseline(bl, duration=s.n_frames) for s in run["test"]]
        baseline_w[mode] = wmae(preds, rs, h)
    ratio = model_w[1] / baseline_w["mean"][1]
    oracle_mean = float(np.nanmean(baseline_w["oracle"]))
    mean_mean = float(np.nanmean(baseline_w["mean"]))
    ok = (ratio <= 0.7) and (oracle_mean <= mean_mean) and run["elapsed"] < 600.0
    report(7, ok,
           f"model wMAE(B) {model_w[1]:.3f} vs MeanHist {baseline_w['mean'][1]:.3f} "
           f"(ratio {ratio:.2f} <= 0.7); OracleHist mean {oracle_mean:.3f} <= "
           f"MeanHist mean {mean_mean:.3f}; runtime {run['elapsed']:.0f}s (< 600 s)")


def test_criterion_08_trigger_uncertainty(uncertain_trigger_run):
    """Anticipating-prediction uncertainty for B drops while A is visible."""
    run = uncertain_trigger_run
    trig = trigger_conditional_uncertainty(pooled(run["summaries"], run["targets"]),
                                           target=1, trigger=0)
    ok = (trig.visible.median_cls_aleatoric < trig.hidden.median_cls_aleatoric
          and trig.visible.median_cls_epistemic < trig.hidden.median_cls_epistemic
          and trig.visible.cls_count > 0 and trig.hidden.cls_count > 0)
    report(8, ok,
           f"aleatoric {trig.visible.median_cls_aleatoric:.4f} < "
           f"{trig.hidden.median_cls_aleatoric:.4f}, epistemic "
           f"{trig.visible.median_cls_epistemic:.5f} < {trig.hidden.median_cls_epistemic:.5f} "
           f"(visible n={trig.visible.cls_count}, hidden n={trig.hidden.cls_count})")


def test_criterion_09_filtering_and_correlation(uncertain_trigger_run):
    """Filtering the most epistemically uncertain half does not hurt pMAE;
    error and uncertainty correlate positively (instrument B)."""
    run = uncertain_trigger_run
    pool = pooled(run["summaries"], run["targets"])
    curves = filter_by_uncertainty(pool, percentiles=[50, 100])
    pcc = error_uncertainty_pcc(pool)
    filtered, unfiltered = curves[1].at(50), curves[1].at(100)
    ok = filtered <= unfiltered and pcc[1].value > 0
    report(9, ok, f"pMAE(50% least uncertain) {filtered:.3f} <= unfiltered {unfiltered:.3f}; "
                  f"PCC {pcc[1].value:.3f} > 0")


def test_criterion_10_pipeline_determinism(tmp_path):
    """simulate -> train -> evaluate -> analyze twice: identical CSV reports."""
    config = {
        "seed": 5,
        "horizons": [3.0],
        "sim": {
            "instruments": 3, "phases": 3, "duration_mean": 200, "duration_std": 25,
            "phase_plan": [{"length_mean": 70, "length_std": 10}] * 3,
            "usage_rules": [
                {"instrument": 0, "phase": 1, "probability": 1.0, "length_mean": 12},
                {"instrument": 2, "phase": 2, "probability": 0.8, "length_mean": 15},
            ],
            "trigger_rules": [
                {"trigger": 0, "target": 1, "delay_mean": 30, "probability": 1.0,
                 "length_mean": 8},
            ],
            "features": {"noise_std": 0.05},
        },
        "split": {"n_train": 4, "n_test": 3},
        "model": {"hidden": 12, "encoder": [12], "dropout": 0.2,
                  "output_mode": "linear_clamped", "phase_classes": 0,
                  "lambda_cls": 0.2, "lambda_phase": None, "weight_decay": 1e-5},
        "train": {"epochs": 3, "learning_rate": 1e-3, "window": 128, "accum_steps": 3},
        "eval": {"samples": 5, "bins": 100, "instruments": None,
                 "methods": ["meanhist", "oraclehist", "model"]},
        "analysis": {"percentiles": [50, 100], "trigger": {"trigger": 0, "target": 1},
                     "use_std": False, "memory_frames": 0},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    digests = []
    for rep in range(2):
        out = str(tmp_path / f"run{rep}")
        for command in ("simulate", "train", "evaluate", "analyze"):
            code = cli.main([command, "--config", str(config_path), "--out", out])
            assert code == 0, f"{command} exited {code}"
        run_digest = {}
        reports_dir = os.path.join(out, "reports")
        for name in sorted(os.listdir(reports_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(reports_dir, name), "rb") as fh:
                    run_digest[name] = hashlib.sha256(fh.read()).hexdigest()
        digests.append(run_digest)
    ok = digests[0] == digests[1] and len(digests[0]) >= 5
    report(10, ok, f"{len(digests[0])} CSV reports checksum-identical across two runs")
