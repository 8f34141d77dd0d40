import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from anticipation import (
    NetworkConfig,
    compute_loss,
    compute_targets,
    forward,
    init_params,
    load_params,
    mc_predict,
    sample_masks,
    save_params,
    train,
)
from anticipation.artifacts import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    load_container,
    save_container,
)
from anticipation.errors import InputError, NumericError
from anticipation.network import (
    BLOCK,
    Adam,
    block_frames,
    loss_and_gradients,
    sigmoid,
    smooth_l1,
    stack_masks,
)
from anticipation.workflow import (
    FeatureSpec,
    PhaseSpec,
    SimConfig,
    TriggerRule,
    UsageRule,
    generate_dataset,
)


def tiny_config(**overrides):
    fields = dict(
        input_dim=3, instruments=2, hidden=5, encoder=(4,),
        dropout=0.25, horizon=3.0, lambda_cls=0.5, weight_decay=1e-3,
    )
    fields.update(overrides)
    return NetworkConfig(**fields)


def random_batch(rng, config, n=10):
    feats = rng.normal(size=(n, config.input_dim))
    remaining = rng.uniform(0, config.horizon, size=(n, config.instruments))
    classes = rng.integers(0, 3, size=(n, config.instruments)).astype(np.int8)
    return feats, remaining, classes


def finite_difference(loss_fn, params, eps=1e-5):
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            fp = loss_fn()
            flat[idx] = orig - eps
            fm = loss_fn()
            flat[idx] = orig
            gflat[idx] = (fp - fm) / (2 * eps)
        grads[name] = g
    return grads


def max_relative_error(a, b, floor=1e-4):
    return max(
        float(np.max(np.abs(a[k] - b[k]) / np.maximum.reduce(
            [np.abs(a[k]), np.abs(b[k]), np.full_like(a[k], floor)]
        )))
        for k in a
    )


class TestInit:
    def test_deterministic(self):
        config = tiny_config()
        a = init_params(config, seed=9)
        b = init_params(config, seed=9)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_finite_and_bounded(self):
        params = init_params(tiny_config(), seed=1)
        for value in params.values():
            assert np.isfinite(value).all()
            assert np.abs(value).max() <= 1.0

    def test_forget_gate_bias_is_one(self):
        config = tiny_config(hidden=7)
        b = init_params(config, seed=0)["lstm_b"]
        np.testing.assert_array_equal(b[7:14], 1.0)
        assert (b[:7] == 0).all() and (b[14:] == 0).all()

    def test_fan_in_variance(self):
        """Uniform(-1/sqrt(fan), 1/sqrt(fan)) has variance 1/(3 fan)."""
        config = tiny_config(input_dim=50, encoder=(300,))
        w = init_params(config, seed=3)["enc0_W"]  # 15000 draws, fan_in 50
        expected = 1.0 / (3 * 50)
        assert abs(w.var() - expected) / expected < 0.1


class TestMasks:
    def test_zero_rate_all_ones(self):
        masks = sample_masks(tiny_config(dropout=0.0), seed=0)
        for m in (masks.encoder_input, masks.recurrent_input, masks.recurrent_hidden):
            np.testing.assert_array_equal(m, 1.0)

    def test_values_and_mean(self):
        config = tiny_config(input_dim=40000, dropout=0.2)
        masks = sample_masks(config, seed=1)
        m = masks.encoder_input
        assert set(np.unique(m)) <= {0.0, 1.25}
        se = np.sqrt(0.2 / 0.8 / m.size)
        assert abs(m.mean() - 1.0) < 3 * se

    def test_deterministic(self):
        config = tiny_config()
        a = sample_masks(config, seed=5)
        b = sample_masks(config, seed=5)
        np.testing.assert_array_equal(a.encoder_input, b.encoder_input)
        np.testing.assert_array_equal(a.recurrent_hidden, b.recurrent_hidden)


class TestSigmoid:
    GRID = np.concatenate([np.linspace(-800.0, 800.0, 160001),
                           [-0.0, 0.0, -745.0, 745.0, -800.0, 800.0]])

    def check(self, values):
        reference = expit(self.GRID)
        assert np.max(np.abs(values - reference)) <= 2.3e-16
        tails = np.abs(self.GRID) >= 745.0
        np.testing.assert_array_equal(values[tails], (self.GRID[tails] > 0).astype(float))

    def test_matches_expit_out_of_place(self):
        with np.errstate(all="raise"):
            values = sigmoid(self.GRID)
        self.check(values)

    def test_matches_expit_in_place_on_a_slice(self):
        size = self.GRID.size
        buffer = np.full(size + 6, 7.0)
        buffer[3:-3] = self.GRID
        with np.errstate(all="raise"):
            result = sigmoid(buffer[3:-3], out=buffer[3:-3])
        assert np.shares_memory(result, buffer)
        self.check(buffer[3:-3])
        np.testing.assert_array_equal(buffer[:3], 7.0)
        np.testing.assert_array_equal(buffer[-3:], 7.0)


class TestForward:
    def test_prefix_invariance(self):
        """Causality: outputs over a prefix equal the prefix of the outputs."""
        rng = np.random.default_rng(0)
        n = 2 * BLOCK + 9
        for trial in range(10):
            config = tiny_config(phase_classes=int(rng.choice([0, 3])))
            params = init_params(config, seed=trial)
            masks = sample_masks(config, seed=trial + 100)
            feats = rng.normal(size=(n, config.input_dim))
            cut = int(rng.integers(1, n))
            full, _ = forward(params, masks, feats, config)
            part, _ = forward(params, masks, feats[:cut], config)
            np.testing.assert_allclose(part.regression, full.regression[:cut], atol=1e-10)
            np.testing.assert_allclose(part.class_logits, full.class_logits[:cut], atol=1e-10)

    def test_zero_weight_net_outputs_head_bias(self):
        config = tiny_config(input_dim=1, instruments=1, hidden=1, encoder=(), dropout=0.0)
        params = {k: np.zeros_like(v) for k, v in init_params(config, seed=0).items()}
        params["reg_b"] = np.array([0.75])
        out, state = forward(params, sample_masks(config, 0), np.ones((6, 1)), config)
        np.testing.assert_array_equal(out.regression[:, 0], 0.75)
        np.testing.assert_array_equal(state[0], 0.0)

    def test_zero_dropout_equals_unmasked(self):
        config = tiny_config(dropout=0.0)
        params = init_params(config, seed=2)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, config.input_dim))
        a, _ = forward(params, sample_masks(config, 0), feats, config)
        b, _ = forward(params, sample_masks(config, 999), feats, config)
        np.testing.assert_array_equal(a.regression, b.regression)

    def test_window_split_equals_full_pass(self):
        """Carrying state across windows with the same masks reproduces the
        single-pass outputs (the mask set is constant through time)."""
        config = tiny_config()
        params = init_params(config, seed=4)
        masks = sample_masks(config, seed=5)
        rng = np.random.default_rng(6)
        n, window = 3 * BLOCK + 5, BLOCK // 3 + 1
        feats = rng.normal(size=(n, config.input_dim))
        full, _ = forward(params, masks, feats, config)
        state = None
        chunks = []
        for start in range(0, n, window):
            out, state = forward(params, masks, feats[start:start + window], config, state=state)
            chunks.append(out.regression)
        np.testing.assert_allclose(np.concatenate(chunks), full.regression, atol=1e-12)

    def test_dimension_mismatch(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        masks = sample_masks(config, seed=0)
        with pytest.raises(ValueError, match="features"):
            forward(params, masks, np.zeros((5, config.input_dim + 1)), config)

    def test_scaled_sigmoid_range(self):
        config = tiny_config(output_mode="scaled_sigmoid")
        params = init_params(config, seed=1)
        out, _ = forward(params, sample_masks(config, 1),
                         np.random.default_rng(0).normal(size=(20, 3)) * 5, config)
        assert (out.regression > 0).all() and (out.regression < 3.0).all()


class TestStackedModels:
    """K models stacked on a leading axis run as one forward pass, each exactly as alone."""

    @pytest.mark.parametrize("output_mode", ["linear_clamped", "scaled_sigmoid"])
    @pytest.mark.parametrize("layout", ["one set", "shared rows", "own rows"])
    def test_equal_one_forward_per_model(self, output_mode, layout):
        """K = 3 models with their own horizons, R = 4 rows (shared by all
        models or each model's own), a phase head, an initial state and a
        sequence longer than two scan blocks: outputs and final state
        ``.tobytes()``-equal to each model's own forward."""
        config = tiny_config(phase_classes=3, output_mode=output_mode)
        rows, horizons = 4, (1.0, 2.0, 3.0)
        models = [init_params(config, seed=s) for s in range(len(horizons))]
        stacked = {name: np.stack([p[name] for p in models]) for name in models[0]}
        own = [[sample_masks(config, 10 * m + r) for r in range(rows)] for m in range(3)]
        masks, model_masks = {
            "one set": (own[0][0], [own[0][0]] * 3),
            "shared rows": (stack_masks(own[0]), [stack_masks(own[0])] * 3),
            "own rows": (stack_masks([stack_masks(sets) for sets in own]),
                         [stack_masks(sets) for sets in own]),
        }[layout]
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(2 * block_frames(rows) + 3, config.input_dim)) * 2
        lead = (3,) if layout == "one set" else (3, rows)
        h0, c0 = rng.normal(size=(2, *lead, config.hidden))
        out, (h, c) = forward(stacked, masks, feats, config, state=(h0, c0),
                              horizons=np.array(horizons))
        assert out.regression.shape == (*lead, len(feats), config.instruments)
        for m, (params, horizon) in enumerate(zip(models, horizons)):
            ref, (ref_h, ref_c) = forward(params, model_masks[m], feats,
                                          dataclasses.replace(config, horizon=horizon),
                                          state=(h0[m], c0[m]))
            for got, want in ((out.regression[m], ref.regression),
                              (out.class_logits[m], ref.class_logits),
                              (out.phase_logits[m], ref.phase_logits),
                              (h[m], ref_h), (c[m], ref_c)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), m

    def test_masks_of_another_model_count_are_refused(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        stacked = {name: np.stack([value] * 3) for name, value in params.items()}
        masks = stack_masks([stack_masks([sample_masks(config, m)]) for m in range(2)])
        feats = np.zeros((4, config.input_dim))
        for p in (stacked, params):  # two models' masks: neither three models nor one fit
            with pytest.raises(ValueError, match="dropout masks"):
                forward(p, masks, feats, config)


class TestLoss:
    def test_smooth_l1_values(self):
        np.testing.assert_allclose(smooth_l1(np.array([0.5, -0.5, 2.0])), [0.125, 0.125, 1.5])

    def test_single_frame_half_minute_error(self):
        config = tiny_config(instruments=1, lambda_cls=0.0, weight_decay=0.0)
        params = init_params(config, seed=0)
        out, _ = forward(params, sample_masks(config, 0), np.zeros((1, 3)), config)
        remaining = out.regression - 0.5
        total, terms = compute_loss(out, remaining, np.zeros((1, 1), dtype=np.int8),
                                    params, 0.0, 0.0)
        assert total == pytest.approx(0.125)
        assert terms["regression"] == pytest.approx(0.125)

    def test_perfect_fit_leaves_only_l2(self):
        config = tiny_config()
        params = init_params(config, seed=1)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(8, 3))
        out, _ = forward(params, sample_masks(config, 3), feats, config)
        classes = rng.integers(0, 3, size=(8, 2)).astype(np.int8)
        boosted = out.class_logits.copy()
        np.put_along_axis(boosted, classes[:, :, None].astype(np.int64), 50.0, axis=2)
        perfect = type(out)(regression=out.regression, class_logits=boosted, phase_logits=None)
        l2 = config.weight_decay * sum(float((v * v).sum()) for v in params.values())
        total, _ = compute_loss(perfect, out.regression, classes, params,
                                config.lambda_cls, config.weight_decay)
        assert total == pytest.approx(l2, abs=1e-6)

    def test_decomposition_and_nonnegativity(self):
        config = tiny_config(phase_classes=4)
        params = init_params(config, seed=5)
        rng = np.random.default_rng(6)
        feats, remaining, classes = random_batch(rng, config, n=15)
        phase = rng.integers(0, 4, size=15)
        out, _ = forward(params, sample_masks(config, 7), feats, config)
        total, terms = compute_loss(out, remaining, classes, params,
                                    config.lambda_cls, config.weight_decay,
                                    phase_labels=phase, lambda_phase=config.lambda_phase)
        assert total == pytest.approx(sum(terms.values()), rel=1e-15)
        assert all(v >= 0.0 for v in terms.values())
        assert set(terms) == {"regression", "classification", "l2", "phase"}

    def test_length_mismatch(self):
        config = tiny_config()
        params = init_params(config, seed=0)
        out, _ = forward(params, sample_masks(config, 0), np.zeros((4, 3)), config)
        with pytest.raises(ValueError):
            compute_loss(out, np.zeros((3, 2)), np.zeros((3, 2), dtype=np.int8),
                         params, 0.1, 0.0)


class TestGradients:
    def test_matches_finite_differences(self):
        """Randomized small nets, all parameters, central differences.

        The last trial's window crosses a block boundary of the scan.
        """
        rng = np.random.default_rng(123)
        for trial in range(5):
            config = tiny_config(
                input_dim=int(rng.integers(2, 5)),
                instruments=int(rng.integers(1, 3)),
                hidden=int(rng.integers(3, 7)),
                encoder=tuple(int(rng.integers(3, 6)) for _ in range(int(rng.integers(0, 3)))),
                phase_classes=int(rng.choice([0, 3])),
                dropout=float(rng.choice([0.0, 0.3])),
                output_mode=str(rng.choice(["linear_clamped", "scaled_sigmoid"])),
            )
            params = init_params(config, seed=trial)
            masks = sample_masks(config, seed=trial + 50)
            n = int(rng.integers(4, 16)) if trial < 4 else BLOCK + 3
            feats, remaining, classes = random_batch(rng, config, n=n)
            phase = rng.integers(0, 3, size=n) if config.phase_classes else None
            state = (rng.normal(size=config.hidden) * 0.2, rng.normal(size=config.hidden) * 0.2)

            _, _, grads, _ = loss_and_gradients(params, masks, feats, remaining, classes,
                                                config, phase_labels=phase, state=state)

            def loss_fn():
                out, _ = forward(params, masks, feats, config, state=state)
                total, _ = compute_loss(out, remaining, classes, params,
                                        config.lambda_cls, config.weight_decay,
                                        phase_labels=phase, lambda_phase=config.lambda_phase)
                return total

            fd = finite_difference(loss_fn, params)
            assert max_relative_error(grads, fd) < 1e-4

    def test_l2_only_gradient_is_exact(self):
        """With a perfect fit and zero class weight the gradient is 2*gamma*theta."""
        config = tiny_config(lambda_cls=0.0, weight_decay=1e-3)
        params = init_params(config, seed=8)
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(6, 3))
        masks = sample_masks(config, seed=10)
        out, _ = forward(params, masks, feats, config)
        classes = np.zeros((6, 2), dtype=np.int8)
        _, _, grads, _ = loss_and_gradients(params, masks, feats, out.regression, classes, config)
        for name in params:
            np.testing.assert_array_equal(grads[name], 2e-3 * params[name])

    def test_zero_gradient_at_perfect_fit_without_l2(self):
        config = tiny_config(lambda_cls=0.0, weight_decay=0.0)
        params = init_params(config, seed=11)
        feats = np.random.default_rng(12).normal(size=(5, 3))
        masks = sample_masks(config, seed=13)
        out, _ = forward(params, masks, feats, config)
        _, _, grads, _ = loss_and_gradients(params, masks, feats, out.regression,
                                            np.zeros((5, 2), dtype=np.int8), config)
        np.testing.assert_array_equal(grads["reg_W"], 0.0)
        np.testing.assert_array_equal(grads["reg_b"], 0.0)

    def test_non_finite_gradient_reported_with_name(self, monkeypatch):
        """A NaN gradient behind a finite loss stops training before the Adam step."""
        from anticipation import ProcedureSequence, network

        config = tiny_config(epochs=1, window=4)
        rng = np.random.default_rng(0)
        presence = np.zeros((8, 2), dtype=bool)
        presence[5:, 0] = True
        seq = ProcedureSequence(id="vid_7", presence=presence, features=rng.normal(size=(8, 3)))
        exact = network.loss_and_gradients
        steps = []

        def poisoned(*args, **kwargs):
            total, terms, grads, state = exact(*args, **kwargs)
            grads["lstm_Wh"][..., 1, 2] = np.nan
            return total, terms, grads, state

        monkeypatch.setattr(network, "loss_and_gradients", poisoned)
        monkeypatch.setattr(network.Adam, "step", lambda self, params, grads: steps.append(1))
        with pytest.raises(NumericError, match="non-finite gradient in parameter 'lstm_Wh' at "
                                               "epoch 0, video 'vid_7', frame 0"):
            train([seq], config)
        assert steps == []


class TestTraining:
    def _trigger_video(self, seed=0):
        config = SimConfig(
            instruments=2, phases=2, duration_mean=300.0, duration_std=0.0,
            phase_plan=(PhaseSpec(150.0), PhaseSpec(150.0)),
            usage_rules=(UsageRule(0, 0, 1.0, length_mean=20.0),
                         UsageRule(0, 1, 1.0, length_mean=20.0)),
            trigger_rules=(TriggerRule(0, 1, delay_mean=45.0, length_mean=12.0),),
            features=FeatureSpec(noise_std=0.02),
        )
        return generate_dataset(config, 1, seed=seed)[0]

    def test_single_video_overfit(self):
        """Fixed-seed smoke run: train wMAE well under 0.1 h after overfitting."""
        from anticipation.metrics import wmae

        video = self._trigger_video(seed=1)
        config = NetworkConfig(
            input_dim=video.feature_dim, instruments=2, hidden=24, encoder=(24,),
            dropout=0.1, horizon=3.0, lambda_cls=0.05, weight_decay=1e-6,
            learning_rate=4e-3, window=128, accum_steps=3, epochs=200, seed=0,
        )
        params, log = train([video], config)
        assert log[-1]["total"] < log[0]["total"]
        summary = mc_predict(params, config, video.features, samples=10, seed=0)
        targets = compute_targets(video, 3.0)
        scores = wmae(summary.reg_mean, targets.remaining, 3.0)
        assert np.nanmax(scores) < 0.3

    def test_training_is_deterministic(self):
        video = self._trigger_video(seed=2)
        config = NetworkConfig(
            input_dim=video.feature_dim, instruments=2, hidden=8, encoder=(8,),
            horizon=3.0, learning_rate=1e-3, epochs=2, seed=7,
        )
        a, log_a = train([video], config)
        b, log_b = train([video], config)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        assert log_a == log_b

    def test_rejects_missing_features(self):
        from anticipation.workflow import ProcedureSequence

        seq = ProcedureSequence(id="x", presence=np.zeros((10, 2), dtype=bool))
        config = tiny_config()
        with pytest.raises(ValueError, match="features"):
            train([seq], config)

    def test_phase_head_training(self):
        video = self._trigger_video(seed=5)
        config = NetworkConfig(
            input_dim=video.feature_dim, instruments=2, hidden=8, encoder=(8,),
            phase_classes=2, horizon=3.0, learning_rate=1e-3, epochs=2, seed=0,
        )
        _, log = train([video], config)
        assert "phase" in log[0] and log[0]["phase"] >= 0.0

    def test_rejects_phase_labels_beyond_head(self):
        video = self._trigger_video(seed=5)  # phases 0 and 1
        config = NetworkConfig(
            input_dim=video.feature_dim, instruments=2, hidden=8, encoder=(8,),
            phase_classes=1, horizon=3.0, epochs=1,
        )
        with pytest.raises(ValueError, match="phase index"):
            train([video], config)

    def test_adam_moves_toward_minimum(self):
        params = {"w": np.array([5.0])}
        adam = Adam(params, lr=0.1)
        for _ in range(400):
            adam.step(params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-3


class TestLockstep:
    """Training every horizon on one model axis equals one run per horizon, bit for bit."""

    @staticmethod
    def videos():
        config = SimConfig(
            instruments=2, phases=2, duration_mean=700.0, duration_std=30.0,
            phase_plan=(PhaseSpec(350.0, 20.0), PhaseSpec(350.0, 20.0)),
            usage_rules=(UsageRule(0, 0, 1.0, length_mean=20.0),
                         UsageRule(0, 1, 1.0, length_mean=20.0)),
            trigger_rules=(TriggerRule(0, 1, delay_mean=45.0, length_mean=12.0),),
            features=FeatureSpec(noise_std=0.05),
        )
        return generate_dataset(config, 2, seed=3)

    @pytest.mark.parametrize("output_mode", ["linear_clamped", "scaled_sigmoid"])
    def test_equals_one_run_per_horizon(self, output_mode):
        """A phase head, windows longer than a scan block and a leftover
        accumulation group included."""
        videos = self.videos()
        config = NetworkConfig(
            input_dim=videos[0].feature_dim, instruments=2, hidden=6, encoder=(5,),
            phase_classes=2, output_mode=output_mode, horizon=9.0, learning_rate=3e-3,
            window=270, accum_steps=2, epochs=2, seed=4,
        )
        assert config.window > block_frames(1)
        windows = [-(-v.n_frames // config.window) for v in videos]
        assert any(w % config.accum_steps for w in windows)  # a leftover group
        horizons = (1.0, 2.0, 3.0)
        lockstep = train(videos, config, horizons=horizons)
        assert len(lockstep) == len(horizons)
        for h, (params, log) in zip(horizons, lockstep):
            alone, alone_log = train(videos, dataclasses.replace(config, horizon=h))
            assert list(params) == list(alone)
            for name in alone:
                np.testing.assert_array_equal(params[name], alone[name], err_msg=f"{h} {name}")
            assert log == alone_log

    def test_rejects_non_positive_horizon(self):
        videos = self.videos()
        config = NetworkConfig(input_dim=videos[0].feature_dim, instruments=2, epochs=1)
        with pytest.raises(ValueError, match="horizons"):
            train(videos, config, horizons=[1.0, 0.0])

    def test_gradients_of_two_models_match_finite_differences(self):
        """K=2: different parameters, targets and scaled_sigmoid horizons per model."""
        rng = np.random.default_rng(77)
        config = tiny_config(phase_classes=3, output_mode="scaled_sigmoid", dropout=0.3)
        horizons = np.array([2.0, 4.5])
        singles = [init_params(config, seed=s) for s in (1, 2)]
        params = {name: np.stack([p[name] for p in singles]) for name in singles[0]}
        masks = sample_masks(config, seed=8)
        n = BLOCK + 5
        feats = rng.normal(size=(n, config.input_dim))
        remaining = np.stack([rng.uniform(0, h, size=(n, config.instruments)) for h in horizons])
        classes = rng.integers(0, 3, size=(2, n, config.instruments)).astype(np.int8)
        phase = rng.integers(0, 3, size=n)
        state = tuple(rng.normal(size=(2, config.hidden)) * 0.2 for _ in range(2))

        total, terms, grads, (h, c) = loss_and_gradients(
            params, masks, feats, remaining, classes, config,
            phase_labels=phase, state=state, horizons=horizons)
        assert total.shape == (2,) and h.shape == c.shape == (2, config.hidden)
        assert all(value.shape == (2,) for value in terms.values())

        def model_loss(m):
            cfg = dataclasses.replace(config, horizon=float(horizons[m]))
            one = {name: value[m] for name, value in params.items()}
            out, _ = forward(one, masks, feats, cfg, state=(state[0][m], state[1][m]))
            return compute_loss(out, remaining[m], classes[m], one, cfg.lambda_cls,
                                cfg.weight_decay, phase_labels=phase,
                                lambda_phase=cfg.lambda_phase)[0]

        np.testing.assert_allclose(total, [model_loss(0), model_loss(1)], rtol=1e-12)
        fd = finite_difference(lambda: model_loss(0) + model_loss(1), params)
        assert max_relative_error(grads, fd) < 1e-4

    def test_non_finite_gradient_names_its_horizon(self, monkeypatch):
        from anticipation import ProcedureSequence, network

        config = tiny_config(epochs=1, window=4)
        rng = np.random.default_rng(0)
        presence = np.zeros((8, 2), dtype=bool)
        presence[5:, 0] = True
        seq = ProcedureSequence(id="vid_7", presence=presence, features=rng.normal(size=(8, 3)))
        exact = network.loss_and_gradients
        steps = []

        def poisoned(*args, **kwargs):
            total, terms, grads, state = exact(*args, **kwargs)
            grads["enc0_b"][1, 2] = np.nan  # model 1 of 3
            return total, terms, grads, state

        monkeypatch.setattr(network, "loss_and_gradients", poisoned)
        monkeypatch.setattr(network.Adam, "step", lambda self, params, grads: steps.append(1))
        with pytest.raises(NumericError, match="^non-finite gradient in parameter 'enc0_b' at "
                                               "epoch 0, video 'vid_7', frame 0, horizon 2.5$"):
            train([seq], config, horizons=(1.0, 2.5, 3.0))
        assert steps == []


# Any float64, with the values a text format would lose made likely.
FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -2.5e-310, np.inf, -np.inf])),
)


class TestCheckpoints:
    def test_exact_round_trip(self, tmp_path):
        config = tiny_config(phase_classes=3)
        params = init_params(config, seed=21)
        path = str(tmp_path / "model.bin")
        save_params(params, path, config)
        again = load_params(path, config)
        assert list(again) == list(params)
        for k in params:
            np.testing.assert_array_equal(again[k], params[k])

    @settings(deadline=None)
    @given(params=st.dictionaries(st.text(max_size=6), FLOAT_ARRAYS, max_size=4))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, params):
        config = tiny_config()
        path = str(tmp_path_factory.mktemp("ckpt") / "model.bin")
        save_params(params, path, config)
        again = load_params(path, config)
        assert list(again) == list(params)
        for name, value in params.items():
            assert again[name].shape == value.shape
            assert again[name].tobytes() == value.tobytes()

    @pytest.mark.parametrize("damage, message", [
        (lambda h: h.pop("params"), "header lacks params"),
        (lambda h: h.pop("dtype"), "header lacks dtype"),
        (lambda h: h.update(dtype=">f8"), "malformed header"),
        (lambda h: h.update(params={"enc0_W": [2, 3]}), "malformed header"),
        (lambda h: h["params"][0].__setitem__(1, "xx"), "malformed header"),
        (lambda h: h["params"][0].__setitem__(1, [2, -3]), "malformed header"),
        (lambda h: h["params"][0].__setitem__(1, [2.0, 3]), "malformed header"),
        (lambda h: h["params"][0].__setitem__(1, [True, 3]), "malformed header"),
        (lambda h: h["params"][0].__setitem__(0, 7), "malformed header"),
        (lambda h: h["params"][0].append([1]), "malformed header"),
        (lambda h: h["params"].append(list(h["params"][0])), "malformed header"),
        (lambda h: h["params"][0].__setitem__(1, [10 ** 30]), "truncated"),
        (lambda h: h["params"].insert(0, ["empty", [0, 2 ** 70]]), "'empty'"),
        (lambda h: h["params"][-1].__setitem__(1, [0]), "bytes beyond"),
        (lambda h: h.update(format="anticipation-summary-v1"), "not an anticipation-params-v1"),
    ])
    def test_damaged_header_is_a_value_error_naming_the_path(self, tmp_path, damage, message):
        config = tiny_config()
        path = str(tmp_path / "model.bin")
        save_params(init_params(config, seed=0), path, config)
        with open(path, "rb") as fh:
            header, payload = json.loads(fh.readline()), fh.read()
        damage(header)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=message) as info:
            load_params(path, config)
        assert str(info.value).startswith(path)

    @pytest.mark.parametrize("encoder", [(4,), ()])
    def test_input_dim_from_the_header(self, tmp_path, encoder):
        config = tiny_config(input_dim=7, encoder=encoder)
        path = str(tmp_path / "model.bin")
        params = init_params(config, seed=0)
        widths = []

        def config_for(width):
            widths.append(width)
            return dataclasses.replace(config, input_dim=width)

        save_params(params, path, config)
        again, built, names = load_checkpoint(path, config_for)
        assert (widths, built, names) == ([7], config, None)
        assert all(again[k].tobytes() == params[k].tobytes() for k in params)
        save_params(params, path, config, names=("probe", "lifter"))
        assert load_checkpoint(path, config_for)[2] == ["probe", "lifter"]

    @pytest.mark.parametrize("arrays", [{}, {"enc0_W": np.zeros(3)}, {"enc0_W": np.zeros((0, 3))}])
    def test_input_dim_needs_a_weight_matrix(self, tmp_path, arrays):
        path = str(tmp_path / "model.bin")
        save_container(path, CHECKPOINT_FORMAT, arrays, config_hash="x")
        with pytest.raises(InputError, match="has no input weight matrix") as info:
            load_checkpoint(path, lambda width: pytest.fail("no width to build a config for"))
        assert str(info.value).startswith(path)

    def test_unparsable_header_is_a_value_error(self, tmp_path):
        path = str(tmp_path / "model.bin")
        for head in (b"\xff\xfe\n", b"[" * 100_000 + b"\n", b"[]\n", b""):
            with open(path, "wb") as fh:
                fh.write(head)
            with pytest.raises(ValueError, match="not an anticipation-params-v1 file"):
                load_container(path, CHECKPOINT_FORMAT)

    @pytest.mark.parametrize("stamp", [None, "missing"])
    def test_checkpoint_without_config_hash_rejected(self, tmp_path, stamp):
        config = tiny_config()
        path = str(tmp_path / "model.bin")
        save_container(path, CHECKPOINT_FORMAT, init_params(config, seed=0),
                       **({} if stamp == "missing" else {"config_hash": stamp}))
        with pytest.raises(ValueError, match="different configuration") as info:
            load_params(path, config)
        assert str(info.value).startswith(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        config = tiny_config()
        params = init_params(config, seed=0)
        path = str(tmp_path / "model.bin")
        save_params(params, path, config)
        other = tiny_config(hidden=6)
        with pytest.raises(ValueError, match="different configuration"):
            load_params(path, other)

    def test_param_count(self):
        config = tiny_config(input_dim=2, instruments=1, hidden=2, encoder=())
        assert sum(v.size for v in init_params(config, seed=0).values()) == (
            2 * 8 + 2 * 8 + 8   # lstm Wx, Wh, b
            + 2 * 1 + 1         # regression head
            + 2 * 3 + 3         # class head
        )
