import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import serial_mc_predict

from anticipation import (
    NetworkConfig,
    PredictiveSummary,
    aggregate_samples,
    anticipating_mask,
    init_params,
    mc_predict,
)
from anticipation.artifacts import SUMMARY_ARRAYS, load_summary, save_summary
from anticipation.network import block_frames


def summary_from(reg_samples, class_samples, horizon=3.0):
    return aggregate_samples(
        np.asarray(reg_samples, dtype=float),
        np.asarray(class_samples, dtype=float),
        horizon,
    )


def two_sample_summary():
    """Two samples, one frame, one instrument: regression {0, 2}."""
    reg = np.array([0.0, 2.0]).reshape(2, 1, 1)
    cls = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]).reshape(2, 1, 1, 3)
    return summary_from(reg, cls)


class TestAggregation:
    def test_two_sample_regression_mean_and_variance(self):
        s = two_sample_summary()
        assert s.reg_mean[0, 0] == 1.0
        assert s.reg_epistemic_var[0, 0] == 1.0  # ((0-1)^2 + (2-1)^2) / 2

    def test_one_hot_samples_have_zero_variances(self):
        reg = np.zeros((3, 1, 1))
        cls = np.tile(np.array([1.0, 0.0, 0.0]), (3, 1, 1, 1))
        s = summary_from(reg, cls)
        assert s.class_epistemic_var[0, 0] == 0.0
        assert s.class_aleatoric_var[0, 0] == 0.0

    def test_class_mean_normalized(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 20, 2, 3))
        cls = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        s = summary_from(rng.uniform(0, 3, (5, 20, 2)), cls)
        np.testing.assert_allclose(s.class_mean.sum(axis=2), 1.0, atol=1e-9)

    def test_aleatoric_bound(self):
        rng = np.random.default_rng(1)
        cls = rng.dirichlet([1, 1, 1], size=(6, 30, 2))
        s = summary_from(rng.uniform(0, 3, (6, 30, 2)), cls)
        assert s.class_aleatoric_var.max() <= 0.25 + 1e-12
        assert (s.class_aleatoric_var >= 0).all()
        assert (s.class_epistemic_var >= 0).all()
        assert (s.reg_epistemic_var >= 0).all()

    def test_variance_identity(self):
        """Population variance equals E[f^2] - E[f]^2."""
        rng = np.random.default_rng(2)
        reg = rng.uniform(0, 3, size=(10, 40, 3))
        cls = rng.dirichlet([1, 1, 1], size=(10, 40, 3))
        s = summary_from(reg, cls)
        alt = (reg ** 2).mean(axis=0) - s.reg_mean ** 2
        np.testing.assert_allclose(s.reg_epistemic_var, alt, atol=1e-9)

    def test_independent_recomputation_from_kept_samples(self):
        """Straightforward loops over the retained samples reproduce every
        aggregate to 1e-12."""
        rng = np.random.default_rng(3)
        t, n, k = 7, 9, 2
        reg = rng.uniform(0, 3, size=(t, n, k))
        cls = rng.dirichlet([2, 1, 1], size=(t, n, k))
        s = summary_from(reg, cls)
        for i in range(n):
            for j in range(k):
                mean = sum(reg[a, i, j] for a in range(t)) / t
                var = sum((reg[a, i, j] - mean) ** 2 for a in range(t)) / t
                assert abs(s.reg_mean[i, j] - mean) < 1e-12
                assert abs(s.reg_epistemic_var[i, j] - var) < 1e-12
                p_hat = sum(cls[a, i, j] for a in range(t)) / t
                epi = sum((cls[a, i, j] - p_hat) ** 2 for a in range(t)) / t
                alea = sum(cls[a, i, j] * (1 - cls[a, i, j]) for a in range(t)) / t
                np.testing.assert_allclose(s.class_mean[i, j], p_hat, atol=1e-12)
                assert abs(s.class_epistemic_var[i, j] - epi.mean()) < 1e-12
                assert abs(s.class_aleatoric_var[i, j] - alea.mean()) < 1e-12


    @pytest.mark.parametrize("t, n, k", [(1, 1, 1), (3, 7, 2), (16, 150, 3)])
    def test_derived_class_variances_equal_the_eager_formula(self, t, n, k, tmp_path):
        """The class-averaged variances, derived from the per-class arrays, are
        bit for bit the planes summaries used to store, also after a round trip."""
        rng = np.random.default_rng(n)
        reg = rng.uniform(0, 3, size=(t, n, k))
        cls = rng.dirichlet([1, 1, 1], size=(t, n, k))
        s = summary_from(reg, cls)
        work = np.subtract(cls, cls.mean(axis=0))
        epi_pc = np.square(work, out=work).mean(axis=0)
        np.subtract(1.0, cls, out=work)
        alea_pc = np.multiply(cls, work, out=work).mean(axis=0)
        path = str(tmp_path / "summary.bin")
        save_summary(s, path)
        for summary in (s, load_summary(path)):
            assert summary.class_epistemic_var.tobytes() == epi_pc.mean(axis=2).tobytes()
            assert summary.class_aleatoric_var.tobytes() == alea_pc.mean(axis=2).tobytes()


class TestMcPredict:
    def net(self, dropout=0.2):
        config = NetworkConfig(input_dim=4, instruments=2, hidden=6, encoder=(5,),
                               dropout=dropout, horizon=3.0)
        return config, init_params(config, seed=0)

    def test_zero_dropout_collapses_epistemic(self):
        config, params = self.net(dropout=0.0)
        feats = np.random.default_rng(1).normal(size=(15, 4))
        s = mc_predict(params, config, feats, samples=6, seed=0)
        assert s.reg_epistemic_var.max() <= 1e-12
        assert s.class_epistemic_var.max() <= 1e-12
        single = s.class_mean
        np.testing.assert_allclose(
            s.class_aleatoric_var, (single * (1 - single)).mean(axis=2), atol=1e-12
        )

    def test_seed_determinism_and_sample_count(self):
        config, params = self.net()
        feats = np.random.default_rng(2).normal(size=(10, 4))
        a = mc_predict(params, config, feats, samples=5, seed=9)
        b = mc_predict(params, config, feats, samples=5, seed=9)
        np.testing.assert_array_equal(a.reg_mean, b.reg_mean)
        assert a.samples == 5

    def test_clamped_to_horizon(self):
        config, params = self.net()
        feats = np.random.default_rng(3).normal(size=(20, 4)) * 10
        s = mc_predict(params, config, feats, samples=4, seed=1)
        assert s.reg_mean.min() >= 0.0 and s.reg_mean.max() <= 3.0

    def test_rejects_zero_samples(self):
        config, params = self.net()
        with pytest.raises(ValueError):
            mc_predict(params, config, np.zeros((3, 4)), samples=0, seed=0)

    @pytest.mark.parametrize("samples", [1, 3, 16])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_matches_serial_passes(self, samples, blocks, extra):
        """All T mask sets in one scan equal T separate single-set passes, for
        sequences of 1, s - 1, s, s + 1 and 3s + 5 frames, s the block length of T rows."""
        n = blocks * block_frames(samples) + extra
        config = NetworkConfig(input_dim=4, instruments=2, hidden=6, encoder=(5, 4),
                               dropout=0.3, horizon=3.0, phase_classes=3)
        params = init_params(config, seed=n)
        feats = np.random.default_rng(samples).normal(size=(n, 4)) * 2
        s = mc_predict(params, config, feats, samples=samples, seed=41)
        ref = serial_mc_predict(params, config, feats, samples=samples, seed=41)
        assert s.samples == ref.samples == samples
        for name in ("reg_mean", "reg_epistemic_var", "class_mean", "class_epistemic_var",
                     "class_aleatoric_var", "class_epistemic_per_class",
                     "class_aleatoric_per_class"):
            np.testing.assert_allclose(getattr(s, name), getattr(ref, name), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("output_mode", ["linear_clamped", "scaled_sigmoid"])
    def test_stacked_models_equal_one_call_each(self, output_mode):
        """Three horizons' models in one call equal three one-model calls on every
        summary array, with a phase head, T = 5 and a sequence longer than two
        scan blocks of 5 rows."""
        config = NetworkConfig(input_dim=4, instruments=2, hidden=6, encoder=(5,), dropout=0.3,
                               phase_classes=3, output_mode=output_mode)
        horizons, seeds, samples = (1.0, 2.0, 3.0), [7, 8, 123456789], 5
        models = [init_params(config, seed=s) for s in (1, 2, 3)]
        stacked = {name: np.stack([p[name] for p in models]) for name in models[0]}
        feats = np.random.default_rng(5).normal(size=(2 * block_frames(samples) + 7, 4)) * 2
        summaries = mc_predict(stacked, config, feats, samples=samples, seed=seeds,
                               horizons=horizons)
        assert len(summaries) == len(horizons)
        for summary, params, h, seed in zip(summaries, models, horizons, seeds):
            ref = mc_predict(params, dataclasses.replace(config, horizon=h), feats,
                             samples=samples, seed=seed)
            assert (summary.samples, summary.horizon) == (ref.samples, ref.horizon) == (samples, h)
            assert summary.reg_mean.max() <= h
            for name in SUMMARY_ARRAYS:
                assert getattr(summary, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_stacked_models_need_one_seed_and_horizon_each(self):
        config, params = self.net()
        stacked = {name: np.stack([value] * 2) for name, value in params.items()}
        for seeds, horizons in (([1], [1.0, 2.0]), ([1, 2], [1.0]), ([1, 2, 3], [1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match="2 models need one seed and one horizon"):
                mc_predict(stacked, config, np.zeros((3, 4)), samples=2, seed=seeds,
                           horizons=horizons)

    # n = 3000 frames at the default model size (H = 64), three instruments.
    MEMORY_CONFIG = NetworkConfig(input_dim=8, instruments=3, hidden=64, encoder=(64, 64))
    MEMORY_FRAMES = 3000

    def traced_peak(self, samples):
        """tracemalloc's peak over one ``mc_predict`` call on MEMORY_FRAMES frames."""
        config = self.MEMORY_CONFIG
        params = init_params(config, seed=0)
        feats = np.random.default_rng(0).normal(size=(self.MEMORY_FRAMES, config.input_dim))
        tracemalloc.start()
        try:
            mc_predict(params, config, feats, samples=samples, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("samples", [16, 64])
    def test_memory_is_bounded_by_the_outputs(self, samples):
        """Peak allocation stays within 2.5x the (T, n) head outputs: the scan's
        blocks and the aggregation add little beyond them, at any sample count."""
        head_outputs = samples * self.MEMORY_FRAMES * 4 * self.MEMORY_CONFIG.instruments * 8
        assert self.traced_peak(samples) < 2.5 * head_outputs

    def test_memory_stays_blocked(self):
        """Peak allocation stays under a quarter of one unblocked (n, T, 4H) gate array."""
        samples = 16
        gates = self.MEMORY_FRAMES * samples * 4 * self.MEMORY_CONFIG.hidden * 8
        assert self.traced_peak(samples) < gates / 4

    def test_std_shrinks_with_sample_count(self):
        """Repeated runs: spread of reg_mean follows roughly 1/sqrt(T)."""
        config, params = self.net(dropout=0.3)
        feats = np.random.default_rng(4).normal(size=(12, 4))
        stds = []
        for t in (4, 16):
            means = np.stack([
                mc_predict(params, config, feats, samples=t, seed=100 + 7919 * rep).reg_mean
                for rep in range(30)
            ])
            stds.append(means.std(axis=0).mean())
        ratio = stds[0] / stds[1]
        assert 1.0 < ratio < 4.0  # expected 2.0


class TestAnticipatingMask:
    def make_summary(self, reg_mean, class_mean):
        reg_mean = np.asarray(reg_mean, dtype=float)
        class_mean = np.asarray(class_mean, dtype=float)
        zeros = np.zeros_like(reg_mean)
        zeros3 = np.zeros_like(class_mean)
        return PredictiveSummary(
            samples=1, horizon=3.0, reg_mean=reg_mean, reg_epistemic_var=zeros,
            class_mean=class_mean,
            class_epistemic_per_class=zeros3, class_aleatoric_per_class=zeros3,
        )

    def test_regression_interval(self):
        # 0.1 * 3.0 and 0.9 * 3.0 are the exact interval ends, both excluded.
        s = self.make_summary([[3.0], [1.5], [0.3], [0.2], [0.1 * 3.0], [0.9 * 3.0]],
                              np.tile([1.0, 0, 0], (6, 1, 1)))
        reg_mask, _ = anticipating_mask(s)
        np.testing.assert_array_equal(reg_mask[:, 0], [False, True, False, False, False, False])

    def test_class_argmax_and_tie_order(self):
        s = self.make_summary(
            [[1.0], [1.0], [1.0]],
            [[[0.5, 0.25, 0.25]], [[0.2, 0.6, 0.2]], [[0.4, 0.4, 0.2]]],
        )
        _, cls_mask = anticipating_mask(s)
        np.testing.assert_array_equal(cls_mask[:, 0], [True, False, True])


class TestSerialization:
    def test_bin_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        s = summary_from(rng.uniform(0, 3, (4, 6, 2)), rng.dirichlet([1, 1, 1], size=(4, 6, 2)))
        path = str(tmp_path / "summary.bin")
        save_summary(s, path)
        again = load_summary(path)
        assert again.samples == s.samples and again.horizon == s.horizon
        for attr in ("reg_mean", "reg_epistemic_var", "class_mean",
                     "class_epistemic_var", "class_aleatoric_var",
                     "class_epistemic_per_class", "class_aleatoric_per_class"):
            np.testing.assert_array_equal(getattr(again, attr), getattr(s, attr))

    @settings(deadline=None)
    @given(
        arrays=st.fixed_dictionaries({name: hnp.arrays(
            np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
            elements=st.one_of(st.floats(),
                               st.sampled_from([-0.0, 5e-324, -2.5e-310, np.inf, -np.inf])),
        ) for name in SUMMARY_ARRAYS}),
        samples=st.integers(1, 2 ** 53),
        horizon=st.floats(allow_nan=False),
        names=st.one_of(st.none(), st.lists(st.text(), max_size=4)),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, arrays, samples, horizon, names):
        path = str(tmp_path_factory.mktemp("summary") / "summary.bin")
        save_summary(PredictiveSummary(samples=samples, horizon=horizon, names=names, **arrays),
                     path)
        again = load_summary(path)
        assert again.samples == samples and again.names == names
        assert np.float64(again.horizon).tobytes() == np.float64(horizon).tobytes()
        for name, value in arrays.items():
            assert getattr(again, name).shape == value.shape
            assert getattr(again, name).tobytes() == value.tobytes()

    @pytest.mark.parametrize("damage", [
        lambda h: h.pop("samples"),
        lambda h: h.pop("horizon"),
        lambda h: h.update(samples="3"),
        lambda h: h.update(samples=0),
        lambda h: h.update(samples=True),
        lambda h: h.update(horizon="3.0"),
        lambda h: h["params"][0].__setitem__(1, "xx"),
        lambda h: h["params"][0].__setitem__(0, "reg_samples"),
        lambda h: h.update(format="anticipation-params-v1"),
        lambda h: h.update(format="anticipation-summary-v1"),
        lambda h: h.pop("names"),
        lambda h: h.update(names="probe"),
        lambda h: h.update(names=["probe", 1]),
    ])
    def test_damaged_header_is_a_value_error_naming_the_path(self, tmp_path, damage):
        path = str(tmp_path / "summary.bin")
        save_summary(two_sample_summary(), path)
        with open(path, "rb") as fh:
            header, payload = json.loads(fh.readline()), fh.read()
        damage(header)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError) as info:
            load_summary(path)
        assert str(info.value).startswith(path)

    def test_written_summary_holds_exactly_the_stored_arrays(self, tmp_path):
        rng = np.random.default_rng(6)
        s = summary_from(rng.uniform(0, 3, (4, 5, 2)), rng.dirichlet([1, 1, 1], size=(4, 5, 2)))
        s.names = ["probe", "lifter"]
        path = str(tmp_path / "summary.bin")
        save_summary(s, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "anticipation-summary-v2"
        assert header["names"] == ["probe", "lifter"]
        assert header["params"] == [[name, [5, 2, *trailing]]
                                    for name, trailing in SUMMARY_ARRAYS.items()]
        assert len(SUMMARY_ARRAYS) == 5
