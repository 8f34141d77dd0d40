import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import anticipation

from anticipation import (
    PhaseSpec,
    ProcedureSequence,
    SimConfig,
    UsageRule,
    compute_targets,
    fit_baseline,
    generate_dataset,
    load_baseline,
    predict_baseline,
    save_baseline,
)
from anticipation.baselines import (
    _candidate_thresholds,
    expand_to_frames,
    occurrence_histogram,
)

from oracles import exhaustive_baseline_search, scan_forward_targets


def seq_from(presence, seq_id="v"):
    return ProcedureSequence(id=seq_id, presence=np.asarray(presence, dtype=bool))


def random_train_set(rng, n_videos=4, k=2):
    """Phase-locked sparse usage so the histogram carries real signal."""
    config = SimConfig(
        instruments=k,
        phases=3,
        duration_mean=float(rng.integers(120, 260)),
        duration_std=20.0,
        phase_plan=(PhaseSpec(80.0, 10.0), PhaseSpec(80.0, 10.0), PhaseSpec(80.0, 10.0)),
        usage_rules=tuple(
            UsageRule(instrument=j, phase=int(rng.integers(0, 3)),
                      probability=float(rng.uniform(0.6, 1.0)),
                      length_mean=float(rng.uniform(8, 30)))
            for j in range(k)
        ),
        trigger_rules=(),
    )
    return generate_dataset(config, n_videos, seed=int(rng.integers(0, 2**31)))


class TestHistogram:
    def test_counts_by_normalized_position(self):
        presence = np.zeros((100, 1), dtype=bool)
        presence[90:] = True  # last 10% of frames
        hist = occurrence_histogram([seq_from(presence)], bins=10)
        np.testing.assert_array_equal(hist[0], [0] * 9 + [10])

    def test_last_segment_thresholding(self):
        """All counts in bin 9: the optimal threshold keeps exactly that bin."""
        presence = np.zeros((100, 1), dtype=bool)
        presence[90:] = True
        model = fit_baseline([seq_from(presence)], horizon=3.0, bins=10, mode="oracle")
        np.testing.assert_array_equal(model.bin_presence()[0], [False] * 9 + [True])

    def test_all_zero_histogram_predicts_horizon(self):
        model = fit_baseline([seq_from(np.zeros((50, 1)))], horizon=3.0, bins=10)
        pred = predict_baseline(model, duration=50)
        assert (pred == 3.0).all()

    def test_candidate_set(self):
        np.testing.assert_array_equal(
            _candidate_thresholds(np.array([0, 3, 3, 7])), [0.0, 3.0, 7.0, 8.0]
        )

    @given(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 6)))
    def test_candidates_match_np_unique(self, counts):
        distinct = np.unique(counts)
        expected = np.concatenate([distinct, [distinct[-1] + 1]]).astype(np.float64)
        found = _candidate_thresholds(counts)
        assert found.dtype == expected.dtype
        np.testing.assert_array_equal(found, expected)

    def test_fit_does_not_import_numpy_ma(self):
        """``np.unique`` imports ``numpy.ma`` on its first call; the fit avoids it.

        numpy 1.x imports ``numpy.ma`` with numpy itself, so there the test is skipped.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(anticipation.__file__)))
        code = ("import sys, numpy as np; print('numpy.ma' in sys.modules); "
                "from anticipation import ProcedureSequence, fit_baseline; "
                "rng = np.random.default_rng(0); "
                "fit_baseline([ProcedureSequence(id=str(i), presence=rng.random((90, 2)) < 0.2) "
                "for i in range(3)], 3.0, bins=12); "
                "print('numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        with_numpy, after_fit = result.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.ma together with numpy")
        assert after_fit == "False"


class TestPredict:
    def test_final_bin_ramp(self):
        """Presence in the last bin of 10, oracle mode, 600 frames, h=3:
        a linear ramp to zero across the 3 minutes before frame 540."""
        presence = np.zeros((100, 1), dtype=bool)
        presence[90:] = True
        model = fit_baseline([seq_from(presence)], horizon=3.0, bins=10, mode="oracle")
        pred = predict_baseline(model, duration=600)[:, 0]
        assert pred[540] == 0.0
        np.testing.assert_allclose(pred[360:540], (np.arange(540, 360, -1) - 360) / 60.0)
        assert (pred[:360] == 3.0).all()

    def test_mean_mode_pads_surplus_with_horizon(self):
        presence = np.zeros((100, 1), dtype=bool)
        presence[50:60] = True
        model = fit_baseline([seq_from(presence)], horizon=2.0, bins=10, mode="mean")
        pred = predict_baseline(model, duration=150)[:, 0]
        assert pred.shape == (150,)
        assert (pred[100:] == 2.0).all()

    def test_same_duration_same_predictions(self):
        rng = np.random.default_rng(0)
        train = random_train_set(rng)
        model = fit_baseline(train, horizon=3.0, bins=50)
        np.testing.assert_array_equal(
            predict_baseline(model, duration=200), predict_baseline(model, duration=200)
        )

    def test_output_range(self):
        rng = np.random.default_rng(1)
        train = random_train_set(rng)
        for mode in ("mean", "oracle"):
            model = fit_baseline(train, horizon=3.0, bins=40, mode=mode)
            pred = predict_baseline(model, duration=123)
            assert pred.min() >= 0.0 and pred.max() <= 3.0


class TestThresholdOptimality:
    @pytest.mark.parametrize("mode", ["mean", "oracle"])
    def test_matches_independent_exhaustive_search(self, mode):
        rng = np.random.default_rng(20)
        for trial in range(4):
            train = random_train_set(rng, n_videos=3, k=2)
            model = fit_baseline(train, horizon=2.0, bins=25, mode=mode)
            targets = [compute_targets(s, 2.0) for s in train]
            expand = (
                [s.n_frames for s in train] if mode == "oracle"
                else [model.mean_duration] * len(train)
            )
            for j in range(2):
                thr, _ = exhaustive_baseline_search(
                    model.hist[j], [t.remaining[:, j] for t in targets],
                    expand, 2.0, 1.0,
                )
                assert model.thresholds[j] == thr

    def test_train_video_scores_reproducible(self):
        """Oracle-mode predictions for a train video equal the values the
        threshold search scored."""
        rng = np.random.default_rng(30)
        train = random_train_set(rng, n_videos=2)
        model = fit_baseline(train, horizon=3.0, bins=20, mode="oracle")
        seq = train[0]
        pred = predict_baseline(model, duration=seq.n_frames)
        bins = model.bin_presence()
        for j in range(model.n_instruments):
            synthetic = expand_to_frames(bins[j], seq.n_frames)
            r_ref, _ = scan_forward_targets(synthetic[:, None], 1.0, 3.0)
            np.testing.assert_array_equal(pred[:, j], r_ref[:, 0])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        train = random_train_set(rng)
        model = fit_baseline(train, horizon=3.0, bins=30, mode="oracle")
        path = str(tmp_path / "baseline.json")
        save_baseline(model, path)
        again = load_baseline(path)
        assert again.mode == model.mode
        assert again.mean_duration == model.mean_duration
        np.testing.assert_array_equal(again.hist, model.hist)
        np.testing.assert_array_equal(again.thresholds, model.thresholds)
        np.testing.assert_array_equal(
            predict_baseline(again, duration=100), predict_baseline(model, duration=100)
        )

    def test_fit_rejects_empty_or_bad_args(self):
        with pytest.raises(ValueError):
            fit_baseline([], horizon=3.0)
        with pytest.raises(ValueError):
            fit_baseline([seq_from(np.zeros((5, 1)))], horizon=3.0, bins=0)
        with pytest.raises(ValueError):
            fit_baseline([seq_from(np.zeros((5, 1)))], horizon=3.0, mode="bogus")
