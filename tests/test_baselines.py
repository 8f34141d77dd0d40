import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import anticipation

from anticipation import (
    PhaseSpec,
    SimConfig,
    UsageRule,
    compute_targets,
    fit_baseline,
    generate_dataset,
    load_baseline,
    predict_baseline,
    save_baseline,
)
from anticipation import artifacts, baselines, errors, labels
from anticipation.baselines import (
    _candidate_scores,
    _candidate_thresholds,
    expand_to_frames,
    occurrence_histogram,
)
from anticipation.workflow import ProcedureSequence

from oracles import exhaustive_baseline_scores, exhaustive_baseline_search, scan_forward_targets


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
                "from anticipation import fit_baseline; "
                "from anticipation.workflow import ProcedureSequence; "
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


class TestCandidateScores:
    """All candidates of an instrument are scored in one pass; each score must
    be the one a per-candidate pooled wMAE gives, bit for bit."""

    @staticmethod
    def scores_and_oracle(train, horizon, bins, mode, j):
        hist = occurrence_histogram(train, bins)
        remaining = [compute_targets(s, horizon).remaining[:, j] for s in train]
        mean_duration = int(round(np.mean([s.n_frames for s in train])))
        expand = ([s.n_frames for s in train] if mode == "oracle"
                  else [mean_duration] * len(train))
        cands, values = exhaustive_baseline_scores(hist[j], remaining, expand, horizon, 1.0)
        scores = _candidate_scores(hist[j], _candidate_thresholds(hist[j]), remaining, expand,
                                   horizon, 1.0)
        return scores, np.array(values), np.array(cands, dtype=np.float64)

    @pytest.mark.parametrize("mode", ["mean", "oracle"])
    @pytest.mark.parametrize("bins", [1, 7, 25, 1000])
    def test_equal_the_oracle_bit_for_bit(self, mode, bins):
        rng = np.random.default_rng(bins)
        for trial in range(2):
            train = random_train_set(rng, n_videos=3, k=2)
            for j in range(2):
                scores, values, _ = self.scores_and_oracle(train, 2.0, bins, mode, j)
                assert scores.tobytes() == values.tobytes()

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunks_of_candidates_score_as_one(self, monkeypatch, per_chunk):
        train = random_train_set(np.random.default_rng(7), n_videos=3, k=2)
        whole, _, cands = self.scores_and_oracle(train, 2.0, 1000, "mean", 0)
        assert cands.size > 3 and cands.size % 3  # several chunks, the last one short
        monkeypatch.setattr(baselines, "SCORE_BLOCK", per_chunk * sum(s.n_frames for s in train))
        chunked, values, _ = self.scores_and_oracle(train, 2.0, 1000, "mean", 0)
        assert chunked.tobytes() == whole.tobytes() == values.tobytes()

    def test_tie_picks_the_larger_threshold(self):
        """Counts [1, 0, 3, 0]: marking bins 0 and 2 or bin 2 alone costs the
        same (errors 1 + 3 frames against 4 + 0), so thresholds 0 and 1 tie."""
        train = [seq_from(np.array([0, 1, 0, 0, 0, 1, 1, 1, 0, 0], dtype=bool)[:, None])]
        scores, values, cands = self.scores_and_oracle(train, 0.1, 4, "oracle", 0)
        np.testing.assert_array_equal(cands, [0.0, 1.0, 3.0, 4.0])
        assert scores.tobytes() == values.tobytes()
        assert values[0] == values[1] < values[2]
        model = fit_baseline(train, horizon=0.1, bins=4, mode="oracle")
        assert model.thresholds[0] == 1.0

    @pytest.mark.parametrize("mode", ["mean", "oracle"])
    def test_instrument_absent_from_train_set_picks_the_sentinel(self, mode):
        rng = np.random.default_rng(8)
        train = [seq_from(np.column_stack([rng.random(n) < 0.2, np.zeros(n, dtype=bool)]), str(i))
                 for i, n in enumerate((90, 110, 100))]
        scores, values, cands = self.scores_and_oracle(train, 2.0, 25, mode, 1)
        np.testing.assert_array_equal(cands, [0.0, 1.0])
        assert scores.tobytes() == values.tobytes() and values[0] == values[1]
        model = fit_baseline(train, horizon=2.0, bins=25, mode=mode)
        assert model.thresholds[1] == 1.0
        assert not model.bin_presence()[1].any()


@st.composite
def ragged_train_sets(draw):
    """Train sets of unequal lengths, some of them shared, with a bin count,
    a horizon, a frame rate and a candidate chunk size."""
    k = draw(st.integers(1, 2))
    lengths = draw(st.lists(st.sampled_from([1, 7, 20, 31, 45, 60]), min_size=1, max_size=5))
    fps = draw(st.sampled_from([1.0, 25.0]))
    train = [ProcedureSequence(id=str(i), presence=draw(hnp.arrays(bool, (n, k))), fps=fps)
             for i, n in enumerate(lengths)]
    bins = draw(st.sampled_from([1, 3, 7, 25]))
    horizon = draw(st.sampled_from([0.05, 0.5, 2.0]))
    # Candidate-frames per chunk: every candidate in one chunk, or one or
    # two train sets' worth.
    block = draw(st.sampled_from([baselines.SCORE_BLOCK, sum(lengths), 2 * sum(lengths)]))
    return train, bins, horizon, fps, block


class TestRaggedTrainSets:
    """Oracle mode expands to every train length: one remaining-time call per
    candidate chunk still scores each length as a call of its own would."""

    @settings(deadline=None, max_examples=60)
    @given(ragged_train_sets())
    def test_one_call_per_chunk_equals_the_exhaustive_search(self, case):
        train, bins, horizon, fps, block = case
        hist = occurrence_histogram(train, bins)
        targets = [compute_targets(s, horizon) for s in train]
        mean_duration = int(round(np.mean([s.n_frames for s in train])))
        frames = sum(s.n_frames for s in train)
        with mock.patch.object(baselines, "SCORE_BLOCK", block):
            for mode in baselines.MODES:
                expand = ([s.n_frames for s in train] if mode == "oracle"
                          else [mean_duration] * len(train))
                model = fit_baseline(train, horizon, bins=bins, mode=mode)
                for j in range(hist.shape[0]):
                    remaining = [t.remaining[:, j] for t in targets]
                    cands = _candidate_thresholds(hist[j])
                    with mock.patch.object(labels, "remaining_time",
                                           wraps=labels.remaining_time) as calls:
                        scores = _candidate_scores(hist[j], cands, remaining, expand, horizon, fps)
                    chunk = max(1, block // frames)
                    assert calls.call_count == math.ceil(cands.shape[0] / chunk)
                    _, values = exhaustive_baseline_scores(hist[j], remaining, expand, horizon,
                                                           fps)
                    assert scores.tobytes() == np.nan_to_num(values, nan=0.0).tobytes()
                    thr, _ = exhaustive_baseline_search(hist[j], remaining, expand, horizon, fps)
                    assert model.thresholds[j] == thr


@st.composite
def several_horizons(draw):
    """A ragged train set with distinct horizons in any order, most of them a
    whole number of frames, so that some target or predicted gap equals one."""
    train, bins, _, fps, block = draw(ragged_train_sets())
    frames = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
    return train, bins, [f / (fps * 60.0) for f in frames] + draw(st.sampled_from([[], [2.0]])), \
        fps, block


class TestEveryHorizonInOneFit:
    """One fit over several horizons shares the histogram, the candidates and
    the gap pass; each horizon's model is the exhaustive search's at that horizon."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(several_horizons())
    def test_each_horizon_equals_the_exhaustive_search(self, case):
        train, bins, horizons, fps, block = case
        hist = occurrence_histogram(train, bins)
        targets = [compute_targets(s, horizons) for s in train]
        mean_duration = int(round(np.mean([s.n_frames for s in train])))
        with mock.patch.object(baselines, "SCORE_BLOCK", block):
            for mode in baselines.MODES:
                expand = ([s.n_frames for s in train] if mode == "oracle"
                          else [mean_duration] * len(train))
                models = fit_baseline(train, horizons, bins=bins, mode=mode)
                shared = fit_baseline(train, horizons, bins=bins, mode=mode, targets=targets)
                assert [m.horizon for m in models] == horizons
                for j in range(hist.shape[0]):
                    cands = _candidate_thresholds(hist[j])
                    scores = _candidate_scores(
                        hist[j], cands, [np.stack([t.remaining[:, j] for t in ts], axis=-1)
                                         for ts in targets], expand, horizons, fps)
                    for m, h in enumerate(horizons):
                        remaining = [ts[m].remaining[:, j] for ts in targets]
                        _, values = exhaustive_baseline_scores(hist[j], remaining, expand, h, fps)
                        assert scores[m].tobytes() == np.nan_to_num(values, nan=0.0).tobytes()
                        thr, _ = exhaustive_baseline_search(hist[j], remaining, expand, h, fps)
                        assert models[m].thresholds[j] == shared[m].thresholds[j] == thr

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(several_horizons(), st.lists(st.sampled_from([1, 6, 20, 31, 45, 70]), min_size=1,
                                        max_size=5))
    def test_a_prediction_for_several_durations_equals_one_call_each(self, case, durations):
        train, bins, horizons, _, _ = case
        for mode in baselines.MODES:
            for model in fit_baseline(train, horizons, bins=bins, mode=mode):
                preds = predict_baseline(model, durations)
                assert len(preds) == len(durations)
                for n, pred in zip(durations, preds):
                    alone = predict_baseline(model, n)
                    assert pred.shape == alone.shape == (n, model.n_instruments)
                    assert pred.tobytes() == alone.tobytes()


class TestSharedTargets:
    @pytest.mark.parametrize("mode", baselines.MODES)
    def test_fit_from_given_targets_saves_the_same_file(self, tmp_path, mode):
        train = random_train_set(np.random.default_rng(11), n_videos=3, k=2)
        targets = [compute_targets(s, 2.0) for s in train]
        for name, kwargs in (("own", {}), ("shared", {"targets": targets})):
            save_baseline(fit_baseline(train, horizon=2.0, bins=25, mode=mode, **kwargs),
                          str(tmp_path / name))
        assert (tmp_path / "shared").read_bytes() == (tmp_path / "own").read_bytes()

    def test_targets_of_another_horizon_or_train_set_are_refused(self):
        train = random_train_set(np.random.default_rng(12), n_videos=3, k=2)
        with pytest.raises(ValueError, match="horizon 2"):
            fit_baseline(train, horizon=2.0, targets=[compute_targets(s, 3.0) for s in train])
        with pytest.raises(ValueError, match="3 train sequences"):
            fit_baseline(train, horizon=2.0, targets=[compute_targets(train[0], 2.0)])


# What a baseline file whose arrays do not fit each other or hold a bad value is refused with.
SHAPE = ("expected a hist of K > 0 rows of 12 integer counts in [0, 2**63), K finite thresholds "
         "and K names (or null)")


def write_container(path, header, arrays):
    """A container file of ``header`` over ``arrays``, its array list taken from them."""
    header["params"] = [[name, list(value.shape)] for name, value in arrays.items()]
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + b"".join(np.asarray(value, "<f8").tobytes() for value in arrays.values()))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        train = random_train_set(rng)
        model = fit_baseline(train, horizon=3.0, bins=30, mode="oracle")
        path = str(tmp_path / "baseline.bin")
        save_baseline(model, path)
        again = load_baseline(path)
        assert again.mode == model.mode
        assert again.mean_duration == model.mean_duration
        np.testing.assert_array_equal(again.hist, model.hist)
        np.testing.assert_array_equal(again.thresholds, model.thresholds)
        np.testing.assert_array_equal(
            predict_baseline(again, duration=100), predict_baseline(model, duration=100)
        )

    @staticmethod
    def saved(tmp_path, mode="mean"):
        """A fitted baseline with instrument names, its file, and the file's header and
        arrays (writable copies)."""
        model = fit_baseline(random_train_set(np.random.default_rng(3)), horizon=3.0, bins=12,
                             mode=mode)
        model.names = ("probe", "lifter")
        path = tmp_path / "baseline.bin"
        save_baseline(model, str(path))
        header, arrays = artifacts.load_container(str(path), artifacts.BASELINE_FORMAT)
        return model, path, header, {name: value.copy() for name, value in arrays.items()}

    @pytest.mark.parametrize("mode", baselines.MODES)
    def test_round_trip_is_bit_exact(self, tmp_path, mode):
        model, path, header, _ = self.saved(tmp_path, mode)
        assert header["format"] == "anticipation-baseline-v1"
        assert header["params"] == [["hist", [2, 12]], ["thresholds", [2]]]
        again = load_baseline(str(path))
        for key in ("bins", "mode", "horizon", "fps", "mean_duration", "names"):
            assert getattr(again, key) == getattr(model, key), key
        assert again.hist.dtype == np.int64 and again.hist.tobytes() == model.hist.tobytes()
        assert again.thresholds.tobytes() == model.thresholds.tobytes()
        save_baseline(again, str(tmp_path / "again.bin"))
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("damage, message", [
        (lambda h, a: a.pop("hist"), "holds arrays ['thresholds'], expected ['hist', 'thresholds']"),
        (lambda h, a: a.update(extra=np.zeros(2)), "holds arrays ['extra', 'hist', 'thresholds']"),
        (lambda h, a: h.pop("names"), "header: missing key(s): names"),
        (lambda h, a: h.update(extra=1), "unknown config key(s) in header: extra"),
        (lambda h, a: a["hist"].__setitem__((1, 0), 1.5), SHAPE),
        (lambda h, a: a["hist"].__setitem__((0, 2), -1), SHAPE),
        (lambda h, a: a["hist"].__setitem__((0, 2), 2.0 ** 63), SHAPE),
        (lambda h, a: a["hist"].__setitem__((0, 2), math.nan), SHAPE),
        (lambda h, a: a.update(hist=a["hist"][0]), SHAPE),
        (lambda h, a: a.update(hist=a["hist"][:, 1:]), SHAPE),
        (lambda h, a: a.update(hist=a["hist"][:0], thresholds=a["thresholds"][:0]), SHAPE),
        (lambda h, a: a["thresholds"].__setitem__(0, math.nan), SHAPE),
        (lambda h, a: a["thresholds"].__setitem__(1, math.inf), SHAPE),
        (lambda h, a: h.update(dtype="<U1"), 'header.dtype: expected "<f8", got "<U1"'),
        (lambda h, a: a.update(thresholds=a["thresholds"][1:]), SHAPE),
        (lambda h, a: h["names"].pop(), SHAPE),
        (lambda h, a: h.update(mode="median"), 'header.mode: expected one of mean, oracle, got '
                                               '"median"'),
        (lambda h, a: h.update(bins="12"), 'header.bins: expected an integer, got "12"'),
        (lambda h, a: h.update(bins=0), "header.bins: expected an integer >= 1"),
        (lambda h, a: h.update(bins=10 ** 400), "header.bins: expected an integer, got an "
                                                "integer too large for int64"),
        (lambda h, a: h.update(horizon=-3.0), "header.horizon: expected a finite number > 0"),
        (lambda h, a: h.update(mean_duration=None), "header.mean_duration: expected an integer"),
        (lambda h, a: h.update(names=["probe", 2]), "header.names[1]: expected a string"),
    ])
    def test_load_rejects_a_damaged_file_naming_it(self, tmp_path, damage, message):
        _, path, header, arrays = self.saved(tmp_path)
        damage(header, arrays)
        write_container(path, header, arrays)
        with pytest.raises(ValueError) as exc:
            load_baseline(str(path))
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
        assert not isinstance(exc.value, errors.ConfigError)

    @pytest.mark.parametrize("text", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"bins": ',
        b"[]\n",
        b'{"format": "anticipation-baseline-v1\xff"}\n',
        b"",
    ], ids=["nested-too-deep", "not-json", "not-an-object", "not-utf8", "empty"])
    def test_load_rejects_a_file_that_is_not_a_baseline_container(self, tmp_path, text):
        path = tmp_path / "baseline.bin"
        path.write_bytes(text)
        message = f"{path}: not an anticipation-baseline-v1 file"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_baseline(str(path))

    def test_load_refuses_the_json_format_and_other_containers(self, tmp_path):
        """A baseline in the JSON format of earlier versions, or a container of another
        format, is not a baseline container; a missing file is a ValueError too."""
        model, path, _, _ = self.saved(tmp_path)
        old = tmp_path / "baseline_mean_h3.json"
        payload = {key: getattr(model, key) for key in ("bins", "mode", "horizon", "fps",
                                                        "mean_duration")}
        payload.update(thresholds=model.thresholds.tolist(), hist=model.hist.tolist(),
                       names=list(model.names))
        old.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        other = tmp_path / "summary.bin"
        artifacts.save_container(str(other), artifacts.SUMMARY_FORMAT, {"reg_mean": np.zeros(3)},
                                 samples=1, horizon=3.0, names=None)
        for wrong in (old, other):
            with pytest.raises(ValueError, match=re.escape(f"{wrong}: not an anticipation-"
                                                           "baseline-v1 file")):
                load_baseline(str(wrong))
        path.unlink()
        with pytest.raises(ValueError, match=re.escape(f"{path}: No such file")):
            load_baseline(str(path))

    def test_fit_rejects_empty_or_bad_args(self):
        with pytest.raises(ValueError):
            fit_baseline([], horizon=3.0)
        with pytest.raises(ValueError):
            fit_baseline([seq_from(np.zeros((5, 1)))], horizon=3.0, bins=0)
        with pytest.raises(ValueError):
            fit_baseline([seq_from(np.zeros((5, 1)))], horizon=3.0, mode="bogus")
