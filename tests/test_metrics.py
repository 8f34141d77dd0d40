import numpy as np
import pytest

from anticipation.metrics import evaluate_predictions, nanmean_with_count, pmae, wmae


def col(values):
    return np.asarray(values, dtype=float)[:, None]


class TestWmae:
    def test_perfect_predictions(self):
        r = col([0.5, 1.0, 3.0, 3.0])
        assert wmae(r, r, horizon=3.0)[0] == 0.0

    def test_hand_case(self):
        """Anticipating MAE 1.5 and background MAE 0 average to 0.75."""
        r = col([1.0, 2.0, 3.0, 3.0])
        pred = col([3.0, 3.0, 3.0, 3.0])
        assert wmae(pred, r, horizon=3.0)[0] == pytest.approx(0.75)

    def test_present_frames_excluded(self):
        r = col([0.0, 1.0, 3.0])
        pred = col([2.0, 1.0, 3.0])  # error only on the present frame
        assert wmae(pred, r, horizon=3.0)[0] == 0.0

    def test_single_group_only(self):
        r = col([1.0, 2.0])  # no background frames
        pred = col([1.5, 2.5])
        assert wmae(pred, r, horizon=3.0)[0] == pytest.approx(0.5)

    def test_absent_when_both_groups_empty(self):
        r = col([0.0, 0.0])
        assert np.isnan(wmae(col([1.0, 1.0]), r, horizon=3.0)[0])

    def test_constant_h_predictor_identity(self):
        """wMAE of the always-h predictor is half the mean gap on anticipating
        frames when both groups exist."""
        rng = np.random.default_rng(0)
        r = rng.uniform(0.01, 3.0, size=(500, 1))
        r[rng.random(500) < 0.3] = 3.0
        pred = np.full_like(r, 3.0)
        ant = (r > 0) & (r < 3.0)
        expected = 0.5 * (3.0 - r[ant]).mean()
        assert wmae(pred, r, 3.0)[0] == pytest.approx(expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0, 3, size=(100, 2))
        pred = rng.uniform(0, 3, size=(100, 2))
        perm = rng.permutation(100)
        np.testing.assert_allclose(wmae(pred, r, 3.0), wmae(pred[perm], r[perm], 3.0))
        np.testing.assert_allclose(pmae(pred, r, 3.0), pmae(pred[perm], r[perm], 3.0))

    def test_scale_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = rng.uniform(0, 5, size=(50, 3))
            pred = rng.uniform(-2, 9, size=(50, 3))  # clamped internally
            w = wmae(pred, r, 5.0)
            p = pmae(pred, r, 5.0)
            assert np.nanmax(w) <= 5.0 and np.nanmin(w) >= 0.0
            assert np.isnan(p).all() or (np.nanmax(p) <= 5.0 and np.nanmin(p) >= 0.0)


class TestPmae:
    def test_hand_case(self):
        pred = col([1.0, 2.0])
        r = col([1.5, 3.0])
        assert pmae(pred, r, horizon=3.0)[0] == pytest.approx(0.75)

    def test_absent_when_nothing_selected(self):
        pred = col([0.0, 3.0, 0.1])  # nothing inside (0.3, 2.7)
        r = col([1.0, 1.0, 1.0])
        assert np.isnan(pmae(pred, r, horizon=3.0)[0])

    def test_selection_is_strict_open_interval(self):
        # 0.1 * 3.0 and 0.9 * 3.0 are the exact interval ends, both excluded.
        pred = col([0.3, 2.7, 1.5, 0.1 * 3.0, 0.9 * 3.0])
        r = col([1.5, 1.5, 1.5, 1.5, 1.5])
        assert pmae(pred, r, horizon=3.0)[0] == 0.0  # only the middle frame counts
        assert evaluate_predictions(pred, r, horizon=3.0).n_selected[0] == 1


class TestReport:
    def test_mean_ignores_absent(self):
        assert nanmean_with_count(np.array([1.0, np.nan, 3.0])) == (2.0, 2)
        mean, count = nanmean_with_count(np.array([np.nan]))
        assert np.isnan(mean) and count == 0

    def test_report_counts_and_means(self):
        r = np.array([[1.0, 0.0], [3.0, 3.0], [2.0, 3.0]])
        pred = np.array([[1.0, 3.0], [3.0, 3.0], [2.0, 3.0]])
        rep = evaluate_predictions(pred, r, horizon=3.0, names=("a", "b"))
        assert rep.names == ("a", "b")
        np.testing.assert_array_equal(rep.n_anticipating, [2, 0])
        np.testing.assert_array_equal(rep.n_background, [1, 2])
        assert rep.wmae_count == 2
        assert rep.mean_wmae == 0.0
        payload = rep.to_dict()
        assert payload["per_instrument"]["a"]["wmae"] == 0.0

    def test_pooling_lists_equals_concatenation(self):
        rng = np.random.default_rng(5)
        preds = [rng.uniform(0, 3, size=(40, 2)) for _ in range(3)]
        rs = [rng.uniform(0, 3, size=(40, 2)) for _ in range(3)]
        joined_w = wmae(np.concatenate(preds), np.concatenate(rs), 3.0)
        np.testing.assert_allclose(wmae(preds, rs, 3.0), joined_w)
