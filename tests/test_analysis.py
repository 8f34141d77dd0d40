import dataclasses

import numpy as np
import pytest
from scipy import stats

from anticipation.analysis import (
    error_uncertainty_pcc,
    filter_by_uncertainty,
    lower_median,
    pooled,
    tp_fp_uncertainty,
    trigger_conditional_uncertainty,
)
from anticipation.inference import PredictiveSummary
from anticipation.labels import ANTICIPATING, BACKGROUND, PRESENT, AnticipationTargets


def make_summary(reg_mean, reg_var=None, class_mean=None, cls_epi=None, cls_alea=None,
                 horizon=3.0):
    """Hand-built one-instrument summary; per-class arrays broadcast the
    class-averaged values into all three class slots."""
    reg_mean = np.asarray(reg_mean, dtype=float).reshape(-1, 1)
    n = reg_mean.shape[0]
    reg_var = (np.zeros((n, 1)) if reg_var is None
               else np.asarray(reg_var, dtype=float).reshape(n, 1))
    if class_mean is None:
        class_mean = np.tile([1.0, 0.0, 0.0], (n, 1, 1))
    else:
        class_mean = np.asarray(class_mean, dtype=float).reshape(n, 1, 3)
    cls_epi = (np.zeros((n, 1)) if cls_epi is None
               else np.asarray(cls_epi, dtype=float).reshape(n, 1))
    cls_alea = (np.zeros((n, 1)) if cls_alea is None
                else np.asarray(cls_alea, dtype=float).reshape(n, 1))
    return PredictiveSummary(
        samples=2, horizon=horizon, reg_mean=reg_mean, reg_epistemic_var=reg_var,
        class_mean=class_mean,
        class_epistemic_per_class=np.repeat(cls_epi[:, :, None], 3, axis=2),
        class_aleatoric_per_class=np.repeat(cls_alea[:, :, None], 3, axis=2),
    )


def make_targets(remaining, classes=None, horizon=3.0):
    remaining = np.asarray(remaining, dtype=float).reshape(-1, 1)
    if classes is None:
        classes = np.full_like(remaining, ANTICIPATING, dtype=np.int8)
        classes[remaining == 0.0] = PRESENT
        classes[remaining == horizon] = BACKGROUND
    else:
        classes = np.asarray(classes, dtype=np.int8).reshape(-1, 1)
    return AnticipationTargets(horizon=horizon, fps=1.0, remaining=remaining, classes=classes)


def with_trigger(summary, targets, visible):
    """Append instrument 1, a trigger annotated present exactly where ``visible``.

    Its predictions repeat those of instrument 0; only its targets matter.
    """
    visible = np.asarray(visible, dtype=bool)
    summary = dataclasses.replace(summary, **{
        f.name: np.concatenate([getattr(summary, f.name)] * 2, axis=1)
        for f in dataclasses.fields(summary) if f.name not in ("samples", "horizon", "names")
    })
    targets = dataclasses.replace(
        targets,
        remaining=np.column_stack([targets.remaining[:, 0],
                                   np.where(visible, 0.0, targets.horizon)]),
        classes=np.column_stack([targets.classes[:, 0],
                                 np.where(visible, PRESENT, BACKGROUND)]).astype(np.int8),
    )
    return summary, targets


class TestLowerMedian:
    def test_odd_and_even(self):
        assert lower_median(np.array([0.3, 0.1, 0.2])) == 0.2
        assert lower_median(np.array([0.4, 0.6])) == 0.4
        assert np.isnan(lower_median(np.array([])))


class TestPcc:
    def test_perfect_positive_and_negative(self):
        """Errors proportional to uncertainties give PCC 1; reversed, -1."""
        targets = make_targets([2.5, 2.5, 2.5])
        up = make_summary([2.2, 1.9, 1.6], reg_var=[2.0, 4.0, 6.0])  # errors .3 .6 .9
        assert error_uncertainty_pcc(pooled(up, targets))[0].value == pytest.approx(1.0)
        down = make_summary([2.2, 1.9, 1.6], reg_var=[6.0, 4.0, 2.0])
        assert error_uncertainty_pcc(pooled(down, targets))[0].value == pytest.approx(-1.0)

    def test_exact_linear_relation_gives_one(self):
        targets = make_targets([1.0, 1.0, 1.0])
        s = make_summary([2.0, 2.2, 2.4], reg_var=[2.0, 4.0, 6.0])
        assert error_uncertainty_pcc(pooled(s, targets))[0].value == pytest.approx(1.0)

    def test_constant_uncertainty_absent(self):
        s = make_summary([2.0, 2.2, 2.4], reg_var=[1.0, 1.0, 1.0])
        res = error_uncertainty_pcc(pooled(s, make_targets([1.0, 1.0, 1.0])))[0]
        assert np.isnan(res.value) and res.reason == "constant series"

    def test_too_few_points_absent(self):
        s = make_summary([3.0, 3.0, 1.5], reg_var=[1.0, 2.0, 3.0])
        res = error_uncertainty_pcc(pooled(s, make_targets([3.0, 3.0, 1.0])))[0]
        assert np.isnan(res.value) and "fewer than 2" in res.reason

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(0.4, 2.6, size=60)
        var = rng.uniform(0.01, 1.0, size=60)
        r = rng.uniform(0, 3, size=60)
        s = make_summary(preds, reg_var=var)
        res = error_uncertainty_pcc(pooled(s, make_targets(r)))[0]
        expected = stats.pearsonr(np.abs(preds - r), var).statistic
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0.4, 2.6, size=40)
        var = rng.uniform(0.01, 1.0, size=40)
        r = rng.uniform(0, 3, size=40)
        base = error_uncertainty_pcc(pooled(make_summary(preds, reg_var=var), make_targets(r)))[0]
        scaled = error_uncertainty_pcc(
            pooled(make_summary(preds, reg_var=5 * var + 2), make_targets(r)))[0]
        assert scaled.value == pytest.approx(base.value, abs=1e-12)

    def test_use_std_option(self):
        rng = np.random.default_rng(2)
        preds = rng.uniform(0.4, 2.6, size=40)
        var = rng.uniform(0.01, 1.0, size=40)
        r = rng.uniform(0, 3, size=40)
        res = error_uncertainty_pcc(pooled(make_summary(preds, reg_var=var), make_targets(r)),
                                    use_std=True)[0]
        expected = stats.pearsonr(np.abs(preds - r), np.sqrt(var)).statistic
        assert res.value == pytest.approx(expected, abs=1e-12)


class TestFiltering:
    def test_identity_at_100(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.4, 2.6, size=30)
        var = rng.uniform(0, 1, size=30)
        r = rng.uniform(0, 3, size=30)
        curve = filter_by_uncertainty(pooled(make_summary(preds, reg_var=var), make_targets(r)))[0]
        from anticipation.metrics import pmae
        unfiltered = pmae(preds.reshape(-1, 1), r.reshape(-1, 1), 3.0)[0]
        assert curve.at(100) == unfiltered

    def test_keeps_lower_uncertainty_half(self):
        s = make_summary([1.2, 2.0], reg_var=[0.01, 0.5])
        t = make_targets([1.0, 1.0])  # errors 0.2, 1.0
        curve = filter_by_uncertainty(pooled(s, t), percentiles=[50, 100])[0]
        assert curve.at(50) == pytest.approx(0.2)
        assert curve.at(100) == pytest.approx(0.6)

    def test_ties_keep_stable_order(self):
        s = make_summary([1.2, 2.0, 1.4, 2.2], reg_var=[0.3, 0.3, 0.3, 0.3])
        t = make_targets([1.0, 1.0, 1.0, 1.0])
        curve = filter_by_uncertainty(pooled(s, t), percentiles=[25, 50, 75, 100])[0]
        np.testing.assert_allclose(
            curve.pmae, [0.2, 0.6, (0.2 + 1.0 + 0.4) / 3, (0.2 + 1.0 + 0.4 + 1.2) / 4]
        )

    def test_empty_selection_gives_empty_curve(self):
        s = make_summary([3.0, 3.0], reg_var=[0.1, 0.2])
        curve = filter_by_uncertainty(pooled(s, make_targets([3.0, 3.0])),
                                      percentiles=[50, 100])[0]
        assert np.isnan(curve.pmae).all()
        assert (curve.counts == 0).all()


class TestTpFp:
    def test_all_correct_leaves_fp_absent(self):
        cls = np.tile([0.8, 0.1, 0.1], (3, 1, 1))
        s = make_summary([1.0, 1.0, 1.0], class_mean=cls, cls_alea=[0.1, 0.2, 0.3])
        t = make_targets([1.0, 1.0, 1.0], classes=[ANTICIPATING] * 3)
        res = tp_fp_uncertainty(pooled(s, t))[0]
        assert res.tp.count == 3 and res.fp.count == 0
        assert np.isnan(res.fp.median_aleatoric)

    def test_median_order_statistics(self):
        cls = np.tile([0.8, 0.1, 0.1], (3, 1, 1))
        s = make_summary([1.0] * 3, class_mean=cls, cls_epi=[0.1, 0.2, 0.3])
        t = make_targets([1.0] * 3, classes=[ANTICIPATING] * 3)
        assert tp_fp_uncertainty(pooled(s, t))[0].tp.median_epistemic == pytest.approx(0.2)

    def test_single_fp(self):
        cls = np.tile([0.8, 0.1, 0.1], (1, 1, 1))
        s = make_summary([1.0], class_mean=cls, cls_alea=[0.25])
        t = make_targets([3.0], classes=[BACKGROUND])
        res = tp_fp_uncertainty(pooled(s, t))[0]
        assert res.fp.count == 1
        assert res.fp.median_aleatoric == pytest.approx(0.25)


class TestTrigger:
    def test_hand_built_medians(self):
        cls = np.tile([0.8, 0.1, 0.1], (4, 1, 1))
        s = make_summary([1.0] * 4, class_mean=cls, cls_alea=[0.1, 0.1, 0.4, 0.6],
                         cls_epi=[0.1, 0.1, 0.4, 0.6], reg_var=[0.1, 0.1, 0.4, 0.6])
        t = make_targets([1.0] * 4, classes=[ANTICIPATING] * 4)
        s, t = with_trigger(s, t, [True, True, False, False])
        res = trigger_conditional_uncertainty(pooled(s, t), target=0, trigger=1)
        assert res.visible.cls_count == 2 and res.hidden.cls_count == 2
        assert res.visible.median_cls_aleatoric == pytest.approx(0.1)
        # lower-median convention: {0.4, 0.6} -> 0.4
        assert res.hidden.median_cls_aleatoric == pytest.approx(0.4)
        assert res.visible.median_reg_epistemic == pytest.approx(0.1)

    def test_never_visible_condition_absent(self):
        cls = np.tile([0.8, 0.1, 0.1], (3, 1, 1))
        s = make_summary([1.0] * 3, class_mean=cls)
        t = make_targets([1.0] * 3, classes=[ANTICIPATING] * 3)
        s, t = with_trigger(s, t, np.zeros(3, dtype=bool))
        res = trigger_conditional_uncertainty(pooled(s, t), target=0, trigger=1)
        assert res.visible.cls_count == 0
        assert np.isnan(res.visible.median_cls_aleatoric)
        assert res.hidden.cls_count == 3

    def test_memory_window_widens_visible(self):
        cls = np.tile([0.8, 0.1, 0.1], (4, 1, 1))
        s = make_summary([1.0] * 4, class_mean=cls)
        t = make_targets([1.0] * 4, classes=[ANTICIPATING] * 4)
        s, t = with_trigger(s, t, [True, False, False, False])
        strict = trigger_conditional_uncertainty(pooled(s, t), 0, 1)
        widened = trigger_conditional_uncertainty(pooled(s, t), 0, 1, memory_frames=2)
        assert strict.visible.cls_count == 1
        assert widened.visible.cls_count == 3

    def test_memory_window_stays_inside_its_sequence(self):
        """Seen in the last frame of one sequence is not seen in the next one."""
        first = with_trigger(make_summary([1.0] * 3), make_targets([1.0] * 3),
                             [False, False, True])
        second = with_trigger(make_summary([1.0] * 3), make_targets([1.0] * 3),
                              [False, False, False])
        pool = pooled([first[0], second[0]], [first[1], second[1]])
        res = trigger_conditional_uncertainty(pool, target=0, trigger=1, memory_frames=1)
        assert res.visible.cls_count == 1 and res.hidden.cls_count == 5

    def test_rejects_same_instrument(self):
        s, t = with_trigger(make_summary([1.0]), make_targets([1.0]), [True])
        with pytest.raises(ValueError, match="different instruments"):
            trigger_conditional_uncertainty(pooled(s, t), target=0, trigger=0)

    @pytest.mark.parametrize("trigger", [1, -1])
    def test_rejects_trigger_outside_the_pooled_instruments(self, trigger):
        s, t = make_summary([1.0] * 3), make_targets([1.0] * 3)
        with pytest.raises(ValueError, match="out of range for 1 instruments"):
            trigger_conditional_uncertainty(pooled(s, t), target=0, trigger=trigger)


class TestPooling:
    def test_analyses_are_pure_and_pool_across_sequences(self):
        rng = np.random.default_rng(4)
        summaries, targets = [], []
        for _ in range(3):
            preds = rng.uniform(0.4, 2.6, size=20)
            var = rng.uniform(0.01, 1.0, size=20)
            r = rng.uniform(0.1, 2.9, size=20)
            summaries.append(make_summary(preds, reg_var=var))
            targets.append(make_targets(r))
        pool = pooled(summaries, targets)
        first = error_uncertainty_pcc(pool)[0]
        second = error_uncertainty_pcc(pool)[0]
        assert first.value == second.value and first.count == 3 * 20
        joined_s = make_summary(
            np.concatenate([s.reg_mean[:, 0] for s in summaries]),
            reg_var=np.concatenate([s.reg_epistemic_var[:, 0] for s in summaries]),
        )
        joined_t = make_targets(np.concatenate([t.remaining[:, 0] for t in targets]))
        assert error_uncertainty_pcc(pooled(joined_s, joined_t))[0].value == pytest.approx(
            first.value, abs=1e-14
        )
