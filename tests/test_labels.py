import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from anticipation import compute_targets
from anticipation.labels import ANTICIPATING, BACKGROUND, PRESENT, classify, remaining_time
from anticipation.workflow import ProcedureSequence

from oracles import scan_forward_targets


def seq_from(presence, fps=1.0):
    return ProcedureSequence(id="t", presence=np.asarray(presence, dtype=bool), fps=fps)


class TestComputeTargets:
    def test_single_trailing_occurrence(self):
        """presence [0,0,0,0,1] at 1 fps: gaps of 4..1 frames then present."""
        t = compute_targets(seq_from([[0], [0], [0], [0], [1]]), horizon=3.0)
        np.testing.assert_array_equal(
            t.remaining[:, 0], [4 / 60, 3 / 60, 2 / 60, 1 / 60, 0.0]
        )
        np.testing.assert_array_equal(
            t.classes[:, 0],
            [ANTICIPATING, ANTICIPATING, ANTICIPATING, ANTICIPATING, PRESENT],
        )

    def test_present_frame_is_zero(self):
        t = compute_targets(seq_from([[1], [1], [0]]), horizon=2.0)
        assert t.remaining[0, 0] == 0.0 and t.remaining[1, 0] == 0.0
        assert t.classes[0, 0] == PRESENT and t.classes[1, 0] == PRESENT

    def test_no_occurrence_saturates(self):
        t = compute_targets(seq_from(np.zeros((50, 2))), horizon=5.0)
        assert (t.remaining == 5.0).all()
        assert (t.classes == BACKGROUND).all()

    def test_frames_after_last_occurrence(self):
        t = compute_targets(seq_from([[1], [0], [0]]), horizon=1.0)
        np.testing.assert_array_equal(t.remaining[:, 0], [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(t.classes[1:, 0], [BACKGROUND, BACKGROUND])

    def test_gap_of_exactly_horizon_is_background(self):
        """Occurrence exactly h minutes ahead: r = h, class background."""
        presence = np.zeros((121, 1), dtype=bool)
        presence[120] = True  # 120 frames at 1 fps = 2 minutes
        t = compute_targets(seq_from(presence), horizon=2.0)
        assert t.remaining[0, 0] == 2.0
        assert t.classes[0, 0] == BACKGROUND
        assert t.classes[1, 0] == ANTICIPATING

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            compute_targets(seq_from([[0]]), horizon=0.0)


class TestOracleEquivalence:
    def test_matches_forward_scan_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(1, 5))
            fps = float(rng.choice([0.5, 1.0, 2.0]))
            h = float(rng.choice([2.0, 3.0, 5.0, 7.0]))
            presence = rng.random((n, k)) < rng.uniform(0.01, 0.2)
            t = compute_targets(seq_from(presence, fps=fps), horizon=h)
            r_ref, c_ref = scan_forward_targets(presence, fps, h)
            np.testing.assert_array_equal(t.remaining, r_ref)
            np.testing.assert_array_equal(t.classes, c_ref)


@st.composite
def presence_matrices(draw):
    """(n, C) presence with an all-false, an all-true and a one-frame column
    added to the drawn ones, at a few frame rates and horizons."""
    n = draw(st.integers(1, 60))
    drawn = draw(hnp.arrays(bool, (n, draw(st.integers(0, 4)))))
    one_frame = np.zeros((n, 1), dtype=bool)
    one_frame[draw(st.integers(0, n - 1))] = True
    columns = [drawn, np.zeros((n, 1), dtype=bool), np.ones((n, 1), dtype=bool), one_frame]
    order = draw(st.permutations(range(len(columns))))
    presence = np.hstack([columns[i] for i in order])
    fps = draw(st.sampled_from([0.5, 1.0, 25.0]))
    return presence, fps, draw(st.sampled_from([0.05, 1.0, 3.0]))


class TestRemainingTime:
    @given(presence_matrices())
    def test_equals_forward_scan_and_each_column_alone(self, case):
        presence, fps, h = case
        r = remaining_time(presence, fps, h)
        r_ref, _ = scan_forward_targets(presence, fps, h)
        assert r.shape == presence.shape
        assert r.tobytes() == r_ref.tobytes()
        for j in range(presence.shape[1]):
            assert remaining_time(presence[:, j], fps, h).tobytes() == r[:, j].tobytes()


@st.composite
def segmented_presence(draw):
    """(n, C) presence cut into segments of unequal lengths, with the end of
    each frame's segment, at a few frame rates and horizons."""
    k = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    parts = [draw(hnp.arrays(bool, (n, k))) for n in lengths]
    ends = np.repeat(np.cumsum(lengths), lengths)
    fps = draw(st.sampled_from([0.5, 1.0, 25.0]))
    return parts, ends, fps, draw(st.sampled_from([0.05, 1.0, 3.0]))


class TestRemainingTimeOverSegments:
    @given(segmented_presence())
    def test_each_segment_scores_as_alone_and_as_the_forward_scan(self, case):
        parts, ends, fps, h = case
        r = remaining_time(np.concatenate(parts), fps, h, ends=ends)
        start = 0
        for part in parts:
            stop = start + part.shape[0]
            r_ref, _ = scan_forward_targets(part, fps, h)
            assert r[start:stop].tobytes() == r_ref.tobytes()
            assert r[start:stop].tobytes() == remaining_time(part, fps, h).tobytes()
            start = stop


@st.composite
def horizon_lists(draw, fps):
    """Distinct horizons in any order, most of them a whole number of frames,
    so that some gap of a drawn track equals the horizon exactly."""
    frames = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    extra = draw(st.lists(st.sampled_from([0.05, 1.0, 3.0]), max_size=1))
    return [f / (fps * 60.0) for f in frames] + [h for h in extra if h * fps * 60.0 not in frames]


class TestEveryHorizonInOnePass:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(presence_matrices(), st.data())
    def test_each_horizon_equals_the_forward_scan_and_a_call_of_its_own(self, case, data):
        presence, fps, _ = case
        horizons = data.draw(horizon_lists(fps))
        seq = seq_from(presence, fps=fps)
        targets = compute_targets(seq, horizons)
        assert [t.horizon for t in targets] == horizons
        for h, t in zip(horizons, targets):
            r_ref, c_ref = scan_forward_targets(presence, fps, h)
            alone = compute_targets(seq, h)
            assert t.remaining.tobytes() == r_ref.tobytes() == alone.remaining.tobytes()
            assert t.classes.tobytes() == c_ref.tobytes() == alone.classes.tobytes()

    def test_a_gap_of_exactly_one_horizon_is_anticipating_at_a_longer_one(self):
        presence = np.zeros((121, 1), dtype=bool)
        presence[120] = True  # 2 minutes ahead of frame 0 at 1 fps
        short, exact, long = compute_targets(seq_from(presence), (1.0, 2.0, 3.0))
        assert [t.remaining[0, 0] for t in (short, exact, long)] == [1.0, 2.0, 2.0]
        assert [t.classes[0, 0] for t in (short, exact, long)] == [BACKGROUND, BACKGROUND,
                                                                   ANTICIPATING]

    def test_rejects_a_bad_horizon_among_good_ones(self):
        with pytest.raises(ValueError, match="horizon must be positive, got -1"):
            compute_targets(seq_from([[0]]), [2.0, -1.0])


class TestInvariants:
    def test_truncation_and_monotonicity_in_horizon(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            presence = rng.random((200, 3)) < 0.05
            seq = seq_from(presence)
            r_small = compute_targets(seq, horizon=2.0).remaining
            r_large = compute_targets(seq, horizon=5.0).remaining
            assert r_small.max() <= 2.0
            assert (r_large >= r_small - 1e-15).all()

    def test_class_partition_is_exactly_one(self):
        rng = np.random.default_rng(3)
        presence = rng.random((300, 4)) < 0.1
        t = compute_targets(seq_from(presence), horizon=3.0)
        r, c = t.remaining, t.classes
        assert ((c == PRESENT) == presence).all()
        assert ((c == ANTICIPATING) == ((r > 0) & (r < 3.0) & ~presence)).all()
        assert ((c == BACKGROUND) == ((r == 3.0) & ~presence)).all()

    def test_descent_rate_between_occurrences(self):
        """r decreases by 1/(fps*60) per frame while approaching an occurrence."""
        presence = np.zeros((100, 1), dtype=bool)
        presence[80] = True
        t = compute_targets(seq_from(presence, fps=2.0), horizon=3.0)
        inside = t.remaining[:80, 0]
        ramp = inside[inside < 3.0]
        np.testing.assert_allclose(np.diff(ramp), -1.0 / (2.0 * 60.0), atol=1e-15)

    def test_zero_iff_present(self):
        rng = np.random.default_rng(11)
        presence = rng.random((250, 2)) < 0.15
        t = compute_targets(seq_from(presence), horizon=2.0)
        assert ((t.remaining == 0.0) == presence).all()


class TestHelpers:
    def test_remaining_time_1d_track(self):
        r = remaining_time(np.array([0, 0, 1, 0]), fps=1.0, horizon=3.0)
        np.testing.assert_array_equal(r, [2 / 60, 1 / 60, 0.0, 3.0])

    def test_classify_boundaries(self):
        r = np.array([[0.0, 1.5, 3.0]])
        presence = np.array([[True, False, False]])
        c = classify(r, presence, horizon=3.0)
        np.testing.assert_array_equal(c[0], [PRESENT, ANTICIPATING, BACKGROUND])
