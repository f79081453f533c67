import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from htks import (
    DEFAULT_PART_MAPPING,
    LABEL_ORDER,
    EmptyScript,
    PartMapping,
    SessionResult,
    SessionScript,
    TouchLabel,
    Trial,
    TrialOutcome,
    aggregate_trial,
    score_session,
)

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES


class TestPartMapping:
    def test_default_pairing(self):
        assert DEFAULT_PART_MAPPING.required_for(H) is T
        assert DEFAULT_PART_MAPPING.required_for(T) is H
        assert DEFAULT_PART_MAPPING.required_for(S) is K
        assert DEFAULT_PART_MAPPING.required_for(K) is S

    def test_default_is_an_involution(self):
        for label in TouchLabel:
            twice = DEFAULT_PART_MAPPING.required_for(DEFAULT_PART_MAPPING.required_for(label))
            assert twice is label

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            PartMapping({H: H, S: K, K: S, T: H})

    def test_must_be_total(self):
        with pytest.raises(ValueError, match="missing"):
            PartMapping({H: T, T: H})

    def test_must_be_bijective(self):
        with pytest.raises(ValueError, match="bijection"):
            PartMapping({H: T, S: T, K: S, T: H})

    def test_non_involutive_bijection_allowed(self):
        cyclic = PartMapping({H: S, S: K, K: T, T: H})
        assert cyclic.required_for(H) is S


class TestTrialAndScript:
    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            Trial(stated_part=H, start_frame=5, end_frame=4)

    def test_negative_frames_rejected(self):
        with pytest.raises(ValueError):
            Trial(stated_part=H, start_frame=-1, end_frame=4)

    def test_empty_script_rejected(self):
        with pytest.raises(EmptyScript):
            SessionScript(trials=())

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SessionScript(trials=(Trial(H, 0, 10), Trial(T, 10, 20)))

    def test_out_of_order_windows_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SessionScript(trials=(Trial(H, 20, 30), Trial(T, 0, 10)))


class TestAggregateTrial:
    def test_strict_majority(self):
        assert aggregate_trial([T, T, T, K]) is T

    def test_empty_window_is_undecided(self):
        assert aggregate_trial([]) is None

    def test_majority_tie_longest_run_wins(self):
        # counts 3-3; longest toes run = 3 beats longest knees run = 2
        assert aggregate_trial([K, K, T, T, T, K]) is T

    def test_run_tie_falls_back_to_order(self):
        assert aggregate_trial([K, T, K, T]) is T  # default order prefers toes
        assert aggregate_trial([K, T, K, T], tie_break_order=(H, S, K, T)) is K

    def test_single_label_window(self):
        assert aggregate_trial([S]) is S


def _fill(window, label):
    return [(fid, label) for fid in range(window[0], window[1] + 1)]


class TestScoreSession:
    def test_perfect_inverted_response(self):
        script = SessionScript(trials=(Trial(H, 0, 3),))
        result = score_session(script, _fill((0, 3), T))
        assert result.per_trial[0].correct
        assert result.per_trial[0].required_part is T
        assert result.per_trial[0].observed_part is T
        assert result.num_correct == 1 and result.num_trials == 1
        assert result.score_fraction == 1.0

    def test_literal_response_is_wrong(self):
        script = SessionScript(trials=(Trial(H, 0, 3),))
        result = score_session(script, _fill((0, 3), H))
        assert not result.per_trial[0].correct
        assert result.score_fraction == 0.0

    def test_empty_window_undecided_and_incorrect(self):
        script = SessionScript(trials=(Trial(H, 0, 3), Trial(S, 10, 12)))
        result = score_session(script, _fill((0, 3), T))
        assert result.per_trial[0].correct
        assert result.per_trial[1].observed_part is None
        assert not result.per_trial[1].correct
        assert result.num_correct == 1 and result.num_trials == 2

    def test_frames_outside_all_windows_ignored(self):
        script = SessionScript(trials=(Trial(H, 10, 13),))
        decisions = _fill((10, 13), T)
        noisy = decisions + _fill((0, 9), K) + _fill((14, 50), S)
        assert score_session(script, decisions) == score_session(script, noisy)

    def test_twenty_trials_thirteen_correct(self):
        rng = np.random.default_rng(13)
        labels = list(TouchLabel)
        trials, cursor = [], 0
        for _ in range(20):
            start = cursor + int(rng.integers(1, 5))
            end = start + int(rng.integers(0, 6))
            trials.append(Trial(labels[int(rng.integers(0, 4))], start, end))
            cursor = end
        script = SessionScript(trials=tuple(trials))
        correct_idx = set(rng.choice(20, size=13, replace=False).tolist())
        decisions = []
        for i, trial in enumerate(script.trials):
            required = script.mapping.required_for(trial.stated_part)
            if i in correct_idx:
                fill = required
            else:
                fill = next(l for l in labels if l is not required)
            decisions += _fill((trial.start_frame, trial.end_frame), fill)
        result = score_session(script, decisions)
        assert [t.correct for t in result.per_trial] == [i in correct_idx for i in range(20)]
        assert result.num_correct == 13
        assert result.score_fraction == pytest.approx(0.65)

    def test_bounds_hold_over_random_sessions(self):
        rng = np.random.default_rng(99)
        labels = list(TouchLabel)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            trials, cursor = [], 0
            for _ in range(n):
                start = cursor + 1
                end = start + int(rng.integers(0, 4))
                trials.append(Trial(labels[int(rng.integers(0, 4))], start, end))
                cursor = end
            script = SessionScript(trials=tuple(trials))
            decisions = []
            for trial in script.trials:
                fill = labels[int(rng.integers(0, 4))]
                decisions += _fill((trial.start_frame, trial.end_frame), fill)
            result = score_session(script, decisions)
            assert 0 <= result.num_correct <= result.num_trials == n
            assert result.score_fraction == result.num_correct / n


def _reference_window(labels, tie_break_order):
    """The window rule of the ``game`` docstring, written out: the majority
    label; majority ties to the label with the longest consecutive run;
    remaining ties to the earliest label in ``tie_break_order``."""
    if not labels:
        return None
    counts = {label: labels.count(label) for label in set(labels)}
    leaders = [label for label in counts if counts[label] == max(counts.values())]
    runs = {}
    for index, label in enumerate(labels):
        if index == 0 or labels[index - 1] is not label:
            length = 1
            while index + length < len(labels) and labels[index + length] is label:
                length += 1
            runs[label] = max(runs.get(label, 0), length)
    leaders = [label for label in leaders if runs[label] == max(runs[l] for l in leaders)]
    return next(label for label in tie_break_order if label in leaders)


def _score_by_filter(script, decisions, tie_break_order):
    """Reference scoring: stable sort by frame id, then scan every frame
    for every trial."""
    items = sorted(decisions, key=lambda pair: pair[0])
    outcomes = []
    for trial in script.trials:
        window = [label for fid, label in items if trial.start_frame <= fid <= trial.end_frame]
        observed = _reference_window(window, tie_break_order)
        required = script.mapping.required_for(trial.stated_part)
        outcomes.append(TrialOutcome(trial.stated_part, required, observed, observed == required))
    return SessionResult(per_trial=tuple(outcomes))


_labels = st.sampled_from(list(TouchLabel))


@st.composite
def _sessions(draw):
    """A script plus unsorted (frame_id, label) pairs with gaps, frames
    outside every window and repeated frame ids."""
    trials, cursor = [], -1
    for _ in range(draw(st.integers(1, 8))):
        start = cursor + 1 + draw(st.integers(0, 4))
        cursor = start + draw(st.integers(0, 6))
        trials.append(Trial(draw(_labels), start, cursor))
    frame_ids = st.integers(0, cursor + 5)
    decisions = draw(st.lists(st.tuples(frame_ids, _labels), max_size=120))
    return SessionScript(trials=tuple(trials)), decisions


@given(_sessions(), st.permutations(list(TouchLabel)))
def test_score_session_matches_per_trial_filter(session, tie_break_order):
    script, decisions = session
    assert score_session(script, decisions, tie_break_order) == _score_by_filter(
        script, decisions, tie_break_order
    )


@given(st.lists(_labels, max_size=40), st.permutations(list(TouchLabel)))
def test_aggregate_trial_matches_the_reference_rule(labels, tie_break_order):
    assert aggregate_trial(labels, tie_break_order) == _reference_window(labels, tie_break_order)


def _as_arrays(decisions):
    return (np.array([frame_id for frame_id, _ in decisions], np.int64),
            np.array([LABEL_ORDER.index(label) for _, label in decisions], np.int8))


@given(_sessions(), st.permutations(list(TouchLabel)))
def test_pairs_and_arrays_score_alike(session, tie_break_order):
    script, decisions = session
    assert score_session(script, _as_arrays(decisions), tie_break_order) == score_session(
        script, decisions, tie_break_order
    )


class TestFrameIdsPastInt64:
    def test_pair_with_an_id_outside_int64_is_overflow_error(self):
        script = SessionScript(trials=(Trial(H, 0, 3),))
        for frame_id in (2**63, -(2**63) - 1):
            with pytest.raises(OverflowError):
                score_session(script, [(0, T), (frame_id, T)])

    def test_window_bounds_past_int64(self):
        last = 2**63 - 1
        script = SessionScript(trials=(Trial(H, last - 1, 2**70), Trial(S, 2**70 + 1, 2**71)))
        result = score_session(script, [(0, H), (last - 2, K), (last - 1, T), (last, T)])
        assert [t.observed_part for t in result.per_trial] == [T, None]
        assert result.num_correct == 1
