from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import htks.pipeline
from htks import (
    ConfusionMatrix,
    EmptyClassRow,
    EmptyInput,
    EvaluationError,
    LABEL_ORDER,
    TouchLabel,
    build_confusion,
    compare_reports,
    format_report,
    report,
)

H, S, K, T = TouchLabel.HEAD, TouchLabel.SHOULDERS, TouchLabel.KNEES, TouchLabel.TOES

# Reference percentage grids used to pin the reporting arithmetic: the
# plain argmin system, the same system with the bent-torso rule, and with
# both rules. Rows/columns ordered head, shoulders, knees, toes.
ROWS_ARGMIN = [
    [94.47, 5.53, 0.00, 0.00],
    [0.12, 99.63, 0.25, 0.00],
    [0.00, 0.54, 98.17, 1.29],
    [9.33, 0.21, 14.00, 76.46],
]
ROWS_RULE1 = [
    [93.21, 4.96, 0.26, 1.57],
    [0.37, 99.39, 0.12, 0.12],
    [0.00, 0.60, 97.22, 2.18],
    [0.76, 0.00, 2.05, 97.19],
]
ROWS_RULES12 = [
    [94.78, 3.39, 0.26, 1.57],
    [0.50, 99.25, 0.12, 0.12],
    [0.00, 0.60, 97.22, 2.18],
    [0.76, 0.00, 2.05, 97.19],
]


def counts_from_rows(rows, per_cell_scale=100):
    """Integer counts whose row percentages reproduce two-decimal rows."""
    return np.array([[round(p * per_cell_scale) for p in row] for row in rows], dtype=np.int64)


def pairs_from_counts(counts):
    pairs = []
    for i, truth in enumerate(LABEL_ORDER):
        for j, predicted in enumerate(LABEL_ORDER):
            pairs.extend([(truth, predicted)] * int(counts[i][j]))
    return pairs


class TestBuildConfusion:
    def test_direct_count(self):
        matrix = build_confusion([(H, H), (H, S)])
        assert matrix.counts[0].tolist() == [1, 1, 0, 0]
        assert matrix.counts[1:].sum() == 0
        assert matrix.total == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            build_confusion([])

    def test_accepts_any_iterable(self):
        matrix = build_confusion(iter([(K, T)] * 5))
        assert matrix.count(K, T) == 5

    def test_permutation_invariance(self, rng):
        labels = list(TouchLabel)
        pairs = [(labels[int(a)], labels[int(b)])
                 for a, b in rng.integers(0, 4, size=(500, 2))]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert build_confusion(pairs) == build_confusion(shuffled)

    def test_merge_additivity(self, rng):
        labels = list(TouchLabel)
        pairs = [(labels[int(a)], labels[int(b)])
                 for a, b in rng.integers(0, 4, size=(600, 2))]
        first, second = pairs[:251], pairs[251:]
        merged = build_confusion(first).counts + build_confusion(second).counts
        assert np.array_equal(merged, build_confusion(pairs).counts)

    def test_reproduces_reference_rows_from_pair_stream(self):
        # 4,443 frames spread over the four classes, rounded per cell by
        # largest remainder so every percentage lands within 0.05.
        row_totals = [1110, 1111, 1111, 1111]
        counts = []
        for row, total in zip(ROWS_RULES12, row_totals):
            raw = [p * total / 100.0 for p in row]
            floors = [int(v) for v in raw]
            remainder = total - sum(floors)
            order = sorted(range(4), key=lambda idx: raw[idx] - floors[idx], reverse=True)
            for idx in order[:remainder]:
                floors[idx] += 1
            counts.append(floors)
        rep = report(build_confusion(pairs_from_counts(counts)))
        assert rep.matrix.total == 4443
        for i in range(4):
            for j in range(4):
                assert rep.row_percentages[i, j] == pytest.approx(
                    ROWS_RULES12[i][j], abs=0.05
                )

    def test_uniform_random_rows_near_quarter(self, rng):
        labels = list(TouchLabel)
        pairs = [(labels[int(a)], labels[int(b)])
                 for a, b in rng.integers(0, 4, size=(10_000, 2))]
        rep = report(build_confusion(pairs))
        for i in range(4):
            row_total = rep.matrix.row_totals[i]
            sigma = 100.0 * np.sqrt(0.25 * 0.75 / row_total)
            for j in range(4):
                assert abs(rep.row_percentages[i, j] - 25.0) < 3.0 * sigma


class TestConfusionMatrixType:
    def test_rejects_negative(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = -1
        with pytest.raises(ValueError):
            ConfusionMatrix(counts)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((3, 4), dtype=int))

    def test_rejects_fractional(self):
        counts = np.zeros((4, 4))
        counts[0, 0] = 1.5
        with pytest.raises(ValueError):
            ConfusionMatrix(counts)

    @pytest.mark.parametrize("cell", ["1", None, 1 + 0j], ids=["string", "none", "complex"])
    def test_rejects_non_numeric(self, cell):
        grid = [[1] * 4 for _ in range(4)]
        grid[2][1] = cell
        with pytest.raises(ValueError, match="numbers"):
            ConfusionMatrix(grid)

    def test_rejects_booleans(self):
        with pytest.raises(ValueError, match="numbers"):
            ConfusionMatrix([[True] * 4] * 4)

    def test_accepts_integral_floats_and_lists(self):
        matrix = ConfusionMatrix([[1.0] * 4] * 4)
        assert matrix.total == 16

    def test_counts_read_only(self):
        matrix = ConfusionMatrix(np.ones((4, 4), dtype=int))
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 7


class TestReport:
    def test_overall_is_unweighted_mean_full_rules(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULES12)))
        assert rep.overall_accuracy == pytest.approx(97.11, abs=0.005)

    def test_overall_is_unweighted_mean_rule1(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULE1)))
        assert rep.overall_accuracy == pytest.approx(96.75, abs=0.005)

    def test_overall_is_unweighted_mean_argmin(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_ARGMIN)))
        assert rep.overall_accuracy == pytest.approx(92.18, abs=0.005)

    def test_overall_differs_from_frame_weighted_rate(self):
        # Skewed row sizes: unweighted means of the diagonals must not
        # collapse into the pooled frame rate.
        counts = np.array([
            [90, 10, 0, 0],
            [0, 1000, 0, 0],
            [0, 0, 1000, 0],
            [5, 0, 0, 5],
        ])
        rep = report(ConfusionMatrix(counts))
        unweighted = (90.0 + 100.0 + 100.0 + 50.0) / 4.0
        pooled = 100.0 * (90 + 1000 + 1000 + 5) / counts.sum()
        assert rep.overall_accuracy == pytest.approx(unweighted, abs=1e-9)
        assert abs(rep.overall_accuracy - pooled) > 1.0

    def test_per_class_is_diagonal(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_ARGMIN)))
        assert rep.per_class_accuracy[T] == pytest.approx(76.46, abs=1e-9)
        assert rep.per_class_accuracy[H] == pytest.approx(94.47, abs=1e-9)

    def test_rows_sum_to_hundred(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULES12)))
        for i in range(4):
            assert rep.row_percentages[i].sum() == pytest.approx(100.0, abs=0.02)

    def test_empty_class_row_names_the_class(self):
        counts = np.ones((4, 4), dtype=int)
        counts[2, :] = 0  # knees row
        with pytest.raises(EmptyClassRow, match="knees"):
            report(ConfusionMatrix(counts))


class TestCompareReports:
    def test_toe_improvement_delta(self):
        before = report(ConfusionMatrix(counts_from_rows(ROWS_ARGMIN)))
        after = report(ConfusionMatrix(counts_from_rows(ROWS_RULES12)))
        delta = compare_reports(before, after)
        assert delta.per_class[T] == pytest.approx(20.73, abs=0.01)

    def test_reflexive_deltas_zero(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULE1)))
        delta = compare_reports(rep, rep)
        assert delta.overall == 0.0
        assert all(v == 0.0 for v in delta.per_class.values())

    def test_deltas_match_external_subtraction(self, rng):
        a = report(ConfusionMatrix(rng.integers(1, 50, size=(4, 4))))
        b = report(ConfusionMatrix(rng.integers(1, 50, size=(4, 4))))
        delta = compare_reports(a, b)
        assert delta.overall == pytest.approx(
            b.overall_accuracy - a.overall_accuracy, abs=1e-12)
        for label in LABEL_ORDER:
            assert delta.per_class[label] == pytest.approx(
                b.per_class_accuracy[label] - a.per_class_accuracy[label], abs=1e-12)


class TestFormatReport:
    def test_table_layout(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULES12)))
        text = format_report(rep)
        lines = text.splitlines()
        assert lines[0].split() == ["head", "shoulders", "knees", "toes", "sum"]
        assert lines[1].split()[0] == "head"
        assert "97.19" in text
        assert "overall accuracy = 97.11" in text

    def test_delimited_layout(self):
        rep = report(ConfusionMatrix(counts_from_rows(ROWS_RULES12)))
        text = format_report(rep, style="delimited")
        lines = text.splitlines()
        assert lines[0] == "truth,head,shoulders,knees,toes,sum"
        assert lines[4].startswith("toes,0.76,0.00,2.05,97.19")
        assert lines[-1] == "overall,97.11"

    def test_unknown_style_rejected(self):
        rep = report(ConfusionMatrix(np.ones((4, 4), dtype=int)))
        with pytest.raises(ValueError):
            format_report(rep, style="jsonl")


@given(st.lists(st.tuples(st.sampled_from(list(TouchLabel)), st.sampled_from(list(TouchLabel))),
                min_size=1, max_size=60))
def test_total_equals_pair_count(pairs):
    assert build_confusion(pairs).total == len(pairs)


# Frame ids near 0 collide often; ids near 2**63 - 1 sit at the int64 edge.
_JOIN_PAIR = st.tuples(
    st.one_of(st.integers(0, 12), st.integers(2**63 - 4, 2**63 - 1)),
    st.sampled_from(LABEL_ORDER),
)


def label_arrays(pairs):
    """(frame_id, TouchLabel) pairs as the (ids, labels) arrays of the pipeline."""
    return (np.array([frame_id for frame_id, _ in pairs], np.int64),
            np.array([LABEL_ORDER.index(label) for _, label in pairs], np.int8))


class TestEvaluateDecisions:
    @given(truth=st.lists(_JOIN_PAIR, unique_by=lambda pair: pair[0]),
           decided=st.lists(_JOIN_PAIR),
           every_class=st.booleans(),
           join_frames=st.sampled_from([1, 3, 4096]))
    def test_matches_a_dict_join(self, truth, decided, every_class, join_frames):
        # Both lists come in any order; truth ids may be missing from the
        # decisions and decided ids from the truth.
        if every_class:
            labelled = [(100 + i, label) for i, label in enumerate(LABEL_ORDER)]
            truth, decided = truth + labelled, labelled + decided
        by_id = dict(truth)
        try:
            expected = report(build_confusion(
                [(by_id[frame_id], label) for frame_id, label in decided if frame_id in by_id]
            ))
        except EvaluationError as exc:
            expected = exc
        with mock.patch.object(htks.pipeline, "_JOIN_FRAMES", join_frames):
            try:
                rep, skipped = htks.pipeline.evaluate_decisions(
                    label_arrays(decided), label_arrays(truth))
            except EvaluationError as exc:
                assert (type(exc), str(exc)) == (type(expected), str(expected))
                return
        assert rep.matrix == expected.matrix
        assert skipped == sum(frame_id not in by_id for frame_id, _ in decided)

    @pytest.mark.parametrize("truth", [[], [(7, H)]], ids=["empty", "disjoint"])
    def test_no_labelled_frame_is_empty_input(self, truth):
        with pytest.raises(EmptyInput, match="zero pairs"):
            htks.pipeline.evaluate_decisions(label_arrays([(1, H), (2, T)]), label_arrays(truth))
