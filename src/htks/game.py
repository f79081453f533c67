"""Session scripts, trial aggregation and scoring.

The game asks for one body part per trial but the correct response is a
*different* part, given by the script's mapping. A trial's touched part is
the majority frame label inside its window; majority ties go to the label
with the longest consecutive run, then to the classifier tie-break order.
Trials with no frames are undecided and score as incorrect, so the score
denominator never shrinks.

Scoring sees only what the classifier decided: each frame is a
``(frame_id, TouchLabel)`` pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .classifier import DEFAULT_TIE_BREAK_ORDER
from .errors import EmptyScript
from .pose import TouchLabel

__all__ = [
    "PartMapping",
    "DEFAULT_PART_MAPPING",
    "Trial",
    "SessionScript",
    "TrialOutcome",
    "SessionResult",
    "aggregate_trial",
    "score_session",
]


@dataclass(frozen=True)
class PartMapping:
    """Bijection from the stated part to the part that must be touched.

    Every stated part must map to a different part (that is the whole
    game), and no two stated parts may share a required part.
    """

    mapping: Mapping[TouchLabel, TouchLabel]

    def __post_init__(self):
        mapping = dict(self.mapping)
        missing = [label.value for label in TouchLabel if label not in mapping]
        if missing:
            raise ValueError(f"mapping must cover every part; missing: {', '.join(missing)}")
        for stated, required in mapping.items():
            if stated is required:
                raise ValueError(f"mapping may not send {stated.value!r} to itself")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping must be a bijection; two parts share a target")
        object.__setattr__(self, "mapping", mapping)

    def required_for(self, stated: TouchLabel) -> TouchLabel:
        return self.mapping[stated]


# The canonical pairing: head trades with toes, shoulders with knees.
DEFAULT_PART_MAPPING = PartMapping(
    {
        TouchLabel.HEAD: TouchLabel.TOES,
        TouchLabel.TOES: TouchLabel.HEAD,
        TouchLabel.SHOULDERS: TouchLabel.KNEES,
        TouchLabel.KNEES: TouchLabel.SHOULDERS,
    }
)


@dataclass(frozen=True)
class Trial:
    """One spoken request and its inclusive frame window."""

    stated_part: TouchLabel
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if self.start_frame < 0 or self.end_frame < 0:
            raise ValueError("trial frames must be non-negative")
        if self.start_frame > self.end_frame:
            raise ValueError(
                f"trial window reversed: start {self.start_frame} > end {self.end_frame}"
            )


@dataclass(frozen=True)
class SessionScript:
    """An ordered list of trials plus the response mapping."""

    trials: Sequence[Trial]
    mapping: PartMapping = DEFAULT_PART_MAPPING

    def __post_init__(self):
        trials = tuple(self.trials)
        if not trials:
            raise EmptyScript("session script has no trials")
        for prev, cur in zip(trials, trials[1:]):
            if cur.start_frame <= prev.end_frame:
                raise ValueError(
                    f"trial windows must be ordered and disjoint: "
                    f"[{cur.start_frame}, {cur.end_frame}] follows "
                    f"[{prev.start_frame}, {prev.end_frame}]"
                )
        object.__setattr__(self, "trials", trials)


@dataclass(frozen=True)
class TrialOutcome:
    stated_part: TouchLabel
    required_part: TouchLabel
    observed_part: Optional[TouchLabel]  # None when the window was undecided
    correct: bool


@dataclass(frozen=True)
class SessionResult:
    per_trial: tuple[TrialOutcome, ...]
    num_correct: int = field(init=False)
    num_trials: int = field(init=False)
    score_fraction: float = field(init=False)

    def __post_init__(self):
        per_trial = tuple(self.per_trial)
        object.__setattr__(self, "per_trial", per_trial)
        object.__setattr__(self, "num_trials", len(per_trial))
        object.__setattr__(self, "num_correct", sum(1 for t in per_trial if t.correct))
        object.__setattr__(self, "score_fraction", self.num_correct / self.num_trials)


def _longest_run(labels: Sequence[TouchLabel], target: TouchLabel) -> int:
    best = run = 0
    for label in labels:
        run = run + 1 if label is target else 0
        best = max(best, run)
    return best


def aggregate_trial(
    labels: Iterable[TouchLabel],
    tie_break_order: Sequence[TouchLabel] = DEFAULT_TIE_BREAK_ORDER,
) -> Optional[TouchLabel]:
    """Reduce the frame labels of one window to a single touched part.

    Majority label wins; an empty window is undecided (None). Majority
    ties go to the label with the longest consecutive run, remaining ties
    to the earliest label in ``tie_break_order``.
    """
    labels = list(labels)
    if not labels:
        return None
    counts = Counter(labels)
    top = max(counts.values())
    leaders = [label for label in counts if counts[label] == top]
    if len(leaders) == 1:
        return leaders[0]
    runs = {label: _longest_run(labels, label) for label in leaders}
    best_run = max(runs.values())
    run_leaders = [label for label in leaders if runs[label] == best_run]
    if len(run_leaders) == 1:
        return run_leaders[0]
    return next(label for label in tie_break_order if label in run_leaders)


def score_session(
    script: SessionScript,
    decisions: Iterable[tuple[int, TouchLabel]],
    tie_break_order: Sequence[TouchLabel] = DEFAULT_TIE_BREAK_ORDER,
) -> SessionResult:
    """Score a full session against its script.

    ``decisions`` pairs frame ids with frame labels, in any order; pairs
    with the same frame id keep their given order. Frames outside every
    trial window are ignored; missing frames simply thin the windows they
    belong to. An undecided trial is never correct.
    """
    frame_id = itemgetter(0)
    items = sorted(decisions, key=frame_id)
    outcomes = []
    for trial in script.trials:
        start = bisect_left(items, trial.start_frame, key=frame_id)
        end = bisect_right(items, trial.end_frame, lo=start, key=frame_id)
        observed = aggregate_trial([label for _, label in items[start:end]], tie_break_order)
        required = script.mapping.required_for(trial.stated_part)
        outcomes.append(
            TrialOutcome(
                stated_part=trial.stated_part,
                required_part=required,
                observed_part=observed,
                correct=observed == required,
            )
        )
    return SessionResult(per_trial=tuple(outcomes))
