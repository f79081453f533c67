"""Session scripts, trial aggregation and scoring.

The game asks for one body part per trial but the correct response is a
*different* part, given by the script's mapping. A trial's touched part is
the majority frame label inside its window; majority ties go to the label
with the longest consecutive run, then to the classifier tie-break order.
Trials with no frames are undecided and score as incorrect, so the score
denominator never shrinks.

Scoring sees only what the classifier decided: a frame id and a
LABEL_ORDER index per frame, as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .classifier import DEFAULT_TIE_BREAK_ORDER
from .errors import EmptyScript
from .evaluation import _INDEX
from .pose import LABEL_ORDER, TouchLabel

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


def _window_label(labels: np.ndarray, tie_break: Sequence[int]) -> Optional[int]:
    """``aggregate_trial`` on LABEL_ORDER indices: ``labels`` of one window
    in frame order, ``tie_break`` the tie-break order."""
    if not len(labels):
        return None
    counts = np.bincount(labels, minlength=len(LABEL_ORDER))
    leaders = np.flatnonzero(counts == counts.max())
    if len(leaders) > 1:
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        longest = np.zeros(len(counts), np.intp)
        np.maximum.at(longest, labels[starts], np.diff(starts, append=len(labels)))
        leaders = leaders[longest[leaders] == longest[leaders].max()]
    if len(leaders) == 1:
        return int(leaders[0])
    return next(index for index in tie_break if index in leaders)


def aggregate_trial(
    labels: Iterable[TouchLabel],
    tie_break_order: Sequence[TouchLabel] = DEFAULT_TIE_BREAK_ORDER,
) -> Optional[TouchLabel]:
    """Reduce the frame labels of one window to a single touched part.

    Majority label wins; an empty window is undecided (None). Majority
    ties go to the label with the longest consecutive run, remaining ties
    to the earliest label in ``tie_break_order``.
    """
    indices = np.array([_INDEX[label] for label in labels], np.int8)
    index = _window_label(indices, [_INDEX[label] for label in tie_break_order])
    return None if index is None else LABEL_ORDER[index]


def score_session(script: SessionScript, decisions: tuple | Iterable[tuple[int, TouchLabel]],
                  tie_break_order: Sequence[TouchLabel] = DEFAULT_TIE_BREAK_ORDER) -> SessionResult:
    """Score a full session against its script.

    ``decisions`` is a pair of arrays ``(frame_ids, labels)``, int64 frame
    ids and int8 LABEL_ORDER indices, as ``htks run`` keeps them and
    ``load_decisions`` returns them. Any other iterable is read as
    ``(frame_id, TouchLabel)`` pairs and turned into those arrays first; a
    frame id outside int64 then raises OverflowError. Frames come in any
    order; frames with the same id keep their given order. Frames outside
    every trial window are ignored; missing frames simply thin the windows
    they belong to. An undecided trial is never correct.
    """
    if not (isinstance(decisions, tuple) and len(decisions) == 2
            and isinstance(decisions[0], np.ndarray)):
        pairs = list(decisions)
        decisions = (np.array([frame_id for frame_id, _ in pairs], np.int64),
                     np.array([_INDEX[label] for _, label in pairs], np.int8))
    order = np.argsort(decisions[0], kind="stable")
    frame_ids, labels = decisions[0][order], decisions[1][order]
    # A window [start, end] holds the frames with start - 1 < id <= end.
    edges = [edge for trial in script.trials for edge in (trial.start_frame - 1, trial.end_frame)]
    bounds = np.searchsorted(frame_ids, edges, "right").reshape(-1, 2).tolist()
    tie_break = [_INDEX[label] for label in tie_break_order]
    outcomes = []
    for trial, (start, end) in zip(script.trials, bounds):
        index = _window_label(labels[start:end], tie_break)
        observed = None if index is None else LABEL_ORDER[index]
        required = script.mapping.required_for(trial.stated_part)
        outcomes.append(TrialOutcome(trial.stated_part, required, observed, observed == required))
    return SessionResult(per_trial=tuple(outcomes))
