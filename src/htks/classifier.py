"""Per-frame touch classification from hand-to-part distances.

A frame's distance profile averages the left/right wrist distances to each
candidate part (left wrist pairs with the left-side joint, right with
right). The baseline classifier picks the part with the smallest distance.
Two optional corrections target the failure modes of that argmin:

- rule 1, torso collapse: when the head-to-hip distance falls below a
  threshold the subject is folded over and the frame is labelled toes
  immediately, before anything else is compared;
- rule 2, shoulder bias: a constant is added to the hand-to-shoulder
  distance before the argmin, so hands-on-head frames with noisy keypoints
  stop leaking into the shoulders class.

The threshold and bias are fractions of a per-sequence reference scale
(the standing head-to-hip length, estimated from the opening frames), so
they survive camera-distance changes. Fixed-pixels mode pins the scale to
1.0 for setups that want raw pixel thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import isfinite
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyInput, DegeneratePose, EvaluationError, InvalidScale
from .pose import LABEL_ORDER, BodyPose, JointId, TouchLabel, _joint_array

__all__ = [
    "Normalization",
    "DEFAULT_TIE_BREAK_ORDER",
    "CALIBRATION_WINDOW",
    "DistanceProfile",
    "ClassifierConfig",
    "FrameDecision",
    "distance_profile",
    "classify_baseline",
    "classify",
    "calibration_scale",
]


class Normalization(str, Enum):
    """How the rule threshold/bias ratios are converted to pixels."""

    CALIBRATION_FRAME = "calibration_frame"
    FIXED_PIXELS = "fixed_pixels"


# On exact ties prefer the lower body: those are the classes the argmin
# under-recognizes in the first place.
DEFAULT_TIE_BREAK_ORDER = (
    TouchLabel.TOES,
    TouchLabel.KNEES,
    TouchLabel.SHOULDERS,
    TouchLabel.HEAD,
)

# Number of opening frames scanned for the standing calibration pose.
CALIBRATION_WINDOW = 30


@dataclass(frozen=True)
class DistanceProfile:
    """The four averaged hand-to-part distances for one frame, in pixels."""

    d_head: float
    d_shoulders: float
    d_knees: float
    d_ankles: float

    def __post_init__(self):
        for name in ("d_head", "d_shoulders", "d_knees", "d_ankles"):
            value = float(getattr(self, name))
            if not isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    def value(self, label: TouchLabel) -> float:
        """Distance entry competing for the given label (ankles map to toes)."""
        return self.as_tuple()[LABEL_ORDER.index(label)]

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The four distances in LABEL_ORDER."""
        return (self.d_head, self.d_shoulders, self.d_knees, self.d_ankles)


@dataclass(frozen=True)
class ClassifierConfig:
    """Tunable parameters of the frame classifier.

    The default threshold and bias ratios were calibrated against the
    synthetic test corpus shipped with this package; they are not taken
    from any published measurement and should be overridden per setup
    where better estimates exist.
    """

    rule1_threshold_ratio: float = 0.5
    rule2_bias_ratio: float = 0.05
    enable_rule1: bool = True
    enable_rule2: bool = True
    tie_break_order: tuple[TouchLabel, ...] = DEFAULT_TIE_BREAK_ORDER
    normalization: Normalization = Normalization.CALIBRATION_FRAME

    def __post_init__(self):
        ratios = ("rule1_threshold_ratio", "rule2_bias_ratio")
        for name in ratios:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("enable_rule1", "enable_rule2"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        if not isinstance(self.tie_break_order, (list, tuple)):
            raise ConfigError(f"tie_break_order must be a list, got {self.tie_break_order!r}")
        for name in ratios:
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:
                raise ConfigError(f"{name} is too large to be a float") from None
        if not (isfinite(self.rule1_threshold_ratio) and self.rule1_threshold_ratio > 0):
            raise ConfigError(
                f"rule1_threshold_ratio must be > 0, got {self.rule1_threshold_ratio!r}"
            )
        if not (isfinite(self.rule2_bias_ratio) and self.rule2_bias_ratio >= 0):
            raise ConfigError(f"rule2_bias_ratio must be >= 0, got {self.rule2_bias_ratio!r}")
        try:
            order = tuple(TouchLabel(label) for label in self.tie_break_order)
        except ValueError as exc:
            raise ConfigError(f"tie_break_order: {exc}") from None
        if sorted(order, key=lambda l: l.value) != sorted(TouchLabel, key=lambda l: l.value):
            raise ConfigError(
                f"tie_break_order must be a permutation of the four labels, got {order!r}"
            )
        object.__setattr__(self, "tie_break_order", order)
        try:
            object.__setattr__(self, "normalization", Normalization(self.normalization))
        except ValueError:
            raise ConfigError(
                f"normalization must be one of "
                f"{[m.value for m in Normalization]}, got {self.normalization!r}"
            ) from None


@dataclass(frozen=True)
class FrameDecision:
    """Classification outcome for one frame.

    ``profile`` always stores the unadjusted distances, even when the
    shoulder bias participated in the comparison.
    """

    label: TouchLabel
    profile: DistanceProfile
    rule1_fired: bool = False
    rule2_applied: bool = False
    tie_broken: bool = False

    def __post_init__(self):
        if self.rule1_fired and self.label is not TouchLabel.TOES:
            raise ValueError("rule 1 can only ever conclude toes")


# The nine distances of a frame as (from, to) joint pairs, in JointId
# indices: each wrist to the four parts (LABEL_ORDER, ankles standing for
# toes; left wrist to left-side joints, right to right), then head to hip.
_J = {joint: index for index, joint in enumerate(JointId)}
_DISTANCE_PAIRS = np.array([
    *((_J[JointId.LEFT_WRIST], _J[part]) for part in (
        JointId.HEAD, JointId.LEFT_SHOULDER, JointId.LEFT_KNEE, JointId.LEFT_ANKLE)),
    *((_J[JointId.RIGHT_WRIST], _J[part]) for part in (
        JointId.HEAD, JointId.RIGHT_SHOULDER, JointId.RIGHT_KNEE, JointId.RIGHT_ANKLE)),
    (_J[JointId.HEAD], _J[JointId.HIP]),
])
_SHOULDERS = LABEL_ORDER.index(TouchLabel.SHOULDERS)
_TOES = LABEL_ORDER.index(TouchLabel.TOES)


def _distances(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 4)`` distance profiles (LABEL_ORDER) and the ``(n,)``
    head-to-hip distances of ``(n, 12, 2)`` JointId-ordered coordinates.

    Each distance is ``math.hypot``: ``np.hypot`` rounds differently in
    the last bit on some inputs, which would change written decisions.
    """
    # Overflow to inf is caught by the caller, as a distance that overflows.
    with np.errstate(over="ignore"):
        delta = coords[:, _DISTANCE_PAIRS[:, 0]] - coords[:, _DISTANCE_PAIRS[:, 1]]
        dist = np.fromiter(
            map(math.hypot, delta[..., 0].ravel().tolist(), delta[..., 1].ravel().tolist()),
            np.float64,
            delta.shape[0] * delta.shape[1],
        ).reshape(-1, len(_DISTANCE_PAIRS))
        return (dist[:, 0:4] + dist[:, 4:8]) / 2.0, dist[:, 8]


def _argmin(values: np.ndarray, order: Sequence[TouchLabel]) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values`` (columns in LABEL_ORDER): the LABEL_ORDER
    index of the smallest entry, exact ties going to the label first in
    ``order``, and whether the minimum was tied."""
    columns = np.array([LABEL_ORDER.index(label) for label in order], np.int8)
    ordered = values[:, columns]
    best = ordered.min(axis=1, keepdims=True)
    tied = np.count_nonzero(ordered == best, axis=1) > 1
    return columns[ordered.argmin(axis=1)], tied


def _decide(frame_ids, coords: np.ndarray, config: ClassifierConfig, scale: float) -> tuple:
    """Classify ``(n, 12, 2)`` coordinates of the frames ``frame_ids``.

    Returns ``(labels, rule1_fired, rule2_applied, tie_broken, profiles)``:
    LABEL_ORDER indices, three boolean arrays and the ``(n, 4)`` unadjusted
    distances. Rule 1 overrides whatever the argmin picked; rule 2 biases
    the shoulder entry inside it. The first frame with a distance that
    overflows raises EvaluationError.
    """
    if not isfinite(scale) or scale <= 0.0:
        raise InvalidScale(f"reference scale must be positive and finite, got {scale!r}")
    profiles, head_hip = _distances(coords)
    overflow = ~np.isfinite(profiles).all(axis=1)
    if overflow.any():
        row = int(overflow.argmax())
        try:
            DistanceProfile(*profiles[row].tolist())
        except ValueError as exc:
            raise EvaluationError(f"frame {frame_ids[row]}: {exc}") from None
    values = profiles
    if config.enable_rule2:
        values = profiles.copy()
        values[:, _SHOULDERS] += config.rule2_bias_ratio * scale
    labels, tie_broken = _argmin(values, config.tie_break_order)
    if config.enable_rule1:
        rule1_fired = head_hip < config.rule1_threshold_ratio * scale
    else:
        rule1_fired = np.zeros(len(profiles), dtype=bool)
    labels[rule1_fired] = _TOES
    tie_broken &= ~rule1_fired
    rule2_applied = ~rule1_fired if config.enable_rule2 else np.zeros_like(rule1_fired)
    return labels, rule1_fired, rule2_applied, tie_broken, profiles


def distance_profile(pose: BodyPose) -> DistanceProfile:
    """Average left/right wrist distances to head, shoulders, knees, ankles."""
    profiles, _ = _distances(_joint_array([pose]))
    return DistanceProfile(*profiles[0].tolist())


def classify_baseline(profile: DistanceProfile, config: ClassifierConfig) -> FrameDecision:
    """Plain argmin over the four distances; no rules involved."""
    labels, tie_broken = _argmin(np.array([profile.as_tuple()]), config.tie_break_order)
    return FrameDecision(
        label=LABEL_ORDER[labels[0]], profile=profile, tie_broken=bool(tie_broken[0])
    )


def _frame_decisions(decided: tuple) -> list[FrameDecision]:
    """One FrameDecision per row of what ``_decide`` returns."""
    labels, *flags, profiles = (column.tolist() for column in decided)
    return [FrameDecision(LABEL_ORDER[label], DistanceProfile(*profile), *row_flags)
            for label, profile, row_flags in zip(labels, profiles, zip(*flags))]


def classify(pose: BodyPose, config: ClassifierConfig, scale: float) -> FrameDecision:
    """Classify one frame with the configured rules.

    ``scale`` is the reference scale in pixels (1.0 in fixed-pixels mode).
    Rule 1 overrides the distance comparison; rule 2 only biases the
    shoulder entry inside the argmin. Coordinates so far apart that a
    distance overflows raise EvaluationError. A one-row call into the
    array core that classifies pose files.
    """
    return _frame_decisions(_decide([pose.frame_id], _joint_array([pose]), config, scale))[0]


def calibration_scale(poses: Iterable[BodyPose] | np.ndarray, window=CALIBRATION_WINDOW) -> float:
    """Standing torso length: the largest head-to-hip distance among the
    opening ``window`` frames, given as poses or as ``(n, 12, 2)``
    JointId-ordered coordinates.

    Needs no labels; robust to the subject starting mid-gesture because
    bent frames only ever shrink the head-to-hip distance.
    """
    window = max(1, window)
    if not isinstance(poses, np.ndarray):
        poses = _joint_array(islice(poses, window))
    if not len(poses):
        raise EmptyInput("cannot calibrate from an empty pose sequence")
    scale = float(_distances(poses[:window])[1].max())
    if scale <= 0.0:
        raise DegeneratePose("head and hip coincide in every calibration frame")
    return scale
