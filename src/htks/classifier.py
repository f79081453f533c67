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

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import isfinite
from typing import Iterable, Sequence

from .errors import ConfigError, EmptyInput, DegeneratePose, EvaluationError, InvalidScale
from .pose import LABEL_ORDER, BodyPose, JointId, TouchLabel, euclidean

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


def distance_profile(pose: BodyPose) -> DistanceProfile:
    """Average left/right wrist distances to head, shoulders, knees, ankles."""
    j = pose.joints
    lw, rw = j[JointId.LEFT_WRIST], j[JointId.RIGHT_WRIST]
    head = j[JointId.HEAD]
    return DistanceProfile(
        d_head=(euclidean(lw, head) + euclidean(rw, head)) / 2.0,
        d_shoulders=(
            euclidean(lw, j[JointId.LEFT_SHOULDER]) + euclidean(rw, j[JointId.RIGHT_SHOULDER])
        )
        / 2.0,
        d_knees=(euclidean(lw, j[JointId.LEFT_KNEE]) + euclidean(rw, j[JointId.RIGHT_KNEE]))
        / 2.0,
        d_ankles=(euclidean(lw, j[JointId.LEFT_ANKLE]) + euclidean(rw, j[JointId.RIGHT_ANKLE]))
        / 2.0,
    )


def _argmin_label(
    values: Sequence[float], order: Sequence[TouchLabel]
) -> tuple[TouchLabel, bool]:
    """Label of the smallest of ``values`` (given in LABEL_ORDER); exact
    ties go to the label that comes first in ``order``."""
    best = min(values)
    tied = [label for label in order if values[LABEL_ORDER.index(label)] == best]
    return tied[0], len(tied) > 1


def classify_baseline(profile: DistanceProfile, config: ClassifierConfig) -> FrameDecision:
    """Plain argmin over the four distances; no rules involved."""
    label, tie_broken = _argmin_label(profile.as_tuple(), config.tie_break_order)
    return FrameDecision(label=label, profile=profile, tie_broken=tie_broken)


def classify(pose: BodyPose, config: ClassifierConfig, scale: float) -> FrameDecision:
    """Classify one frame with the configured rules.

    ``scale`` is the reference scale in pixels (1.0 in fixed-pixels mode).
    Rule 1 is checked first and short-circuits the distance comparison;
    rule 2 only biases the shoulder entry inside the argmin. Coordinates
    so far apart that a distance overflows raise EvaluationError.
    """
    if not isfinite(scale) or scale <= 0.0:
        raise InvalidScale(f"reference scale must be positive and finite, got {scale!r}")
    try:
        profile = distance_profile(pose)
    except ValueError as exc:
        raise EvaluationError(f"frame {pose.frame_id}: {exc}") from None
    j = pose.joints
    if config.enable_rule1:
        head_hip = euclidean(j[JointId.HEAD], j[JointId.HIP])
        if head_hip < config.rule1_threshold_ratio * scale:
            return FrameDecision(label=TouchLabel.TOES, profile=profile, rule1_fired=True)
    d_head, d_shoulders, d_knees, d_ankles = profile.as_tuple()
    if config.enable_rule2:
        d_shoulders += config.rule2_bias_ratio * scale
    label, tie_broken = _argmin_label(
        (d_head, d_shoulders, d_knees, d_ankles), config.tie_break_order
    )
    return FrameDecision(
        label=label,
        profile=profile,
        rule2_applied=config.enable_rule2,
        tie_broken=tie_broken,
    )


def calibration_scale(poses: Iterable[BodyPose], window: int = CALIBRATION_WINDOW) -> float:
    """Standing torso length: the largest head-to-hip distance among the
    opening ``window`` frames.

    Needs no labels; robust to the subject starting mid-gesture because
    bent frames only ever shrink the head-to-hip distance.
    """
    opening = list(islice(iter(poses), max(1, window)))
    if not opening:
        raise EmptyInput("cannot calibrate from an empty pose sequence")
    scale = max(euclidean(p[JointId.HEAD], p[JointId.HIP]) for p in opening)
    if scale <= 0.0:
        raise DegeneratePose("head and hip coincide in every calibration frame")
    return scale
