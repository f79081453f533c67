"""Deterministic synthetic skeleton generator.

Emits labelled pose sequences for the four touch classes from three
posture templates, one fixed template per class (there is no choice of
bend model):

- upright (head and shoulders classes): full standing torso, wrists on
  the target joints;
- partial bend (knees class): torso pitched forward, projected head-hip
  distance ~0.78 of the standing torso, wrists on the knees;
- deep fold (toes class): crouched fold with the hips dropped, projected
  head-hip distance under 0.4 of the standing torso, head down near the
  ankles, wrists on the ankles. This reproduces the characteristic
  bent-over confusion where the hands end up closer to the detected head
  than plain geometry would suggest.

Template coordinates are multiples of 1/64 so midpoints and differences
stay exact in floating point (the confusable preset relies on exact
knee/ankle ties). Isotropic Gaussian jitter is applied per joint; noise
is drawn unconditionally and scaled, so runs with the same seed align
frame-for-frame across jitter settings.

``generate_frames`` is the one producer. Each class draws its noise from
its own ``SeedSequence(entropy=seed, spawn_key=(class_index,))`` stream
as ``standard_normal((n, 12, 2)) * sigma`` and adds it to ``template *
torso``, giving one ``(N, 12, 2)`` float64 array for the whole sequence.
``generate`` and ``SynthFrames.pairs`` build (pose, label) lists from
that array. Every coordinate is one float64 multiply and one add of
the same operands, whether computed elementwise in numpy or per joint in
Python floats, so the values are bit-identical either way; the pose
writer formats them with ``repr`` and yields the same bytes from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .pose import BodyPose, JointId, Point2, TouchLabel

__all__ = [
    "SynthConfig",
    "SynthFrames",
    "generate",
    "generate_frames",
]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator; identical configs yield identical output."""

    seed: int = 0
    torso_length: float = 300.0
    jitter_stddev_ratio: float = 0.0
    frames_per_class: int = 100

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (isfinite(self.torso_length) and self.torso_length > 0):
            raise ValueError(f"torso_length must be > 0, got {self.torso_length!r}")
        if not (isfinite(self.jitter_stddev_ratio) and self.jitter_stddev_ratio >= 0):
            raise ValueError(
                f"jitter_stddev_ratio must be >= 0, got {self.jitter_stddev_ratio!r}"
            )
        if self.frames_per_class < 1:
            raise ValueError(f"frames_per_class must be >= 1, got {self.frames_per_class!r}")


# Joint order used for the per-frame noise array.
_JOINTS = tuple(JointId)

# Coordinates are in torso units (head-hip distance of the standing pose
# is exactly 1), y grows downward as in image space, hip of the standing
# pose is the origin. All values are multiples of 1/64.

_UPRIGHT = {
    JointId.HEAD: (0.0, -1.0),
    JointId.LEFT_SHOULDER: (-0.21875, -0.75),
    JointId.RIGHT_SHOULDER: (0.21875, -0.75),
    JointId.LEFT_ELBOW: (-0.3125, -0.4375),
    JointId.RIGHT_ELBOW: (0.3125, -0.4375),
    JointId.LEFT_WRIST: (-0.25, -0.125),
    JointId.RIGHT_WRIST: (0.25, -0.125),
    JointId.HIP: (0.0, 0.0),
    JointId.LEFT_KNEE: (-0.125, 0.5),
    JointId.RIGHT_KNEE: (0.125, 0.5),
    JointId.LEFT_ANKLE: (-0.140625, 1.0),
    JointId.RIGHT_ANKLE: (0.140625, 1.0),
}

# Torso pitched forward; the projected head-hip distance stays well above
# the default rule-1 threshold so knees frames keep their own label.
_PARTIAL_BEND = {
    JointId.HEAD: (0.0, -0.78125),
    JointId.LEFT_SHOULDER: (-0.21875, -0.546875),
    JointId.RIGHT_SHOULDER: (0.21875, -0.546875),
    JointId.LEFT_ELBOW: (-0.296875, -0.25),
    JointId.RIGHT_ELBOW: (0.296875, -0.25),
    JointId.LEFT_WRIST: (-0.25, 0.0),
    JointId.RIGHT_WRIST: (0.25, 0.0),
    JointId.HIP: (0.0, 0.0),
    JointId.LEFT_KNEE: (-0.140625, 0.546875),
    JointId.RIGHT_KNEE: (0.140625, 0.546875),
    JointId.LEFT_ANKLE: (-0.140625, 1.0),
    JointId.RIGHT_ANKLE: (0.140625, 1.0),
}

# Semi-fold used by the confusable preset: still bent, but head and
# shoulders kept high enough that the tied knee/ankle distances are the
# smallest profile entries, so the tie actually decides the argmin.
_SEMI_FOLD = {
    JointId.HEAD: (0.125, 0.625),
    JointId.LEFT_SHOULDER: (-0.203125, 0.546875),
    JointId.RIGHT_SHOULDER: (0.203125, 0.546875),
    JointId.LEFT_ELBOW: (-0.21875, 0.75),
    JointId.RIGHT_ELBOW: (0.21875, 0.75),
    JointId.LEFT_WRIST: (-0.25, 0.75),
    JointId.RIGHT_WRIST: (0.25, 0.75),
    JointId.HIP: (0.0, 0.5),
    JointId.LEFT_KNEE: (-0.15625, 0.625),
    JointId.RIGHT_KNEE: (0.15625, 0.625),
    JointId.LEFT_ANKLE: (-0.140625, 1.0),
    JointId.RIGHT_ANKLE: (0.140625, 1.0),
}

# Crouched fold: hips dropped, head down by the feet. Projected head-hip
# distance is sqrt(0.125^2 + 0.375^2) ~ 0.395, under the 0.4 contract.
_DEEP_FOLD = {
    JointId.HEAD: (0.125, 0.875),
    JointId.LEFT_SHOULDER: (-0.203125, 0.734375),
    JointId.RIGHT_SHOULDER: (0.203125, 0.734375),
    JointId.LEFT_ELBOW: (-0.21875, 0.90625),
    JointId.RIGHT_ELBOW: (0.21875, 0.90625),
    JointId.LEFT_WRIST: (-0.25, 0.875),
    JointId.RIGHT_WRIST: (0.25, 0.875),
    JointId.HIP: (0.0, 0.5),
    JointId.LEFT_KNEE: (-0.15625, 0.625),
    JointId.RIGHT_KNEE: (0.15625, 0.625),
    JointId.LEFT_ANKLE: (-0.140625, 1.0),
    JointId.RIGHT_ANKLE: (0.140625, 1.0),
}


def _with_wrists_at(template: dict, target_left: JointId, target_right: JointId) -> dict:
    placed = dict(template)
    placed[JointId.LEFT_WRIST] = template[target_left]
    placed[JointId.RIGHT_WRIST] = template[target_right]
    return placed


def _with_wrists_midway(
    template: dict, left_a: JointId, left_b: JointId, right_a: JointId, right_b: JointId
) -> dict:
    placed = dict(template)
    placed[JointId.LEFT_WRIST] = tuple(
        (a + b) / 2.0 for a, b in zip(template[left_a], template[left_b])
    )
    placed[JointId.RIGHT_WRIST] = tuple(
        (a + b) / 2.0 for a, b in zip(template[right_a], template[right_b])
    )
    return placed


# Emission order: one block per class, upright classes first so that the
# opening frames of a generated sequence always contain standing poses
# for calibration.
_CLASS_TEMPLATES = (
    (TouchLabel.HEAD, _with_wrists_at(_UPRIGHT, JointId.HEAD, JointId.HEAD)),
    (
        TouchLabel.SHOULDERS,
        _with_wrists_at(_UPRIGHT, JointId.LEFT_SHOULDER, JointId.RIGHT_SHOULDER),
    ),
    (TouchLabel.KNEES, _with_wrists_at(_PARTIAL_BEND, JointId.LEFT_KNEE, JointId.RIGHT_KNEE)),
    (TouchLabel.TOES, _with_wrists_at(_DEEP_FOLD, JointId.LEFT_ANKLE, JointId.RIGHT_ANKLE)),
)

_CONFUSABLE_TEMPLATES = (
    (
        TouchLabel.TOES,
        _with_wrists_midway(
            _SEMI_FOLD,
            JointId.LEFT_KNEE,
            JointId.LEFT_ANKLE,
            JointId.RIGHT_KNEE,
            JointId.RIGHT_ANKLE,
        ),
    ),
)


@dataclass(frozen=True, eq=False)
class SynthFrames:
    """Generated frames as arrays; row ``i`` is frame id ``i``.

    ``coords`` is an ``(N, 12, 2)`` float64 array, joints in ``JointId``
    order; ``labels`` holds the N touch labels.
    """

    coords: np.ndarray
    labels: tuple[TouchLabel, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def pairs(self) -> list[tuple[BodyPose, TouchLabel]]:
        """The frames as (pose, label) pairs."""
        poses = (
            BodyPose(frame_id, {joint: Point2(x, y) for joint, (x, y) in zip(_JOINTS, row)})
            for frame_id, row in enumerate(self.coords.tolist())
        )
        return list(zip(poses, self.labels))


def generate_frames(config: SynthConfig, confusable: bool = False) -> SynthFrames:
    """Generate the frames of ``generate`` as arrays. With ``confusable``,
    every frame is a toes-labelled folded pose with the wrists exactly
    midway between knee and ankle, so the knee and ankle distances tie."""
    class_templates = _CONFUSABLE_TEMPLATES if confusable else _CLASS_TEMPLATES
    torso = config.torso_length
    sigma = config.jitter_stddev_ratio * torso
    n = config.frames_per_class
    blocks = []
    labels: tuple[TouchLabel, ...] = ()
    for class_index, (label, template) in enumerate(class_templates):
        # Independent per-class streams keep the classes parallelizable
        # and insensitive to one another's frame counts.
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(class_index,))
        )
        noise = rng.standard_normal((n, len(_JOINTS), 2)) * sigma
        blocks.append(np.array([template[joint] for joint in _JOINTS]) * torso + noise)
        labels += (label,) * n
    return SynthFrames(coords=np.concatenate(blocks), labels=labels)


def generate(config: SynthConfig) -> list[tuple[BodyPose, TouchLabel]]:
    """Generate ``frames_per_class`` labelled poses for each touch class.

    Deterministic for a given config; jitter 0 yields the bare templates.
    """
    return generate_frames(config).pairs()

