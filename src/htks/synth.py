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

``frame_blocks`` is the one producer. Each class draws its noise from
its own ``SeedSequence(entropy=seed, spawn_key=(class_index,))`` stream
as ``standard_normal((n, 12, 2)) * sigma`` in blocks of at most
``_BLOCK_FRAMES`` frames (slices of one stream are one whole draw) and
adds it to ``template * torso``; ``generate_frames`` concatenates the
blocks. ``generate`` and ``SynthFrames.pairs`` build (pose, label) lists
from that array. Every coordinate is one float64 multiply and one add of
the same operands, whether computed elementwise in numpy or per joint in
Python floats, so the values are bit-identical either way; the pose
writer formats them with ``repr`` and yields the same bytes from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from numbers import Integral, Real
from sys import float_info
from typing import Iterator

import numpy as np

from .pose import BodyPose, JointId, Point2, TouchLabel

__all__ = [
    "SynthConfig",
    "SynthFrames",
    "frame_blocks",
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
        seed, torso, jitter = self.seed, self.torso_length, self.jitter_stddev_ratio
        frames = self.frames_per_class
        if not (_is_a(Integral, seed) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        # A bound of float_info.max rejects nan, inf and ints too large for a float.
        if not (_is_a(Real, torso) and 0 < torso <= float_info.max):
            raise ValueError(f"torso_length must be a finite real > 0, got {torso!r}")
        if not (_is_a(Real, jitter) and 0 <= jitter <= float_info.max):
            raise ValueError(f"jitter_stddev_ratio must be a finite real >= 0, got {jitter!r}")
        if not (_is_a(Integral, frames) and frames >= 1):
            raise ValueError(f"frames_per_class must be an integer >= 1, got {frames!r}")


def _is_a(kind, value) -> bool:
    """``isinstance(value, kind)``, but a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


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

    def pairs(self) -> list[tuple[BodyPose, TouchLabel]]:
        """The frames as (pose, label) pairs."""
        poses = (
            BodyPose(frame_id, {joint: Point2(x, y) for joint, (x, y) in zip(_JOINTS, row)})
            for frame_id, row in enumerate(self.coords.tolist())
        )
        return list(zip(poses, self.labels))


# Frames per block of ``frame_blocks`` (786 KB). With 512-frame blocks a
# 50k-frame ``htks generate`` took 7x the minor page faults and more time.
_BLOCK_FRAMES = 4096


def frame_blocks(config: SynthConfig,
                 confusable: bool = False) -> Iterator[tuple[TouchLabel, np.ndarray]]:
    """The frames of ``generate_frames`` in order, as ``(label, coords)``
    blocks of at most ``_BLOCK_FRAMES`` frames of one class each. A block
    with a coordinate that is not finite raises ValueError instead."""
    class_templates = _CONFUSABLE_TEMPLATES if confusable else _CLASS_TEMPLATES
    torso = config.torso_length
    sigma = config.jitter_stddev_ratio * torso
    n = config.frames_per_class
    for class_index, (label, template) in enumerate(class_templates):
        # Independent per-class streams keep the classes parallelizable
        # and insensitive to one another's frame counts.
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(class_index,))
        )
        pose = np.array([template[joint] for joint in _JOINTS]) * torso
        for start in range(0, n, _BLOCK_FRAMES):
            noise = rng.standard_normal((min(_BLOCK_FRAMES, n - start), len(_JOINTS), 2))
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                block = np.add(pose, np.multiply(noise, sigma, out=noise), out=noise)
            if not np.isfinite(block).all():
                raise ValueError(f"torso_length {torso!r} with jitter_stddev_ratio "
                                 f"{config.jitter_stddev_ratio!r} overflows a coordinate")
            yield label, block


def generate_frames(config: SynthConfig, confusable: bool = False) -> SynthFrames:
    """Generate the frames of ``generate`` as arrays. With ``confusable``,
    every frame is a toes-labelled folded pose with the wrists exactly
    midway between knee and ankle, so the knee and ankle distances tie."""
    labels, blocks = zip(*frame_blocks(config, confusable))
    return SynthFrames(np.concatenate(blocks),
                       tuple(chain.from_iterable(map(repeat, labels, map(len, blocks)))))


def generate(config: SynthConfig) -> list[tuple[BodyPose, TouchLabel]]:
    """Generate ``frames_per_class`` labelled poses for each touch class.

    Deterministic for a given config; jitter 0 yields the bare templates.
    """
    return generate_frames(config).pairs()

